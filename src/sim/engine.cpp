#include "sim/engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "ckpt/policy.hpp"
#include "markov/expectation.hpp"
#include "obs/registry.hpp"
#include "sim/events.hpp"
#include "util/rng.hpp"

namespace volsched::sim {
namespace {

using markov::ProcState;

enum class InstKind : std::uint8_t { Original, Replica };
enum class InstStatus : std::uint8_t { Pool, Committed, Done, Cancelled };

/// One copy of one logical task (original or replica).
struct Instance {
    int logical = -1;
    InstKind kind = InstKind::Original;
    InstStatus status = InstStatus::Pool;
    ProcId proc = kNoProc;     ///< worker holding this instance (committed)
    ProcId planned = kNoProc;  ///< sticky-plan target while still in pool
    long long plan_seq = -1;   ///< order in which the plan chose this instance
    int data_remaining = 0;
    bool data_started = false;
    bool data_done = false;
    long long commit_slot = -1;
};

/// Runtime protocol state of the whole fleet, stored as structure-of-arrays:
/// one parallel vector per field, indexed by processor.  The per-slot
/// phases do not sweep these columns end to end: they visit only the
/// members of the Runner's UP and holder sets (WorkerSet below), so a
/// slot's cost follows the workers that are present or busy, not P.  The
/// platform's speed vector (`Platform::w`) and the RLE trace cursors are
/// the remaining per-worker parallels, owned by their own containers.
/// `operator[]` bundles one worker's fields as references — call sites keep
/// the old `w.field` spelling while every load/store still hits the
/// per-field array.
struct WorkerSoA {
    std::vector<ProcState> state;
    std::vector<std::uint8_t> has_program;
    std::vector<std::uint8_t> prog_in_flight;
    std::vector<int> prog_remaining;
    std::vector<long long> prog_start;
    std::vector<int> staged;    ///< instance receiving / holding next data
    std::vector<long long> data_start;
    std::vector<int> computing; ///< instance with complete data, computing
    std::vector<int> compute_remaining;
    // Checkpoint upload state (only touched when a policy is attached).
    std::vector<std::uint8_t> ckpt_in_flight; ///< upload in progress
    std::vector<int> ckpt_remaining;  ///< transfer slots left for the upload
    std::vector<long long> ckpt_start; ///< upload start slot (FIFO key)
    std::vector<int> ckpt_progress; ///< q-scale progress the upload captured
    std::vector<int> since_ckpt;    ///< compute slots since the last snapshot
    std::vector<int> compute_credit; ///< q-scale progress at promotion
    std::vector<int> ckpt_committed; ///< q-scale progress of the last
                                     ///< snapshot THIS incarnation committed

    void resize(int p) {
        const auto n = static_cast<std::size_t>(p);
        state.assign(n, ProcState::Up);
        has_program.assign(n, 0);
        prog_in_flight.assign(n, 0);
        prog_remaining.assign(n, 0);
        prog_start.assign(n, -1);
        staged.assign(n, -1);
        data_start.assign(n, -1);
        computing.assign(n, -1);
        compute_remaining.assign(n, 0);
        ckpt_in_flight.assign(n, 0);
        ckpt_remaining.assign(n, 0);
        ckpt_start.assign(n, -1);
        ckpt_progress.assign(n, 0);
        since_ckpt.assign(n, 0);
        compute_credit.assign(n, 0);
        ckpt_committed.assign(n, 0);
    }

    /// One worker's fields as references, const or not.
    template <bool Const>
    struct Bundle {
        template <class T>
        using F = std::conditional_t<Const, const T&, T&>;
        F<ProcState> state;
        F<std::uint8_t> has_program;
        F<std::uint8_t> prog_in_flight;
        F<int> prog_remaining;
        F<long long> prog_start;
        F<int> staged;
        F<long long> data_start;
        F<int> computing;
        F<int> compute_remaining;
        F<std::uint8_t> ckpt_in_flight;
        F<int> ckpt_remaining;
        F<long long> ckpt_start;
        F<int> ckpt_progress;
        F<int> since_ckpt;
        F<int> compute_credit;
        F<int> ckpt_committed;
    };

    Bundle<false> operator[](int q) noexcept { return bundle(*this, q); }
    Bundle<true> operator[](int q) const noexcept { return bundle(*this, q); }

private:
    template <class Self>
    static Bundle<std::is_const_v<Self>> bundle(Self& s, int q) noexcept {
        return {s.state[q],          s.has_program[q],   s.prog_in_flight[q],
                s.prog_remaining[q], s.prog_start[q],    s.staged[q],
                s.data_start[q],     s.computing[q],     s.compute_remaining[q],
                s.ckpt_in_flight[q], s.ckpt_remaining[q], s.ckpt_start[q],
                s.ckpt_progress[q],  s.since_ckpt[q],    s.compute_credit[q],
                s.ckpt_committed[q]};
    }
};

/// A set of processor indices, one bit per worker, walked in ascending
/// index order.  Membership updates are O(1); a walk costs one word load
/// per 64 workers plus one step per member.  next() reads the live bits, so
/// a walk sees removals and insertions ahead of its position — the same
/// view a plain 0..P-1 sweep would have.
class WorkerSet {
public:
    void reset(int procs) {
        words_.assign((static_cast<std::size_t>(procs) + 63) / 64, 0);
    }
    void assign(int q, bool member) noexcept {
        if (member) words_[word(q)] |= bit(q);
        else words_[word(q)] &= ~bit(q);
    }
    /// Adds every member of `o` (same capacity).
    void merge(const WorkerSet& o) noexcept {
        for (std::size_t i = 0; i < words_.size(); ++i)
            words_[i] |= o.words_[i];
    }
    void clear() noexcept { std::fill(words_.begin(), words_.end(), 0); }
    /// Member count, of the intersection with `mask` when given.
    [[nodiscard]] int size(const WorkerSet* mask = nullptr) const noexcept {
        int n = 0;
        for (std::size_t i = 0; i < words_.size(); ++i)
            n += std::popcount(live(i, mask));
        return n;
    }
    bool operator==(const WorkerSet& o) const { return words_ == o.words_; }

    /// First member >= `from` of this set, intersected with `mask` when
    /// given; -1 when there is none.
    [[nodiscard]] int next(int from, const WorkerSet* mask = nullptr) const
        noexcept {
        std::size_t i = word(from);
        if (i >= words_.size()) return -1;
        std::uint64_t bits = live(i, mask) & (~std::uint64_t{0} << (from & 63));
        while (bits == 0) {
            if (++i == words_.size()) return -1;
            bits = live(i, mask);
        }
        return static_cast<int>(i * 64) + std::countr_zero(bits);
    }

private:
    static std::size_t word(int q) noexcept {
        return static_cast<std::size_t>(q) >> 6;
    }
    static std::uint64_t bit(int q) noexcept {
        return std::uint64_t{1} << (q & 63);
    }
    [[nodiscard]] std::uint64_t live(std::size_t i,
                                     const WorkerSet* mask) const noexcept {
        return mask ? words_[i] & mask->words_[i] : words_[i];
    }

    std::vector<std::uint64_t> words_;
};

/// Per-logical-task checkpoint committed at the master: `done` compute
/// slots on the scale of the snapshotting worker's `w`.  A restart on a
/// worker with speed w' is credited floor(done * w' / w) slots.
struct TaskCheckpoint {
    int done = 0;
    int w = 1;
};

/// Transfer descriptor used when ordering the slot's bandwidth allocation.
/// Kind breaks (start, proc) ties when one worker both receives data and
/// uploads a checkpoint committed in the same slot.
enum class TransferKind : std::uint8_t { Prog, Data, Ckpt };
struct ActiveTransfer {
    long long start;
    ProcId proc;
    TransferKind kind;
};

/// What forces the event-driven core to simulate a slot normally.
enum class EventCause : std::uint8_t {
    Horizon,     ///< EngineConfig::max_slots
    StateChange, ///< an availability RLE segment ends
    Transfer,    ///< an advancing program/data/checkpoint transfer drains
    Checkpoint,  ///< a checkpoint policy's quiet horizon expires
    Compute,     ///< a computing worker's task reaches completion
};

/// The slot phase a worker-set walk serves; each phase's walks are counted
/// as `sim.visits.<phase>` (their sum is `sim.worker_visits`).
enum class Phase : std::uint8_t { States, Transfers, Plan, Compute, EndOfSlot };
constexpr std::array<const char*, 5> kPhaseCounters = {
    "sim.visits.states", "sim.visits.transfers", "sim.visits.plan",
    "sim.visits.compute", "sim.visits.end_of_slot"};

/// How a steady_horizon call ended, counted as `sim.horizon.<exit>`: every
/// exit but `Jump` makes the event core simulate the slot normally.
enum class HorizonExit : std::uint8_t {
    Precheck,    ///< walk-free round check: a heuristic round is due
    Plan,        ///< plan_would_act
    PendingData, ///< a deferred data transfer can start
    StateChange, ///< an availability segment ends at t
    Transfer,    ///< a transfer drains at t
    Checkpoint,  ///< a checkpoint policy fires at t
    Compute,     ///< a computation completes at t
    MinJump,     ///< an inert stretch shorter than kMinJump
    Jump,        ///< an inert stretch the run loop fast-forwards
};
constexpr std::array<const char*, 9> kHorizonCounters = {
    "sim.horizon.precheck",     "sim.horizon.plan",
    "sim.horizon.pending_data", "sim.horizon.state_change",
    "sim.horizon.transfer",     "sim.horizon.checkpoint",
    "sim.horizon.compute",      "sim.horizon.min_jump",
    "sim.horizon.jump"};

/// The event-driven core's frontier of (slot, event) candidates.
/// Conceptually a priority queue ordered by slot; since any simulated slot
/// can invalidate every queued prediction (a crash reshuffles the transfer
/// queue, a heuristic round commits new work), entries are re-derived at
/// each decision point and only the minimum is ever popped — so the queue
/// keeps just the running minimum instead of a heap.
struct EventQueue {
    long long slot;
    EventCause cause;

    explicit EventQueue(long long horizon) noexcept
        : slot(horizon), cause(EventCause::Horizon) {}

    void push(long long s, EventCause c) noexcept {
        if (s < slot) {
            slot = s;
            cause = c;
        }
    }
};

class Runner {
public:
    Runner(const Platform& platform, markov::RealizedTraces& traces,
           const std::vector<markov::MarkovChain>& beliefs,
           const EngineConfig& config, std::uint64_t seed)
        : pf_(platform), config_(config), traces_(&traces) {
        const int p = pf_.size();
        workers_.resize(p);
        up_.reset(p);
        holders_.reset(p);
        transfers_.reset(p);
        free_.reset(p);
        for (int q = 0; q < p; ++q) free_.assign(q, true);
        up_since_.assign(static_cast<std::size_t>(p), 0);
        views_.resize(static_cast<std::size_t>(p));
        nq_.assign(static_cast<std::size_t>(p), 0);
        planned_logical_.assign(static_cast<std::size_t>(p), -1);
        stale_views_.reset(p);
        for (int q = 0; q < p; ++q) stale_views_.assign(q, true);
        cursors_.reserve(p);
        for (int q = 0; q < p; ++q)
            cursors_.emplace_back(traces.trace(q));
        // Every worker is consulted at slot 0.
        change_at_.assign(static_cast<std::size_t>(p), 0);
        change_capped_.assign(static_cast<std::size_t>(p), 0);
        for (int q = 0; q < p; ++q) change_queue_.push({0, q});
        sched_rng_ = util::Rng(util::mix_seed(seed, 0x53434845ULL));
        beliefs_ = beliefs.empty() ? nullptr : &beliefs;
    }

    RunMetrics run(Scheduler& sched) {
        start_iteration();
        metrics_.per_proc.assign(static_cast<std::size_t>(pf_.size()), {});
        for (RunObserver* o : config_.observers) o->begin_run(pf_);
        slot_flags_.assign(static_cast<std::size_t>(pf_.size()), 0);
        long long t = 0;
        while (t < config_.max_slots) {
            if (config_.event_driven) {
                // A realization that starts with every worker absent: do
                // slot 0's bookkeeping in closed form and skip the whole
                // stretch (the `t > 0` guard below would walk slot 0).
                if (t == 0 && try_skip_initial_dead(t)) continue;
                // Event-driven core: jump to the next candidate event and
                // advance the provably-inert slots in between
                // arithmetically.  Stretches shorter than kMinJump are not
                // worth a fast_forward's setup (except dead ones, so that
                // dead_slots_skipped counts every absent slot elided) —
                // they run through the normal phases below, and
                // known_inert_until_ remembers the horizon so the
                // prediction is not recomputed per slot.
                if (t > 0 && t >= known_inert_until_) {
                    const long long ev = steady_horizon(t);
                    if (ev - t >= kMinJump || (ev > t && up_count_ == 0)) {
                        fast_forward(t, ev);
                        t = ev;
                        continue;
                    }
                    known_inert_until_ = ev;
                }
            }
            slot_ = t;
            ++work_.slots_stepped;
            advance_states(t);
            int budget = pf_.ncom;
            transfers_this_slot_ = 0;
            build_active();
            advance_in_flight(budget, 1);
            start_pending_data(t, budget);
            start_checkpoints(t, budget);
            plan_and_commit(sched, t, budget);
            advance_compute(1);
            if (config_.audit) audit_bandwidth();
            record_slots(t, t + 1, /*elided=*/false);
            metrics_.completed = end_of_slot(t);
            if (config_.audit) {
                audit_invariants();
                audit_worker_sets();
            }
            if (metrics_.completed) return finish(t + 1);
            ++t;
        }
        return finish(config_.max_slots);
    }

private:
    /// Closes the run at `end` (the makespan, or the horizon).
    RunMetrics finish(long long end) {
        phase_ = Phase::States;
        for (int q = next_up(0); q >= 0; q = next_up(q + 1)) credit_up(q, end);
        metrics_.makespan = end;
        metrics_.iterations_completed = iterations_done_;
        for (RunObserver* o : config_.observers) o->end_run(end);
        publish_work();
        return metrics_;
    }

    // ---- iteration bookkeeping ---------------------------------------

    void start_iteration() {
        const int m = config_.tasks_per_iteration;
        logical_done_.assign(m, false);
        logical_live_.assign(m, 1);
        remaining_logical_ = m;
        instances_.clear();
        instances_.reserve(static_cast<std::size_t>(m) * 2);
        for (int i = 0; i < m; ++i) {
            Instance inst;
            inst.logical = i;
            inst.kind = InstKind::Original;
            inst.data_remaining = pf_.t_data;
            instances_.push_back(inst);
        }
        ckpt_store_.assign(static_cast<std::size_t>(m), {});
        plan_counter_ = 0;
    }

    // ---- slot phases --------------------------------------------------

    /// Phase 1.  Only workers whose cached change slot has come up are
    /// consulted (in index order, so events keep the sweep's order); every
    /// other worker provably holds its state.
    void advance_states(long long t) {
        phase_ = Phase::States;
        changed_.clear();
        while (!change_queue_.empty() && change_queue_.top().first <= t) {
            changed_.push_back(change_queue_.top().second);
            change_queue_.pop();
        }
        std::sort(changed_.begin(), changed_.end());
        for (const ProcId q : changed_) {
            visit(q);
            const ProcState prev = workers_.state[q];
            const ProcState next = consult(q, t);
            if (t > 0 && next == prev) continue;
            // UP slots are credited per stretch, when it ends (slot 0's
            // default Up credits nothing).
            if (prev == ProcState::Up) credit_up(q, t);
            if (next == ProcState::Up) up_since_[q] = t;
            workers_.state[q] = next;
            up_.assign(q, next == ProcState::Up);
            stale_views_.assign(q, true);
            emit(EventKind::StateChange, q, -1, false, next);
            // Past slot 0 a change to DOWN means the worker was not DOWN.
            if (next == ProcState::Down) {
                ++metrics_.down_events;
                ++metrics_.per_proc[q].down_events;
                handle_down(q);
            }
        }
        up_count_ = up_.size();
    }

    /// Credits UP worker q with its UP stretch [up_since_[q], end): when q
    /// leaves UP at slot `end`, or when the run closes at `end`.
    void credit_up(ProcId q, long long end) {
        metrics_.per_proc[q].up_slots += end - up_since_[q];
    }

    /// Reads worker q's state at slot t and re-arms its change cache: the
    /// end of the RLE segment holding t, looked up at most
    /// kChangeLookahead slots ahead so that an open frontier segment is not
    /// sampled out to max_slots.  A capped entry only means "consult again
    /// then"; next_state_change() extends it when it bounds a horizon.
    ProcState consult(ProcId q, long long t) {
        const ProcState state = cursors_[q].state_at(t);
        const long long limit =
            config_.max_slots - t > kChangeLookahead ? t + kChangeLookahead
                                                     : config_.max_slots;
        arm_change(q, cursors_[q].next_change_at(t, limit), limit);
        work_.cursor_queries += 2;
        return state;
    }

    void arm_change(ProcId q, long long change, long long limit) {
        change_at_[q] = change;
        change_capped_[q] = change == limit && change < config_.max_slots;
        change_queue_.push({change, q});
    }

    /// The first slot at which some worker's state differs from the state
    /// it held when last consulted (capped at max_slots): the minimum of
    /// the cached segment ends, with capped entries at the front of the
    /// queue re-read, doubling their lookahead, until the minimum is a true
    /// segment end.  `t` is the next slot to simulate.
    long long next_state_change(long long t) {
        for (;;) {
            const auto [change, q] = change_queue_.top();
            if (change >= config_.max_slots) return config_.max_slots;
            if (!change_capped_[q]) return change;
            change_queue_.pop();
            // The state holds through change - 1, which still lies in the
            // segment the cursor is on.
            const long long reach = std::max(kChangeLookahead, change - t);
            const long long limit = config_.max_slots - change > reach
                                        ? change + reach
                                        : config_.max_slots;
            arm_change(q, cursors_[q].next_change_at(change - 1, limit),
                       limit);
            ++work_.cursor_queries;
        }
    }

    /// Slot-0 case of the event core's dead-stretch elision: when the
    /// realization starts with every worker DOWN or RECLAIMED, slot 0's
    /// only observable work is the initial StateChange emission and the
    /// DOWN accounting (nothing is committed yet, so handle_down has
    /// nothing to release) — phase 1 alone.  Run it, then fast-forward the
    /// stretch.  Returns false when some worker starts UP (the normal loop
    /// then runs slot 0).
    bool try_skip_initial_dead(long long& t) {
        phase_ = Phase::States;
        for (int q = 0; q < pf_.size(); ++q) {
            visit(q);
            ++work_.cursor_queries;
            if (cursors_[q].state_at(0) == ProcState::Up) return false;
        }
        slot_ = 0;
        advance_states(0);
        t = next_state_change(0);
        build_active(); // empty: nothing is in flight yet
        fast_forward(0, t);
        return true;
    }

    // ---- event-driven core ---------------------------------------------

    /// Returns the first slot >= t that must be simulated normally.  Every
    /// slot in [t, result) is provably inert: worker states are constant
    /// (the RLE cursors bound the next availability transition), the same
    /// transfers advance without draining, no data transfer can start, no
    /// checkpoint policy fires, no computation completes, and the
    /// plan/commit phase would not act (a heuristic round may consume RNG,
    /// so any slot that reaches one is simulated).  Conservative by
    /// construction — any doubt returns t.  On a result the run loop will
    /// jump (>= t + kMinJump, or > t with no worker present), `active_`
    /// holds the stretch's transfer allocation for fast_forward().
    long long steady_horizon(long long t) {
        // In dense phases a round is due almost every slot: settle that
        // without a walk when the counts alone prove it.
        if (round_due()) {
            if (config_.audit) audit_round_due();
            return horizon_exit(HorizonExit::Precheck, t);
        }

        // Bandwidth allocation for the stretch: a cheap unsorted count
        // first — the advancing set only matters once the slot is known to
        // be inert, and the leftover budget feeds the act-now checks.
        // min_rem over ALL active transfers lower-bounds the remainder of
        // any advancing subset, so it bounds the first possible drain
        // without knowing the FIFO order.
        const InFlight flight = in_flight();
        const int advancing = std::min(pf_.ncom, flight.count);
        const int budget = pf_.ncom - advancing;

        // Scheduler decision point this slot?  Checked before the bounds
        // below: it needs no sorting, and it settles what round_due could
        // not (a passive class, or bandwidth that only the exact in-flight
        // count shows free).
        if (plan_would_act(budget))
            return horizon_exit(HorizonExit::Plan, t);

        // A deferred data start (phase 2b) acts as soon as bandwidth is
        // free — or instantly when data is free.
        phase_ = Phase::Transfers;
        if (budget > 0 || pf_.t_data == 0) {
            for (int q = next_up_holder(0); q >= 0;
                 q = next_up_holder(q + 1)) {
                const auto w = workers_[q];
                if (!w.has_program || w.staged == -1) continue;
                const Instance& inst = instances_[w.staged];
                if (!inst.data_started && !inst.data_done)
                    return horizon_exit(HorizonExit::PendingData, t);
            }
        }

        EventQueue next(config_.max_slots);

        // Availability transitions: worker states at t must equal the
        // states held since slot t-1, and the stretch ends where the first
        // RLE segment does.
        const long long change = next_state_change(t);
        if (change <= t) return horizon_exit(HorizonExit::StateChange, t);
        next.push(change, EventCause::StateChange);

        // Transfer completions: each advancing transfer drains to zero —
        // and must be simulated — in slot t + remaining - 1.  min_rem is a
        // lower bound over any advancing subset, so the pushed slot is at
        // or before the true first drain (a conservative, still-inert cap).
        if (advancing > 0) {
            if (flight.min_rem <= 1)
                return horizon_exit(HorizonExit::Transfer, t);
            next.push(t + flight.min_rem - 1, EventCause::Transfer);
        }

        // Checkpoint decisions (phase 2b'): with no bandwidth and a
        // nonzero cost the phase returns before any side effect; otherwise
        // every eligible worker is consulted every slot, so ask the policy
        // how long it is guaranteed to stay quiet under arithmetic
        // advancement.
        if (config_.checkpoint &&
            (config_.checkpoint_cost == 0 || budget > 0)) {
            for (int q = next_up_holder(0); q >= 0;
                 q = next_up_holder(q + 1)) {
                const auto w = workers_[q];
                if (w.computing == -1 || w.ckpt_in_flight) continue;
                // A worker with since_ckpt == 0 is first consulted one
                // slot later (after one slot of the stretch has computed).
                const int lead = w.since_ckpt > 0 ? 0 : 1;
                const ckpt::CheckpointView view =
                    ckpt_view(q, w.since_ckpt + lead,
                              w.compute_remaining - lead, t + lead);
                if (view.remaining <= 0) continue; // completion comes first
                const long long quiet =
                    config_.checkpoint->quiet_horizon(view);
                // quiet may be kQuietForever: compare without adding lead.
                if (quiet <= -static_cast<long long>(lead))
                    return horizon_exit(HorizonExit::Checkpoint, t);
                if (quiet < config_.max_slots - t - lead)
                    next.push(t + lead + quiet, EventCause::Checkpoint);
            }
        }

        // Compute completions: an advancing computation drains to zero —
        // and completes — in slot t + remaining - 1.
        phase_ = Phase::Compute;
        for (int q = next_up_holder(0); q >= 0; q = next_up_holder(q + 1)) {
            const auto w = workers_[q];
            if (w.computing == -1 || w.ckpt_in_flight) continue;
            if (w.compute_remaining <= 1)
                return horizon_exit(HorizonExit::Compute, t);
            next.push(t + w.compute_remaining - 1, EventCause::Compute);
        }

        // Only a stretch the run loop will actually fast_forward needs the
        // sorted transfer allocation; the no-jump path skips the sort.
        if (next.slot - t < kMinJump && up_count_ > 0)
            return horizon_exit(HorizonExit::MinJump, next.slot);
        build_active();
        return horizon_exit(HorizonExit::Jump, next.slot);
    }

    /// The transfers in flight to/from UP workers: how many, and the least
    /// remainder among them.
    struct InFlight {
        int count = 0;
        int min_rem = std::numeric_limits<int>::max();
        void add(bool active, int rem) {
            if (!active || rem <= 0) return;
            ++count;
            min_rem = std::min(min_rem, rem);
        }
    };
    [[nodiscard]] InFlight in_flight() {
        phase_ = Phase::Transfers;
        InFlight f;
        for (int q = next_up_transfer(0); q >= 0;
             q = next_up_transfer(q + 1)) {
            const auto w = workers_[q];
            f.add(w.prog_in_flight, w.prog_remaining);
            if (w.staged != -1) {
                const Instance& inst = instances_[w.staged];
                f.add(inst.data_started, inst.data_remaining);
            }
            f.add(w.ckpt_in_flight, w.ckpt_remaining);
        }
        return f;
    }

    /// Counts how steady_horizon ended, and returns its result `slot`.
    long long horizon_exit(HorizonExit why, long long slot) {
        ++work_.horizon[static_cast<std::size_t>(why)];
        return slot;
    }

    /// Walk-free sufficient condition for plan_would_act: a non-passive
    /// class with a worker present, bandwidth provably left over after the
    /// in-flight transfers, a round the heuristic has not opted out of, and
    /// a pool original to plan (or a replica to consider) runs a heuristic
    /// round.  Each UP worker in `transfers_` advances at most one
    /// transfer, or two when a checkpoint upload can ride beside its data
    /// (a program download excludes both: data starts only once the
    /// program is held, and only a computing worker uploads).
    [[nodiscard]] bool round_due() const {
        if (config_.plan_class == SchedulerClass::Passive || up_count_ == 0)
            return false;
        if (pf_.t_data > 0 &&
            transfers_.size(&up_) * (config_.checkpoint ? 2 : 1) >= pf_.ncom)
            return false;
        if (skips_round()) return false;
        return may_replicate() || has_pool_original();
    }

    /// Some original of the iteration waits in the master's pool.
    [[nodiscard]] bool has_pool_original() const {
        for (const Instance& inst : originals())
            if (inst.status == InstStatus::Pool) return true;
        return false;
    }

    /// Whether a round's picks can be committed this slot (SchedView::
    /// can_commit): always under Passive, whose plans stick; otherwise
    /// only when some UP worker has a free buffer.  Both sets are frozen
    /// across a steady stretch, so the answer is too.
    [[nodiscard]] bool can_commit() const {
        return config_.plan_class == SchedulerClass::Passive ||
               free_.next(0, &up_) >= 0;
    }

    /// True when this slot's round, if one is due, is skipped: the
    /// heuristic opted out of rounds that cannot commit (Scheduler::select
    /// returned kNoProc in one), and this is such a round.
    [[nodiscard]] bool skips_round() const {
        return opted_out_ && !can_commit();
    }

    /// True when plan_and_commit, with `budget` bandwidth units left,
    /// reaches a round and skips it (it counts `sim.rounds_skipped`).
    [[nodiscard]] bool round_skipped(int budget) const {
        if ((budget == 0 && pf_.t_data > 0) || up_count_ == 0) return false;
        return skips_round() && (may_replicate() || has_pool_original());
    }

    /// Audit-mode check that round_due only claims what plan_would_act
    /// confirms under the exact in-flight count.
    void audit_round_due() {
        if (!plan_would_act(pf_.ncom -
                            std::min(pf_.ncom, in_flight().count)))
            throw std::logic_error("audit: walk-free round check claimed a "
                                   "round the full check would not run");
    }

    /// Replica candidates are planned only when UP workers outnumber the
    /// remaining tasks (Section 6.1).
    [[nodiscard]] bool may_replicate() const {
        return config_.replica_cap > 0 && up_count_ > remaining_logical_;
    }

    /// The iteration's originals: the original of logical task i is
    /// instances_[i], and the pool only ever holds originals
    /// (audit_invariants checks both), so a pool scan reads these m.
    [[nodiscard]] std::span<Instance> originals() {
        return {instances_.data(),
                static_cast<std::size_t>(config_.tasks_per_iteration)};
    }
    [[nodiscard]] std::span<const Instance> originals() const {
        return {instances_.data(),
                static_cast<std::size_t>(config_.tasks_per_iteration)};
    }

    /// Mirrors plan_and_commit's control flow without side effects: true
    /// when the phase would mutate state, consult the scheduler, or consume
    /// heuristic RNG this slot, given `budget` bandwidth units left over
    /// from the earlier phases.  Every input read here is constant across a
    /// steady stretch, so a false answer holds for the whole stretch.
    [[nodiscard]] bool plan_would_act(int budget) {
        phase_ = Phase::Plan;
        if (proactive_would_act()) return true;
        if (budget == 0 && pf_.t_data > 0) return false;
        // With no worker present nothing plans, commits, or replicates
        // (may_replicate needs up_count_ > remaining_logical_ >= 0 and the
        // commit sweep needs an UP target), so the phase is inert.
        if (up_count_ == 0) return false;
        // A round the heuristic opted out of is skipped without a side
        // effect (it only counts sim.rounds_skipped, which fast_forward
        // counts too).
        if (skips_round()) return false;
        // A heuristic round runs: begin_round plus RNG-consuming selects.
        if (may_replicate()) return true;
        // Non-passive classes re-plan every round: any pool instance means
        // a round runs.
        if (config_.plan_class != SchedulerClass::Passive)
            return has_pool_original();
        bool any_pool = false;
        bool any_unplanned = false;
        for (const auto& inst : originals()) {
            if (inst.status != InstStatus::Pool) continue;
            any_pool = true;
            if (inst.planned == kNoProc) any_unplanned = true;
        }
        if (!any_pool) return false;
        if (any_unplanned) return true;
        // Passive with every pool instance planned: only the commit sweep
        // remains.  It acts exactly when some planned target is UP with a
        // free buffer and the bandwidth/zero-cost rules let a transfer (or
        // a stage-behind-program) start.
        if (budget == 0 && pf_.t_data > 0 && pf_.t_prog > 0) return false;
        for (const auto& inst : originals()) {
            if (inst.status != InstStatus::Pool || inst.planned == kNoProc)
                continue;
            const auto w = workers_[inst.planned];
            if (w.state != ProcState::Up || w.staged != -1) continue;
            if (w.has_program) {
                if (pf_.t_data == 0 || budget > 0) return true;
            } else if (w.prog_in_flight) {
                return true; // stages behind the in-flight program, free
            } else if (pf_.t_prog == 0) {
                // Enrolment is free; the earlier guards ensure the data
                // path can start too (budget > 0 or t_data == 0).
                return true;
            } else if (budget > 0) {
                return true;
            }
        }
        return false;
    }

    /// True when proactive_reassess would un-enrol a worker this slot — or
    /// when its decision inputs could drift across an otherwise-steady
    /// stretch (an idle UP worker's in-flight program download drains,
    /// shrinking the best idle alternative slot by slot).
    [[nodiscard]] bool proactive_would_act() {
        if (config_.plan_class != SchedulerClass::Proactive || !beliefs_)
            return false;
        const IdleAlternative alt = best_idle_alternative();
        if (std::isinf(alt.expected)) return false;
        for (int q = next_holder(0); q >= 0; q = next_holder(q + 1)) {
            const auto w = workers_[q];
            if (w.state != ProcState::Reclaimed) continue;
            if (w.staged == -1 && w.computing == -1) continue;
            if (alt.drifting) return true; // conservatively simulate the slot
            if (redo_is_faster(q, alt.expected)) return true;
        }
        return false;
    }

    /// The best idle alternative for proactive un-enrolment: the least
    /// expected time (under the belief chains, RECLAIMED detours included)
    /// for an idle UP worker to run a whole pipeline — program if missing,
    /// data, compute — or infinity when no UP worker is idle.  `drifting`
    /// is set when some idle worker's program download is in flight, so
    /// the estimate shrinks slot by slot.
    struct IdleAlternative {
        double expected = std::numeric_limits<double>::infinity();
        bool drifting = false;
    };
    [[nodiscard]] IdleAlternative best_idle_alternative() {
        IdleAlternative alt;
        for (int q = next_up(0); q >= 0; q = next_up(q + 1)) {
            const auto w = workers_[q];
            if (w.staged != -1 || w.computing != -1) continue;
            if (!w.has_program && w.prog_in_flight) alt.drifting = true;
            const double need =
                (w.has_program
                     ? 0.0
                     : static_cast<double>(w.prog_in_flight ? w.prog_remaining
                                                            : pf_.t_prog)) +
                pf_.t_data + pf_.w[q];
            alt.expected = std::min(
                alt.expected,
                markov::e_workload((*beliefs_)[q].matrix(), need));
        }
        return alt;
    }

    /// True when an idle worker expected to take `best_alt` slots beats
    /// suspended worker q at finishing q's committed pipeline: q's expected
    /// wait to leave RECLAIMED plus its remaining data and compute.  A
    /// worker whose belief never leaves RECLAIMED is never un-enrolled.
    [[nodiscard]] bool redo_is_faster(ProcId q, double best_alt) const {
        const auto w = workers_[q];
        const auto& m = (*beliefs_)[q].matrix();
        const double p_rr = m.p_rr();
        if (p_rr >= 1.0) return false;
        const double expected_return = 1.0 / (1.0 - p_rr);
        int remaining = 0;
        if (w.computing != -1) remaining += w.compute_remaining;
        if (w.staged != -1)
            remaining += instances_[w.staged].data_remaining + pf_.w[q];
        return best_alt < expected_return + markov::e_workload(m, remaining);
    }

    /// Advances the steady stretch [from, to) arithmetically: states are
    /// frozen, the first min(ncom, |active_|) transfers and every
    /// unobstructed computation drain one unit per slot, and the observers
    /// receive the identical per-slot activity the slot loop would have
    /// produced.  Preconditions: steady_horizon(from) >= to, and `active_`
    /// is the list it built.
    void fast_forward(long long from, long long to) {
        const long long n = to - from;
        if (config_.audit) audit_steady_range(from, to);
        int budget = pf_.ncom;
        advance_in_flight(budget, n);
        if (round_skipped(budget)) work_.rounds_skipped += n;
        advance_compute(n);
        metrics_.slots_elided += n;
        if (up_count_ == 0) metrics_.dead_slots_skipped += n;
        record_slots(from, to, /*elided=*/true);
    }

    /// Audit-mode re-verification of an elided range: checks that the
    /// previous slot left nothing to materialize (and, in a dead range, no
    /// worker UP), then replays the stretch's premises slot by slot against
    /// the realized trace, the drain arithmetic, and the checkpoint
    /// policy's actual should_checkpoint.
    void audit_steady_range(long long from, long long to) {
        const long long n = to - from;
        for (int q = 0; q < pf_.size(); ++q) {
            const auto w = workers_[q];
            if (up_count_ == 0 && w.state == ProcState::Up)
                throw std::logic_error("audit: dead range with an UP worker");
            if (w.computing != -1 && w.compute_remaining == 0)
                throw std::logic_error(
                    "audit: event elision with a pending completion");
            if (w.computing == -1 && w.staged != -1 &&
                instances_[w.staged].data_done)
                throw std::logic_error(
                    "audit: event elision with a pending promotion");
            if (w.ckpt_in_flight && w.ckpt_remaining == 0)
                throw std::logic_error(
                    "audit: event elision with a pending checkpoint commit");
            for (long long s = from; s < to; ++s)
                if (traces_->trace(q).state_at(s) != w.state)
                    throw std::logic_error(
                        "audit: event elision crossed a state change");
        }
        const int advancing =
            std::min(pf_.ncom, static_cast<int>(active_.size()));
        for (int i = 0; i < advancing; ++i) {
            const ActiveTransfer& tr = active_[i];
            const auto w = workers_[tr.proc];
            const int rem = tr.kind == TransferKind::Prog ? w.prog_remaining
                            : tr.kind == TransferKind::Data
                                ? instances_[w.staged].data_remaining
                                : w.ckpt_remaining;
            if (rem <= n)
                throw std::logic_error(
                    "audit: event elision crossed a transfer completion");
        }
        const int budget = pf_.ncom - advancing;
        const bool consults = config_.checkpoint &&
                              (config_.checkpoint_cost == 0 || budget > 0);
        for (int q = 0; q < pf_.size(); ++q) {
            const auto w = workers_[q];
            if (w.state != ProcState::Up || w.computing == -1 ||
                w.ckpt_in_flight)
                continue;
            if (w.compute_remaining <= n)
                throw std::logic_error(
                    "audit: event elision crossed a compute completion");
            if (!consults) continue;
            for (long long k = 0; k < n; ++k) {
                const int computed = w.since_ckpt + static_cast<int>(k);
                const int remaining =
                    w.compute_remaining - static_cast<int>(k);
                if (computed <= 0 || remaining <= 0) continue;
                if (config_.checkpoint->should_checkpoint(
                        ckpt_view(q, computed, remaining, from + k)))
                    throw std::logic_error(
                        "audit: event elision crossed a checkpoint "
                        "decision");
            }
        }
    }

    /// DOWN semantics (Section 3.2): lose the program, staged data, and
    /// partial computation.  Original instances go back to the pool (to be
    /// resent from scratch); replicas are simply cancelled.
    void handle_down(ProcId q) {
        auto w = workers_[q];
        if (w.prog_in_flight) {
            metrics_.wasted_transfer_slots += pf_.t_prog - w.prog_remaining;
            w.prog_in_flight = false;
            w.prog_remaining = 0;
            w.prog_start = -1;
        } else if (w.has_program) {
            // A resident program lost to a crash must be resent in full.
            metrics_.wasted_transfer_slots += pf_.t_prog;
        }
        w.has_program = false;
        release_work(q, EventKind::WorkLost);
        sync_holder(q);
        // Sticky plans targeting a crashed processor are invalidated.
        if (config_.plan_class == SchedulerClass::Passive) {
            for (auto& inst : instances_)
                if (inst.status == InstStatus::Pool && inst.planned == q)
                    inst.planned = kNoProc;
        }
    }

    /// Releases worker q's staged, then computing, instance to the pool,
    /// reporting each as `why`.
    void release_work(ProcId q, EventKind why) {
        for (const int id : {workers_.staged[q], workers_.computing[q]}) {
            if (id == -1) continue;
            emit(why, q, instances_[id]);
            release_instance(id, /*to_pool=*/true);
        }
    }

    /// Detaches a committed instance from its worker, accounting for the
    /// wasted work.  Originals return to the pool when `to_pool`; replicas
    /// are always cancelled (the pool only ever holds originals).
    void release_instance(int id, bool to_pool) {
        Instance& inst = instances_[id];
        const ProcId q = inst.proc;
        auto w = workers_[q];
        if (inst.data_started)
            metrics_.wasted_transfer_slots += pf_.t_data - inst.data_remaining;
        if (w.computing == id) {
            if (w.ckpt_in_flight) {
                // The upload's subject is gone; the spent bandwidth is lost.
                metrics_.wasted_transfer_slots +=
                    config_.checkpoint_cost - w.ckpt_remaining;
                w.ckpt_in_flight = false;
                w.ckpt_remaining = 0;
                w.ckpt_start = -1;
                w.ckpt_progress = 0;
                emit(EventKind::CheckpointLost, q, inst);
            }
            // Lost progress: only the work THIS incarnation computed counts
            // (its initial credit was computed by an earlier incarnation),
            // and only the part it committed to the master survives.  A
            // cancelled sibling of a completed task preserves nothing — its
            // snapshots have no future incarnation to serve.
            const int progress = pf_.w[q] - w.compute_remaining;
            const int own = progress - w.compute_credit;
            const int preserved =
                to_pool ? std::clamp(w.ckpt_committed - w.compute_credit, 0,
                                     own)
                        : 0;
            metrics_.wasted_compute_slots += own - preserved;
            w.computing = -1;
            w.compute_remaining = 0;
            w.since_ckpt = 0;
            w.compute_credit = 0;
            w.ckpt_committed = 0;
        }
        if (w.staged == id) {
            w.staged = -1;
            w.data_start = -1;
            free_.assign(q, true);
        }
        sync_holder(q);
        inst.proc = kNoProc;
        inst.planned = kNoProc;
        inst.plan_seq = -1;
        inst.commit_slot = -1;
        inst.data_started = false;
        inst.data_done = false;
        inst.data_remaining = pf_.t_data;
        if (to_pool && inst.kind == InstKind::Original) {
            inst.status = InstStatus::Pool;
        } else {
            inst.status = InstStatus::Cancelled;
            --logical_live_[inst.logical];
        }
    }

    /// Rebuilds `active_`: the slot's in-flight transfers to/from UP
    /// workers in bandwidth-allocation order (FIFO by start, then proc,
    /// then kind).  The first min(ncom, size) entries are the ones that
    /// advance this slot — and, since the order is a pure function of state
    /// that only simulated slots change, every slot of a steady stretch.
    void build_active() {
        phase_ = Phase::Transfers;
        active_.clear();
        for (int q = next_up_transfer(0); q >= 0;
             q = next_up_transfer(q + 1)) {
            const auto w = workers_[q];
            if (w.prog_in_flight && w.prog_remaining > 0)
                active_.push_back({w.prog_start, q, TransferKind::Prog});
            if (w.staged != -1) {
                const Instance& inst = instances_[w.staged];
                if (inst.data_started && inst.data_remaining > 0)
                    active_.push_back({w.data_start, q, TransferKind::Data});
            }
            if (w.ckpt_in_flight && w.ckpt_remaining > 0)
                active_.push_back({w.ckpt_start, q, TransferKind::Ckpt});
        }
        std::sort(active_.begin(), active_.end(),
                  [](const ActiveTransfer& a, const ActiveTransfer& b) {
                      if (a.start != b.start) return a.start < b.start;
                      if (a.proc != b.proc) return a.proc < b.proc;
                      return a.kind < b.kind;
                  });
    }

    /// Phase 2a: advance in-flight transfers to/from UP workers, FIFO by
    /// start — the first `budget` entries of `active_`, by `n` slots each
    /// (one for a stepped slot, a whole steady stretch for fast_forward).
    /// Checkpoint uploads ride the same queue as program and data
    /// downloads: every slot-unit of bandwidth comes out of the one `ncom`
    /// budget regardless of direction.
    void advance_in_flight(int& budget, long long n) {
        const int units = static_cast<int>(n);
        for (const auto& tr : active_) {
            if (budget == 0) break;
            auto w = workers_[tr.proc];
            if (tr.kind == TransferKind::Prog) {
                w.prog_remaining -= units;
                flag(tr.proc, SlotActivity::kProgram);
                record_recv(tr.proc, -2);
            } else if (tr.kind == TransferKind::Data) {
                instances_[w.staged].data_remaining -= units;
                flag(tr.proc, SlotActivity::kData);
                record_recv(tr.proc, instances_[w.staged].logical);
            } else {
                // Checkpoint upload: master-bound, so it is not a received
                // action (the action trace records the receive/compute
                // model the off-line validator checks) and not counted in
                // transfer_slots (program + data); it has its own counter.
                w.ckpt_remaining -= units;
                flag(tr.proc, SlotActivity::kCheckpoint);
                metrics_.checkpoint_slots += n;
                ++transfers_this_slot_;
                --budget;
                continue;
            }
            metrics_.per_proc[tr.proc].transfer_slots += n;
            metrics_.transfer_slots += n;
            ++transfers_this_slot_;
            --budget;
        }
    }

    /// Phase 2b': start checkpoint uploads the policy requests — after
    /// committed data transfers (work in hand beats insurance) but before
    /// the fresh assignment round (insurance beats speculation).  Pure
    /// per-worker decisions in processor order; no RNG is consumed, so a
    /// policy that never fires (`none`) leaves the run bit-identical.
    void start_checkpoints(long long t, int& budget) {
        if (!config_.checkpoint) return;
        phase_ = Phase::Transfers;
        for (int q = next_up_holder(0); q >= 0; q = next_up_holder(q + 1)) {
            auto w = workers_[q];
            if (w.computing == -1 || w.ckpt_in_flight) continue;
            if (w.since_ckpt <= 0 || w.compute_remaining <= 0) continue;
            if (!config_.checkpoint->should_checkpoint(
                    ckpt_view(q, w.since_ckpt, w.compute_remaining, t)))
                continue;
            const int progress = pf_.w[q] - w.compute_remaining;
            const Instance& inst = instances_[w.computing];
            if (config_.checkpoint_cost == 0) { // zero-cost: instant commit
                emit(EventKind::CheckpointStart, q, inst);
                commit_checkpoint(q, inst.logical, progress);
                w.since_ckpt = 0;
                continue;
            }
            if (budget == 0) return; // no bandwidth: every later start waits
            w.ckpt_in_flight = true;
            w.ckpt_remaining = config_.checkpoint_cost - 1; // one slot now
            w.ckpt_start = t;
            w.ckpt_progress = progress;
            w.since_ckpt = 0;
            sync_transfer(q);
            ++metrics_.checkpoint_slots;
            ++transfers_this_slot_;
            --budget;
            flag(q, SlotActivity::kCheckpoint);
            emit(EventKind::CheckpointStart, q, inst);
        }
    }

    /// The checkpoint policy's view of worker q with `computed` slots since
    /// its last snapshot and `remaining` to go, at `slot`.
    [[nodiscard]] ckpt::CheckpointView ckpt_view(ProcId q, int computed,
                                                 int remaining,
                                                 long long slot) const {
        return {.belief = beliefs_ ? &(*beliefs_)[q] : nullptr,
                .cost = config_.checkpoint_cost,
                .w = pf_.w[q],
                .computed = computed,
                .remaining = remaining,
                .slot = slot};
    }

    /// Records `progress` slots (on worker q's scale) as the logical task's
    /// committed checkpoint when it beats the stored fraction.
    void commit_checkpoint(ProcId q, int logical, int progress) {
        if (progress > 0) {
            workers_[q].ckpt_committed = progress;
            TaskCheckpoint& c = ckpt_store_[static_cast<std::size_t>(logical)];
            // Fraction comparison progress/w_q >= done/w, cross-multiplied.
            if (static_cast<long long>(progress) * c.w >=
                static_cast<long long>(c.done) * pf_.w[q]) {
                c.done = progress;
                c.w = pf_.w[q];
            }
        }
        ++metrics_.checkpoints_committed;
        emit(EventKind::CheckpointCommit, q, logical);
    }

    /// Restart credit for `logical` on a worker of speed `wq`: the stored
    /// fraction translated to that worker's scale.  Always < wq, because a
    /// snapshot is only taken while compute remains (done < w).
    [[nodiscard]] int ckpt_credit(int logical, int wq) const {
        const TaskCheckpoint& c =
            ckpt_store_[static_cast<std::size_t>(logical)];
        if (c.done <= 0) return 0;
        return static_cast<int>(static_cast<long long>(c.done) * wq / c.w);
    }

    /// Phase 2b: start data transfers for committed instances that were
    /// waiting behind their worker's program download (FIFO by commit time).
    void start_pending_data(long long t, int& budget) {
        phase_ = Phase::Transfers;
        pending_.clear();
        for (int q = next_up_holder(0); q >= 0; q = next_up_holder(q + 1)) {
            const auto w = workers_[q];
            if (!w.has_program || w.staged == -1) continue;
            const Instance& inst = instances_[w.staged];
            if (!inst.data_started && !inst.data_done)
                pending_.push_back(q);
        }
        std::sort(pending_.begin(), pending_.end(),
                  [this](ProcId a, ProcId b) {
                      const auto& ia = instances_[workers_[a].staged];
                      const auto& ib = instances_[workers_[b].staged];
                      return ia.commit_slot != ib.commit_slot
                                 ? ia.commit_slot < ib.commit_slot
                                 : a < b;
                  });
        for (ProcId q : pending_) {
            if (pf_.t_data > 0 && budget == 0) break;
            start_data(instances_[workers_.staged[q]], q, t, budget);
        }
    }

    /// Starts the data transfer of `inst`, staged on q: complete at once
    /// when data is free, otherwise its first slot-unit of bandwidth now.
    void start_data(Instance& inst, ProcId q, long long t, int& budget) {
        inst.data_started = true;
        if (pf_.t_data == 0) {
            inst.data_done = true;
            promotion_due_ = true;
        } else {
            workers_.data_start[q] = t;
            --inst.data_remaining;
            spend_download(q, budget, SlotActivity::kData, inst.logical);
            sync_transfer(q);
        }
        emit(EventKind::DataStart, q, inst);
    }

    /// Books one slot-unit of master bandwidth for a download to q that
    /// receives `recv` (-2: program, else task data).
    void spend_download(ProcId q, int& budget, std::uint8_t activity,
                        int recv) {
        ++metrics_.per_proc[q].transfer_slots;
        ++metrics_.transfer_slots;
        ++transfers_this_slot_;
        --budget;
        flag(q, activity);
        record_recv(q, recv);
    }

    /// Phase 2c: a heuristic round (Section 6): assign pool originals one by
    /// one, then replica candidates, then commit transfers in plan order
    /// while bandwidth lasts.
    void plan_and_commit(Scheduler& sched, long long t, int& budget) {
        phase_ = Phase::Plan;
        proactive_reassess();
        if (budget == 0 && pf_.t_data > 0) return;

        // Pool originals needing a (re-)plan.
        pool_.clear();
        for (Instance& inst : originals()) {
            if (inst.status != InstStatus::Pool) continue;
            if (config_.plan_class != SchedulerClass::Passive)
                inst.planned = kNoProc;
            pool_.push_back(inst.logical);
        }

        const bool may_replicate = this->may_replicate();
        const bool must_plan =
            std::any_of(pool_.begin(), pool_.end(),
                        [this](int id) {
                            return instances_[id].planned == kNoProc;
                        }) ||
            may_replicate;
        if (pool_.empty() && !may_replicate) return;
        if (up_count_ == 0) return;
        if (skips_round()) {
            ++work_.rounds_skipped;
            return;
        }

        // Bring the heuristic's snapshot up to date.  A view can only have
        // moved for a holder (its counters advance every slot) or for a
        // worker marked stale since the last round (a state change, a
        // holder-set entry or exit, a free enrolment); every other view is
        // still exact.
        stale_views_.merge(holders_);
        for (int q = visit(stale_views_.next(0)); q >= 0;
             q = visit(stale_views_.next(q + 1)))
            views_[q] = view_of(q);
        stale_views_.clear();
        if (config_.audit) audit_views();
        SchedView view;
        view.platform = &pf_;
        view.procs = views_;
        view.slot = t;
        view.nactive = 0;
        view.remaining_tasks = static_cast<int>(pool_.size());
        view.can_commit = can_commit();

        // Undo only what the previous round wrote: the queue counts of the
        // workers it planned on and its replica targets.
        for (const ProcId q : planned_procs_) nq_[q] = 0;
        planned_procs_.clear();
        for (const auto& plan : replica_plan_)
            planned_logical_[plan.second] = -1;
        replica_plan_.clear();
        if (config_.audit) audit_round_scratch();

        if (must_plan) {
            if (config_.audit) round_rng_ = sched_rng_;
            for (RunObserver* o : config_.observers) o->on_round(t);
            sched.begin_round(view);

            eligible_.clear();
            for (int q = next_up(0); q >= 0; q = next_up(q + 1))
                eligible_.push_back(q);

            // 1. Original tasks, in logical order, one by one.  A processor
            // already holding a live sibling of the task is excluded
            // (running two copies of a task on one host is pure waste).
            // With the pool original the task's only live copy, nobody
            // holds a sibling and every UP worker is a candidate.
            for (int id : pool_) {
                Instance& inst = instances_[id];
                if (inst.planned != kNoProc) continue; // sticky, already set
                const bool lone = logical_live_[inst.logical] == 1;
                if (!lone || config_.audit) {
                    scratch_.clear();
                    for (ProcId q : eligible_)
                        if (!holds_logical(q, inst.logical))
                            scratch_.push_back(q);
                    if (lone && scratch_ != eligible_)
                        throw std::logic_error(
                            "audit: a lone pool original has a holder");
                }
                const std::vector<ProcId>& candidates =
                    lone ? eligible_ : scratch_;
                if (candidates.empty()) continue;
                const ProcId q = select(sched, view, candidates);
                // Opted out: nothing this round plans could commit.
                if (q == kNoProc) return;
                inst.planned = q;
                inst.plan_seq = plan_counter_++;
                note_planned(q, view);
            }

            // 2. Replica candidates (Section 6.1): only when UP processors
            // outnumber remaining tasks; at most `replica_cap` extras per
            // logical task; restricted to buffer-free processors so that a
            // committed replica starts transferring immediately.
            if (may_replicate) {
                free_eligible_.clear();
                for (ProcId q : eligible_)
                    if (views_[q].buffer_free) free_eligible_.push_back(q);
                for (int lt = 0; lt < config_.tasks_per_iteration; ++lt) {
                    if (logical_done_[lt]) continue;
                    int live = logical_live_[lt];
                    while (live < 1 + config_.replica_cap) {
                        scratch_.clear();
                        for (ProcId q : free_eligible_) {
                            if (holds_logical(q, lt)) continue;
                            if (planned_logical_[q] == lt) continue;
                            if (plans_logical(q, lt)) continue;
                            scratch_.push_back(q);
                        }
                        if (scratch_.empty()) break;
                        const ProcId q = select(sched, view, scratch_);
                        replica_plan_.push_back({lt, q});
                        planned_logical_[q] = lt;
                        note_planned(q, view);
                        ++live;
                    }
                }
            }
        }

        // 3. Commit transfers in plan order: originals first (by plan_seq),
        // then replicas in planning order.
        commit_order_.clear();
        for (int id : pool_)
            if (instances_[id].planned != kNoProc) commit_order_.push_back(id);
        std::sort(commit_order_.begin(), commit_order_.end(),
                  [this](int a, int b) {
                      return instances_[a].plan_seq < instances_[b].plan_seq;
                  });
        for (int id : commit_order_) {
            if (budget == 0 && pf_.t_data > 0 && pf_.t_prog > 0) break;
            try_commit(id, instances_[id].planned, t, budget);
        }
        for (const auto& [lt, q] : replica_plan_) {
            if (budget == 0 && pf_.t_data > 0 && pf_.t_prog > 0) break;
            if (logical_done_[lt]) continue;
            if (workers_[q].staged != -1) continue;
            if (logical_live_[lt] >= 1 + config_.replica_cap) continue;
            // Materialize the replica instance only on successful commit.
            Instance inst;
            inst.logical = lt;
            inst.kind = InstKind::Replica;
            inst.data_remaining = pf_.t_data;
            inst.planned = q;
            instances_.push_back(inst);
            const int id = static_cast<int>(instances_.size()) - 1;
            ++logical_live_[lt];
            if (try_commit(id, q, t, budget)) {
                ++metrics_.replicas_committed;
                emit(EventKind::ReplicaCommitted, q, lt, true);
            } else {
                instances_.pop_back();
                --logical_live_[lt];
            }
        }
    }

    /// One select() of the round.  A kNoProc answer is the heuristic's
    /// opt-out from rounds that cannot commit (Scheduler::select).
    ProcId select(Scheduler& sched, const SchedView& view,
                  std::span<const ProcId> candidates) {
        const ProcId q = sched.select(view, candidates, nq_, sched_rng_);
        if (q == kNoProc) [[unlikely]]
            opt_out(sched, view);
        return q;
    }

    /// Records the heuristic's opt-out, which holds for the rest of the
    /// run.  It is legal only in a round that cannot commit and, as audit
    /// mode checks, only without an RNG draw in that round.
    void opt_out(const Scheduler& sched, const SchedView& view) {
        if (view.can_commit)
            throw std::logic_error("scheduler '" + std::string(sched.name()) +
                                   "' returned kNoProc in a round that can "
                                   "commit");
        if (config_.audit &&
            util::Rng(round_rng_)() != util::Rng(sched_rng_)())
            throw std::logic_error("audit: a scheduler drew from its RNG in "
                                   "the round it opted out of");
        opted_out_ = true;
    }

    /// Counts one more instance planned on `q` this round; the first one
    /// makes q active (the starred heuristics' nactive).
    void note_planned(ProcId q, SchedView& view) {
        if (nq_[q]++ > 0) return;
        ++view.nactive;
        planned_procs_.push_back(q);
    }

    /// Audit-mode check, at round entry, that the previous round's resets
    /// left no queue count and no replica target behind.
    void audit_round_scratch() const {
        if (std::any_of(nq_.begin(), nq_.end(), [](int n) { return n != 0; }))
            throw std::logic_error("audit: stale round queue count");
        if (std::any_of(planned_logical_.begin(), planned_logical_.end(),
                        [](int lt) { return lt != -1; }))
            throw std::logic_error("audit: stale replica target");
    }

    /// SchedulerClass::Proactive: un-enrol a suspended worker when an idle
    /// UP worker is expected (under the belief chains) to redo its whole
    /// committed pipeline faster than the suspended worker can finish it.
    /// Un-enrolment discards staged data and partial results (Section 3.3);
    /// the program is kept (only DOWN loses it).
    void proactive_reassess() {
        if (config_.plan_class != SchedulerClass::Proactive || !beliefs_)
            return;
        const double best_alt = best_idle_alternative().expected;
        if (std::isinf(best_alt)) return;
        for (int q = next_holder(0); q >= 0; q = next_holder(q + 1)) {
            const auto w = workers_[q];
            if (w.state != ProcState::Reclaimed) continue;
            if (w.staged == -1 && w.computing == -1) continue;
            if (!redo_is_faster(q, best_alt)) continue;
            release_work(q, EventKind::ProactiveCancel);
            ++metrics_.proactive_cancellations;
        }
    }

    /// Tries to turn a planned assignment into committed work + a started
    /// transfer.  Returns true when the instance got committed.
    bool try_commit(int id, ProcId q, long long t, int& budget) {
        Instance& inst = instances_[id];
        auto w = workers_[q];
        if (w.state != ProcState::Up || w.staged != -1) return false;
        if (w.has_program) {
            // Needs a data transfer right away.
            if (pf_.t_data > 0 && budget == 0) return false;
            stage(inst, id, q, t);
            start_data(inst, q, t, budget);
            return true;
        }
        if (!w.prog_in_flight) {
            // Enrolment: the program download starts now; the task's data
            // will follow once the program is complete.
            if (pf_.t_prog == 0) {
                w.has_program = true;
                stale_views_.assign(q, true);
                return try_commit(id, q, t, budget);
            }
            if (budget == 0) return false;
            w.prog_in_flight = true;
            w.prog_remaining = pf_.t_prog - 1; // this slot transfers already
            w.prog_start = t;
            spend_download(q, budget, SlotActivity::kProgram, -2);
            emit(EventKind::ProgStart, q, inst);
            stage(inst, id, q, t);
            return true;
        }
        // Program already in flight (started for a since-cancelled task):
        // stage behind it at no bandwidth cost this slot.
        stage(inst, id, q, t);
        return true;
    }

    void stage(Instance& inst, int id, ProcId q, long long t) {
        inst.status = InstStatus::Committed;
        inst.proc = q;
        inst.commit_slot = t;
        workers_[q].staged = id;
        free_.assign(q, false);
        sync_holder(q);
    }

    /// Phase 3, for `n` slots: every UP worker holding a data-complete
    /// task computes, unless its snapshot is uploading.
    void advance_compute(long long n) {
        phase_ = Phase::Compute;
        for (int q = next_up_holder(0); q >= 0; q = next_up_holder(q + 1)) {
            auto w = workers_[q];
            if (w.computing == -1) continue;
            // Computation pauses while the worker's snapshot uploads — the
            // classic checkpoint overhead the policies must amortize.
            if (w.ckpt_in_flight) continue;
            w.compute_remaining -= static_cast<int>(n);
            if (w.compute_remaining <= 0) completion_due_ = true;
            w.since_ckpt += static_cast<int>(n);
            metrics_.compute_slots += n;
            metrics_.per_proc[q].compute_slots += n;
            flag(q, SlotActivity::kCompute);
            record_compute(q, instances_[w.computing].logical);
        }
    }

    /// Phase 4: completions, promotions, iteration boundary.  Returns true
    /// when the final iteration finished during this slot.  Each walk runs
    /// only when something can have happened for it to materialize: a
    /// transfer drains only on a worker in `transfers_`, a task completes
    /// only after advance_compute drove its counter to zero, and a staged
    /// task becomes promotable only when its data completes or the task
    /// ahead of it completes.  Audit mode runs the skipped walks too and
    /// throws if they find work.
    bool end_of_slot(long long t) {
        phase_ = Phase::EndOfSlot;
        for (int q = next_transfer(0); q >= 0; q = next_transfer(q + 1)) {
            auto w = workers_[q];
            if (w.prog_in_flight && w.prog_remaining == 0) {
                w.prog_in_flight = false;
                w.has_program = true;
                w.prog_start = -1;
                emit(EventKind::ProgComplete, q);
                sync_holder(q);
            }
            if (w.staged != -1) {
                Instance& inst = instances_[w.staged];
                if (inst.data_started && inst.data_remaining == 0 &&
                    !inst.data_done) {
                    inst.data_done = true;
                    promotion_due_ = true;
                    emit(EventKind::DataComplete, q, inst);
                }
            }
            if (w.ckpt_in_flight && w.ckpt_remaining == 0) {
                // The upload finished: the snapshot becomes durable at the
                // master and computation resumes next slot.  ckpt_in_flight
                // implies computing != -1 (release_instance cancels the
                // upload when the subject goes away).
                w.ckpt_in_flight = false;
                w.ckpt_start = -1;
                commit_checkpoint(q, instances_[w.computing].logical,
                                  w.ckpt_progress);
                w.ckpt_progress = 0;
            }
            sync_transfer(q);
        }
        // Task completions (may cancel siblings staged on other workers).
        if (completion_due_ || config_.audit) {
            for (int q = next_holder(0); q >= 0; q = next_holder(q + 1)) {
                auto w = workers_[q];
                if (w.computing == -1 || w.compute_remaining > 0) continue;
                if (!completion_due_)
                    throw std::logic_error("audit: unflagged completion");
                complete_instance(w.computing);
                promotion_due_ = true;
            }
            completion_due_ = false;
        }
        // Promotions: a data-complete staged task starts computing next slot.
        if (promotion_due_ || config_.audit) {
            for (int q = next_holder(0); q >= 0; q = next_holder(q + 1))
                promote(q);
            promotion_due_ = false;
        }
        if (remaining_logical_ == 0) {
            emit(EventKind::IterationComplete, kNoProc);
            ++iterations_done_;
            metrics_.iteration_ends.push_back(t + 1);
            if (iterations_done_ == config_.iterations) return true;
            start_iteration();
        }
        return false;
    }

    /// Starts worker q's staged task computing next slot if its data is
    /// complete and nothing computes ahead of it.
    void promote(ProcId q) {
        auto w = workers_[q];
        if (w.computing != -1 || w.staged == -1) return;
        Instance& inst = instances_[w.staged];
        if (!inst.data_done) return;
        if (!promotion_due_)
            throw std::logic_error("audit: unflagged promotion");
        w.computing = w.staged;
        w.staged = -1;
        free_.assign(q, true);
        w.data_start = -1;
        w.compute_remaining = pf_.w[q];
        w.since_ckpt = 0;
        w.compute_credit = 0;
        w.ckpt_committed = 0;
        if (config_.checkpoint && inst.kind == InstKind::Original) {
            // Restart-from-checkpoint: a committed snapshot of this
            // logical task credits the new incarnation with the work it
            // preserves (translated to this worker's speed).  Originals
            // only — a snapshot exists to shorten the post-crash redo,
            // not to give speculative replicas a head start.
            const int credit = ckpt_credit(inst.logical, pf_.w[q]);
            if (credit > 0) {
                w.compute_remaining -= credit;
                w.compute_credit = credit;
                w.ckpt_committed = credit;
                metrics_.saved_compute_slots += credit;
                ++metrics_.recoveries;
                emit(EventKind::Recovery, q, inst);
            }
        }
        emit(EventKind::ComputeStart, q, instances_[w.computing]);
    }

    void complete_instance(int id) {
        Instance& inst = instances_[id];
        auto w = workers_[inst.proc];
        inst.status = InstStatus::Done;
        w.computing = -1;
        w.compute_remaining = 0;
        w.since_ckpt = 0;
        w.compute_credit = 0;
        w.ckpt_committed = 0;
        sync_holder(inst.proc);
        logical_done_[inst.logical] = true;
        --logical_live_[inst.logical];
        --remaining_logical_;
        ++metrics_.tasks_completed;
        ++metrics_.per_proc[inst.proc].tasks_completed;
        if (inst.kind == InstKind::Replica) ++metrics_.replica_wins;
        emit(EventKind::TaskComplete, inst.proc, inst);
        // Cancel all live siblings: their data/compute is wasted.
        for (int sid = 0; sid < static_cast<int>(instances_.size()); ++sid) {
            if (sid == id) continue;
            Instance& sib = instances_[sid];
            if (sib.logical != inst.logical) continue;
            if (sib.status == InstStatus::Pool) {
                sib.status = InstStatus::Cancelled;
                --logical_live_[sib.logical];
            } else if (sib.status == InstStatus::Committed) {
                emit(EventKind::ReplicaCancelled, sib.proc, sib);
                release_instance(sid, /*to_pool=*/false);
            }
        }
    }

    // ---- helpers -------------------------------------------------------

    /// How far ahead consult() looks for the end of a worker's current
    /// availability segment (see next_state_change for longer horizons).
    static constexpr long long kChangeLookahead = 1024;

    /// Shortest inert stretch worth a fast_forward (below it, the closed-
    /// form setup costs more than stepping the slots; dead stretches are
    /// exempt, which keeps dead_slots_skipped meaning every absent slot
    /// elided).
    static constexpr long long kMinJump = 4;
    /// Slots in [t, known_inert_until_) are known inert from an earlier
    /// steady_horizon call that fell under kMinJump; they step through the
    /// normal phases without re-running the prediction.
    long long known_inert_until_ = 0;

    // ---- worker sets ---------------------------------------------------

    /// Walks of the UP, holder and transfer sets and of their
    /// intersections with the UP set: the first member >= `from`, or -1.
    /// Each step counts one worker visit to the current phase.
    int next_up(int from) { return visit(up_.next(from)); }
    int next_holder(int from) { return visit(holders_.next(from)); }
    int next_up_holder(int from) { return visit(holders_.next(from, &up_)); }
    int next_transfer(int from) { return visit(transfers_.next(from)); }
    int next_up_transfer(int from) {
        return visit(transfers_.next(from, &up_));
    }
    int visit(int q) {
        if (q >= 0) ++work_.visits[static_cast<std::size_t>(phase_)];
        return q;
    }

    /// A holder has something in flight on its pipeline: a program
    /// download, a staged or computing instance, or a checkpoint upload.
    [[nodiscard]] bool holds_work(ProcId q) const {
        const auto w = workers_[q];
        return w.prog_in_flight || w.staged != -1 || w.computing != -1 ||
               w.ckpt_in_flight;
    }
    void sync_holder(ProcId q) {
        holders_.assign(q, holds_work(q));
        sync_transfer(q);
        stale_views_.assign(q, true);
    }

    /// A worker with a transfer in flight: a program download, a started
    /// data download not yet materialized, or a checkpoint upload.
    [[nodiscard]] bool moves_data(ProcId q) const {
        const auto w = workers_[q];
        if (w.prog_in_flight || w.ckpt_in_flight) return true;
        if (w.staged == -1) return false;
        const Instance& inst = instances_[w.staged];
        return inst.data_started && !inst.data_done;
    }
    void sync_transfer(ProcId q) { transfers_.assign(q, moves_data(q)); }

    /// Adds the run's work counters to the installed metrics registry, if
    /// any (once per run: nothing is counted through atomics per slot).
    void publish_work() const {
        obs::Registry* const reg = obs::Registry::active();
        if (!reg) return;
        long long visits = 0;
        for (std::size_t i = 0; i < kPhaseCounters.size(); ++i) {
            reg->counter(kPhaseCounters[i]).add(work_.visits[i]);
            visits += work_.visits[i];
        }
        reg->counter("sim.worker_visits").add(visits);
        for (std::size_t i = 0; i < kHorizonCounters.size(); ++i)
            reg->counter(kHorizonCounters[i]).add(work_.horizon[i]);
        reg->counter("sim.cursor_queries").add(work_.cursor_queries);
        reg->counter("sim.slots_stepped").add(work_.slots_stepped);
        reg->counter("sim.rounds_skipped").add(work_.rounds_skipped);
    }

    /// Marks worker q's activity this slot; kept only for the observers.
    void flag(ProcId q, std::uint8_t activity) {
        if (!config_.observers.empty()) slot_flags_[q] |= activity;
    }

    /// Actions of the slot (or steady stretch) in progress, reported by
    /// record_slots; buffered only when some observer listens.
    void record_recv(ProcId q, int value) {
        if (!config_.observers.empty()) slot_recv_.push_back({q, value});
    }
    void record_compute(ProcId q, int task) {
        if (!config_.observers.empty()) slot_compute_.push_back({q, task});
    }

    /// The observers' one slot report: slots [from, to) all looked like
    /// the one just processed — each worker's state and slot_flags_, and
    /// the collected recv/compute pairs.  Returns at once when no observer
    /// is attached.
    void record_slots(long long from, long long to, bool elided) {
        if (config_.observers.empty()) return;
        const SlotActivity activity{.states = workers_.state,
                                    .flags = slot_flags_,
                                    .recv = slot_recv_,
                                    .compute = slot_compute_,
                                    .elided = elided,
                                    .dead = up_count_ == 0};
        for (RunObserver* o : config_.observers)
            o->on_slots(from, to, activity);
        slot_recv_.clear();
        slot_compute_.clear();
        std::fill(slot_flags_.begin(), slot_flags_.end(), 0);
    }

    void emit(EventKind kind, ProcId proc, int logical = -1,
              bool replica = false,
              ProcState state = ProcState::Up) {
        if (config_.observers.empty()) return;
        const Event e{.slot = slot_,
                      .kind = kind,
                      .proc = proc,
                      .iteration = iterations_done_,
                      .logical = logical,
                      .replica = replica,
                      .state = state};
        for (RunObserver* o : config_.observers) o->on_event(e);
    }
    /// An event about instance `inst` on worker q.
    void emit(EventKind kind, ProcId q, const Instance& inst) {
        emit(kind, q, inst.logical, inst.kind == InstKind::Replica);
    }

    [[nodiscard]] ProcView view_of(ProcId q) const {
        ProcView v;
        v.state = workers_.state[q];
        v.has_program = workers_.has_program[q] != 0;
        v.buffer_free = (workers_.staged[q] == -1);
        v.w = pf_.w[q];
        v.delay = delay_of(q);
        v.belief = beliefs_ ? &(*beliefs_)[q] : nullptr;
        return v;
    }

    /// Audit-mode check that the incrementally refreshed snapshot equals a
    /// from-scratch build.
    void audit_views() const {
        for (int q = 0; q < pf_.size(); ++q) {
            const ProcView fresh = view_of(q);
            const ProcView& v = views_[q];
            if (v.state != fresh.state || v.has_program != fresh.has_program ||
                v.buffer_free != fresh.buffer_free || v.w != fresh.w ||
                v.delay != fresh.delay || v.belief != fresh.belief)
                throw std::logic_error("audit: scheduler view drift");
        }
    }

    /// Delay(q) of Section 6.3.1: remaining program + committed data +
    /// committed compute (plus an in-flight checkpoint upload, which blocks
    /// the compute pipeline), assuming the worker stays UP, contention-free.
    [[nodiscard]] int delay_of(ProcId q) const {
        const auto w = workers_[q];
        int d = 0;
        if (!w.has_program)
            d += w.prog_in_flight ? w.prog_remaining : pf_.t_prog;
        if (w.computing != -1) d += w.compute_remaining;
        if (w.ckpt_in_flight) d += w.ckpt_remaining;
        if (w.staged != -1)
            d += instances_[w.staged].data_remaining + pf_.w[q];
        return d;
    }

    [[nodiscard]] bool holds_logical(ProcId q, int logical) const {
        const auto w = workers_[q];
        if (w.staged != -1 && instances_[w.staged].logical == logical)
            return true;
        if (w.computing != -1 && instances_[w.computing].logical == logical)
            return true;
        return false;
    }

    /// True when some pool instance of `logical` is already planned on q.
    /// The pool only ever holds originals, and the original of logical
    /// task i is instances_[i] (audit_invariants checks both), so this is
    /// one lookup rather than a scan of the pool.
    [[nodiscard]] bool plans_logical(ProcId q, int logical) const {
        const Instance& inst = instances_[logical];
        return inst.status == InstStatus::Pool && inst.planned == q;
    }

    void audit_bandwidth() const {
        if (transfers_this_slot_ > pf_.ncom)
            throw std::logic_error("audit: bandwidth bound exceeded");
    }

    /// Audit-mode rebuild of the incremental stepping state from scratch:
    /// the UP, holder, transfer and free-buffer sets from the worker
    /// columns, and the change cache from the realized traces (each cached
    /// slot must be the end of the worker's current segment, or a
    /// lookahead cap inside it, and the queue must hold exactly one entry
    /// per worker at that slot).
    /// Also checks that no activity flag outlives its slot.
    void audit_worker_sets() const {
        WorkerSet up, holders, transfers, free;
        up.reset(pf_.size());
        holders.reset(pf_.size());
        transfers.reset(pf_.size());
        free.reset(pf_.size());
        for (int q = 0; q < pf_.size(); ++q) {
            up.assign(q, workers_.state[q] == ProcState::Up);
            holders.assign(q, holds_work(q));
            transfers.assign(q, moves_data(q));
            free.assign(q, workers_.staged[q] == -1);
            if (slot_flags_[q] != 0)
                throw std::logic_error("audit: activity flag left set");
        }
        if (!(up == up_) || up_.size() != up_count_)
            throw std::logic_error("audit: UP set drift");
        if (!(holders == holders_))
            throw std::logic_error("audit: holder set drift");
        if (!(transfers == transfers_))
            throw std::logic_error("audit: transfer set drift");
        if (!(free == free_))
            throw std::logic_error("audit: free-buffer set drift");
        for (int q = 0; q < pf_.size(); ++q) {
            const auto& segs = traces_->trace(q).segments();
            const auto seg = std::upper_bound(
                segs.begin(), segs.end(), slot_,
                [](long long s, const auto& g) { return s < g.end; });
            const long long c = change_at_[q];
            const bool exact = !change_capped_[q] && c < config_.max_slots;
            if (seg == segs.end() || seg->state != workers_.state[q] ||
                c <= slot_ || (exact ? seg->end != c : seg->end < c))
                throw std::logic_error("audit: change cache drift");
        }
        auto queue = change_queue_;
        std::vector<int> seen(static_cast<std::size_t>(pf_.size()), 0);
        for (; !queue.empty(); queue.pop()) {
            const auto [c, q] = queue.top();
            if (c != change_at_[q] || seen[q]++ != 0)
                throw std::logic_error("audit: change queue drift");
        }
        if (std::find(seen.begin(), seen.end(), 0) != seen.end())
            throw std::logic_error("audit: change queue drift");
    }

    void audit_invariants() const {
        int live_from_counts = 0;
        for (int lt = 0; lt < config_.tasks_per_iteration; ++lt) {
            if (logical_live_[lt] < 0)
                throw std::logic_error("audit: negative live-instance count");
            live_from_counts += logical_live_[lt];
        }
        int live_scan = 0;
        for (int id = 0; id < static_cast<int>(instances_.size()); ++id) {
            const Instance& inst = instances_[id];
            if (inst.status == InstStatus::Pool ||
                inst.status == InstStatus::Committed)
                ++live_scan;
            if ((id < config_.tasks_per_iteration) !=
                    (inst.kind == InstKind::Original) ||
                (inst.kind == InstKind::Original && inst.logical != id))
                throw std::logic_error("audit: original not at its index");
            if (inst.status == InstStatus::Pool &&
                inst.kind != InstKind::Original)
                throw std::logic_error("audit: replica in the pool");
        }
        if (live_scan != live_from_counts)
            throw std::logic_error("audit: live-instance count drift");
        for (int q = 0; q < pf_.size(); ++q) {
            const auto w = workers_[q];
            if (w.prog_in_flight && w.has_program)
                throw std::logic_error("audit: program both held and in flight");
            if (w.staged != -1) {
                const Instance& inst = instances_[w.staged];
                if (inst.status != InstStatus::Committed || inst.proc != q)
                    throw std::logic_error("audit: staged link broken");
                if (inst.data_remaining < 0 || inst.data_remaining > pf_.t_data)
                    throw std::logic_error("audit: data counter out of range");
            }
            if (w.computing != -1) {
                const Instance& inst = instances_[w.computing];
                if (inst.status != InstStatus::Committed || inst.proc != q)
                    throw std::logic_error("audit: computing link broken");
                if (!inst.data_done)
                    throw std::logic_error("audit: computing without data");
                if (!w.has_program)
                    throw std::logic_error("audit: computing without program");
                if (w.compute_remaining < 0 || w.compute_remaining > pf_.w[q])
                    throw std::logic_error("audit: compute counter out of range");
                if (w.computing == w.staged)
                    throw std::logic_error("audit: instance both staged and computing");
                if (w.compute_credit < 0 || w.compute_credit >= pf_.w[q])
                    throw std::logic_error(
                        "audit: checkpoint credit out of range");
                if (w.ckpt_committed < w.compute_credit ||
                    w.ckpt_committed > pf_.w[q] - w.compute_remaining)
                    throw std::logic_error(
                        "audit: committed-snapshot coverage out of range");
            }
            if (w.ckpt_in_flight) {
                if (!config_.checkpoint)
                    throw std::logic_error(
                        "audit: checkpoint in flight without a policy");
                if (w.computing == -1)
                    throw std::logic_error(
                        "audit: checkpoint in flight without a computed task");
                if (w.ckpt_remaining < 0 ||
                    w.ckpt_remaining > config_.checkpoint_cost)
                    throw std::logic_error(
                        "audit: checkpoint counter out of range");
                if (w.ckpt_progress <= 0 || w.ckpt_progress >= pf_.w[q])
                    throw std::logic_error(
                        "audit: checkpoint snapshot out of range");
            }
        }
        for (int lt = 0; lt < config_.tasks_per_iteration; ++lt) {
            const TaskCheckpoint& c =
                ckpt_store_[static_cast<std::size_t>(lt)];
            // A committed fraction is always in (0, 1): snapshots are only
            // taken while compute remains.
            if (c.done < 0 || c.w < 1 || (c.done > 0 && c.done >= c.w))
                throw std::logic_error(
                    "audit: committed checkpoint fraction out of range");
        }
    }

    // ---- data ----------------------------------------------------------

    const Platform& pf_;
    const EngineConfig& config_;
    std::vector<markov::TraceCursor> cursors_;
    util::Rng sched_rng_{0};
    util::Rng round_rng_{0}; ///< sched_rng_ at the round's start (audit)
    const std::vector<markov::MarkovChain>* beliefs_ = nullptr;

    WorkerSoA workers_;
    WorkerSet up_;      ///< workers in state UP (maintained by phase 1)
    WorkerSet holders_; ///< workers for which holds_work() is true
    WorkerSet transfers_; ///< workers for which moves_data() is true
    WorkerSet free_;      ///< workers whose buffer is free (staged == -1)
    /// Workers whose views_ entry may be out of date (holders always are).
    WorkerSet stale_views_;
    int up_count_ = 0;  ///< up_.size(), as of the current slot
    /// Slot at which each worker last entered UP; its UP slots are
    /// credited when it leaves UP (credit_up).
    std::vector<long long> up_since_;
    markov::RealizedTraces* traces_; ///< the replayed realization (audit)
    /// Availability change cache: the slot at which each worker's cursor
    /// must next be consulted, whether that slot is a lookahead cap rather
    /// than a segment end, and a min-queue holding one (slot, worker)
    /// entry per worker.
    std::vector<long long> change_at_;
    std::vector<std::uint8_t> change_capped_;
    std::priority_queue<std::pair<long long, ProcId>,
                        std::vector<std::pair<long long, ProcId>>,
                        std::greater<>>
        change_queue_;
    /// Deterministic work counters, published once per run: worker visits
    /// per phase, steady_horizon exits per cause, cursor queries, stepped
    /// slots and skipped rounds.
    struct {
        std::array<long long, kPhaseCounters.size()> visits{};
        std::array<long long, kHorizonCounters.size()> horizon{};
        long long cursor_queries = 0;
        long long slots_stepped = 0;
        long long rounds_skipped = 0; ///< rounds skips_round() dropped
    } work_;
    Phase phase_ = Phase::States; ///< the phase whose walks visit() counts
    std::vector<Instance> instances_;
    std::vector<TaskCheckpoint> ckpt_store_; ///< per logical task, per iter
    std::vector<bool> logical_done_;
    std::vector<int> logical_live_; ///< live (pool+committed) copies per task
    int remaining_logical_ = 0;
    int iterations_done_ = 0;
    long long plan_counter_ = 0;
    int transfers_this_slot_ = 0;
    long long slot_ = 0;
    /// Per-worker activity of the slot in progress; written only when an
    /// observer listens, and cleared by record_slots.
    std::vector<std::uint8_t> slot_flags_;
    /// end_of_slot's completion and promotion walks are due: some
    /// computation reached zero, or some data (or a completion ahead of a
    /// staged task) completed since the last end of slot.
    bool completion_due_ = false;
    bool promotion_due_ = false;
    /// The heuristic returned kNoProc in a round that could not commit:
    /// every later such round is skipped (skips_round).
    bool opted_out_ = false;

    RunMetrics metrics_;

    // Scratch buffers reused across slots to avoid per-slot allocation.
    std::vector<ActiveTransfer> active_;
    std::vector<ProcId> pending_;
    std::vector<int> pool_;
    std::vector<ProcView> views_;
    std::vector<int> nq_; ///< this round's instances per worker
    std::vector<ProcId> planned_procs_; ///< workers with nq_ > 0
    std::vector<ProcId> eligible_;
    std::vector<ProcId> free_eligible_; ///< eligible_ with a free buffer
    std::vector<ProcId> scratch_;
    std::vector<int> commit_order_;
    std::vector<std::pair<int, ProcId>> replica_plan_;
    std::vector<int> planned_logical_; ///< this round's replica targets
    std::vector<ProcId> changed_; ///< phase 1: workers consulted this slot
    /// record_recv/record_compute: the current slot's (worker, recv) and
    /// (worker, compute) actions, constant across an elided stretch
    std::vector<std::pair<ProcId, int>> slot_recv_;
    std::vector<std::pair<ProcId, int>> slot_compute_;
};

} // namespace

Simulation::Simulation(
    Platform platform,
    std::vector<std::unique_ptr<markov::AvailabilityModel>> models,
    std::vector<markov::MarkovChain> beliefs, EngineConfig config,
    std::uint64_t seed)
    : platform_(std::move(platform)),
      models_(std::move(models)),
      beliefs_(std::move(beliefs)),
      config_(config),
      seed_(seed) {
    if (auto err = platform_.validate(); !err.empty())
        throw std::invalid_argument("Simulation: " + err);
    if (static_cast<int>(models_.size()) != platform_.size())
        throw std::invalid_argument(
            "Simulation: one availability model per processor required");
    if (!beliefs_.empty() &&
        static_cast<int>(beliefs_.size()) != platform_.size())
        throw std::invalid_argument(
            "Simulation: beliefs must be empty or one per processor");
    if (config_.iterations <= 0 || config_.tasks_per_iteration <= 0)
        throw std::invalid_argument(
            "Simulation: iterations and tasks per iteration must be positive");
    if (config_.replica_cap < 0)
        throw std::invalid_argument("Simulation: negative replica cap");
    if (config_.checkpoint_cost < 0)
        throw std::invalid_argument("Simulation: negative checkpoint cost");
}

Simulation Simulation::from_chains(Platform platform,
                                   const std::vector<markov::MarkovChain>& chains,
                                   EngineConfig config, std::uint64_t seed) {
    std::vector<std::unique_ptr<markov::AvailabilityModel>> models;
    models.reserve(chains.size());
    for (const auto& c : chains)
        models.push_back(std::make_unique<markov::MarkovAvailability>(c));
    return Simulation(std::move(platform), std::move(models), chains, config,
                      seed);
}

std::shared_ptr<markov::RealizedTraces> Simulation::realization() const {
    return acquire_traces();
}

std::shared_ptr<markov::RealizedTraces> Simulation::acquire_traces() const {
    if (!cache_traces_)
        return std::make_shared<markov::RealizedTraces>(models_, seed_);
    if (!traces_)
        traces_ = std::make_shared<markov::RealizedTraces>(models_, seed_);
    return traces_;
}

RunMetrics Simulation::run_with(const EngineConfig& cfg,
                                Scheduler& sched) const {
    const auto traces = acquire_traces();
    Runner runner(platform_, *traces, beliefs_, cfg, seed_);
    // Scheduler cache traffic attributable to this run: the counters are
    // cumulative over the scheduler's lifetime, the metrics report deltas.
    const SchedulerCounters before = sched.counters();
    RunMetrics m = runner.run(sched);
    const SchedulerCounters after = sched.counters();
    m.cache_hits =
        static_cast<long long>(after.cache_hits - before.cache_hits);
    m.cache_misses =
        static_cast<long long>(after.cache_misses - before.cache_misses);
    m.cache_invalidations = static_cast<long long>(
        after.cache_invalidations - before.cache_invalidations);
    return m;
}

RunMetrics Simulation::run(Scheduler& sched) const {
    return run_with(config_, sched);
}

RunMetrics Simulation::run_for_deadline(Scheduler& sched,
                                        long long deadline_slots) const {
    EngineConfig cfg = config_;
    cfg.max_slots = deadline_slots;
    // An unreachable iteration budget: the run always ends at the deadline
    // and iterations_completed is the Section 3.4 objective value.
    cfg.iterations = std::numeric_limits<int>::max();
    return run_with(cfg, sched);
}

long long Simulation::min_slots_for_iterations(Scheduler& sched,
                                               int iterations) const {
    EngineConfig cfg = config_;
    cfg.iterations = iterations;
    const RunMetrics m = run_with(cfg, sched);
    return m.completed ? m.makespan : -1;
}

} // namespace volsched::sim
