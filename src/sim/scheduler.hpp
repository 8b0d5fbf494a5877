#pragma once
/// \file scheduler.hpp
/// The contract between the simulation engine and on-line scheduling
/// heuristics.  Each slot where assignable work and spare master bandwidth
/// exist, the engine runs one "round": it presents a snapshot of every
/// processor and asks the heuristic, task instance by task instance, which
/// UP processor the instance should go to — mirroring the one-by-one greedy
/// assignment of Section 6.  A round whose picks cannot be committed
/// (SchedView::can_commit) still runs until the heuristic opts out of such
/// rounds through select()'s in-band kNoProc return.

#include <cstdint>
#include <span>
#include <string_view>

#include "markov/chain.hpp"
#include "markov/state.hpp"
#include "sim/platform.hpp"
#include "util/rng.hpp"

namespace volsched::sim {

/// Per-processor snapshot visible to heuristics.
struct ProcView {
    markov::ProcState state = markov::ProcState::Down;
    /// Whether the processor holds a complete copy of the program.
    bool has_program = false;
    /// Whether it can accept a new staged task (buffer rule of Section 3.3:
    /// at most one task beyond the one being computed).
    bool buffer_free = true;
    /// w_q, UP slots per task.
    int w = 1;
    /// Delay(q) of Section 6.3.1: estimated slots before the processor
    /// finishes its committed program/data/compute work, assuming it stays
    /// UP and communication is contention-free.
    int delay = 0;
    /// The availability chain this processor is believed to follow (the true
    /// chain in Markov experiments, a fitted chain in trace replays).  Null
    /// when the run is deliberately uninformed.
    const markov::MarkovChain* belief = nullptr;
};

/// Snapshot of the whole round.
struct SchedView {
    const Platform* platform = nullptr;
    std::span<const ProcView> procs;
    long long slot = 0;
    /// Number of distinct processors already assigned >= 1 instance in this
    /// round (the `nactive` counter of the starred heuristics, Section 6.3.1).
    int nactive = 0;
    /// Original task instances still to assign in this round (m - m').
    int remaining_tasks = 0;
    /// False when nothing this round plans can be committed: the plan class
    /// re-plans every round (not Passive) and every UP processor's buffer
    /// is full.  Such a round's picks are discarded with the next round's
    /// re-plan; see Scheduler::select for the opt-out it allows.
    bool can_commit = true;
};

/// Cumulative memoization counters a scheduler may expose (heuristics
/// backed by a markov::ExpectationCache).  Purely observational: the
/// cached and uncached paths compute bit-identical scores, so these
/// numbers describe efficiency, never results.  Cumulative over the
/// scheduler's lifetime; the engine reports per-run deltas in RunMetrics.
struct SchedulerCounters {
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_invalidations = 0;
};

/// On-line scheduling heuristic.  Implementations must be deterministic
/// given the provided RNG (all randomness must come from `rng`).
class Scheduler {
public:
    virtual ~Scheduler() = default;

    /// Called once at the start of each assignment round.  Keep it O(1):
    /// snapshot per-processor state lazily, on a processor's first use in
    /// select() this round, so a round costs what its candidates cost
    /// rather than what P costs.  Nothing may outlive begin_round(), and a
    /// view's address is not an identity: the engine builds a fresh view
    /// per round, often at the address the last one had, and an instance
    /// may run several simulations in turn.
    virtual void begin_round(const SchedView& view) { (void)view; }

    /// Chooses a processor for the next task instance among `eligible`
    /// (indices into view.procs, all in the UP state).  `nq[q]` is the
    /// number of instances already assigned to processor q in this round.
    /// Must return one of the eligible indices — or kNoProc, only when
    /// `view.can_commit` is false and without drawing from `rng`.  That
    /// return promises, for the rest of the run, that rounds which cannot
    /// commit mean nothing to this scheduler: the engine ends the round
    /// and from then on skips every such round (no begin_round, no select)
    /// and elides the slots they alone kept stepped.  A scheduler whose
    /// picks draw from `rng` must keep picking, so its draws stay in
    /// sequence.  A wrapper that inspects its inner scheduler's choice
    /// must pass kNoProc through.  kNoProc in a round that can commit makes
    /// the run throw std::logic_error.
    virtual ProcId select(const SchedView& view,
                          std::span<const ProcId> eligible,
                          std::span<const int> nq, util::Rng& rng) = 0;

    /// Stable identifier used in reports ("emct*", "random2w", ...).
    [[nodiscard]] virtual std::string_view name() const = 0;

    /// Cumulative memoization counters (zeros for heuristics with no
    /// cache).  Wrappers must forward to the scheduler that actually
    /// scores.
    [[nodiscard]] virtual SchedulerCounters counters() const { return {}; }
};

} // namespace volsched::sim
