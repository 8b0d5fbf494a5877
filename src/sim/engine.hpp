#pragma once
/// \file engine.hpp
/// The time-slot simulation engine implementing the execution model of
/// Section 3: master-worker iterative application, bounded multi-port
/// master bandwidth, 3-state volatile workers, task replication.
///
/// Per-slot semantics (normative; see DESIGN.md §4):
///  1. Worker states advance; newly DOWN workers lose program, staged data
///     and partial computation (originals return to the master's pool,
///     replicas are cancelled).
///  2. The master allocates its `ncom` transfer slots: in-flight transfers
///     to/from UP workers first (program and data downloads plus checkpoint
///     uploads, FIFO by start time), then data transfers that were
///     committed but waited for the program, then new checkpoint uploads
///     the attached policy requests (ckpt/policy.hpp), then — if assignable
///     work remains and bandwidth is free — a fresh assignment round with
///     the scheduling heuristic, committing new program/data transfers in
///     heuristic preference order.
///  3. UP workers holding a data-complete task advance its computation.
///  4. End of slot: transfer/compute completions are materialized, staged
///     tasks are promoted to computing, replicas of completed tasks are
///     cancelled, and iteration boundaries are crossed.
///
/// Availability is drawn from RNG streams that are independent of the
/// heuristic's stream, so for a fixed seed every heuristic faces the exact
/// same availability realization — the property the paper's per-instance
/// "degradation from best" metric relies on.  The realization is sampled
/// once into a run-length-encoded markov::RealizedTraces snapshot (a pure
/// function of the seed) that every run() replays.
///
/// The engine has two stepping cores over this identical slot semantics:
///
///  - The slot loop (EngineConfig::event_driven == false) walks every slot
///    of the horizon.  It is the plain reference oracle the event core is
///    tested against.
///  - The event-driven core (the default) keeps a frontier of (slot, event)
///    candidates — availability transitions read from the RLE segments via
///    markov::TraceCursor::next_change_at, transfer/compute/checkpoint
///    completions computed in closed form from the current counters, and
///    scheduler decision points — and advances every provably-inert slot in
///    between arithmetically (RunMetrics::slots_elided counts them, and
///    RunMetrics::dead_slots_skipped the elided slots with no worker UP).
///    Action traces, timelines, events, and RunMetrics other than those
///    two counters are bit-identical to the slot loop; audit mode
///    re-verifies every elided range.
///
/// In both cores a simulated slot costs time in proportion to the workers
/// that are UP or hold work (a program download, a staged or computing
/// instance, a checkpoint upload), plus the workers whose availability
/// segment ends in that slot — not in proportion to the fleet size.  The
/// runner keeps the UP and holder sets incrementally, in processor order,
/// and a per-worker cache of the slot where each RLE segment ends; a
/// scheduling round additionally refreshes only the processor views that
/// can have changed, resets only the per-worker round scratch the previous
/// round wrote, and the bundled heuristics score (and pin) only the
/// candidates they are offered.  What still scales with P: a plugin
/// heuristic that walks every SchedView entry per round, the observers
/// (sim/observer.hpp; a timeline writes one entry per worker per slot),
/// and audit mode.  Each run adds its work counters (`sim.worker_visits`,
/// `sim.cursor_queries`, `sim.slots_stepped`) to the installed
/// obs::Registry, if any.

#include <memory>
#include <vector>

#include "markov/availability.hpp"
#include "markov/chain.hpp"
#include "markov/realized_trace.hpp"
#include "sim/metrics.hpp"
#include "sim/observer.hpp"
#include "sim/platform.hpp"
#include "sim/scheduler.hpp"

namespace volsched::api {
class SimulationBuilder; // defined in api/simulation_builder.hpp
}

namespace volsched::ckpt {
class CheckpointPolicy; // defined in ckpt/policy.hpp
}

namespace volsched::sim {

/// The scheduler-class taxonomy of Section 6.1.
enum class SchedulerClass {
    /// Un-started tasks are re-planned every round (the paper's class; all
    /// evaluated heuristics are dynamic).
    Dynamic,
    /// A planned processor is kept until it crashes — the conservative
    /// "passive" class.
    Passive,
    /// Dynamic, plus: suspended (RECLAIMED) workers holding committed work
    /// may be aggressively un-enrolled when an idle UP worker is expected
    /// to redo the work faster (requires belief chains; un-enrolment
    /// discards data and partial results per Section 3.3).
    Proactive,
};

/// Engine knobs; defaults match the paper's experiments.
struct EngineConfig {
    /// Number of iterations to complete (the paper uses 10).
    int iterations = 10;
    /// Tasks per iteration (the paper's m, called n in Section 7).
    int tasks_per_iteration = 10;
    /// Maximum number of *extra* replicas per logical task (paper: 2).
    /// Zero disables replication.
    int replica_cap = 2;
    /// Hard horizon in slots; a run that does not finish by then reports
    /// `completed == false` with `makespan == max_slots`.
    long long max_slots = 10'000'000;
    /// Scheduler class (Section 6.1); Dynamic is the paper's setting.
    SchedulerClass plan_class = SchedulerClass::Dynamic;
    /// When true (default), the engine runs its event-driven core: between
    /// consecutive candidate events (availability transitions from the RLE
    /// trace, transfer/compute/checkpoint completions in closed form,
    /// scheduler decision points) slots are advanced arithmetically instead
    /// of simulated one by one (RunMetrics::slots_elided counts them).
    /// Output is bit-identical to the slot loop by construction; the knob
    /// exists to run the reference slot loop for validation and benchmarks.
    bool event_driven = true;
    /// When true, the engine cross-checks model invariants every slot and
    /// throws std::logic_error on violation (event-elided ranges, dead ones
    /// included, are cross-checked slot by slot against the realized trace
    /// and the checkpoint policy).  Used by the test suite.
    bool audit = false;
    /// Optional checkpoint/restart policy (not owned; null means "none",
    /// the paper's crash-lose-everything model).  When set, workers may
    /// upload progress snapshots to the master (ckpt/policy.hpp): uploads
    /// compete with program/data transfers for the `ncom` bandwidth slots,
    /// computation pauses while a worker's snapshot is in flight, and a
    /// crashed task's next incarnation resumes from the last committed
    /// snapshot.  With the `none` policy (or null) action traces are
    /// bit-identical to an engine without the checkpoint layer.
    const ckpt::CheckpointPolicy* checkpoint = nullptr;
    /// Master transfer slot-units one checkpoint upload costs (>= 0; zero
    /// commits instantly, like a zero-cost data transfer).
    int checkpoint_cost = 1;
    /// Observers of every run (non-null, not owned; sim/observer.hpp): the
    /// event log, the timeline, the action trace the off-line model checker
    /// replays, the sim-time tracer (sim/trace_observer.hpp), or any other
    /// RunObserver.  Attaching one leaves every other output byte-identical.
    std::vector<RunObserver*> observers;
};

/// One reproducible simulation: a platform, one availability process per
/// processor, optional per-processor belief chains for informed heuristics,
/// and a seed.  `run()` may be called several times (optionally with
/// different schedulers); each call replays the identical availability
/// realization.  The realization is sampled lazily on the first run (or by
/// realization()) and cached, so a 19-heuristic comparison pays the
/// sampling cost once, not 19 times.
///
/// Thread-safety: concurrent run() calls on one Simulation require the
/// shared realization to be materialized first — call
/// realization()->ensure(horizon) — because lazy trace growth is not
/// synchronized.  Distinct Simulation objects are always independent (the
/// pattern the sweep/campaign drivers use).
class Simulation {
public:
    /// `models` must have one entry per processor.  `beliefs` must be empty
    /// (uninformed run: ProcView::belief == nullptr) or size p.
    Simulation(Platform platform,
               std::vector<std::unique_ptr<markov::AvailabilityModel>> models,
               std::vector<markov::MarkovChain> beliefs, EngineConfig config,
               std::uint64_t seed);

    /// Convenience: Markov availability from `chains`, with the same chains
    /// used as the heuristics' beliefs (the paper's experimental setting).
    static Simulation from_chains(Platform platform,
                                  const std::vector<markov::MarkovChain>& chains,
                                  EngineConfig config, std::uint64_t seed);

    /// Entry point of the fluent facade: Simulation::builder().platform(...)
    /// .markov(chains)....build().  Defined with the builder in
    /// api/simulation_builder.hpp (include volsched/volsched.hpp).
    static api::SimulationBuilder builder();

    /// Runs one full simulation under `sched` and returns its metrics.
    RunMetrics run(Scheduler& sched) const;

    /// Section 3.4's primal objective: how many iterations complete within
    /// `deadline_slots`?  Equivalent to a run with an unbounded iteration
    /// budget and the horizon set to the deadline; the answer is
    /// `iterations_completed` of the returned metrics.
    RunMetrics run_for_deadline(Scheduler& sched,
                                long long deadline_slots) const;

    /// The dual objective (obtained in the paper via binary search over the
    /// decision problem; the simulator measures it directly): the minimum
    /// number of slots to finish `iterations` iterations, or -1 when the
    /// configured horizon is hit first.
    long long min_slots_for_iterations(Scheduler& sched, int iterations) const;

    [[nodiscard]] const Platform& platform() const noexcept { return platform_; }
    [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
    [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

    /// The shared realized-availability snapshot all runs replay: sampled
    /// lazily (a pure function of the seed and the availability models) and
    /// cached across run()/run_for_deadline()/min_slots_for_iterations().
    /// With trace caching disabled (SimulationBuilder::trace_cache(false))
    /// every call realizes afresh and nothing is retained.
    [[nodiscard]] std::shared_ptr<markov::RealizedTraces> realization() const;

private:
    /// Cached-or-fresh realization per the trace-cache policy.
    [[nodiscard]] std::shared_ptr<markov::RealizedTraces> acquire_traces() const;
    /// One run under `cfg` (config_ or a per-objective variant of it).
    RunMetrics run_with(const EngineConfig& cfg, Scheduler& sched) const;

    friend class api::SimulationBuilder; // installs what build() resolved

    Platform platform_;
    std::vector<std::unique_ptr<markov::AvailabilityModel>> models_;
    std::vector<markov::MarkovChain> beliefs_;
    EngineConfig config_;
    std::uint64_t seed_;
    /// Keeps a builder-resolved checkpoint policy alive for the lifetime of
    /// the simulation (config_.checkpoint points at it); null when the
    /// policy was attached as a raw pointer or not at all.
    std::shared_ptr<const ckpt::CheckpointPolicy> checkpoint_policy_;
    /// Observers the builder made (SimulationBuilder::trace's adapters);
    /// config_.observers points at them.
    std::vector<std::unique_ptr<RunObserver>> owned_observers_;
    /// Realization cache; pre-seeded by SimulationBuilder::realized().
    mutable std::shared_ptr<markov::RealizedTraces> traces_;
    /// False: re-realize on every run (the pre-trace-layer cost model);
    /// set via SimulationBuilder::trace_cache(false).
    bool cache_traces_ = true;
};

} // namespace volsched::sim
