#pragma once
/// \file metrics.hpp
/// Per-run outcome and accounting counters produced by the engine.

#include <vector>

namespace volsched::sim {

struct RunMetrics {
    /// Slots used to finish all iterations; equals the horizon if the run
    /// did not complete (`completed == false`).
    long long makespan = 0;
    /// True when every requested iteration finished within the horizon.
    bool completed = false;
    int iterations_completed = 0;

    /// Logical tasks completed across all iterations.
    long long tasks_completed = 0;
    /// Committed replica instances (extra copies actually staged on workers).
    long long replicas_committed = 0;
    /// Logical tasks whose first finisher was a replica instance.
    long long replica_wins = 0;

    /// Total master transfer slot-units consumed (program + data).
    long long transfer_slots = 0;
    /// Transfer slot-units lost to crashes and replica cancellations.
    long long wasted_transfer_slots = 0;
    /// Compute slot-units performed by workers.
    long long compute_slots = 0;
    /// Compute slot-units lost to crashes and replica cancellations: the
    /// work each released incarnation computed itself (restart credit
    /// excluded), net of the progress it committed to the master via
    /// checkpoints with a live future incarnation to serve.  Without a
    /// checkpoint policy this is exactly the historical all-progress-lost
    /// accounting.
    long long wasted_compute_slots = 0;

    /// Master transfer slot-units consumed by checkpoint uploads (counted
    /// separately from `transfer_slots`; both compete for the same `ncom`
    /// bandwidth).  Zero when no checkpoint policy is attached.
    long long checkpoint_slots = 0;
    /// Checkpoint snapshots fully uploaded and committed at the master.
    long long checkpoints_committed = 0;
    /// Original task incarnations that resumed from a committed checkpoint
    /// instead of starting from scratch (replicas never take credit).
    long long recoveries = 0;
    /// Compute slot-units a restart did not have to redo thanks to a
    /// committed checkpoint (accounted when the restarted instance is
    /// promoted to computing, in the restarting worker's w_q scale).
    long long saved_compute_slots = 0;

    /// Number of UP/RECLAIMED -> DOWN transitions observed.
    long long down_events = 0;

    /// Slots the event-driven core elided while no worker was UP: counted
    /// toward the makespan but never simulated slot by slot.  Zero under
    /// the reference slot loop, which simulates every slot.
    long long dead_slots_skipped = 0;

    /// Slots elided by the event-driven core's closed-form advancement
    /// (EngineConfig::event_driven), dead stretches included — so
    /// slots_elided >= dead_slots_skipped in event-driven runs.  Zero under
    /// the reference slot loop.
    long long slots_elided = 0;

    /// Workers un-enrolled by the proactive policy (SchedulerClass::
    /// Proactive only; always zero for the paper's dynamic class).
    long long proactive_cancellations = 0;

    /// Expectation-cache traffic this run caused in the scheduler (the
    /// delta of Scheduler::counters() across the run; zeros for heuristics
    /// without a cache).  Observational only: the cached and uncached
    /// scoring paths are bit-identical, so these never affect results —
    /// they measure how much scoring work memoization absorbed.
    long long cache_hits = 0;
    long long cache_misses = 0;
    long long cache_invalidations = 0;

    /// Slot (1-based count) at which each completed iteration finished;
    /// size == iterations_completed.  Iteration k's duration is
    /// iteration_ends[k] - iteration_ends[k-1] (with iteration_ends[-1]=0);
    /// the first iteration carries the program-distribution cost, later
    /// ones do not (Section 3.1).
    std::vector<long long> iteration_ends;

    /// Per-processor accounting (all indexed by processor id).
    struct PerProc {
        long long tasks_completed = 0; ///< instances finished here
        long long compute_slots = 0;   ///< compute slot-units performed
        long long transfer_slots = 0;  ///< transfer slot-units received
        long long up_slots = 0;        ///< slots spent UP
        long long down_events = 0;     ///< transitions into DOWN
    };
    std::vector<PerProc> per_proc;
};

} // namespace volsched::sim
