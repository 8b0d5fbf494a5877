#pragma once
/// \file events.hpp
/// Structured event log for simulation runs.  When an EventLog observes a
/// run (EngineConfig::observers, SimulationBuilder::observe), every
/// protocol-level occurrence is recorded: state transitions, transfer starts/completions, computation
/// starts, task completions, work loss, replication decisions, and
/// iteration boundaries.  Useful for debugging schedules, building Gantt
/// views, and post-hoc analysis of heuristic behaviour.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "markov/state.hpp"
#include "sim/observer.hpp"
#include "sim/platform.hpp"

namespace volsched::sim {

enum class EventKind : std::uint8_t {
    StateChange,      ///< processor changed availability state
    ProgStart,        ///< program transfer began
    ProgComplete,     ///< program fully received
    DataStart,        ///< task data transfer began
    DataComplete,     ///< task data fully received
    ComputeStart,     ///< task promoted to computing
    TaskComplete,     ///< logical task finished (instance completed)
    WorkLost,         ///< committed work wiped (crash or un-enrolment)
    ReplicaCommitted, ///< an extra replica was staged on a worker
    ReplicaCancelled, ///< a live sibling was cancelled after completion
    ProactiveCancel,  ///< the proactive policy un-enrolled a worker
    IterationComplete,///< all m tasks of the iteration finished
    CheckpointStart,  ///< a checkpoint upload began
    CheckpointCommit, ///< a checkpoint snapshot became durable at the master
    CheckpointLost,   ///< an in-flight checkpoint upload was wiped
    Recovery          ///< a task incarnation resumed from a checkpoint
};

/// Short stable identifier used in CSV output.
const char* event_kind_name(EventKind kind) noexcept;

struct Event {
    long long slot = 0;
    EventKind kind = EventKind::StateChange;
    ProcId proc = kNoProc;        ///< subject processor (if any)
    int iteration = -1;           ///< iteration index (if applicable)
    int logical = -1;             ///< logical task id (if applicable)
    bool replica = false;         ///< whether the instance was a replica
    markov::ProcState state = markov::ProcState::Up; ///< for StateChange
};

/// Append-only event container; successive runs append.
class EventLog : public RunObserver {
public:
    void on_event(const Event& event) override { events_.push_back(event); }
    void clear() noexcept { events_.clear(); }

    [[nodiscard]] std::span<const Event> events() const noexcept {
        return events_;
    }
    [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

    /// Number of recorded events of one kind.
    [[nodiscard]] std::size_t count(EventKind kind) const noexcept;

    /// Writes "slot,kind,proc,iteration,task,replica,state" rows.
    void write_csv(std::ostream& out) const;

private:
    std::vector<Event> events_;
};

} // namespace volsched::sim
