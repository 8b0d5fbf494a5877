#pragma once
/// \file observer.hpp
/// The engine's one observer seam.  A run owns its slot loop; whatever
/// records it (EventLog, Timeline, ActionTrace, TraceObserver, a test's
/// counter) implements RunObserver and is attached through
/// EngineConfig::observers or SimulationBuilder::observe().  The engine
/// knows no recorder's format.  Observers only read: attaching one leaves
/// every other output byte-identical.
///
/// Per run: begin_run once; on_event and on_round as they happen, in
/// non-decreasing slot order; on_slots over ranges that tile
/// [0, makespan) in order; end_run(makespan) once.

#include <cstdint>
#include <span>
#include <utility>

#include "markov/state.hpp"
#include "sim/platform.hpp"

namespace volsched::sim {

struct Event; // defined in sim/events.hpp

/// What every slot of [from, to) looked like.  An elided range is advanced
/// arithmetically by the event core; each of its slots is the one the slot
/// loop would have stepped.  The spans point into engine state and are
/// valid for the call only.
struct SlotActivity {
    /// Bits of `flags`: what the worker did with the slot.
    static constexpr std::uint8_t kProgram = 1;    ///< received program
    static constexpr std::uint8_t kData = 2;       ///< received task data
    static constexpr std::uint8_t kCompute = 4;    ///< computed
    static constexpr std::uint8_t kCheckpoint = 8; ///< uploaded a snapshot

    std::span<const markov::ProcState> states; ///< per worker
    std::span<const std::uint8_t> flags;       ///< per worker
    /// (worker, received): -2 one program slot, else the task whose data
    /// arrived (offline/schedule.hpp's conventions).
    std::span<const std::pair<ProcId, int>> recv;
    std::span<const std::pair<ProcId, int>> compute; ///< (worker, task)
    bool elided = false; ///< advanced arithmetically, not stepped
    bool dead = false;   ///< no worker was UP in the range
};

/// Listener for one run at a time.  Every call does nothing by default.
class RunObserver {
public:
    virtual ~RunObserver() = default;

    virtual void begin_run(const Platform& /*platform*/) {}
    virtual void on_event(const Event& /*event*/) {}
    /// A scheduler round began at `slot`.
    virtual void on_round(long long /*slot*/) {}
    virtual void on_slots(long long /*from*/, long long /*to*/,
                          const SlotActivity& /*activity*/) {}
    /// The run ended at `end_slot` (exclusive): the makespan.
    virtual void end_run(long long /*end_slot*/) {}
};

} // namespace volsched::sim
