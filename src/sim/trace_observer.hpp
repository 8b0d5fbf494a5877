#pragma once
/// \file trace_observer.hpp
/// The RunObserver that feeds an obs::TraceRecorder: it translates the
/// engine's Event stream, scheduler rounds and elided ranges into the
/// recorder's per-worker spans and instants.  It lives in sim, not obs,
/// because obs sits below sim and cannot know an Event.
///
/// Attach with SimulationBuilder::trace(&rec) (the built Simulation owns
/// the adapter), or construct one and pass it to observe().

#include "sim/observer.hpp"

namespace volsched::obs {
class TraceRecorder; // defined in obs/trace.hpp
}

namespace volsched::sim {

class TraceObserver : public RunObserver {
public:
    /// `recorder` is not owned and must outlive every observed run.
    explicit TraceObserver(obs::TraceRecorder& recorder) noexcept
        : rec_(recorder) {}

    void begin_run(const Platform& platform) override;
    void on_event(const Event& event) override;
    void on_round(long long slot) override;
    void on_slots(long long from, long long to,
                  const SlotActivity& activity) override;
    void end_run(long long end_slot) override;

private:
    obs::TraceRecorder& rec_;
    /// Zero-cost data transfers (Platform::t_data == 0) complete at their
    /// start event and never emit DataComplete.
    bool free_data_ = false;
};

} // namespace volsched::sim
