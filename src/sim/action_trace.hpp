#pragma once
/// \file action_trace.hpp
/// Exact per-slot action recording: for every (processor, slot) the engine
/// writes what was received (program / task data) and what was computed.
/// The conventions match offline/schedule.hpp (`-2` program, `-1` none,
/// task id otherwise), so a recorded on-line run can be replayed through
/// the off-line validator — an end-to-end certification that the engine
/// respects the execution model (used by the cross-check test suite).
/// Checkpoint uploads (ckpt/policy.hpp) are master-bound and outside the
/// receive/compute model the validator checks, so they are deliberately
/// not recorded here; the timeline's 'K' code shows them instead.

#include <vector>

#include "sim/observer.hpp"
#include "sim/platform.hpp"

namespace volsched::sim {

struct RecordedAction {
    /// -2: one program slot; >= 0: one data slot of that task; -1: none.
    int recv = -1;
    /// Task id computed this slot, or -1.
    int compute = -1;
};

/// Attach as a RunObserver (EngineConfig::observers,
/// SimulationBuilder::observe); each run replaces the previous one's rows.
class ActionTrace : public RunObserver {
public:
    void begin_run(const Platform& platform) override {
        rows_.assign(static_cast<std::size_t>(platform.size()), {});
    }

    void on_slots(long long from, long long to,
                  const SlotActivity& activity) override {
        for (long long s = from; s < to; ++s) {
            for (auto& row : rows_) row.emplace_back();
            for (const auto& [q, value] : activity.recv)
                rows_[q].back().recv = value;
            for (const auto& [q, task] : activity.compute)
                rows_[q].back().compute = task;
        }
    }

    [[nodiscard]] int procs() const noexcept {
        return static_cast<int>(rows_.size());
    }
    [[nodiscard]] long long slots() const noexcept {
        return rows_.empty() ? 0 : static_cast<long long>(rows_[0].size());
    }
    [[nodiscard]] const std::vector<RecordedAction>& row(ProcId proc) const {
        return rows_[proc];
    }

private:
    std::vector<std::vector<RecordedAction>> rows_;
};

} // namespace volsched::sim
