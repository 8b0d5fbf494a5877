#pragma once
/// \file extensions.hpp
/// Heuristics beyond the paper's seventeen, motivated by its related work:
///
/// - ThresholdScheduler: the exclusion policies of the desktop-grid
///   literature the paper cites (Kondo et al. [16], Estrada et al. [18]):
///   processors whose steady-state availability pi_u falls below a
///   threshold are excluded from selection altogether; an inner heuristic
///   chooses among the survivors.  Falls back to the full eligible set when
///   the filter would empty it.
///
/// - HybridScheduler ("hybrid"): a restart-aware expected completion time.
///   If a crash forces a full redo and attempts are independent, the
///   expected number of attempts is 1 / P_success, so
///       score(q) = E^q(CT) / P_UD^q(E^q(CT))
///   blends EMCT's expectation with UD's crash probability in one number
///   instead of choosing between them.

#include <memory>
#include <string>
#include <vector>

#include "core/belief_pins.hpp"
#include "markov/expectation_cache.hpp"
#include "sim/scheduler.hpp"

namespace volsched::core {

class ThresholdScheduler final : public sim::Scheduler {
public:
    /// `threshold` in [0, 1]: minimum steady-state pi_u to stay eligible.
    ThresholdScheduler(std::unique_ptr<sim::Scheduler> inner,
                       double threshold);

    /// The inner heuristic's pick among the survivors; its kNoProc opt-out
    /// from rounds that cannot commit passes through unchanged.
    sim::ProcId select(const sim::SchedView& view,
                       std::span<const sim::ProcId> eligible,
                       std::span<const int> nq, util::Rng& rng) override;
    void begin_round(const sim::SchedView& view) override;
    [[nodiscard]] std::string_view name() const override { return name_; }

    [[nodiscard]] double threshold() const noexcept { return threshold_; }

    /// Forwards the inner heuristic's cache counters — the wrapper filters
    /// eligibility, the inner scheduler does the (possibly memoized)
    /// scoring.
    [[nodiscard]] sim::SchedulerCounters counters() const override {
        return inner_->counters();
    }

private:
    std::unique_ptr<sim::Scheduler> inner_;
    double threshold_;
    std::string name_;
    std::vector<sim::ProcId> filtered_;
};

class HybridScheduler final : public sim::Scheduler {
public:
    HybridScheduler() = default;

    /// Like the greedy family: kNoProc, scoring nothing, when
    /// `view.can_commit` is false.
    sim::ProcId select(const sim::SchedView& view,
                       std::span<const sim::ProcId> eligible,
                       std::span<const int> nq, util::Rng& rng) override;
    /// O(1): select() pins each candidate on first use this round.
    void begin_round(const sim::SchedView& view) override {
        pins_.begin_round(view.procs.size());
    }
    [[nodiscard]] std::string_view name() const override { return "hybrid"; }

    /// Expectation-cache counters, exposed for tests and diagnostics.
    [[nodiscard]] const markov::ExpectationCache& cache() const noexcept {
        return cache_;
    }

    [[nodiscard]] sim::SchedulerCounters counters() const override {
        return {cache_.hits(), cache_.misses(), cache_.invalidations()};
    }

private:
    markov::ExpectationCache cache_;
    BeliefPins pins_;
    // Scratch for select()'s batched passes, reused across rounds.
    std::vector<double> cts_;
    std::vector<double> scores_;
};

} // namespace volsched::core
