#pragma once
/// \file random_sched.hpp
/// The nine random heuristics of Section 6.2.  Each picks an UP processor
/// with probability proportional to a reliability weight:
///
///   Random   — uniform
///   Random1  — P_uu            ("long time UP")
///   Random2  — P+              ("likely to work more", Lemma 1)
///   Random3  — pi_u            ("often UP")
///   Random4  — 1 - pi_d        ("rarely DOWN")
///
/// The `w` suffix divides the weight by w_q, blending speed into the pick.
///
/// select() computes each candidate's weight from the view it is handed,
/// every call: the scheduler keeps no per-processor state between calls,
/// so nothing outlives a round and a view's address is never taken for
/// its identity (a reused instance draws exactly like a fresh one).

#include <string>
#include <vector>

#include "sim/scheduler.hpp"

namespace volsched::core {

enum class RandomWeight {
    Uniform,
    LongTimeUp,     // Random1
    LikelyWorkMore, // Random2
    OftenUp,        // Random3
    RarelyDown,     // Random4
};

class RandomScheduler final : public sim::Scheduler {
public:
    RandomScheduler(RandomWeight weight, bool divide_by_speed);

    sim::ProcId select(const sim::SchedView& view,
                       std::span<const sim::ProcId> eligible,
                       std::span<const int> nq, util::Rng& rng) override;
    [[nodiscard]] std::string_view name() const override { return name_; }

private:
    [[nodiscard]] double weight_of(const sim::ProcView& pv) const;

    RandomWeight weight_;
    bool divide_by_speed_;
    std::string name_;
    std::vector<double> weights_; // scratch, sized per call
};

} // namespace volsched::core
