#pragma once
/// \file availability.hpp
/// Pluggable availability-process interface.  The simulator advances each
/// processor's state through this interface, so the same engine runs Markov
/// chains (the paper's model), replayed traces, or semi-Markov processes
/// (the paper's future-work direction).  Models whose state provably holds
/// for a known number of slots may advance the whole run in one call
/// (advance_run); the others are sampled one next_state call per slot.

#include <memory>

#include "markov/chain.hpp"
#include "markov/state.hpp"
#include "util/rng.hpp"

namespace volsched::markov {

/// One availability process for one processor.  Implementations may be
/// stateful (e.g., a semi-Markov sojourn countdown), hence clone() for
/// spawning per-processor instances from a prototype.
class AvailabilityModel {
public:
    virtual ~AvailabilityModel() = default;

    /// State at slot 0.
    virtual ProcState initial_state(util::Rng& rng) = 0;

    /// State at slot t+1 given the state at slot t.
    virtual ProcState next_state(ProcState current, util::Rng& rng) = 0;

    /// advance_run's answer for a model that promises no runs: sample it
    /// with one next_state call per slot.
    static constexpr long long kNoRuns = -1;

    /// Optional run-length fast path.  Advances n in [0, max_slots] slots
    /// over which the state provably stays `current` and returns n; the
    /// model must then be exactly where n calls of next_state(current, rng)
    /// would have left it, each returning `current`.  It draws no RNG, so a
    /// realization's draws — and therefore its values — do not depend on
    /// whether a caller uses it.  n may be 0 (e.g. the current sojourn ends
    /// now); the caller then calls next_state.  `current` must be the state
    /// the model last returned.  The default returns kNoRuns and advances
    /// nothing, which tells the caller to keep the per-slot path for good.
    virtual long long advance_run(ProcState /*current*/,
                                  long long /*max_slots*/) {
        return kNoRuns;
    }

    /// Deep copy, resetting any per-run internal state.
    [[nodiscard]] virtual std::unique_ptr<AvailabilityModel> clone() const = 0;
};

/// How processors start at slot 0.
enum class InitialState {
    AlwaysUp,   ///< everyone starts UP (paper experiments start this way)
    Stationary, ///< draw from the chain's limit distribution
};

/// The paper's model: a time-homogeneous 3-state Markov chain.
class MarkovAvailability final : public AvailabilityModel {
public:
    explicit MarkovAvailability(MarkovChain chain,
                                InitialState init = InitialState::AlwaysUp);

    ProcState initial_state(util::Rng& rng) override;
    ProcState next_state(ProcState current, util::Rng& rng) override;
    [[nodiscard]] std::unique_ptr<AvailabilityModel> clone() const override;

    [[nodiscard]] const MarkovChain& chain() const noexcept { return chain_; }

private:
    MarkovChain chain_;
    InitialState init_;
};

} // namespace volsched::markov
