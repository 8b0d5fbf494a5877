#pragma once
/// \file belief_pins.hpp
/// Per-round scoring scratch: pinned expectation-cache handles plus
/// contiguous copies of the per-processor quantities the batched scoring
/// loops read.
///
/// The scoring loops touch several per-worker values per eligible worker
/// per select() call.  Reading them through ProcView gathers from a
/// 24-byte struct-of-everything per worker, and resolving the worker's
/// belief chain in the expectation cache each time (hash probe + matrix
/// validation) would cost about as much as recomputing the closed forms.
/// Instead the schedulers snapshot a processor's quantities the first time
/// a round scores it:
///
///   handles    — expectation-cache pins, one hash probe each per round;
///                reads through a handle are a branch and a load
///   beliefs    — the belief chain pointers (null for uninformed workers)
///   w, delay   — w_q and Delay(q) pre-cast to double (exact: both ints)
///   step_plain — max(Tdata, w_q), the per-extra-task term of Eq. (1)
///
/// All five arrays are indexed by processor id and contiguous, so the
/// batched completion-time and scoring passes stream them.
///
/// Contract:
///  - A processor is pinned on first use per round: pin() snapshots each
///    candidate it has not seen since the last begin_round(), so a round
///    costs what its candidates cost, not what P costs.
///  - Nothing outlives begin_round(): it is O(1) (a round stamp bump) and
///    makes every earlier pin stale.
///  - A view's address is not an identity.  Two views presented without a
///    begin_round() between them are taken to be the same round; callers
///    that present a different view — or mutate a view's processors in
///    place — must call begin_round() first.  A caller that never calls it
///    gets one implicit round per processor count.
///
/// Handles are validated at pin time; a chain destroyed and rebuilt at
/// the same address *between* pins is caught by the pin's matrix check,
/// per the cache's invalidation contract.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "markov/expectation_cache.hpp"
#include "sim/scheduler.hpp"

namespace volsched::core {

struct BeliefPins {
    /// Round entry: every earlier pin goes stale.  Resizes the columns
    /// only when the processor count changes.
    void begin_round(std::size_t procs) {
        ++round;
        if (pinned_in.size() == procs) return;
        pinned_in.assign(procs, 0);
        handles.resize(procs);
        beliefs.resize(procs);
        w.resize(procs);
        delay.resize(procs);
        step_plain.resize(procs);
    }

    /// Snapshot every processor of `eligible` this round has not pinned
    /// yet.
    void pin(markov::ExpectationCache& cache, const sim::SchedView& view,
             std::span<const sim::ProcId> eligible) {
        if (pinned_in.size() != view.procs.size())
            begin_round(view.procs.size());
        const double t_data = view.platform->t_data;
        for (const sim::ProcId p : eligible) {
            const auto q = static_cast<std::size_t>(p);
            if (pinned_in[q] == round) continue;
            pinned_in[q] = round;
            const sim::ProcView& pv = view.procs[q];
            beliefs[q] = pv.belief;
            handles[q] = pv.belief != nullptr
                             ? cache.pin(*pv.belief)
                             : markov::ExpectationCache::Handle{};
            w[q] = static_cast<double>(pv.w);
            delay[q] = static_cast<double>(pv.delay);
            step_plain[q] = std::max(t_data, w[q]);
        }
    }

    std::vector<markov::ExpectationCache::Handle> handles;
    std::vector<const markov::MarkovChain*> beliefs;
    std::vector<double> w;
    std::vector<double> delay;
    std::vector<double> step_plain;
    /// The round each processor was last pinned in (0: never).
    std::vector<std::uint64_t> pinned_in;
    std::uint64_t round = 1;
};

} // namespace volsched::core
