/// Property-style sweeps over the heuristic scoring functions: invariants
/// that must hold for any recipe chain and any processor configuration,
/// plus the round contract of sim/scheduler.hpp: a round pins only the
/// candidates it scores, and nothing a scheduler keeps outlives
/// begin_round (a reused instance behaves exactly like a fresh one).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/simulation_builder.hpp"
#include "core/ct.hpp"
#include "core/extensions.hpp"
#include "core/factory.hpp"
#include "core/greedy_sched.hpp"
#include "markov/expectation.hpp"
#include "markov/gen.hpp"
#include "sim/action_trace.hpp"
#include "sim/engine.hpp"
#include "sim/metrics_io.hpp"
#include "sim/scheduler.hpp"
#include "sim/timeline.hpp"
#include "util/rng.hpp"

namespace vc = volsched::core;
namespace vs = volsched::sim;
namespace vm = volsched::markov;

namespace {

struct Fixture {
    vs::Platform platform;
    std::vector<vs::ProcView> procs;
    std::vector<vm::MarkovChain> chains;
    vs::SchedView view;

    Fixture(int p, std::uint64_t seed) {
        volsched::util::Rng rng(seed);
        platform.ncom = 1 + static_cast<int>(rng.uniform_int(0, 4));
        platform.t_prog = 1 + static_cast<int>(rng.uniform_int(0, 19));
        platform.t_data = 1 + static_cast<int>(rng.uniform_int(0, 9));
        platform.w.resize(static_cast<std::size_t>(p));
        procs.resize(static_cast<std::size_t>(p));
        chains.reserve(static_cast<std::size_t>(p));
        for (int q = 0; q < p; ++q) {
            chains.push_back(vm::generate_chain(rng));
            platform.w[q] = 1 + static_cast<int>(rng.uniform_int(0, 19));
            auto& pv = procs[q];
            pv.state = vm::ProcState::Up;
            pv.has_program = rng.bernoulli(0.5);
            pv.buffer_free = true;
            pv.w = platform.w[q];
            pv.delay = static_cast<int>(rng.uniform_int(0, 40));
        }
        for (int q = 0; q < p; ++q) procs[q].belief = &chains[q];
        view.platform = &platform;
        view.procs = procs;
        view.slot = 0;
        view.nactive = static_cast<int>(rng.uniform_int(0, p));
        view.remaining_tasks = 3;
    }
};

/// The 21-spec set: the paper's seventeen plus the extensions.
std::vector<std::string> all_specs() {
    auto names = vc::all_heuristic_names();
    const auto& ext = vc::extension_heuristic_names();
    names.insert(names.end(), ext.begin(), ext.end());
    return names;
}

std::vector<vs::ProcId> all_procs(int p) {
    std::vector<vs::ProcId> out(static_cast<std::size_t>(p));
    for (int q = 0; q < p; ++q) out[q] = q;
    return out;
}

// ---- Scalar oracles for select() -----------------------------------------
// One worker at a time, straight from ct.hpp and the markov:: free
// functions: no batching, no expectation cache, no precomputed weights.

/// Greedy family: argmin of the scheduler's scalar score() over
/// ct_estimate, ties broken toward the smaller CT, then the lower index.
vs::ProcId greedy_scalar_select(const vc::GreedyScheduler& sched,
                                bool starred, const vs::SchedView& view,
                                std::span<const vs::ProcId> eligible,
                                std::span<const int> nq) {
    vs::ProcId best = eligible[0];
    double best_score = std::numeric_limits<double>::infinity();
    double best_ct = std::numeric_limits<double>::infinity();
    for (const vs::ProcId q : eligible) {
        const double ct =
            vc::ct_estimate(view, q, nq[q] + 1, nq[q] > 0, starred);
        const double s = sched.score(view, q, ct);
        if (s < best_score - 1e-12 ||
            (std::fabs(s - best_score) <= 1e-12 && ct < best_ct)) {
            best = q;
            best_score = s;
            best_ct = ct;
        }
    }
    return best;
}

/// hybrid: argmin of E(CT) / P_UD(E(CT)) over ct_plain.
vs::ProcId hybrid_scalar_select(const vs::SchedView& view,
                                std::span<const vs::ProcId> eligible,
                                std::span<const int> nq) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    vs::ProcId best = eligible[0];
    double best_score = kInf;
    for (const vs::ProcId q : eligible) {
        const double ct = vc::ct_plain(view, q, nq[q] + 1);
        double score = ct;
        if (const auto* belief = view.procs[q].belief) {
            const auto& m = belief->matrix();
            const auto& pi = belief->stationary();
            const double expected = vm::e_workload(m, ct);
            if (std::isinf(expected)) {
                score = kInf;
            } else {
                const double p_survive =
                    vm::p_ud_approx(m, pi.pi_u, pi.pi_r, expected);
                score = p_survive > 0.0 ? expected / p_survive : kInf;
            }
        }
        if (score < best_score) {
            best_score = score;
            best = q;
        }
    }
    return best;
}

/// random[1-4][w]: per-pick weights from the belief's formula, drawn
/// through Rng::weighted_index; all-zero weights fall back to uniform.
vs::ProcId random_scalar_select(const std::string& name,
                                const vs::SchedView& view,
                                std::span<const vs::ProcId> eligible,
                                volsched::util::Rng& rng) {
    const char kind = name.size() > 6 ? name[6] : '0';
    const bool by_speed = name.back() == 'w';
    std::vector<double> weights;
    for (const vs::ProcId q : eligible) {
        const auto& pv = view.procs[q];
        double w = 1.0;
        if (pv.belief != nullptr) {
            const auto& m = pv.belief->matrix();
            const auto& pi = pv.belief->stationary();
            switch (kind) {
                case '1': w = m.p_uu(); break;
                case '2': w = vm::p_plus(m); break;
                case '3': w = pi.pi_u; break;
                case '4': w = 1.0 - pi.pi_d; break;
                default: break;
            }
        }
        if (by_speed) w /= static_cast<double>(pv.w);
        weights.push_back(w);
    }
    const std::size_t idx = rng.weighted_index(weights.data(), weights.size());
    if (idx >= eligible.size())
        return eligible[rng.uniform_int(0, eligible.size() - 1)];
    return eligible[idx];
}

/// Dispatches on the spec: "thrNN:inner" filters on pi_u >= NN/100 (all
/// eligible when none pass) and recurses into the inner spec.
vs::ProcId scalar_select(const std::string& name, const vs::SchedView& view,
                         std::span<const vs::ProcId> eligible,
                         std::span<const int> nq, volsched::util::Rng& rng) {
    if (name.rfind("thr", 0) == 0) {
        const auto colon = name.find(':');
        const double threshold = std::stod(name.substr(3, colon - 3)) / 100.0;
        std::vector<vs::ProcId> kept;
        for (const vs::ProcId q : eligible) {
            const auto* belief = view.procs[q].belief;
            if (belief == nullptr || belief->stationary().pi_u >= threshold)
                kept.push_back(q);
        }
        const std::string inner = name.substr(colon + 1);
        if (kept.empty()) return scalar_select(inner, view, eligible, nq, rng);
        return scalar_select(inner, view, kept, nq, rng);
    }
    if (name == "hybrid") return hybrid_scalar_select(view, eligible, nq);
    if (name.rfind("random", 0) == 0)
        return random_scalar_select(name, view, eligible, rng);
    const auto sched = vc::make_scheduler(name);
    const auto* greedy = dynamic_cast<const vc::GreedyScheduler*>(sched.get());
    if (greedy == nullptr) throw std::logic_error("no oracle for " + name);
    return greedy_scalar_select(*greedy, name.back() == '*', view, eligible,
                                nq);
}

} // namespace

class HeuristicProperty : public ::testing::TestWithParam<int> {};

TEST_P(HeuristicProperty, CtIsMonotoneInQueueLengthAndDelay) {
    Fixture f(6, static_cast<std::uint64_t>(GetParam()));
    for (int q = 0; q < 6; ++q) {
        double prev = 0.0;
        for (int n = 1; n <= 5; ++n) {
            const double ct = vc::ct_plain(f.view, q, n);
            EXPECT_GT(ct, prev);
            prev = ct;
        }
        // The corrected estimate never undercuts the plain one (the factor
        // is ceil(.) >= 1).
        EXPECT_GE(vc::ct_corrected(f.view, q, 1, false),
                  vc::ct_plain(f.view, q, 1));
    }
}

TEST_P(HeuristicProperty, EveryGreedyChoiceIsEligible) {
    Fixture f(6, static_cast<std::uint64_t>(GetParam()) + 50);
    const std::vector<vs::ProcId> eligible = {1, 3, 4};
    std::vector<int> nq(6, 0);
    volsched::util::Rng rng(9);
    for (const auto& name : vc::all_heuristic_names()) {
        auto sched = vc::make_scheduler(name);
        const auto pick = sched->select(f.view, eligible, nq, rng);
        EXPECT_TRUE(pick == 1 || pick == 3 || pick == 4) << name;
    }
}

TEST_P(HeuristicProperty, SingleEligibleProcessorIsAlwaysChosen) {
    Fixture f(4, static_cast<std::uint64_t>(GetParam()) + 100);
    const std::vector<vs::ProcId> eligible = {2};
    std::vector<int> nq(4, 0);
    volsched::util::Rng rng(10);
    for (const auto& name : vc::all_heuristic_names()) {
        auto sched = vc::make_scheduler(name);
        EXPECT_EQ(sched->select(f.view, eligible, nq, rng), 2) << name;
    }
}

TEST_P(HeuristicProperty, EmctNeverRanksBelowItsOwnCt) {
    // E(W) >= W pointwise, so the EMCT score of any processor dominates its
    // MCT score — the expectation only adds RECLAIMED detours.
    Fixture f(6, static_cast<std::uint64_t>(GetParam()) + 200);
    for (int q = 0; q < 6; ++q) {
        const double ct = vc::ct_plain(f.view, q, 1);
        const double e = vm::e_workload(f.chains[q].matrix(), ct);
        EXPECT_GE(e, ct);
    }
}

TEST_P(HeuristicProperty, MctPrefersStrictlyDominatingProcessor) {
    // If one processor has smaller delay AND smaller w, MCT must take it.
    Fixture f(2, static_cast<std::uint64_t>(GetParam()) + 300);
    f.procs[0].delay = 10;
    f.procs[0].w = 8;
    f.procs[1].delay = 2;
    f.procs[1].w = 3;
    f.view.procs = f.procs;
    std::vector<int> nq(2, 0);
    volsched::util::Rng rng(11);
    auto sched = vc::make_scheduler("mct");
    EXPECT_EQ(sched->select(f.view, all_procs(2), nq, rng), 1);
}

TEST_P(HeuristicProperty, InformedFamiliesAgreeOnIdenticalProcessors) {
    // With identical chains, speeds and delays, every deterministic greedy
    // heuristic must tie-break to the lowest index.
    Fixture f(5, static_cast<std::uint64_t>(GetParam()) + 400);
    volsched::util::Rng rng(12);
    const auto chain = vm::generate_chain(rng);
    for (int q = 0; q < 5; ++q) {
        f.chains[q] = chain;
        f.procs[q].w = 4;
        f.procs[q].delay = 3;
        f.procs[q].has_program = true;
    }
    for (int q = 0; q < 5; ++q) f.procs[q].belief = &f.chains[q];
    f.view.procs = f.procs;
    std::vector<int> nq(5, 0);
    for (const auto& name : vc::greedy_heuristic_names()) {
        auto sched = vc::make_scheduler(name);
        EXPECT_EQ(sched->select(f.view, all_procs(5), nq, rng), 0) << name;
    }
}

TEST_P(HeuristicProperty, BatchedScoresMatchScalarReferenceBitExactly) {
    // The batched scoring passes (contiguous CT fill + score_batch over
    // pinned cache handles) must reproduce the scalar reference — one
    // worker at a time, straight from the markov:: free functions — to
    // the last bit, uninformed workers included.
    Fixture f(8, static_cast<std::uint64_t>(GetParam()) + 500);
    f.procs[2].belief = nullptr;
    f.procs[6].belief = nullptr;
    f.view.procs = f.procs;
    const std::vector<int> nq = {0, 3, 1, 0, 2, 0, 5, 1};
    const auto eligible = all_procs(8);
    for (const auto& name : vc::greedy_heuristic_names()) {
        auto sched = vc::make_scheduler(name);
        auto* greedy = dynamic_cast<vc::GreedyScheduler*>(sched.get());
        ASSERT_NE(greedy, nullptr) << name;
        const bool starred = !name.empty() && name.back() == '*';
        greedy->begin_round(f.view);
        std::vector<double> cts;
        std::vector<double> scores;
        greedy->batched_scores(f.view, eligible, nq, cts, scores);
        ASSERT_EQ(cts.size(), eligible.size()) << name;
        ASSERT_EQ(scores.size(), eligible.size()) << name;
        for (std::size_t i = 0; i < eligible.size(); ++i) {
            const auto q = eligible[i];
            const double ct =
                vc::ct_estimate(f.view, q, nq[q] + 1, nq[q] > 0, starred);
            EXPECT_EQ(cts[i], ct) << name << " ct of proc " << q;
            EXPECT_EQ(scores[i], greedy->score(f.view, q, ct))
                << name << " score of proc " << q;
        }
    }
}

TEST_P(HeuristicProperty, DecisionsInvariantUnderWorkerPermutation) {
    // Relabeling the workers (shuffling their insertion order into the
    // per-round arrays) while presenting the same candidates in the same
    // sequence must relabel the decision and nothing else — scoring reads
    // per-worker state only, never array positions.
    constexpr int p = 7;
    const auto seed = static_cast<std::uint64_t>(GetParam());
    Fixture f(p, seed + 600);
    Fixture g(p, seed + 600); // identical platform draw, rewired below
    std::vector<vs::ProcId> perm(p);
    std::iota(perm.begin(), perm.end(), 0);
    volsched::util::Rng shuffle_rng(seed + 601);
    for (int i = p - 1; i > 0; --i)
        std::swap(perm[static_cast<std::size_t>(i)],
                  perm[shuffle_rng.uniform_int(
                      0, static_cast<std::uint64_t>(i))]);
    for (int q = 0; q < p; ++q) {
        const auto to = static_cast<std::size_t>(perm[q]);
        g.procs[to] = f.procs[q];
        g.chains[to] = f.chains[q];
        g.platform.w[to] = f.platform.w[q];
    }
    for (int q = 0; q < p; ++q) g.procs[q].belief = &g.chains[q];
    g.view.procs = g.procs;

    const auto eligible_f = all_procs(p);
    std::vector<vs::ProcId> eligible_g(eligible_f.size());
    for (std::size_t i = 0; i < eligible_f.size(); ++i)
        eligible_g[i] = perm[static_cast<std::size_t>(eligible_f[i])];
    const std::vector<int> nq_f = {0, 2, 0, 1, 4, 0, 1};
    std::vector<int> nq_g(p, 0);
    for (int q = 0; q < p; ++q)
        nq_g[static_cast<std::size_t>(perm[q])] = nq_f[q];

    for (const auto& name : all_specs()) {
        auto sched_f = vc::make_scheduler(name);
        auto sched_g = vc::make_scheduler(name);
        volsched::util::Rng rng_f(77);
        volsched::util::Rng rng_g(77);
        sched_f->begin_round(f.view);
        sched_g->begin_round(g.view);
        const auto pick_f = sched_f->select(f.view, eligible_f, nq_f, rng_f);
        const auto pick_g = sched_g->select(g.view, eligible_g, nq_g, rng_g);
        EXPECT_EQ(pick_g, perm[static_cast<std::size_t>(pick_f)]) << name;
    }
}

TEST_P(HeuristicProperty, BatchedSelectMatchesScalarOracle) {
    // select() runs batched passes over the expectation cache; the scalar
    // oracles above re-derive every score one worker at a time from the
    // free functions.  Both must make identical decisions and consume the
    // RNG identically, for every spec of the 21-spec set.
    Fixture f(6, static_cast<std::uint64_t>(GetParam()) + 700);
    const std::vector<int> nq = {1, 0, 2, 0, 0, 3};
    const auto eligible = all_procs(6);
    const auto names = all_specs();
    ASSERT_EQ(names.size(), 21u);
    for (const auto& name : names) {
        auto batched = vc::make_scheduler(name);
        volsched::util::Rng rng_batched(5);
        volsched::util::Rng rng_scalar(5);
        batched->begin_round(f.view);
        const auto pick_batched =
            batched->select(f.view, eligible, nq, rng_batched);
        const auto pick_scalar =
            scalar_select(name, f.view, eligible, nq, rng_scalar);
        EXPECT_EQ(pick_batched, pick_scalar) << name;
        EXPECT_EQ(rng_batched(), rng_scalar()) << name << ": RNG drift";
    }
}

TEST_P(HeuristicProperty, ViewsAtOneAddressScoreAsFresh) {
    // The engine builds each round's view in the same stack slot, so a
    // view's address is not an identity.  After begin_round, a scheduler
    // that scored one view must score a different view presented at the
    // same address exactly like a fresh instance: same picks, same RNG
    // draws, and for the greedy family the same scores to the last bit.
    const auto seed = static_cast<std::uint64_t>(GetParam());
    constexpr int p = 8;
    const Fixture a(p, seed + 800);
    const Fixture b(p, seed + 900);
    const auto eligible = all_procs(p);
    for (const auto& name : all_specs()) {
        auto reused = vc::make_scheduler(name);
        auto fresh = vc::make_scheduler(name);
        vs::SchedView view = a.view;
        std::vector<int> nq(p, 0);
        volsched::util::Rng rng_a(3);
        reused->begin_round(view);
        (void)reused->select(view, eligible, nq, rng_a);

        view = b.view;
        reused->begin_round(view);
        fresh->begin_round(view);
        volsched::util::Rng rng_reused(4);
        volsched::util::Rng rng_fresh(4);
        std::vector<int> nq_reused(p, 0);
        std::vector<int> nq_fresh(p, 0);
        // A whole round's worth of picks, queue counts growing as the
        // engine grows them.
        for (int pick = 0; pick < 20; ++pick) {
            const auto q_reused =
                reused->select(view, eligible, nq_reused, rng_reused);
            const auto q_fresh =
                fresh->select(view, eligible, nq_fresh, rng_fresh);
            ASSERT_EQ(q_reused, q_fresh) << name << " pick " << pick;
            ++nq_reused[q_reused];
            ++nq_fresh[q_fresh];
        }
        EXPECT_EQ(rng_reused(), rng_fresh()) << name << ": RNG drift";

        auto* greedy_reused = dynamic_cast<vc::GreedyScheduler*>(reused.get());
        auto* greedy_fresh = dynamic_cast<vc::GreedyScheduler*>(fresh.get());
        if (greedy_reused == nullptr) continue;
        std::vector<double> cts_reused;
        std::vector<double> scores_reused;
        std::vector<double> cts_fresh;
        std::vector<double> scores_fresh;
        greedy_reused->batched_scores(view, eligible, nq_reused, cts_reused,
                                      scores_reused);
        greedy_fresh->batched_scores(view, eligible, nq_fresh, cts_fresh,
                                     scores_fresh);
        EXPECT_EQ(cts_reused, cts_fresh) << name;
        EXPECT_EQ(scores_reused, scores_fresh) << name;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeuristicProperty, ::testing::Range(0, 10));

TEST(SchedulerWork, RoundPinsOnlyTheCandidatesItScores) {
    // begin_round is O(1) and resolves no belief; a select pins each of
    // its k candidates once (k cache entries for k distinct chains) and
    // never touches the other P - k processors.
    constexpr int p = 64;
    const Fixture f(p, 4242);
    std::vector<vs::ProcId> eligible;
    for (int q = 3; q < p; q += 5) eligible.push_back(q);
    const std::vector<int> nq(p, 0);
    auto names = vc::greedy_heuristic_names();
    names.emplace_back("hybrid");
    for (const auto& name : names) {
        auto sched = vc::make_scheduler(name);
        const vm::ExpectationCache* cache = nullptr;
        if (const auto* greedy =
                dynamic_cast<const vc::GreedyScheduler*>(sched.get()))
            cache = &greedy->cache();
        else if (const auto* hybrid =
                     dynamic_cast<const vc::HybridScheduler*>(sched.get()))
            cache = &hybrid->cache();
        ASSERT_NE(cache, nullptr) << name;
        volsched::util::Rng rng(1);
        sched->begin_round(f.view);
        EXPECT_EQ(cache->size(), 0u) << name;
        (void)sched->select(f.view, eligible, nq, rng);
        EXPECT_EQ(cache->size(), eligible.size()) << name;
        // A second select of the same round re-pins nothing.
        (void)sched->select(f.view, eligible, nq, rng);
        EXPECT_EQ(cache->size(), eligible.size()) << name;
    }
}

namespace {

/// Everything a run shows: its metrics JSON, its timeline and its action
/// trace, each flattened to a string.
struct RunBytes {
    std::string metrics;
    std::string timeline;
    std::string actions;
};

/// A small replicating Markov platform; availability and beliefs come from
/// generate_chains under `seed`.
vs::Simulation reuse_simulation(std::uint64_t seed, bool event_driven,
                                vs::Timeline* timeline,
                                vs::ActionTrace* actions) {
    constexpr int p = 10;
    volsched::util::Rng rng(seed);
    vs::Platform pf;
    pf.ncom = 2;
    pf.t_prog = 4;
    pf.t_data = 2;
    for (int q = 0; q < p; ++q)
        pf.w.push_back(1 + static_cast<int>(rng.uniform_int(0, 7)));
    return vs::Simulation::builder()
        .platform(pf)
        .markov(vm::generate_chains(p, rng))
        .iterations(2)
        .tasks_per_iteration(6)
        .max_slots(20'000)
        .audit()
        .seed(seed)
        .timeline(timeline)
        .actions(actions)
        .event_driven(event_driven)
        .build();
}

RunBytes run_bytes(const vs::Simulation& sim, vs::Scheduler& sched,
                   const vs::Timeline& timeline,
                   const vs::ActionTrace& actions) {
    RunBytes out;
    out.metrics = vs::metrics_to_json(sim.run(sched));
    for (int q = 0; q < timeline.procs(); ++q) {
        for (long long t = 0; t < timeline.slots(); ++t)
            out.timeline += timeline.at(q, t);
        out.timeline += '\n';
    }
    for (int q = 0; q < actions.procs(); ++q) {
        for (const auto& a : actions.row(q))
            out.actions += std::to_string(a.recv) + ',' +
                           std::to_string(a.compute) + ' ';
        out.actions += '\n';
    }
    return out;
}

} // namespace

TEST(SchedulerReuse, SecondSimulationMatchesAFreshInstance) {
    // One instance runs simulation A, then simulation B; everything B
    // shows must equal what a fresh instance shows on B, byte for byte,
    // for every spec and both stepping cores.
    for (const bool event_driven : {false, true}) {
        for (std::uint64_t s = 1; s <= 4; ++s) {
            vs::Timeline timeline_a;
            vs::ActionTrace actions_a;
            vs::Timeline timeline_b;
            vs::ActionTrace actions_b;
            const auto sim_a =
                reuse_simulation(s, event_driven, &timeline_a, &actions_a);
            const auto sim_b = reuse_simulation(s + 1000, event_driven,
                                                &timeline_b, &actions_b);
            for (const auto& name : all_specs()) {
                const std::string label =
                    name + (event_driven ? " event core" : " slot loop") +
                    " seed " + std::to_string(s);
                auto fresh = vc::make_scheduler(name);
                const RunBytes want =
                    run_bytes(sim_b, *fresh, timeline_b, actions_b);
                // Both runs go through the same call path, so that the
                // engine's per-round view sits at the same stack address.
                auto reused = vc::make_scheduler(name);
                (void)run_bytes(sim_a, *reused, timeline_a, actions_a);
                const RunBytes got =
                    run_bytes(sim_b, *reused, timeline_b, actions_b);
                EXPECT_EQ(got.metrics, want.metrics) << label;
                EXPECT_EQ(got.timeline, want.timeline) << label;
                EXPECT_EQ(got.actions, want.actions) << label;
            }
        }
    }
}

TEST(HeuristicNames, FactoryOrderMatchesPaperTable2) {
    const auto& names = vc::all_heuristic_names();
    // The paper's Table 2 lists the EMCT family first and plain random last.
    EXPECT_EQ(names.front(), "emct");
    EXPECT_EQ(names.back(), "random");
}
