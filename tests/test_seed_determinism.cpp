/// Seed-determinism regression suite: a fixed `Scenario::seed` must produce a
/// bit-identical availability realization, and — because the engine draws
/// availability from RNG streams independent of the heuristic's stream — the
/// identical schedule (action trace) and metrics for each of the eight greedy
/// heuristics on repeated runs.  This is the property the paper's
/// per-instance "degradation from best" metric relies on (engine.hpp).

#include <gtest/gtest.h>

#include <memory>

#include <sstream>

#include "api/simulation_builder.hpp"
#include "core/factory.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "sim/action_trace.hpp"
#include "sim/engine.hpp"
#include "sim/metrics_io.hpp"
#include "sim/timeline.hpp"
#include "support/fixtures.hpp"
#include "support/golden.hpp"
#include "trace/semi_markov.hpp"
#include "trace/sojourn.hpp"

namespace vs = volsched::sim;
namespace vc = volsched::core;
namespace ve = volsched::exp;
namespace vt = volsched::test;

namespace {

/// Runs one heuristic on a freshly-built simulation over the realized
/// scenario, recording the exact per-slot actions.
vs::RunMetrics run_traced(const ve::RealizedScenario& rs,
                          const std::string& heuristic, int tasks,
                          std::uint64_t sim_seed, vs::ActionTrace& trace) {
    vs::EngineConfig cfg = vt::audited_config(2, tasks);
    cfg.observers = {&trace};
    const auto sim =
        vs::Simulation::from_chains(rs.platform, rs.chains, cfg, sim_seed);
    const auto sched = vc::make_scheduler(heuristic);
    return sim.run(*sched);
}

bool same_trace(const vs::ActionTrace& a, const vs::ActionTrace& b) {
    if (a.procs() != b.procs() || a.slots() != b.slots()) return false;
    for (int q = 0; q < a.procs(); ++q) {
        const auto& ra = a.row(q);
        const auto& rb = b.row(q);
        for (std::size_t t = 0; t < ra.size(); ++t)
            if (ra[t].recv != rb[t].recv || ra[t].compute != rb[t].compute)
                return false;
    }
    return true;
}

/// Run-length-encoded text form of an action trace: one line per processor,
/// `<count>x<recv>/<compute>` tokens.  Verbatim per-slot content, compact
/// enough to commit as a golden.
std::string trace_to_text(const vs::ActionTrace& t) {
    std::ostringstream os;
    for (int q = 0; q < t.procs(); ++q) {
        os << 'q' << q << ':';
        const auto& row = t.row(q);
        std::size_t i = 0;
        while (i < row.size()) {
            std::size_t j = i;
            while (j < row.size() && row[j].recv == row[i].recv &&
                   row[j].compute == row[i].compute)
                ++j;
            os << ' ' << (j - i) << 'x' << row[i].recv << '/'
               << row[i].compute;
            i = j;
        }
        os << '\n';
    }
    return os.str();
}

/// Run-length-encoded text form of a timeline (same information as
/// Timeline::render, minus the ruler): one line per processor.
std::string timeline_to_text(const vs::Timeline& t) {
    std::ostringstream os;
    for (int q = 0; q < t.procs(); ++q) {
        os << 'q' << q << ':';
        long long i = 0;
        while (i < t.slots()) {
            long long j = i;
            while (j < t.slots() && t.at(q, j) == t.at(q, i)) ++j;
            os << ' ' << (j - i) << t.at(q, i);
            i = j;
        }
        os << '\n';
    }
    return os.str();
}

} // namespace

TEST(SeedDeterminism, RealizationIsBitIdentical) {
    const auto sc = vt::small_scenario(2024);
    const auto a = ve::realize(sc);
    const auto b = ve::realize(sc);
    ASSERT_EQ(a.platform.w, b.platform.w);
    EXPECT_EQ(a.platform.ncom, b.platform.ncom);
    EXPECT_EQ(a.platform.t_prog, b.platform.t_prog);
    EXPECT_EQ(a.platform.t_data, b.platform.t_data);
    ASSERT_EQ(a.chains.size(), b.chains.size());
    for (std::size_t q = 0; q < a.chains.size(); ++q)
        EXPECT_TRUE(vt::same_matrix(a.chains[q].matrix(),
                                    b.chains[q].matrix()))
            << "chain " << q << " differs between realizations";
}

TEST(SeedDeterminism, DifferentSeedsDifferentRealizations) {
    const auto a = ve::realize(vt::small_scenario(1));
    const auto b = ve::realize(vt::small_scenario(2));
    bool any_diff = a.platform.w != b.platform.w;
    for (std::size_t q = 0; !any_diff && q < a.chains.size(); ++q)
        any_diff = !vt::same_matrix(a.chains[q].matrix(),
                                    b.chains[q].matrix());
    EXPECT_TRUE(any_diff) << "seeds 1 and 2 produced identical platforms";
}

TEST(SeedDeterminism, EveryGreedyHeuristicReplaysIdentically) {
    const auto sc = vt::small_scenario(77);
    const auto rs = ve::realize(sc);
    for (const auto& name : vc::greedy_heuristic_names()) {
        vs::ActionTrace t1, t2;
        const auto m1 = run_traced(rs, name, sc.tasks, 5, t1);
        const auto m2 = run_traced(rs, name, sc.tasks, 5, t2);
        EXPECT_EQ(m1.makespan, m2.makespan) << name;
        EXPECT_EQ(m1.completed, m2.completed) << name;
        EXPECT_EQ(m1.tasks_completed, m2.tasks_completed) << name;
        EXPECT_EQ(m1.iteration_ends, m2.iteration_ends) << name;
        EXPECT_TRUE(same_trace(t1, t2)) << name << ": schedules differ";
    }
}

TEST(SeedDeterminism, BuilderPathReplaysTheConstructorPathExactly) {
    // The facade builder must be a pure re-packaging: same platform,
    // chains, config and seed => bit-identical schedule and metrics.
    const auto sc = vt::small_scenario(77);
    const auto rs = ve::realize(sc);
    for (const auto& name : vc::greedy_heuristic_names()) {
        vs::ActionTrace t1, t2;
        const auto m1 = run_traced(rs, name, sc.tasks, 5, t1);

        vs::EngineConfig cfg = vt::audited_config(2, sc.tasks);
        const auto sim = vs::Simulation::builder()
                             .platform(rs.platform)
                             .markov(rs.chains)
                             .config(cfg)
                             .observe(&t2)
                             .seed(5)
                             .build();
        const auto sched = vc::make_scheduler(name);
        const auto m2 = sim.run(*sched);

        EXPECT_EQ(m1.makespan, m2.makespan) << name;
        EXPECT_EQ(m1.completed, m2.completed) << name;
        EXPECT_EQ(m1.tasks_completed, m2.tasks_completed) << name;
        EXPECT_EQ(m1.iteration_ends, m2.iteration_ends) << name;
        EXPECT_TRUE(same_trace(t1, t2))
            << name << ": builder-built simulation diverged";
    }
}

TEST(SeedDeterminism, SlotSkippingLeavesActionTracesUnchanged) {
    // The event core's dead-stretch elision may only skip slots in which
    // nothing can happen, so metrics and the exact per-slot action traces
    // must be bit-identical to the plain slot loop, which steps every
    // slot.  Volatile chains on a tiny platform make all-workers-DOWN
    // stretches frequent enough that the elision genuinely fires (asserted
    // via the event core's dead_slots_skipped).
    vs::Platform pf;
    pf.w = {2, 3, 4};
    pf.ncom = 2;
    pf.t_prog = 3;
    pf.t_data = 1;
    const std::vector<volsched::markov::MarkovChain> chains(
        3, vt::chain3(0.35, 0.05, 0.10, 0.30, 0.15, 0.05));

    long long skipped_total = 0;
    for (const auto& name : vc::greedy_heuristic_names()) {
        vs::ActionTrace skip_trace, step_trace;

        vs::EngineConfig cfg = vt::audited_config(2, 4);
        cfg.event_driven = true;
        cfg.observers = {&skip_trace};
        const auto skipping =
            vs::Simulation::from_chains(pf, chains, cfg, 17);
        const auto sched1 = vc::make_scheduler(name);
        const auto m1 = skipping.run(*sched1);

        cfg.event_driven = false;
        cfg.observers = {&step_trace};
        const auto stepping =
            vs::Simulation::from_chains(pf, chains, cfg, 17);
        const auto sched2 = vc::make_scheduler(name);
        const auto m2 = stepping.run(*sched2);

        EXPECT_EQ(m2.dead_slots_skipped, 0) << name;
        EXPECT_EQ(m1.makespan, m2.makespan) << name;
        EXPECT_EQ(m1.completed, m2.completed) << name;
        EXPECT_EQ(m1.tasks_completed, m2.tasks_completed) << name;
        EXPECT_EQ(m1.down_events, m2.down_events) << name;
        EXPECT_EQ(m1.transfer_slots, m2.transfer_slots) << name;
        EXPECT_EQ(m1.compute_slots, m2.compute_slots) << name;
        EXPECT_EQ(m1.iteration_ends, m2.iteration_ends) << name;
        ASSERT_EQ(m1.per_proc.size(), m2.per_proc.size()) << name;
        for (std::size_t q = 0; q < m1.per_proc.size(); ++q) {
            EXPECT_EQ(m1.per_proc[q].up_slots, m2.per_proc[q].up_slots)
                << name << " proc " << q;
            EXPECT_EQ(m1.per_proc[q].down_events, m2.per_proc[q].down_events)
                << name << " proc " << q;
        }
        EXPECT_TRUE(same_trace(skip_trace, step_trace))
            << name << ": dead-slot elision changed the action trace";
        skipped_total += m1.dead_slots_skipped;
    }
    EXPECT_GT(skipped_total, 0)
        << "scenario never exercised the event core's dead-stretch "
           "elision; volatility too low for the test to be meaningful";
}

TEST(SeedDeterminism, SemiMarkovSlotSkippingLeavesActionTracesUnchanged) {
    // The Markov variant above pins event-core-vs-slot-loop equality for
    // memoryless chains; heavy-tailed semi-Markov sojourns are the case
    // dead-stretch elision was built for (multi-hundred-slot absences),
    // and their non-geometric run lengths exercise next_change_at
    // differently — so the equality is pinned for a SemiMarkovAvailability
    // fleet too.  Arm 0 is the slot loop, arm 1 the event core.
    using volsched::trace::SemiMarkovAvailability;
    using volsched::trace::SemiMarkovParams;
    using volsched::trace::SojournDist;
    constexpr int kProcs = 3;
    const auto pf =
        vs::Platform::homogeneous(kProcs, /*w_all=*/6, /*ncom=*/2,
                                  /*t_prog=*/4, /*t_data=*/1);
    SemiMarkovParams params;
    params.sojourn = {SojournDist::weibull_with_mean(0.7, 10.0),
                      SojournDist::weibull_with_mean(0.9, 25.0),
                      SojournDist::weibull_with_mean(0.8, 120.0)};
    params.jump[0] = {0.0, 0.4, 0.6};
    params.jump[1] = {0.5, 0.0, 0.5};
    params.jump[2] = {0.9, 0.1, 0.0};
    const std::vector<volsched::markov::MarkovChain> beliefs(
        kProcs, volsched::markov::MarkovChain(
                    SemiMarkovAvailability(params)
                        .equivalent_markov_matrix()));

    long long skipped_total = 0;
    for (const auto& name : vc::greedy_heuristic_names()) {
        vs::ActionTrace traces[2];
        vs::RunMetrics metrics[2];
        for (int event = 0; event < 2; ++event) {
            std::vector<
                std::unique_ptr<volsched::markov::AvailabilityModel>>
                models;
            for (int q = 0; q < kProcs; ++q)
                models.push_back(
                    std::make_unique<SemiMarkovAvailability>(params));
            vs::EngineConfig cfg = vt::audited_config(2, 4);
            auto sim = vs::Simulation::builder()
                           .platform(pf)
                           .models(std::move(models))
                           .beliefs(beliefs)
                           .config(cfg)
                           .observe(&traces[event])
                           .event_driven(event == 1)
                           .seed(23)
                           .build();
            const auto sched = vc::make_scheduler(name);
            metrics[event] = sim.run(*sched);
        }
        EXPECT_EQ(metrics[0].dead_slots_skipped, 0) << name;
        EXPECT_EQ(metrics[0].makespan, metrics[1].makespan) << name;
        EXPECT_EQ(metrics[0].completed, metrics[1].completed) << name;
        EXPECT_EQ(metrics[0].tasks_completed, metrics[1].tasks_completed)
            << name;
        EXPECT_EQ(metrics[0].down_events, metrics[1].down_events) << name;
        EXPECT_EQ(metrics[0].transfer_slots, metrics[1].transfer_slots)
            << name;
        EXPECT_EQ(metrics[0].compute_slots, metrics[1].compute_slots)
            << name;
        EXPECT_EQ(metrics[0].iteration_ends, metrics[1].iteration_ends)
            << name;
        ASSERT_EQ(metrics[0].per_proc.size(), metrics[1].per_proc.size())
            << name;
        for (std::size_t q = 0; q < metrics[0].per_proc.size(); ++q) {
            EXPECT_EQ(metrics[0].per_proc[q].up_slots,
                      metrics[1].per_proc[q].up_slots)
                << name << " proc " << q;
            EXPECT_EQ(metrics[0].per_proc[q].down_events,
                      metrics[1].per_proc[q].down_events)
                << name << " proc " << q;
        }
        EXPECT_TRUE(same_trace(traces[0], traces[1]))
            << name << ": semi-Markov dead-slot elision changed the action "
                       "trace";
        skipped_total += metrics[1].dead_slots_skipped;
    }
    EXPECT_GT(skipped_total, 0)
        << "fleet never exercised the event core's dead-stretch elision; "
           "absences too short for the test to be meaningful";
}

TEST(SeedDeterminism, HeuristicsShareTheAvailabilityRealization) {
    // run_instance gives every heuristic the same availability draw; the
    // per-processor UP-slot accounting must therefore agree across
    // heuristics that run for the same number of slots.
    const auto sc = vt::small_scenario(31);
    const auto rs = ve::realize(sc);
    ve::RunConfig cfg;
    cfg.iterations = 2;
    const auto out1 = ve::run_instance(rs, sc.tasks,
                                       vc::greedy_heuristic_names(), cfg, 9);
    const auto out2 = ve::run_instance(rs, sc.tasks,
                                       vc::greedy_heuristic_names(), cfg, 9);
    ASSERT_EQ(out1.makespans.size(), vc::greedy_heuristic_names().size());
    EXPECT_EQ(out1.makespans, out2.makespans)
        << "repeated run_instance with one trial seed changed makespans";
}

namespace {

/// Shared body of the SoA-vs-seed golden pins below: runs every greedy
/// heuristic over the same realized scenario and serializes the full
/// RunMetrics JSON + exact action trace + timeline into one text blob that
/// is compared against a golden generated from the pre-SoA engine
/// (regenerate only with VOLSCHED_UPDATE_GOLDEN=1 and a known-good tree).
std::string greedy_run_blob(bool event_core) {
    const auto sc = vt::small_scenario(77);
    const auto rs = ve::realize(sc);
    std::string blob;
    for (const auto& name : vc::greedy_heuristic_names()) {
        vs::ActionTrace trace;
        vs::Timeline timeline;
        vs::EngineConfig cfg = vt::audited_config(2, sc.tasks);
        cfg.event_driven = event_core;
        cfg.observers = {&trace, &timeline};
        const auto sim =
            vs::Simulation::from_chains(rs.platform, rs.chains, cfg, 5);
        const auto sched = vc::make_scheduler(name);
        const auto m = sim.run(*sched);
        blob += "== " + name + " ==\n";
        blob += vs::metrics_to_json(m);
        blob += "\n-- actions --\n";
        blob += trace_to_text(trace);
        blob += "-- timeline --\n";
        blob += timeline_to_text(timeline);
    }
    return blob;
}

} // namespace

// The SoA worker-state layout and the batched/memoized scoring path must
// not move a single bit of output.  These pins compare against goldens
// captured *before* that refactor, for both stepping cores — a change in
// scheduler decisions, tie-breaks, RNG consumption order, or metrics
// accounting shows up as a golden diff, not just as self-consistency.
TEST(SeedDeterminism, GreedyRunsMatchPreSoAGoldenEventCore) {
    EXPECT_TRUE(vt::matches_golden(greedy_run_blob(/*event_core=*/true),
                                   "seed_determinism_greedy_event.txt"));
}

TEST(SeedDeterminism, GreedyRunsMatchPreSoAGoldenSlotCore) {
    EXPECT_TRUE(vt::matches_golden(greedy_run_blob(/*event_core=*/false),
                                   "seed_determinism_greedy_slot.txt"));
}
