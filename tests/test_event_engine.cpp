/// Event-driven engine-core equality suite: the event core
/// (EngineConfig::event_driven, the default) must produce bit-identical
/// RunMetrics — every counter, not just the action traces — plus identical
/// timelines and action traces versus the reference slot loop, across
/// Markov, semi-Markov, and checkpointed regimes, with audit mode
/// re-verifying every elided range.  Also pins the slot-0 dead-stretch fix:
/// a realization that starts with every worker absent is skipped in full,
/// including slot 0, by the event core.  Last, pins the deterministic work
/// counters the engine publishes to an installed obs::Registry.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/simulation_builder.hpp"
#include "ckpt/registry.hpp"
#include "core/factory.hpp"
#include "obs/registry.hpp"
#include "sim/action_trace.hpp"
#include "sim/engine.hpp"
#include "sim/metrics_io.hpp"
#include "sim/timeline.hpp"
#include "support/fixtures.hpp"
#include "trace/replay.hpp"
#include "trace/semi_markov.hpp"
#include "trace/sojourn.hpp"

namespace vc = volsched::core;
namespace vk = volsched::ckpt;
namespace vm = volsched::markov;
namespace vo = volsched::obs;
namespace vs = volsched::sim;
namespace vt = volsched::test;

namespace {

/// One run's full observable output.
struct Outcome {
    vs::RunMetrics m;
    vs::Timeline timeline;
    vs::ActionTrace actions;
};

/// Every RunMetrics field must agree except the elision counters, which
/// differ by construction: the slot loop elides nothing, and the event
/// core's dead_slots_skipped counts the subset of its elided slots in
/// which no worker was UP.
void expect_same_metrics(const vs::RunMetrics& ev, const vs::RunMetrics& sl,
                         const std::string& label) {
    EXPECT_EQ(ev.makespan, sl.makespan) << label;
    EXPECT_EQ(ev.completed, sl.completed) << label;
    EXPECT_EQ(ev.iterations_completed, sl.iterations_completed) << label;
    EXPECT_EQ(ev.tasks_completed, sl.tasks_completed) << label;
    EXPECT_EQ(ev.replicas_committed, sl.replicas_committed) << label;
    EXPECT_EQ(ev.replica_wins, sl.replica_wins) << label;
    EXPECT_EQ(ev.transfer_slots, sl.transfer_slots) << label;
    EXPECT_EQ(ev.wasted_transfer_slots, sl.wasted_transfer_slots) << label;
    EXPECT_EQ(ev.compute_slots, sl.compute_slots) << label;
    EXPECT_EQ(ev.wasted_compute_slots, sl.wasted_compute_slots) << label;
    EXPECT_EQ(ev.checkpoint_slots, sl.checkpoint_slots) << label;
    EXPECT_EQ(ev.checkpoints_committed, sl.checkpoints_committed) << label;
    EXPECT_EQ(ev.recoveries, sl.recoveries) << label;
    EXPECT_EQ(ev.saved_compute_slots, sl.saved_compute_slots) << label;
    EXPECT_EQ(ev.down_events, sl.down_events) << label;
    EXPECT_EQ(sl.dead_slots_skipped, 0) << label;
    EXPECT_LE(ev.dead_slots_skipped, ev.slots_elided) << label;
    EXPECT_EQ(ev.proactive_cancellations, sl.proactive_cancellations)
        << label;
    EXPECT_EQ(ev.iteration_ends, sl.iteration_ends) << label;
    ASSERT_EQ(ev.per_proc.size(), sl.per_proc.size()) << label;
    for (std::size_t q = 0; q < ev.per_proc.size(); ++q) {
        const auto& a = ev.per_proc[q];
        const auto& b = sl.per_proc[q];
        EXPECT_EQ(a.tasks_completed, b.tasks_completed) << label << " q" << q;
        EXPECT_EQ(a.compute_slots, b.compute_slots) << label << " q" << q;
        EXPECT_EQ(a.transfer_slots, b.transfer_slots) << label << " q" << q;
        EXPECT_EQ(a.up_slots, b.up_slots) << label << " q" << q;
        EXPECT_EQ(a.down_events, b.down_events) << label << " q" << q;
    }
}

void expect_same_timeline(const vs::Timeline& a, const vs::Timeline& b,
                          const std::string& label) {
    ASSERT_EQ(a.procs(), b.procs()) << label;
    ASSERT_EQ(a.slots(), b.slots()) << label;
    for (int q = 0; q < a.procs(); ++q)
        for (long long s = 0; s < a.slots(); ++s)
            if (a.at(q, s) != b.at(q, s))
                FAIL() << label << ": timeline diverges at proc " << q
                       << " slot " << s << " ('" << a.at(q, s) << "' vs '"
                       << b.at(q, s) << "')";
}

void expect_same_actions(const vs::ActionTrace& a, const vs::ActionTrace& b,
                         const std::string& label) {
    ASSERT_EQ(a.procs(), b.procs()) << label;
    ASSERT_EQ(a.slots(), b.slots()) << label;
    for (int q = 0; q < a.procs(); ++q) {
        const auto& ra = a.row(q);
        const auto& rb = b.row(q);
        for (std::size_t t = 0; t < ra.size(); ++t)
            if (ra[t].recv != rb[t].recv || ra[t].compute != rb[t].compute)
                FAIL() << label << ": action trace diverges at proc " << q
                       << " slot " << t;
    }
}

/// Runs `heuristic` over `chains` under both stepping cores (audit on) and
/// checks full-output equality; returns the event core's elided-slot count.
long long run_both_and_compare(const vs::Platform& pf,
                               const std::vector<vm::MarkovChain>& chains,
                               vs::EngineConfig cfg, std::uint64_t seed,
                               const std::string& heuristic,
                               const std::string& label) {
    Outcome out[2];
    for (int event = 0; event < 2; ++event) {
        vs::EngineConfig c = cfg;
        c.event_driven = (event == 1);
        c.observers = {&out[event].timeline, &out[event].actions};
        const auto sim = vs::Simulation::from_chains(pf, chains, c, seed);
        const auto sched = vc::make_scheduler(heuristic);
        out[event].m = sim.run(*sched);
    }
    EXPECT_EQ(out[0].m.slots_elided, 0)
        << label << ": slot loop must not elide";
    expect_same_metrics(out[1].m, out[0].m, label);
    expect_same_timeline(out[1].timeline, out[0].timeline, label);
    expect_same_actions(out[1].actions, out[0].actions, label);
    EXPECT_GE(out[1].m.slots_elided, out[1].m.dead_slots_skipped) << label;
    return out[1].m.slots_elided;
}

} // namespace

TEST(EventEngine, MarkovRegimeMatchesSlotLoopExactly) {
    vs::Platform pf;
    pf.w = {2, 3, 4};
    pf.ncom = 2;
    pf.t_prog = 3;
    pf.t_data = 1;
    const std::vector<vm::MarkovChain> chains(
        3, vt::chain3(0.35, 0.05, 0.10, 0.30, 0.15, 0.05));
    long long elided_total = 0;
    for (const auto& name : vc::greedy_heuristic_names())
        elided_total += run_both_and_compare(pf, chains,
                                             vt::audited_config(2, 4), 17,
                                             name, "markov/" + name);
    EXPECT_GT(elided_total, 0)
        << "event core never elided a slot; the regime is too dense for "
           "the test to be meaningful";
}

TEST(EventEngine, SemiMarkovRegimeMatchesSlotLoopExactly) {
    // Heavy-tailed sojourns: multi-hundred-slot absences plus long UP
    // bursts, the regime the closed-form advancement targets.
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
    const std::vector<vm::MarkovChain> beliefs(
        kProcs, vm::MarkovChain(
                    SemiMarkovAvailability(params).equivalent_markov_matrix()));

    long long elided_total = 0;
    for (const auto& name : vc::greedy_heuristic_names()) {
        Outcome out[2];
        for (int event = 0; event < 2; ++event) {
            std::vector<std::unique_ptr<vm::AvailabilityModel>> models;
            for (int q = 0; q < kProcs; ++q)
                models.push_back(
                    std::make_unique<SemiMarkovAvailability>(params));
            vs::EngineConfig cfg = vt::audited_config(2, 4);
            auto sim = vs::Simulation::builder()
                           .platform(pf)
                           .models(std::move(models))
                           .beliefs(beliefs)
                           .config(cfg)
                           .observe(&out[event].timeline)
                           .observe(&out[event].actions)
                           .event_driven(event == 1)
                           .seed(23)
                           .build();
            const auto sched = vc::make_scheduler(name);
            out[event].m = sim.run(*sched);
        }
        const std::string label = "semi-markov/" + name;
        EXPECT_EQ(out[0].m.slots_elided, 0) << label;
        expect_same_metrics(out[1].m, out[0].m, label);
        expect_same_timeline(out[1].timeline, out[0].timeline, label);
        expect_same_actions(out[1].actions, out[0].actions, label);
        elided_total += out[1].m.slots_elided;
    }
    EXPECT_GT(elided_total, 0)
        << "event core never elided a slot on the semi-Markov fleet";
}

TEST(EventEngine, CheckpointedRegimesMatchSlotLoopExactly) {
    // Checkpoint policies add upload events and per-slot policy decisions;
    // the quiet-horizon hook must never let the event core skip a slot in
    // which a policy would have fired (audit mode replays should_checkpoint
    // over every elided range).
    vs::Platform pf;
    pf.w = {4, 6, 8};
    pf.ncom = 2;
    pf.t_prog = 3;
    pf.t_data = 1;
    const std::vector<vm::MarkovChain> chains(
        3, vt::chain3(0.55, 0.05, 0.20, 0.30, 0.25, 0.05));
    auto& reg = vk::CheckpointRegistry::instance();
    long long elided_total = 0;
    long long committed_total = 0;
    for (const std::string spec : {"periodic2", "daly", "risk25"}) {
        const auto policy = reg.make(spec);
        for (const std::string name : {"mct", "emct"}) {
            vs::EngineConfig cfg = vt::audited_config(2, 4);
            cfg.checkpoint = policy.get();
            cfg.checkpoint_cost = 2;
            const long long elided = run_both_and_compare(
                pf, chains, cfg, 29, name, spec + "/" + name);
            elided_total += elided;
            vs::EngineConfig probe = vt::audited_config(2, 4);
            probe.checkpoint = policy.get();
            probe.checkpoint_cost = 2;
            const auto sim =
                vs::Simulation::from_chains(pf, chains, probe, 29);
            const auto sched = vc::make_scheduler(name);
            committed_total += sim.run(*sched).checkpoints_committed;
        }
    }
    EXPECT_GT(elided_total, 0)
        << "event core never elided a slot in the checkpointed regimes";
    EXPECT_GT(committed_total, 0)
        << "no checkpoint ever committed; the regime does not exercise the "
           "policies";
}

TEST(EventEngine, InitialDeadStretchIsSkippedInFullByBothCores) {
    // Bugfix pin: a realization that starts all-DOWN used to walk slot 0
    // (the `t > 0` guard in the skip branch), skipping only 299 of 300
    // dead slots.  The event core must account the full stretch while
    // staying bit-identical to the slot loop, which skips nothing.
    constexpr int kDead = 300;
    volsched::trace::RecordedTrace tr;
    for (int i = 0; i < kDead; ++i)
        tr.states.push_back(vm::ProcState::Down);
    for (int i = 0; i < 5000; ++i)
        tr.states.push_back(vm::ProcState::Up);
    const auto pf = vs::Platform::homogeneous(2, /*w_all=*/4, /*ncom=*/2,
                                              /*t_prog=*/3, /*t_data=*/1);

    // Two arms: event core, slot loop.
    Outcome out[2];
    for (int arm = 0; arm < 2; ++arm) {
        auto sim = vs::Simulation::builder()
                       .platform(pf)
                       .replay({tr, tr})
                       .iterations(2)
                       .tasks_per_iteration(3)
                       .audit(true)
                       .observe(&out[arm].timeline)
                       .observe(&out[arm].actions)
                       .event_driven(arm == 0)
                       .seed(11)
                       .build();
        const auto sched = vc::make_scheduler("mct");
        out[arm].m = sim.run(*sched);
    }
    // The skip-count assertion: the WHOLE stretch, slot 0 included.
    EXPECT_EQ(out[0].m.dead_slots_skipped, kDead) << "event core";
    EXPECT_EQ(out[1].m.dead_slots_skipped, 0) << "slot loop";
    EXPECT_GE(out[0].m.slots_elided, kDead);
    EXPECT_EQ(out[0].m.down_events, 2);
    const std::string label = "event-vs-reference";
    expect_same_metrics(out[0].m, out[1].m, label);
    expect_same_timeline(out[0].timeline, out[1].timeline, label);
    expect_same_actions(out[0].actions, out[1].actions, label);
}

TEST(EventEngine, WorkCountersFollowPresentWorkersNotFleetSize) {
    // A sparse desktop fleet: 64 semi-Markov workers with short UP
    // sojourns and long absences.  Each core runs twice, bare and with a
    // metrics registry installed; the registry must not change one byte
    // of output, and the per-run work counters it receives must show the
    // stepping cost following the workers present, not P.
    using volsched::trace::SemiMarkovAvailability;
    using volsched::trace::SojournDist;
    constexpr int kProcs = 64;
    volsched::trace::SemiMarkovParams params;
    params.sojourn = {SojournDist::weibull_with_mean(0.7, 60.0),
                      SojournDist::weibull_with_mean(0.9, 160.0),
                      SojournDist::weibull_with_mean(0.8, 800.0)};
    params.jump[0] = {0.0, 0.5, 0.5};
    params.jump[1] = {0.5, 0.0, 0.5};
    params.jump[2] = {0.9, 0.1, 0.0};
    const auto pf = vs::Platform::homogeneous(kProcs, /*w_all=*/200,
                                              /*ncom=*/4, /*t_prog=*/10,
                                              /*t_data=*/2);
    const std::vector<vm::MarkovChain> beliefs(
        kProcs, vm::MarkovChain(
                    SemiMarkovAvailability(params).equivalent_markov_matrix()));
    struct Run {
        std::string metrics;
        vs::Timeline timeline;
        vs::ActionTrace actions;
    };
    const auto run = [&](bool event_driven, Run& out) {
        std::vector<std::unique_ptr<vm::AvailabilityModel>> models;
        for (int q = 0; q < kProcs; ++q)
            models.push_back(std::make_unique<SemiMarkovAvailability>(params));
        auto sim = vs::Simulation::builder()
                       .platform(pf)
                       .models(std::move(models))
                       .beliefs(beliefs)
                       .config(vt::audited_config(2, 12, /*replica_cap=*/0))
                       .observe(&out.timeline)
                       .observe(&out.actions)
                       .event_driven(event_driven)
                       .seed(5)
                       .build();
        const auto sched = vc::make_scheduler("emct");
        out.metrics = vs::metrics_to_json(sim.run(*sched));
    };
    for (const bool event_driven : {false, true}) {
        const std::string label = event_driven ? "event core" : "slot loop";
        Run bare, observed;
        run(event_driven, bare);
        vo::Registry registry;
        vo::Registry::install(&registry);
        run(event_driven, observed);
        vo::Registry::install(nullptr);
        EXPECT_EQ(bare.metrics, observed.metrics) << label;
        expect_same_timeline(bare.timeline, observed.timeline, label);
        expect_same_actions(bare.actions, observed.actions, label);

        const long long stepped = registry.counter("sim.slots_stepped").value();
        const long long visits = registry.counter("sim.worker_visits").value();
        const long long queries =
            registry.counter("sim.cursor_queries").value();
        ASSERT_GT(stepped, 0) << label;
        EXPECT_GT(queries, 0) << label;
        EXPECT_LT(visits, stepped * kProcs)
            << label << ": " << visits << " worker visits in " << stepped
            << " stepped slots of a " << kProcs << "-worker fleet";
        // The slot loop steps every slot of the run.
        if (!event_driven) {
            EXPECT_EQ(stepped, bare.timeline.slots()) << label;
        }
    }
}
