/// \file driver.cpp
/// The volsched benchmark driver.  It generates one workload's inputs from a
/// seed, drives the library only through its public API, checks every
/// output against a reference, and prints one raw JSON result (samples,
/// deterministic work counters, fingerprints) that run.py reduces to the
/// metrics named in BENCHMARK.json.
///
///   perfbench_driver --workload paper-grid --seed 7 --seconds 10
///                    --trace 0 --workdir .bench_build/work
///
/// With --trace 1 the program measures an untraced phase and then a traced
/// phase over the same inputs (the spans.hpp decorators), checks that both
/// give byte-identical outputs and equal work counters, and reports the
/// per-layer breakdown plus a Chrome trace-event file (--trace-out).
///
/// Workloads (README.md gives the reason for each):
///   paper-grid      the paper's recipe under the full 21-spec set
///   fleet           1000 Markov workers, 100 tasks, scoring-dominated
///   desktop-sparse  32 semi-Markov desktop workers with daly checkpoints
///   campaign-io     durable CampaignBuilder campaigns + indexed queries

#include <sched.h>
#include <sys/vfs.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "spans.hpp"
#include "volsched/volsched.hpp"

namespace fs = std::filesystem;
namespace pb = perfbench;
namespace va = volsched::api;
namespace vc = volsched::ckpt;
namespace ve = volsched::exp;
namespace vm = volsched::markov;
namespace vo = volsched::obs;
namespace vs = volsched::sim;
namespace vt = volsched::trace;
namespace vu = volsched::util;

using pb::now_s;
using pb::Scope;
using pb::SpanRecorder;

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

// ---------------------------------------------------------------------------
// Utilities: digests, JSON output, failure accounting, host facts.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a(std::string_view text, std::uint64_t h = kFnvBasis) {
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string hex(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/// Digest of one run's results: its RunMetrics JSON with the work counters
/// zeroed.  Those counters (elided slots, cache traffic) say how much work
/// the engine did, not what it computed, so an optimisation may move them;
/// they are compared separately, as deterministic counters.
std::uint64_t result_digest(vs::RunMetrics m) {
    m.slots_elided = 0;
    m.dead_slots_skipped = 0;
    m.cache_hits = 0;
    m.cache_misses = 0;
    m.cache_invalidations = 0;
    return fnv1a(vs::metrics_to_json(m));
}

/// Minimal ordered JSON object writer; numbers keep all their digits.
class Json {
public:
    Json& num(const std::string& key, double v) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(key, buf);
    }
    Json& num(const std::string& key, long long v) {
        return raw(key, std::to_string(v));
    }
    Json& num(const std::string& key, int v) {
        return num(key, static_cast<long long>(v));
    }
    Json& str(const std::string& key, const std::string& v) {
        std::string q = "\"";
        for (const char c : v) {
            if (static_cast<unsigned char>(c) < 0x20) continue;
            if (c == '"' || c == '\\') q += '\\';
            q += c;
        }
        return raw(key, q + "\"");
    }
    Json& list(const std::string& key, const std::vector<double>& v) {
        std::string s = "[";
        char buf[40];
        for (std::size_t i = 0; i < v.size(); ++i) {
            std::snprintf(buf, sizeof buf, "%.17g", v[i]);
            if (i) s += ',';
            s += buf;
        }
        return raw(key, s + "]");
    }
    Json& raw(const std::string& key, const std::string& value) {
        if (!body_.empty()) body_ += ',';
        body_ += "\"" + key + "\":" + value;
        return *this;
    }
    [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

private:
    std::string body_;
};

/// Operation accounting.  An operation fails if it throws, if its output
/// digest differs from the reference, if its work counters differ from the
/// first repetition's, or if a campaign reports `complete == false`.
struct Tally {
    long long attempted = 0;
    long long failed = 0;
    std::vector<std::string> reasons; ///< the first few, for the log

    void check(bool ok, const std::string& why) {
        ++attempted;
        if (ok) return;
        ++failed;
        if (reasons.size() < 8) reasons.push_back(why);
    }
};

/// Peak resident set of this process image (VmHWM).  getrusage's
/// ru_maxrss is not used: Linux carries it across exec, so it would report
/// the launching interpreter's footprint.
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    return 0.0;
}

std::string filesystem_of(const fs::path& dir) {
    struct statfs st{};
    if (statfs(dir.c_str(), &st) != 0) return "unknown";
    switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    default: return "0x" + hex(static_cast<std::uint64_t>(st.f_type));
    }
}

unsigned nproc() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1U : hw;
}

/// The CPUs this process may run on, in order.
std::vector<int> allowed_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set)) cpus.push_back(c);
    return cpus;
}

/// Pins the calling thread to `cpu` (-1: any allowed CPU).  Timed passes of
/// the single-threaded workloads rotate over every allowed CPU, so each run
/// samples all of them equally: on a shared host the CPUs differ in speed
/// from moment to moment, and a run that stays on one would carry that
/// CPU's luck into its medians.
void pin_to(const std::vector<int>& cpus, int pass) {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (pass < 0 || cpus.empty()) {
        for (int c : cpus) CPU_SET(c, &set);
    } else {
        CPU_SET(cpus[static_cast<std::size_t>(pass) % cpus.size()], &set);
    }
    (void)sched_setaffinity(0, sizeof set, &set);
}

/// Worker threads for campaign-io: one process, at most nproc threads.
int campaign_threads() { return static_cast<int>(std::min(nproc(), 4U)); }

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool verify_only = false;
    fs::path workdir = ".bench_build/work";
    fs::path trace_out;
};

/// Set-up is repeated at least kSetupMinReps times and until kSetupMinSeconds
/// have passed (at most kSetupMaxReps); the median is the metric.
constexpr int kSetupMinReps = 5;
constexpr int kSetupMaxReps = 101;
constexpr double kSetupMinSeconds = 0.25;

bool more_setup(const std::vector<double>& times) {
    double total = 0;
    for (double t : times) total += t;
    const int n = static_cast<int>(times.size());
    return n < kSetupMinReps || (n < kSetupMaxReps && total < kSetupMinSeconds);
}

// ---------------------------------------------------------------------------
// Simulation workloads: paper-grid, fleet, desktop-sparse.
// ---------------------------------------------------------------------------

/// Everything needed to build one simulation instance.  Markov instances
/// keep their scenario and are realized (exp::realize) at set-up.
struct InstanceSpec {
    std::optional<ve::Scenario> scenario;
    vs::Platform platform;
    std::vector<vm::MarkovChain> beliefs;
    std::function<std::vector<std::unique_ptr<vm::AvailabilityModel>>()> models;
    vs::EngineConfig config;
    std::string checkpoint; ///< registry spec; empty for none
    std::uint64_t seed = 0;
    bool cache_traces = true; ///< false: availability sampled inside run()
};

struct SimWorkload {
    std::vector<std::string> heuristics;
    std::vector<InstanceSpec> instances;
    long long setup_horizon = 0; ///< slots pre-sampled at set-up (cached)
    std::map<std::string, std::string> params; ///< configuration fingerprint
};

std::vector<std::unique_ptr<vm::AvailabilityModel>>
markov_models(const std::vector<vm::MarkovChain>& chains) {
    std::vector<std::unique_ptr<vm::AvailabilityModel>> out;
    out.reserve(chains.size());
    for (const auto& c : chains)
        out.push_back(std::make_unique<vm::MarkovAvailability>(c));
    return out;
}

vt::SemiMarkovParams desktop_process(double scale) {
    using vt::SojournDist;
    vt::SemiMarkovParams params;
    params.sojourn = {SojournDist::weibull_with_mean(0.7, 30.0 * scale),
                      SojournDist::weibull_with_mean(0.9, 80.0 * scale),
                      SojournDist::weibull_with_mean(0.8, 400.0 * scale)};
    params.jump[0] = {0.0, 0.5, 0.5};
    params.jump[1] = {0.5, 0.0, 0.5};
    params.jump[2] = {0.9, 0.1, 0.0};
    return params;
}

// Workload shapes.  Changing any of these changes the benchmark.
constexpr int kPaperScenarios = 48;
constexpr int kFleetInstances = 14;
constexpr int kFleetProcs = 1000;
constexpr int kDesktopInstances = 96;
constexpr int kDesktopProcs = 32;
constexpr int kDesktopTasks = 12;
constexpr double kDesktopScale = 20.0;

SimWorkload markov_workload(std::uint64_t seed, int count, int p, int tasks,
                            int ncom, int wmin, int iterations) {
    SimWorkload w;
    for (int i = 0; i < count; ++i) {
        ve::Scenario sc;
        sc.p = p;
        sc.tasks = tasks;
        sc.ncom = ncom;
        sc.wmin = wmin;
        sc.recipe = {0.90, 0.99};
        sc.seed = vu::mix_seed(seed, 0x5343ULL, static_cast<std::uint64_t>(i));
        InstanceSpec spec;
        spec.scenario = sc;
        spec.config.iterations = iterations;
        spec.config.tasks_per_iteration = tasks;
        spec.seed =
            vu::mix_seed(seed, 0x54524cULL, static_cast<std::uint64_t>(i));
        w.instances.push_back(std::move(spec));
    }
    w.setup_horizon = 1024;
    w.params = {{"p", std::to_string(p)},
                {"tasks", std::to_string(tasks)},
                {"ncom", std::to_string(ncom)},
                {"wmin", std::to_string(wmin)},
                {"iterations", std::to_string(iterations)},
                {"self_transition", "U[0.90,0.99]"},
                {"instances", std::to_string(count)}};
    return w;
}

SimWorkload desktop_workload(std::uint64_t seed) {
    SimWorkload w;
    const auto params = desktop_process(kDesktopScale);
    const vm::MarkovChain belief(
        vt::SemiMarkovAvailability(params).equivalent_markov_matrix());
    vu::Rng rng(vu::mix_seed(seed, 0x44534bULL));
    for (int i = 0; i < kDesktopInstances; ++i) {
        InstanceSpec spec;
        spec.platform.w.resize(kDesktopProcs);
        for (auto& wq : spec.platform.w)
            wq = static_cast<int>(rng.uniform_int(400, 1600));
        spec.platform.ncom = 4;
        spec.platform.t_prog = 10;
        spec.platform.t_data = 2;
        spec.beliefs.assign(kDesktopProcs, belief);
        spec.models = [params] {
            std::vector<std::unique_ptr<vm::AvailabilityModel>> m;
            for (int q = 0; q < kDesktopProcs; ++q)
                m.push_back(std::make_unique<vt::SemiMarkovAvailability>(params));
            return m;
        };
        spec.config.iterations = 2;
        spec.config.tasks_per_iteration = kDesktopTasks;
        spec.config.replica_cap = 0;
        spec.config.checkpoint_cost = 2;
        spec.checkpoint = "daly";
        spec.cache_traces = false;
        spec.seed =
            vu::mix_seed(seed, 0x44544bULL, static_cast<std::uint64_t>(i));
        w.instances.push_back(std::move(spec));
    }
    w.heuristics = {"emct", "mct"};
    w.params = {{"p", std::to_string(kDesktopProcs)},
                {"tasks", std::to_string(kDesktopTasks)},
                {"ncom", "4"},
                {"w", "U{400..1600}"},
                {"iterations", "2"},
                {"replica_cap", "0"},
                {"checkpoint", "daly"},
                {"checkpoint_cost", "2"},
                {"availability", "semi-markov weibull desktop, means x20"},
                {"instances", std::to_string(kDesktopInstances)}};
    return w;
}

SimWorkload make_sim_workload(const std::string& name, std::uint64_t seed) {
    SimWorkload w;
    if (name == "paper-grid") {
        w = markov_workload(seed, kPaperScenarios, 20, 10, 5, 2, 10);
        w.heuristics = volsched::core::all_heuristic_names();
        for (const auto& s : volsched::core::extension_heuristic_names())
            w.heuristics.push_back(s); // 17 paper specs + 4 extensions
    } else if (name == "fleet") {
        w = markov_workload(seed, kFleetInstances, kFleetProcs, 100, 20, 1, 3);
        w.heuristics = {"emct", "emct*", "ud*"};
    } else if (name == "desktop-sparse") {
        w = desktop_workload(seed);
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    std::string hs;
    for (const auto& h : w.heuristics) hs += (hs.empty() ? "" : ",") + h;
    w.params["heuristics"] = hs;
    return w;
}

/// Realizes a Markov instance's scenario into platform, beliefs and models.
void realize_instance(InstanceSpec& spec, SpanRecorder* rec) {
    if (!spec.scenario) return;
    Scope s(rec, "exp.realize", pb::kExp, true);
    auto rs = ve::realize(*spec.scenario);
    spec.platform = std::move(rs.platform);
    spec.beliefs = std::move(rs.chains);
    spec.models = [chains = spec.beliefs] { return markov_models(chains); };
}

/// Builds one simulation through SimulationBuilder.  With `rec` the
/// availability models and the checkpoint policy are decorated.
vs::Simulation build_instance(const InstanceSpec& spec, bool event_driven,
                              SpanRecorder* rec,
                              std::shared_ptr<vm::RealizedTraces> shared = {},
                              vo::TraceRecorder* recorder = nullptr) {
    auto models = spec.models();
    if (rec)
        for (auto& m : models)
            m = std::make_unique<pb::TracedAvailability>(std::move(m), *rec);
    auto b = vs::Simulation::builder();
    b.platform(spec.platform)
        .models(std::move(models))
        .beliefs(spec.beliefs)
        .config(spec.config)
        .event_driven(event_driven)
        .trace_cache(spec.cache_traces)
        .trace(recorder)
        .seed(spec.seed);
    if (!spec.checkpoint.empty()) {
        std::shared_ptr<const vc::CheckpointPolicy> policy =
            vc::CheckpointRegistry::instance().make(spec.checkpoint);
        if (rec) policy = std::make_shared<pb::TracedPolicy>(policy, *rec);
        b.checkpoint(policy);
    }
    if (shared) b.realized(std::move(shared));
    Scope s(rec, "api.build", pb::kApi, true,
            rec ? &rec->work.build_s : nullptr);
    if (rec) ++rec->work.builds;
    return b.build();
}

/// The built instances of one workload.
struct Built {
    std::vector<vs::Simulation> sims;
    std::vector<int> procs; ///< processor count per instance
    bool cached = true;     ///< realizations cached across runs
};

/// Set-up: scenario realization, build(), registry make of every spec,
/// and (cached workloads) pre-sampling the first `setup_horizon` slots.
Built setup(SimWorkload& w, SpanRecorder* rec) {
    Built out;
    out.sims.reserve(w.instances.size());
    out.cached = w.instances.front().cache_traces;
    for (auto& spec : w.instances) {
        realize_instance(spec, rec);
        out.sims.push_back(build_instance(spec, true, rec));
        out.procs.push_back(spec.platform.size());
        if (spec.cache_traces) {
            Scope s(rec, "markov.ensure", pb::kMarkov, true);
            out.sims.back().realization()->ensure(w.setup_horizon);
        }
    }
    for (const auto& h : w.heuristics) {
        Scope s(rec, "api.make", pb::kApi, true,
                rec ? &rec->work.build_s : nullptr);
        (void)va::SchedulerRegistry::instance().make(h);
    }
    return out;
}

/// One run's outputs: the result digest plus deterministic work counters.
struct RunOut {
    std::uint64_t digest = 0;
    double ms = 0; ///< host latency of the run (until it threw, if it did)
    long long slots = 0;
    long long elided = 0;
    long long cache_hits = 0;
    long long cache_misses = 0;
    long long checkpoints = 0;
    bool ok = false;

    [[nodiscard]] bool same_work(const RunOut& o) const {
        return slots == o.slots && elided == o.elided &&
               cache_hits == o.cache_hits && cache_misses == o.cache_misses &&
               checkpoints == o.checkpoints;
    }
};

struct PassOut {
    std::vector<RunOut> runs; ///< instance-major, heuristic-minor
    double seconds = 0;
    long long slots = 0;
    long long slot_workers = 0; ///< sum over runs of makespan x processors
    std::vector<double> latency_ms;

    [[nodiscard]] long long sum(long long RunOut::*field) const {
        long long s = 0;
        for (const auto& r : runs) s += r.*field;
        return s;
    }
    [[nodiscard]] std::uint64_t digest() const {
        std::uint64_t h = kFnvBasis;
        for (const auto& r : runs) h = fnv1a(hex(r.digest), h);
        return h;
    }
};

/// Each operation's fastest repetition.  Interference from other tenants of
/// a shared host only ever adds time, so the minimum over repetitions is
/// the steadiest estimate of an operation's cost; medians and tails are
/// then taken across operations.
struct Timing {
    std::vector<double> best_ms; ///< per operation, in pass order
    double seconds = 0;          ///< wall time of every pass so far
    int passes = 0;

    void add(const PassOut& p) {
        if (best_ms.empty()) best_ms = p.latency_ms;
        for (std::size_t i = 0; i < best_ms.size(); ++i)
            best_ms[i] = std::min(best_ms[i], p.latency_ms[i]);
        seconds += p.seconds;
        ++passes;
    }
    /// One pass at every operation's best time.
    [[nodiscard]] double best_seconds() const {
        double s = 0;
        for (double ms : best_ms) s += ms / 1e3;
        return s;
    }
};

/// Repetitions every operation gets at least, budget or not (the traced
/// run's untraced phase, which only sets trace_overhead_frac, takes 2).
constexpr int kMinPasses = 3;

/// One pass: every heuristic on every instance, each run timed alone.  A
/// fresh scheduler per run (as exp::run_instance does) keeps runs
/// independent of each other's expectation caches.
PassOut run_pass(const Built& built, const std::vector<std::string>& specs,
                 SpanRecorder* rec) {
    const auto& registry = va::SchedulerRegistry::instance();
    PassOut out;
    out.runs.reserve(built.sims.size() * specs.size());
    const double t_pass = now_s();
    for (std::size_t i = 0; i < built.sims.size(); ++i) {
        for (const auto& spec : specs) {
            RunOut r;
            double t0 = now_s();
            try {
                std::unique_ptr<vs::Scheduler> sched = registry.make(spec);
                if (rec)
                    sched = std::make_unique<pb::TracedScheduler>(
                        std::move(sched), *rec);
                t0 = now_s();
                vs::RunMetrics m;
                {
                    Scope s(rec, "sim.run", pb::kSim, true);
                    m = built.sims[i].run(*sched);
                }
                r.digest = result_digest(m);
                r.slots = m.makespan;
                r.elided = m.slots_elided;
                r.cache_hits = m.cache_hits;
                r.cache_misses = m.cache_misses;
                r.checkpoints = m.checkpoints_committed;
                r.ok = m.completed;
            } catch (const std::exception&) {
                r.ok = false;
            }
            r.ms = (now_s() - t0) * 1e3;
            out.slots += r.slots;
            out.slot_workers += r.slots * built.procs[i];
            out.latency_ms.push_back(r.ms);
            out.runs.push_back(r);
        }
    }
    out.seconds = now_s() - t_pass;
    return out;
}

/// Checks a pass against the reference pass, run by run: each run must
/// complete, reproduce the reference digest, and (unless `results_only`)
/// repeat the reference's work counters exactly.
void check_pass(const PassOut& pass, const PassOut& ref, Tally& tally,
                const std::string& what, bool results_only = false) {
    for (std::size_t k = 0; k < pass.runs.size(); ++k) {
        const RunOut& r = pass.runs[k];
        const RunOut& e = ref.runs[k];
        const std::string run = what + " run " + std::to_string(k) + ": ";
        if (!r.ok || !e.ok)
            tally.check(false, run + "threw or did not complete");
        else if (r.digest != e.digest)
            tally.check(false, run + "result differs from the reference");
        else
            tally.check(results_only || r.same_work(e),
                        run + "work counters differ from the first repetition");
    }
}

/// Slots (or RLE segments) realized so far over every instance; zero for
/// workloads that sample availability inside each run.
long long realized_slots(const Built& built, bool segments = false) {
    long long total = 0;
    if (!built.cached) return total;
    for (const auto& sim : built.sims) {
        const auto rt = sim.realization();
        for (int q = 0; rt && q < rt->size(); ++q)
            total += segments ? static_cast<long long>(
                                    rt->trace(q).segments().size())
                              : rt->trace(q).realized();
    }
    return total;
}

Json pass_counters(const PassOut& pass) {
    Json j;
    j.num("runs", static_cast<long long>(pass.runs.size()))
        .num("slots", pass.slots)
        .num("slots_elided", pass.sum(&RunOut::elided))
        .num("cache_hits", pass.sum(&RunOut::cache_hits))
        .num("cache_misses", pass.sum(&RunOut::cache_misses))
        .num("checkpoints_committed", pass.sum(&RunOut::checkpoints));
    return j;
}

/// obs probe: the first instance under every heuristic, once plain and once
/// with a sim-time TraceRecorder attached, each on a fresh simulation.  The
/// recorder is observer-only, so the outputs must match.
struct ObsProbe {
    double overhead_frac = 0;
    long long events = 0;
};

ObsProbe obs_probe(const SimWorkload& w, Tally& tally) {
    const auto& registry = va::SchedulerRegistry::instance();
    const InstanceSpec& spec = w.instances.front();
    vo::TraceRecorder recorder;
    const auto plain = build_instance(spec, true, nullptr);
    const auto traced = build_instance(spec, true, nullptr, {}, &recorder);
    double t_plain = 0;
    double t_traced = 0;
    long long events = 0;
    for (int rep = 0; rep < 2; ++rep) { // rep 0 warms both realizations
        for (const auto& h : w.heuristics) {
            try {
                auto s1 = registry.make(h);
                double t0 = now_s();
                const auto a = plain.run(*s1);
                if (rep) t_plain += now_s() - t0;
                auto s2 = registry.make(h);
                t0 = now_s();
                const auto b = traced.run(*s2);
                if (rep) t_traced += now_s() - t0;
                // begin_run clears the recorder, so count per run.
                if (rep) events += static_cast<long long>(recorder.size());
                tally.check(result_digest(a) == result_digest(b),
                            "TraceRecorder changed the result of " + h);
            } catch (const std::exception& e) {
                tally.check(false, std::string("obs probe threw: ") + e.what());
            }
        }
    }
    ObsProbe probe;
    probe.overhead_frac = t_plain > 0 ? t_traced / t_plain - 1.0 : 0.0;
    probe.events = events;
    return probe;
}

void run_sim_workload(const Options& opt, Json& out, Tally& tally) {
    SimWorkload w = make_sim_workload(opt.workload, opt.seed);

    // Set-up, several times now and once more after every timed pass, so
    // its median spans the run like the passes do; the first batch's last
    // products are kept.
    std::vector<double> setup_s;
    const SimWorkload generated = w;
    auto setup_once = [&](SimWorkload& into) {
        into = generated;
        const double t0 = now_s();
        Built b = setup(into, nullptr);
        setup_s.push_back(now_s() - t0);
        return b;
    };
    Built built;
    while (more_setup(setup_s)) {
        built = Built{}; // release the previous set-up's products first
        built = setup_once(w);
    }

    // The first pass (it also fills realizations and caches) is the work
    // counters' reference; the slot-loop core replaying the same
    // realizations is the results' reference.
    const std::vector<int> cpus = allowed_cpus();
    Timing timing;
    const PassOut first = run_pass(built, w.heuristics, nullptr);
    timing.add(first);
    const long long realized_first = realized_slots(built);
    Built oracle;
    for (std::size_t i = 0; i < w.instances.size(); ++i) {
        const auto& spec = w.instances[i];
        oracle.sims.push_back(build_instance(
            spec, false, nullptr,
            spec.cache_traces ? built.sims[i].realization() : nullptr));
        oracle.procs.push_back(built.procs[i]);
    }
    oracle.cached = built.cached;
    check_pass(run_pass(oracle, w.heuristics, nullptr), first, tally,
               "slot-loop reference", /*results_only=*/true);
    const long long realized_ref = realized_slots(built);
    // Peak memory of set-up plus a pass; read before the extra set-ups
    // below briefly hold a second copy of the workload.
    const double rss_mb = peak_rss_mb();

    // Timed passes, rotating over the allowed CPUs, until the budget is
    // spent (the first pass counts towards it).
    const int min_passes = opt.trace ? 2 : kMinPasses;
    const double budget = opt.trace ? opt.seconds * 0.4 : opt.seconds;
    while (!opt.verify_only &&
           (timing.passes < min_passes || timing.seconds < budget)) {
        pin_to(cpus, timing.passes);
        const PassOut p = run_pass(built, w.heuristics, nullptr);
        check_pass(p, first, tally, "timed");
        timing.add(p);
        SimWorkload scratch;
        (void)setup_once(scratch);
    }
    pin_to(cpus, -1);
    tally.check(realized_slots(built) == realized_ref,
                "timed passes grew the realization");

    out.list("setup_s", setup_s)
        .list("op_best_ms", timing.best_ms)
        .num("best_seconds", timing.best_seconds())
        .num("pass_slots", first.slots)
        .num("instances", static_cast<long long>(built.sims.size()))
        .num("peak_rss_mb", rss_mb)
        .num("passes", timing.passes)
        .str("digest", hex(first.digest()))
        .raw("counters", pass_counters(first)
                             .num("realized_slots", realized_first)
                             .num("segments", realized_slots(built, true))
                             .text());
    Json config;
    config.str("workload", opt.workload);
    for (const auto& [k, v] : w.params) config.str(k, v);
    out.raw("config", config.text());
    if (!opt.trace) return;

    // ---- Traced phase: decorated models, policies and schedulers over the
    // same inputs.  Window A is set-up plus the first pass (where the
    // realization is sampled); window B the timed passes after it.
    SpanRecorder rec;
    SimWorkload tw = w;
    Built traced;
    {
        Scope s(&rec, "setup", pb::kApi, true);
        traced = setup(tw, &rec);
    }
    {
        Scope s(&rec, "first-pass", pb::kSim, true);
        check_pass(run_pass(traced, w.heuristics, &rec), first, tally,
                   "traced first");
    }
    const pb::Work window_a = rec.work;
    const double markov_a = window_a.draw_s_since(pb::Work{});
    tally.check(realized_slots(traced) == realized_first,
                "traced realization differs from the untraced one");
    tally.check(window_a.draws == realized_first || !traced.cached,
                "decorated draw count differs from the realized slots");

    std::array<double, pb::kLayers> self0{};
    for (int l = 0; l < pb::kLayers; ++l)
        self0[static_cast<std::size_t>(l)] = rec.self_s(pb::Layer(l));
    const pb::Work before_b = rec.work;
    pb::Work per_pass{};
    Timing traced_timing;
    do {
        const pb::Work c0 = rec.work;
        const PassOut p = run_pass(traced, w.heuristics, &rec);
        check_pass(p, first, tally, "traced");
        traced_timing.add(p);
        const pb::Work d = rec.work.counts_since(c0);
        if (traced_timing.passes == 1) {
            per_pass = d;
            // Uncached workloads sample inside every run, so each pass
            // repeats the first pass's draws exactly.
            tally.check(traced.cached || d.draws == window_a.draws,
                        "traced passes drew a different number of states");
        } else {
            tally.check(d.same_counts(per_pass),
                        "decorator counters differ between traced passes");
        }
    } while (traced_timing.seconds < opt.seconds * 0.4);
    const int tpasses = traced_timing.passes;
    auto per = [&](pb::Layer l) {
        return (rec.self_s(l) - self0[static_cast<std::size_t>(l)]) / tpasses;
    };
    const double select_s = (rec.work.select_s - before_b.select_s) / tpasses;
    const double begin_s =
        (rec.work.begin_round_s - before_b.begin_round_s) / tpasses;
    // Draws inside runs are not spans (spans.hpp), so their estimated time
    // comes off the runs' self time here.
    const double sim_self =
        per(pb::kSim) - rec.work.draw_s_since(before_b) / tpasses;

    const ObsProbe probe = obs_probe(w, tally);

    const long long slots = first.slots;
    const long long elided = first.sum(&RunOut::elided);
    const long long hits = first.sum(&RunOut::cache_hits);
    const long long misses = first.sum(&RunOut::cache_misses);
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    Json layers;
    layers.num("core.rounds", per_pass.rounds)
        .num("core.select_calls", per_pass.select_calls)
        .num("core.candidates", per_pass.candidates)
        .num("core.select_s", select_s)
        .num("core.begin_round_s", begin_s)
        .num("core.ns_per_candidate",
             ratio((select_s + begin_s) * 1e9,
                   static_cast<double>(per_pass.candidates)))
        .num("sim.self_s", sim_self)
        .num("sim.slots", slots)
        .num("sim.slots_elided", elided)
        .num("sim.elided_frac",
             ratio(static_cast<double>(elided), static_cast<double>(slots)))
        .num("sim.ns_per_slot_worker",
             ratio(sim_self * 1e9, static_cast<double>(first.slot_workers)))
        .num("markov.realize_s", markov_a)
        .num("markov.draws", window_a.draws)
        .num("markov.segments", window_a.segments)
        .num("markov.cache_hits", hits)
        .num("markov.cache_misses", misses)
        .num("markov.cache_hit_frac",
             ratio(static_cast<double>(hits), static_cast<double>(hits + misses)))
        .num("ckpt.should_calls", per_pass.should_calls)
        .num("ckpt.quiet_calls", per_pass.quiet_calls)
        .num("ckpt.s", per(pb::kCkpt))
        .num("ckpt.checkpoints_committed", first.sum(&RunOut::checkpoints))
        .num("api.build_s", window_a.build_s)
        .num("api.builds", window_a.builds)
        .num("obs.recorder_overhead_frac", probe.overhead_frac)
        .num("obs.trace_events", probe.events);
    out.raw("layers", layers.text())
        .num("traced_best_seconds", traced_timing.best_seconds());
    if (!opt.trace_out.empty()) {
        std::ofstream f(opt.trace_out);
        rec.write_chrome_json(f);
    }
}

// ---------------------------------------------------------------------------
// campaign-io: durable campaigns of tiny instances, then indexed queries.
// ---------------------------------------------------------------------------

constexpr int kCampaignScenarios = 12; // per grid cell; 16 cells
constexpr int kQueriesPerCycle = 48;

va::ExperimentBuilder campaign_experiment(std::uint64_t seed) {
    va::ExperimentBuilder e;
    e.heuristics({"mct", "emct"})
        .tasks({5, 10})
        .ncom({5, 10})
        .wmin({1, 2, 3, 4})
        .scenarios_per_cell(kCampaignScenarios)
        .trials(1)
        .iterations(1)
        .seed(vu::mix_seed(seed, 0x43414dULL))
        .threads(static_cast<std::size_t>(campaign_threads()));
    return e;
}

/// Query filters drawn from the seed: ordinal ranges and axis ranges.
std::vector<ve::QueryFilter> make_queries(std::uint64_t seed,
                                          std::uint64_t jobs) {
    vu::Rng rng(vu::mix_seed(seed, 0x515259ULL));
    std::vector<ve::QueryFilter> out;
    for (int i = 0; i < kQueriesPerCycle; ++i) {
        ve::QueryFilter f;
        const auto a = rng.uniform_int(0, jobs - 1);
        const auto b = rng.uniform_int(0, jobs - 1);
        switch (i % 4) {
        case 0: f.ordinal = std::pair{std::min(a, b), std::max(a, b)}; break;
        case 1: {
            const int lo = static_cast<int>(rng.uniform_int(1, 4));
            f.wmin = std::pair{lo, static_cast<int>(rng.uniform_int(lo, 4))};
            break;
        }
        case 2:
            f.tasks = std::pair{5, 5 + 5 * static_cast<int>(rng.uniform_int(0, 1))};
            f.ncom = std::pair{5, 5};
            break;
        default:
            f.ordinal = std::pair{std::min(a, b), std::max(a, b)};
            f.wmin = std::pair{2, 3};
            break;
        }
        out.push_back(f);
    }
    return out;
}

bool in(const std::optional<std::pair<int, int>>& r, int v) {
    return !r || (r->first <= v && v <= r->second);
}

/// The full-scan reference for a query: every record line, in order, that
/// the filter selects.
std::vector<std::string> full_scan(const std::vector<std::string>& lines,
                                   const ve::QueryFilter& f) {
    std::vector<std::string> out;
    for (const auto& line : lines) {
        const auto rec = ve::JsonlSink::parse_record(line);
        if (f.ordinal && (rec.scenario_ordinal < f.ordinal->first ||
                          rec.scenario_ordinal > f.ordinal->second))
            continue;
        if (in(f.wmin, rec.scenario.wmin) && in(f.tasks, rec.scenario.tasks) &&
            in(f.ncom, rec.scenario.ncom))
            out.push_back(line);
    }
    return out;
}

std::uint64_t lines_digest(const std::vector<std::string>& lines) {
    std::uint64_t h = kFnvBasis;
    for (const auto& l : lines) h = fnv1a(l + "\n", h);
    return h;
}

/// Record lines of a JSONL stream (the header line dropped).
std::vector<std::string> read_records(const fs::path& jsonl) {
    std::ifstream in(jsonl);
    std::vector<std::string> lines;
    std::string line;
    bool header = true;
    while (std::getline(in, line)) {
        if (header) header = false;
        else lines.push_back(line);
    }
    return lines;
}

long long dir_bytes(const fs::path& dir) {
    long long total = 0;
    for (const auto& e : fs::directory_iterator(dir))
        if (e.is_regular_file()) total += static_cast<long long>(e.file_size());
    return total;
}

struct CycleOut {
    bool ok = false;       ///< the cycle ran to the end without throwing
    double wall_s = 0;     ///< the whole cycle: campaign, checks, queries
    double campaign_s = 0;
    long long instances = 0;
    long long slots = 0; ///< sum of every record's makespans
    long long bytes = 0;
    long long index_bytes = 0;
    long long query_rows = 0;
    std::vector<double> query_ms;
};

void run_campaign_workload(const Options& opt, Json& out, Tally& tally) {
    const fs::path root = opt.workdir / ("campaign-io-" + std::to_string(opt.seed));
    const va::ExperimentBuilder experiment = campaign_experiment(opt.seed);

    // Set-up (campaign directory preparation and configuration validation),
    // several times now and once more after every timed cycle, as in
    // run_sim_workload.
    std::vector<double> setup_s;
    std::uint64_t jobs = 0;
    auto setup_once = [&] {
        const double t0 = now_s();
        fs::remove_all(root);
        fs::create_directories(root);
        jobs = ve::grid_jobs(experiment.sweep_config()).size();
        (void)experiment.campaign().directory(root).checkpoint_every(1).config();
        setup_s.push_back(now_s() - t0);
    };
    while (more_setup(setup_s)) setup_once();

    // Reference: the in-memory sweep on the same grid, serialized through
    // the canonical JSONL record format; queries are answered by full scans.
    std::vector<ve::InstanceRecord> records;
    va::ExperimentBuilder sweep = experiment;
    sweep.record([&](const ve::InstanceRecord& r) { records.push_back(r); });
    (void)sweep.run();
    std::sort(records.begin(), records.end(), [](const auto& a, const auto& b) {
        return std::pair(a.scenario_ordinal, a.trial) <
               std::pair(b.scenario_ordinal, b.trial);
    });
    std::vector<std::string> ref_lines;
    long long ref_slots = 0;
    for (const auto& r : records) {
        ref_lines.push_back(ve::JsonlSink::format_record(r));
        for (long long m : r.makespans) ref_slots += m;
    }
    const std::uint64_t ref_digest = lines_digest(ref_lines);
    const auto queries = make_queries(opt.seed, jobs);
    std::vector<std::uint64_t> query_ref;
    for (const auto& q : queries)
        query_ref.push_back(lines_digest(full_scan(ref_lines, q)));

    // The workload's digest covers the records and every query's rows.
    std::uint64_t combined = fnv1a(hex(ref_digest));
    for (const auto q : query_ref) combined = fnv1a(hex(q), combined);

    const fs::path shard = root / ve::shard_directory_name(1, 1);
    const fs::path jsonl = shard / "records.jsonl";
    auto cycle = [&](SpanRecorder* rec, bool scan_file) {
        CycleOut c;
        const double t0 = now_s();
        try {
            ve::CampaignResult result = [&] {
                Scope s(rec, "exp.run_campaign", pb::kExp, true);
                return experiment.campaign()
                    .directory(root)
                    .checkpoint_every(1)
                    .fresh()
                    .run();
            }();
            c.campaign_s = now_s() - t0;
            c.instances = result.instances_done;
            tally.check(result.complete, "campaign reported complete == false");
            const auto lines = read_records(jsonl);
            tally.check(lines_digest(lines) == ref_digest,
                        "records.jsonl differs from the in-memory sweep");
            c.slots = ref_slots; // the records equal the reference's
            c.bytes = dir_bytes(shard);
            c.index_bytes = static_cast<long long>(
                fs::file_size(shard / "records.idx"));
            for (std::size_t i = 0; i < queries.size(); ++i) {
                std::vector<std::string> rows;
                const double q0 = now_s();
                {
                    Scope s(rec, "exp.query_shards", pb::kExp, true);
                    (void)ve::query_shards({jsonl}, queries[i],
                                           [&](const std::string& l) {
                                               rows.push_back(l);
                                           });
                }
                c.query_ms.push_back((now_s() - q0) * 1e3);
                c.query_rows += static_cast<long long>(rows.size());
                const auto d = lines_digest(rows);
                tally.check(d == query_ref[i],
                            "query " + std::to_string(i) +
                                " differs from the reference full scan");
                if (scan_file)
                    tally.check(d == lines_digest(full_scan(lines, queries[i])),
                                "query " + std::to_string(i) +
                                    " differs from a full scan of records.jsonl");
            }
            c.ok = true;
        } catch (const std::exception& e) {
            tally.check(false, std::string("campaign cycle threw: ") + e.what());
        }
        c.wall_s = now_s() - t0;
        return c;
    };

    // Cycles until the budget is spent; the first one (which also checks
    // indexed queries against a scan of the file itself) counts towards it
    // and is the reference for the byte and row counts.  As for the
    // simulation workloads, each query's latency and the campaign's wall
    // time are their fastest repetition.
    struct CycleTiming {
        std::vector<double> query_best_ms;
        double campaign_best_s = 0;
        double seconds = 0;
        int cycles = 0;

        void add(const CycleOut& c) {
            seconds += c.wall_s;
            if (!c.ok) return;
            if (cycles++ == 0) {
                query_best_ms = c.query_ms;
                campaign_best_s = c.campaign_s;
            }
            for (std::size_t i = 0; i < query_best_ms.size(); ++i)
                query_best_ms[i] = std::min(query_best_ms[i], c.query_ms[i]);
            campaign_best_s = std::min(campaign_best_s, c.campaign_s);
        }
    };
    const CycleOut first = cycle(nullptr, true);
    const double rss_mb = peak_rss_mb();
    CycleTiming timing;
    timing.add(first);
    auto same_output = [&](const CycleOut& c) {
        return c.bytes == first.bytes && c.index_bytes == first.index_bytes &&
               c.query_rows == first.query_rows;
    };
    const double budget = opt.trace ? opt.seconds * 0.4 : opt.seconds;
    const int min_cycles = opt.trace ? 2 : kMinPasses;
    while (!opt.verify_only &&
           (timing.cycles < min_cycles || timing.seconds < budget)) {
        const CycleOut c = cycle(nullptr, false);
        tally.check(same_output(c),
                    "campaign bytes or query rows differ between cycles");
        timing.add(c);
        setup_once();
    }

    out.list("setup_s", setup_s)
        .list("op_best_ms", timing.query_best_ms)
        .num("best_seconds", timing.campaign_best_s)
        .num("pass_slots", first.slots)
        .num("instances", first.instances)
        .num("peak_rss_mb", rss_mb)
        .num("passes", timing.cycles)
        .str("digest", hex(combined))
        .raw("counters", Json()
                             .num("instances", first.instances)
                             .num("slots", first.slots)
                             .num("bytes_written", first.bytes)
                             .num("index_bytes", first.index_bytes)
                             .num("query_rows", first.query_rows)
                             .text());
    const auto cfg = experiment.sweep_config();
    out.raw("config",
            Json()
                .str("workload", opt.workload)
                .str("heuristics", "mct,emct")
                .str("grid", "tasks{5,10} ncom{5,10} wmin{1..4}")
                .num("scenarios_per_cell", kCampaignScenarios)
                .num("trials", 1)
                .num("iterations", 1)
                .num("jobs", static_cast<long long>(jobs))
                .num("checkpoint_every", 1)
                .num("queries_per_cycle", kQueriesPerCycle)
                .num("threads", static_cast<long long>(cfg.threads))
                .text());
    if (!opt.trace) {
        fs::remove_all(root);
        return;
    }

    // ---- Traced phase: spans around run_campaign, run_sweep and
    // query_shards; a metrics registry counts the durable checkpoints.
    SpanRecorder rec;
    vo::Registry registry;
    vo::Registry* previous = vo::Registry::install(&registry);
    CycleTiming traced;
    double sweep_s = 0;
    do {
        const CycleOut c = cycle(&rec, false);
        tally.check(same_output(c), "traced campaign bytes or query rows differ");
        traced.add(c);
        {
            Scope s(&rec, "exp.run_sweep", pb::kExp, true, &sweep_s);
            (void)experiment.run();
        }
    } while (traced.seconds < opt.seconds * 0.4);
    vo::Registry::install(previous);
    const long long fsyncs = registry.histogram("campaign.fsync_us").count();

    double campaign_s = 0, query_s = 0;
    for (const auto& s : rec.spans()) {
        const double d = s.end - s.start;
        if (std::string_view(s.name) == "exp.run_campaign") campaign_s += d;
        if (std::string_view(s.name) == "exp.query_shards") query_s += d;
    }
    const int tcycles = traced.cycles;
    campaign_s /= tcycles;
    query_s /= tcycles;
    sweep_s /= tcycles;
    Json layers;
    layers.num("exp.sweep_s", sweep_s)
        .num("exp.campaign_s", campaign_s)
        .num("exp.emit_overhead_s", campaign_s - sweep_s)
        .num("exp.bytes_written", first.bytes)
        .num("exp.manifest_writes", fsyncs / tcycles)
        .num("exp.index_bytes", first.index_bytes)
        .num("exp.query_s", query_s)
        .num("exp.query_rows", first.query_rows);
    out.raw("layers", layers.text())
        .num("traced_best_seconds", traced.campaign_best_s);
    if (!opt.trace_out.empty()) {
        std::ofstream f(opt.trace_out);
        rec.write_chrome_json(f);
    }
    fs::remove_all(root);
}

// ---------------------------------------------------------------------------

Options parse(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument("missing value for " + a);
            return argv[++i];
        };
        if (a == "--workload") opt.workload = value();
        else if (a == "--seed") opt.seed = std::stoull(value());
        else if (a == "--seconds") opt.seconds = std::stod(value());
        else if (a == "--trace") opt.trace = value() != "0";
        else if (a == "--workdir") opt.workdir = value();
        else if (a == "--trace-out") opt.trace_out = value();
        else if (a == "--verify-only") opt.verify_only = true;
        else throw std::invalid_argument("unknown argument " + a);
    }
    if (opt.workload.empty())
        throw std::invalid_argument("--workload is required");
    return opt;
}

} // namespace

int main(int argc, char** argv) {
    try {
        const Options opt = parse(argc, argv);
        fs::create_directories(opt.workdir);
        Json out;
        Tally tally;
        if (opt.workload == "campaign-io")
            run_campaign_workload(opt, out, tally);
        else
            run_sim_workload(opt, out, tally);
        std::string reasons = "[";
        for (std::size_t i = 0; i < tally.reasons.size(); ++i) {
            reasons += (i ? ",\"" : "\"") + tally.reasons[i] + "\"";
        }
        out.num("attempted", tally.attempted)
            .num("failed", tally.failed)
            .raw("fail_reasons", reasons + "]")
            .raw("host", Json()
                             .num("nproc", static_cast<long long>(nproc()))
                             .str("compiler", PERFBENCH_COMPILER)
                             .str("build_type", PERFBENCH_BUILD_TYPE)
                             .str("filesystem", filesystem_of(opt.workdir))
                             .text());
        std::cout << out.text() << std::endl;
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "perfbench_driver: " << e.what() << '\n';
        return 1;
    }
}
