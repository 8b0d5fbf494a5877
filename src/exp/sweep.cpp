#include "exp/sweep.hpp"

#include <atomic>

#include "exp/grid_exec.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace volsched::exp {

std::vector<GridJob> grid_jobs(const SweepConfig& cfg) {
    std::vector<GridJob> jobs;
    jobs.reserve(cfg.checkpoint_values.size() * cfg.tasks_values.size() *
                 cfg.ncom_values.size() * cfg.wmin_values.size() *
                 static_cast<std::size_t>(cfg.scenarios_per_cell));
    // The checkpoint axis is outermost and seeds are derived from the
    // *inner* (classic-grid) ordinal: policies replicate the exact scenario
    // and trial streams, so cross-policy comparisons are same-realization —
    // and with the default single-"none" axis the enumeration, ordinals and
    // seeds are bit-identical to the pre-checkpoint grid.
    std::uint64_t ordinal = 0;
    for (const std::string& ckpt : cfg.checkpoint_values) {
        std::uint64_t seed_ordinal = 0;
        for (int tasks : cfg.tasks_values)
            for (int ncom : cfg.ncom_values)
                for (int wmin : cfg.wmin_values)
                    for (int s = 0; s < cfg.scenarios_per_cell; ++s) {
                        GridJob job;
                        job.scenario.p = cfg.p;
                        job.scenario.tasks = tasks;
                        job.scenario.ncom = ncom;
                        job.scenario.wmin = wmin;
                        job.scenario.tdata_factor = cfg.tdata_factor;
                        job.scenario.tprog_factor = cfg.tprog_factor;
                        job.scenario.checkpoint = ckpt;
                        job.scenario.seed = util::mix_seed(
                            cfg.master_seed, 0x5343u, seed_ordinal);
                        job.ordinal = ordinal++;
                        job.seed_ordinal = seed_ordinal++;
                        jobs.push_back(job);
                    }
    }
    return jobs;
}

SweepResult run_sweep(const SweepConfig& cfg,
                      const std::vector<std::string>& heuristics) {
    detail::check_grid_args(cfg, heuristics);
    SweepResult result(heuristics);
    const std::vector<GridJob> jobs = grid_jobs(cfg);
    const long long jobs_total = static_cast<long long>(jobs.size());
    std::atomic<long long> instances_done{0};

    // The whole grid is the window: a job's outcome is one small table
    // (plus its records only when a hook is set), and any tighter bound
    // idles the pool behind each slow job at the head of the order.
    util::ThreadPool pool(cfg.threads);
    detail::run_pipeline(
        pool, 0, jobs_total, jobs_total,
        [&](long long j) {
            return detail::run_grid_job(
                cfg, heuristics, jobs[static_cast<std::size_t>(j)],
                static_cast<bool>(cfg.record), instances_done,
                jobs_total * cfg.trials_per_scenario);
        },
        [&](long long j, detail::JobOutcome& out) {
            if (cfg.record)
                for (const InstanceRecord& rec : out.records) cfg.record(rec);
            merge_job_tables(result, jobs[static_cast<std::size_t>(j)].scenario,
                             out.local);
        },
        nullptr);
    return result;
}

void merge_job_tables(SweepResult& result, const Scenario& scenario,
                      const DfbTable& local) {
    const std::size_t num_heuristics = result.heuristics.size();
    auto merge_into = [&](std::map<int, DfbTable>& table, int key) {
        auto [it, inserted] = table.try_emplace(key, num_heuristics);
        it->second.merge(local);
    };
    result.overall.merge(local);
    merge_into(result.by_wmin, scenario.wmin);
    merge_into(result.by_tasks, scenario.tasks);
    merge_into(result.by_ncom, scenario.ncom);
    result.by_checkpoint.try_emplace(scenario.checkpoint, num_heuristics)
        .first->second.merge(local);
}

} // namespace volsched::exp
