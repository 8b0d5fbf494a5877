#include "exp/grid_exec.hpp"

#include <cmath>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <stdexcept>

#include "api/registry.hpp"
#include "ckpt/registry.hpp"
#include "util/rng.hpp"

namespace volsched::exp::detail {

void fail(const std::string& what) {
    throw std::runtime_error("campaign: " + what);
}

// ---------------------------------------------------------------------------
// Grid execution
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void reject(const std::string& what) {
    throw std::invalid_argument("grid: " + what);
}

void require_positive(const char* what, long long value) {
    if (value <= 0)
        reject(std::string(what) + " must be positive, got " +
               std::to_string(value));
}

void require_axis(const char* what, const std::vector<int>& values) {
    if (values.empty()) reject(std::string(what) + " axis is empty");
    for (const int v : values)
        if (v <= 0)
            reject(std::string(what) +
                   " axis contains the non-positive value " +
                   std::to_string(v));
}

} // namespace

void check_grid_args(const SweepConfig& cfg,
                     const std::vector<std::string>& heuristics) {
    // A typo fails here with the registry's did-you-mean message instead of
    // throwing mid-grid on a worker thread.
    if (heuristics.empty())
        reject("no heuristics; name at least one scheduler spec");
    for (const auto& name : heuristics)
        api::SchedulerRegistry::instance().validate(name);
    require_axis("tasks", cfg.tasks_values);
    require_axis("ncom", cfg.ncom_values);
    require_axis("wmin", cfg.wmin_values);
    require_positive("processors", cfg.p);
    require_positive("scenarios_per_cell", cfg.scenarios_per_cell);
    require_positive("trials", cfg.trials_per_scenario);
    require_positive("iterations", cfg.run.iterations);
    require_positive("max_slots", cfg.run.max_slots);
    if (cfg.run.replica_cap < 0) reject("replica_cap is negative");
    if (cfg.run.checkpoint_cost < 0) reject("checkpoint_cost is negative");
    if (cfg.checkpoint_values.empty())
        reject("checkpoint axis is empty; give at least one policy spec "
               "(\"none\" is the paper's model)");
    for (const auto& spec : cfg.checkpoint_values)
        ckpt::CheckpointRegistry::instance().validate(spec);
    // isfinite also rejects NaN, which every < comparison would wave
    // through — and which would poison the JSONL campaign headers.
    if (!std::isfinite(cfg.tdata_factor) || cfg.tdata_factor < 0 ||
        !std::isfinite(cfg.tprog_factor) || cfg.tprog_factor < 0)
        reject("tdata/tprog factors must be finite and non-negative");
}

JobOutcome run_grid_job(const SweepConfig& cfg,
                        const std::vector<std::string>& heuristics,
                        const GridJob& job, bool with_records,
                        std::atomic<long long>& instances_done,
                        long long instances_total) {
    JobOutcome out{DfbTable(heuristics.size()), {}};
    const RealizedScenario rs = realize(job.scenario);
    if (with_records)
        out.records.reserve(static_cast<std::size_t>(cfg.trials_per_scenario));
    for (int trial = 0; trial < cfg.trials_per_scenario; ++trial) {
        const std::uint64_t trial_seed =
            util::mix_seed(cfg.master_seed, 0x54524cULL, job.seed_ordinal,
                           static_cast<std::uint64_t>(trial));
        auto outcome = run_instance(rs, job.scenario.tasks, heuristics,
                                    cfg.run, trial_seed,
                                    job.scenario.checkpoint);
        out.local.add_instance(outcome.makespans);
        if (with_records) {
            InstanceRecord rec;
            rec.scenario_ordinal = job.ordinal;
            rec.trial = trial;
            rec.scenario = job.scenario;
            rec.makespans = std::move(outcome.makespans);
            out.records.push_back(std::move(rec));
        }
        const long long done = ++instances_done;
        if (cfg.progress) cfg.progress(done, instances_total);
    }
    return out;
}

void run_pipeline(util::ThreadPool& pool, long long first, long long end,
                  long long window,
                  const std::function<JobOutcome(long long job)>& run_job,
                  const std::function<void(long long job, JobOutcome&)>& emit,
                  PipelineOccupancy* occupancy) {
    // Workers pull jobs from a shared cursor (`next_submit`, advanced under
    // `mu` as the emitter frees window slots) and deposit finished outcomes
    // keyed by job position; the calling thread is the emitter, draining
    // deposits strictly in job order — so compute overlaps the emitter's
    // I/O, a checkpoint's fsync stalls nobody, and a straggler delays only
    // emission, not the pool.  The window bounds peak buffered records.
    PipelineOccupancy unobserved; // a sweep's: moved, never read
    PipelineOccupancy& occ = occupancy ? *occupancy : unobserved;
    auto move_gauge = [](std::atomic<long long>& shadow, obs::Gauge* gauge,
                         long long delta) {
        shadow.fetch_add(delta, std::memory_order_relaxed);
        if (gauge) gauge->add(delta);
    };
    if (occ.window_gauge) occ.window_gauge->add(window);

    std::mutex mu;
    std::condition_variable cv;
    std::map<long long, JobOutcome> ready;
    std::exception_ptr first_error;
    long long in_flight = 0;
    long long next_submit = first;
    long long released = first; ///< jobs whose lag the emitter released

    // Caller holds `mu`.  Tasks capture this stack frame by reference,
    // which is why every exit path below drains `in_flight` to zero
    // before unwinding.
    auto submit_upto_window = [&](long long emitted) {
        while (next_submit < end && !first_error &&
               next_submit - emitted < window) {
            const long long j = next_submit++;
            ++in_flight;
            move_gauge(occ.emitter_lag, occ.lag_gauge, 1);
            pool.submit([&, j] {
                // notify_all happens *under* `mu`: the emitter destroys
                // `cv` (by unwinding this stack frame) the moment it
                // observes in_flight == 0, and it cannot observe that
                // until the lock is released — after the notify call
                // has fully returned.
                try {
                    JobOutcome out = run_job(j);
                    std::lock_guard lock(mu);
                    ready.emplace(j, std::move(out));
                    --in_flight;
                    move_gauge(occ.queue_depth, occ.queue_gauge, 1);
                    cv.notify_all();
                } catch (...) {
                    std::lock_guard lock(mu);
                    if (!first_error)
                        first_error = std::current_exception();
                    --in_flight;
                    cv.notify_all();
                }
            });
        }
    };

    try {
        {
            std::unique_lock lock(mu);
            submit_upto_window(first);
        }
        for (long long j = first; j < end; ++j) {
            std::optional<JobOutcome> out;
            {
                std::unique_lock lock(mu);
                cv.wait(lock,
                        [&] { return first_error || ready.contains(j); });
                if (first_error) break;
                auto node = ready.extract(j);
                out.emplace(std::move(node.mapped()));
                move_gauge(occ.queue_depth, occ.queue_gauge, -1);
                submit_upto_window(j + 1);
            }
            move_gauge(occ.emitter_lag, occ.lag_gauge, -1);
            ++released;
            emit(j, *out);
        }
    } catch (...) {
        std::lock_guard lock(mu);
        if (!first_error) first_error = std::current_exception();
    }
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return in_flight == 0; });
    if (occ.window_gauge) occ.window_gauge->add(-window);
    if (first_error) {
        // Submitted jobs that will never be emitted leave the lag, and
        // finished ones the queue, so a failed pipeline reads empty too.
        move_gauge(occ.emitter_lag, occ.lag_gauge, -(next_submit - released));
        move_gauge(occ.queue_depth, occ.queue_gauge,
                   -static_cast<long long>(ready.size()));
        std::rethrow_exception(first_error);
    }
}

// ---------------------------------------------------------------------------
// Shard reader
// ---------------------------------------------------------------------------


ShardStream::ShardStream(const std::filesystem::path& jsonl_file)
    : path_(jsonl_file), in_(jsonl_file) {
    if (!in_) fail("cannot open '" + path_.string() + "'");
    std::string line;
    if (!std::getline(in_, line)) fail("'" + path_.string() + "' is empty");
    offset_ = line.size() + 1;
    try {
        header_ = parse_campaign_header(line);
    } catch (const std::invalid_argument& e) {
        fail("'" + path_.string() + "': " + e.what());
    }
}

std::optional<InstanceRecord> ShardStream::next() {
    std::string line;
    while (std::getline(in_, line)) {
        const std::uint64_t at = offset_;
        offset_ += line.size() + 1;
        if (line.empty()) continue;
        try {
            InstanceRecord rec = JsonlSink::parse_record(line);
            record_offset_ = at;
            return rec;
        } catch (const std::invalid_argument& e) {
            fail("'" + path_.string() + "' holds a malformed record (" +
                 e.what() +
                 "); was the shard killed without a checkpoint? resume it "
                 "to self-heal, or delete the torn tail");
        }
    }
    return std::nullopt;
}

void ShardStream::reduce_job(const GridJob& job, int trials,
                                     SweepResult& tables,
                                     const std::string& context,
                                     IndexSink* index) {
    const std::string at = context + ": ordinal " + std::to_string(job.ordinal);
    const std::size_t num_heuristics = tables.heuristics.size();
    DfbTable local(num_heuristics);
    for (int t = 0; t < trials; ++t) {
        auto rec = next();
        if (!rec)
            fail(context + ": '" + path_.string() +
                 "' ran out of records at scenario ordinal " +
                 std::to_string(job.ordinal) + " trial " + std::to_string(t) +
                 " (incomplete shard, or fewer records than its manifest "
                 "checkpointed?)");
        if (rec->scenario_ordinal != job.ordinal || rec->trial != t)
            fail(context + ": '" + path_.string() + "' yields (ordinal " +
                 std::to_string(rec->scenario_ordinal) + ", trial " +
                 std::to_string(rec->trial) + ") where (ordinal " +
                 std::to_string(job.ordinal) + ", trial " + std::to_string(t) +
                 ") was expected (duplicate, missing, or out-of-order "
                 "record?)");
        if (rec->scenario.seed != job.scenario.seed)
            fail(at + " carries seed " + std::to_string(rec->scenario.seed) +
                 " but the grid expects " + std::to_string(job.scenario.seed) +
                 " (records from a different campaign?)");
        if (rec->scenario.checkpoint != job.scenario.checkpoint)
            fail(at + " carries checkpoint policy '" +
                 rec->scenario.checkpoint + "' but the grid expects '" +
                 job.scenario.checkpoint + "'");
        if (rec->makespans.size() != num_heuristics)
            fail(at + " has " + std::to_string(rec->makespans.size()) +
                 " makespans, expected " + std::to_string(num_heuristics));
        if (index) index->add(rec->scenario_ordinal, rec->trial, record_offset_);
        local.add_instance(rec->makespans);
    }
    merge_job_tables(tables, job.scenario, local);
}

bool ShardStream::read_line_at(std::uint64_t offset,
                                       std::string& line) {
    in_.clear();
    in_.seekg(static_cast<std::streamoff>(offset));
    return static_cast<bool>(std::getline(in_, line));
}

std::vector<ShardStream>
open_shard_set(const std::vector<std::filesystem::path>& jsonl_files,
               const std::string& context) {
    const auto error = [&](const std::string& what) {
        return std::runtime_error(context + ": " + what);
    };
    if (jsonl_files.empty()) throw error("no shard files");
    // parse_campaign_header already bounds each index by its shard count.
    std::vector<std::optional<ShardStream>> by_shard;
    std::uint64_t fingerprint = 0;
    for (const auto& file : jsonl_files) {
        ShardStream shard(file);
        const CampaignHeader& h = shard.header();
        if (by_shard.empty()) {
            by_shard.resize(static_cast<std::size_t>(h.shard_count));
            fingerprint = h.fingerprint;
        }
        if (h.fingerprint != fingerprint)
            throw error("'" + file.string() +
                        "' belongs to a different campaign (fingerprint "
                        "mismatch)");
        if (static_cast<std::size_t>(h.shard_count) != by_shard.size())
            throw error("'" + file.string() +
                        "' disagrees on the shard count");
        auto& slot = by_shard[static_cast<std::size_t>(h.shard_index - 1)];
        if (slot)
            throw error("shard " + std::to_string(h.shard_index) +
                        " appears twice");
        slot.emplace(std::move(shard));
    }
    std::vector<ShardStream> shards;
    shards.reserve(by_shard.size());
    for (std::size_t k = 0; k < by_shard.size(); ++k) {
        if (!by_shard[k])
            throw error("shard " + std::to_string(k + 1) + " of " +
                        std::to_string(by_shard.size()) + " is missing");
        shards.push_back(std::move(*by_shard[k]));
    }
    return shards;
}

} // namespace volsched::exp::detail
