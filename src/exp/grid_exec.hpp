#pragma once
/// \file grid_exec.hpp
/// exp-internal (not part of the public API), implemented in
/// grid_exec.cpp: the one grid-execution path run_sweep and run_campaign
/// share — argument check, job runner and completion pipeline — and the
/// one shard reader resume, merge_shards and query_shards share.

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/dfb.hpp"
#include "exp/index_sink.hpp"
#include "exp/sink.hpp"
#include "exp/sweep.hpp"
#include "obs/registry.hpp"
#include "util/thread_pool.hpp"

namespace volsched::exp::detail {

/// Throws std::runtime_error("campaign: " + what).
[[noreturn]] void fail(const std::string& what);

/// The one validator of a grid's arguments, for run_sweep, run_campaign
/// and api::ExperimentBuilder alike.  Throws std::invalid_argument, before
/// any pool, job or heartbeat starts, unless there is at least one
/// heuristic and every heuristic spec resolves; the tasks, ncom and wmin
/// axes are non-empty and positive; p, scenarios per cell, trials,
/// iterations and max_slots are positive; the replica cap and checkpoint
/// cost are non-negative; the checkpoint axis is non-empty and every spec
/// on it resolves; and the tdata/tprog factors are finite and
/// non-negative.
void check_grid_args(const SweepConfig& cfg,
                     const std::vector<std::string>& heuristics);

/// One finished grid job: its local table (trials added in order) and its
/// records in trial order (none unless run_grid_job was asked for them).
struct JobOutcome {
    DfbTable local;
    std::vector<InstanceRecord> records;
};

/// Runs one grid job: realizes the scenario and runs every trial (seeded
/// from the master seed, the job's seed ordinal and the trial index) under
/// every heuristic.  Records are built only when `with_records` is set
/// (a campaign always; a sweep only for its record hook).  Each finished
/// instance bumps `instances_done` and is reported through cfg.progress
/// as (done, instances_total).
JobOutcome run_grid_job(const SweepConfig& cfg,
                        const std::vector<std::string>& heuristics,
                        const GridJob& job, bool with_records,
                        std::atomic<long long>& instances_done,
                        long long instances_total);

/// Pipeline occupancy, moved by deltas as jobs pass through.  The atomics
/// feed the campaign heartbeat; the gauges, when set, are the registry's
/// campaign.* gauges (shared by parallel shards, hence deltas).
struct PipelineOccupancy {
    std::atomic<long long> queue_depth{0}; ///< finished, not yet emitted
    std::atomic<long long> emitter_lag{0}; ///< submitted, not yet emitted
    obs::Gauge* queue_gauge = nullptr;
    obs::Gauge* lag_gauge = nullptr;
    obs::Gauge* window_gauge = nullptr;
};

/// The completion pipeline: runs jobs [first, end) on `pool` with at most
/// `window` jobs in flight or finished-but-unemitted, and hands each
/// outcome to `emit` on the calling thread strictly in job order.  The
/// first failure (of a job or of `emit`) stops submission and is rethrown
/// once every submitted job has stopped, with `occupancy` moved back to
/// zero.  `occupancy` is moved as jobs
/// pass through when set (the campaign's); a sweep passes nullptr.
void run_pipeline(util::ThreadPool& pool, long long first, long long end,
                  long long window,
                  const std::function<JobOutcome(long long job)>& run_job,
                  const std::function<void(long long job, JobOutcome&)>& emit,
                  PipelineOccupancy* occupancy);

/// One shard's JSONL file opened for reading: the header parsed on open
/// (callers compare header().fingerprint themselves), then the records
/// streamed one line at a time — O(1) record memory for resume, merge and
/// index rebuilds — with each record line's byte offset tracked.
class ShardStream {
public:
    /// Throws std::runtime_error when the file cannot be opened or its
    /// header is missing or invalid.
    explicit ShardStream(const std::filesystem::path& jsonl_file);

    [[nodiscard]] const CampaignHeader& header() const noexcept {
        return header_;
    }
    [[nodiscard]] const std::filesystem::path& path() const noexcept {
        return path_;
    }
    /// Byte offset of the line the most recent next() returned.
    [[nodiscard]] std::uint64_t record_offset() const noexcept {
        return record_offset_;
    }

    /// Next record, or std::nullopt at end of stream; throws
    /// std::runtime_error on a malformed (torn) line.
    std::optional<InstanceRecord> next();

    /// The per-job read step of both resume and merge: pulls `job`'s
    /// trials off the stream, checks that each record is the one the grid
    /// expects there (ordinal and trial, seed, checkpoint policy, makespan
    /// count), and reduces them through merge_job_tables.  `context`
    /// ("resume", "merge") prefixes failures; `index`, when set, receives
    /// every record's byte offset.
    void reduce_job(const GridJob& job, int trials, SweepResult& tables,
                    const std::string& context, IndexSink* index);

    /// The indexed read: the line starting at byte `offset`, or false past
    /// the end.  Not to be mixed with next().
    bool read_line_at(std::uint64_t offset, std::string& line);

private:
    std::filesystem::path path_;
    std::ifstream in_;
    CampaignHeader header_;
    std::uint64_t offset_ = 0; ///< of the next unread line
    std::uint64_t record_offset_ = 0;
};

/// Opens a complete shard set, parsing each header once: fingerprints and
/// shard counts must agree, and each shard index must appear exactly once.
/// Returns the shards in shard-index order; failures throw
/// std::runtime_error prefixed with `context` ("campaign: merge").
std::vector<ShardStream>
open_shard_set(const std::vector<std::filesystem::path>& jsonl_files,
               const std::string& context);

} // namespace volsched::exp::detail
