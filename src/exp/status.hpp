#pragma once
/// \file status.hpp
/// Campaign heartbeat: a small, atomically-replaced `status.json` each
/// shard keeps up to date while it runs, so `volsched_campaign status` (or
/// any observer: a dashboard, a shell loop, another process) can read live
/// progress without touching the shard's data files.
///
/// Atomicity contract: the file is written with util::write_file_atomic
/// (write-to-temp, fsync, rename), so a reader sees either a complete old
/// heartbeat or a complete new one — never a torn JSON.  read_status treats
/// a missing, unreadable, or unparsable file as "no heartbeat" (nullopt),
/// not an error, because a shard killed between rename and exit leaves
/// whatever was last durable.
///
/// Everything in a heartbeat is operational (progress counts, pipeline
/// occupancy, wall-clock stage timings from obs/stopwatch); nothing here
/// feeds results — the determinism rulebook's observer-only contract
/// (ARCHITECTURE.md, "How tracing preserves determinism").

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>

namespace volsched::exp {

/// Aggregate of one pipeline stage's wall-clock samples (microseconds), a
/// flat projection of the obs::Histogram the stage records into.
struct StageStats {
    long long count = 0;
    long long total_us = 0;
    long long max_us = 0;
};

/// One shard's heartbeat.
struct ShardStatus {
    int shard = 0;  ///< this shard's index
    int shards = 1; ///< total shards in the campaign
    long long jobs_done = 0;
    long long jobs_total = 0;
    long long instances_done = 0;
    /// Completion-pipeline occupancy at write time.
    long long queue_depth = 0; ///< completed jobs waiting for the emitter
    long long emitter_lag = 0; ///< submitted - emitted (in-flight + queued)
    long long window = 0;      ///< run-ahead window size (max emitter lag)
    /// "running" while the shard works, "done" after its final flush,
    /// "stopped" after a deliberate early stop, "failed" when a job or the
    /// emitter threw.
    std::string state = "running";
    /// Why the shard failed (the exception's message); empty otherwise,
    /// and then left out of the JSON.
    std::string message;
    /// Per-stage wall-time aggregates (microseconds).
    StageStats run;       ///< simulation of one job on a worker
    StageStats serialize; ///< rendering a job's records to bytes
    StageStats fsync;     ///< checkpoint flush (jsonl/csv/index/manifest)
};

/// The heartbeat's filename inside a shard directory.
[[nodiscard]] std::filesystem::path status_path(
    const std::filesystem::path& shard_dir);

/// Renders `s` as one stable-field-order JSON object (no trailing newline).
[[nodiscard]] std::string status_to_json(const ShardStatus& s);

/// Atomically replaces the shard's status.json.  Throws std::runtime_error
/// on IO failure (same contract as util::write_file_atomic).
void write_status(const std::filesystem::path& shard_dir,
                  const ShardStatus& s);

/// Reads a shard's heartbeat; nullopt when the file is missing or does not
/// parse as a complete heartbeat (a crashed writer's leftovers never make
/// the reader fail).
[[nodiscard]] std::optional<ShardStatus> read_status(
    const std::filesystem::path& shard_dir);

} // namespace volsched::exp
