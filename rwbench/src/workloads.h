// The three workloads (oltp, pitr, hot_rows) and what a run reports.
#ifndef RWBENCH_WORKLOADS_H_
#define RWBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "tpcc_ops.h"

namespace rwbench {

/// Sizes of one run. The defaults are what the benchmark measures;
/// Quick() shrinks every size so all three workloads and every check
/// finish in seconds.
struct Config {
  Shape shape;
  /// Simulated time per transaction (SimClock microseconds): 250
  /// transactions make one simulated minute.
  uint64_t sim_step_us = 240'000;
  /// oltp: each episode loads a fresh database and runs this many
  /// transactions through one writer, which keeps the data inside the
  /// buffer pool; the episodes pool their samples.
  int oltp_episode_txns = 15'000;
  /// oltp: episodes per requested second of measurement.
  double oltp_episodes_per_second = 0.5;
  /// oltp: probe rounds and crash-and-reopen cycles after each
  /// episode's writer.
  int oltp_probe_rounds = 2;
  int oltp_restarts = 2;
  /// Single-writer transactions between fuzzy checkpoints. The last
  /// transaction before each checkpoint commits with the engine's
  /// default group commit, so the durable path is timed too.
  int checkpoint_every = 500;
  /// Single-writer transactions between recorded AS OF instants.
  int instant_every = 125;
  /// pitr: transactions of history built before the probes.
  int history_txns = 10'000;
  /// pitr: probe rounds per requested second of measurement.
  double pitr_rounds_per_second = 4;
  /// Probe targets, in transactions back from the end of the log when
  /// the round starts: recent = one to one and a half simulated
  /// minutes, deep = twenty to twenty-one.
  int recent_lo = 250;
  int recent_hi = 375;
  int deep_lo = 5'000;
  int deep_hi = 5'250;
  /// Writes after each probe round; they record instants too.
  int trickle_txns = 200;
  /// Follow-up and live SQL queries per probe.
  int followups = 4;
  /// pitr and hot_rows: crash-and-reopen cycles at the end.
  int restarts = 8;
  /// hot_rows: own-row transactions per writer per turn, hot rows.
  int hot_own_txns = 500;
  int hot_rows = 4;
  /// hot_rows: rounds per requested second of measurement.
  double hot_rounds_per_second = 0.8;
  /// hot_rows: delay between the two writers' updates of the hot row,
  /// so the same writer always waits first.
  int collision_stagger_ms = 50;

  static Config Quick();
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  bool correct = false;
  std::string error;  // first failed check or engine error
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Runs `workload` in `dir` (created, and removed on return) and
/// returns its end-to-end metrics, or with `trace` its per-layer ones.
/// `process_start` anchors setup_s. `trace_out` (traced runs only)
/// receives the spans.
RunResult RunWorkload(const std::string& workload, const Config& cfg,
                      const std::string& dir, double seconds, uint64_t seed,
                      bool trace, const std::string& trace_out,
                      SteadyClock::time_point process_start);

}  // namespace rwbench

#endif  // RWBENCH_WORKLOADS_H_
