// rwbench: end-to-end benchmark of RewindDB's writers, point-in-time
// investigations, restart and hot-row collisions.
//
//   rwbench --workload oltp|pitr|hot_rows --seed N --seconds S
//           --trace 0|1 --dir RUN_DIR [--trace-out FILE] [--quick]
//
// Prints one JSON object as the last line of standard output:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Exits 0 only when every check passed. See README.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "workloads.h"

extern char** environ;

namespace {

/// The program under test is the default build: no REWINDDB_* switch
/// from the caller's environment may change the options the engine
/// reads at construction.
void ScrubEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; e++) {
    const char* eq = std::strchr(*e, '=');
    std::string name = eq ? std::string(*e, eq - *e) : std::string(*e);
    if (name.rfind("REWINDDB_", 0) == 0) names.push_back(name);
  }
  for (const std::string& n : names) unsetenv(n.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: rwbench --workload oltp|pitr|hot_rows --seed N "
               "--seconds S --trace 0|1 --dir RUN_DIR [--trace-out FILE] "
               "[--quick]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = rwbench::SteadyClock::now();
  ScrubEnvironment();

  std::string workload, dir, trace_out;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false, quick = false;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--workload") {
      workload = next();
    } else if (a == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(next(), nullptr);
    } else if (a == "--trace") {
      trace = std::strcmp(next(), "0") != 0;
    } else if (a == "--dir") {
      dir = next();
    } else if (a == "--trace-out") {
      trace_out = next();
    } else if (a == "--quick") {
      quick = true;
    } else {
      return Usage();
    }
  }
  if (workload.empty() || dir.empty() || !(seconds > 0)) return Usage();

  const rwbench::Config cfg =
      quick ? rwbench::Config::Quick() : rwbench::Config();
  const rwbench::RunResult r = rwbench::RunWorkload(
      workload, cfg, dir, seconds, seed, trace, trace_out, process_start);

  bool finite = true;
  std::string metrics;
  for (const rwbench::Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) finite = false;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    metrics += buf;
  }
  const bool correct = r.correct && finite;
  if (!r.error.empty()) {
    std::fprintf(stderr, "%s: %s\n", workload.c_str(), r.error.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted > 0 ? r.attempted : 1),
      static_cast<unsigned long long>(r.failed), metrics.c_str());
  return correct ? 0 : 1;
}
