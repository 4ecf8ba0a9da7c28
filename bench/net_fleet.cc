// Mixed-fleet network benchmark: N order-entry writers and M
// investigator sessions hammer one rewinddb server over real TCP
// (loopback), exactly as the multi-user front end deploys. Reported:
//
//   * tpmC-style throughput (committed order transactions per minute),
//   * p50 / p99 client-observed transaction latency,
//   * rejected connections when a probe fleet exceeds max_connections,
//   * an engine_stats JSON line (shared with the other benches), and
//   * proof that session teardown released every snapshot anchor.
//
// Unlike the figure benches this one runs on the real clock: the
// workload is network-bound and multi-threaded, so simulated IO time
// would measure nothing useful.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "client/client.h"
#include "server/server.h"

namespace rewinddb {
namespace bench {
namespace {

uint64_t NowRealMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

uint64_t SteadyMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t Percentile(std::vector<uint64_t>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v->size() - 1));
  return (*v)[idx];
}

struct Options {
  int writers = 4;
  int investigators = 2;
  int seconds = 5;
  int items = 64;
  uint32_t max_connections = 16;
};

/// Schema + seed over the wire, like any other client would.
Status Seed(uint16_t port, int items) {
  REWIND_ASSIGN_OR_RETURN(
      std::unique_ptr<client::Client> c,
      client::Client::Connect("127.0.0.1", port, "fleet-setup"));
  REWIND_RETURN_IF_ERROR(
      c->Execute("CREATE TABLE stock (i INT64, qty INT64, PRIMARY KEY (i))")
          .status());
  REWIND_RETURN_IF_ERROR(
      c->Execute("CREATE TABLE orders (w INT64, o INT64, amount DOUBLE, "
                 "PRIMARY KEY (w, o))")
          .status());
  REWIND_RETURN_IF_ERROR(c->Begin().status());
  for (int64_t i = 0; i < items; i++) {
    REWIND_RETURN_IF_ERROR(c->Insert("stock", {i, int64_t{100000}}));
  }
  return c->Commit(CommitMode::kSync);
}

/// The whole run against a fresh database under `dir`; returns the
/// process exit code.
int Run(const Options& opt, const std::string& dir) {
  auto conn = Connection::Create(dir + "/db");
  if (!conn.ok()) {
    fprintf(stderr, "create: %s\n", conn.status().ToString().c_str());
    return 1;
  }
  Database* db = (*conn)->engine();

  server::Server::Options so;
  so.max_connections = opt.max_connections;
  server::Server server(db, so);
  if (Status s = server.Start(); !s.ok()) {
    fprintf(stderr, "server: %s\n", s.ToString().c_str());
    return 1;
  }
  const uint16_t port = server.port();

  if (Status s = Seed(port, opt.items); !s.ok()) {
    fprintf(stderr, "setup: %s\n", s.ToString().c_str());
    return 1;
  }
  const size_t anchor_baseline = db->SnapshotAnchorCount();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> aborted{0};
  std::atomic<uint64_t> investigator_reads{0};
  std::atomic<uint64_t> rows_travelled{0};
  std::atomic<int> connect_failures{0};
  std::vector<std::vector<uint64_t>> latencies(
      static_cast<size_t>(opt.writers));

  std::vector<std::thread> fleet;
  for (int w = 0; w < opt.writers; w++) {
    fleet.emplace_back([&, w] {
      auto c = client::Client::Connect("127.0.0.1", port,
                                       "writer-" + std::to_string(w));
      if (!c.ok()) {
        connect_failures.fetch_add(1);
        return;
      }
      Random rnd(static_cast<uint64_t>(w) + 1);
      int64_t next_order = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t t0 = SteadyMicros();
        // One order: read-modify-write a few stock rows, insert the
        // order row, group-commit. The shape of TPC-C new-order, over
        // the wire.
        bool ok = (*c)->Begin().ok();
        for (int line = 0; ok && line < 3; line++) {
          int64_t item =
              static_cast<int64_t>(rnd.Next() % static_cast<uint64_t>(opt.items));
          auto row = (*c)->Get("stock", {item});
          if (!row.ok()) {
            ok = false;
            break;
          }
          int64_t qty = (*row)[1].AsInt64();
          ok = (*c)->Update("stock", {item, qty - 1}).ok();
        }
        if (ok) {
          ok = (*c)->Insert("orders", {int64_t{w}, next_order,
                                       0.01 * static_cast<double>(next_order)})
                   .ok();
        }
        if (ok && (*c)->Commit(CommitMode::kGroup).ok()) {
          committed.fetch_add(1);
          next_order++;
          latencies[static_cast<size_t>(w)].push_back(SteadyMicros() - t0);
        } else {
          (void)(*c)->Rollback();
          aborted.fetch_add(1);
        }
      }
    });
  }
  for (int v = 0; v < opt.investigators; v++) {
    fleet.emplace_back([&, v] {
      auto c = client::Client::Connect("127.0.0.1", port,
                                       "investigator-" + std::to_string(v));
      if (!c.ok()) {
        connect_failures.fetch_add(1);
        return;
      }
      Random rnd(1000 + static_cast<uint64_t>(v));
      while (!stop.load(std::memory_order_relaxed)) {
        uint64_t back = 200'000 + rnd.Next() % 1'800'000;  // 0.2s - 2s ago
        auto view = (*c)->AsOf(NowRealMicros() - back);
        if (!view.ok()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          continue;
        }
        auto scan = (*c)->Scan("orders", std::nullopt, std::nullopt,
                               /*limit=*/32, view->handle);
        if (scan.ok()) {
          rows_travelled.fetch_add(scan->rowset.rows.size());
        }
        auto count = (*c)->Count("orders", view->handle);
        (void)count;
        (void)(*c)->ReleaseView(view->handle);
        investigator_reads.fetch_add(1);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::seconds(opt.seconds));

  // Admission-control probe while the fleet still holds its slots:
  // connections beyond max_connections must be rejected with kBusy,
  // not hang and not crash the server.
  uint64_t rejected = 0;
  {
    std::vector<std::unique_ptr<client::Client>> hogs;
    for (uint32_t i = 0; i < opt.max_connections + 8; i++) {
      auto c = client::Client::Connect("127.0.0.1", port, "probe");
      if (c.ok()) {
        hogs.push_back(std::move(*c));
      } else if (c.status().IsBusy()) {
        rejected++;
      }
    }
  }

  stop.store(true);
  for (auto& th : fleet) th.join();

  const double minutes = static_cast<double>(opt.seconds) / 60.0;
  std::vector<uint64_t> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  const uint64_t p50 = Percentile(&all, 0.50);
  const uint64_t p99 = Percentile(&all, 0.99);
  const double tpmc = static_cast<double>(committed.load()) / minutes;

  // Teardown proof: every session died, so every AS OF handle it held
  // must have released its snapshot anchor.
  bool anchors_released = false;
  for (int i = 0; i < 500; i++) {
    if (db->SnapshotAnchorCount() == anchor_baseline) {
      anchors_released = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  server::Server::Stats ss = server.stats();
  printf("fleet: %d writers + %d investigators for %ds -> %llu commits "
         "(%.0f tpmC), %llu aborts, %llu time-travel reads\n",
         opt.writers, opt.investigators, opt.seconds,
         static_cast<unsigned long long>(committed.load()), tpmc,
         static_cast<unsigned long long>(aborted.load()),
         static_cast<unsigned long long>(investigator_reads.load()));
  printf("latency: p50 %llu us, p99 %llu us; admission: %llu rejected "
         "of %u over-capacity dials\n",
         static_cast<unsigned long long>(p50),
         static_cast<unsigned long long>(p99),
         static_cast<unsigned long long>(rejected),
         opt.max_connections + 8);
  printf("JSON {\"bench\":\"net_fleet\",\"writers\":%d,"
         "\"investigators\":%d,\"seconds\":%d,\"tpmc\":%.0f,"
         "\"committed\":%llu,\"aborted\":%llu,\"p50_us\":%llu,"
         "\"p99_us\":%llu,\"investigator_reads\":%llu,"
         "\"rows_travelled\":%llu,\"rejected_connections\":%llu,"
         "\"server_accepted\":%llu,\"server_rejected_busy\":%llu,"
         "\"server_frames\":%llu,\"frame_errors\":%llu,"
         "\"connect_failures\":%d,\"anchors_released\":%s}\n",
         opt.writers, opt.investigators, opt.seconds, tpmc,
         static_cast<unsigned long long>(committed.load()),
         static_cast<unsigned long long>(aborted.load()),
         static_cast<unsigned long long>(p50),
         static_cast<unsigned long long>(p99),
         static_cast<unsigned long long>(investigator_reads.load()),
         static_cast<unsigned long long>(rows_travelled.load()),
         static_cast<unsigned long long>(rejected),
         static_cast<unsigned long long>(ss.accepted),
         static_cast<unsigned long long>(ss.rejected_busy),
         static_cast<unsigned long long>(ss.frames),
         static_cast<unsigned long long>(ss.frame_errors),
         connect_failures.load(), anchors_released ? "true" : "false");
  PrintEngineStats(db);

  server.Stop();
  if (!anchors_released) {
    fprintf(stderr, "FAIL: snapshot anchors were not released\n");
    return 1;
  }
  if (committed.load() == 0 || rejected == 0) {
    fprintf(stderr, "FAIL: degenerate run (no commits or no rejections)\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace rewinddb

int main(int argc, char** argv) {
  rewinddb::bench::Options opt;
  for (int i = 1; i < argc; i++) {
    auto intflag = [&](const char* name, int* out) {
      size_t n = strlen(name);
      if (strncmp(argv[i], name, n) == 0 && argv[i][n] == '=') {
        *out = atoi(argv[i] + n + 1);
        return true;
      }
      return false;
    };
    int maxc = static_cast<int>(opt.max_connections);
    if (intflag("--writers", &opt.writers) ||
        intflag("--investigators", &opt.investigators) ||
        intflag("--seconds", &opt.seconds) ||
        intflag("--items", &opt.items)) {
      continue;
    }
    if (intflag("--max-connections", &maxc)) {
      opt.max_connections = static_cast<uint32_t>(maxc);
      continue;
    }
    fprintf(stderr,
            "usage: net_fleet [--writers=N] [--investigators=M] "
            "[--seconds=S] [--items=K] [--max-connections=C]\n");
    return 2;
  }
  // BenchDir clears the directory only when a run starts, so remove it
  // here too, whichever way the run ended.
  const std::string dir = rewinddb::bench::BenchDir("net_fleet");
  const int rc = rewinddb::bench::Run(opt, dir);
  std::filesystem::remove_all(dir);
  return rc;
}
