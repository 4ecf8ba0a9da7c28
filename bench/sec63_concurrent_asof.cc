// Section 6.3: impact of concurrent as-of queries on the running TPC-C
// workload.
//
// Paper result: running an as-of query loop (5 minutes back) alongside
// the benchmark reduced throughput from 270k to 180k tpmC (~33%), while
// snapshots were created in ~20 s and the as-of stock-level ran in
// ~30 s on average. This is a real-time experiment: throughput numbers
// are hardware-bound; the reproduction target is the relative drop and
// that concurrent snapshots/queries keep succeeding.
//
// On top of the paper's experiment, the concurrent phase runs twice:
// once with the shared version store disabled (every snapshot repeats
// the per-page chain walks -- the paper's behaviour) and once with it
// enabled (snapshots at nearby times reuse each other's rewinds), so
// the cache-on vs cache-off delta in as-of latency and undo work is
// visible in one run.
#include <atomic>
#include <chrono>
#include <thread>

#include "bench_common.h"

namespace {

using namespace rewinddb;
using namespace rewinddb::bench;

struct AsOfPhase {
  uint64_t snapshots_ok = 0;
  uint64_t queries_ok = 0;
  uint64_t create_micros = 0;
  uint64_t query_micros = 0;
  /// Background sweep totals across all snapshots of the phase
  /// (analysis scan / the whole sweep).
  uint64_t analysis_micros = 0;
  uint64_t undo_micros = 0;
  /// Per-cycle split: the first investigator of an incident time pays
  /// the full chain walks; with the store on, the second reuses them.
  uint64_t first_records_undone = 0;
  uint64_t second_records_undone = 0;
  /// Pages recovered on first access across all snapshots.
  uint64_t pages_on_demand = 0;
  double tpmc = 0;
  VersionStore::Stats vs;
};

/// Run the fixed TPC-C work probe while an as-of loop investigates
/// incident times 2 seconds back. Each cycle mounts the SAME incident
/// time twice -- the paper's concurrent-as-of-queries scenario is
/// several clients inspecting one point in time, which is exactly what
/// the shared version store exists for.
AsOfPhase RunConcurrentPhase(Database* db, TpccDatabase* tpcc,
                             int new_orders, uint64_t seed,
                             const char* tag) {
  AsOfPhase out;
  VersionStore::Stats vs0 = db->version_store()->stats();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> snapshots_ok{0}, queries_ok{0};
  std::atomic<uint64_t> create_micros{0}, query_micros{0};
  std::atomic<uint64_t> analysis_micros{0}, undo_micros{0};
  std::atomic<uint64_t> pages_on_demand{0};
  std::atomic<uint64_t> undone_by_rep[2] = {};
  std::thread asof_loop([&] {
    int n = 0;
    while (!stop.load()) {
      // Pace the loop like the paper's (one create+query cycle at a
      // time, not a tight checkpoint storm).
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (stop.load()) break;
      WallClock target = db->clock()->NowMicros() - 2'000'000;
      for (int rep = 0; rep < 2 && !stop.load(); rep++) {
        auto t0 = std::chrono::steady_clock::now();
        auto snap = AsOfSnapshot::Create(
            db, std::string(tag) + std::to_string(n++), target);
        // A failed investigator aborts the cycle: letting rep 1 run
        // after a failed rep 0 would book a cold full walk into the
        // "second investigator" bucket.
        if (!snap.ok()) break;
        auto t1 = std::chrono::steady_clock::now();
        snapshots_ok.fetch_add(1);
        create_micros.fetch_add(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
                .count()));
        // The investigator queries at once: the first query pays the
        // on-demand recovery of what it touches while the sweeper works.
        auto view = WrapSnapshot(snap->get());
        auto low = TpccDatabase::StockLevelOn(view.get(), 1, 1, 60);
        auto q1 = std::chrono::steady_clock::now();
        if (!low.ok()) break;
        queries_ok.fetch_add(1);
        query_micros.fetch_add(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(q1 - t1)
                .count()));
        // Records undone is read after the sweep, so it counts the
        // query's page rewinds and the sweeper's loser undo alike.
        if (!(*snap)->WaitForUndo().ok()) break;
        const auto cs = (*snap)->creation_stats();
        analysis_micros.fetch_add(cs.analysis_micros);
        undo_micros.fetch_add(cs.undo_micros);
        undone_by_rep[rep].fetch_add((*snap)->rewinder()->records_undone());
        pages_on_demand.fetch_add((*snap)->pages_recovered_on_demand());
      }
    }
  });
  out.tpmc = RunFixedWork(tpcc, new_orders, seed);
  stop.store(true);
  asof_loop.join();

  out.snapshots_ok = snapshots_ok.load();
  out.queries_ok = queries_ok.load();
  out.create_micros = create_micros.load();
  out.query_micros = query_micros.load();
  out.analysis_micros = analysis_micros.load();
  out.undo_micros = undo_micros.load();
  out.first_records_undone = undone_by_rep[0].load();
  out.second_records_undone = undone_by_rep[1].load();
  out.pages_on_demand = pages_on_demand.load();
  VersionStore::Stats vs1 = db->version_store()->stats();
  out.vs.exact_hits = vs1.exact_hits - vs0.exact_hits;
  out.vs.partial_hits = vs1.partial_hits - vs0.partial_hits;
  out.vs.misses = vs1.misses - vs0.misses;
  out.vs.published = vs1.published - vs0.published;
  out.vs.evictions = vs1.evictions - vs0.evictions;
  return out;
}

void PrintPhase(const char* name, const AsOfPhase& p) {
  printf("%-34s %12.0f tpmC\n",
         (std::string(name) + " throughput").c_str(), p.tpmc);
  printf("%-34s %12llu\n", "  snapshots created",
         static_cast<unsigned long long>(p.snapshots_ok));
  printf("%-34s %12llu\n", "  as-of stock-level queries",
         static_cast<unsigned long long>(p.queries_ok));
  if (p.snapshots_ok > 0) {
    printf("%-34s %12.1f ms\n", "  avg snapshot creation",
           static_cast<double>(p.create_micros) / 1000.0 /
               static_cast<double>(p.snapshots_ok));
  }
  if (p.queries_ok > 0) {
    printf("%-34s %12.1f ms\n", "  avg as-of stock-level",
           static_cast<double>(p.query_micros) / 1000.0 /
               static_cast<double>(p.queries_ok));
    printf("%-34s %12llu first, %llu second\n",
           "  records undone (per investigator)",
           static_cast<unsigned long long>(p.first_records_undone),
           static_cast<unsigned long long>(p.second_records_undone));
  }
  printf("%-34s %12llu\n", "  pages recovered on demand",
         static_cast<unsigned long long>(p.pages_on_demand));
  printf("%-34s %12llu exact, %llu partial, %llu published\n",
         "  version store",
         static_cast<unsigned long long>(p.vs.exact_hits),
         static_cast<unsigned long long>(p.vs.partial_hits),
         static_cast<unsigned long long>(p.vs.published));
}

void PrintJson(const char* phase, const AsOfPhase& p) {
  double snaps = p.snapshots_ok > 0
                     ? static_cast<double>(p.snapshots_ok)
                     : 1.0;
  printf("JSON {\"bench\":\"sec63\",\"phase\":\"%s\","
         "\"tpmc\":%.0f,"
         "\"snapshots\":%llu,\"queries\":%llu,\"avg_create_ms\":%.1f,"
         "\"avg_query_ms\":%.1f,\"analysis_ms\":%.1f,"
         "\"sweep_ms\":%.1f,"
         "\"first_records_undone\":%llu,"
         "\"second_records_undone\":%llu,"
         "\"pages_recovered_on_demand\":%llu,"
         "\"vs_exact_hits\":%llu,\"vs_partial_hits\":%llu,"
         "\"vs_published\":%llu,\"vs_evictions\":%llu}\n",
         phase, p.tpmc,
         static_cast<unsigned long long>(p.snapshots_ok),
         static_cast<unsigned long long>(p.queries_ok),
         p.snapshots_ok > 0 ? static_cast<double>(p.create_micros) / 1000.0 /
                                  static_cast<double>(p.snapshots_ok)
                            : 0.0,
         p.queries_ok > 0 ? static_cast<double>(p.query_micros) / 1000.0 /
                                static_cast<double>(p.queries_ok)
                          : 0.0,
         static_cast<double>(p.analysis_micros) / 1000.0 / snaps,
         static_cast<double>(p.undo_micros) / 1000.0 / snaps,
         static_cast<unsigned long long>(p.first_records_undone),
         static_cast<unsigned long long>(p.second_records_undone),
         static_cast<unsigned long long>(p.pages_on_demand),
         static_cast<unsigned long long>(p.vs.exact_hits),
         static_cast<unsigned long long>(p.vs.partial_hits),
         static_cast<unsigned long long>(p.vs.published),
         static_cast<unsigned long long>(p.vs.evictions));
}

}  // namespace

int main() {
  const std::string dir = BenchDir("sec63");
  DatabaseOptions opts;
  opts.buffer_pool_pages = 8192;
  opts.lock_timeout_micros = 300'000;
  opts.version_store_bytes = 64ull << 20;  // toggled per phase below
  auto db = Database::Create(dir, opts);
  if (!db.ok()) {
    printf("create failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  TpccConfig tc;
  tc.warehouses = 2;
  tc.items = 300;
  auto tpcc = TpccDatabase::CreateAndLoad(db->get(), tc);
  if (!tpcc.ok()) {
    printf("load failed: %s\n", tpcc.status().ToString().c_str());
    return 1;
  }

  PrintHeader("sec6.3: concurrent as-of queries vs TPC-C throughput",
              "270k -> 180k tpmC (~0.67x); snapshot create ~20 s; as-of "
              "stock-level ~30 s");

  // Warm-up so "2 seconds back" exists, then the first baseline probe.
  // A second baseline is measured AFTER the concurrent phases and the
  // two averaged, cancelling the drift from tables growing over time.
  (void)RunFixedWork(tpcc->get(), 500, 7);
  double baseline1 = RunFixedWork(tpcc->get(), 8000, 11);

  // Phase A -- the paper's scenario: no shared state between snapshots,
  // every as-of query repeats the chain walks.
  (*db)->version_store()->SetBudget(0);
  AsOfPhase off = RunConcurrentPhase(db->get(), tpcc->get(), 12000, 13,
                                     "off");

  // Phase B -- shared version store on: concurrent snapshots at nearby
  // times reuse each other's rewind work.
  (*db)->version_store()->SetBudget(64ull << 20);
  AsOfPhase on = RunConcurrentPhase(db->get(), tpcc->get(), 12000, 29,
                                    "on");

  double baseline2 = RunFixedWork(tpcc->get(), 8000, 17);
  double baseline_tpmc = (baseline1 + baseline2) / 2;

  printf("%-34s %12.0f tpmC (before: %.0f, after: %.0f)\n",
         "baseline throughput", baseline_tpmc, baseline1, baseline2);
  PrintPhase("store OFF, with as-of loop", off);
  PrintPhase("store ON,  with as-of loop", on);
  // The phases run in a fixed order against one growing database, so
  // the on-phase works on larger tables and a longer log than the
  // off-phase: the cross-phase tpmC/latency comparison is biased
  // AGAINST the store. The drift-free store metric is the within-phase
  // first-vs-second investigator split above.
  double ratio_off = baseline_tpmc > 0 ? off.tpmc / baseline_tpmc : 0;
  double ratio_on = baseline_tpmc > 0 ? on.tpmc / baseline_tpmc : 0;
  printf("%-34s %12.2fx   (paper: ~0.67x)\n", "throughput ratio (store off)",
         ratio_off);
  printf("%-34s %12.2fx   (runs second: biased low by db growth)\n",
         "throughput ratio (store on)", ratio_on);
  PrintJson("store_off", off);
  PrintJson("store_on", on);
  printf("\nexpected shape: throughput drops but stays within the same "
         "order of magnitude while as-of queries run continuously; with "
         "the version store on, as-of queries undo fewer records per "
         "query (exact/partial hits replace chain walks); "
         "avg_create_ms stays ~constant because a mount only searches "
         "the split\n");

  tpcc->reset();
  db->reset();
  std::filesystem::remove_all(dir);
  return 0;
}
