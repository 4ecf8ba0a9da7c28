// Figure 11: estimated number of undo log IOs performed while bringing
// the pages touched by the as-of query back in time.
//
// Paper result: the count grows roughly linearly with the distance back
// (each modification of a touched page costs one log fetch unless a
// full page image lets the walk skip a region).
//
// The figure counts the chain walks from each touched page's current
// image, so the history here logs no periodic page images: a mount
// then builds no page log index (its entries would be those images),
// and every page the query touches is walked back from "now". Each
// query runs after its mount's background sweep, on a cold log cache,
// so the count is the query's own. With periodic images (fpi_period
// 16) a swept mount's index enters each chain at its nearest
// post-split image and the count stays in the tens at every distance
// (docs/BENCHMARKS.md).
#include "bench_common.h"

int main() {
  using namespace rewinddb;
  using namespace rewinddb::bench;

  HistoryOptions ho;
  ho.data_media = MediaProfile::Sas();
  ho.log_media = MediaProfile::Sas();
  ho.fpi_period = 0;
  auto history = BuildHistory("fig11_hist", ho);
  if (!history.ok()) {
    printf("history build failed: %s\n", history.status().ToString().c_str());
    return 1;
  }
  History* h = history->get();

  PrintHeader("fig11: undo log IOs during the as-of stock-level query",
              "undo IO count grows ~linearly with minutes back");
  printf("%-12s %14s %16s\n", "minutes back", "undo log IOs",
         "records undone");
  const int sweeps[] = {1, 2, 5, 10, 20, 40};
  int i = 0;
  for (int t : sweeps) {
    auto asof = MeasureAsOf(h, t, "io" + std::to_string(i++),
                            /*sweep_first=*/true);
    if (!asof.ok()) {
      printf("as-of failed: %s\n", asof.status().ToString().c_str());
      return 1;
    }
    printf("%-12d %14llu %16llu\n", t,
           static_cast<unsigned long long>(asof->undo_log_ios),
           static_cast<unsigned long long>(asof->records_undone));
  }
  printf("\nexpected shape: monotone growth in undo IOs with minutes "
         "back\n");
  return 0;
}
