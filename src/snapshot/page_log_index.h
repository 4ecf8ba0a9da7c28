// Per-page log index for AS OF mounts (following the REDO-only /
// single-page-repair line of Sauer & Haerder).
//
// A mount recovers each page on first access by rewinding it from
// a current image back to the SplitLSN. Without help, that walk starts
// at the page's NEWEST modification and undoes every record between
// "now" and the split -- work proportional to post-split churn, none of
// which the snapshot cares about. This index gives the rewind a direct
// entry point into the page's chain AT the split:
//
//   * for every page touched after the split, the oldest post-split
//     record (its prev_page_lsn is the page's exact LSN at the split);
//   * the oldest post-split full page image (kPreformat). Its payload
//     is the page content just BEFORE that record, i.e. the state at
//     its prev_page_lsn. When prev_page_lsn <= SplitLSN that image IS
//     the split-time page, with zero chain steps; otherwise the rewind
//     enters the chain there and undoes only (split, prev_page_lsn] --
//     it never scans the unrelated post-split log.
//
// The index is built by the mount's background sweeper from one
// forward scan of (SplitLSN, mount LSN], chunked along the metadata the
// bounded-log steady state (PR 5) already maintains: the checkpoint
// directory supplies the scan bounds and the archive tier's sealed
// segment boundaries [first_lsn, last_lsn) chunk the scan when the
// split lives in archived history. Lookups are sound BEFORE the build
// completes: the scan runs forward, so an entry, once written, already
// holds the oldest qualifying record/image for its page. Absence of an
// entry proves nothing (the build may not have reached the page, and
// the primary keeps writing past the mount LSN), so readers only ever
// act on positive hits and otherwise fall back to the full rewind.
#ifndef REWINDDB_SNAPSHOT_PAGE_LOG_INDEX_H_
#define REWINDDB_SNAPSHOT_PAGE_LOG_INDEX_H_

#include <atomic>
#include <optional>
#include <shared_mutex>
#include <unordered_map>

#include "common/clock.h"
#include "common/result.h"
#include "common/types.h"
#include "wal/wal.h"

namespace rewinddb {

class PageLogIndex {
 public:
  struct Entry {
    /// Oldest record with LSN > split that modified the page; its
    /// prev_page_lsn is the page's exact LSN at the split point.
    Lsn first_post_split_lsn = kInvalidLsn;
    Lsn page_lsn_at_split = kInvalidLsn;
    /// Oldest post-split full page image (kPreformat) for the page,
    /// plus the chain pointers a rewind entering there needs.
    Lsn fpi_lsn = kInvalidLsn;
    Lsn fpi_prev_page_lsn = kInvalidLsn;
    Lsn fpi_prev_fpi_lsn = kInvalidLsn;
  };

  struct Stats {
    uint64_t pages_indexed = 0;
    uint64_t fpi_entries = 0;
    uint64_t records_scanned = 0;
    /// Archive segments the build scan crossed (the split lived in
    /// archived history); 0 when the whole window was active log.
    uint64_t archive_segments_crossed = 0;
    uint64_t build_micros = 0;
  };

  explicit PageLogIndex(Lsn split_lsn) : split_lsn_(split_lsn) {}

  /// One forward scan of (split, upto]; safe to run while Lookup is
  /// being called from query threads. `clock` charges build_micros.
  Status Build(wal::Wal* log, Lsn upto, Clock* clock);

  /// Positive knowledge only: nullopt means "not (yet) known", never
  /// "untouched since the split".
  std::optional<Entry> Lookup(PageId id) const;

  bool complete() const { return complete_.load(std::memory_order_acquire); }
  Lsn split_lsn() const { return split_lsn_; }
  Stats stats() const;

 private:
  const Lsn split_lsn_;
  std::atomic<bool> complete_{false};

  mutable std::shared_mutex mu_;  // guards entries_ + stats_
  std::unordered_map<PageId, Entry> entries_;
  Stats stats_;
};

}  // namespace rewinddb

#endif  // REWINDDB_SNAPSHOT_PAGE_LOG_INDEX_H_
