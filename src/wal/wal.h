// The redesigned two-sided WAL surface (the log-side mirror of the
// api/ ReadView unification).
//
// Everything the system does with the transaction log goes through one
// of two handles:
//
//   * write side -- wal::Writer (one per transaction) stages encoded
//     records locally and publishes them in batches; commits declare a
//     CommitMode and, in the default kGroup mode, block on a
//     flushed-LSN waiter while a background flusher turns many
//     concurrent commits into one pwrite + one fdatasync (in the
//     spirit of pipelined multicore group commit);
//
//   * read side -- wal::Cursor (wal_cursor.h) is the only record-level
//     read API: forward scans with block prefetch, SeekTo(lsn), and
//     FollowPrev()/FollowPrevPage()/FollowPrevFpi()/FollowUndoNext()
//     chain navigation replace every bespoke ReadRecord loop.
//
// Wal itself owns the LogManager block/file/cache core and forwards
// its metadata surface (start/next/flushed LSN, checkpoint directory,
// truncation, cache control), so `db->log()` stays the one handle the
// engine, snapshot, backup and benchmark layers pass around.
#ifndef REWINDDB_WAL_WAL_H_
#define REWINDDB_WAL_WAL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "log/log_manager.h"
#include "wal/archive.h"
#include "wal/commit_mode.h"
#include "wal/wal_cursor.h"

namespace rewinddb {
namespace wal {

struct WalOptions {
  /// Log-block cache capacity in 32 KiB blocks (0 disables caching;
  /// reads then go straight to the file and retain nothing).
  size_t cache_blocks = 256;
  /// Tail size at which appends nudge the background flusher.
  size_t max_tail_bytes = 4 << 20;
  /// Tail size at which an appender flushes synchronously (bounds
  /// memory when the flusher cannot keep up).
  size_t hard_tail_bytes = 32 << 20;
  /// Straggler-polling cadence: while unflushed bytes exist the
  /// flusher re-flushes at this interval (covers records appended
  /// during an in-flight batch). A fully-flushed log parks the thread
  /// with no timer until the next nudge. 0 flushes only on demand
  /// (group waiters, backpressure, FlushTo/FlushAll); tests use 0 for
  /// deterministic crash loss.
  uint64_t flush_interval_micros = 2'000;
  /// Compress group-commit flush batches into self-describing frames
  /// (the WAL-diet write side; see LogManagerOptions::compression).
  /// Read-side support is unconditional, so flipping this between
  /// restarts is always safe.
  bool compression = false;
  /// Directory for the archive tier. Empty disables archiving:
  /// TruncateBefore then really drops history (the seed behaviour) and
  /// ArchiveUpTo is a no-op. Non-empty: the Wal owns an ArchiveManager
  /// there, reads below start_lsn() fall back to sealed segments, and
  /// truncation hole-punches the active file once the range is sealed.
  std::string archive_dir;
  /// Target payload bytes per sealed archive segment.
  uint64_t archive_segment_bytes = 4ull << 20;
};

/// Pipeline counters: the batch-size and fsync evidence the fig6 bench
/// reports, and what the commit-storm tests assert against.
struct WalStats {
  /// Flush batches written by any path (one fdatasync each).
  uint64_t fsyncs = 0;
  uint64_t flushed_bytes = 0;
  uint64_t max_batch_bytes = 0;
  /// Records published.
  uint64_t appends = 0;
  /// Commits that parked on the group-commit waiter.
  uint64_t group_commit_waits = 0;
  /// Commits by durability mode.
  uint64_t sync_commits = 0;
  uint64_t group_commits = 0;
  uint64_t async_commits = 0;
  uint64_t none_commits = 0;

  /// Per-record-kind histogram (indexed by LogType; the WAL-diet
  /// evidence for "where do the log bytes go"). Bytes are encoded
  /// (pre-compression, logical) sizes.
  static constexpr size_t kTypeSlots = 16;
  uint64_t record_counts[kTypeSlots] = {};
  uint64_t record_bytes[kTypeSlots] = {};

  /// FPI delta-encoding effectiveness: emits that rode the delta path
  /// vs full-image fallbacks (cache miss, chain too deep, window
  /// exceeded, or delta no smaller than the image).
  uint64_t fpi_delta_hits = 0;
  uint64_t fpi_delta_fallbacks = 0;

  /// Flush-batch compression evidence (mirrors LogFlushStats):
  /// frame_logical_bytes / frame_physical_bytes is the live ratio.
  uint64_t frames_written = 0;
  uint64_t frame_logical_bytes = 0;
  uint64_t frame_physical_bytes = 0;
};

class Writer;

/// Sparse (wall_clock, lsn) marker fed from commit records: the
/// SplitLSN search narrows its commit scan with these, so translating
/// an AS OF time into an LSN stays O(waypoint spacing) even when
/// checkpoints are rare (the O(1) mount create path depends on
/// this). In-memory only: after a restart the table repopulates from
/// new commits and from archive sealing; until then the search falls
/// back to checkpoint narrowing, which is correct but coarser.
struct CommitWaypoint {
  Lsn lsn = kInvalidLsn;
  WallClock wall_clock = 0;
};

class Wal {
 public:
  using Options = WalOptions;

  /// Create a fresh log at `path` and start the flusher.
  static Result<std::unique_ptr<Wal>> Create(const std::string& path,
                                             DiskModel* disk, IoStats* stats,
                                             Options opts = Options());

  /// Open an existing log (finds the durable end, rebuilds the
  /// checkpoint directory) and start the flusher.
  static Result<std::unique_ptr<Wal>> Open(const std::string& path,
                                           DiskModel* disk, IoStats* stats,
                                           Options opts = Options());

  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // --------------------------- write side ----------------------------

  /// Per-transaction staging handle. Cheap; embed one per transaction.
  Writer MakeWriter();

  /// One-off append outside any transaction (checkpoint records,
  /// recovery bookkeeping). Returns the record's LSN; does not flush.
  Lsn Append(const LogRecord& rec);

  /// Make the commit record at `lsn` durable per `mode`:
  /// kSync flushes in this thread, kGroup parks on the flusher's next
  /// batch, kAsync nudges the flusher, kNone returns immediately.
  Status WaitCommit(Lsn lsn, CommitMode mode);

  /// Synchronous flush of everything up to and including `lsn`
  /// (WAL-rule page evictions, log cuts).
  Status FlushTo(Lsn lsn);
  /// Synchronous flush of everything appended so far.
  Status FlushAll();

  // ---------------------------- read side ----------------------------

  /// The record-level read API. The cursor borrows this Wal.
  Cursor OpenCursor() { return Cursor(core_.get()); }

  // ---------------------- metadata / maintenance ---------------------

  Lsn flushed_lsn() const { return core_->flushed_lsn(); }
  Lsn next_lsn() const { return core_->next_lsn(); }
  /// Start of the ACTIVE log file (bytes below it live only in the
  /// archive tier, if one is attached).
  Lsn start_lsn() const { return core_->start_lsn(); }
  /// Oldest LSN any cursor can still resolve, across BOTH tiers -- the
  /// true AS OF horizon floor (== start_lsn() without an archive).
  Lsn oldest_lsn() const { return core_->oldest_available_lsn(); }
  std::vector<CheckpointRef> checkpoints() const {
    return core_->checkpoints();
  }
  /// Record a commit's (lsn, wall_clock) as a split-search waypoint.
  /// Sampled: kept only every kWaypointSpacingBytes of log and only
  /// when the wall clock did not run backwards (commit clocks are
  /// near-monotonic; a regressed sample would break the search's
  /// stop-at-first-later-commit rule). Fed by Writer::Append for every
  /// commit and by ArchiveUpTo's sealing cursor (which re-decodes old
  /// records anyway, repopulating the table for pre-restart history as
  /// it gets sealed).
  void NoteCommitWaypoint(Lsn lsn, WallClock wall_clock);
  /// Ascending by lsn AND wall_clock; entries below oldest_lsn() may
  /// linger briefly (pruned on insert).
  std::vector<CommitWaypoint> commit_waypoints() const;
  static constexpr Lsn kWaypointSpacingBytes = 256 * 1024;
  /// Truncate the active log. With an archive tier attached the cut is
  /// clamped to the archive high water mark -- truncating LESS is
  /// always safe, and clamping means the retained active range is
  /// always fully sealed, so the truncated file bytes can be
  /// hole-punched every time (bounded-log steady state). Without the
  /// clamp a sealer that stopped an epsilon short of `lsn` (it never
  /// cuts inside a compression frame) would disable reclaim forever.
  Status TruncateBefore(Lsn lsn) {
    const Lsn hw =
        archive_ != nullptr ? archive_->high_water() : kInvalidLsn;
    if (hw != kInvalidLsn) {
      return core_->TruncateBefore(std::min(lsn, hw), /*reclaim=*/true);
    }
    return core_->TruncateBefore(lsn, /*reclaim=*/false);
  }
  /// Bytes in the ACTIVE log (next_lsn - start_lsn); add
  /// ArchivedBytes() for the full history footprint (the honest fig5
  /// space split).
  uint64_t LiveBytes() const { return core_->LiveBytes(); }
  uint64_t ArchivedBytes() const {
    return archive_ != nullptr ? archive_->archived_bytes() : 0;
  }
  void DropCache() { core_->DropCache(); }

  // ------------------------- archive tier ----------------------------

  /// The archive tier, or nullptr when archiving is off.
  ArchiveManager* archive() const { return archive_.get(); }

  /// Seal flushed active-log bytes from the archive high water mark up
  /// to min(target, flushed_lsn) into archive segments. Segments are
  /// cut at record boundaries (a cursor drives the chunking), so any
  /// segment's first_lsn is a valid forward-scan entry point. Safe to
  /// call concurrently (internally serialized); no-op without an
  /// archive. `target` must be a record boundary (callers pass
  /// checkpoint LSNs or transaction first-LSNs).
  Status ArchiveUpTo(Lsn target);

  /// Archive retention: drop sealed segments wholly below `lsn` and
  /// re-prune checkpoint refs that no tier can resolve anymore.
  Status DropArchiveBefore(Lsn lsn);

  /// Materialize a standalone log file at `dest_path` holding every
  /// retained byte (archived segments first, via the archive index,
  /// then the active range) with a proper header, truncated at `cut` --
  /// the point-in-time restore log cut. The whole retained log is
  /// copied before the truncation, matching the paper's baseline
  /// ("initialization for the unused portion of transaction log" is
  /// charged); `bytes_copied` reports that full volume. Flush to at
  /// least `cut` first (RestoreToTime calls FlushAll).
  Status ExportPrefix(const std::string& dest_path, Lsn cut,
                      uint64_t* bytes_copied);

  WalStats stats() const;

  /// Feed the per-kind record histogram (called by every append path:
  /// Writer::Stage/Append and Wal::Append). `bytes` is the encoded
  /// logical size of the record.
  void NoteRecord(LogType type, size_t bytes) {
    const size_t slot =
        std::min<size_t>(static_cast<size_t>(type), WalStats::kTypeSlots - 1);
    record_counts_[slot].fetch_add(1, std::memory_order_relaxed);
    record_bytes_[slot].fetch_add(bytes, std::memory_order_relaxed);
  }

  /// Record an FPI emission's path: delta (hit) or full image
  /// (fallback). Called by PageOps::MaybeEmitFpi.
  void NoteFpiDelta(bool hit) {
    (hit ? fpi_delta_hits_ : fpi_delta_fallbacks_)
        .fetch_add(1, std::memory_order_relaxed);
  }

  /// Test/benchmark hook mirroring Database::SimulateCrash: stop the
  /// flusher WITHOUT flushing, so the unflushed tail is lost exactly as
  /// in a real crash. The Wal only accepts destruction afterwards.
  void SimulateCrash();

 private:
  friend class Writer;

  explicit Wal(std::unique_ptr<LogManager> core, Options opts);

  void StartFlusher();
  void FlusherLoop();
  /// Wake the flusher (it always flushes the whole tail).
  void NudgeFlusher();
  /// Writer publish path: splice pre-encoded bytes, handle
  /// backpressure. Returns the LSN of the first spliced byte.
  Lsn PublishEncoded(Slice encoded, size_t records);

  /// Attach (or create) the archive tier per opts_.archive_dir, rebuild
  /// archived checkpoint refs, and retire a stale non-contiguous
  /// archive run. Shared by Create/Open.
  Status InitArchive();

  std::unique_ptr<LogManager> core_;
  std::unique_ptr<ArchiveManager> archive_;
  const Options opts_;
  /// Serializes sealers (ArchiveUpTo from checkpoints and retention).
  std::mutex archive_seal_mu_;

  mutable std::mutex waypoints_mu_;
  std::vector<CommitWaypoint> waypoints_;
  /// LSN below which NoteCommitWaypoint skips without locking (last
  /// kept sample + spacing). ArchiveUpTo's backfill of OLD lsns is
  /// filtered by the same gate, which is exactly right: once live
  /// commits seeded the table, archived history adds nothing.
  std::atomic<Lsn> waypoint_gate_{0};

  std::thread flusher_;
  std::mutex pipe_mu_;
  std::condition_variable flush_request_cv_;  // flusher sleeps here
  std::condition_variable durable_cv_;        // group waiters sleep here
  bool flush_requested_ = false;
  bool stop_ = false;
  /// Outcome of the most recent flush round (under pipe_mu_). Not
  /// sticky: cleared by the next success and by each new group waiter,
  /// so an old transient error is only ever reported to the waiters of
  /// the round that actually failed.
  Status flusher_status_;

  std::atomic<uint64_t> group_commit_waits_{0};
  std::atomic<uint64_t> sync_commits_{0};
  std::atomic<uint64_t> group_commits_{0};
  std::atomic<uint64_t> async_commits_{0};
  std::atomic<uint64_t> none_commits_{0};
  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> record_counts_[WalStats::kTypeSlots] = {};
  std::atomic<uint64_t> record_bytes_[WalStats::kTypeSlots] = {};
  std::atomic<uint64_t> fpi_delta_hits_{0};
  std::atomic<uint64_t> fpi_delta_fallbacks_{0};
};

}  // namespace wal
}  // namespace rewinddb

#endif  // REWINDDB_WAL_WAL_H_
