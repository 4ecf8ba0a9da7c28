#include "snapshot/split_lsn.h"

namespace rewinddb {

Result<SplitPoint> FindSplitPoint(wal::Wal* log, WallClock target,
                                  WallClock now) {
  if (target > now) {
    return Status::InvalidArgument("as-of time lies in the future");
  }

  // Narrow with the checkpoint directory: scan from the newest
  // checkpoint at or before the target time (checkpoints carry
  // wall-clock stamps precisely for this). The directory spans BOTH log
  // tiers -- refs into archived history survive active-log truncation
  // -- so a long-horizon target narrows just like a recent one, and the
  // cursor below reads across the tier boundary transparently.
  const std::vector<CheckpointRef> ckpts = log->checkpoints();
  Lsn scan_start = log->oldest_lsn();
  Lsn ckpt_before = kInvalidLsn;
  bool target_before_all_ckpts = !ckpts.empty();
  for (const CheckpointRef& c : ckpts) {
    if (c.wall_clock <= target) {
      scan_start = c.begin_lsn;
      ckpt_before = c.begin_lsn;
      target_before_all_ckpts = false;
    } else {
      break;
    }
  }
  // Bound the forward scan by the first checkpoint after the target
  // (plus one more region in case a qualifying commit raced the
  // checkpoint) -- here simply scan to the next checkpoint boundary.
  Lsn scan_end = log->next_lsn();
  for (const CheckpointRef& c : ckpts) {
    if (c.wall_clock > target) {
      scan_end = c.begin_lsn;
      break;
    }
  }

  // Second narrowing stage: commit waypoints. Checkpoints bound the
  // scan to one checkpoint interval, which can still be most of the log
  // when checkpoints are rare (a mount soon after a long checkpoint-free
  // run). Waypoints are sampled every few hundred KiB of commits, so
  // jumping to the newest waypoint at or before the target bounds the
  // commit scan by the sampling spacing instead -- what keeps a
  // mount's create O(1) in log-since-backup. A waypoint's record IS
  // a commit with wall_clock <= target, so a waypoint-started scan
  // always finds a split and never weakens the no-commit fallback
  // below.
  bool waypoint_started = false;
  for (const wal::CommitWaypoint& w : log->commit_waypoints()) {
    if (w.wall_clock > target) break;
    if (w.lsn > scan_start && w.lsn < scan_end) {
      scan_start = w.lsn;
      waypoint_started = true;
    }
  }

  Lsn split = kInvalidLsn;
  WallClock boundary = 0;
  wal::Cursor cur = log->OpenCursor();
  REWIND_RETURN_IF_ERROR(cur.SeekTo(scan_start));
  while (cur.Valid() && cur.lsn() < scan_end) {
    const LogRecord& rec = cur.record();
    if (rec.type == LogType::kCommit) {
      if (rec.wall_clock > target) break;  // commits (near-)monotonic: stop
      split = cur.lsn();
      boundary = rec.wall_clock;
    }
    REWIND_RETURN_IF_ERROR(cur.Next());
  }
  // The analysis anchor: newest checkpoint at or before the split. Read
  // it off the directory rather than the (now waypoint-shortened) scan.
  Lsn last_ckpt_seen = ckpt_before;
  if (split != kInvalidLsn) {
    for (const CheckpointRef& c : ckpts) {
      if (c.begin_lsn <= split && c.begin_lsn > (last_ckpt_seen == kInvalidLsn
                                                     ? 0
                                                     : last_ckpt_seen)) {
        last_ckpt_seen = c.begin_lsn;
      }
    }
  }

  if (split == kInvalidLsn && waypoint_started) {
    return Status::Corruption(
        "split search: waypoint-started scan found no commit");
  }
  if (split == kInvalidLsn) {
    if (target_before_all_ckpts || ckpt_before == kInvalidLsn) {
      return Status::OutOfRange(
          "as-of time precedes the retained log (outside the undo "
          "interval)");
    }
    // No commit in (checkpoint, target]: the checkpoint itself is a
    // consistent boundary.
    split = ckpt_before;
    boundary = target;
  }

  SplitPoint out;
  out.split_lsn = split;
  out.boundary_time = boundary;
  out.checkpoint_lsn =
      last_ckpt_seen != kInvalidLsn ? last_ckpt_seen : log->oldest_lsn();
  return out;
}

}  // namespace rewinddb
