// Connection: the one front door to a RewindDB database.
//
// Owns (or attaches to) an engine Database and routes everything an
// application does through a single surface:
//
//   auto conn = *Connection::Create(dir);
//   conn->CreateTable("accounts", schema);
//   Txn txn = conn->Begin();
//   conn->Insert(txn, "accounts", {1, "alice", 100.0});
//   txn.Commit();                       // ~Txn aborts if you forget
//
//   auto past = *conn->AsOf(yesterday); // ReadView: the paper's
//   auto t = *past->OpenTable("accounts");  // CREATE DATABASE ... AS
//   t->Scan(...);                           // SNAPSHOT OF ... AS OF
//
//   conn->Flashback(txn_id);            // undo one committed txn
//
// Named-snapshot lifecycle (CREATE/DROP DATABASE through SqlSession)
// and retention control (ALTER DATABASE SET UNDO_INTERVAL) live here
// too, so the SQL layer is a pure parser shim.
#ifndef REWINDDB_API_CONNECTION_H_
#define REWINDDB_API_CONNECTION_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "api/read_view.h"
#include "api/txn.h"
#include "engine/database.h"
#include "engine/flashback.h"
#include "engine/table.h"

namespace rewinddb {

class Connection {
 public:
  /// Create a fresh database in `dir` and connect to it.
  static Result<std::unique_ptr<Connection>> Create(const std::string& dir,
                                                    DatabaseOptions opts = {});

  /// Open an existing database (runs crash recovery if needed).
  static Result<std::unique_ptr<Connection>> Open(const std::string& dir,
                                                  DatabaseOptions opts = {});

  /// Attach to an engine owned elsewhere (benchmarks, tests). The
  /// Database must outlive the Connection.
  static std::unique_ptr<Connection> Attach(Database* db);

  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // ------------------------- transactions ----------------------------
  Txn Begin();

  /// Session default durability for commits begun on this Connection
  /// (initially the engine's DatabaseOptions::default_commit_mode).
  /// The SQL statement SET COMMIT_MODE binds here; Txn::Commit(mode)
  /// overrides per transaction.
  void SetDefaultCommitMode(CommitMode mode);
  CommitMode default_commit_mode() const;

  /// Engine-wide AS OF mount counters (SHOW STATS lazy_mount.*).
  LazyMountCounters LazyMountStats() const;

  // ------------------------------ DDL --------------------------------
  // Each statement runs in its own transaction, committed on success.
  Status CreateTable(const std::string& name, const Schema& schema);
  Status DropTable(const std::string& name);
  Status CreateIndex(const std::string& index_name,
                     const std::string& table_name,
                     const std::vector<std::string>& columns);
  Status DropIndex(const std::string& index_name);

  // ------------------------------ DML --------------------------------
  // Routed by table name; table descriptors are cached until DDL.
  Status Insert(Txn& txn, const std::string& table, const Row& row);
  Status Update(Txn& txn, const std::string& table, const Row& row);
  Status Delete(Txn& txn, const std::string& table, const Row& key_values);
  /// S-locking point read under `txn`.
  Result<Row> Get(Txn& txn, const std::string& table, const Row& key_values);

  // --------------------------- read views ----------------------------
  /// Live view with untracked reads (no locks taken).
  std::unique_ptr<ReadView> Live();
  /// Live view reading under `txn`'s two-phase row locks. The view
  /// borrows the Txn: do not use it after the Txn finishes.
  std::unique_ptr<ReadView> Live(const Txn& txn);

  /// The paper's CREATE DATABASE ... AS SNAPSHOT OF ... AS OF, unnamed:
  /// mounts an as-of snapshot and returns its view. The snapshot lives
  /// exactly as long as handles to it do; the last handle released
  /// deletes the side file. All snapshots created through this
  /// Connection (and any other surface over the same engine) share the
  /// engine's version store, so views at nearby times reuse each
  /// other's page rewinds.
  Result<std::shared_ptr<ReadView>> AsOf(WallClock as_of);

  /// Effectiveness counters of the shared rewind cache behind AsOf /
  /// Snapshot views: exact hits (no chain walk), partial hits (walk
  /// covered only the gap), evictions. See DatabaseOptions::
  /// version_store_bytes for the budget knob.
  VersionStore::Stats VersionStoreStats() const;

  /// Aggregated buffer-pool counters (per-shard hits/misses/evictions
  /// summed across the sharded frame table) of the live engine's pool.
  BufferManager::Stats BufferStats() const;

  /// Named-snapshot lifecycle (the SQL surface binds to these).
  Status CreateSnapshot(const std::string& name, WallClock as_of);
  /// Stable handle to a named snapshot: safe to hold across a drop
  /// (operations fail with Status::Aborted after the snapshot is gone).
  Result<std::shared_ptr<ReadView>> Snapshot(const std::string& name);
  /// Deterministically releases the snapshot: waits out in-flight
  /// reads, stops background undo, deletes the side file.
  Status DropSnapshot(const std::string& name);
  std::vector<std::string> ListSnapshots() const;

  // ------------------------- error recovery --------------------------
  /// Undo one committed transaction (the paper's §8 extension). Atomic:
  /// on conflict with a later transaction nothing changes and
  /// Status::Aborted is returned.
  Result<FlashbackResult> Flashback(TxnId victim);

  // ---------------------- retention / maintenance --------------------
  /// ALTER DATABASE SET UNDO_INTERVAL: how far back AsOf() may reach.
  Status SetRetention(uint64_t micros);
  uint64_t retention_micros() const;
  /// Enforce the retention policy. Without the archive tier this
  /// truncates log outside the retention period (respecting snapshot
  /// anchors and active transactions); with it, old active log is
  /// sealed-then-truncated and the horizon is enforced on archived
  /// segments instead (see DatabaseOptions::archive_dir).
  Status EnforceRetention();
  /// SHARP checkpoint: full dirty-page flush; drains the pool. Prefer
  /// FuzzyCheckpoint() for routine log bounding.
  Status Checkpoint();
  /// FUZZY checkpoint (the SQL CHECKPOINT statement): bounds crash
  /// recovery's analysis scan without blocking writers and, with the
  /// archive tier on, archives + trims the active log. Also taken
  /// automatically every DatabaseOptions::checkpoint_interval_bytes of
  /// WAL.
  Status FuzzyCheckpoint();
  /// Archive-tier counters (segments sealed/dropped, bytes moved,
  /// checksum verifications); all zero when the tier is off.
  wal::ArchiveStats ArchiveStats() const;

  // ----------------------------- interop -----------------------------
  Clock* clock() const;
  /// Escape hatch to the engine for benchmarks and tests.
  Database* engine() const { return db_; }

 private:
  explicit Connection(Database* db);

  Result<std::shared_ptr<Table>> ResolveTable(const std::string& name);
  Status RunDdl(const std::function<Status(Transaction*)>& body);

  std::unique_ptr<Database> owned_;
  Database* db_;
  std::atomic<CommitMode> commit_mode_;

  mutable std::mutex mu_;  // guards the four members below
  std::map<std::string, std::shared_ptr<api_internal::SnapshotState>>
      snapshots_;
  /// Names reserved by an in-flight CreateSnapshot, so two racing
  /// creators of one name cannot both build (and then destroy each
  /// other's) side files.
  std::set<std::string> creating_;
  /// Anonymous AsOf() views handed out by this Connection. Tracked so
  /// ~Connection can release them BEFORE the engine it owns goes away;
  /// surviving handles then fail cleanly instead of dereferencing a
  /// dead Database.
  std::vector<std::weak_ptr<api_internal::SnapshotState>> anon_states_;
  std::map<std::string, std::shared_ptr<Table>> table_cache_;
};

}  // namespace rewinddb

#endif  // REWINDDB_API_CONNECTION_H_
