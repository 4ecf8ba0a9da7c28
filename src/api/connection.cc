#include "api/connection.h"

#include "snapshot/asof_snapshot.h"

namespace rewinddb {

Connection::Connection(Database* db)
    : db_(db),
      commit_mode_(db->options().default_commit_mode) {}

Connection::~Connection() {
  // Every snapshot this Connection minted -- named or anonymous -- is
  // released before the engine: their destructors unregister log
  // anchors and delete side files against `db_`, and their background
  // sweepers read its log. Handles that outlive the Connection
  // then fail with Status::Aborted instead of touching a dead engine.
  std::map<std::string, std::shared_ptr<api_internal::SnapshotState>> snaps;
  std::vector<std::weak_ptr<api_internal::SnapshotState>> anon;
  {
    std::lock_guard<std::mutex> g(mu_);
    snaps.swap(snapshots_);
    anon.swap(anon_states_);
  }
  for (auto& [name, state] : snaps) {
    Status s = api_internal::ReleaseSnapshot(state.get());
    (void)s;
  }
  for (auto& weak : anon) {
    if (auto state = weak.lock()) {
      Status s = api_internal::ReleaseSnapshot(state.get());
      (void)s;
    }
  }
}

Result<std::unique_ptr<Connection>> Connection::Create(const std::string& dir,
                                                       DatabaseOptions opts) {
  REWIND_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                          Database::Create(dir, opts));
  std::unique_ptr<Connection> conn(new Connection(db.get()));
  conn->owned_ = std::move(db);
  return conn;
}

Result<std::unique_ptr<Connection>> Connection::Open(const std::string& dir,
                                                     DatabaseOptions opts) {
  REWIND_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                          Database::Open(dir, opts));
  std::unique_ptr<Connection> conn(new Connection(db.get()));
  conn->owned_ = std::move(db);
  return conn;
}

std::unique_ptr<Connection> Connection::Attach(Database* db) {
  return std::unique_ptr<Connection>(new Connection(db));
}

Txn Connection::Begin() {
  Transaction* txn = db_->Begin();
  txn->commit_mode = commit_mode_.load(std::memory_order_relaxed);
  return Txn(db_, txn);
}

void Connection::SetDefaultCommitMode(CommitMode mode) {
  commit_mode_.store(mode, std::memory_order_relaxed);
}

CommitMode Connection::default_commit_mode() const {
  return commit_mode_.load(std::memory_order_relaxed);
}

LazyMountCounters Connection::LazyMountStats() const {
  return db_->lazy_mount_counters();
}

VersionStore::Stats Connection::VersionStoreStats() const {
  return db_->version_store()->stats();
}

BufferManager::Stats Connection::BufferStats() const {
  return db_->buffers()->stats();
}

Status Connection::RunDdl(const std::function<Status(Transaction*)>& body) {
  Transaction* txn = db_->Begin();
  // DDL honours the session's durability level too (SET COMMIT_MODE).
  txn->commit_mode = commit_mode_.load(std::memory_order_relaxed);
  Status s = body(txn);
  if (!s.ok()) {
    Status a = db_->Abort(txn);
    (void)a;
    return s;
  }
  REWIND_RETURN_IF_ERROR(db_->Commit(txn));
  // Descriptors may have changed (new table, dropped table, index list
  // of a table altered); drop the whole cache rather than tracking
  // which entries a statement touched.
  std::lock_guard<std::mutex> g(mu_);
  table_cache_.clear();
  return Status::OK();
}

Status Connection::CreateTable(const std::string& name, const Schema& schema) {
  return RunDdl(
      [&](Transaction* txn) { return db_->CreateTable(txn, name, schema); });
}

Status Connection::DropTable(const std::string& name) {
  return RunDdl([&](Transaction* txn) { return db_->DropTable(txn, name); });
}

Status Connection::CreateIndex(const std::string& index_name,
                               const std::string& table_name,
                               const std::vector<std::string>& columns) {
  return RunDdl([&](Transaction* txn) {
    return db_->CreateIndex(txn, index_name, table_name, columns);
  });
}

Status Connection::DropIndex(const std::string& index_name) {
  return RunDdl(
      [&](Transaction* txn) { return db_->DropIndex(txn, index_name); });
}

Result<std::shared_ptr<Table>> Connection::ResolveTable(
    const std::string& name) {
  {
    std::lock_guard<std::mutex> g(mu_);
    auto it = table_cache_.find(name);
    if (it != table_cache_.end()) return it->second;
  }
  REWIND_ASSIGN_OR_RETURN(Table table, db_->OpenTable(name));
  auto handle = std::make_shared<Table>(std::move(table));
  std::lock_guard<std::mutex> g(mu_);
  table_cache_[name] = handle;
  return handle;
}

namespace {
Status RequireActive(const Txn& txn) {
  if (!txn.active()) {
    return Status::InvalidArgument("transaction already finished");
  }
  return Status::OK();
}
}  // namespace

Status Connection::Insert(Txn& txn, const std::string& table,
                          const Row& row) {
  REWIND_RETURN_IF_ERROR(RequireActive(txn));
  REWIND_ASSIGN_OR_RETURN(std::shared_ptr<Table> t, ResolveTable(table));
  return t->Insert(txn.raw(), row);
}

Status Connection::Update(Txn& txn, const std::string& table,
                          const Row& row) {
  REWIND_RETURN_IF_ERROR(RequireActive(txn));
  REWIND_ASSIGN_OR_RETURN(std::shared_ptr<Table> t, ResolveTable(table));
  return t->Update(txn.raw(), row);
}

Status Connection::Delete(Txn& txn, const std::string& table,
                          const Row& key_values) {
  REWIND_RETURN_IF_ERROR(RequireActive(txn));
  REWIND_ASSIGN_OR_RETURN(std::shared_ptr<Table> t, ResolveTable(table));
  return t->Delete(txn.raw(), key_values);
}

Result<Row> Connection::Get(Txn& txn, const std::string& table,
                            const Row& key_values) {
  REWIND_RETURN_IF_ERROR(RequireActive(txn));
  REWIND_ASSIGN_OR_RETURN(std::shared_ptr<Table> t, ResolveTable(table));
  return t->Get(txn.raw(), key_values);
}

std::unique_ptr<ReadView> Connection::Live() { return WrapLive(db_, nullptr); }

std::unique_ptr<ReadView> Connection::Live(const Txn& txn) {
  return WrapLive(db_, txn.raw());
}

Result<std::shared_ptr<ReadView>> Connection::AsOf(WallClock as_of) {
  // The engine-level object-id counter makes the side-file name unique
  // across every Connection attached to this Database, not just ours.
  std::string name = "__asof" + std::to_string(db_->AllocateObjectId());
  REWIND_ASSIGN_OR_RETURN(
      std::unique_ptr<AsOfSnapshot> snap,
      AsOfSnapshot::Create(db_, name, as_of));
  auto state = api_internal::AdoptSnapshot(std::move(snap));
  {
    std::lock_guard<std::mutex> g(mu_);
    // Prune entries whose last handle is already gone, then track the
    // new one for release in ~Connection.
    std::erase_if(anon_states_,
                  [](const auto& weak) { return weak.expired(); });
    anon_states_.push_back(state);
  }
  return api_internal::ViewOf(std::move(state));
}

Status Connection::CreateSnapshot(const std::string& name, WallClock as_of) {
  if (name.rfind("__asof", 0) == 0) {
    return Status::InvalidArgument(
        "snapshot names starting with '__asof' are reserved");
  }
  {
    // Reserve the name BEFORE the expensive create: two racing
    // creators of one name would otherwise truncate and then delete
    // each other's side file (both map to dir/<name>.side).
    std::lock_guard<std::mutex> g(mu_);
    if (snapshots_.count(name) || creating_.count(name)) {
      return Status::AlreadyExists("snapshot '" + name + "' exists");
    }
    creating_.insert(name);
  }
  auto snap = AsOfSnapshot::Create(db_, name, as_of);
  std::lock_guard<std::mutex> g(mu_);
  creating_.erase(name);
  if (!snap.ok()) return snap.status();
  snapshots_[name] = api_internal::AdoptSnapshot(std::move(*snap));
  return Status::OK();
}

Result<std::shared_ptr<ReadView>> Connection::Snapshot(
    const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = snapshots_.find(name);
  if (it == snapshots_.end()) {
    return Status::NotFound("snapshot '" + name + "' not found");
  }
  return api_internal::ViewOf(it->second);
}

Status Connection::DropSnapshot(const std::string& name) {
  std::shared_ptr<api_internal::SnapshotState> state;
  {
    std::lock_guard<std::mutex> g(mu_);
    auto it = snapshots_.find(name);
    if (it == snapshots_.end()) {
      return Status::NotFound("snapshot '" + name + "' not found");
    }
    state = std::move(it->second);
    snapshots_.erase(it);
  }
  // Outside mu_: releasing waits for in-flight reads on this snapshot
  // and must not block unrelated Connection calls meanwhile.
  return api_internal::ReleaseSnapshot(state.get());
}

std::vector<std::string> Connection::ListSnapshots() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<std::string> names;
  names.reserve(snapshots_.size());
  for (const auto& [name, state] : snapshots_) names.push_back(name);
  return names;
}

Result<FlashbackResult> Connection::Flashback(TxnId victim) {
  return FlashbackTransaction(db_, victim);
}

Status Connection::SetRetention(uint64_t micros) {
  return db_->SetUndoInterval(micros);
}

uint64_t Connection::retention_micros() const {
  return db_->undo_interval_micros();
}

Status Connection::EnforceRetention() { return db_->EnforceRetention(); }

Status Connection::Checkpoint() { return db_->Checkpoint(); }

Status Connection::FuzzyCheckpoint() { return db_->FuzzyCheckpoint(); }

wal::ArchiveStats Connection::ArchiveStats() const {
  wal::ArchiveManager* archive = db_->log()->archive();
  return archive != nullptr ? archive->stats() : wal::ArchiveStats();
}

Clock* Connection::clock() const { return db_->clock(); }

}  // namespace rewinddb
