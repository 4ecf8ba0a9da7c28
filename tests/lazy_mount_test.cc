// Recovery-order equivalence of AS OF mounts: a mount whose background
// sweeper finished before any read (sweeper order) and a mount read at
// once, racing its sweeper (query order), must hold byte-identical page
// images under a quiesced primary -- with and without losers
// straddling the SplitLSN, across several trees, and after a fault
// injected at each page-recovery boundary was cleared. Each case runs
// without periodic page images (no page log index: every page is
// rewound from its current image) and with them (the swept mount
// enters indexed pages at their nearest post-split image). SQL AS OF
// results match the live results recorded at the target instant
// across every executor plan shape. A failed recovery surfaces a
// Status without poisoning other pages or leaking partial side-file
// state.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/connection.h"
#include "api/read_view.h"
#include "engine/database.h"
#include "engine/table.h"
#include "exec/planner.h"
#include "snapshot/asof_snapshot.h"
#include "sql/parser.h"
#include "sql/session.h"

namespace rewinddb {
namespace {

constexpr uint64_t kSecond = 1'000'000;

Schema KvSchema() {
  return Schema({{"id", ColumnType::kInt32}, {"val", ColumnType::kString}},
                1);
}

/// Every primary page id, fetched through BOTH snapshots' pools,
/// compared byte for byte. Call once both sweeps have finished: a bare
/// page fetch does not wait for its tree's loser undo.
void ExpectByteIdenticalPages(Database* db, AsOfSnapshot* x,
                              AsOfSnapshot* y) {
  // No mount checkpoints the primary: flush it so its file covers every
  // allocated page.
  ASSERT_TRUE(db->buffers()->FlushAll().ok());
  const PageId n = db->data_file()->NumPages();
  ASSERT_GT(n, 2u);
  for (PageId id = 0; id < n; id++) {
    auto px = x->buffers()->FetchPage(id, AccessMode::kRead);
    ASSERT_TRUE(px.ok()) << x->name() << " page " << id << ": "
                         << px.status().ToString();
    auto py = y->buffers()->FetchPage(id, AccessMode::kRead);
    ASSERT_TRUE(py.ok()) << y->name() << " page " << id << ": "
                         << py.status().ToString();
    EXPECT_EQ(0, memcmp(px->data(), py->data(), kPageSize))
        << "page " << id << " differs between " << x->name() << " and "
        << y->name();
  }
}

/// Parameter: DatabaseOptions::fpi_period (0 = no page log index).
class LazyMountTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() / "rewinddb_lazy" /
            ::testing::UnitTest::GetInstance()->current_test_info()->name())
               .string();
    std::filesystem::remove_all(dir_);
    clock_ = std::make_unique<SimClock>(10 * kSecond);
    DatabaseOptions opts;
    opts.clock = clock_.get();
    // Byte-identity precondition: no shared version store (one mount
    // must not serve the other mount's rewound images -- each must do
    // its own work for the comparison to mean anything).
    opts.version_store_bytes = 0;
    opts.fpi_period = GetParam();
    Recreate(opts);
  }
  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  void Recreate(DatabaseOptions opts) {
    db_.reset();
    std::filesystem::remove_all(dir_);
    auto db = Database::Create(dir_, opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  void MakeKvTable(const std::string& name = "t") {
    Transaction* txn = db_->Begin();
    ASSERT_TRUE(db_->CreateTable(txn, name, KvSchema()).ok());
    ASSERT_TRUE(db_->Commit(txn).ok());
  }

  void PutRows(Table* table, int lo, int hi, const std::string& val) {
    Transaction* txn = db_->Begin();
    for (int i = lo; i < hi; i++) {
      ASSERT_TRUE(table->Insert(txn, {i, val}).ok()) << i;
    }
    ASSERT_TRUE(db_->Commit(txn).ok());
  }

  std::map<int, std::string> Contents(SnapshotTable* table) {
    std::map<int, std::string> out;
    Status s = table->Scan(std::nullopt, std::nullopt, [&](const Row& row) {
      out[row[0].AsInt32()] = row[1].AsString();
      return true;
    });
    EXPECT_TRUE(s.ok()) << s.ToString();
    return out;
  }

  Status ScanStatus(SnapshotTable* table) {
    return table->Scan(std::nullopt, std::nullopt,
                       [](const Row&) { return true; });
  }

  /// Mount twice at `t`: `sweep_first` has finished its background
  /// sweep before this returns, `on_demand` is fresh (its sweeper may
  /// still be running).
  void MountPair(WallClock t, std::unique_ptr<AsOfSnapshot>* sweep_first,
                 std::unique_ptr<AsOfSnapshot>* on_demand) {
    auto a = AsOfSnapshot::Create(db_.get(), "sweep", t);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    *sweep_first = std::move(*a);
    ASSERT_TRUE((*sweep_first)->WaitForUndo().ok());
    auto b = AsOfSnapshot::Create(db_.get(), "demand", t);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    *on_demand = std::move(*b);
    EXPECT_EQ((*sweep_first)->split_lsn(), (*on_demand)->split_lsn());
  }

  std::string dir_;
  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<Database> db_;
};

// --------------------- byte-identical page images ---------------------

TEST_P(LazyMountTest, ByteIdenticalPagesQuiescedWithPostSplitChurn) {
  MakeKvTable();
  auto table = db_->OpenTable("t");
  clock_->Advance(10 * kSecond);
  PutRows(&*table, 0, 300, "v1");
  clock_->Advance(kSecond);
  WallClock t = clock_->NowMicros();
  clock_->Advance(kSecond);

  // Post-split churn: the per-page rewind has real work on both sides.
  Transaction* churn = db_->Begin();
  for (int i = 0; i < 300; i++) {
    if (i % 3 == 0) {
      ASSERT_TRUE(table->Delete(churn, Row{i}).ok());
    } else {
      ASSERT_TRUE(table->Update(churn, {i, std::string("v2")}).ok());
    }
  }
  ASSERT_TRUE(db_->Commit(churn).ok());

  std::unique_ptr<AsOfSnapshot> swept, demand;
  MountPair(t, &swept, &demand);
  auto sd = demand->OpenTable("t");
  ASSERT_TRUE(sd.ok());
  auto cd = Contents(&*sd);
  ASSERT_TRUE(demand->WaitForUndo().ok());

  ExpectByteIdenticalPages(db_.get(), swept.get(), demand.get());
  // With periodic page images the comparison covers index-seeded pages.
  if (GetParam() > 0) {
    EXPECT_GT(swept->page_log_index()->stats().fpi_entries, 0u);
    EXPECT_GT(db_->lazy_mount_counters().fpi_index_hits, 0u);
  }

  auto ss = swept->OpenTable("t");
  ASSERT_TRUE(ss.ok());
  EXPECT_EQ(Contents(&*ss), cd);
  EXPECT_EQ(cd.size(), 300u);
  for (const auto& [k, v] : cd) EXPECT_EQ(v, "v1") << k;
}

TEST_P(LazyMountTest, ByteIdenticalPagesWithLoserStraddlingSplit) {
  MakeKvTable();
  auto table = db_->OpenTable("t");
  clock_->Advance(10 * kSecond);
  PutRows(&*table, 0, 200, "committed");
  clock_->Advance(kSecond);

  // Loser: in flight at the split, inserting and updating rows.
  Transaction* loser = db_->Begin();
  for (int i = 0; i < 40; i++) {
    ASSERT_TRUE(table->Update(loser, {i, std::string("LOSER-VALUE")}).ok());
  }
  for (int i = 5000; i < 5040; i++) {
    ASSERT_TRUE(table->Insert(loser, {i, std::string("PHANTOM")}).ok());
  }
  // A later commit pushes the split past the loser's records.
  clock_->Advance(kSecond);
  PutRows(&*table, 300, 301, "bump");
  WallClock t = clock_->NowMicros();
  clock_->Advance(kSecond);

  std::unique_ptr<AsOfSnapshot> swept, demand;
  MountPair(t, &swept, &demand);
  EXPECT_GE(swept->creation_stats().loser_transactions, 1u);
  auto sd = demand->OpenTable("t");
  ASSERT_TRUE(sd.ok());
  auto contents = Contents(&*sd);
  ASSERT_TRUE(demand->WaitForUndo().ok());
  EXPECT_GE(demand->creation_stats().loser_transactions, 1u);

  ExpectByteIdenticalPages(db_.get(), swept.get(), demand.get());

  EXPECT_EQ(contents.size(), 201u);  // 200 + bump row, no phantoms
  EXPECT_EQ(contents.count(5010), 0u);
  EXPECT_EQ(contents[10], "committed");

  ASSERT_TRUE(db_->Abort(loser).ok());
}

TEST_P(LazyMountTest, ByteIdenticalPagesWithDeleteHeavyLoser) {
  MakeKvTable();
  auto table = db_->OpenTable("t");
  clock_->Advance(10 * kSecond);
  PutRows(&*table, 0, 150, "keep");
  clock_->Advance(kSecond);

  // Delete-heavy loser: its undo re-inserts rows and may split snapshot
  // leaves into snapshot-private virtual pages. One tree's undo runs in
  // one fixed order on one thread, so the virtual page ids match too.
  Transaction* loser = db_->Begin();
  for (int i = 0; i < 150; i += 2) {
    ASSERT_TRUE(table->Delete(loser, Row{i}).ok());
  }
  clock_->Advance(kSecond);
  PutRows(&*table, 300, 301, "bump");
  WallClock t = clock_->NowMicros();
  clock_->Advance(kSecond);

  std::unique_ptr<AsOfSnapshot> swept, demand;
  MountPair(t, &swept, &demand);
  auto sd = demand->OpenTable("t");
  ASSERT_TRUE(sd.ok());
  auto cd = Contents(&*sd);
  ASSERT_TRUE(demand->WaitForUndo().ok());

  ExpectByteIdenticalPages(db_.get(), swept.get(), demand.get());

  auto ss = swept->OpenTable("t");
  ASSERT_TRUE(ss.ok());
  EXPECT_EQ(Contents(&*ss), cd);
  EXPECT_EQ(cd.size(), 151u);
  EXPECT_EQ(cd[0], "keep");  // the loser's delete was undone

  ASSERT_TRUE(db_->Abort(loser).ok());
}

// ------------------- first-touch and sweeper races --------------------

TEST_P(LazyMountTest, ConcurrentFirstTouchOfOneTree) {
  MakeKvTable();
  auto table = db_->OpenTable("t");
  clock_->Advance(10 * kSecond);
  PutRows(&*table, 0, 400, "v1");
  clock_->Advance(kSecond);

  Transaction* loser = db_->Begin();
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(table->Update(loser, {i, std::string("uncommitted")}).ok());
  }
  clock_->Advance(kSecond);
  PutRows(&*table, 500, 501, "bump");
  WallClock t = clock_->NowMicros();
  clock_->Advance(kSecond);

  auto snap = AsOfSnapshot::Create(db_.get(), "race", t);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  // Two threads race the FIRST touch of the same tree (and the same
  // pages) while the sweeper may be working it too. Both must see the
  // complete pre-split state.
  std::map<int, std::string> got[2];
  Status st[2];
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; w++) {
    threads.emplace_back([&, w] {
      auto tab = (*snap)->OpenTable("t");
      if (!tab.ok()) {
        st[w] = tab.status();
        return;
      }
      st[w] = tab->Scan(std::nullopt, std::nullopt, [&](const Row& row) {
        got[w][row[0].AsInt32()] = row[1].AsString();
        return true;
      });
    });
  }
  for (auto& th : threads) th.join();
  for (int w = 0; w < 2; w++) {
    ASSERT_TRUE(st[w].ok()) << st[w].ToString();
    EXPECT_EQ(got[w].size(), 401u) << "thread " << w;
    EXPECT_EQ(got[w][25], "v1") << "thread " << w;
  }
  EXPECT_EQ(got[0], got[1]);

  ASSERT_TRUE((*snap)->WaitForUndo().ok());
  ASSERT_TRUE(db_->Abort(loser).ok());
}

TEST_P(LazyMountTest, SweeperAndQueryOrderAgreeAcrossTrees) {
  MakeKvTable("a");
  MakeKvTable("b");
  auto ta = db_->OpenTable("a");
  auto tb = db_->OpenTable("b");
  clock_->Advance(10 * kSecond);
  PutRows(&*ta, 0, 120, "alpha");
  PutRows(&*tb, 0, 80, "beta");
  clock_->Advance(kSecond);

  Transaction* loser = db_->Begin();
  ASSERT_TRUE(ta->Update(loser, {7, std::string("dirty")}).ok());
  ASSERT_TRUE(tb->Insert(loser, {7777, std::string("dirty")}).ok());
  clock_->Advance(kSecond);
  PutRows(&*ta, 500, 501, "bump");
  WallClock t = clock_->NowMicros();
  clock_->Advance(kSecond);

  // The sweep-first mount converged without any query traffic; the
  // on-demand mount reads tree b before tree a while its sweeper runs.
  std::unique_ptr<AsOfSnapshot> swept, demand;
  MountPair(t, &swept, &demand);
  EXPECT_TRUE(swept->undo_complete());
  EXPECT_GE(db_->lazy_mount_counters().sweeps_completed, 1u);
  std::map<std::string, std::map<int, std::string>> on_demand;
  for (const char* name : {"b", "a"}) {
    auto sd = demand->OpenTable(name);
    ASSERT_TRUE(sd.ok());
    on_demand[name] = Contents(&*sd);
  }
  ASSERT_TRUE(demand->WaitForUndo().ok());

  for (const char* name : {"a", "b"}) {
    auto ss = swept->OpenTable(name);
    ASSERT_TRUE(ss.ok());
    EXPECT_EQ(Contents(&*ss), on_demand[name]) << name;
  }
  EXPECT_EQ(on_demand["a"][7], "alpha");
  EXPECT_EQ(on_demand["b"].count(7777), 0u);
  ExpectByteIdenticalPages(db_.get(), swept.get(), demand.get());

  ASSERT_TRUE(db_->Abort(loser).ok());
}

// -------------------------- fault injection ---------------------------

// Page-granular fault points (kIndexLookup, kRewindRead) fire on the
// query path only -- with no losers the sweeper never touches table
// pages, so failing a specific page id is deterministic.
class LazyFaultTest : public LazyMountTest {
 protected:
  /// History: two tables, churned after the split so every first read
  /// must really recover its page.
  WallClock BuildTwoTableHistory() {
    MakeKvTable("a");
    MakeKvTable("b");
    auto ta = db_->OpenTable("a");
    auto tb = db_->OpenTable("b");
    clock_->Advance(10 * kSecond);
    PutRows(&*ta, 0, 60, "a1");
    PutRows(&*tb, 0, 60, "b1");
    clock_->Advance(kSecond);
    WallClock t = clock_->NowMicros();
    clock_->Advance(kSecond);
    Transaction* churn = db_->Begin();
    for (int i = 0; i < 60; i++) {
      EXPECT_TRUE(ta->Update(churn, {i, std::string("a2")}).ok());
      EXPECT_TRUE(tb->Update(churn, {i, std::string("b2")}).ok());
    }
    EXPECT_TRUE(db_->Commit(churn).ok());
    return t;
  }

  /// Once `snap` recovered from its injected faults, its pages must
  /// equal those of a fresh sweep-first mount at the same instant: a
  /// failed step left nothing behind, and the resumed one did not
  /// apply anything twice.
  void ExpectMatchesSweptMount(AsOfSnapshot* snap, WallClock t) {
    (void)snap->WaitForUndo();  // carries the fault if the sweeper hit it
    auto ref = AsOfSnapshot::Create(db_.get(), "ref", t);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    ASSERT_TRUE((*ref)->WaitForUndo().ok());
    ExpectByteIdenticalPages(db_.get(), ref->get(), snap);
  }
};

TEST_P(LazyFaultTest, RewindReadFaultIsolatedAndRetryable) {
  WallClock t = BuildTwoTableHistory();
  auto snap = AsOfSnapshot::Create(db_.get(), "fault", t);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  // Resolve roots first (recovers only catalog pages, hook not yet set).
  auto sa = (*snap)->OpenTable("a");
  auto sb = (*snap)->OpenTable("b");
  ASSERT_TRUE(sa.ok() && sb.ok());
  const PageId a_root = sa->info().root;

  (*snap)->SetRecoveryFaultHook([a_root](RecoveryFaultPoint p, uint64_t id) {
    if (p == RecoveryFaultPoint::kRewindRead && id == a_root) {
      return Status::IoError("injected rewind fault");
    }
    return Status::OK();
  });

  // The faulted table fails -- twice: the first failure must not have
  // cached a partial page in the side file, or the second read would
  // "succeed" with garbage instead of re-attempting recovery.
  Status s1 = ScanStatus(&*sa);
  ASSERT_FALSE(s1.ok());
  EXPECT_NE(s1.ToString().find("injected rewind fault"), std::string::npos)
      << s1.ToString();
  Status s2 = ScanStatus(&*sa);
  ASSERT_FALSE(s2.ok());

  // Other pages are not poisoned: table b reads fine under the hook.
  EXPECT_EQ(Contents(&*sb).size(), 60u);

  // Clearing the hook makes the same handle recover and serve the
  // correct pre-churn state.
  (*snap)->SetRecoveryFaultHook(nullptr);
  auto contents = Contents(&*sa);
  EXPECT_EQ(contents.size(), 60u);
  for (const auto& [k, v] : contents) EXPECT_EQ(v, "a1") << k;
  ExpectMatchesSweptMount(snap->get(), t);
}

TEST_P(LazyFaultTest, IndexLookupFaultIsolatedAndRetryable) {
  WallClock t = BuildTwoTableHistory();
  auto snap = AsOfSnapshot::Create(db_.get(), "fault", t);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  auto sa = (*snap)->OpenTable("a");
  auto sb = (*snap)->OpenTable("b");
  ASSERT_TRUE(sa.ok() && sb.ok());
  const PageId a_root = sa->info().root;

  (*snap)->SetRecoveryFaultHook([a_root](RecoveryFaultPoint p, uint64_t id) {
    if (p == RecoveryFaultPoint::kIndexLookup && id == a_root) {
      return Status::IoError("injected index fault");
    }
    return Status::OK();
  });
  Status s = ScanStatus(&*sa);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("injected index fault"), std::string::npos);
  EXPECT_EQ(Contents(&*sb).size(), 60u);

  (*snap)->SetRecoveryFaultHook(nullptr);
  EXPECT_EQ(Contents(&*sa).size(), 60u);
  ExpectMatchesSweptMount(snap->get(), t);
}

TEST_P(LazyFaultTest, UndoApplyFaultLeavesTreeResumable) {
  MakeKvTable();
  auto table = db_->OpenTable("t");
  clock_->Advance(10 * kSecond);
  PutRows(&*table, 0, 200, "good");
  clock_->Advance(kSecond);
  Transaction* loser = db_->Begin();
  for (int i = 0; i < 30; i++) {
    ASSERT_TRUE(table->Update(loser, {i, std::string("bad")}).ok());
  }
  clock_->Advance(kSecond);
  PutRows(&*table, 500, 501, "bump");
  WallClock t = clock_->NowMicros();
  clock_->Advance(kSecond);

  auto snap = AsOfSnapshot::Create(db_.get(), "fault", t);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  // Installed immediately after create; the sweeper must first finish
  // its analysis scan, so the hook is in place before any undo applies.
  // If the sweeper nevertheless wins the race the query below simply
  // succeeds -- the resume-after-clear assertions still hold.
  (*snap)->SetRecoveryFaultHook([](RecoveryFaultPoint p, uint64_t) {
    if (p == RecoveryFaultPoint::kUndoApply) {
      return Status::IoError("injected undo fault");
    }
    return Status::OK();
  });

  auto st = (*snap)->OpenTable("t");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  Status s = ScanStatus(&*st);
  if (!s.ok()) {
    EXPECT_NE(s.ToString().find("injected undo fault"), std::string::npos)
        << s.ToString();
    // Still failing on retry: the tree stays pending, never half-done.
    EXPECT_FALSE(ScanStatus(&*st).ok());
  }

  // Clear the fault: the SAME tree recovers (resuming its progress
  // cursor) and serves exactly the committed pre-split state.
  (*snap)->SetRecoveryFaultHook(nullptr);
  auto contents = Contents(&*st);
  EXPECT_EQ(contents.size(), 201u);
  for (int i = 0; i < 30; i++) EXPECT_EQ(contents[i], "good") << i;
  ExpectMatchesSweptMount(snap->get(), t);

  ASSERT_TRUE(db_->Abort(loser).ok());
}

// ------------------- SQL parity across plan shapes --------------------

/// Render a rowset as comparable strings, one per row.
std::vector<std::string> Rendered(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows) {
    std::string line;
    for (const Value& v : row) {
      line += v.ToString();
      line += "|";
    }
    out.push_back(std::move(line));
  }
  return out;
}

/// The executor plan shapes of tests/exec_test.cc: run AS OF, every
/// shape must return the rows it returned live at that instant.
const char* kParityShapes[] = {
    "SELECT id, dept, score FROM emp WHERE id >= 10 AND id < 40 AND "
    "score > 5",
    "SELECT id, score FROM emp WHERE dept = 'd1'",
    "SELECT id FROM emp WHERE dept = 'd2' AND score < 25",
    "SELECT e.id, d.city FROM emp e JOIN dept d ON e.dept = d.dept "
    "WHERE e.score >= 10 ORDER BY e.id",
    "SELECT e.id, d.dept FROM emp e JOIN dept d ON e.score < d.pop "
    "WHERE e.id <= 12 ORDER BY e.id, d.dept",
    "SELECT dept, COUNT(*), SUM(score), MIN(score), MAX(score), "
    "AVG(score) FROM emp GROUP BY dept ORDER BY dept",
    "SELECT COUNT(*), SUM(bonus) FROM emp WHERE score > 20",
    "SELECT d.city, COUNT(*) AS cnt FROM emp e JOIN dept d "
    "ON e.dept = d.dept WHERE e.score > 5 GROUP BY d.city "
    "HAVING COUNT(*) >= 2 ORDER BY cnt DESC, d.city LIMIT 3",
    "SELECT DISTINCT dept FROM emp ORDER BY dept",
    "SELECT id FROM emp ORDER BY score DESC, id LIMIT 7",
    "SELECT id, score * 2 + bonus FROM emp WHERE (score + bonus) % 5 = "
    "1 ORDER BY id",
    "SELECT d.city, COUNT(*), SUM(e.score) FROM emp e JOIN dept d "
    "ON e.dept = d.dept WHERE e.dept = 'd2' GROUP BY d.city",
};

INSTANTIATE_TEST_SUITE_P(FpiPeriods, LazyMountTest,
                         ::testing::Values(0u, 8u));
INSTANTIATE_TEST_SUITE_P(FpiPeriods, LazyFaultTest,
                         ::testing::Values(0u, 8u));

class LazySqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() / "rewinddb_lazy_sql" /
            ::testing::UnitTest::GetInstance()->current_test_info()->name())
               .string();
    std::filesystem::remove_all(dir_);
    clock_ = std::make_unique<SimClock>(10 * kSecond);
    DatabaseOptions opts;
    opts.clock = clock_.get();
    opts.version_store_bytes = 0;  // see LazyMountTest
    auto conn = Connection::Create(dir_, opts);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    conn_ = std::move(*conn);
    session_ = std::make_unique<SqlSession>(conn_.get());
  }
  void TearDown() override {
    session_.reset();
    conn_.reset();
    std::filesystem::remove_all(dir_);
  }

  SqlResult MustExecute(const std::string& sql) {
    auto r = session_->ExecuteStatement(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? *r : SqlResult{};
  }

  void LoadDataset() {
    ASSERT_TRUE(conn_->CreateTable(
                        "emp", Schema({{"id", ColumnType::kInt64},
                                       {"dept", ColumnType::kString},
                                       {"score", ColumnType::kInt64},
                                       {"bonus", ColumnType::kInt32}},
                                      1))
                    .ok());
    ASSERT_TRUE(conn_->CreateTable(
                        "dept", Schema({{"dept", ColumnType::kString},
                                        {"city", ColumnType::kString},
                                        {"pop", ColumnType::kInt64}},
                                       1))
                    .ok());
    auto idx = session_->Execute("CREATE INDEX emp_by_dept ON emp (dept)");
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    Txn txn = conn_->Begin();
    for (int i = 1; i <= 60; i++) {
      ASSERT_TRUE(conn_->Insert(txn, "emp",
                                {int64_t{i}, "d" + std::to_string(i % 4),
                                 int64_t{(i * 7) % 50}, int32_t{i % 3}})
                      .ok());
    }
    for (int d = 0; d < 4; d++) {
      ASSERT_TRUE(conn_->Insert(txn, "dept",
                                {"d" + std::to_string(d),
                                 std::string(d % 2 ? "east" : "west"),
                                 int64_t{100 * d}})
                      .ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }

  void Churn() {
    Txn txn = conn_->Begin();
    for (int i = 1; i <= 60; i++) {
      if (i % 3 == 0) {
        ASSERT_TRUE(conn_->Delete(txn, "emp", {int64_t{i}}).ok());
      } else {
        ASSERT_TRUE(conn_->Update(txn, "emp",
                                  {int64_t{i}, std::string("zz"),
                                   int64_t{999}, int32_t{0}})
                        .ok());
      }
    }
    ASSERT_TRUE(conn_->Delete(txn, "dept", {std::string("d3")}).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }

  std::string dir_;
  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<Connection> conn_;
  std::unique_ptr<SqlSession> session_;
};

TEST_F(LazySqlTest, AsOfMatchesLiveAcrossPlanShapesAndRecoveryOrders) {
  LoadDataset();
  std::vector<std::vector<std::string>> live_rows;
  for (const char* shape : kParityShapes) {
    live_rows.push_back(Rendered(MustExecute(shape).rows));
  }

  // A loser in flight at the target, on rows the churn below leaves
  // alone: its insert and its update (which moves an index entry) must
  // be undone in the base tree and in emp_by_dept.
  Txn loser = conn_->Begin();
  for (int64_t i = 100; i < 105; i++) {
    ASSERT_TRUE(conn_->Insert(loser, "emp",
                              {i, std::string("d1"), int64_t{1},
                               int32_t{1}})
                    .ok());
  }
  ASSERT_TRUE(conn_->Update(loser, "dept",
                            {std::string("d1"), std::string("north"),
                             int64_t{5}})
                  .ok());
  // A later commit on an unrelated table puts the split past the
  // loser's records.
  ASSERT_TRUE(conn_->CreateTable("bump",
                                 Schema({{"k", ColumnType::kInt64}}, 1))
                  .ok());
  clock_->Advance(kSecond);
  WallClock t = clock_->NowMicros();
  clock_->Advance(kSecond);
  Churn();
  clock_->Advance(kSecond);

  // SQL: each statement mounts its own snapshot and reads it at once.
  const std::string as_of = " AS OF " + std::to_string(t);
  for (size_t i = 0; i < std::size(kParityShapes); i++) {
    EXPECT_EQ(live_rows[i],
              Rendered(MustExecute(kParityShapes[i] + as_of).rows))
        << kParityShapes[i];
  }
  LazyMountCounters lm = conn_->LazyMountStats();
  EXPECT_GE(lm.lazy_mounts, std::size(kParityShapes));
  EXPECT_GT(lm.pages_recovered_on_demand, 0u);

  // Pages: one mount swept before any read, one read by every shape at
  // once while its sweeper runs.
  Database* db = conn_->engine();
  auto swept = AsOfSnapshot::Create(db, "sweep", t);
  ASSERT_TRUE(swept.ok()) << swept.status().ToString();
  ASSERT_TRUE((*swept)->WaitForUndo().ok());
  EXPECT_GE((*swept)->creation_stats().loser_transactions, 1u);
  auto demand = AsOfSnapshot::Create(db, "demand", t);
  ASSERT_TRUE(demand.ok()) << demand.status().ToString();
  std::unique_ptr<ReadView> view = WrapSnapshot(demand->get());
  for (size_t i = 0; i < std::size(kParityShapes); i++) {
    auto cmd = ParseSql(kParityShapes[i]);
    ASSERT_TRUE(cmd.ok()) << cmd.status().ToString();
    auto out = exec::RunSelect(view.get(), *cmd->select);
    ASSERT_TRUE(out.ok()) << kParityShapes[i] << ": "
                          << out.status().ToString();
    EXPECT_EQ(live_rows[i], Rendered(out->rows)) << kParityShapes[i];
  }
  ASSERT_TRUE((*demand)->WaitForUndo().ok());
  ExpectByteIdenticalPages(db, swept->get(), demand->get());

  view.reset();
  ASSERT_TRUE(loser.Abort().ok());
}

TEST_F(LazySqlTest, ShowStatsExposesLazyCounters) {
  LoadDataset();
  clock_->Advance(kSecond);
  WallClock t = clock_->NowMicros();
  clock_->Advance(kSecond);
  Churn();

  MustExecute("SELECT COUNT(*) FROM emp AS OF " + std::to_string(t));

  SqlResult stats = MustExecute("SHOW STATS");
  std::map<std::string, int64_t> metrics;
  for (const Row& row : stats.rows) {
    metrics[row[0].AsString()] = row[1].AsInt64();
  }
  // Exactly the five mount counters, under their established names.
  std::vector<std::string> mount_rows;
  for (const auto& [name, value] : metrics) {
    if (name.rfind("lazy_mount.", 0) == 0) mount_rows.push_back(name);
  }
  EXPECT_EQ(mount_rows, (std::vector<std::string>{
                            "lazy_mount.fpi_index_hits",
                            "lazy_mount.lazy_mounts",
                            "lazy_mount.pages_recovered_on_demand",
                            "lazy_mount.sweeps_completed",
                            "lazy_mount.trees_recovered_on_demand"}));
  EXPECT_GE(metrics["lazy_mount.lazy_mounts"], 1);
  EXPECT_GT(metrics["lazy_mount.pages_recovered_on_demand"], 0);

  // Named snapshots count as mounts too.
  MustExecute("CREATE DATABASE past AS SNAPSHOT OF db AS OF " +
              std::to_string(t));
  SqlResult again = MustExecute("SHOW STATS");
  for (const Row& row : again.rows) {
    if (row[0].AsString() == "lazy_mount.lazy_mounts") {
      EXPECT_GE(row[1].AsInt64(), metrics["lazy_mount.lazy_mounts"] + 1);
    }
  }
  SqlResult sel = MustExecute("SELECT COUNT(*) FROM emp SNAPSHOT OF past");
  ASSERT_EQ(sel.rows.size(), 1u);
  EXPECT_EQ(sel.rows[0][0].AsInt64(), 60);

  // No statement picks a mount mode: SET MOUNT_MODE is a clean parse
  // error and the session carries on.
  auto mode = session_->ExecuteStatement("SET MOUNT_MODE = LAZY");
  ASSERT_FALSE(mode.ok());
  EXPECT_TRUE(mode.status().IsInvalidArgument()) << mode.status().ToString();
  EXPECT_NE(mode.status().message().find("[statement:"), std::string::npos)
      << mode.status().ToString();
  SqlResult after = MustExecute("SELECT COUNT(*) FROM emp");
  ASSERT_EQ(after.rows.size(), 1u);
  EXPECT_EQ(after.rows[0][0].AsInt64(), 40);
}

}  // namespace
}  // namespace rewinddb
