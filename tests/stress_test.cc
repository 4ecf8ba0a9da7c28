// Stress and failure-injection scenarios: concurrent snapshot queries
// racing the background sweeper, snapshots with disabled log cache,
// rewinding through recovery CLRs, snapshots under tiny buffer pools,
// and repeated drop/recreate cycles over the same pages.
#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <thread>

#include "common/random.h"
#include "engine/database.h"
#include "engine/table.h"
#include "snapshot/asof_snapshot.h"

namespace rewinddb {
namespace {

constexpr uint64_t kSecond = 1'000'000;

Schema KvSchema() {
  return Schema({{"id", ColumnType::kInt32}, {"val", ColumnType::kString}},
                1);
}

class StressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() / "rewinddb_stress" /
            ::testing::UnitTest::GetInstance()->current_test_info()->name())
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  void Create(DatabaseOptions opts) {
    auto db = Database::Create(dir_, opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    Transaction* txn = db_->Begin();
    ASSERT_TRUE(db_->CreateTable(txn, "t", KvSchema()).ok());
    ASSERT_TRUE(db_->Commit(txn).ok());
  }

  std::string dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(StressTest, QueriesRaceBackgroundSweep) {
  // Many uncommitted rows at the split point; several reader threads
  // immediately hammer the snapshot while the sweeper erases the
  // losers. Readers must only ever see committed pre-split state.
  SimClock clock(10 * kSecond);
  DatabaseOptions opts;
  opts.clock = &clock;
  Create(opts);
  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  Transaction* committed = db_->Begin();
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(table->Insert(committed, {i, std::string("good")}).ok());
  }
  ASSERT_TRUE(db_->Commit(committed).ok());
  clock.Advance(kSecond);

  Transaction* loser = db_->Begin();
  for (int i = 0; i < 150; i++) {
    ASSERT_TRUE(
        table->Update(loser, {i * 2, std::string("uncommitted")}).ok());
  }
  for (int i = 1000; i < 1080; i++) {
    ASSERT_TRUE(table->Insert(loser, {i, std::string("phantom")}).ok());
  }
  clock.Advance(kSecond);
  Transaction* bump = db_->Begin();
  ASSERT_TRUE(table->Insert(bump, {5000, std::string("bump")}).ok());
  ASSERT_TRUE(db_->Commit(bump).ok());
  WallClock t = clock.NowMicros();

  auto snap = AsOfSnapshot::Create(db_.get(), "race", t);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; r++) {
    readers.emplace_back([&, r] {
      auto st = (*snap)->OpenTable("t");
      if (!st.ok()) {
        violations++;
        return;
      }
      Random rnd(100 + r);
      for (int q = 0; q < 60; q++) {
        int key = static_cast<int>(rnd.Uniform(300));
        auto row = st->Get({key});
        if (!row.ok() || (*row)[1].AsString() != "good") violations++;
        int phantom = 1000 + static_cast<int>(rnd.Uniform(80));
        if (!st->Get({phantom}).status().IsNotFound()) violations++;
      }
      // A full scan racing undo must also be clean.
      int count = 0;
      Status s = st->Scan(std::nullopt, std::nullopt, [&](const Row& row) {
        if (row[1].AsString() != "good" && row[1].AsString() != "bump") {
          violations++;
        }
        count++;
        return true;
      });
      if (!s.ok() || count != 301) violations++;
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(violations.load(), 0);
  ASSERT_TRUE((*snap)->WaitForUndo().ok());
  // Stable only now: the analysis that counts the losers runs in the
  // background sweeper.
  EXPECT_GE((*snap)->creation_stats().loser_transactions, 1u);
  ASSERT_TRUE(db_->Commit(loser).ok());
  // The SimClock above dies with this scope; release the snapshot (it
  // unregisters its anchor against the engine) and then the engine
  // (whose close-checkpoint stamps wall clock) before either dangles.
  snap->reset();
  db_.reset();
}

TEST_F(StressTest, SnapshotWorksWithLogCacheDisabled) {
  SimClock clock(10 * kSecond);
  DatabaseOptions opts;
  opts.clock = &clock;
  opts.log_cache_blocks = 0;  // every log fetch is a device read
  Create(opts);
  auto table = db_->OpenTable("t");
  clock.Advance(kSecond);
  Transaction* a = db_->Begin();
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(table->Insert(a, {i, std::string("v1")}).ok());
  }
  ASSERT_TRUE(db_->Commit(a).ok());
  clock.Advance(kSecond);
  WallClock t = clock.NowMicros();
  clock.Advance(kSecond);
  Transaction* b = db_->Begin();
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(table->Update(b, {i, std::string("v2")}).ok());
  }
  ASSERT_TRUE(db_->Commit(b).ok());

  auto snap = AsOfSnapshot::Create(db_.get(), "nocache", t);
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE((*snap)->WaitForUndo().ok());
  auto st = (*snap)->OpenTable("t");
  ASSERT_TRUE(st.ok());
  uint64_t misses0 = db_->stats()->log_read_misses.load();
  auto row = st->Get({50});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsString(), "v1");
  EXPECT_GT(db_->stats()->log_read_misses.load(), misses0)
      << "with no cache, chain walks hit the device";
  // The SimClock above dies with this scope; release the snapshot (it
  // unregisters its anchor against the engine) and then the engine
  // (whose close-checkpoint stamps wall clock) before either dangles.
  snap->reset();
  db_.reset();
}

TEST_F(StressTest, RewindThroughRecoveryClrs) {
  // History: commit "before" state; crash with an in-flight transaction;
  // recovery writes CLRs; then more committed work. A snapshot between
  // the CLRs and now must rewind THROUGH the compensation records --
  // possible precisely because RewindDB's CLRs carry undo information
  // (paper section 4.2(2)).
  SimClock clock(10 * kSecond);
  DatabaseOptions opts;
  opts.clock = &clock;
  Create(opts);
  {
    auto table = db_->OpenTable("t");
    Transaction* a = db_->Begin();
    for (int i = 0; i < 50; i++) {
      ASSERT_TRUE(table->Insert(a, {i, std::string("before")}).ok());
    }
    ASSERT_TRUE(db_->Commit(a).ok());
    Transaction* loser = db_->Begin();
    for (int i = 0; i < 50; i++) {
      ASSERT_TRUE(table->Update(loser, {i, std::string("doomed")}).ok());
    }
    ASSERT_TRUE(db_->log()->FlushAll().ok());
    db_->SimulateCrash();
  }
  db_.reset();
  {
    auto db = Database::Open(dir_, opts);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
  }
  EXPECT_TRUE(db_->recovered_from_crash());
  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  clock.Advance(kSecond);
  WallClock after_recovery = clock.NowMicros();
  clock.Advance(kSecond);
  Transaction* c = db_->Begin();
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(table->Update(c, {i, std::string("after")}).ok());
  }
  ASSERT_TRUE(db_->Commit(c).ok());

  auto snap = AsOfSnapshot::Create(db_.get(), "overclr", after_recovery);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ASSERT_TRUE((*snap)->WaitForUndo().ok());
  auto st = (*snap)->OpenTable("t");
  ASSERT_TRUE(st.ok());
  for (int i = 0; i < 50; i += 7) {
    auto row = st->Get({i});
    ASSERT_TRUE(row.ok()) << i;
    EXPECT_EQ((*row)[1].AsString(), "before")
        << "rewind across recovery CLRs must land on committed state";
  }
  // The SimClock above dies with this scope; release the snapshot (it
  // unregisters its anchor against the engine) and then the engine
  // (whose close-checkpoint stamps wall clock) before either dangles.
  snap->reset();
  db_.reset();
}

TEST_F(StressTest, TinyBufferPoolsStillCorrect) {
  SimClock clock(10 * kSecond);
  DatabaseOptions opts;
  opts.clock = &clock;
  opts.buffer_pool_pages = 24;  // brutal: constant eviction
  Create(opts);
  auto table = db_->OpenTable("t");
  clock.Advance(kSecond);
  Transaction* a = db_->Begin();
  for (int i = 0; i < 600; i++) {
    ASSERT_TRUE(table->Insert(a, {i, std::string(80, 'x')}).ok()) << i;
  }
  ASSERT_TRUE(db_->Commit(a).ok());
  clock.Advance(kSecond);
  WallClock t = clock.NowMicros();
  clock.Advance(kSecond);
  Transaction* b = db_->Begin();
  for (int i = 0; i < 600; i += 2) {
    ASSERT_TRUE(table->Delete(b, Row{i}).ok());
  }
  ASSERT_TRUE(db_->Commit(b).ok());
  EXPECT_EQ(*table->Count(), 300u);

  auto snap = AsOfSnapshot::Create(db_.get(), "tiny", t);
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE((*snap)->WaitForUndo().ok());
  auto st = (*snap)->OpenTable("t");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(*st->Count(), 600u);
  // The SimClock above dies with this scope; release the snapshot (it
  // unregisters its anchor against the engine) and then the engine
  // (whose close-checkpoint stamps wall clock) before either dangles.
  snap->reset();
  db_.reset();
}

TEST_F(StressTest, RepeatedDropRecreateCyclesKeepHistoryReachable) {
  // The same pages get deallocated and re-allocated over and over; each
  // generation's preformat record must keep every older generation
  // reachable for as-of queries.
  SimClock clock(10 * kSecond);
  DatabaseOptions opts;
  opts.clock = &clock;
  auto db = Database::Create(dir_, opts);
  ASSERT_TRUE(db.ok());
  db_ = std::move(*db);

  std::vector<WallClock> marks;
  for (int gen = 0; gen < 4; gen++) {
    Transaction* ddl = db_->Begin();
    ASSERT_TRUE(db_->CreateTable(ddl, "g", KvSchema()).ok());
    ASSERT_TRUE(db_->Commit(ddl).ok());
    auto table = db_->OpenTable("g");
    Transaction* fill = db_->Begin();
    for (int i = 0; i < 200; i++) {
      ASSERT_TRUE(
          table->Insert(fill, {i, "gen" + std::to_string(gen)}).ok());
    }
    ASSERT_TRUE(db_->Commit(fill).ok());
    clock.Advance(kSecond);
    marks.push_back(clock.NowMicros());
    clock.Advance(kSecond);
    Transaction* drop = db_->Begin();
    ASSERT_TRUE(db_->DropTable(drop, "g").ok());
    ASSERT_TRUE(db_->Commit(drop).ok());
    clock.Advance(kSecond);
  }
  // Every generation is recoverable, each with its own contents.
  for (int gen = 0; gen < 4; gen++) {
    auto snap = AsOfSnapshot::Create(db_.get(), "gen" + std::to_string(gen),
                                     marks[static_cast<size_t>(gen)]);
    ASSERT_TRUE(snap.ok()) << gen << ": " << snap.status().ToString();
    ASSERT_TRUE((*snap)->WaitForUndo().ok());
    auto st = (*snap)->OpenTable("g");
    ASSERT_TRUE(st.ok()) << gen;
    EXPECT_EQ(*st->Count(), 200u) << gen;
    auto row = st->Get({77});
    ASSERT_TRUE(row.ok()) << gen;
    EXPECT_EQ((*row)[1].AsString(), "gen" + std::to_string(gen));
  }
  // The SimClock above dies with this scope; release the engine (whose
  // close-checkpoint stamps wall clock) before it dangles.
  db_.reset();
}

TEST_F(StressTest, GrowShrinkUpdateCyclesRewindExactly) {
  // Updates that bounce row sizes force in-place replaces, relocations
  // and delete+reinsert paths; the rewinder must reverse all of them.
  SimClock clock(10 * kSecond);
  DatabaseOptions opts;
  opts.clock = &clock;
  opts.fpi_period = 8;
  Create(opts);
  auto table = db_->OpenTable("t");
  Random rnd(9);
  std::vector<std::pair<WallClock, std::map<int, std::string>>> history;
  std::map<int, std::string> state;
  Transaction* seed = db_->Begin();
  for (int i = 0; i < 40; i++) {
    std::string v = rnd.AlphaString(1, 10);
    ASSERT_TRUE(table->Insert(seed, {i, v}).ok());
    state[i] = v;
  }
  ASSERT_TRUE(db_->Commit(seed).ok());
  clock.Advance(1);
  history.push_back({clock.NowMicros(), state});
  for (int round = 0; round < 8; round++) {
    clock.Advance(kSecond);
    Transaction* txn = db_->Begin();
    for (int i = 0; i < 40; i++) {
      // Alternate tiny and huge values.
      std::string v = round % 2 == 0 ? rnd.AlphaString(300, 600)
                                     : rnd.AlphaString(1, 8);
      ASSERT_TRUE(table->Update(txn, {i, v}).ok()) << round << "," << i;
      state[i] = v;
    }
    ASSERT_TRUE(db_->Commit(txn).ok());
    clock.Advance(1);
    history.push_back({clock.NowMicros(), state});
  }
  for (size_t p = 0; p < history.size(); p += 2) {
    auto snap = AsOfSnapshot::Create(db_.get(), "gs" + std::to_string(p),
                                     history[p].first);
    ASSERT_TRUE(snap.ok());
    ASSERT_TRUE((*snap)->WaitForUndo().ok());
    auto st = (*snap)->OpenTable("t");
    ASSERT_TRUE(st.ok());
    std::map<int, std::string> got;
    ASSERT_TRUE(st->Scan(std::nullopt, std::nullopt, [&](const Row& row) {
                    got[row[0].AsInt32()] = row[1].AsString();
                    return true;
                  })
                    .ok());
    EXPECT_EQ(got, history[p].second) << "round " << p;
  }
  // The SimClock above dies with this scope; release the engine (whose
  // close-checkpoint stamps wall clock) before it dangles.
  db_.reset();
}

}  // namespace
}  // namespace rewinddb
