// Deterministic fuzz of the SQL parser and executor: mutated and
// garbage statements must never crash the process, and every failed
// statement must keep the [statement: "..."] error contract that wire
// clients rely on to attribute errors in a pipelined batch.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "api/connection.h"
#include "common/clock.h"
#include "sql/parser.h"
#include "sql/session.h"

namespace rewinddb {
namespace {

/// Deterministic 64-bit LCG so failures reproduce by re-running the
/// test -- no seeding from time or hardware.
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    s_ = s_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return s_ >> 17;
  }
  uint64_t Below(uint64_t n) { return n ? Next() % n : 0; }

 private:
  uint64_t s_;
};

const char* kSeedCorpus[] = {
    "SELECT id, name FROM items WHERE id >= 3 AND id < 9",
    "SELECT i.id, j.name FROM items i JOIN items j ON i.id = j.id "
    "WHERE i.id % 2 = 0",
    "SELECT name, COUNT(*) AS c, SUM(id), MIN(id), MAX(id), AVG(id) "
    "FROM items GROUP BY name HAVING COUNT(*) > 0 ORDER BY c DESC "
    "LIMIT 5",
    "SELECT DISTINCT name FROM items ORDER BY name",
    "SELECT * FROM items WHERE name = 'n1' OR NOT (id <= 2) AS OF "
    "123456789",
    "EXPLAIN SELECT id FROM items WHERE id = 1",
    "SELECT id + 1 * 2 - 3 / 4, -id, NULL, id IS NOT NULL FROM items",
    "CREATE INDEX items_by_name ON items (name)",
    "DROP INDEX items_by_name",
    "SELECT id FROM items SNAPSHOT OF nosuch",
    "SHOW STATS",
    "CREATE TABLE t2 (a INT64, b STRING, PRIMARY KEY (a))",
    "INSERT INTO items VALUES (999, 'x')",
    "FLASHBACK TRANSACTION 7",
};

const char kNoise[] =
    " \t\n()*,.;'\"=<>!+-/%_0123456789abcXYZ\x80\xff\x01SELECTFROMNULL";

std::string Mutate(const std::string& base, Lcg& rng) {
  std::string s = base;
  switch (rng.Below(6)) {
    case 0:  // truncate
      if (!s.empty()) s.resize(rng.Below(s.size()));
      break;
    case 1: {  // splice two corpus entries
      const std::string other =
          kSeedCorpus[rng.Below(std::size(kSeedCorpus))];
      size_t cut = s.empty() ? 0 : rng.Below(s.size());
      size_t cut2 = other.empty() ? 0 : rng.Below(other.size());
      s = s.substr(0, cut) + other.substr(cut2);
      break;
    }
    case 2: {  // inject random bytes
      for (int i = 0; i < 4; i++) {
        size_t at = s.empty() ? 0 : rng.Below(s.size());
        s.insert(at, 1, kNoise[rng.Below(sizeof(kNoise) - 1)]);
      }
      break;
    }
    case 3: {  // duplicate a token-ish span
      if (s.size() > 4) {
        size_t at = rng.Below(s.size() - 2);
        size_t len = 1 + rng.Below(std::min<size_t>(10, s.size() - at));
        s.insert(at, s.substr(at, len));
      }
      break;
    }
    case 4: {  // flip case of a region
      for (size_t i = rng.Below(s.size() + 1); i < s.size(); i++) {
        char c = s[i];
        if (c >= 'a' && c <= 'z') s[i] = static_cast<char>(c - 32);
        else if (c >= 'A' && c <= 'Z') s[i] = static_cast<char>(c + 32);
      }
      break;
    }
    default: {  // delete a span
      if (s.size() > 2) {
        size_t at = rng.Below(s.size() - 1);
        s.erase(at, 1 + rng.Below(s.size() - at));
      }
      break;
    }
  }
  return s;
}

TEST(SqlFuzzTest, ParserNeverCrashesOnMutatedInput) {
  Lcg rng(0xfeedface);
  for (int i = 0; i < 20000; i++) {
    std::string s = kSeedCorpus[rng.Below(std::size(kSeedCorpus))];
    int hops = 1 + static_cast<int>(rng.Below(4));
    for (int h = 0; h < hops; h++) s = Mutate(s, rng);
    Result<SqlCommand> r = ParseSql(s);
    if (!r.ok()) {
      EXPECT_NE(r.status().message().find("[statement:"), std::string::npos)
          << "input: " << s << " -> " << r.status().message();
    }
  }
}

TEST(SqlFuzzTest, ExecutorNeverCrashesAndErrorsKeepContract) {
  std::string dir =
      (std::filesystem::temp_directory_path() / "rewinddb_sql_fuzz")
          .string();
  std::filesystem::remove_all(dir);
  auto conn_r = Connection::Create(dir, DatabaseOptions{});
  ASSERT_TRUE(conn_r.ok()) << conn_r.status().ToString();
  std::unique_ptr<Connection> conn = std::move(*conn_r);
  ASSERT_TRUE(conn->CreateTable("items",
                                Schema({{"id", ColumnType::kInt64},
                                        {"name", ColumnType::kString}},
                                       1))
                  .ok());
  {
    Txn txn = conn->Begin();
    for (int64_t i = 0; i < 20; i++) {
      ASSERT_TRUE(
          conn->Insert(txn, "items", {i, "n" + std::to_string(i % 4)})
              .ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  SqlSession session(conn.get());

  Lcg rng(0xdecafbad);
  int failures = 0;
  for (int i = 0; i < 4000; i++) {
    std::string s = kSeedCorpus[rng.Below(std::size(kSeedCorpus))];
    int hops = static_cast<int>(rng.Below(4));  // 0 hops = valid corpus
    for (int h = 0; h < hops; h++) s = Mutate(s, rng);
    Result<SqlResult> r = session.ExecuteStatement(s);
    if (!r.ok()) {
      failures++;
      EXPECT_NE(r.status().message().find("[statement:"), std::string::npos)
          << "input: " << s << " -> " << r.status().message();
    }
  }
  // Sanity: the fuzz actually exercised both paths.
  EXPECT_GT(failures, 100);
  EXPECT_LT(failures, 4000);

  conn.reset();
  std::filesystem::remove_all(dir);
}

// Time-travel fuzz against on-demand mounted views: random AS OF /
// SNAPSHOT OF statements (valid times, out-of-range times, missing
// snapshot names, create/drop races of named snapshots) across two
// sessions sharing one connection. Must never crash, every error must
// keep the [statement: ...] contract, and the two sessions must never
// confuse each other's view handles -- a named snapshot reads
// identically from both regardless of which session created it.
TEST(SqlFuzzTest, LazyTimeTravelFuzz) {
  std::string dir =
      (std::filesystem::temp_directory_path() / "rewinddb_sql_fuzz_lazy")
          .string();
  std::filesystem::remove_all(dir);
  SimClock clock(10'000'000);
  DatabaseOptions opts;
  opts.clock = &clock;
  auto conn_r = Connection::Create(dir, opts);
  ASSERT_TRUE(conn_r.ok()) << conn_r.status().ToString();
  std::unique_ptr<Connection> conn = std::move(*conn_r);
  ASSERT_TRUE(conn->CreateTable("items",
                                Schema({{"id", ColumnType::kInt64},
                                        {"name", ColumnType::kString}},
                                       1))
                  .ok());
  // A few committed epochs so historical targets resolve to different
  // states, then churn so lazy mounts have real recovery work.
  std::vector<WallClock> epochs;
  for (int e = 0; e < 5; e++) {
    clock.Advance(2'000'000);
    Txn txn = conn->Begin();
    for (int64_t i = e * 10; i < e * 10 + 10; i++) {
      ASSERT_TRUE(
          conn->Insert(txn, "items", {i, "e" + std::to_string(e)}).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
    clock.Advance(1);
    epochs.push_back(clock.NowMicros());
  }
  clock.Advance(2'000'000);

  SqlSession a(conn.get());
  SqlSession b(conn.get());

  const char* kSnapNames[] = {"s0", "s1", "nosuch"};
  Lcg rng(0xabad1dea);
  int failures = 0;
  for (int i = 0; i < 1500; i++) {
    SqlSession& sess = rng.Below(2) ? a : b;
    std::string stmt;
    switch (rng.Below(7)) {
      case 0: {  // AS OF a valid epoch
        stmt = "SELECT COUNT(*) FROM items AS OF " +
               std::to_string(epochs[rng.Below(epochs.size())]);
        break;
      }
      case 1:  // AS OF garbage times: far past / future / zero
        stmt = "SELECT id FROM items AS OF " +
               std::to_string(rng.Below(3) * 7'777'777'777ULL);
        break;
      case 2:
        stmt = std::string("SELECT name FROM items SNAPSHOT OF ") +
               kSnapNames[rng.Below(std::size(kSnapNames))];
        break;
      case 3:
        stmt = std::string("CREATE DATABASE ") +
               kSnapNames[rng.Below(2)] + " AS SNAPSHOT OF db AS OF " +
               std::to_string(epochs[rng.Below(epochs.size())]);
        break;
      case 4:
        stmt = std::string("DROP DATABASE ") +
               kSnapNames[rng.Below(std::size(kSnapNames))];
        break;
      case 5:  // malformed time-travel tails
        stmt = std::string("SELECT id FROM items ") +
               (rng.Below(2) ? "AS OF" : "SNAPSHOT OF 123 45");
        break;
      default: {  // mutated time-travel statement
        stmt = "SELECT id, name FROM items AS OF " +
               std::to_string(epochs.back());
        stmt = Mutate(stmt, rng);
        break;
      }
    }
    Result<SqlResult> r = sess.ExecuteStatement(stmt);
    if (!r.ok()) {
      failures++;
      EXPECT_NE(r.status().message().find("[statement:"), std::string::npos)
          << "input: " << stmt << " -> " << r.status().message();
    }
  }
  EXPECT_GT(failures, 50);    // out-of-range + garbage really failed
  EXPECT_LT(failures, 1500);  // and plenty succeeded

  // No cross-session handle confusion: a named snapshot created by one
  // session serves the same rows to both.
  (void)a.Execute("DROP DATABASE probe");
  auto created = a.Execute("CREATE DATABASE probe AS SNAPSHOT OF db AS OF " +
                           std::to_string(epochs[2]));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto ra = a.ExecuteStatement("SELECT COUNT(*) FROM items SNAPSHOT OF probe");
  auto rb = b.ExecuteStatement("SELECT COUNT(*) FROM items SNAPSHOT OF probe");
  ASSERT_TRUE(ra.ok() && rb.ok());
  ASSERT_EQ(ra->rows.size(), 1u);
  EXPECT_EQ(ra->rows[0][0].AsInt64(), 30);  // epochs[2] = after 3 epochs
  EXPECT_EQ(rb->rows[0][0].AsInt64(), 30);

  conn.reset();
  std::filesystem::remove_all(dir);
}

// WAL-diet fuzz: a random DML workload (inserts/updates/deletes, some
// transactions aborted) committed under randomly flipped SET
// COMMIT_MODE levels with BOTH diet halves on -- flush-batch
// compression and delta FPIs -- mirrored into a plain C++ model per
// committed epoch. Then AS OF queries at random past epochs must match
// the model exactly, from two sessions (the second mount of an epoch
// reads through pages the first published to the shared version
// store): the diet changes how history is stored, never what any
// reader sees.
TEST(SqlFuzzTest, WalDietFuzz) {
  std::string dir =
      (std::filesystem::temp_directory_path() / "rewinddb_sql_fuzz_diet")
          .string();
  std::filesystem::remove_all(dir);
  SimClock clock(10'000'000);
  DatabaseOptions opts;
  opts.clock = &clock;
  opts.wal_compression = true;
  opts.fpi_delta_window_bytes = 1 << 20;
  opts.fpi_period = 4;  // frequent FPIs so delta chains really form
  opts.archive_dir = "";
  auto conn_r = Connection::Create(dir, opts);
  ASSERT_TRUE(conn_r.ok()) << conn_r.status().ToString();
  std::unique_ptr<Connection> conn = std::move(*conn_r);
  ASSERT_TRUE(conn->CreateTable("items",
                                Schema({{"id", ColumnType::kInt64},
                                        {"name", ColumnType::kString}},
                                       1))
                  .ok());
  SqlSession session(conn.get());

  const char* kModes[] = {"SYNC", "GROUP", "ASYNC", "NONE"};
  Lcg rng(0x0d1e70001);
  std::map<int64_t, std::string> model;
  std::vector<std::pair<WallClock, std::map<int64_t, std::string>>> epochs;
  int64_t next_key = 0;
  for (int e = 0; e < 14; e++) {
    ASSERT_TRUE(
        session.Execute(std::string("SET COMMIT_MODE = ") + kModes[rng.Below(4)])
            .ok());
    clock.Advance(1'000'000);
    const bool abort = rng.Below(5) == 0;
    std::map<int64_t, std::string> scratch = model;
    Txn txn = conn->Begin();
    const int ops = 5 + static_cast<int>(rng.Below(20));
    for (int i = 0; i < ops; i++) {
      std::string val = "v" + std::to_string(e) + "." + std::to_string(i) +
                        std::string(40 + rng.Below(60), 'p');
      switch (scratch.empty() ? 0 : rng.Below(3)) {
        case 0: {
          int64_t k = next_key++;
          ASSERT_TRUE(conn->Insert(txn, "items", {k, val}).ok());
          scratch[k] = val;
          break;
        }
        case 1: {
          auto it = scratch.begin();
          std::advance(it, rng.Below(scratch.size()));
          ASSERT_TRUE(conn->Update(txn, "items", {it->first, val}).ok());
          it->second = val;
          break;
        }
        default: {
          auto it = scratch.begin();
          std::advance(it, rng.Below(scratch.size()));
          ASSERT_TRUE(conn->Delete(txn, "items", {it->first}).ok());
          scratch.erase(it);
          break;
        }
      }
    }
    if (abort) {
      ASSERT_TRUE(txn.Abort().ok());
    } else {
      ASSERT_TRUE(txn.Commit().ok());
      model = std::move(scratch);
    }
    clock.Advance(1);
    epochs.push_back({clock.NowMicros(), model});
  }
  ASSERT_TRUE(conn->engine()->log()->FlushAll().ok());

  // The diet really engaged: flush batches became frames and at least
  // one periodic FPI rode the delta path.
  wal::WalStats ws = conn->engine()->log()->stats();
  EXPECT_GT(ws.frames_written, 0u);
  EXPECT_GT(ws.frame_logical_bytes, ws.frame_physical_bytes);
  EXPECT_GT(ws.fpi_delta_hits, 0u);

  auto read_as_of = [&](SqlSession& s, WallClock t) {
    auto r = s.ExecuteStatement(
        "SELECT id, name FROM items ORDER BY id AS OF " + std::to_string(t));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::map<int64_t, std::string> rows;
    if (r.ok()) {
      for (const Row& row : r->rows) {
        rows[row[0].AsInt64()] = row[1].AsString();
      }
    }
    return rows;
  };

  SqlSession first(conn.get());
  SqlSession second(conn.get());
  for (int i = 0; i < 10; i++) {
    const size_t e = rng.Below(epochs.size());
    SCOPED_TRACE("epoch " + std::to_string(e));
    EXPECT_EQ(read_as_of(first, epochs[e].first), epochs[e].second)
        << "first AS OF diverged";
    EXPECT_EQ(read_as_of(second, epochs[e].first), epochs[e].second)
        << "second AS OF diverged";
  }

  conn.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rewinddb
