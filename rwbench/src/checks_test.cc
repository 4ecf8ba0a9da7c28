// Each correctness check of the benchmark must pass on the right
// expected value and fail when handed a wrong one: a tally off by one,
// an uncommitted order that survived, an AS OF answer from a different
// instant.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>

#include "api/connection.h"
#include "common/clock.h"
#include "common/random.h"
#include "tpcc/tpcc.h"
#include "tpcc_ops.h"

namespace rwbench {
namespace {

class ChecksTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("rwbench_checks_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
    rewinddb::DatabaseOptions opts;
    opts.clock = &clock_;
    auto conn = Connection::Create(dir_, opts);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    conn_ = std::move(*conn);
    rewinddb::TpccConfig tc;
    tc.warehouses = shape_.warehouses = 1;
    tc.items = shape_.items = 50;
    tc.districts_per_warehouse = shape_.districts;
    tc.customers_per_district = shape_.customers;
    ASSERT_TRUE(
        rewinddb::TpccDatabase::CreateAndLoad(conn_->engine(), tc).ok());
    auto live = conn_->Live();
    auto model = ReadModel(live.get(), shape_);
    ASSERT_TRUE(model.ok());
    model_ = *model;
  }

  void TearDown() override {
    conn_.reset();
    std::filesystem::remove_all(dir_);
  }

  /// Commits one order through Connection and applies it to the model.
  OrderInput CommitOrder(int d) {
    clock_.Advance(1000);
    OrderInput in = DrawOrder(&rnd_, shape_, 1);
    in.d = d;
    rewinddb::Txn txn = conn_->Begin();
    ConnectionOps ops(conn_.get(), &txn);
    int32_t o_id = 0;
    EXPECT_TRUE(NewOrderBody(&ops, in, &o_id).ok());
    EXPECT_EQ(o_id, model_.NextOrder(1, d));
    EXPECT_TRUE(txn.Commit().ok());
    ApplyOrder(&model_, in);
    return in;
  }

  std::string dir_;
  rewinddb::SimClock clock_;
  std::unique_ptr<Connection> conn_;
  Shape shape_;
  Model model_;
  rewinddb::Random rnd_{7};
};

TEST_F(ChecksTest, ModelCheckRejectsATallyOffByOne) {
  const OrderInput in = CommitOrder(3);
  auto live = conn_->Live();
  ASSERT_TRUE(CheckAgainstModel(live.get(), model_).ok());

  Model orders_off = model_;
  orders_off.NextOrder(1, 3)--;  // one acknowledged order not tallied
  EXPECT_FALSE(CheckAgainstModel(live.get(), orders_off).ok());

  Model stock_off = model_;
  stock_off.Stock(1, in.lines.front().first) += 1;
  EXPECT_FALSE(CheckAgainstModel(live.get(), stock_off).ok());
}

TEST_F(ChecksTest, OrderAbsentCheckRejectsACommittedOrder) {
  const int32_t o_id = model_.NextOrder(1, 2);
  auto live = conn_->Live();
  EXPECT_TRUE(CheckOrderAbsent(live.get(), 1, 2, o_id).ok());
  CommitOrder(2);
  EXPECT_FALSE(CheckOrderAbsent(live.get(), 1, 2, o_id).ok());
}

TEST_F(ChecksTest, AsOfCheckRejectsAnAnswerFromAnotherInstant) {
  // Instants one microsecond past a commit stamp, as the benchmark
  // records them, each with the live answer at that instant.
  CommitOrder(1);
  clock_.Advance(1);
  const rewinddb::WallClock t1 = clock_.NowMicros();
  auto live = conn_->Live();
  auto at_t1 = HandStockLevel(live.get(), 1, 1);
  ASSERT_TRUE(at_t1.ok());
  for (int i = 0; i < 3; i++) CommitOrder(1);
  clock_.Advance(1);
  auto at_t2 = HandStockLevel(live.get(), 1, 1);
  ASSERT_TRUE(at_t2.ok());
  ASSERT_FALSE(*at_t1 == *at_t2);
  clock_.Advance(1000);

  auto past = conn_->AsOf(t1);
  ASSERT_TRUE(past.ok()) << past.status().ToString();
  auto sql = SqlStockLevel(past->get(), 1, 1);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  auto hand = HandStockLevel(past->get(), 1, 1);
  ASSERT_TRUE(hand.ok());
  EXPECT_TRUE(CheckAnswer(*sql, *at_t1, "AS OF SQL").ok());
  EXPECT_TRUE(CheckAnswer(*hand, *at_t1, "AS OF hand-coded").ok());
  EXPECT_FALSE(CheckAnswer(*sql, *at_t2, "AS OF SQL").ok());
  EXPECT_FALSE(CheckAnswer(*hand, *at_t2, "AS OF hand-coded").ok());

  Answer low_off = *at_t1;
  low_off.low_stock++;
  EXPECT_FALSE(CheckAnswer(*sql, low_off, "AS OF SQL").ok());
}

TEST_F(ChecksTest, LiveSqlAgreesWithHandCoded) {
  for (int i = 0; i < 5; i++) CommitOrder(4);
  auto live = conn_->Live();
  auto sql = SqlStockLevel(live.get(), 1, 4);
  auto hand = HandStockLevel(live.get(), 1, 4);
  ASSERT_TRUE(sql.ok() && hand.ok());
  EXPECT_TRUE(CheckAnswer(*sql, *hand, "live").ok());
  EXPECT_EQ(sql->next_o_id, model_.NextOrder(1, 4));
}

TEST(StockRule, RestocksBelowTen) {
  EXPECT_EQ(StockAfterOrder(50, 5), 45);
  EXPECT_EQ(StockAfterOrder(14, 5), 9 + 91);
  EXPECT_EQ(StockAfterOrder(15, 5), 10);
}

}  // namespace
}  // namespace rwbench
