// TPC-C-shaped transactions driven through the public Connection calls,
// the benchmark's own model of what they should have done, and the
// checks that compare the database against that model.
#ifndef RWBENCH_TPCC_OPS_H_
#define RWBENCH_TPCC_OPS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/connection.h"
#include "api/read_view.h"
#include "common/random.h"
#include "common/status.h"
#include "engine/table.h"

namespace rwbench {

using rewinddb::Connection;
using rewinddb::ReadView;
using rewinddb::Result;
using rewinddb::Row;
using rewinddb::Status;

/// STOCK-LEVEL's threshold: items of the district's last 20 orders
/// whose stock is below it are counted.
constexpr int kStockThreshold = 20;

/// Size of the loaded TPC-C database.
struct Shape {
  int warehouses = 2;
  int districts = 10;
  int customers = 30;
  int items = 1000;
};

/// The benchmark's own record of every acknowledged write: next order
/// id per district and quantity per stock row, starting from the
/// loaded state and advanced only when a commit is acknowledged.
struct Model {
  Shape shape;
  std::vector<int32_t> next_o_id;  // [(w-1) * districts + (d-1)]
  std::vector<int32_t> stock;      // [(w-1) * items + (i-1)]
  int32_t& NextOrder(int w, int d) {
    return next_o_id[(w - 1) * shape.districts + (d - 1)];
  }
  int32_t& Stock(int w, int i) { return stock[(w - 1) * shape.items + (i - 1)]; }
  int32_t NextOrder(int w, int d) const {
    return next_o_id[(w - 1) * shape.districts + (d - 1)];
  }
  int32_t Stock(int w, int i) const {
    return stock[(w - 1) * shape.items + (i - 1)];
  }
};

/// TPC-C's stock rule (clause 2.4.2.2): take the ordered quantity, and
/// restock by 91 when fewer than 10 would remain.
inline int32_t StockAfterOrder(int32_t quantity, int32_t ordered) {
  return quantity >= ordered + 10 ? quantity - ordered
                                  : quantity - ordered + 91;
}

/// Reads the loaded state into a fresh model.
Result<Model> ReadModel(ReadView* view, const Shape& shape);

/// The row operations a transaction body needs. One implementation
/// goes through Connection (every timed transaction), the other
/// through the engine's Table handles (the transaction left in flight
/// at a crash, which has no RAII handle to abort it afterwards).
class TxnOps {
 public:
  virtual ~TxnOps() = default;
  virtual Result<Row> Get(const char* table, const Row& key) = 0;
  virtual Status Insert(const char* table, const Row& row) = 0;
  virtual Status Update(const char* table, const Row& row) = 0;
};

/// TxnOps over a Connection and one of its Txns; every call is a span.
class ConnectionOps : public TxnOps {
 public:
  ConnectionOps(Connection* conn, rewinddb::Txn* txn)
      : conn_(conn), txn_(txn) {}
  Result<Row> Get(const char* table, const Row& key) override;
  Status Insert(const char* table, const Row& row) override;
  Status Update(const char* table, const Row& row) override;

 private:
  Connection* conn_;
  rewinddb::Txn* txn_;
};

/// TxnOps over the engine's tables under a raw transaction.
class EngineOps : public TxnOps {
 public:
  EngineOps(rewinddb::Database* db, rewinddb::Transaction* txn)
      : db_(db), txn_(txn) {}
  Result<Row> Get(const char* table, const Row& key) override;
  Status Insert(const char* table, const Row& row) override;
  Status Update(const char* table, const Row& row) override;

 private:
  Result<rewinddb::Table*> Open(const char* table);

  rewinddb::Database* db_;
  rewinddb::Transaction* txn_;
  std::vector<std::pair<std::string, std::unique_ptr<rewinddb::Table>>>
      tables_;
};

/// One order as the generator drew it.
struct OrderInput {
  int w = 1;
  int d = 1;
  int customer = 1;
  std::vector<std::pair<int, int>> lines;  // (item, quantity)
};

struct PaymentInput {
  int w = 1;
  int d = 1;
  int customer = 1;
  int64_t history_seq = 0;
  double amount = 0;  // whole units, so sums stay exact
};

OrderInput DrawOrder(rewinddb::Random* rnd, const Shape& shape, int w);
PaymentInput DrawPayment(rewinddb::Random* rnd, const Shape& shape, int w,
                         int64_t history_seq);

/// NEW-ORDER's writes without the commit. `o_id` receives the order id
/// the district handed out.
Status NewOrderBody(TxnOps* ops, const OrderInput& in, int32_t* o_id);
Status PaymentBody(TxnOps* ops, const PaymentInput& in);

/// Applies an acknowledged order to the model.
void ApplyOrder(Model* model, const OrderInput& in);

/// The answer of the probe query (STOCK-LEVEL on one district) at one
/// instant: the district's next order id, which moves with every order
/// there, and the low-stock count.
struct Answer {
  int32_t next_o_id = 0;
  int32_t low_stock = 0;
  bool operator==(const Answer& o) const {
    return next_o_id == o.next_o_id && low_stock == o.low_stock;
  }
};

/// STOCK-LEVEL hand-coded through TableView calls.
Result<Answer> HandStockLevel(ReadView* view, int w, int d);

/// STOCK-LEVEL as two SQL statements: the district's next order id,
/// then the join + distinct count over its last 20 orders.
Result<Answer> SqlStockLevel(ReadView* view, int w, int d);
/// The second statement's text, for a plan-only (EXPLAIN) timing.
std::string StockLevelSql(int w, int d, int32_t next_o_id);

// ------------------------------ checks ---------------------------------

/// Fails unless `got` equals `expected`; `what` names the comparison.
Status CheckAnswer(const Answer& got, const Answer& expected,
                   const std::string& what);

/// Fails unless every district's next order id and every stock row in
/// `view` equal the model.
Status CheckAgainstModel(ReadView* view, const Model& expected);

/// Fails unless the order (w, d, o_id) is absent from `view`.
Status CheckOrderAbsent(ReadView* view, int w, int d, int32_t o_id);

}  // namespace rwbench

#endif  // RWBENCH_TPCC_OPS_H_
