#include "tpcc_ops.h"

#include <set>

#include "exec/planner.h"
#include "harness.h"
#include "sql/parser.h"
#include "tpcc/tpcc.h"

namespace rwbench {

using rewinddb::Random;

Result<Model> ReadModel(ReadView* view, const Shape& shape) {
  Model m;
  m.shape = shape;
  REWIND_ASSIGN_OR_RETURN(auto district, view->OpenTable("district"));
  REWIND_ASSIGN_OR_RETURN(auto stock, view->OpenTable("stock"));
  for (int w = 1; w <= shape.warehouses; w++) {
    for (int d = 1; d <= shape.districts; d++) {
      REWIND_ASSIGN_OR_RETURN(Row row, district->Get({w, d}));
      m.next_o_id.push_back(row[4].AsInt32());
    }
    for (int i = 1; i <= shape.items; i++) {
      REWIND_ASSIGN_OR_RETURN(Row row, stock->Get({w, i}));
      m.stock.push_back(row[2].AsInt32());
    }
  }
  return m;
}

// ------------------------------ TxnOps ---------------------------------

Result<Row> ConnectionOps::Get(const char* table, const Row& key) {
  ScopedSpan span("api.get");
  return conn_->Get(*txn_, table, key);
}

Status ConnectionOps::Insert(const char* table, const Row& row) {
  ScopedSpan span("api.insert");
  return conn_->Insert(*txn_, table, row);
}

Status ConnectionOps::Update(const char* table, const Row& row) {
  ScopedSpan span("api.update");
  return conn_->Update(*txn_, table, row);
}

Result<rewinddb::Table*> EngineOps::Open(const char* table) {
  for (auto& [name, t] : tables_) {
    if (name == table) return t.get();
  }
  REWIND_ASSIGN_OR_RETURN(rewinddb::Table t, db_->OpenTable(table));
  tables_.emplace_back(table, std::make_unique<rewinddb::Table>(std::move(t)));
  return tables_.back().second.get();
}

Result<Row> EngineOps::Get(const char* table, const Row& key) {
  REWIND_ASSIGN_OR_RETURN(rewinddb::Table * t, Open(table));
  return t->Get(txn_, key);
}

Status EngineOps::Insert(const char* table, const Row& row) {
  REWIND_ASSIGN_OR_RETURN(rewinddb::Table * t, Open(table));
  return t->Insert(txn_, row);
}

Status EngineOps::Update(const char* table, const Row& row) {
  REWIND_ASSIGN_OR_RETURN(rewinddb::Table * t, Open(table));
  return t->Update(txn_, row);
}

// --------------------------- transactions ------------------------------

OrderInput DrawOrder(Random* rnd, const Shape& shape, int w) {
  OrderInput in;
  in.w = w;
  in.d = static_cast<int>(rnd->UniformRange(1, shape.districts));
  in.customer = static_cast<int>(rnd->UniformRange(1, shape.customers));
  const int lines = static_cast<int>(rnd->UniformRange(5, 15));
  std::set<int> seen;  // one line per item, as TPC-C's generator does
  while (static_cast<int>(in.lines.size()) < lines) {
    const int item = static_cast<int>(rnd->UniformRange(1, shape.items));
    if (!seen.insert(item).second) continue;
    in.lines.emplace_back(item, static_cast<int>(rnd->UniformRange(1, 10)));
  }
  return in;
}

PaymentInput DrawPayment(Random* rnd, const Shape& shape, int w,
                         int64_t history_seq) {
  PaymentInput in;
  in.w = w;
  in.d = static_cast<int>(rnd->UniformRange(1, shape.districts));
  in.customer = static_cast<int>(rnd->UniformRange(1, shape.customers));
  in.history_seq = history_seq;
  in.amount = static_cast<double>(rnd->UniformRange(1, 5000));
  return in;
}

Status NewOrderBody(TxnOps* ops, const OrderInput& in, int32_t* o_id) {
  REWIND_ASSIGN_OR_RETURN(Row district, ops->Get("district", {in.w, in.d}));
  *o_id = district[4].AsInt32();
  district[4] = *o_id + 1;
  REWIND_RETURN_IF_ERROR(ops->Update("district", district));
  const int32_t ol_cnt = static_cast<int32_t>(in.lines.size());
  REWIND_RETURN_IF_ERROR(ops->Insert(
      "orders", {in.w, in.d, *o_id, in.customer, ol_cnt, 0, int64_t{0}}));
  REWIND_RETURN_IF_ERROR(ops->Insert("new_order", {in.w, in.d, *o_id}));
  int32_t number = 1;
  for (const auto& [item, qty] : in.lines) {
    REWIND_ASSIGN_OR_RETURN(Row item_row, ops->Get("item", {item}));
    REWIND_ASSIGN_OR_RETURN(Row stock, ops->Get("stock", {in.w, item}));
    stock[2] = StockAfterOrder(stock[2].AsInt32(), qty);
    stock[3] = stock[3].AsDouble() + qty;
    stock[4] = stock[4].AsInt32() + 1;
    REWIND_RETURN_IF_ERROR(ops->Update("stock", stock));
    REWIND_RETURN_IF_ERROR(ops->Insert(
        "order_line", {in.w, in.d, *o_id, number++, item, qty,
                       item_row[2].AsDouble() * qty}));
  }
  return Status::OK();
}

Status PaymentBody(TxnOps* ops, const PaymentInput& in) {
  REWIND_ASSIGN_OR_RETURN(Row warehouse, ops->Get("warehouse", {in.w}));
  warehouse[2] = warehouse[2].AsDouble() + in.amount;
  REWIND_RETURN_IF_ERROR(ops->Update("warehouse", warehouse));
  REWIND_ASSIGN_OR_RETURN(Row district, ops->Get("district", {in.w, in.d}));
  district[3] = district[3].AsDouble() + in.amount;
  REWIND_RETURN_IF_ERROR(ops->Update("district", district));
  REWIND_ASSIGN_OR_RETURN(Row customer,
                          ops->Get("customer", {in.w, in.d, in.customer}));
  customer[4] = customer[4].AsDouble() - in.amount;
  customer[5] = customer[5].AsDouble() + in.amount;
  customer[6] = customer[6].AsInt32() + 1;
  REWIND_RETURN_IF_ERROR(ops->Update("customer", customer));
  return ops->Insert("history", {in.w, in.d, in.customer, in.history_seq,
                                 in.amount});
}

void ApplyOrder(Model* model, const OrderInput& in) {
  model->NextOrder(in.w, in.d)++;
  for (const auto& [item, qty] : in.lines) {
    int32_t& q = model->Stock(in.w, item);
    q = StockAfterOrder(q, qty);
  }
}

// ---------------------------- STOCK-LEVEL ------------------------------

Result<Answer> HandStockLevel(ReadView* view, int w, int d) {
  Answer a;
  {
    REWIND_ASSIGN_OR_RETURN(auto district, view->OpenTable("district"));
    REWIND_ASSIGN_OR_RETURN(Row row, district->Get({w, d}));
    a.next_o_id = row[4].AsInt32();
  }
  REWIND_ASSIGN_OR_RETURN(
      a.low_stock,
      rewinddb::TpccDatabase::StockLevelOn(view, w, d, kStockThreshold));
  return a;
}

std::string StockLevelSql(int w, int d, int32_t next_o_id) {
  const int32_t low = next_o_id - 20 < 1 ? 1 : next_o_id - 20;
  return "SELECT COUNT(DISTINCT ol.ol_i_id) FROM order_line ol "
         "JOIN stock s ON s.s_w_id = ol.ol_w_id AND s.s_i_id = ol.ol_i_id "
         "WHERE ol.ol_w_id = " + std::to_string(w) +
         " AND ol.ol_d_id = " + std::to_string(d) +
         " AND ol.ol_o_id >= " + std::to_string(low) +
         " AND ol.ol_o_id < " + std::to_string(next_o_id) +
         " AND s.s_quantity < " + std::to_string(kStockThreshold);
}

namespace {

Result<rewinddb::exec::SelectOutput> RunSql(ReadView* view,
                                            const std::string& text) {
  ScopedSpan span("sql.query");
  REWIND_ASSIGN_OR_RETURN(rewinddb::SqlCommand cmd, rewinddb::ParseSql(text));
  if (cmd.select == nullptr) {
    return Status::InvalidArgument("not a SELECT: " + text);
  }
  return rewinddb::exec::RunSelect(view, *cmd.select);
}

Result<int64_t> SingleInt(const rewinddb::exec::SelectOutput& out) {
  if (out.rows.size() != 1 || out.rows[0].size() != 1) {
    return Status::Corruption("expected one value, got " +
                              std::to_string(out.rows.size()) + " rows");
  }
  const rewinddb::Value& v = out.rows[0][0];
  return v.type() == rewinddb::ColumnType::kInt32 ? v.AsInt32() : v.AsInt64();
}

}  // namespace

Result<Answer> SqlStockLevel(ReadView* view, int w, int d) {
  Answer a;
  REWIND_ASSIGN_OR_RETURN(
      auto next, RunSql(view, "SELECT d_next_o_id FROM district WHERE d_w_id = " +
                                  std::to_string(w) +
                                  " AND d_id = " + std::to_string(d)));
  REWIND_ASSIGN_OR_RETURN(int64_t next_o_id, SingleInt(next));
  a.next_o_id = static_cast<int32_t>(next_o_id);
  REWIND_ASSIGN_OR_RETURN(auto low,
                          RunSql(view, StockLevelSql(w, d, a.next_o_id)));
  REWIND_ASSIGN_OR_RETURN(int64_t low_stock, SingleInt(low));
  a.low_stock = static_cast<int32_t>(low_stock);
  return a;
}

// ------------------------------ checks ---------------------------------

Status CheckAnswer(const Answer& got, const Answer& expected,
                   const std::string& what) {
  if (got == expected) return Status::OK();
  return Status::Corruption(
      what + ": got (next_o_id " + std::to_string(got.next_o_id) +
      ", low_stock " + std::to_string(got.low_stock) + "), expected (" +
      std::to_string(expected.next_o_id) + ", " +
      std::to_string(expected.low_stock) + ")");
}

Status CheckAgainstModel(ReadView* view, const Model& expected) {
  const Shape& s = expected.shape;
  REWIND_ASSIGN_OR_RETURN(auto district, view->OpenTable("district"));
  REWIND_ASSIGN_OR_RETURN(auto stock, view->OpenTable("stock"));
  for (int w = 1; w <= s.warehouses; w++) {
    for (int d = 1; d <= s.districts; d++) {
      REWIND_ASSIGN_OR_RETURN(Row row, district->Get({w, d}));
      if (row[4].AsInt32() != expected.NextOrder(w, d)) {
        return Status::Corruption(
            "district (" + std::to_string(w) + "," + std::to_string(d) +
            ") next_o_id " + std::to_string(row[4].AsInt32()) +
            ", acknowledged orders give " +
            std::to_string(expected.NextOrder(w, d)));
      }
    }
    for (int i = 1; i <= s.items; i++) {
      REWIND_ASSIGN_OR_RETURN(Row row, stock->Get({w, i}));
      if (row[2].AsInt32() != expected.Stock(w, i)) {
        return Status::Corruption(
            "stock (" + std::to_string(w) + "," + std::to_string(i) +
            ") quantity " + std::to_string(row[2].AsInt32()) +
            ", acknowledged writes give " +
            std::to_string(expected.Stock(w, i)));
      }
    }
  }
  return Status::OK();
}

Status CheckOrderAbsent(ReadView* view, int w, int d, int32_t o_id) {
  REWIND_ASSIGN_OR_RETURN(auto orders, view->OpenTable("orders"));
  Result<Row> row = orders->Get({w, d, o_id});
  if (row.ok()) {
    return Status::Corruption("uncommitted order (" + std::to_string(w) + "," +
                              std::to_string(d) + "," + std::to_string(o_id) +
                              ") survived the restart");
  }
  if (!row.status().IsNotFound()) return row.status();
  return Status::OK();
}

}  // namespace rwbench
