#include "workloads.h"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>

#include "common/clock.h"
#include "exec/planner.h"
#include "snapshot/asof_snapshot.h"
#include "sql/parser.h"
#include "tpcc/tpcc.h"

namespace rwbench {

namespace fs = std::filesystem;
using rewinddb::AsOfSnapshot;
using rewinddb::DatabaseOptions;
using rewinddb::Random;
using rewinddb::Txn;
using rewinddb::WallClock;

Config Config::Quick() {
  Config c;
  c.shape.items = 100;
  c.checkpoint_every = 100;
  c.instant_every = 25;
  c.oltp_episode_txns = 600;
  c.oltp_episodes_per_second = 2;
  c.oltp_probe_rounds = 1;
  c.oltp_restarts = 1;
  c.history_txns = 600;
  c.recent_lo = 25;
  c.recent_hi = 50;
  c.deep_lo = 250;
  c.deep_hi = 300;
  c.trickle_txns = 5;
  c.followups = 2;
  c.restarts = 2;
  c.hot_own_txns = 50;
  return c;
}

namespace {

/// Bytes the log occupies on disk: allocated blocks of the active log
/// and of any archive segment, so punched holes count as saved.
uint64_t AllocatedLogBytes(const std::string& db_dir) {
  uint64_t total = 0;
  auto add = [&](const fs::path& p) {
    struct stat st;
    if (::stat(p.c_str(), &st) == 0) {
      total += static_cast<uint64_t>(st.st_blocks) * 512;
    }
  };
  add(fs::path(db_dir) / "log.rwdb");
  std::error_code ec;
  const fs::path archive = fs::path(db_dir) / "archive";
  if (fs::is_directory(archive, ec)) {
    for (const auto& e : fs::recursive_directory_iterator(archive, ec)) {
      if (e.is_regular_file()) add(e.path());
    }
  }
  return total;
}

/// A recorded AS OF target: a simulated instant at which no writer was
/// inside a transaction, the history position, the probed district and
/// the live answer at that instant.
struct Instant {
  WallClock t = 0;
  int64_t txn_index = 0;
  int w = 1;
  int d = 1;
  Answer answer;
};

struct Writer {
  Writer(int id_, int warehouse_, uint64_t seed)
      : id(id_), warehouse(warehouse_), rnd(seed) {}
  int id;
  int warehouse;  // 0 = any loaded warehouse
  Random rnd;
  int64_t payments = 0;
};

enum ProbeKind { kRecent = 0, kDeep = 1, kRevisit = 2 };

/// Transaction latencies, Begin to acknowledged commit or abort: all
/// of them (collisions too), and NEW-ORDER and PAYMENT apart. Half of
/// the transactions are each kind and a NEW-ORDER takes about seven
/// times as long, so the overall median falls in the gap between the
/// two and moves with every small change in the mix; each kind's own
/// median does not.
struct TxnLatency {
  Samples all;
  Samples new_order;
  Samples payment;
  void Append(const TxnLatency& o) {
    all.Append(o.all);
    new_order.Append(o.new_order);
    payment.Append(o.payment);
  }
};

/// Engine counters at a phase boundary.
struct Counters {
  rewinddb::wal::WalStats wal;
  rewinddb::BufferManager::Stats buffer;
  uint64_t log_allocated = 0;
};

/// Engine counters summed over the measured phases (oltp has one per
/// episode, the others one).
struct Tally {
  uint64_t fsyncs = 0;
  uint64_t flushed_bytes = 0;
  uint64_t wal_bytes = 0;
  uint64_t fpi_bytes = 0;  // page images and their deltas
  uint64_t buffer_hits = 0;
  uint64_t buffer_misses = 0;
  uint64_t buffer_evictions = 0;
  /// Allocated log bytes at each phase's end, and the transactions the
  /// benchmark had committed on that database by then.
  uint64_t log_allocated = 0;
  int64_t log_txns = 0;
};

struct ProbeTotals {
  Samples asof_ms[3];
  /// Per probe: the fastest of its follow-up and of its live queries.
  Samples followup_us;
  Samples live_us;
  uint64_t probes = 0;
  uint64_t records_undone = 0;
  uint64_t fpi_jumps = 0;
  uint64_t log_read_misses = 0;
  uint64_t vs_exact = 0;
  uint64_t vs_partial = 0;
  uint64_t vs_misses = 0;
};

struct RestartTotals {
  Samples restart_ms;
  Samples analysis_ms;
  Samples redo_ms;
  Samples undo_ms;
  Samples redo_records;
  Samples losers;
};

class Bench {
 public:
  Bench(const Config& cfg, std::string dir, uint64_t seed)
      : cfg_(cfg),
        dir_(std::move(dir)),
        db_dir_(dir_ + "/db"),
        seed_(seed),
        instant_rnd_(seed * 7919 + 1),
        probe_rnd_(seed * 104729 + 2) {}

  Status Run(const std::string& workload, double seconds);
  RunResult Report(bool trace, const std::string& trace_out,
                   SteadyClock::time_point process_start);

 private:
  DatabaseOptions Options(rewinddb::Clock* clock) const {
    DatabaseOptions o;
    o.clock = clock;
    // Commits return once the flusher is nudged; it fdatasyncs each
    // group in the background. The benchmark may write only inside its
    // checkout, which can sit on a real disk whose fdatasync latency
    // moves by a third from one minute to the next on a shared host:
    // waiting on it would make every transaction latency the device's.
    // One transaction per checkpoint interval still commits with the
    // engine's default group commit (wal.durable_commit_us), and the
    // crash is preceded by a full flush, so every acknowledged commit
    // is durable.
    o.default_commit_mode = rewinddb::CommitMode::kAsync;
    return o;
  }
  Status Setup(int warehouses);
  Counters Capture();
  /// Brackets a measured phase: its counters go into `tally_`.
  void StartPhase();
  void EndPhase();

  /// One own-row transaction; false when it did not commit. `latency`
  /// receives the time from Begin to the acknowledged commit or abort.
  /// With `durable` it commits with the engine's default group commit
  /// instead of the benchmark's asynchronous one.
  bool RunTxn(Writer* wr, TxnLatency* latency, bool durable);
  Status Checkpoint();
  /// `n` single-writer transactions with checkpoints on their cadence
  /// and, with `record`, an AS OF instant every instant_every.
  Status WriteTxns(Writer* wr, int n, TxnLatency* latency, bool record);
  /// Records an instant probing a district of a warehouse in
  /// [first_w, last_w]. Every writer must be outside a transaction.
  Status RecordInstant(int first_w, int last_w);

  Status RunOltp(double seconds);
  Status RunPitr(double seconds);
  Status RunHotRows(double seconds);
  bool Collide(Writer* wr, int round, std::barrier<>* both_read,
               TxnLatency* latency);

  /// A recorded instant `lo` to `hi` transactions back from the end of
  /// the history; NotFound when none lies in that band.
  Result<Instant> Pick(int lo, int hi);
  Status Probe(ProbeKind kind, const Instant& at);
  /// Three probes, then (unless `trickle` is null) the writes after
  /// them.
  Status ProbeRound(Writer* trickle, TxnLatency* trickle_latency);
  /// `cycles` times: leave an order in flight, crash, reopen.
  Status CrashAndRestart(int cycles);

  /// Keeps the first failed check (or engine error) for the report.
  Status Fail(Status s) {
    std::lock_guard<std::mutex> g(error_mu_);
    if (first_error_.ok()) first_error_ = s;
    return s;
  }

  const Config cfg_;
  const std::string dir_;
  const std::string db_dir_;
  const uint64_t seed_;
  rewinddb::SimClock clock_;
  std::unique_ptr<Connection> conn_;
  Model model_;
  std::vector<Instant> instants_;
  std::atomic<int64_t> committed_{0};
  std::atomic<uint64_t> next_op_{1};
  int64_t history_end_ = 0;
  Random instant_rnd_;
  Random probe_rnd_;
  uint64_t probe_seq_ = 0;
  int64_t single_writer_txns_ = 0;
  int64_t db_first_txn_ = 0;  // committed_ when the database was loaded
  std::mutex error_mu_;
  std::mutex model_mu_;  // collisions may both commit once the fault is mended
  Status first_error_;

  // Measured phase. Operations are counted only while `counting_`, so
  // every run attempts whole rounds of the same operations.
  bool counting_ = false;
  SteadyClock::time_point measure_start_;
  double measured_s_ = 0;
  TxnLatency txn_us_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  int64_t committed_measured_ = 0;
  uint64_t collision_aborts_ = 0;
  Counters phase_start_;
  Tally tally_;

  ProbeTotals probes_;
  RestartTotals restarts_;
};

Status Bench::Setup(int warehouses) {
  std::error_code ec;
  fs::remove_all(db_dir_, ec);
  instants_.clear();
  db_first_txn_ = committed_.load();
  REWIND_ASSIGN_OR_RETURN(conn_, Connection::Create(db_dir_, Options(&clock_)));
  rewinddb::TpccConfig tc;
  tc.warehouses = warehouses;
  tc.districts_per_warehouse = cfg_.shape.districts;
  tc.customers_per_district = cfg_.shape.customers;
  tc.items = cfg_.shape.items;
  tc.seed = seed_;
  REWIND_ASSIGN_OR_RETURN(
      auto tpcc, rewinddb::TpccDatabase::CreateAndLoad(conn_->engine(), tc));
  Shape shape = cfg_.shape;
  shape.warehouses = warehouses;
  auto live = conn_->Live();
  REWIND_ASSIGN_OR_RETURN(model_, ReadModel(live.get(), shape));
  return Status::OK();
}

Counters Bench::Capture() {
  Counters c;
  c.wal = conn_->engine()->log()->stats();
  c.buffer = conn_->BufferStats();
  c.log_allocated = AllocatedLogBytes(db_dir_);
  return c;
}

void Bench::StartPhase() { phase_start_ = Capture(); }

void Bench::EndPhase() {
  const Counters end = Capture();
  const auto& a = end.wal;
  const auto& b = phase_start_.wal;
  tally_.fsyncs += a.fsyncs - b.fsyncs;
  tally_.flushed_bytes += a.flushed_bytes - b.flushed_bytes;
  for (size_t i = 0; i < rewinddb::wal::WalStats::kTypeSlots; i++) {
    tally_.wal_bytes += a.record_bytes[i] - b.record_bytes[i];
  }
  for (rewinddb::LogType t :
       {rewinddb::LogType::kPreformat, rewinddb::LogType::kFpiDelta}) {
    const size_t i = static_cast<size_t>(t);
    tally_.fpi_bytes += a.record_bytes[i] - b.record_bytes[i];
  }
  tally_.buffer_hits += end.buffer.hits - phase_start_.buffer.hits;
  tally_.buffer_misses += end.buffer.misses - phase_start_.buffer.misses;
  tally_.buffer_evictions +=
      end.buffer.evictions - phase_start_.buffer.evictions;
  tally_.log_allocated += end.log_allocated;
  tally_.log_txns += committed_.load() - db_first_txn_;
}

bool Bench::RunTxn(Writer* wr, TxnLatency* latency, bool durable) {
  // Every commit lands on a multiple of the step; recorded instants sit
  // one microsecond past one, so no AS OF target is a commit's stamp.
  clock_.Advance(cfg_.sim_step_us);
  Tracer::Get().SetOp(next_op_.fetch_add(1, std::memory_order_relaxed));
  ScopedSpan op("op.txn");
  const int w = wr->warehouse != 0
                    ? wr->warehouse
                    : static_cast<int>(
                          wr->rnd.UniformRange(1, model_.shape.warehouses));
  const bool order = wr->rnd.Uniform(2) == 0;
  OrderInput oin;
  PaymentInput pin;
  if (order) {
    oin = DrawOrder(&wr->rnd, model_.shape, w);
  } else {
    pin = DrawPayment(&wr->rnd, model_.shape, w,
                      (int64_t{wr->id + 1} << 40) + wr->payments++);
  }

  const auto t0 = SteadyClock::now();
  Txn txn;
  {
    ScopedSpan span("api.begin");
    txn = conn_->Begin();
  }
  ConnectionOps ops(conn_.get(), &txn);
  int32_t o_id = 0;
  Status s = order ? NewOrderBody(&ops, oin, &o_id) : PaymentBody(&ops, pin);
  if (s.ok() && durable) {
    ScopedSpan span("wal.commit_durable");
    s = txn.Commit(DatabaseOptions().default_commit_mode);
  } else if (s.ok()) {
    ScopedSpan span("wal.commit");
    s = txn.Commit();
  } else {
    ScopedSpan span("api.abort");
    (void)txn.Abort();
  }
  const double us = MicrosBetween(t0, SteadyClock::now());
  latency->all.Add(us);
  (order ? latency->new_order : latency->payment).Add(us);
  if (!s.ok()) {
    std::fprintf(stderr, "transaction failed: %s\n", s.ToString().c_str());
    return false;
  }
  if (order) {
    if (o_id != model_.NextOrder(oin.w, oin.d)) {
      Fail(Status::Corruption(
          "district (" + std::to_string(oin.w) + "," + std::to_string(oin.d) +
          ") handed out order " + std::to_string(o_id) + ", expected " +
          std::to_string(model_.NextOrder(oin.w, oin.d))));
    }
    ApplyOrder(&model_, oin);
  }
  committed_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

Status Bench::Checkpoint() {
  ScopedSpan span("engine.checkpoint");
  return conn_->FuzzyCheckpoint();
}

Status Bench::WriteTxns(Writer* wr, int n, TxnLatency* latency,
                        bool record) {
  for (int i = 0; i < n; i++) {
    const bool durable = (single_writer_txns_ + 1) % cfg_.checkpoint_every == 0;
    const bool ok = RunTxn(wr, latency, durable);
    if (counting_) {
      attempted_++;
      if (!ok) failed_++;
    } else if (!ok) {
      return Fail(Status::Aborted("a set-up or epilogue transaction failed"));
    }
    const int64_t c = ++single_writer_txns_;
    if (c % cfg_.checkpoint_every == 0) REWIND_RETURN_IF_ERROR(Checkpoint());
    if (record && c % cfg_.instant_every == 0) {
      REWIND_RETURN_IF_ERROR(
          wr->warehouse != 0
              ? RecordInstant(wr->warehouse, wr->warehouse)
              : RecordInstant(1, model_.shape.warehouses));
    }
  }
  return Status::OK();
}

Status Bench::RecordInstant(int first_w, int last_w) {
  clock_.Advance(1);
  Instant in;
  in.t = clock_.NowMicros();
  in.txn_index = committed_.load();
  in.w = static_cast<int>(instant_rnd_.UniformRange(first_w, last_w));
  in.d = static_cast<int>(instant_rnd_.UniformRange(1, cfg_.shape.districts));
  auto live = conn_->Live();
  REWIND_ASSIGN_OR_RETURN(in.answer, HandStockLevel(live.get(), in.w, in.d));
  clock_.Advance(cfg_.sim_step_us - 1);
  instants_.push_back(in);
  return Status::OK();
}

// ------------------------------- oltp ----------------------------------

Status Bench::RunOltp(double seconds) {
  // A fixed amount of work per requested second, in whole episodes of
  // whole checkpoint intervals: each crashed log, and so each restart,
  // is the same size whatever the throughput, and the data never
  // outgrows the buffer pool.
  const int episodes = std::max(
      1, static_cast<int>(seconds * cfg_.oltp_episodes_per_second));
  measure_start_ = SteadyClock::now();
  for (int e = 0; e < episodes; e++) {
    if (e > 0) REWIND_RETURN_IF_ERROR(Setup(cfg_.shape.warehouses));
    Writer wr(0, 0, seed_ + 1000 * e);
    StartPhase();
    const int64_t c0 = committed_.load();
    const auto w0 = SteadyClock::now();
    counting_ = true;
    REWIND_RETURN_IF_ERROR(
        WriteTxns(&wr, cfg_.oltp_episode_txns, &txn_us_, /*record=*/true));
    counting_ = false;
    measured_s_ += SecondsSince(w0);
    committed_measured_ += committed_.load() - c0;
    EndPhase();

    TxnLatency trickle;
    for (int r = 0; r < cfg_.oltp_probe_rounds; r++) {
      REWIND_RETURN_IF_ERROR(ProbeRound(&wr, &trickle));
    }
    REWIND_RETURN_IF_ERROR(CrashAndRestart(cfg_.oltp_restarts));
  }
  return Status::OK();
}

// ------------------------------- pitr ----------------------------------

Status Bench::RunPitr(double seconds) {
  Writer wr(0, 0, seed_);
  TxnLatency history;
  REWIND_RETURN_IF_ERROR(
      WriteTxns(&wr, cfg_.history_txns, &history, /*record=*/true));

  // A fixed number of probe rounds per requested second; txn_per_s
  // counts only the time of the writes between them.
  const int rounds =
      std::max(1, static_cast<int>(seconds * cfg_.pitr_rounds_per_second));
  StartPhase();
  const int64_t c0 = committed_.load();
  measure_start_ = SteadyClock::now();
  counting_ = true;
  for (int r = 0; r < rounds; r++) {
    REWIND_RETURN_IF_ERROR(ProbeRound(&wr, &txn_us_));
  }
  counting_ = false;
  EndPhase();
  committed_measured_ = committed_.load() - c0;
  return CrashAndRestart(cfg_.restarts);
}

// ----------------------------- hot_rows --------------------------------

bool Bench::Collide(Writer* wr, int round, std::barrier<>* both_read,
                    TxnLatency* latency) {
  const int hot_w = model_.shape.warehouses;
  const int hot_item = 1 + round % cfg_.hot_rows;
  // The writer whose update is issued first waits first, so its lock
  // wait is the one that times out; the other is granted after it.
  const bool first = round % 2 == wr->id;
  clock_.Advance(cfg_.sim_step_us);
  Tracer::Get().SetOp(next_op_.fetch_add(1, std::memory_order_relaxed));
  ScopedSpan op("op.collision");
  const auto t0 = SteadyClock::now();
  Txn txn;
  {
    ScopedSpan span("api.begin");
    txn = conn_->Begin();
  }
  ConnectionOps ops(conn_.get(), &txn);
  Result<Row> row = ops.Get("stock", {hot_w, hot_item});
  both_read->arrive_and_wait();
  Status s = row.status();
  if (s.ok()) {
    if (!first) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(cfg_.collision_stagger_ms));
    }
    Row updated = *row;
    updated[2] = updated[2].AsInt32() - 1;
    s = ops.Update("stock", updated);
  }
  if (s.ok()) {
    ScopedSpan span("wal.commit");
    s = txn.Commit();
  } else {
    ScopedSpan span("api.abort");
    (void)txn.Abort();
  }
  latency->all.Add(MicrosBetween(t0, SteadyClock::now()));
  if (!s.ok()) return false;
  {
    std::lock_guard<std::mutex> g(model_mu_);
    model_.Stock(hot_w, hot_item)--;
  }
  committed_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

Status Bench::RunHotRows(double seconds) {
  const int own = model_.shape.warehouses - 1;  // the last one is hot
  std::vector<Writer> writers;
  for (int i = 0; i < own; i++) writers.emplace_back(i, i + 1, seed_ + i);

  // A history long enough for the deepest probe band, written in the
  // same turns as the measured phase.
  const int turn = cfg_.hot_own_txns;
  const int history_turns =
      (cfg_.deep_hi + cfg_.instant_every + turn - 1) / turn;
  TxnLatency history;
  for (int t = 0; t < history_turns; t++) {
    REWIND_RETURN_IF_ERROR(
        WriteTxns(&writers[t % own], turn, &history, /*record=*/true));
  }

  std::vector<TxnLatency> latency(own);
  std::vector<uint64_t> attempted(own, 0), failed(own, 0), aborts(own, 0);
  std::atomic<bool> stop{false};
  std::mutex error_mu;
  Status phase_error;
  auto note = [&](const Status& s) {
    std::lock_guard<std::mutex> g(error_mu);
    if (!s.ok() && phase_error.ok()) phase_error = s;
  };
  // The barrier completion after the turns runs while both writers wait
  // outside any transaction: a probe round runs there, spread over the
  // phase rather than bunched after it, and the writers' rate leaves
  // its time out.
  double probe_s = 0;
  auto quiescent = [&]() noexcept {
    const auto p0 = SteadyClock::now();
    note(ProbeRound(nullptr, nullptr));
    probe_s += SecondsSince(p0);
  };
  // A fixed number of rounds per requested second, like oltp's fixed
  // work: each round costs at least one lock timeout.
  const int rounds =
      std::max(1, static_cast<int>(seconds * cfg_.hot_rounds_per_second));
  int rounds_done = 0;
  auto round_end = [&]() noexcept {
    std::lock_guard<std::mutex> g(error_mu);
    if (++rounds_done >= rounds || !phase_error.ok()) stop = true;
  };
  std::barrier<> turn_done(own);
  std::barrier own_done(own, quiescent);
  std::barrier both_read(own);
  std::barrier collided(own, round_end);

  StartPhase();
  const int64_t c0 = committed_.load();
  measure_start_ = SteadyClock::now();
  auto body = [&](int i) {
    Writer* wr = &writers[i];
    for (int round = 0; !stop; round++) {
      // The writers take turns on their own rows, so those transactions
      // see no contention and the turn's writer may checkpoint and
      // record instants; the lock manager's work is the collisions.
      for (int t = 0; t < own; t++) {
        if (t == i) note(WriteTxns(wr, turn, &latency[i], /*record=*/true));
        turn_done.arrive_and_wait();
      }
      own_done.arrive_and_wait();
      attempted[i]++;
      if (!Collide(wr, round, &both_read, &latency[i])) {
        failed[i]++;
        aborts[i]++;
      }
      collided.arrive_and_wait();
    }
  };
  counting_ = true;
  std::vector<std::thread> threads;
  for (int i = 0; i < own; i++) threads.emplace_back(body, i);
  for (auto& t : threads) t.join();
  counting_ = false;
  measured_s_ = SecondsSince(measure_start_) - probe_s;
  EndPhase();
  REWIND_RETURN_IF_ERROR(phase_error);
  for (int i = 0; i < own; i++) {
    txn_us_.Append(latency[i]);
    attempted_ += attempted[i];
    failed_ += failed[i];
    collision_aborts_ += aborts[i];
  }
  committed_measured_ = committed_.load() - c0;
  return CrashAndRestart(cfg_.restarts);
}

// ----------------------------- probes ----------------------------------

Result<Instant> Bench::Pick(int lo, int hi) {
  std::vector<const Instant*> band;
  for (const Instant& in : instants_) {
    const int64_t back = history_end_ - in.txn_index;
    if (back >= lo && back <= hi) band.push_back(&in);
  }
  if (band.empty()) {
    return Status::NotFound("no recorded instant " + std::to_string(lo) +
                            " to " + std::to_string(hi) +
                            " transactions back");
  }
  return *band[probe_rnd_.Uniform(band.size())];
}

Status Bench::Probe(ProbeKind kind, const Instant& at) {
  rewinddb::Database* db = conn_->engine();
  const std::string name = "probe" + std::to_string(++probe_seq_);
  const auto io0 = db->stats()->Capture();
  const auto vs0 = db->version_store()->stats();
  Tracer::Get().SetOp(next_op_.fetch_add(1, std::memory_order_relaxed));
  ScopedSpan op("op.probe");

  const auto t0 = SteadyClock::now();
  std::unique_ptr<AsOfSnapshot> snap;
  {
    ScopedSpan span("snapshot.create");
    REWIND_ASSIGN_OR_RETURN(snap, AsOfSnapshot::Create(db, name, at.t));
  }
  std::unique_ptr<ReadView> view = rewinddb::WrapSnapshot(snap.get());
  Result<Answer> first = Status::OK();
  {
    ScopedSpan span("snapshot.first_query");
    first = SqlStockLevel(view.get(), at.w, at.d);
  }
  REWIND_RETURN_IF_ERROR(first.status());
  probes_.asof_ms[kind].Add(MicrosBetween(t0, SteadyClock::now()) / 1000.0);
  REWIND_RETURN_IF_ERROR(Fail(CheckAnswer(*first, at.answer, "AS OF SQL")));

  Result<Answer> hand = Status::OK();
  {
    ScopedSpan span("tpcc.stocklevel");
    hand = HandStockLevel(view.get(), at.w, at.d);
  }
  REWIND_RETURN_IF_ERROR(hand.status());
  REWIND_RETURN_IF_ERROR(
      Fail(CheckAnswer(*hand, at.answer, "AS OF hand-coded STOCK-LEVEL")));
  {
    // What EXPLAIN does: parse and plan without executing.
    ScopedSpan span("sql.plan");
    REWIND_ASSIGN_OR_RETURN(
        rewinddb::SqlCommand cmd,
        rewinddb::ParseSql(StockLevelSql(at.w, at.d, at.answer.next_o_id)));
    REWIND_RETURN_IF_ERROR(
        rewinddb::exec::PlanSelect(view.get(), *cmd.select).status());
  }
  double followup_us = 0;
  for (int f = 0; f < cfg_.followups; f++) {
    const auto f0 = SteadyClock::now();
    REWIND_ASSIGN_OR_RETURN(Answer a, SqlStockLevel(view.get(), at.w, at.d));
    const double us = MicrosBetween(f0, SteadyClock::now());
    followup_us = f == 0 ? us : std::min(followup_us, us);
    REWIND_RETURN_IF_ERROR(Fail(CheckAnswer(a, at.answer, "AS OF follow-up")));
  }
  probes_.records_undone += snap->rewinder()->records_undone();
  probes_.fpi_jumps += snap->rewinder()->fpi_jumps();
  {
    ScopedSpan span("snapshot.drop");
    view.reset();
    snap.reset();
  }

  auto live = conn_->Live();
  double live_us = 0;
  for (int f = 0; f < cfg_.followups; f++) {
    const auto f0 = SteadyClock::now();
    REWIND_ASSIGN_OR_RETURN(Answer a, SqlStockLevel(live.get(), at.w, at.d));
    const double us = MicrosBetween(f0, SteadyClock::now());
    live_us = f == 0 ? us : std::min(live_us, us);
    REWIND_ASSIGN_OR_RETURN(Answer h, HandStockLevel(live.get(), at.w, at.d));
    REWIND_RETURN_IF_ERROR(Fail(CheckAnswer(a, h, "live SQL vs hand-coded")));
  }

  probes_.followup_us.Add(followup_us);
  probes_.live_us.Add(live_us);
  const auto io1 = db->stats()->Capture();
  const auto vs1 = db->version_store()->stats();
  probes_.probes++;
  probes_.log_read_misses += io1.log_read_misses - io0.log_read_misses;
  probes_.vs_exact += vs1.exact_hits - vs0.exact_hits;
  probes_.vs_partial += vs1.partial_hits - vs0.partial_hits;
  probes_.vs_misses += vs1.misses - vs0.misses;
  return Status::OK();
}

Status Bench::ProbeRound(Writer* trickle, TxnLatency* trickle_latency) {
  // Each round is a fresh investigation: nothing it rewinds is cached
  // by an earlier round, its targets lie as far back from the current
  // end of the log as in every other round, and its third probe
  // revisits its deep instant (the second investigator of paper
  // section 6.3).
  conn_->engine()->version_store()->Clear();
  history_end_ = committed_.load();
  REWIND_ASSIGN_OR_RETURN(const Instant recent,
                          Pick(cfg_.recent_lo, cfg_.recent_hi));
  REWIND_ASSIGN_OR_RETURN(const Instant deep, Pick(cfg_.deep_lo, cfg_.deep_hi));
  REWIND_RETURN_IF_ERROR(Probe(kRecent, recent));
  REWIND_RETURN_IF_ERROR(Probe(kDeep, deep));
  REWIND_RETURN_IF_ERROR(Probe(kRevisit, deep));
  if (counting_) attempted_ += 3;
  if (trickle == nullptr) return Status::OK();
  const auto w0 = SteadyClock::now();
  REWIND_RETURN_IF_ERROR(WriteTxns(trickle, cfg_.trickle_txns,
                                   trickle_latency, /*record=*/true));
  if (counting_) measured_s_ += SecondsSince(w0);
  return Status::OK();
}

// ----------------------------- restart ---------------------------------

Status Bench::CrashAndRestart(int cycles) {
  // Each cycle leaves one order in flight with its records durable,
  // crashes, and reopens the same directory. Reopening in place rather
  // than on copies keeps the bytes a run writes to the checkout's disk,
  // and the writeback that follows them, to the workload's own.
  std::unique_ptr<Connection> conn = std::move(conn_);
  for (int k = 0; k < cycles; k++) {
    OrderInput in;
    int32_t o_id = 0;
    {
      rewinddb::Database* db = conn->engine();
      Writer wr(99, 1, seed_ + 99 + restarts_.restart_ms.size());
      in = DrawOrder(&wr.rnd, model_.shape, 1);
      EngineOps ops(db, db->Begin());
      REWIND_RETURN_IF_ERROR(NewOrderBody(&ops, in, &o_id));
      REWIND_RETURN_IF_ERROR(db->log()->FlushAll());
      db->SimulateCrash();
    }
    conn.reset();

    Tracer::Get().SetOp(next_op_.fetch_add(1, std::memory_order_relaxed));
    ScopedSpan op("op.restart");
    const auto t0 = SteadyClock::now();
    {
      ScopedSpan span("engine.open");
      REWIND_ASSIGN_OR_RETURN(conn, Connection::Open(db_dir_, Options(nullptr)));
    }
    auto live = conn->Live();
    {
      ScopedSpan span("api.live_get");
      REWIND_ASSIGN_OR_RETURN(auto district, live->OpenTable("district"));
      REWIND_RETURN_IF_ERROR(district->Get({in.w, in.d}).status());
    }
    restarts_.restart_ms.Add(MicrosBetween(t0, SteadyClock::now()) / 1000.0);
    const rewinddb::RecoveryStats& rs = conn->engine()->recovery_stats();
    restarts_.analysis_ms.Add(rs.analysis_micros / 1000.0);
    restarts_.redo_ms.Add(rs.redo_micros / 1000.0);
    restarts_.undo_ms.Add(rs.undo_micros / 1000.0);
    restarts_.redo_records.Add(static_cast<double>(rs.redo_records));
    restarts_.losers.Add(static_cast<double>(rs.loser_transactions));

    REWIND_RETURN_IF_ERROR(Fail(CheckAgainstModel(live.get(), model_)));
    REWIND_RETURN_IF_ERROR(
        Fail(CheckOrderAbsent(live.get(), in.w, in.d, o_id)));
  }
  return Status::OK();
}

Status Bench::Run(const std::string& workload, double seconds) {
  if (workload == "oltp") {
    REWIND_RETURN_IF_ERROR(Setup(cfg_.shape.warehouses));
    return RunOltp(seconds);
  }
  if (workload == "pitr") {
    REWIND_RETURN_IF_ERROR(Setup(cfg_.shape.warehouses));
    return RunPitr(seconds);
  }
  if (workload == "hot_rows") {
    // One warehouse per writer plus the warehouse holding the hot rows.
    REWIND_RETURN_IF_ERROR(Setup(3));
    return RunHotRows(seconds);
  }
  return Status::InvalidArgument("unknown workload '" + workload + "'");
}

RunResult Bench::Report(bool trace, const std::string& trace_out,
                        SteadyClock::time_point process_start) {
  RunResult r;
  r.correct = first_error_.ok();
  r.error = first_error_.ok() ? "" : first_error_.ToString();
  r.attempted = attempted_;
  r.failed = failed_;
  const double committed = static_cast<double>(
      std::max<int64_t>(committed_measured_, 1));
  const Tally& t = tally_;
  auto add = [&](const char* name, double v, const char* unit) {
    r.metrics.push_back({name, v, unit});
  };
  if (!trace) {
    add("setup_s",
        std::chrono::duration<double>(measure_start_ - process_start).count(),
        "s");
    add("txn_per_s", static_cast<double>(committed_measured_) / measured_s_,
        "txn/s");
    add("neworder_p50_us", txn_us_.new_order.Median(), "us");
    add("payment_p50_us", txn_us_.payment.Median(), "us");
    add("txn_p95_us", txn_us_.all.Quantile(0.95), "us");
    add("log_bytes_per_txn",
        static_cast<double>(t.log_allocated) /
            static_cast<double>(std::max<int64_t>(t.log_txns, 1)),
        "B/txn");
    // A shared host runs the same query at one of two speeds, about
    // 1.5x apart, switching within milliseconds, and the share of slow
    // samples changes from run to run. A median of such samples jumps
    // between the two speeds when their shares are near even; the mean
    // of the middle 60% follows the shares smoothly. The follow-up and
    // live queries repeat one statement on unchanged data, so the
    // fastest of a probe's repeats is the statement's cost while the
    // host lets it run at full speed; the median over probes covers the
    // districts and instants probed.
    constexpr double kTrim = 0.2;
    add("restart_ms", restarts_.restart_ms.TrimmedMean(kTrim), "ms");
    add("asof_recent_ms", probes_.asof_ms[kRecent].TrimmedMean(kTrim), "ms");
    add("asof_deep_ms", probes_.asof_ms[kDeep].TrimmedMean(kTrim), "ms");
    add("asof_revisit_ms", probes_.asof_ms[kRevisit].TrimmedMean(kTrim),
        "ms");
    add("asof_followup_us", probes_.followup_us.Median(), "us");
    add("live_query_us", probes_.live_us.Median(), "us");
    return r;
  }

  const std::vector<Span> spans = Tracer::Get().Collect();
  if (!trace_out.empty() && !WriteTrace(trace_out, spans)) {
    std::fprintf(stderr, "could not write %s\n", trace_out.c_str());
  }
  std::map<std::string, Samples> d = DurationsByName(spans);
  const double probes = static_cast<double>(std::max<uint64_t>(probes_.probes, 1));
  const double ops = static_cast<double>(std::max<uint64_t>(attempted_, 1));
  const double writer_txns =
      static_cast<double>(std::max<size_t>(d["op.txn"].size() +
                                               d["op.collision"].size(),
                                           1));
  add("api.get_us", d["api.get"].Median(), "us");
  add("api.insert_us", d["api.insert"].Median(), "us");
  add("api.update_us", d["api.update"].Median(), "us");
  add("api.update_busy_us_per_txn", d["api.update"].Sum() / writer_txns,
      "us/txn");
  add("wal.commit_p50_us", d["wal.commit"].Quantile(0.5), "us");
  add("wal.commit_p99_us", d["wal.commit"].Quantile(0.99), "us");
  add("wal.durable_commit_us", d["wal.commit_durable"].Median(), "us");
  add("wal.fsyncs_per_txn", static_cast<double>(t.fsyncs) / committed,
      "1/txn");
  add("wal.flush_batch_bytes",
      static_cast<double>(t.flushed_bytes) /
          static_cast<double>(std::max<uint64_t>(t.fsyncs, 1)),
      "B");
  add("wal.logical_bytes_per_txn", static_cast<double>(t.wal_bytes) / committed,
      "B/txn");
  add("wal.fpi_bytes_per_txn", static_cast<double>(t.fpi_bytes) / committed,
      "B/txn");
  add("wal.log_read_misses_per_probe",
      static_cast<double>(probes_.log_read_misses) / probes, "1/probe");
  add("buffer.hits", static_cast<double>(t.buffer_hits) / ops, "1/op");
  add("buffer.misses", static_cast<double>(t.buffer_misses) / ops, "1/op");
  add("buffer.evictions", static_cast<double>(t.buffer_evictions) / ops,
      "1/op");
  add("engine.checkpoint_ms", d["engine.checkpoint"].Median() / 1000.0, "ms");
  add("engine.recovery_analysis_ms", restarts_.analysis_ms.Median(), "ms");
  add("engine.recovery_redo_ms", restarts_.redo_ms.Median(), "ms");
  add("engine.recovery_undo_ms", restarts_.undo_ms.Median(), "ms");
  add("engine.redo_records", restarts_.redo_records.Median(), "count");
  add("engine.loser_txns", restarts_.losers.Median(), "count");
  add("engine.open_ms", d["engine.open"].Median() / 1000.0, "ms");
  add("snapshot.create_ms", d["snapshot.create"].Median() / 1000.0, "ms");
  add("snapshot.first_query_ms", d["snapshot.first_query"].Median() / 1000.0,
      "ms");
  add("snapshot.drop_ms", d["snapshot.drop"].Median() / 1000.0, "ms");
  add("snapshot.records_undone",
      static_cast<double>(probes_.records_undone) / probes, "1/probe");
  add("snapshot.fpi_jumps", static_cast<double>(probes_.fpi_jumps) / probes,
      "1/probe");
  add("snapshot.vs_exact_hits", static_cast<double>(probes_.vs_exact) / probes,
      "1/probe");
  add("snapshot.vs_partial_hits",
      static_cast<double>(probes_.vs_partial) / probes, "1/probe");
  add("snapshot.vs_misses", static_cast<double>(probes_.vs_misses) / probes,
      "1/probe");
  add("sql.query_us", d["sql.query"].Median(), "us");
  add("sql.plan_us", d["sql.plan"].Median(), "us");
  add("tpcc.stocklevel_us", d["tpcc.stocklevel"].Median(), "us");
  add("txn.collision_aborts", static_cast<double>(collision_aborts_), "count");
  return r;
}

}  // namespace

RunResult RunWorkload(const std::string& workload, const Config& cfg,
                      const std::string& dir, double seconds, uint64_t seed,
                      bool trace, const std::string& trace_out,
                      SteadyClock::time_point process_start) {
  Tracer::Get().Enable(trace);
  RunResult r;
  {
    Bench bench(cfg, dir, seed);
    Status s = bench.Run(workload, seconds);
    r = bench.Report(trace, trace_out, process_start);
    if (!s.ok()) {
      r.correct = false;
      if (r.error.empty()) r.error = s.ToString();
    }
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  return r;
}

}  // namespace rwbench
