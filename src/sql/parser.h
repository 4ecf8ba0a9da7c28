// SQL parser for the paper's surface syntax:
//
//   CREATE DATABASE <snap> AS SNAPSHOT OF <db> AS OF '<timestamp>'
//   ALTER DATABASE <db> SET UNDO_INTERVAL = <n> HOURS|MINUTES|SECONDS
//   DROP DATABASE <snap>
//   FLASHBACK TRANSACTION <txn-id>
//   SET COMMIT_MODE = SYNC|GROUP|ASYNC|NONE
//   CHECKPOINT
//   SHOW STATS
//
// DDL:
//
//   CREATE TABLE <name> (<col> <type> [, ...] , PRIMARY KEY (<cols>))
//   DROP TABLE <name>
//   CREATE INDEX <name> ON <table> (<cols>)
//   DROP INDEX <name>
//
// and the full query surface (executed by src/exec/ over any ReadView,
// which is what makes the same text run live, AS OF a timestamp, or
// against a named snapshot -- see docs/SQL.md for the grammar):
//
//   [EXPLAIN] SELECT [DISTINCT] items FROM t [[AS] a]
//     [[INNER] JOIN t2 [[AS] b] ON cond]...
//     [WHERE cond] [GROUP BY exprs] [HAVING cond]
//     [ORDER BY exprs [ASC|DESC]] [LIMIT n]
//     [AS OF '<timestamp>' | SNAPSHOT OF <name>]
//
// Timestamps accept 'YYYY-MM-DD HH:MM:SS[.ffffff]' (UTC) or a bare
// integer of microseconds (handy with the simulated clock).
#ifndef REWINDDB_SQL_PARSER_H_
#define REWINDDB_SQL_PARSER_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "common/types.h"
#include "sql/select_ast.h"
#include "wal/commit_mode.h"

namespace rewinddb {

struct SqlCommand {
  enum class Kind {
    kCreateSnapshot,
    kAlterUndoInterval,
    kDropDatabase,
    kCreateTable,
    kDropTable,
    kFlashback,
    kSetCommitMode,
    /// CHECKPOINT: take a fuzzy checkpoint now (bounds crash-recovery
    /// analysis; with the archive tier on, also archives + trims the
    /// active log).
    kCheckpoint,
    /// SHOW STATS: engine + server counters as a (metric, value)
    /// rowset -- the operator's over-the-wire inspection surface.
    kShowStats,
    /// SELECT ...: planned and executed by src/exec/ over a ReadView.
    kSelect,
    /// EXPLAIN SELECT ...: the chosen plan tree as a one-column rowset.
    kExplain,
    /// CREATE INDEX <name> ON <table> (<cols>): logged secondary index.
    kCreateIndex,
    /// DROP INDEX <name>.
    kDropIndex,
  };

  Kind kind;
  /// Object being created/dropped (snapshot, table, or index name).
  std::string name;
  /// CREATE ... AS SNAPSHOT OF <source>; CREATE INDEX ... ON <source>.
  std::string source;
  /// AS OF time, microseconds.
  WallClock as_of = 0;
  /// SET UNDO_INTERVAL value, microseconds.
  uint64_t undo_interval_micros = 0;
  /// FLASHBACK TRANSACTION victim id.
  TxnId txn_id = kInvalidTxnId;
  /// SET COMMIT_MODE value.
  CommitMode commit_mode = CommitMode::kGroup;
  /// CREATE TABLE schema.
  Schema schema;
  /// CREATE INDEX column list.
  std::vector<std::string> index_columns;
  /// kSelect / kExplain payload (shared so SqlCommand stays copyable).
  std::shared_ptr<sql::SelectStmt> select;
};

/// Parse one statement. Keywords are case-insensitive; identifiers keep
/// their case. Every parse error names the offending token ("near
/// '...'") and carries a fragment of the statement, so a wire client's
/// diagnostic is self-contained.
Result<SqlCommand> ParseSql(const std::string& sql);

/// First ~60 characters of `sql`, whitespace-collapsed, "..."-elided:
/// the fragment parse and execution errors embed.
std::string StatementFragment(const std::string& sql);

/// Parse 'YYYY-MM-DD HH:MM:SS[.ffffff]' (UTC) into epoch microseconds.
Result<WallClock> ParseTimestamp(const std::string& text);

/// Render epoch microseconds as 'YYYY-MM-DD HH:MM:SS.ffffff'.
std::string FormatTimestamp(WallClock micros);

}  // namespace rewinddb

#endif  // REWINDDB_SQL_PARSER_H_
