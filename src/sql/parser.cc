#include "sql/parser.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <vector>

namespace rewinddb {

namespace {

/// Exception-free digit-string parse; the lexer admits arbitrarily
/// long numbers, so overflow must become InvalidArgument, not a throw.
Result<uint64_t> ParseU64(const std::string& text) {
  uint64_t value = 0;
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Status::InvalidArgument("number '" + text + "' out of range");
  }
  return value;
}

struct Token {
  enum class Type { kWord, kNumber, kString, kPunct, kEnd };
  Type type;
  std::string text;  // words upper-cased; strings without quotes
  std::string raw;   // original spelling
};

class Lexer {
 public:
  explicit Lexer(const std::string& in) : in_(in) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    size_t i = 0;
    while (i < in_.size()) {
      char c = in_[i];
      if (isspace(static_cast<unsigned char>(c))) {
        i++;
        continue;
      }
      if (c == '\'') {
        size_t j = i + 1;
        std::string s;
        while (j < in_.size() && in_[j] != '\'') s += in_[j++];
        if (j >= in_.size()) {
          return Status::InvalidArgument("unterminated string literal");
        }
        out.push_back({Token::Type::kString, s, s});
        i = j + 1;
        continue;
      }
      if (isdigit(static_cast<unsigned char>(c))) {
        size_t j = i;
        while (j < in_.size() &&
               isdigit(static_cast<unsigned char>(in_[j]))) {
          j++;
        }
        // A '.' glues into the number only when digits follow, so
        // "1.5" is one token while "t.c" stays ident '.' ident.
        if (j + 1 < in_.size() && in_[j] == '.' &&
            isdigit(static_cast<unsigned char>(in_[j + 1]))) {
          j += 2;
          while (j < in_.size() &&
                 isdigit(static_cast<unsigned char>(in_[j]))) {
            j++;
          }
        }
        std::string n = in_.substr(i, j - i);
        out.push_back({Token::Type::kNumber, n, n});
        i = j;
        continue;
      }
      if (isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t j = i;
        while (j < in_.size() &&
               (isalnum(static_cast<unsigned char>(in_[j])) ||
                in_[j] == '_')) {
          j++;
        }
        std::string raw = in_.substr(i, j - i);
        std::string up = raw;
        for (char& ch : up) ch = static_cast<char>(toupper(ch));
        out.push_back({Token::Type::kWord, up, raw});
        i = j;
        continue;
      }
      // Two-character operators first (the parser compares whole token
      // text, so "<=" never half-matches "<").
      if (i + 1 < in_.size()) {
        char d = in_[i + 1];
        if ((c == '<' && (d == '=' || d == '>')) ||
            (c == '>' && d == '=') || (c == '!' && d == '=')) {
          std::string op{c, d};
          out.push_back({Token::Type::kPunct, op, op});
          i += 2;
          continue;
        }
      }
      if (c == '(' || c == ')' || c == ',' || c == '=' || c == ';' ||
          c == '<' || c == '>' || c == '+' || c == '-' || c == '*' ||
          c == '/' || c == '%' || c == '.') {
        out.push_back({Token::Type::kPunct, std::string(1, c),
                       std::string(1, c)});
        i++;
        continue;
      }
      return Status::InvalidArgument(std::string("unexpected character '") +
                                     c + "'");
    }
    out.push_back({Token::Type::kEnd, "", ""});
    return out;
  }

 private:
  const std::string& in_;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SqlCommand> Parse() {
    if (Accept("SELECT")) return Select(/*explain=*/false);
    if (Accept("EXPLAIN")) {
      REWIND_RETURN_IF_ERROR(Expect("SELECT"));
      return Select(/*explain=*/true);
    }
    if (Accept("CREATE")) {
      if (Accept("DATABASE")) return CreateSnapshot();
      if (Accept("TABLE")) return CreateTable();
      if (Accept("INDEX")) return CreateIndex();
      return Err("expected DATABASE, TABLE or INDEX after CREATE");
    }
    if (Accept("ALTER")) return AlterDatabase();
    if (Accept("FLASHBACK")) return Flashback();
    if (Accept("SET")) return SetOption();
    if (Accept("CHECKPOINT")) {
      SqlCommand cmd;
      cmd.kind = SqlCommand::Kind::kCheckpoint;
      return cmd;
    }
    if (Accept("SHOW")) {
      REWIND_RETURN_IF_ERROR(Expect("STATS"));
      SqlCommand cmd;
      cmd.kind = SqlCommand::Kind::kShowStats;
      return cmd;
    }
    if (Accept("DROP")) {
      if (Accept("DATABASE")) return DropNamed(SqlCommand::Kind::kDropDatabase);
      if (Accept("TABLE")) return DropNamed(SqlCommand::Kind::kDropTable);
      if (Accept("INDEX")) return DropNamed(SqlCommand::Kind::kDropIndex);
      return Err("expected DATABASE, TABLE or INDEX after DROP");
    }
    return Err("unrecognized statement");
  }

 private:
  const Token& Cur() const { return tokens_[pos_]; }

  /// Every parser diagnostic names the token it stopped at; ParseSql
  /// appends the statement fragment on the way out.
  Status Err(const std::string& what) const {
    std::string at = Cur().type == Token::Type::kEnd
                         ? std::string("end of statement")
                         : "'" + Cur().raw + "'";
    return Status::InvalidArgument(what + " near " + at);
  }

  bool Accept(const std::string& word) {
    if (Cur().type == Token::Type::kWord && Cur().text == word) {
      pos_++;
      return true;
    }
    return false;
  }

  bool AcceptPunct(char c) {
    if (Cur().type == Token::Type::kPunct && Cur().text.size() == 1 &&
        Cur().text[0] == c) {
      pos_++;
      return true;
    }
    return false;
  }

  /// Accept a (possibly multi-character) operator token.
  bool AcceptOp(const std::string& op) {
    if (Cur().type == Token::Type::kPunct && Cur().text == op) {
      pos_++;
      return true;
    }
    return false;
  }

  /// True if the current token is the given keyword (not consumed).
  bool Peek(const std::string& word) const {
    return Cur().type == Token::Type::kWord && Cur().text == word;
  }

  Status Expect(const std::string& word) {
    if (!Accept(word)) return Err("expected " + word);
    return Status::OK();
  }

  Result<std::string> Identifier() {
    if (Cur().type != Token::Type::kWord) {
      return Err("expected identifier");
    }
    std::string id = Cur().raw;
    pos_++;
    return id;
  }

  Result<SqlCommand> CreateSnapshot() {
    SqlCommand cmd;
    cmd.kind = SqlCommand::Kind::kCreateSnapshot;
    REWIND_ASSIGN_OR_RETURN(cmd.name, Identifier());
    REWIND_RETURN_IF_ERROR(Expect("AS"));
    REWIND_RETURN_IF_ERROR(Expect("SNAPSHOT"));
    REWIND_RETURN_IF_ERROR(Expect("OF"));
    REWIND_ASSIGN_OR_RETURN(cmd.source, Identifier());
    REWIND_RETURN_IF_ERROR(Expect("AS"));
    REWIND_RETURN_IF_ERROR(Expect("OF"));
    if (Cur().type == Token::Type::kString) {
      REWIND_ASSIGN_OR_RETURN(cmd.as_of, ParseTimestamp(Cur().text));
      pos_++;
    } else if (Cur().type == Token::Type::kNumber) {
      REWIND_ASSIGN_OR_RETURN(cmd.as_of, ParseU64(Cur().text));
      pos_++;
    } else {
      return Err("expected timestamp after AS OF");
    }
    return cmd;
  }

  Result<SqlCommand> AlterDatabase() {
    SqlCommand cmd;
    cmd.kind = SqlCommand::Kind::kAlterUndoInterval;
    REWIND_RETURN_IF_ERROR(Expect("DATABASE"));
    REWIND_ASSIGN_OR_RETURN(cmd.name, Identifier());
    REWIND_RETURN_IF_ERROR(Expect("SET"));
    REWIND_RETURN_IF_ERROR(Expect("UNDO_INTERVAL"));
    if (!AcceptPunct('=')) return Err("expected = after UNDO_INTERVAL");
    if (Cur().type != Token::Type::kNumber) {
      return Err("expected a number for UNDO_INTERVAL");
    }
    REWIND_ASSIGN_OR_RETURN(uint64_t n, ParseU64(Cur().text));
    pos_++;
    uint64_t unit;
    if (Accept("HOURS") || Accept("HOUR")) {
      unit = 3600ULL * 1'000'000;
    } else if (Accept("MINUTES") || Accept("MINUTE")) {
      unit = 60ULL * 1'000'000;
    } else if (Accept("SECONDS") || Accept("SECOND")) {
      unit = 1'000'000;
    } else {
      return Err("expected HOURS, MINUTES or SECONDS");
    }
    if (n > UINT64_MAX / unit) {
      return Err("undo interval out of range");
    }
    cmd.undo_interval_micros = n * unit;
    return cmd;
  }

  Result<SqlCommand> SetOption() {
    SqlCommand cmd;
    cmd.kind = SqlCommand::Kind::kSetCommitMode;
    REWIND_RETURN_IF_ERROR(Expect("COMMIT_MODE"));
    if (!AcceptPunct('=')) return Err("expected = after COMMIT_MODE");
    if (Cur().type != Token::Type::kWord ||
        !ParseCommitMode(Cur().text.c_str(), &cmd.commit_mode)) {
      return Err("expected SYNC, GROUP, ASYNC or NONE");
    }
    pos_++;
    return cmd;
  }

  Result<SqlCommand> Flashback() {
    SqlCommand cmd;
    cmd.kind = SqlCommand::Kind::kFlashback;
    REWIND_RETURN_IF_ERROR(Expect("TRANSACTION"));
    if (Cur().type != Token::Type::kNumber) {
      return Err("expected a transaction id");
    }
    REWIND_ASSIGN_OR_RETURN(cmd.txn_id, ParseU64(Cur().text));
    pos_++;
    return cmd;
  }

  Result<SqlCommand> DropNamed(SqlCommand::Kind kind) {
    SqlCommand cmd;
    cmd.kind = kind;
    REWIND_ASSIGN_OR_RETURN(cmd.name, Identifier());
    return cmd;
  }

  // ------------------------- SELECT grammar ---------------------------

  /// Words that terminate an implicit (AS-less) alias position.
  static bool IsReserved(const std::string& up) {
    static const char* kWords[] = {
        "SELECT", "FROM",  "WHERE",  "JOIN",     "INNER", "ON",
        "GROUP",  "BY",    "HAVING", "ORDER",    "LIMIT", "AS",
        "OF",     "ASC",   "DESC",   "AND",      "OR",    "NOT",
        "NULL",   "IS",    "DISTINCT", "SNAPSHOT", "LEFT", "RIGHT",
        "OUTER",  "CROSS", "UNION",  "EXPLAIN"};
    for (const char* w : kWords) {
      if (up == w) return true;
    }
    return false;
  }

  Result<sql::TableRef> TableRefClause() {
    sql::TableRef ref;
    REWIND_ASSIGN_OR_RETURN(ref.table, Identifier());
    if (Accept("AS")) {
      // `FROM t AS OF ...` is the time-travel clause, not an alias.
      if (Peek("OF")) {
        pos_--;  // give AS back; the caller owns the trailing clauses
        return ref;
      }
      REWIND_ASSIGN_OR_RETURN(ref.alias, Identifier());
      return ref;
    }
    if (Cur().type == Token::Type::kWord && !IsReserved(Cur().text)) {
      ref.alias = Cur().raw;
      pos_++;
    }
    return ref;
  }

  Result<Value> NumberLiteral(const std::string& text) {
    if (text.find('.') != std::string::npos) {
      // strtod cannot fail here: the lexer admits only digits '.' digits.
      return Value(strtod(text.c_str(), nullptr));
    }
    REWIND_ASSIGN_OR_RETURN(uint64_t n, ParseU64(text));
    if (n > static_cast<uint64_t>(INT64_MAX)) {
      return Err("integer literal '" + text + "' out of range");
    }
    return Value(static_cast<int64_t>(n));
  }

  Result<sql::ExprPtr> Primary() {
    if (Cur().type == Token::Type::kNumber) {
      REWIND_ASSIGN_OR_RETURN(Value v, NumberLiteral(Cur().text));
      pos_++;
      return sql::MakeLiteral(std::move(v));
    }
    if (Cur().type == Token::Type::kString) {
      sql::ExprPtr e = sql::MakeLiteral(Value(Cur().text));
      pos_++;
      return e;
    }
    if (Accept("NULL")) return sql::MakeLiteral(Value::Null());
    if (AcceptPunct('(')) {
      REWIND_ASSIGN_OR_RETURN(sql::ExprPtr e, Expression());
      if (!AcceptPunct(')')) return Err("expected ) to close expression");
      return e;
    }
    if (Cur().type != Token::Type::kWord) {
      return Err("expected an expression");
    }
    // Aggregate function call?
    const std::string& up = Cur().text;
    sql::AggFn fn;
    bool is_agg = true;
    if (up == "COUNT") fn = sql::AggFn::kCount;
    else if (up == "SUM") fn = sql::AggFn::kSum;
    else if (up == "MIN") fn = sql::AggFn::kMin;
    else if (up == "MAX") fn = sql::AggFn::kMax;
    else if (up == "AVG") fn = sql::AggFn::kAvg;
    else is_agg = false;
    if (is_agg && pos_ + 1 < tokens_.size() &&
        tokens_[pos_ + 1].type == Token::Type::kPunct &&
        tokens_[pos_ + 1].text == "(") {
      pos_ += 2;  // fn (
      if (fn == sql::AggFn::kCount && AcceptPunct('*')) {
        if (!AcceptPunct(')')) return Err("expected ) after COUNT(*");
        return sql::MakeAgg(sql::AggFn::kCountStar, nullptr, false);
      }
      bool distinct = Accept("DISTINCT");
      REWIND_ASSIGN_OR_RETURN(sql::ExprPtr arg, Expression());
      if (!AcceptPunct(')')) return Err("expected ) to close aggregate");
      return sql::MakeAgg(fn, std::move(arg), distinct);
    }
    // Column reference: ident or ident.ident.
    REWIND_ASSIGN_OR_RETURN(std::string first, Identifier());
    if (AcceptPunct('.')) {
      REWIND_ASSIGN_OR_RETURN(std::string second, Identifier());
      return sql::MakeColumn(std::move(first), std::move(second));
    }
    return sql::MakeColumn("", std::move(first));
  }

  Result<sql::ExprPtr> Unary() {
    if (AcceptPunct('-')) {
      REWIND_ASSIGN_OR_RETURN(sql::ExprPtr e, Unary());
      // Fold -literal so key-bound derivation sees plain literals.
      if (e->kind == sql::Expr::Kind::kLiteral) {
        switch (e->literal.type()) {
          case ColumnType::kInt64:
            return sql::MakeLiteral(Value(-e->literal.AsInt64()));
          case ColumnType::kInt32:
            return sql::MakeLiteral(Value(-e->literal.AsInt32()));
          case ColumnType::kDouble:
            return sql::MakeLiteral(Value(-e->literal.AsDouble()));
          default:
            break;
        }
      }
      return sql::MakeUnary(sql::Expr::Kind::kNeg, std::move(e));
    }
    return Primary();
  }

  Result<sql::ExprPtr> MulExpr() {
    REWIND_ASSIGN_OR_RETURN(sql::ExprPtr e, Unary());
    while (true) {
      sql::BinOp op;
      if (AcceptPunct('*')) op = sql::BinOp::kMul;
      else if (AcceptPunct('/')) op = sql::BinOp::kDiv;
      else if (AcceptPunct('%')) op = sql::BinOp::kMod;
      else return e;
      REWIND_ASSIGN_OR_RETURN(sql::ExprPtr rhs, Unary());
      e = sql::MakeBinary(op, std::move(e), std::move(rhs));
    }
  }

  Result<sql::ExprPtr> AddExpr() {
    REWIND_ASSIGN_OR_RETURN(sql::ExprPtr e, MulExpr());
    while (true) {
      sql::BinOp op;
      if (AcceptPunct('+')) op = sql::BinOp::kAdd;
      else if (AcceptPunct('-')) op = sql::BinOp::kSub;
      else return e;
      REWIND_ASSIGN_OR_RETURN(sql::ExprPtr rhs, MulExpr());
      e = sql::MakeBinary(op, std::move(e), std::move(rhs));
    }
  }

  Result<sql::ExprPtr> Comparison() {
    REWIND_ASSIGN_OR_RETURN(sql::ExprPtr e, AddExpr());
    if (Accept("IS")) {
      bool negated = Accept("NOT");
      REWIND_RETURN_IF_ERROR(Expect("NULL"));
      sql::ExprPtr n = sql::MakeUnary(sql::Expr::Kind::kIsNull, std::move(e));
      n->negated = negated;
      return n;
    }
    sql::BinOp op;
    if (AcceptOp("=")) op = sql::BinOp::kEq;
    else if (AcceptOp("<>") || AcceptOp("!=")) op = sql::BinOp::kNe;
    else if (AcceptOp("<=")) op = sql::BinOp::kLe;
    else if (AcceptOp("<")) op = sql::BinOp::kLt;
    else if (AcceptOp(">=")) op = sql::BinOp::kGe;
    else if (AcceptOp(">")) op = sql::BinOp::kGt;
    else return e;
    REWIND_ASSIGN_OR_RETURN(sql::ExprPtr rhs, AddExpr());
    return sql::MakeBinary(op, std::move(e), std::move(rhs));
  }

  Result<sql::ExprPtr> NotExpr() {
    if (Accept("NOT")) {
      REWIND_ASSIGN_OR_RETURN(sql::ExprPtr e, NotExpr());
      return sql::MakeUnary(sql::Expr::Kind::kNot, std::move(e));
    }
    return Comparison();
  }

  Result<sql::ExprPtr> AndExpr() {
    REWIND_ASSIGN_OR_RETURN(sql::ExprPtr e, NotExpr());
    while (Accept("AND")) {
      REWIND_ASSIGN_OR_RETURN(sql::ExprPtr rhs, NotExpr());
      e = sql::MakeBinary(sql::BinOp::kAnd, std::move(e), std::move(rhs));
    }
    return e;
  }

  Result<sql::ExprPtr> Expression() {
    REWIND_ASSIGN_OR_RETURN(sql::ExprPtr e, AndExpr());
    while (Accept("OR")) {
      REWIND_ASSIGN_OR_RETURN(sql::ExprPtr rhs, AndExpr());
      e = sql::MakeBinary(sql::BinOp::kOr, std::move(e), std::move(rhs));
    }
    return e;
  }

  Result<sql::SelectItem> SelectItemClause() {
    sql::SelectItem item;
    if (AcceptPunct('*')) {
      item.star = true;
      return item;
    }
    // `t.*`: an identifier followed by `.` `*`.
    if (Cur().type == Token::Type::kWord && pos_ + 2 < tokens_.size() &&
        tokens_[pos_ + 1].type == Token::Type::kPunct &&
        tokens_[pos_ + 1].text == "." &&
        tokens_[pos_ + 2].type == Token::Type::kPunct &&
        tokens_[pos_ + 2].text == "*") {
      item.star = true;
      item.star_table = Cur().raw;
      pos_ += 3;
      return item;
    }
    REWIND_ASSIGN_OR_RETURN(item.expr, Expression());
    if (Accept("AS")) {
      REWIND_ASSIGN_OR_RETURN(item.alias, Identifier());
    } else if (Cur().type == Token::Type::kWord && !IsReserved(Cur().text)) {
      item.alias = Cur().raw;
      pos_++;
    }
    return item;
  }

  Result<SqlCommand> Select(bool explain) {
    SqlCommand cmd;
    cmd.kind = explain ? SqlCommand::Kind::kExplain : SqlCommand::Kind::kSelect;
    auto stmt = std::make_shared<sql::SelectStmt>();
    stmt->distinct = Accept("DISTINCT");
    while (true) {
      REWIND_ASSIGN_OR_RETURN(sql::SelectItem item, SelectItemClause());
      stmt->items.push_back(std::move(item));
      if (!AcceptPunct(',')) break;
    }
    REWIND_RETURN_IF_ERROR(Expect("FROM"));
    REWIND_ASSIGN_OR_RETURN(stmt->from, TableRefClause());
    while (true) {
      if (Accept("LEFT") || Accept("RIGHT") || Accept("OUTER") ||
          Accept("CROSS") || Accept("FULL")) {
        return Err("only [INNER] JOIN ... ON is supported");
      }
      bool inner = Accept("INNER");
      if (!Accept("JOIN")) {
        if (inner) return Err("expected JOIN after INNER");
        break;
      }
      sql::JoinRef join;
      REWIND_ASSIGN_OR_RETURN(join.ref, TableRefClause());
      REWIND_RETURN_IF_ERROR(Expect("ON"));
      REWIND_ASSIGN_OR_RETURN(join.on, Expression());
      stmt->joins.push_back(std::move(join));
    }
    if (Accept("WHERE")) {
      REWIND_ASSIGN_OR_RETURN(stmt->where, Expression());
    }
    if (Accept("GROUP")) {
      REWIND_RETURN_IF_ERROR(Expect("BY"));
      while (true) {
        REWIND_ASSIGN_OR_RETURN(sql::ExprPtr e, Expression());
        stmt->group_by.push_back(std::move(e));
        if (!AcceptPunct(',')) break;
      }
    }
    if (Accept("HAVING")) {
      REWIND_ASSIGN_OR_RETURN(stmt->having, Expression());
    }
    if (Accept("ORDER")) {
      REWIND_RETURN_IF_ERROR(Expect("BY"));
      while (true) {
        sql::OrderItem item;
        REWIND_ASSIGN_OR_RETURN(item.expr, Expression());
        if (Accept("DESC")) item.desc = true;
        else Accept("ASC");
        stmt->order_by.push_back(std::move(item));
        if (!AcceptPunct(',')) break;
      }
    }
    if (Accept("LIMIT")) {
      if (Cur().type != Token::Type::kNumber ||
          Cur().text.find('.') != std::string::npos) {
        return Err("expected an integer after LIMIT");
      }
      REWIND_ASSIGN_OR_RETURN(uint64_t n, ParseU64(Cur().text));
      pos_++;
      stmt->limit = n;
    }
    // Time-travel clauses: the whole query runs against the past.
    if (Accept("AS")) {
      REWIND_RETURN_IF_ERROR(Expect("OF"));
      if (Cur().type == Token::Type::kString) {
        REWIND_ASSIGN_OR_RETURN(stmt->as_of, ParseTimestamp(Cur().text));
        pos_++;
      } else if (Cur().type == Token::Type::kNumber &&
                 Cur().text.find('.') == std::string::npos) {
        REWIND_ASSIGN_OR_RETURN(stmt->as_of, ParseU64(Cur().text));
        pos_++;
      } else {
        return Err("expected timestamp after AS OF");
      }
      if (stmt->as_of == 0) return Err("AS OF time must be positive");
    } else if (Accept("SNAPSHOT")) {
      REWIND_RETURN_IF_ERROR(Expect("OF"));
      REWIND_ASSIGN_OR_RETURN(stmt->snapshot, Identifier());
    }
    AcceptPunct(';');
    if (Cur().type != Token::Type::kEnd) {
      return Err("unexpected trailing input");
    }
    cmd.select = std::move(stmt);
    return cmd;
  }

  Result<SqlCommand> CreateIndex() {
    SqlCommand cmd;
    cmd.kind = SqlCommand::Kind::kCreateIndex;
    REWIND_ASSIGN_OR_RETURN(cmd.name, Identifier());
    REWIND_RETURN_IF_ERROR(Expect("ON"));
    REWIND_ASSIGN_OR_RETURN(cmd.source, Identifier());
    if (!AcceptPunct('(')) return Err("expected ( after table name");
    while (true) {
      REWIND_ASSIGN_OR_RETURN(std::string col, Identifier());
      cmd.index_columns.push_back(std::move(col));
      if (!AcceptPunct(',')) break;
    }
    if (!AcceptPunct(')')) return Err("expected ) to close column list");
    return cmd;
  }

  Result<ColumnType> TypeName() {
    if (Accept("INT") || Accept("INT32") || Accept("INTEGER")) {
      return ColumnType::kInt32;
    }
    if (Accept("BIGINT") || Accept("INT64")) return ColumnType::kInt64;
    if (Accept("DOUBLE") || Accept("FLOAT") || Accept("REAL") ||
        Accept("DECIMAL")) {
      return ColumnType::kDouble;
    }
    if (Accept("TEXT") || Accept("STRING") || Accept("VARCHAR") ||
        Accept("CHAR")) {
      // Optional (n) length, ignored.
      if (AcceptPunct('(')) {
        if (Cur().type == Token::Type::kNumber) pos_++;
        if (!AcceptPunct(')')) return Err("expected ) after length");
      }
      return ColumnType::kString;
    }
    return Err("unknown column type");
  }

  Result<SqlCommand> CreateTable() {
    SqlCommand cmd;
    cmd.kind = SqlCommand::Kind::kCreateTable;
    REWIND_ASSIGN_OR_RETURN(cmd.name, Identifier());
    if (!AcceptPunct('(')) return Err("expected ( after table name");
    std::vector<Column> cols;
    std::vector<std::string> key_cols;
    while (true) {
      if (Accept("PRIMARY")) {
        REWIND_RETURN_IF_ERROR(Expect("KEY"));
        if (!AcceptPunct('(')) {
          return Err("expected ( after PRIMARY KEY");
        }
        while (true) {
          REWIND_ASSIGN_OR_RETURN(std::string k, Identifier());
          key_cols.push_back(k);
          if (AcceptPunct(',')) continue;
          break;
        }
        if (!AcceptPunct(')')) {
          return Err("expected ) after key columns");
        }
      } else {
        REWIND_ASSIGN_OR_RETURN(std::string col, Identifier());
        REWIND_ASSIGN_OR_RETURN(ColumnType type, TypeName());
        cols.push_back({col, type});
      }
      if (AcceptPunct(',')) continue;
      break;
    }
    if (!AcceptPunct(')')) {
      return Err("expected ) to close column list");
    }
    if (key_cols.empty()) {
      return Err("PRIMARY KEY clause is required");
    }
    // Reorder so the key columns form the prefix, in declared key order.
    std::vector<Column> ordered;
    for (const std::string& k : key_cols) {
      bool found = false;
      for (const Column& c : cols) {
        if (c.name == k) {
          ordered.push_back(c);
          found = true;
          break;
        }
      }
      if (!found) {
        return Err("key column '" + k + "' not declared");
      }
    }
    for (const Column& c : cols) {
      bool is_key = false;
      for (const std::string& k : key_cols) {
        if (c.name == k) is_key = true;
      }
      if (!is_key) ordered.push_back(c);
    }
    cmd.schema = Schema(std::move(ordered), key_cols.size());
    return cmd;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

std::string StatementFragment(const std::string& sql) {
  std::string out;
  out.reserve(64);
  bool last_space = false;
  for (char c : sql) {
    bool space = isspace(static_cast<unsigned char>(c)) != 0;
    if (space && (last_space || out.empty())) continue;
    out.push_back(space ? ' ' : c);
    last_space = space;
    if (out.size() >= 60) {
      out += "...";
      break;
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

Result<SqlCommand> ParseSql(const std::string& sql) {
  // Uniform diagnostic contract: every parse failure -- lexer or
  // grammar -- carries the offending statement fragment, so a client on
  // the other end of a wire sees which statement it sent went wrong.
  auto wrap = [&sql](const Status& st) {
    return Status::InvalidArgument(st.message() + " [statement: \"" +
                                   StatementFragment(sql) + "\"]");
  };
  Lexer lexer(sql);
  Result<std::vector<Token>> tokens = lexer.Tokenize();
  if (!tokens.ok()) return wrap(tokens.status());
  Parser parser(std::move(*tokens));
  Result<SqlCommand> cmd = parser.Parse();
  if (!cmd.ok()) return wrap(cmd.status());
  return cmd;
}

Result<WallClock> ParseTimestamp(const std::string& text) {
  int year, month, day, hour, minute, second;
  unsigned long frac = 0;
  char frac_buf[16] = {0};
  int matched = sscanf(text.c_str(), "%d-%d-%d %d:%d:%d.%15s", &year, &month,
                       &day, &hour, &minute, &second, frac_buf);
  if (matched < 6) {
    return Status::InvalidArgument("bad timestamp '" + text +
                                   "' (want YYYY-MM-DD HH:MM:SS[.ffffff])");
  }
  if (matched == 7) {
    // frac_buf came from %15s: it can hold ANY non-space bytes, so it
    // must be digit-validated and parsed exception-free (std::stoul on
    // '.abc' would throw -- a crash path for hostile wire input).
    std::string digits(frac_buf);
    while (digits.size() < 6) digits += '0';
    digits = digits.substr(0, 6);
    auto [ptr, ec] = std::from_chars(digits.data(),
                                     digits.data() + digits.size(), frac);
    if (ec != std::errc() || ptr != digits.data() + digits.size()) {
      return Status::InvalidArgument("bad fractional seconds in timestamp '" +
                                     text + "'");
    }
  }
  struct tm tm_utc = {};
  tm_utc.tm_year = year - 1900;
  tm_utc.tm_mon = month - 1;
  tm_utc.tm_mday = day;
  tm_utc.tm_hour = hour;
  tm_utc.tm_min = minute;
  tm_utc.tm_sec = second;
  time_t secs = timegm(&tm_utc);
  if (secs < 0) return Status::InvalidArgument("timestamp out of range");
  return static_cast<WallClock>(secs) * 1'000'000 + frac;
}

std::string FormatTimestamp(WallClock micros) {
  time_t secs = static_cast<time_t>(micros / 1'000'000);
  struct tm tm_utc;
  gmtime_r(&secs, &tm_utc);
  char buf[64];
  snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d.%06llu",
           tm_utc.tm_year + 1900, tm_utc.tm_mon + 1, tm_utc.tm_mday,
           tm_utc.tm_hour, tm_utc.tm_min, tm_utc.tm_sec,
           static_cast<unsigned long long>(micros % 1'000'000));
  return buf;
}

}  // namespace rewinddb
