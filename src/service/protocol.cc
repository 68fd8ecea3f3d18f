#include "service/protocol.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/string_util.h"

namespace dbim {

namespace {

bool IsTokenByte(char c) {
  const unsigned char u = static_cast<unsigned char>(c);
  return u >= 0x21 && u <= 0x7e;
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

bool ValidTag(const std::string& tag) {
  if (tag.empty() || tag.size() > kMaxTagBytes) return false;
  for (const char c : tag) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

/// Strict tokenization: pieces separated by exactly one space, no leading,
/// trailing or doubled separators (those produce empty pieces, rejected).
bool SplitTokens(const std::string& line, std::vector<std::string>* out,
                 std::string* error) {
  out->clear();
  if (line.empty()) {
    *error = "empty line";
    return false;
  }
  for (std::string& piece : Split(line, ' ')) {
    if (piece.empty()) {
      *error = "empty token (doubled, leading or trailing space)";
      return false;
    }
    for (const char c : piece) {
      if (!IsTokenByte(c)) {
        *error = "control or non-ASCII byte in token";
        return false;
      }
    }
    out->push_back(std::move(piece));
  }
  return true;
}

bool DecodeSessionName(const std::string& token, std::string* out,
                       std::string* error) {
  if (!DecodeToken(token, out, error)) return false;
  if (out->empty() || out->size() > kMaxSessionNameBytes) {
    *error = "session name empty or too long";
    return false;
  }
  return true;
}

}  // namespace

std::string EncodeToken(const std::string& s) {
  if (s.empty()) return "%";
  static const char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (IsTokenByte(c) && c != '%') {
      out.push_back(c);
    } else {
      const unsigned char u = static_cast<unsigned char>(c);
      out.push_back('%');
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 0xf]);
    }
  }
  return out;
}

bool DecodeToken(const std::string& token, std::string* out,
                 std::string* error) {
  out->clear();
  if (token == "%") return true;  // the empty string
  if (token.empty()) {
    *error = "empty token";
    return false;
  }
  out->reserve(token.size());
  for (size_t i = 0; i < token.size(); ++i) {
    const char c = token[i];
    if (c == '%') {
      if (i + 3 > token.size()) {
        *error = "truncated %XX escape";
        return false;
      }
      const int hi = HexDigit(token[i + 1]);
      const int lo = HexDigit(token[i + 2]);
      if (hi < 0 || lo < 0) {
        *error = "bad %XX escape";
        return false;
      }
      out->push_back(static_cast<char>((hi << 4) | lo));
      i += 2;
    } else if (IsTokenByte(c)) {
      out->push_back(c);
    } else {
      *error = "raw control byte in token";
      return false;
    }
  }
  return true;
}

std::string EncodeValue(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      return "_";
    case Value::Kind::kInt:
      return StrFormat("i:%" PRId64, v.as_int());
    case Value::Kind::kDouble:
      return StrFormat("d:%.17g", v.as_double());
    case Value::Kind::kString: {
      const std::string& s = v.as_string();
      return s.empty() ? "s:" : "s:" + EncodeToken(s);
    }
  }
  return "_";
}

bool DecodeValue(const std::string& token, Value* out, std::string* error) {
  if (token == "_") {
    *out = Value();
    return true;
  }
  if (StartsWith(token, "i:")) {
    int64_t v = 0;
    if (!ParseInt64(token.substr(2), &v, error)) {
      *error = "bad int value: " + token;
      return false;
    }
    *out = Value(v);
    return true;
  }
  if (StartsWith(token, "d:")) {
    double v = 0.0;
    if (!ParseDouble(token.substr(2), &v, error)) return false;
    *out = Value(v);
    return true;
  }
  if (StartsWith(token, "s:")) {
    const std::string body = token.substr(2);
    if (body.empty()) {
      *out = Value(std::string());
      return true;
    }
    std::string decoded;
    if (!DecodeToken(body, &decoded, error)) return false;
    *out = Value(std::move(decoded));
    return true;
  }
  *error = "unknown value encoding: " + token;
  return false;
}

const char* VerbName(Verb verb) { return CommandFor(verb).name; }

const char* DispatchName(Dispatch dispatch) {
  switch (dispatch) {
    case Dispatch::kInline:
      return "inline";
    case Dispatch::kQueued:
      return "queued";
    case Dispatch::kExclusive:
      return "exclusive";
  }
  return "inline";
}

const std::vector<CommandSpec>& CommandTable() {
  // Indexed by Verb — keep the rows in enum order (verified below).
  static const std::vector<CommandSpec> kTable = {
      {Verb::kPing, "PING", 0, 0, Dispatch::kInline,  //
       "PING", "liveness probe"},
      {Verb::kSchema, "SCHEMA", 0, 0, Dispatch::kInline,  //
       "SCHEMA", "served relation, attributes and this command table"},
      {Verb::kRegister, "REGISTER", 1, 2, Dispatch::kInline,
       "REGISTER <session> [ATTACH]",
       "create a named session; ATTACH reuses an existing one and replies "
       "its fact count"},
      {Verb::kApply, "APPLY", 2, kUnboundedArgs, Dispatch::kQueued,
       "APPLY <session> INSERT <value>... | DELETE <id> | UPDATE <id> "
       "<attr> <value>",
       "apply one repair operation; violations maintained incrementally"},
      {Verb::kEvaluate, "EVALUATE", 1, 3, Dispatch::kQueued,
       "EVALUATE <session> [APPROX <eps>]",
       "evaluate every measure on one session; APPROX replies sampling "
       "estimates with confidence intervals"},
      {Verb::kEvaluateAll, "EVALUATE_ALL", 0, 0, Dispatch::kExclusive,
       "EVALUATE_ALL", "evaluate every session in one consistent batch"},
      {Verb::kStats, "STATS", 1, 1, Dispatch::kQueued, "STATS <session>",
       "per-constraint counters plus the daemon's durability stats"},
      {Verb::kDump, "DUMP", 1, 1, Dispatch::kQueued, "DUMP <session>",
       "list the session's facts with their ids"},
      {Verb::kUnregister, "UNREGISTER", 1, 1, Dispatch::kQueued,
       "UNREGISTER <session>", "drop a session and its queued work"},
      {Verb::kVacuum, "VACUUM", 1, 1, Dispatch::kExclusive,
       "VACUUM <threshold>",
       "compact the value pool when its waste fraction exceeds threshold"},
      {Verb::kCheckpoint, "CHECKPOINT", 0, 0, Dispatch::kExclusive,
       "CHECKPOINT",
       "write a durable checkpoint and truncate the log; replies the new "
       "epoch"},
      {Verb::kStreamTick, "STREAM_TICK", 2, 2, Dispatch::kQueued,
       "STREAM_TICK <session> <tick>",
       "advance a windowed session's logical clock; replies expired and "
       "live fact counts"},
      {Verb::kSubscribe, "SUBSCRIBE", 1, 2, Dispatch::kQueued,
       "SUBSCRIBE <session> [threshold]",
       "push an ITEM under this tag whenever the minimal-subset count "
       "crosses the threshold"},
  };
  return kTable;
}

const CommandSpec& CommandFor(Verb verb) {
  const std::vector<CommandSpec>& table = CommandTable();
  const size_t index = static_cast<size_t>(verb);
  // The table is the single source of truth; a row out of enum order is a
  // programming error caught on first use.
  static const bool checked = [] {
    for (size_t i = 0; i < CommandTable().size(); ++i) {
      if (static_cast<size_t>(CommandTable()[i].verb) != i) std::abort();
    }
    return true;
  }();
  (void)checked;
  return table[index];
}

const CommandSpec* FindCommand(const std::string& name) {
  for (const CommandSpec& spec : CommandTable()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

Request Request::Ping() { return Request{}; }

Request Request::Schema() {
  Request r;
  r.verb = Verb::kSchema;
  return r;
}

Request Request::MakeRegister(std::string session, bool attach) {
  Request r;
  r.verb = Verb::kRegister;
  r.session = std::move(session);
  r.register_attach = attach;
  return r;
}

Request Request::MakeCheckpoint() {
  Request r;
  r.verb = Verb::kCheckpoint;
  return r;
}

Request Request::Insert(std::string session, std::vector<Value> values) {
  Request r;
  r.verb = Verb::kApply;
  r.apply_kind = ApplyKind::kInsert;
  r.session = std::move(session);
  r.values = std::move(values);
  return r;
}

Request Request::Delete(std::string session, FactId id) {
  Request r;
  r.verb = Verb::kApply;
  r.apply_kind = ApplyKind::kDelete;
  r.session = std::move(session);
  r.fact_id = id;
  return r;
}

Request Request::Update(std::string session, FactId id, AttrIndex attr,
                        Value value) {
  Request r;
  r.verb = Verb::kApply;
  r.apply_kind = ApplyKind::kUpdate;
  r.session = std::move(session);
  r.fact_id = id;
  r.attr = attr;
  r.values.push_back(std::move(value));
  return r;
}

Request Request::Evaluate(std::string session) {
  Request r;
  r.verb = Verb::kEvaluate;
  r.session = std::move(session);
  return r;
}

Request Request::EvaluateAll() {
  Request r;
  r.verb = Verb::kEvaluateAll;
  return r;
}

Request Request::Stats(std::string session) {
  Request r;
  r.verb = Verb::kStats;
  r.session = std::move(session);
  return r;
}

Request Request::Dump(std::string session) {
  Request r;
  r.verb = Verb::kDump;
  r.session = std::move(session);
  return r;
}

Request Request::MakeUnregister(std::string session) {
  Request r;
  r.verb = Verb::kUnregister;
  r.session = std::move(session);
  return r;
}

Request Request::Vacuum(double threshold) {
  Request r;
  r.verb = Verb::kVacuum;
  r.threshold = threshold;
  return r;
}

Request Request::EvaluateApprox(std::string session, double eps) {
  Request r;
  r.verb = Verb::kEvaluate;
  r.session = std::move(session);
  r.approx = true;
  r.eps = eps;
  return r;
}

Request Request::StreamTick(std::string session, uint64_t tick) {
  Request r;
  r.verb = Verb::kStreamTick;
  r.session = std::move(session);
  r.tick = tick;
  return r;
}

Request Request::Subscribe(std::string session, double threshold) {
  Request r;
  r.verb = Verb::kSubscribe;
  r.session = std::move(session);
  r.threshold = threshold;
  return r;
}

std::string FormatRequest(const Request& request) {
  std::string line = request.tag;
  line += ' ';
  line += VerbName(request.verb);
  switch (request.verb) {
    case Verb::kPing:
    case Verb::kSchema:
    case Verb::kEvaluateAll:
    case Verb::kCheckpoint:
      break;
    case Verb::kRegister:
      line += ' ';
      line += EncodeToken(request.session);
      if (request.register_attach) line += " ATTACH";
      break;
    case Verb::kEvaluate:
      line += ' ';
      line += EncodeToken(request.session);
      if (request.approx) line += StrFormat(" APPROX %.17g", request.eps);
      break;
    case Verb::kStats:
    case Verb::kDump:
    case Verb::kUnregister:
      line += ' ';
      line += EncodeToken(request.session);
      break;
    case Verb::kStreamTick:
      line += ' ';
      line += EncodeToken(request.session);
      line += StrFormat(" %llu",
                        static_cast<unsigned long long>(request.tick));
      break;
    case Verb::kSubscribe:
      line += ' ';
      line += EncodeToken(request.session);
      line += StrFormat(" %.17g", request.threshold);
      break;
    case Verb::kApply:
      line += ' ';
      line += EncodeToken(request.session);
      switch (request.apply_kind) {
        case ApplyKind::kInsert:
          line += " INSERT";
          for (const Value& v : request.values) {
            line += ' ';
            line += EncodeValue(v);
          }
          break;
        case ApplyKind::kDelete:
          line += StrFormat(" DELETE %u", request.fact_id);
          break;
        case ApplyKind::kUpdate:
          line += StrFormat(" UPDATE %u %u", request.fact_id, request.attr);
          line += ' ';
          line += EncodeValue(request.values.empty() ? Value()
                                                     : request.values[0]);
          break;
      }
      break;
    case Verb::kVacuum:
      line += StrFormat(" %.17g", request.threshold);
      break;
  }
  return line;
}

bool ParseRequest(const std::string& line, Request* out, std::string* error) {
  *out = Request{};
  out->tag = "*";
  std::vector<std::string> tokens;
  if (!SplitTokens(line, &tokens, error)) return false;
  if (ValidTag(tokens[0])) out->tag = tokens[0];
  if (out->tag == "*" && tokens[0] != "*") {
    *error = "bad tag";
    return false;
  }
  if (tokens.size() < 2) {
    *error = "missing verb";
    return false;
  }
  // Generic verb lookup + arity precheck from the command table; only the
  // per-verb payload decoding below stays bespoke.
  const CommandSpec* spec = FindCommand(tokens[1]);
  if (spec == nullptr) {
    *error = "unknown verb: " + tokens[1];
    return false;
  }
  const size_t n = tokens.size();
  const size_t argc = n - 2;
  if (argc < spec->min_args || argc > spec->max_args) {
    *error = StrFormat("%s: wrong argument count; usage: %s", spec->name,
                       spec->usage);
    return false;
  }
  out->verb = spec->verb;

  switch (spec->verb) {
    case Verb::kPing:
    case Verb::kSchema:
    case Verb::kEvaluateAll:
    case Verb::kCheckpoint:
      return true;
    case Verb::kRegister:
      if (!DecodeSessionName(tokens[2], &out->session, error)) return false;
      if (argc == 2) {
        if (tokens[3] != "ATTACH") {
          *error = StrFormat("REGISTER: unknown modifier %s; usage: %s",
                             tokens[3].c_str(), spec->usage);
          return false;
        }
        out->register_attach = true;
      }
      return true;
    case Verb::kEvaluate:
      if (!DecodeSessionName(tokens[2], &out->session, error)) return false;
      if (argc == 1) return true;
      if (argc != 3 || tokens[3] != "APPROX") {
        *error = StrFormat("EVALUATE: bad modifier; usage: %s", spec->usage);
        return false;
      }
      if (!ParseDouble(tokens[4], &out->eps, error)) return false;
      if (!(out->eps > 0.0) || out->eps > 1.0) {
        *error = "APPROX eps must be in (0, 1]";
        return false;
      }
      out->approx = true;
      return true;
    case Verb::kStats:
    case Verb::kDump:
    case Verb::kUnregister:
      return DecodeSessionName(tokens[2], &out->session, error);
    case Verb::kStreamTick:
      if (!DecodeSessionName(tokens[2], &out->session, error)) return false;
      return ParseUint64(tokens[3], std::numeric_limits<uint64_t>::max(),
                      &out->tick, error);
    case Verb::kSubscribe:
      if (!DecodeSessionName(tokens[2], &out->session, error)) return false;
      if (argc == 2) {
        if (!ParseDouble(tokens[3], &out->threshold, error)) return false;
        if (!(out->threshold >= 0.0)) {
          *error = "SUBSCRIBE threshold must be >= 0";
          return false;
        }
      }
      return true;
    case Verb::kVacuum:
      if (!ParseDouble(tokens[2], &out->threshold, error)) return false;
      if (!(out->threshold >= 0.0) || out->threshold > 1.0) {
        *error = "VACUUM threshold must be in [0, 1]";
        return false;
      }
      return true;
    case Verb::kApply:
      break;  // decoded below
  }

  if (!DecodeSessionName(tokens[2], &out->session, error)) return false;
  const std::string& op = tokens[3];
  if (op == "INSERT") {
    out->apply_kind = ApplyKind::kInsert;
    if (n < 5) {
      *error = "INSERT needs at least one value";
      return false;
    }
    // Arity is validated against the schema at execution; this cap only
    // bounds parser memory on hostile input.
    if (n - 4 > 1024) {
      *error = "INSERT has too many values";
      return false;
    }
    for (size_t i = 4; i < n; ++i) {
      Value v;
      if (!DecodeValue(tokens[i], &v, error)) return false;
      out->values.push_back(std::move(v));
    }
    return true;
  }
  if (op == "DELETE") {
    out->apply_kind = ApplyKind::kDelete;
    if (n != 5) {
      *error = "DELETE takes one fact id";
      return false;
    }
    uint64_t id = 0;
    if (!ParseUint64(tokens[4], std::numeric_limits<FactId>::max(), &id, error))
      return false;
    out->fact_id = static_cast<FactId>(id);
    return true;
  }
  if (op == "UPDATE") {
    out->apply_kind = ApplyKind::kUpdate;
    if (n != 7) {
      *error = "UPDATE takes fact id, attribute index and value";
      return false;
    }
    uint64_t id = 0;
    uint64_t attr = 0;
    if (!ParseUint64(tokens[4], std::numeric_limits<FactId>::max(), &id, error))
      return false;
    if (!ParseUint64(tokens[5], 4096, &attr, error)) return false;
    Value v;
    if (!DecodeValue(tokens[6], &v, error)) return false;
    out->fact_id = static_cast<FactId>(id);
    out->attr = static_cast<AttrIndex>(attr);
    out->values.push_back(std::move(v));
    return true;
  }
  *error = "unknown APPLY operation: " + op;
  return false;
}

Response Response::Ok(std::string tag, std::vector<std::string> args) {
  Response r;
  r.tag = std::move(tag);
  r.kind = ResponseKind::kOk;
  r.args = std::move(args);
  return r;
}

Response Response::Item(std::string tag, std::vector<std::string> args) {
  Response r;
  r.tag = std::move(tag);
  r.kind = ResponseKind::kItem;
  r.args = std::move(args);
  return r;
}

Response Response::Error(std::string tag, std::string code,
                         std::string message) {
  Response r;
  r.tag = std::move(tag);
  r.kind = ResponseKind::kErr;
  r.error_code = std::move(code);
  r.error_message = std::move(message);
  return r;
}

std::string FormatResponse(const Response& response) {
  std::string line = response.tag;
  switch (response.kind) {
    case ResponseKind::kOk:
      line += " OK";
      break;
    case ResponseKind::kItem:
      line += " ITEM";
      break;
    case ResponseKind::kErr:
      line += " ERR ";
      line += response.error_code;
      line += ' ';
      line += EncodeToken(response.error_message);
      return line;
  }
  for (const std::string& arg : response.args) {
    line += ' ';
    line += arg;
  }
  return line;
}

bool ParseResponse(const std::string& line, Response* out,
                   std::string* error) {
  *out = Response{};
  std::vector<std::string> tokens;
  if (!SplitTokens(line, &tokens, error)) return false;
  if (tokens.size() < 2) {
    *error = "response needs a tag and a kind";
    return false;
  }
  if (!ValidTag(tokens[0]) && tokens[0] != "*") {
    *error = "bad response tag";
    return false;
  }
  out->tag = tokens[0];
  const std::string& kind = tokens[1];
  if (kind == "OK" || kind == "ITEM") {
    out->kind = kind == "OK" ? ResponseKind::kOk : ResponseKind::kItem;
    out->args.assign(tokens.begin() + 2, tokens.end());
    return true;
  }
  if (kind == "ERR") {
    out->kind = ResponseKind::kErr;
    if (tokens.size() != 4) {
      *error = "ERR takes a code and a message token";
      return false;
    }
    out->error_code = tokens[2];
    return DecodeToken(tokens[3], &out->error_message, error);
  }
  *error = "unknown response kind: " + kind;
  return false;
}

bool LineBuffer::Feed(const char* data, size_t n,
                      std::vector<std::string>* lines) {
  if (overflowed_) return false;
  for (size_t i = 0; i < n; ++i) {
    const char c = data[i];
    if (c == '\n') {
      if (!partial_.empty() && partial_.back() == '\r') partial_.pop_back();
      lines->push_back(std::move(partial_));
      partial_.clear();
      continue;
    }
    if (partial_.size() + 1 >= max_) {
      overflowed_ = true;
      partial_.clear();
      return false;
    }
    partial_.push_back(c);
  }
  return true;
}

}  // namespace dbim
