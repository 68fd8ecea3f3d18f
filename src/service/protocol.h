#ifndef DBIM_SERVICE_PROTOCOL_H_
#define DBIM_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "common/value.h"
#include "relational/database.h"

namespace dbim {

/// Wire protocol of the dbimd measure service: one request per line, tagged
/// one-line (or ITEM-prefixed multi-line) responses, so clients can pipeline
/// many requests per connection and match replies out of order.
///
/// Grammar (SP = one space, LF terminates every line; a trailing CR before
/// the LF is tolerated and stripped):
///
///   request   = tag SP verb *(SP token) LF
///   tag       = 1*32 of [A-Za-z0-9._-]        ; client-chosen, echoed back
///   verb      = any CommandSpec::name in CommandTable() below
///   response  = tag SP "OK"   *(SP token) LF  ; terminal success
///             | tag SP "ITEM" *(SP token) LF  ; body line before the OK
///             | tag SP "ERR" SP code SP token LF  ; terminal failure
///
/// Tokens never contain spaces or control bytes: free-form strings travel
/// percent-encoded (EncodeToken), cell values with a type prefix
/// (EncodeValue). Exactly one terminal response is produced per request
/// line — malformed lines included (tag "*" when no tag could be read) — so
/// a client that counts terminals never desyncs from the framing.
///
/// Request forms and their replies. [X] names the one codec pair that
/// builds and reads a reply line's payload: EncodeX on the server, DecodeX
/// on the client (below). <trunc01> is always 0 — detection runs to
/// completion — and stays in reports for wire compatibility.
///
///   t PING                     ; OK
///   t SCHEMA                   ; ITEM <verb> <min> <max|*> <dispatch>
///                              ;   <usage> <summary> per CommandTable row
///                              ;   [CommandRow], then OK <relation>
///                              ;   <attr>... [Relation]
///   t REGISTER <session>       ; OK        (ERR EXISTS if taken)
///   t REGISTER <session> ATTACH  ; OK <facts> [Counts] — reuses the
///                              ;   session when it exists (recovered
///                              ;   daemons), creates it with OK 0 otherwise
///   t APPLY <session> INSERT <value>...  ; OK <fact-id> [Counts]
///   t APPLY <session> DELETE <fact-id>   ; OK
///   t APPLY <session> UPDATE <fact-id> <attr-index> <value>  ; OK
///   t EVALUATE <session>       ; OK <facts> <subsets> <trunc01> (<m> <v>)*
///                              ;   [Report]
///   t EVALUATE <session> APPROX <eps>
///                              ; sampling estimators instead of the exact
///                              ;   measures: OK <facts> <sample> <fraction>
///                              ;   (<m> <estimate> <ci_low> <ci_high>)*
///                              ;   [ApproxReport]
///   t STREAM_TICK <session> <tick>
///                              ; advance a windowed session's logical
///                              ;   clock; OK <expired> <live> [Counts]
///   t SUBSCRIBE <session> [threshold]
///                              ; OK <subsets> now [Counts]; then an
///                              ;   unsolicited ITEM <up|down> <subsets>
///                              ;   [Push] under this tag whenever |MI|
///                              ;   crosses the threshold after an Apply or
///                              ;   window slide (the one verb whose ITEMs
///                              ;   follow its OK). A push caused by an
///                              ;   APPLY or STREAM_TICK is on the watcher's
///                              ;   wire before that op is acked, so a
///                              ;   watcher request sent after the writer
///                              ;   saw its OK (e.g. a PING) is answered
///                              ;   after the push
///   t EVALUATE_ALL             ; ITEM <session> <facts> <subsets> <trunc01>
///                              ;   (<m> <v>)* [SessionReport] — then
///                              ;   OK <count> [Counts]
///   t STATS <session>          ; OK <constraint-stats-json>
///                              ;    <durability-stats-json> [Stats]
///   t DUMP <session>           ; ITEM <fact-id> <value>... [DumpRow] —
///                              ;   then OK <count> [Counts]
///   t UNREGISTER <session>     ; OK
///   t VACUUM <threshold>       ; OK <0|1> [Counts] (1 = compaction ran)
///   t CHECKPOINT               ; OK <epoch> [Counts] (durable daemons only)
///
/// Error codes: BAD_REQUEST (unparseable or ill-typed request), NO_SESSION,
/// EXISTS, BUSY (admission control: the session's work queue is full),
/// TOO_LARGE (unframeable line; the server closes the connection),
/// NO_STORE (CHECKPOINT without --data-dir), SHUTDOWN, INTERNAL.

/// Longest accepted request/response line, including the newline. Lines
/// beyond the cap cannot be framed; the peer is told TOO_LARGE and cut off.
constexpr size_t kMaxLineBytes = 1 << 20;

/// Longest accepted tag and session name (decoded bytes).
constexpr size_t kMaxTagBytes = 32;
constexpr size_t kMaxSessionNameBytes = 256;

/// Percent-encodes `s` into a space-free printable token. Bytes outside
/// [0x21, 0x7e] and '%' itself become %XX (uppercase hex); the empty string
/// encodes as the lone byte "%" (unambiguous — a literal '%' is "%25").
std::string EncodeToken(const std::string& s);

/// Inverse of EncodeToken. Returns false (with *error set) on stray or
/// truncated escapes, embedded spaces, or control bytes.
bool DecodeToken(const std::string& token, std::string* out,
                 std::string* error);

/// Encodes a cell value: "_" for null, "i:<decimal>" for ints,
/// "d:<%.17g>" for doubles (17 significant digits round-trip binary64
/// exactly), "s:<EncodeToken bytes>" for strings ("s:" alone is the empty
/// string).
std::string EncodeValue(const Value& v);
bool DecodeValue(const std::string& token, Value* out, std::string* error);

/// Request verbs and the APPLY sub-operation.
enum class Verb {
  kPing,
  kSchema,
  kRegister,
  kApply,
  kEvaluate,
  kEvaluateAll,
  kStats,
  kDump,
  kUnregister,
  kVacuum,
  kCheckpoint,
  kStreamTick,
  kSubscribe,
};

enum class ApplyKind { kInsert, kDelete, kUpdate };

const char* VerbName(Verb verb);

/// How the server routes a verb once parsed:
///   kInline     answered on the reader thread, no session state touched
///               beyond registry lookups;
///   kQueued     admitted to the target session's bounded FIFO queue and
///               executed serially by the worker pool;
///   kExclusive  answered on the reader thread but serializing against the
///               whole hosted session (exclusive session lock and/or the
///               scheduler lock) — the VACUUM / CHECKPOINT / EVALUATE_ALL
///               class.
enum class Dispatch { kInline, kQueued, kExclusive };

const char* DispatchName(Dispatch dispatch);

/// No upper bound on a command's argument count (APPLY's INSERT payload).
constexpr size_t kUnboundedArgs = static_cast<size_t>(-1);

/// One wire command, declaratively: the single registry the parser (arity
/// precheck + usage-bearing errors), the server dispatcher (inline vs
/// queued vs exclusive) and the SCHEMA reply (one ITEM per row) all read —
/// adding a verb is one row here plus its handler.
struct CommandSpec {
  Verb verb;
  const char* name;
  size_t min_args;  // tokens after "tag VERB"
  size_t max_args;  // kUnboundedArgs = no cap
  Dispatch dispatch;
  const char* usage;    // one-line synopsis, shown in ERR messages + SCHEMA
  const char* summary;  // what the verb does
};

/// Every command, indexed by Verb (CommandTable()[size_t(verb)].verb ==
/// verb — enforced by a startup assertion in protocol.cc).
const std::vector<CommandSpec>& CommandTable();

/// The spec for `verb`.
const CommandSpec& CommandFor(Verb verb);

/// Case-sensitive lookup by wire name; nullptr when unknown.
const CommandSpec* FindCommand(const std::string& name);

/// One parsed request line. Fields beyond `tag` and `verb` are meaningful
/// only for the verbs that carry them (see the grammar above).
struct Request {
  std::string tag;
  Verb verb = Verb::kPing;
  std::string session;                 // decoded session name
  ApplyKind apply_kind = ApplyKind::kInsert;
  std::vector<Value> values;           // INSERT cells / UPDATE's one value
  FactId fact_id = 0;                  // DELETE / UPDATE target
  AttrIndex attr = 0;                  // UPDATE attribute
  double threshold = 0.0;              // VACUUM waste / SUBSCRIBE threshold
  bool register_attach = false;        // REGISTER ... ATTACH
  uint64_t tick = 0;                   // STREAM_TICK logical clock
  bool approx = false;                 // EVALUATE ... APPROX <eps>
  double eps = 0.0;                    // APPROX accuracy parameter

  /// Convenience constructors for the client side.
  static Request Ping();
  static Request Schema();
  static Request MakeRegister(std::string session, bool attach = false);
  static Request MakeCheckpoint();
  static Request Insert(std::string session, std::vector<Value> values);
  static Request Delete(std::string session, FactId id);
  static Request Update(std::string session, FactId id, AttrIndex attr,
                        Value value);
  static Request Evaluate(std::string session);
  static Request EvaluateAll();
  static Request Stats(std::string session);
  static Request Dump(std::string session);
  static Request MakeUnregister(std::string session);
  static Request Vacuum(double threshold);
  static Request EvaluateApprox(std::string session, double eps);
  static Request StreamTick(std::string session, uint64_t tick);
  static Request Subscribe(std::string session, double threshold = 0.0);
};

/// Renders `request` as one wire line (no trailing newline). The tag must
/// already be valid; values and names are encoded here.
std::string FormatRequest(const Request& request);

/// Parses one wire line (newline already stripped). On failure returns
/// false and sets *error; *out->tag still carries the line's tag when one
/// could be read ("*" otherwise), so the caller can address the error reply.
bool ParseRequest(const std::string& line, Request* out, std::string* error);

/// Response kinds: zero or more ITEM lines followed by exactly one terminal
/// OK or ERR per request.
enum class ResponseKind { kOk, kItem, kErr };

struct Response {
  std::string tag = "*";
  ResponseKind kind = ResponseKind::kOk;
  /// Raw space-free tokens after the kind word: the payload, built and read
  /// by the reply codec below. Empty for ERR.
  std::vector<std::string> args;
  std::string error_code;     // ERR only
  std::string error_message;  // ERR only, decoded

  bool ok() const { return kind == ResponseKind::kOk; }

  static Response Ok(std::string tag, std::vector<std::string> args = {});
  static Response Item(std::string tag, std::vector<std::string> args);
  static Response Error(std::string tag, std::string code,
                        std::string message);
};

std::string FormatResponse(const Response& response);
bool ParseResponse(const std::string& line, Response* out, std::string* error);

// Reply codec: every reply payload of the grammar above is built by its
// Encode* function and read back by its Decode* twin, here and nowhere else.
// Decoders reject what their encoder cannot produce. Counts are plain
// decimal digits; measure values travel as %.17g, so every finite double
// round-trips bit-exactly, and a NaN (a measure that gave up) stays NaN.

/// A measure report as EVALUATE and the items of EVALUATE_ALL carry it.
struct WireReport {
  size_t num_facts = 0;
  size_t num_minimal_subsets = 0;
  bool truncated = false;
  std::vector<std::pair<std::string, double>> measures;  // (name, value)
};

/// An EVALUATE ... APPROX reply: sampling estimators with confidence
/// intervals instead of exact measure values.
struct WireApproxReport {
  size_t num_facts = 0;
  size_t sample_size = 0;
  double sample_fraction = 1.0;
  struct Estimate {
    std::string name;
    double estimate = 0.0;
    double ci_low = 0.0;
    double ci_high = 0.0;
  };
  std::vector<Estimate> estimates;
};

/// One unsolicited SUBSCRIBE notification: the minimal-subset count crossed
/// the watcher's threshold going up or down.
struct PushedItem {
  bool up = false;
  double value = 0.0;
};

/// One SCHEMA command row as a client reads it back.
struct WireCommand {
  std::string name, dispatch, usage, summary;
  size_t min_args = 0;
  size_t max_args = 0;  // kUnboundedArgs for "*"
};

using ReplyArgs = std::vector<std::string>;

/// DecodeReport skips `offset` leading args.
ReplyArgs EncodeReport(const WireReport& report);
bool DecodeReport(const ReplyArgs& args, size_t offset, WireReport* out,
                  std::string* error);
ReplyArgs EncodeSessionReport(const std::string& session,
                              const WireReport& report);
bool DecodeSessionReport(const ReplyArgs& args, std::string* session,
                         WireReport* out, std::string* error);
ReplyArgs EncodeApproxReport(const WireApproxReport& report);
bool DecodeApproxReport(const ReplyArgs& args, WireApproxReport* out,
                        std::string* error);
ReplyArgs EncodePush(const PushedItem& item);
bool DecodePush(const ReplyArgs& args, PushedItem* out, std::string* error);
ReplyArgs EncodeDumpRow(FactId id, const std::vector<Value>& values);
bool DecodeDumpRow(const ReplyArgs& args, FactId* id,
                   std::vector<Value>* values, std::string* error);
ReplyArgs EncodeCommandRow(const CommandSpec& spec);
bool DecodeCommandRow(const ReplyArgs& args, WireCommand* out,
                      std::string* error);
ReplyArgs EncodeRelation(const std::string& name,
                         const std::vector<std::string>& attributes);
bool DecodeRelation(const ReplyArgs& args, std::string* name,
                    std::vector<std::string>* attributes, std::string* error);
ReplyArgs EncodeStats(const std::string& constraint_json,
                      const std::string& durability_json);
bool DecodeStats(const ReplyArgs& args, std::string* constraint_json,
                 std::string* durability_json, std::string* error);

/// The scalar replies: INSERT's fact id, ATTACH's fact count, CHECKPOINT's
/// epoch, STREAM_TICK's expired and live counts, SUBSCRIBE's current count,
/// VACUUM's 0/1 and the item counts of EVALUATE_ALL and DUMP.
ReplyArgs EncodeCounts(std::initializer_list<uint64_t> counts);
/// One count into any unsigned output, within the output's range (a bool
/// takes 0 or 1, a FactId at most 2^32 - 1).
template <typename T>
bool DecodeCount(const std::string& token, T* out, std::string* error) {
  uint64_t v = 0;
  if (!ParseUint64(token, std::numeric_limits<T>::max(), &v, error)) {
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}
/// Exactly one count per output.
template <typename... T>
bool DecodeCounts(const ReplyArgs& args, std::string* error, T*... out) {
  if (args.size() != sizeof...(out)) {
    *error = "reply carries " + std::to_string(args.size()) + " counts, not " +
             std::to_string(sizeof...(out));
    return false;
  }
  size_t i = 0;
  return (DecodeCount(args[i++], out, error) && ...);
}

/// Incremental newline framing over a byte stream shared by the server and
/// the client: feed whatever recv returned, collect the complete lines
/// (newline stripped, one trailing CR removed). Returns false once a line
/// exceeds `max_line_bytes` — the stream can no longer be framed and the
/// connection must be dropped; further feeds keep returning false.
class LineBuffer {
 public:
  explicit LineBuffer(size_t max_line_bytes = kMaxLineBytes)
      : max_(max_line_bytes) {}

  bool Feed(const char* data, size_t n, std::vector<std::string>* lines);

  bool overflowed() const { return overflowed_; }

 private:
  size_t max_;
  std::string partial_;
  bool overflowed_ = false;
};

}  // namespace dbim

#endif  // DBIM_SERVICE_PROTOCOL_H_
