#ifndef DBIM_SERVICE_CLIENT_H_
#define DBIM_SERVICE_CLIENT_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "service/protocol.h"

namespace dbim {

/// The terminal response for one awaited request plus any ITEM body lines
/// that arrived under its tag.
struct AwaitedResponse {
  Response final;
  std::vector<Response> items;

  bool ok() const { return final.kind == ResponseKind::kOk; }
};

/// Client for the dbimd line protocol. One instance drives one connection
/// and is NOT thread-safe — give each thread its own client (the load
/// generator and the service tests do).
///
/// The core is pipelined: Issue() writes a request and returns immediately
/// with its tag; Await() blocks until that tag's terminal reply, buffering
/// replies to other outstanding tags on the side. The synchronous verbs
/// (Ping, Register, Evaluate, ...) are Issue+Await pairs plus one reply
/// decoder from protocol.h.
class ServiceClient {
 public:
  ServiceClient() = default;
  ~ServiceClient();

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  bool Connect(const std::string& host, uint16_t port, std::string* error);

  /// Graceful close (FIN after all written bytes).
  void Close();

  /// Hard close: SO_LINGER(0) then close sends a reset, discarding
  /// whatever the kernel still had buffered — the "client killed
  /// mid-pipeline" behavior the disconnect tests need.
  void Abort();

  bool connected() const { return fd_ >= 0; }

  // ---- pipelined core ----

  /// Writes `request` (tag assigned here) and returns the tag, or "" on a
  /// write error.
  std::string Issue(Request request, std::string* error);

  /// Blocks until the terminal OK/ERR for `tag` arrives; ITEM lines under
  /// the tag are collected in order. Replies for other tags are buffered
  /// for their own Await calls.
  bool Await(const std::string& tag, AwaitedResponse* out, std::string* error);

  // ---- synchronous verbs (Issue + Await) ----

  bool Ping(std::string* error);
  /// The served relation; `commands` (optional) receives the server's
  /// command table, one row per verb.
  bool Schema(std::string* relation, std::vector<std::string>* attributes,
              std::string* error,
              std::vector<WireCommand>* commands = nullptr);
  bool Register(const std::string& session, std::string* error);
  /// REGISTER ... ATTACH: reuses the session when it exists (a recovered
  /// daemon), creates it otherwise; *num_facts is the attached fact count.
  bool RegisterAttach(const std::string& session, size_t* num_facts,
                      std::string* error);
  /// Returns the server-assigned fact id through *id.
  bool ApplyInsert(const std::string& session, std::vector<Value> values,
                   FactId* id, std::string* error);
  bool ApplyDelete(const std::string& session, FactId id, std::string* error);
  bool ApplyUpdate(const std::string& session, FactId id, AttrIndex attr,
                   Value value, std::string* error);
  bool Evaluate(const std::string& session, WireReport* report,
                std::string* error);
  bool EvaluateAll(std::vector<std::pair<std::string, WireReport>>* reports,
                   std::string* error);
  /// The constraint-stats table as JSON (TablePrinter::ToJson form).
  /// `durability_json` (optional) receives the daemon's durability
  /// counters — {"durable":0} when the server runs without a store.
  bool Stats(const std::string& session, std::string* json,
             std::string* error, std::string* durability_json = nullptr);
  /// CHECKPOINT: forces a durable checkpoint; *epoch is the new epoch.
  /// Fails with NO_STORE against a daemon running without durability.
  bool Checkpoint(uint64_t* epoch, std::string* error);
  bool Dump(const std::string& session,
            std::vector<std::pair<FactId, std::vector<Value>>>* rows,
            std::string* error);
  bool Unregister(const std::string& session, std::string* error);
  bool Vacuum(double threshold, bool* compacted, std::string* error);

  // ---- streaming & approximate verbs ----

  /// EVALUATE <session> APPROX <eps>: sampling-based estimates with
  /// confidence intervals (see streaming/approx.h for the estimators).
  bool EvaluateApprox(const std::string& session, double eps,
                      WireApproxReport* report, std::string* error);

  /// STREAM_TICK: advances a windowed session's logical clock. *expired
  /// facts slid out of the window; *live remain.
  bool StreamTick(const std::string& session, uint64_t tick, size_t* expired,
                  size_t* live, std::string* error);

  /// SUBSCRIBE: registers this connection as a threshold watcher on the
  /// session. *subscribe_tag is the tag the server pushes ITEMs under and
  /// *current the minimal-subset count at subscription time. Unsolicited
  /// ITEMs arrive interleaved with later replies; any synchronous verb
  /// buffers them, and DrainPushed collects what has accumulated.
  bool Subscribe(const std::string& session, double threshold,
                 std::string* subscribe_tag, size_t* current,
                 std::string* error);

  /// Moves the notifications buffered under `subscribe_tag` (by earlier
  /// Await calls) into *items without blocking. Issue a Ping first to pull
  /// in anything the server has already sent.
  bool DrainPushed(const std::string& subscribe_tag,
                   std::vector<PushedItem>* items, std::string* error);

  // ---- raw access (the protocol fuzz tests drive these) ----

  /// Writes arbitrary bytes followed by a newline.
  bool SendRawLine(const std::string& line, std::string* error);

  /// Blocks for the next response line in arrival order, bypassing the
  /// tag-matching buffers (only sound when no Await is interleaved).
  bool ReadRawLine(std::string* line, std::string* error);

  /// DecodeReport under its older name, which the benchmark harness calls.
  static bool ParseReportArgs(const std::vector<std::string>& args,
                              size_t offset, WireReport* report,
                              std::string* error) {
    return DecodeReport(args, offset, report, error);
  }

 private:
  bool WriteAll(const std::string& data, std::string* error);
  bool ReadLine(std::string* line, std::string* error);
  /// Issue + Await for one synchronous request; ERR maps to false with
  /// the error message. `tag` (optional) receives the request's tag.
  bool Call(Request request, AwaitedResponse* out, std::string* error,
            std::string* tag = nullptr);

  int fd_ = -1;
  uint64_t next_tag_ = 1;
  LineBuffer buffer_;
  std::deque<std::string> lines_;  // framed but not yet consumed
  // Buffered replies for outstanding tags other than the one being awaited.
  std::map<std::string, std::vector<Response>> pending_;
};

}  // namespace dbim

#endif  // DBIM_SERVICE_CLIENT_H_
