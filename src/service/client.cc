#include "service/client.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>

#include "common/string_util.h"

namespace dbim {

namespace {

#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

constexpr uint64_t kMaxFactId = std::numeric_limits<FactId>::max();

// A reply count through the checked ParseUint64: plain decimal digits, no
// sign, no wrap-around.
bool ParseCount(const std::string& token, size_t* out, std::string* error) {
  uint64_t v = 0;
  if (!ParseUint64(token, std::numeric_limits<size_t>::max(), &v, error)) {
    return false;
  }
  *out = static_cast<size_t>(v);
  return true;
}

// A reply measure value. ParseDouble rejects NaN, but a measure that
// gave up (I_MC past its budget) reports one, printed "nan" or "-nan".
bool ParseMeasureValue(const std::string& token, double* out,
                       std::string* error) {
  if (token == "nan" || token == "-nan") {
    *out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  return ParseDouble(token, out, error);
}

}  // namespace

ServiceClient::~ServiceClient() { Close(); }

bool ServiceClient::Connect(const std::string& host, uint16_t port,
                            std::string* error) {
  Close();
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const std::string port_str = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints,
                               &result);
  if (rc != 0) {
    *error = StrFormat("resolve %s: %s", host.c_str(), ::gai_strerror(rc));
    return false;
  }
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      fd_ = fd;
      break;
    }
    ::close(fd);
  }
  ::freeaddrinfo(result);
  if (fd_ < 0) {
    *error = StrFormat("connect %s:%u: %s", host.c_str(), port,
                       std::strerror(errno));
    return false;
  }
  buffer_ = LineBuffer();
  lines_.clear();
  pending_.clear();
  return true;
}

void ServiceClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void ServiceClient::Abort() {
  if (fd_ < 0) return;
  linger hard{};
  hard.l_onoff = 1;
  hard.l_linger = 0;
  ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  ::close(fd_);
  fd_ = -1;
}

bool ServiceClient::WriteAll(const std::string& data, std::string* error) {
  if (fd_ < 0) {
    *error = "not connected";
    return false;
  }
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + off, data.size() - off, kSendFlags);
    if (n <= 0) {
      *error = StrFormat("send: %s", std::strerror(errno));
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool ServiceClient::ReadLine(std::string* line, std::string* error) {
  for (;;) {
    if (!lines_.empty()) {
      *line = std::move(lines_.front());
      lines_.pop_front();
      return true;
    }
    if (fd_ < 0) {
      *error = "not connected";
      return false;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {
      *error = "connection closed by server";
      return false;
    }
    if (n < 0) {
      *error = StrFormat("recv: %s", std::strerror(errno));
      return false;
    }
    std::vector<std::string> fresh;
    if (!buffer_.Feed(chunk, static_cast<size_t>(n), &fresh)) {
      *error = "oversized response line";
      return false;
    }
    for (std::string& l : fresh) lines_.push_back(std::move(l));
  }
}

std::string ServiceClient::Issue(Request request, std::string* error) {
  request.tag = "c" + std::to_string(next_tag_++);
  std::string line = FormatRequest(request);
  line.push_back('\n');
  if (!WriteAll(line, error)) return "";
  return request.tag;
}

bool ServiceClient::Await(const std::string& tag, AwaitedResponse* out,
                          std::string* error) {
  out->items.clear();
  // Drain anything already buffered for this tag.
  auto it = pending_.find(tag);
  if (it != pending_.end()) {
    for (Response& r : it->second) {
      if (r.kind == ResponseKind::kItem) {
        out->items.push_back(std::move(r));
      } else {
        out->final = std::move(r);
        pending_.erase(it);
        return true;
      }
    }
    pending_.erase(it);
  }
  for (;;) {
    std::string line;
    if (!ReadLine(&line, error)) return false;
    Response response;
    if (!ParseResponse(line, &response, error)) {
      *error = "malformed response: " + *error;
      return false;
    }
    if (response.tag == tag) {
      if (response.kind == ResponseKind::kItem) {
        out->items.push_back(std::move(response));
        continue;
      }
      out->final = std::move(response);
      return true;
    }
    pending_[response.tag].push_back(std::move(response));
  }
}

bool ServiceClient::AwaitOk(const std::string& tag, AwaitedResponse* out,
                            std::string* error) {
  if (tag.empty()) return false;
  if (!Await(tag, out, error)) return false;
  if (!out->ok()) {
    *error = out->final.error_code + ": " + out->final.error_message;
    return false;
  }
  return true;
}

bool ServiceClient::Ping(std::string* error) {
  AwaitedResponse response;
  return AwaitOk(Issue(Request::Ping(), error), &response, error);
}

bool ServiceClient::Schema(std::string* relation,
                           std::vector<std::string>* attributes,
                           std::string* error) {
  AwaitedResponse response;
  if (!AwaitOk(Issue(Request::Schema(), error), &response, error)) {
    return false;
  }
  const std::vector<std::string>& args = response.final.args;
  if (args.empty()) {
    *error = "SCHEMA reply carries no relation";
    return false;
  }
  if (!DecodeToken(args[0], relation, error)) return false;
  attributes->clear();
  for (size_t i = 1; i < args.size(); ++i) {
    std::string attr;
    if (!DecodeToken(args[i], &attr, error)) return false;
    attributes->push_back(std::move(attr));
  }
  return true;
}

bool ServiceClient::Register(const std::string& session, std::string* error) {
  AwaitedResponse response;
  return AwaitOk(Issue(Request::MakeRegister(session), error), &response,
                 error);
}

bool ServiceClient::RegisterAttach(const std::string& session,
                                   size_t* num_facts, std::string* error) {
  AwaitedResponse response;
  if (!AwaitOk(Issue(Request::MakeRegister(session, /*attach=*/true), error),
               &response, error)) {
    return false;
  }
  if (response.final.args.size() != 1 ||
      !ParseCount(response.final.args[0], num_facts, error)) {
    *error = "ATTACH reply carries no fact count";
    return false;
  }
  return true;
}

bool ServiceClient::Checkpoint(uint64_t* epoch, std::string* error) {
  AwaitedResponse response;
  if (!AwaitOk(Issue(Request::MakeCheckpoint(), error), &response, error)) {
    return false;
  }
  if (response.final.args.size() != 1 ||
      !ParseUint64(response.final.args[0],
                   std::numeric_limits<uint64_t>::max(), epoch, error)) {
    *error = "CHECKPOINT reply carries no epoch";
    return false;
  }
  return true;
}

bool ServiceClient::ApplyInsert(const std::string& session,
                                std::vector<Value> values, FactId* id,
                                std::string* error) {
  AwaitedResponse response;
  if (!AwaitOk(Issue(Request::Insert(session, std::move(values)), error),
               &response, error)) {
    return false;
  }
  uint64_t parsed = 0;
  if (response.final.args.size() != 1 ||
      !ParseUint64(response.final.args[0], kMaxFactId, &parsed, error)) {
    *error = "INSERT reply carries no fact id";
    return false;
  }
  *id = static_cast<FactId>(parsed);
  return true;
}

bool ServiceClient::ApplyDelete(const std::string& session, FactId id,
                                std::string* error) {
  AwaitedResponse response;
  return AwaitOk(Issue(Request::Delete(session, id), error), &response,
                 error);
}

bool ServiceClient::ApplyUpdate(const std::string& session, FactId id,
                                AttrIndex attr, Value value,
                                std::string* error) {
  AwaitedResponse response;
  return AwaitOk(Issue(Request::Update(session, id, attr, std::move(value)),
                       error),
                 &response, error);
}

bool ServiceClient::ParseReportArgs(const std::vector<std::string>& args,
                                    size_t offset, WireReport* report,
                                    std::string* error) {
  *report = WireReport();
  if (args.size() < offset + 3 || (args.size() - offset - 3) % 2 != 0) {
    *error = "malformed report argument list";
    return false;
  }
  if (!ParseCount(args[offset], &report->num_facts, error) ||
      !ParseCount(args[offset + 1], &report->num_minimal_subsets, error)) {
    *error = "malformed report counts";
    return false;
  }
  if (args[offset + 2] != "0" && args[offset + 2] != "1") {
    *error = "malformed truncated flag";
    return false;
  }
  report->truncated = args[offset + 2] == "1";
  for (size_t i = offset + 3; i + 1 < args.size(); i += 2) {
    std::string name;
    if (!DecodeToken(args[i], &name, error)) return false;
    double value = 0.0;
    if (!ParseMeasureValue(args[i + 1], &value, error)) {
      *error = "malformed measure value: " + args[i + 1];
      return false;
    }
    report->measures.emplace_back(std::move(name), value);
  }
  return true;
}

bool ServiceClient::Evaluate(const std::string& session, WireReport* report,
                             std::string* error) {
  AwaitedResponse response;
  if (!AwaitOk(Issue(Request::Evaluate(session), error), &response, error)) {
    return false;
  }
  return ParseReportArgs(response.final.args, 0, report, error);
}

bool ServiceClient::EvaluateAll(
    std::vector<std::pair<std::string, WireReport>>* reports,
    std::string* error) {
  AwaitedResponse response;
  if (!AwaitOk(Issue(Request::EvaluateAll(), error), &response, error)) {
    return false;
  }
  reports->clear();
  for (const Response& item : response.items) {
    if (item.args.empty()) {
      *error = "EVALUATE_ALL item carries no session";
      return false;
    }
    std::string name;
    if (!DecodeToken(item.args[0], &name, error)) return false;
    WireReport report;
    if (!ParseReportArgs(item.args, 1, &report, error)) return false;
    reports->emplace_back(std::move(name), std::move(report));
  }
  return true;
}

bool ServiceClient::Stats(const std::string& session, std::string* json,
                          std::string* error,
                          std::string* durability_json) {
  AwaitedResponse response;
  if (!AwaitOk(Issue(Request::Stats(session), error), &response, error)) {
    return false;
  }
  if (response.final.args.empty()) {
    *error = "STATS reply carries no payload";
    return false;
  }
  if (!DecodeToken(response.final.args[0], json, error)) return false;
  if (durability_json != nullptr) {
    durability_json->clear();
    if (response.final.args.size() >= 2 &&
        !DecodeToken(response.final.args[1], durability_json, error)) {
      return false;
    }
  }
  return true;
}

bool ServiceClient::Dump(
    const std::string& session,
    std::vector<std::pair<FactId, std::vector<Value>>>* rows,
    std::string* error) {
  AwaitedResponse response;
  if (!AwaitOk(Issue(Request::Dump(session), error), &response, error)) {
    return false;
  }
  rows->clear();
  for (const Response& item : response.items) {
    if (item.args.empty()) {
      *error = "DUMP item carries no fact id";
      return false;
    }
    uint64_t id = 0;
    if (!ParseUint64(item.args[0], kMaxFactId, &id, error)) {
      *error = "DUMP item has a malformed fact id";
      return false;
    }
    std::vector<Value> values;
    values.reserve(item.args.size() - 1);
    for (size_t i = 1; i < item.args.size(); ++i) {
      Value v;
      if (!DecodeValue(item.args[i], &v, error)) return false;
      values.push_back(std::move(v));
    }
    rows->emplace_back(static_cast<FactId>(id), std::move(values));
  }
  return true;
}

bool ServiceClient::Unregister(const std::string& session,
                               std::string* error) {
  AwaitedResponse response;
  return AwaitOk(Issue(Request::MakeUnregister(session), error), &response,
                 error);
}

bool ServiceClient::Vacuum(double threshold, bool* compacted,
                           std::string* error) {
  AwaitedResponse response;
  if (!AwaitOk(Issue(Request::Vacuum(threshold), error), &response, error)) {
    return false;
  }
  const std::vector<std::string>& args = response.final.args;
  if (args.size() != 1 || (args[0] != "0" && args[0] != "1")) {
    *error = "malformed VACUUM reply";
    return false;
  }
  *compacted = args[0] == "1";
  return true;
}

bool ServiceClient::EvaluateApprox(const std::string& session, double eps,
                                   WireApproxReport* report,
                                   std::string* error) {
  AwaitedResponse response;
  if (!AwaitOk(Issue(Request::EvaluateApprox(session, eps), error), &response,
               error)) {
    return false;
  }
  const std::vector<std::string>& args = response.final.args;
  *report = WireApproxReport();
  if (args.size() < 3 || (args.size() - 3) % 4 != 0) {
    *error = "malformed APPROX argument list";
    return false;
  }
  if (!ParseCount(args[0], &report->num_facts, error) ||
      !ParseCount(args[1], &report->sample_size, error) ||
      !ParseDouble(args[2], &report->sample_fraction, error)) {
    *error = "malformed APPROX counts";
    return false;
  }
  for (size_t i = 3; i + 3 < args.size(); i += 4) {
    WireApproxReport::Estimate e;
    if (!DecodeToken(args[i], &e.name, error)) return false;
    if (!ParseMeasureValue(args[i + 1], &e.estimate, error) ||
        !ParseMeasureValue(args[i + 2], &e.ci_low, error) ||
        !ParseMeasureValue(args[i + 3], &e.ci_high, error)) {
      *error = "malformed APPROX estimate: " + e.name;
      return false;
    }
    report->estimates.push_back(std::move(e));
  }
  return true;
}

bool ServiceClient::StreamTick(const std::string& session, uint64_t tick,
                               size_t* expired, size_t* live,
                               std::string* error) {
  AwaitedResponse response;
  if (!AwaitOk(Issue(Request::StreamTick(session, tick), error), &response,
               error)) {
    return false;
  }
  if (response.final.args.size() != 2 ||
      !ParseCount(response.final.args[0], expired, error) ||
      !ParseCount(response.final.args[1], live, error)) {
    *error = "malformed STREAM_TICK reply";
    return false;
  }
  return true;
}

bool ServiceClient::Subscribe(const std::string& session, double threshold,
                              std::string* subscribe_tag, size_t* current,
                              std::string* error) {
  AwaitedResponse response;
  const std::string tag = Issue(Request::Subscribe(session, threshold), error);
  if (!AwaitOk(tag, &response, error)) return false;
  if (response.final.args.size() != 1 ||
      !ParseCount(response.final.args[0], current, error)) {
    *error = "SUBSCRIBE reply carries no subset count";
    return false;
  }
  *subscribe_tag = tag;
  return true;
}

bool ServiceClient::DrainPushed(const std::string& subscribe_tag,
                                std::vector<PushedItem>* items,
                                std::string* error) {
  items->clear();
  const auto it = pending_.find(subscribe_tag);
  if (it == pending_.end()) return true;
  for (const Response& r : it->second) {
    if (r.kind != ResponseKind::kItem || r.args.size() != 2 ||
        (r.args[0] != "up" && r.args[0] != "down")) {
      *error = "malformed SUBSCRIBE notification";
      return false;
    }
    PushedItem item;
    item.up = r.args[0] == "up";
    if (!ParseMeasureValue(r.args[1], &item.value, error)) {
      *error = "malformed SUBSCRIBE notification value";
      return false;
    }
    items->push_back(item);
  }
  pending_.erase(it);
  return true;
}

bool ServiceClient::SendRawLine(const std::string& line, std::string* error) {
  return WriteAll(line + "\n", error);
}

bool ServiceClient::ReadRawLine(std::string* line, std::string* error) {
  return ReadLine(line, error);
}

}  // namespace dbim
