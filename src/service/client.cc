#include "service/client.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/string_util.h"

namespace dbim {

namespace {

#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

// The OK <count> that closes an ITEM body must count the items it closed.
bool ExpectItemCount(const AwaitedResponse& response, std::string* error) {
  size_t count = 0;
  if (!DecodeCounts(response.final.args, error, &count)) return false;
  if (count == response.items.size()) return true;
  *error = "reply's item count disagrees with its items";
  return false;
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

bool ServiceClient::Call(Request request, AwaitedResponse* out,
                         std::string* error, std::string* tag) {
  const std::string issued = Issue(std::move(request), error);
  if (issued.empty() || !Await(issued, out, error)) return false;
  if (tag != nullptr) *tag = issued;
  if (!out->ok()) {
    *error = out->final.error_code + ": " + out->final.error_message;
    return false;
  }
  return true;
}

bool ServiceClient::Ping(std::string* error) {
  AwaitedResponse r;
  return Call(Request::Ping(), &r, error);
}

bool ServiceClient::Schema(std::string* relation,
                           std::vector<std::string>* attributes,
                           std::string* error,
                           std::vector<WireCommand>* commands) {
  AwaitedResponse r;
  if (!Call(Request::Schema(), &r, error)) return false;
  std::vector<WireCommand> rows(r.items.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!DecodeCommandRow(r.items[i].args, &rows[i], error)) return false;
  }
  if (commands != nullptr) *commands = std::move(rows);
  return DecodeRelation(r.final.args, relation, attributes, error);
}

bool ServiceClient::Register(const std::string& session, std::string* error) {
  AwaitedResponse r;
  return Call(Request::MakeRegister(session), &r, error);
}

bool ServiceClient::RegisterAttach(const std::string& session,
                                   size_t* num_facts, std::string* error) {
  AwaitedResponse r;
  return Call(Request::MakeRegister(session, /*attach=*/true), &r, error) &&
         DecodeCounts(r.final.args, error, num_facts);
}

bool ServiceClient::Checkpoint(uint64_t* epoch, std::string* error) {
  AwaitedResponse r;
  return Call(Request::MakeCheckpoint(), &r, error) &&
         DecodeCounts(r.final.args, error, epoch);
}

bool ServiceClient::ApplyInsert(const std::string& session,
                                std::vector<Value> values, FactId* id,
                                std::string* error) {
  AwaitedResponse r;
  return Call(Request::Insert(session, std::move(values)), &r, error) &&
         DecodeCounts(r.final.args, error, id);
}

bool ServiceClient::ApplyDelete(const std::string& session, FactId id,
                                std::string* error) {
  AwaitedResponse r;
  return Call(Request::Delete(session, id), &r, error);
}

bool ServiceClient::ApplyUpdate(const std::string& session, FactId id,
                                AttrIndex attr, Value value,
                                std::string* error) {
  AwaitedResponse r;
  return Call(Request::Update(session, id, attr, std::move(value)), &r,
              error);
}

bool ServiceClient::Evaluate(const std::string& session, WireReport* report,
                             std::string* error) {
  AwaitedResponse r;
  return Call(Request::Evaluate(session), &r, error) &&
         DecodeReport(r.final.args, 0, report, error);
}

bool ServiceClient::EvaluateAll(
    std::vector<std::pair<std::string, WireReport>>* reports,
    std::string* error) {
  AwaitedResponse r;
  if (!Call(Request::EvaluateAll(), &r, error) ||
      !ExpectItemCount(r, error)) {
    return false;
  }
  reports->assign(r.items.size(), {});
  for (size_t i = 0; i < r.items.size(); ++i) {
    auto& [name, report] = (*reports)[i];
    if (!DecodeSessionReport(r.items[i].args, &name, &report, error)) {
      return false;
    }
  }
  return true;
}

bool ServiceClient::Stats(const std::string& session, std::string* json,
                          std::string* error,
                          std::string* durability_json) {
  AwaitedResponse r;
  std::string durability;
  if (!Call(Request::Stats(session), &r, error) ||
      !DecodeStats(r.final.args, json, &durability, error)) {
    return false;
  }
  if (durability_json != nullptr) *durability_json = std::move(durability);
  return true;
}

bool ServiceClient::Dump(
    const std::string& session,
    std::vector<std::pair<FactId, std::vector<Value>>>* rows,
    std::string* error) {
  AwaitedResponse r;
  if (!Call(Request::Dump(session), &r, error) || !ExpectItemCount(r, error)) {
    return false;
  }
  rows->assign(r.items.size(), {});
  for (size_t i = 0; i < r.items.size(); ++i) {
    auto& [id, values] = (*rows)[i];
    if (!DecodeDumpRow(r.items[i].args, &id, &values, error)) return false;
  }
  return true;
}

bool ServiceClient::Unregister(const std::string& session,
                               std::string* error) {
  AwaitedResponse r;
  return Call(Request::MakeUnregister(session), &r, error);
}

bool ServiceClient::Vacuum(double threshold, bool* compacted,
                           std::string* error) {
  AwaitedResponse r;
  return Call(Request::Vacuum(threshold), &r, error) &&
         DecodeCounts(r.final.args, error, compacted);
}

bool ServiceClient::EvaluateApprox(const std::string& session, double eps,
                                   WireApproxReport* report,
                                   std::string* error) {
  AwaitedResponse r;
  return Call(Request::EvaluateApprox(session, eps), &r, error) &&
         DecodeApproxReport(r.final.args, report, error);
}

bool ServiceClient::StreamTick(const std::string& session, uint64_t tick,
                               size_t* expired, size_t* live,
                               std::string* error) {
  AwaitedResponse r;
  return Call(Request::StreamTick(session, tick), &r, error) &&
         DecodeCounts(r.final.args, error, expired, live);
}

bool ServiceClient::Subscribe(const std::string& session, double threshold,
                              std::string* subscribe_tag, size_t* current,
                              std::string* error) {
  AwaitedResponse r;
  return Call(Request::Subscribe(session, threshold), &r, error,
              subscribe_tag) &&
         DecodeCounts(r.final.args, error, current);
}

bool ServiceClient::DrainPushed(const std::string& subscribe_tag,
                                std::vector<PushedItem>* items,
                                std::string* error) {
  items->clear();
  const auto it = pending_.find(subscribe_tag);
  if (it == pending_.end()) return true;
  items->resize(it->second.size());
  for (size_t i = 0; i < items->size(); ++i) {
    const Response& r = it->second[i];
    if (r.kind != ResponseKind::kItem ||
        !DecodePush(r.args, &(*items)[i], error)) {
      *error = "malformed SUBSCRIBE notification: " + FormatResponse(r);
      return false;
    }
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
