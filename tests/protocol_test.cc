// Wire-protocol enforcement for the dbimd service: every verb and response
// kind round-trips through Format/Parse, and the parser rejects arbitrary
// garbage — random bytes, truncated lines, oversized tokens, interleaved
// partial writes — with a clean error, never a crash and never a framing
// desync. The socket-level fuzz at the bottom drives a live server and
// proves the one-terminal-reply-per-line contract holds for garbage too:
// a tagged PING after each batch must come back on the right tag in the
// right position.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "constraints/parser.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/spec.h"
#include "storage/backend.h"
#include "storage/durable_store.h"
#include "test_util.h"

namespace dbim {
namespace {

// ---------------------------------------------------------------- tokens --

TEST(ProtocolToken, RoundTripsArbitraryBytes) {
  const std::vector<std::string> cases = {
      "",        "plain",      "two words",  "%",        "100%",
      "a\tb",    "line\nfeed", "\r\n",       "caf\xc3\xa9",
      std::string("\x00\x01\x7f\xff", 4),    " leading", "trailing ",
      "%25%20",  "_",          "i:7",        "s:x"};
  for (const std::string& s : cases) {
    const std::string encoded = EncodeToken(s);
    EXPECT_EQ(encoded.find(' '), std::string::npos) << encoded;
    EXPECT_FALSE(encoded.empty());
    for (const char c : encoded) {
      EXPECT_TRUE(c >= 0x21 && c <= 0x7e) << "unprintable byte in " << encoded;
    }
    std::string decoded, error;
    ASSERT_TRUE(DecodeToken(encoded, &decoded, &error)) << error;
    EXPECT_EQ(decoded, s);
  }
}

TEST(ProtocolToken, EmptyStringIsUnambiguous) {
  // "" encodes as the lone "%", while a literal "%" escapes to "%25".
  EXPECT_EQ(EncodeToken(""), "%");
  EXPECT_EQ(EncodeToken("%"), "%25");
  std::string out, error;
  ASSERT_TRUE(DecodeToken("%", &out, &error));
  EXPECT_EQ(out, "");
}

TEST(ProtocolToken, RejectsMalformedEscapes) {
  std::string out, error;
  for (const std::string bad :
       {"%2", "%zz", "a%", "a%2", "%%", "with space", "ctrl\x01byte",
        "tab\there", ""}) {
    EXPECT_FALSE(DecodeToken(bad, &out, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

// ---------------------------------------------------------------- values --

TEST(ProtocolValue, RoundTripsEveryKind) {
  const std::vector<Value> cases = {
      Value(),  // null
      Value(0),
      Value(-1),
      Value(std::numeric_limits<int64_t>::min()),
      Value(std::numeric_limits<int64_t>::max()),
      Value(0.0),
      Value(-0.0),
      Value(0.1),
      Value(1.0 / 3.0),
      Value(-2.5e307 * 3.0),
      Value(std::numeric_limits<double>::denorm_min()),
      Value(std::numeric_limits<double>::max()),
      Value(""),
      Value("plain"),
      Value("with space and % and \n"),
  };
  for (const Value& v : cases) {
    const std::string encoded = EncodeValue(v);
    Value decoded;
    std::string error;
    ASSERT_TRUE(DecodeValue(encoded, &decoded, &error))
        << encoded << ": " << error;
    EXPECT_EQ(decoded.kind(), v.kind()) << encoded;
    EXPECT_TRUE(decoded == v) << encoded;
    if (v.kind() == Value::Kind::kDouble) {
      // Bit-exact, not just Value-equal (int/double cross-equality).
      EXPECT_EQ(std::signbit(decoded.as_double()), std::signbit(v.as_double()))
          << encoded;
      EXPECT_EQ(std::memcmp(&decoded, &decoded, 0), 0);  // no-op, documents
    }
  }
}

TEST(ProtocolValue, RejectsIllTypedTokens) {
  Value out;
  std::string error;
  for (const std::string bad :
       {"", "x", "i:", "i:abc", "i:1x", "i:-", "i:+", "i: 1", "d:", "d:nope",
        "d:nan", "d:-nan", "d:NaN", "7", "__",
        "i:99999999999999999999999999", "i:9223372036854775808"}) {
    EXPECT_FALSE(DecodeValue(bad, &out, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

// -------------------------------------------------------------- requests --

void ExpectRequestRoundTrips(const Request& request) {
  const std::string line = FormatRequest(request);
  Request parsed;
  std::string error;
  ASSERT_TRUE(ParseRequest(line, &parsed, &error)) << line << ": " << error;
  EXPECT_EQ(parsed.tag, request.tag) << line;
  EXPECT_EQ(parsed.verb, request.verb) << line;
  EXPECT_EQ(parsed.session, request.session) << line;
  EXPECT_EQ(parsed.apply_kind, request.apply_kind) << line;
  ASSERT_EQ(parsed.values.size(), request.values.size()) << line;
  for (size_t i = 0; i < parsed.values.size(); ++i) {
    EXPECT_TRUE(parsed.values[i] == request.values[i]) << line;
  }
  EXPECT_EQ(parsed.fact_id, request.fact_id) << line;
  EXPECT_EQ(parsed.attr, request.attr) << line;
  EXPECT_EQ(parsed.threshold, request.threshold) << line;
}

TEST(ProtocolRequest, EveryVerbRoundTrips) {
  std::vector<Request> requests = {
      Request::Ping(),
      Request::Schema(),
      Request::MakeRegister("tenant one"),  // space survives encoding
      Request::Insert("s", {Value(1), Value("x y"), Value(0.125), Value()}),
      Request::Delete("s", 42),
      Request::Update("s", 7, 2, Value("new")),
      Request::Evaluate("s"),
      Request::EvaluateAll(),
      Request::Stats("s"),
      Request::Dump("s"),
      Request::MakeUnregister("s"),
      Request::Vacuum(0.25),
  };
  for (Request& r : requests) {
    r.tag = "t-1.A_z";
    ExpectRequestRoundTrips(r);
  }
}

TEST(ProtocolRequest, RejectsStructuralGarbage) {
  Request out;
  std::string error;
  const std::vector<std::string> bad = {
      "",                          // empty line
      " ",                         // lone space
      "PING",                      // verb without tag
      "t",                         // tag without verb
      "t  PING",                   // double space = empty token
      " t PING",                   // leading space
      "t PING ",                   // trailing space = empty token
      "t ping",                    // verbs are case-sensitive
      "t NOSUCHVERB",              // unknown verb
      "t PING extra",              // arity: PING takes nothing
      "t REGISTER",                // missing session
      "t REGISTER a b",            // too many args
      "t APPLY s INSERT",          // INSERT needs >= 1 value
      "t APPLY s DELETE",          // missing id
      "t APPLY s DELETE x",        // non-numeric id
      "t APPLY s DELETE 1 2",      // too many args
      "t APPLY s UPDATE 1 2",      // missing value
      "t APPLY s UPDATE 1 x i:1",  // non-numeric attr
      "t APPLY s FROB 1",          // unknown apply kind
      "t APPLY s DELETE 99999999999999999999",  // u64 overflow
      "t VACUUM",                  // missing threshold
      "t VACUUM x",                // non-numeric threshold
      "t VACUUM 1.5",              // out of [0, 1]
      "t VACUUM -0.1",             // out of [0, 1]
      "t EVALUATE %2",             // malformed session encoding
      "bad tag! PING",             // tag charset
      std::string(kMaxTagBytes + 1, 'a') + " PING",  // tag too long
      "t REGISTER " + std::string(2 * kMaxSessionNameBytes + 2, 'a'),
      std::string("t PING\x01", 7),  // control byte
  };
  for (const std::string& line : bad) {
    EXPECT_FALSE(ParseRequest(line, &out, &error)) << "accepted: " << line;
    EXPECT_FALSE(error.empty()) << line;
  }
}

TEST(ProtocolRequest, TagRecoveredForAddressableErrors) {
  Request out;
  std::string error;
  // A parseable tag is preserved so the error reply can be addressed...
  EXPECT_FALSE(ParseRequest("mytag NOSUCHVERB", &out, &error));
  EXPECT_EQ(out.tag, "mytag");
  // ...and "*" stands in when no tag could be read.
  EXPECT_FALSE(ParseRequest("bad!tag PING", &out, &error));
  EXPECT_EQ(out.tag, "*");
  EXPECT_FALSE(ParseRequest("", &out, &error));
  EXPECT_EQ(out.tag, "*");
}

// ------------------------------------------------------------- responses --

TEST(ProtocolResponse, RoundTripsEveryKind) {
  const std::vector<Response> cases = {
      Response::Ok("t1"),
      Response::Ok("t2", {"17", "0", "1"}),
      Response::Item("t3", {"0", "i:5", "s:x", "_"}),
      Response::Error("t4", "NO_SESSION", "no session named \"x y\""),
      Response::Error("*", "BAD_REQUEST", ""),
  };
  for (const Response& r : cases) {
    const std::string line = FormatResponse(r);
    Response parsed;
    std::string error;
    ASSERT_TRUE(ParseResponse(line, &parsed, &error)) << line << ": " << error;
    EXPECT_EQ(parsed.tag, r.tag) << line;
    EXPECT_EQ(parsed.kind, r.kind) << line;
    EXPECT_EQ(parsed.args, r.args) << line;
    EXPECT_EQ(parsed.error_code, r.error_code) << line;
    EXPECT_EQ(parsed.error_message, r.error_message) << line;
  }
}

TEST(ProtocolResponse, RejectsGarbage) {
  Response out;
  std::string error;
  const std::vector<std::string> bad_lines = {
      "",      "t",          "t NOPE",
      "t OK  x", "t ERR",    "t ERR CODE",
      "t ERR CODE msg extra", std::string("t OK \x02", 6)};
  for (const std::string& bad : bad_lines) {
    EXPECT_FALSE(ParseResponse(bad, &out, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

// ------------------------------------------------------------ reply codec --

// Frames `args` as a reply line and parses it back: what a client reads.
ReplyArgs OverTheWire(const ReplyArgs& args) {
  const std::string line = FormatResponse(Response::Item("t", args));
  Response parsed;
  std::string error;
  EXPECT_TRUE(ParseResponse(line, &parsed, &error)) << line << ": " << error;
  return parsed.args;
}

// Bit-identical doubles, except that every NaN equals every NaN (the wire
// keeps a NaN a NaN, not its sign or payload).
void ExpectSameDouble(double got, double want, const std::string& where) {
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got)) << where;
  } else {
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
        << where << ": " << got << " vs " << want;
  }
}

void ExpectSameReport(const WireReport& got, const WireReport& want) {
  EXPECT_EQ(got.num_facts, want.num_facts);
  EXPECT_EQ(got.num_minimal_subsets, want.num_minimal_subsets);
  EXPECT_EQ(got.truncated, want.truncated);
  ASSERT_EQ(got.measures.size(), want.measures.size());
  for (size_t i = 0; i < got.measures.size(); ++i) {
    EXPECT_EQ(got.measures[i].first, want.measures[i].first);
    ExpectSameDouble(got.measures[i].second, want.measures[i].second,
                     want.measures[i].first);
  }
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

TEST(ReplyCodec, ReportsRoundTrip) {
  std::vector<WireReport> cases(3);  // cases[0]: an empty measure list
  cases[1] = {7,
              21,
              false,
              {{"I_d", 1.0},
               {"I_MI", 21.0},
               {"I_lin_R", 1.0 / 3.0},
               {"I_MC", kNan},
               {"I_R", -0.0},
               {"needs %20 encoding\n", 0.1},
               {"", std::numeric_limits<double>::denorm_min()}}};
  cases[2] = {std::numeric_limits<size_t>::max(), 1, true, {{"x", -1e300}}};
  for (const WireReport& report : cases) {
    WireReport got;
    std::string session, error;
    ASSERT_TRUE(DecodeReport(OverTheWire(EncodeReport(report)), 0, &got,
                             &error))
        << error;
    ExpectSameReport(got, report);
    ASSERT_TRUE(ServiceClient::ParseReportArgs(
        OverTheWire(EncodeReport(report)), 0, &got, &error))
        << error;
    ExpectSameReport(got, report);
    ASSERT_TRUE(DecodeSessionReport(
        OverTheWire(EncodeSessionReport("a b%c", report)), &session, &got,
        &error))
        << error;
    EXPECT_EQ(session, "a b%c");
    ExpectSameReport(got, report);
  }
}

TEST(ReplyCodec, ApproxReportsRoundTrip) {
  WireApproxReport empty;
  WireApproxReport full;
  full.num_facts = 40;
  full.sample_size = 13;
  full.sample_fraction = 13.0 / 40.0;
  full.estimates = {{"I_MI", 12.5, 0.30000000000000004, 1e17},
                    {"I P", kNan, -0.0, 2.0 / 3.0}};
  for (const WireApproxReport& report : {empty, full}) {
    WireApproxReport got;
    std::string error;
    ASSERT_TRUE(DecodeApproxReport(OverTheWire(EncodeApproxReport(report)),
                                   &got, &error))
        << error;
    EXPECT_EQ(got.num_facts, report.num_facts);
    EXPECT_EQ(got.sample_size, report.sample_size);
    ExpectSameDouble(got.sample_fraction, report.sample_fraction, "fraction");
    ASSERT_EQ(got.estimates.size(), report.estimates.size());
    for (size_t i = 0; i < got.estimates.size(); ++i) {
      const auto& g = got.estimates[i];
      const auto& w = report.estimates[i];
      EXPECT_EQ(g.name, w.name);
      ExpectSameDouble(g.estimate, w.estimate, w.name);
      ExpectSameDouble(g.ci_low, w.ci_low, w.name);
      ExpectSameDouble(g.ci_high, w.ci_high, w.name);
    }
  }
}

TEST(ReplyCodec, PushesRoundTrip) {
  for (const PushedItem& item : {PushedItem{true, 3.0}, PushedItem{false, 0.0},
                                 PushedItem{true, 1e20 + 1.0}}) {
    PushedItem got;
    std::string error;
    ASSERT_TRUE(DecodePush(OverTheWire(EncodePush(item)), &got, &error))
        << error;
    EXPECT_EQ(got.up, item.up);
    ExpectSameDouble(got.value, item.value, "push");
  }
}

TEST(ReplyCodec, DumpRowsOfEveryValueKindRoundTrip) {
  const std::vector<Value> values = {
      Value(),
      Value(std::numeric_limits<int64_t>::min()),
      Value(-0.0),
      Value(0.1),
      Value(""),
      Value("with space, % and \n"),
  };
  for (const FactId id : {FactId{0}, std::numeric_limits<FactId>::max()}) {
    FactId got_id = 1;
    std::vector<Value> got;
    std::string error;
    ASSERT_TRUE(DecodeDumpRow(OverTheWire(EncodeDumpRow(id, values)), &got_id,
                              &got, &error))
        << error;
    EXPECT_EQ(got_id, id);
    ASSERT_EQ(got.size(), values.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].kind(), values[i].kind()) << i;
      EXPECT_TRUE(got[i] == values[i]) << i;
    }
    EXPECT_TRUE(std::signbit(got[2].as_double()));
  }
}

TEST(ReplyCodec, SchemaAndStatsRoundTrip) {
  for (const CommandSpec& spec : CommandTable()) {
    WireCommand got;
    std::string error;
    ASSERT_TRUE(DecodeCommandRow(OverTheWire(EncodeCommandRow(spec)), &got,
                                 &error))
        << spec.name << ": " << error;
    EXPECT_EQ(got.name, spec.name);
    EXPECT_EQ(got.min_args, spec.min_args);
    EXPECT_EQ(got.max_args, spec.max_args);
    EXPECT_EQ(got.dispatch, DispatchName(spec.dispatch));
    EXPECT_EQ(got.usage, spec.usage);
    EXPECT_EQ(got.summary, spec.summary);
  }
  const std::vector<std::string> attributes = {"A b", "%", ""};
  for (size_t n = 0; n <= attributes.size(); ++n) {
    const std::vector<std::string> attrs(attributes.begin(),
                                         attributes.begin() + n);
    std::string name, error;
    std::vector<std::string> got;
    ASSERT_TRUE(DecodeRelation(OverTheWire(EncodeRelation("Rel 1", attrs)),
                               &name, &got, &error))
        << error;
    EXPECT_EQ(name, "Rel 1");
    EXPECT_EQ(got, attrs);
  }
  const std::string json = "{\n  \"rows\": [[\"!(t[A] = t'[A])\", \"3\"]]\n}\n";
  std::string constraints, durability, error;
  ASSERT_TRUE(DecodeStats(OverTheWire(EncodeStats(json, "")), &constraints,
                          &durability, &error))
      << error;
  EXPECT_EQ(constraints, json);
  EXPECT_EQ(durability, "");
}

TEST(ReplyCodec, CountsRoundTripWithinTheirOutputsRange) {
  const uint64_t max = std::numeric_limits<uint64_t>::max();
  uint64_t big = 1;
  size_t zero = 1;
  std::string error;
  ASSERT_TRUE(
      DecodeCounts(OverTheWire(EncodeCounts({max, 0})), &error, &big, &zero))
      << error;
  EXPECT_EQ(big, max);
  EXPECT_EQ(zero, 0u);
  bool flag = false;
  ASSERT_TRUE(DecodeCounts(OverTheWire(EncodeCounts({true})), &error, &flag))
      << error;
  EXPECT_TRUE(flag);
  FactId id = 0;
  ASSERT_TRUE(DecodeCounts(OverTheWire(EncodeCounts({4294967295u})), &error,
                           &id))
      << error;
  EXPECT_EQ(id, 4294967295u);
  EXPECT_TRUE(DecodeCounts(OverTheWire(EncodeCounts({})), &error));
}

// Every decoder rejects what its encoder cannot produce: a count with a
// sign or past its output's range is malformed, not wrapped or clamped.
TEST(ReplyCodec, DecodersRejectMalformedReplies) {
  WireReport report;
  WireApproxReport approx;
  PushedItem push;
  FactId id = 0;
  std::vector<Value> values;
  WireCommand command;
  std::string a, b;
  std::vector<std::string> attrs;
  size_t n = 0, m = 0;
  bool flag = false;
  using Decoder = std::function<bool(const ReplyArgs&, std::string*)>;
  const std::map<std::string, Decoder> decoders = {
      {"report",
       [&](const ReplyArgs& x, std::string* e) {
         return DecodeReport(x, 0, &report, e);
       }},
      {"session report",
       [&](const ReplyArgs& x, std::string* e) {
         return DecodeSessionReport(x, &a, &report, e);
       }},
      {"approx",
       [&](const ReplyArgs& x, std::string* e) {
         return DecodeApproxReport(x, &approx, e);
       }},
      {"push",
       [&](const ReplyArgs& x, std::string* e) {
         return DecodePush(x, &push, e);
       }},
      {"dump row",
       [&](const ReplyArgs& x, std::string* e) {
         return DecodeDumpRow(x, &id, &values, e);
       }},
      {"command row",
       [&](const ReplyArgs& x, std::string* e) {
         return DecodeCommandRow(x, &command, e);
       }},
      {"relation",
       [&](const ReplyArgs& x, std::string* e) {
         return DecodeRelation(x, &a, &attrs, e);
       }},
      {"stats",
       [&](const ReplyArgs& x, std::string* e) {
         return DecodeStats(x, &a, &b, e);
       }},
      {"two counts",
       [&](const ReplyArgs& x, std::string* e) {
         return DecodeCounts(x, e, &n, &m);
       }},
      {"fact id",
       [&](const ReplyArgs& x, std::string* e) {
         return DecodeCounts(x, e, &id);
       }},
      {"flag",
       [&](const ReplyArgs& x, std::string* e) {
         return DecodeCounts(x, e, &flag);
       }},
  };
  const std::string overflow = "18446744073709551616";  // 2^64
  const std::vector<std::pair<std::string, ReplyArgs>> cases = {
      {"report", {"-1", "0", "0"}},
      {"report", {"+3", "0", "0"}},
      {"report", {overflow, "0", "0"}},
      {"report", {"0", "-1", "0"}},
      {"report", {"0", overflow, "0"}},
      {"report", {"0", "0"}},
      {"report", {"0", "0", "0", "I_MI"}},            // odd-length list
      {"report", {"0", "0", "0", "I_MI", "1", "I_d"}},  // odd-length list
      {"report", {"0", "0", "2"}},                    // <trunc01>
      {"report", {"0", "0", "x"}},                    // <trunc01>
      {"report", {"0", "0", "-1"}},                   // <trunc01>
      {"report", {"0", "0", "0", "I_MI", "one"}},
      {"report", {"0", "0", "0", "%2", "1"}},
      {"session report", {}},
      {"session report", {"%zz", "0", "0", "0"}},
      {"session report", {"s", "0", "-1", "0"}},
      {"approx", {"1", "1"}},
      {"approx", {"-1", "1", "1"}},
      {"approx", {"1", "1", "x"}},
      {"approx", {"1", "1", "1", "I_MI"}},                       // 1 of 4
      {"approx", {"1", "1", "1", "I_MI", "1", "1"}},             // 3 of 4
      {"approx", {"1", "1", "1", "I_MI", "1", "1", "1", "1"}},  // 5 of 4
      {"approx", {"1", "1", "1", "I_MI", "1", "x", "1"}},
      {"push", {"sideways", "1"}},
      {"push", {"UP", "1"}},
      {"push", {"up"}},
      {"push", {"up", "1", "2"}},
      {"push", {"down", "many"}},
      {"dump row", {}},
      {"dump row", {"-1", "i:1"}},
      {"dump row", {"4294967296", "i:1"}},
      {"dump row", {"0", "7"}},
      {"command row", {"PING", "0", "0", "inline", "PING"}},
      {"command row", {"PING", "-1", "0", "inline", "PING", "p"}},
      {"command row", {"PING", "0", "x", "inline", "PING", "p"}},
      {"command row", {"PING", "0", "0", "inline", "%2", "p"}},
      {"relation", {}},
      {"relation", {"R", "%zz"}},
      {"stats", {"{}"}},
      {"stats", {"{}", "{}", "{}"}},
      {"stats", {"%2", "{}"}},
      {"two counts", {}},
      {"two counts", {"1"}},
      {"two counts", {"1", "2", "3"}},
      {"two counts", {"-1", "0"}},
      {"two counts", {"+1", "0"}},
      {"two counts", {overflow, "0"}},
      {"two counts", {"1x", "0"}},
      {"two counts", {"0", ""}},
      {"fact id", {"4294967296"}},
      {"fact id", {"-0"}},
      {"flag", {"2"}},
  };
  for (const auto& [name, args] : cases) {
    std::string error;
    EXPECT_FALSE(decoders.at(name)(args, &error))
        << name << " accepted: " << ::testing::PrintToString(args);
    EXPECT_FALSE(error.empty()) << name;
  }
}

// The client reads SCHEMA's command rows back through the codec.
TEST(ReplyCodec, ClientReadsTheCommandTable) {
  const ServiceSpec spec = ExampleSpec();
  ServiceServer server(spec.schema, spec.relation, spec.constraints,
                       ServiceOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ServiceClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  std::string relation;
  std::vector<std::string> attributes;
  std::vector<WireCommand> commands;
  ASSERT_TRUE(client.Schema(&relation, &attributes, &error, &commands))
      << error;
  ASSERT_EQ(commands.size(), CommandTable().size());
  for (size_t i = 0; i < commands.size(); ++i) {
    EXPECT_EQ(commands[i].name, CommandTable()[i].name);
    EXPECT_EQ(commands[i].usage, CommandTable()[i].usage);
  }
  client.Close();
  server.Stop();
}

// ---------------------------------------------------------- golden lines --

/// A fresh directory under /tmp, removed (with contents) on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/dbim_protocol_XXXXXX";
    const char* made = mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path = made != nullptr ? made : "";
  }
  ~TempDir() {
    if (!path.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  }
};

/// Sends each request line and records it ("> ") followed by every reply
/// line ("< ") up to and including its terminal one — SUBSCRIBE pushes an
/// APPLY triggers arrive before the APPLY's OK, so they land in its block.
std::vector<std::string> Transcript(uint16_t port,
                                    const std::vector<std::string>& lines) {
  ServiceClient client;
  std::string error;
  EXPECT_TRUE(client.Connect("127.0.0.1", port, &error)) << error;
  std::vector<std::string> out;
  for (const std::string& line : lines) {
    out.push_back("> " + line);
    EXPECT_TRUE(client.SendRawLine(line, &error)) << error;
    const std::string tag = line.substr(0, line.find(' '));
    for (;;) {
      std::string reply;
      if (!client.ReadRawLine(&reply, &error)) {
        ADD_FAILURE() << line << ": " << error;
        return out;
      }
      out.push_back("< " + reply);
      Response response;
      EXPECT_TRUE(ParseResponse(reply, &response, &error)) << reply;
      if (response.kind != ResponseKind::kItem &&
          (response.tag == tag || response.tag == "*")) {
        break;
      }
    }
  }
  return out;
}

std::vector<DenialConstraint> GoldenFds(const Schema& schema) {
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  dcs.push_back(*ParseDc(schema, 0, "!(t.B = t'.B & t.C != t'.C)"));
  return dcs;
}

ServiceOptions GoldenOptions() {
  ServiceOptions options;
  options.num_workers = 1;
  options.session.registry.include_mc = false;  // I_MC has a time budget
  return options;
}

// The exact reply bytes of every verb, error replies included, for one
// fixed small session: the reply encoders must never move a byte.
TEST(ProtocolGolden, EveryVerbRepliesTheSameBytes) {
  auto schema = testing::MakeAbcSchema();
  ServiceServer server(schema, 0, GoldenFds(*schema), GoldenOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const std::vector<std::string> got = Transcript(
      server.port(),
      {"t1 PING",
       "t2 SCHEMA",
       "t3 REGISTER s",
       "t4 REGISTER s",
       "t5 REGISTER s ATTACH",
       "t6 REGISTER %C3%A9%20x ATTACH",
       "t7 SUBSCRIBE s 0.5",
       "t7a SUBSCRIBE s 2.5",
       "t8 APPLY s INSERT i:1 i:2 s:x",
       "t9 APPLY s INSERT i:1 i:3 s:a%20b",
       "t10 APPLY s INSERT d:0.25 _ s:",
       "t11 APPLY s UPDATE 1 1 i:2",
       "t12 APPLY s DELETE 2",
       "t13 APPLY s INSERT i:1 i:9 d:-0",
       "t14 APPLY %C3%A9%20x INSERT i:-7 d:1e300 s:%25",
       "t15 EVALUATE s",
       "t16 EVALUATE s APPROX 0.5",
       "t17 EVALUATE_ALL",
       "t18 STATS s",
       "t19 DUMP s",
       "t20 DUMP %C3%A9%20x",
       "t21 STREAM_TICK s 1",
       "t22 CHECKPOINT",
       "t22a APPLY s DELETE 2",
       "t23 VACUUM 0",
       "t24 UNREGISTER s",
       "t25 EVALUATE s",
       "t26 APPLY s DELETE x",
       "t27 APPLY %C3%A9%20x INSERT i:1",
       "bad! PING"});
  const std::vector<std::string> want = {
      "> t1 PING",
      "< t1 OK",
      "> t2 SCHEMA",
      "< t2 ITEM PING 0 0 inline PING liveness%20probe",
      "< t2 ITEM SCHEMA 0 0 inline SCHEMA served%20relation,%20attributes%20a"
      "nd%20this%20command%20table",
      "< t2 ITEM REGISTER 1 2 inline REGISTER%20<session>%20[ATTACH] create%2"
      "0a%20named%20session;%20ATTACH%20reuses%20an%20existing%20one%20and%20"
      "replies%20its%20fact%20count",
      "< t2 ITEM APPLY 2 * queued APPLY%20<session>%20INSERT%20<value>...%20|"
      "%20DELETE%20<id>%20|%20UPDATE%20<id>%20<attr>%20<value> apply%20one%20"
      "repair%20operation;%20violations%20maintained%20incrementally",
      "< t2 ITEM EVALUATE 1 3 queued EVALUATE%20<session>%20[APPROX%20<eps>] "
      "evaluate%20every%20measure%20on%20one%20session;%20APPROX%20replies%20"
      "sampling%20estimates%20with%20confidence%20intervals",
      "< t2 ITEM EVALUATE_ALL 0 0 exclusive EVALUATE_ALL evaluate%20every%20s"
      "ession%20in%20one%20consistent%20batch",
      "< t2 ITEM STATS 1 1 queued STATS%20<session> per-constraint%20counters"
      "%20plus%20the%20daemon's%20durability%20stats",
      "< t2 ITEM DUMP 1 1 queued DUMP%20<session> list%20the%20session's%20fa"
      "cts%20with%20their%20ids",
      "< t2 ITEM UNREGISTER 1 1 queued UNREGISTER%20<session> drop%20a%20sess"
      "ion%20and%20its%20queued%20work",
      "< t2 ITEM VACUUM 1 1 exclusive VACUUM%20<threshold> compact%20the%20va"
      "lue%20pool%20when%20its%20waste%20fraction%20exceeds%20threshold",
      "< t2 ITEM CHECKPOINT 0 0 exclusive CHECKPOINT write%20a%20durable%20ch"
      "eckpoint%20and%20truncate%20the%20log;%20replies%20the%20new%20epoch",
      "< t2 ITEM STREAM_TICK 2 2 queued STREAM_TICK%20<session>%20<tick> adva"
      "nce%20a%20windowed%20session's%20logical%20clock;%20replies%20expired%"
      "20and%20live%20fact%20counts",
      "< t2 ITEM SUBSCRIBE 1 2 queued SUBSCRIBE%20<session>%20[threshold] pus"
      "h%20an%20ITEM%20under%20this%20tag%20whenever%20the%20minimal-subset%2"
      "0count%20crosses%20the%20threshold",
      "< t2 OK R A B C",
      "> t3 REGISTER s",
      "< t3 OK",
      "> t4 REGISTER s",
      "< t4 ERR EXISTS session%20exists:%20s",
      "> t5 REGISTER s ATTACH",
      "< t5 OK 0",
      "> t6 REGISTER %C3%A9%20x ATTACH",
      "< t6 OK 0",
      "> t7 SUBSCRIBE s 0.5",
      "< t7 OK 0",
      "> t7a SUBSCRIBE s 2.5",
      "< t7a OK 0",
      "> t8 APPLY s INSERT i:1 i:2 s:x",
      "< t8 OK 0",
      "> t9 APPLY s INSERT i:1 i:3 s:a%20b",
      "< t7 ITEM up 1",
      "< t9 OK 1",
      "> t10 APPLY s INSERT d:0.25 _ s:",
      "< t10 OK 2",
      "> t11 APPLY s UPDATE 1 1 i:2",
      "< t11 OK",
      "> t12 APPLY s DELETE 2",
      "< t12 OK",
      "> t13 APPLY s INSERT i:1 i:9 d:-0",
      "< t7a ITEM up 3",
      "< t13 OK 2",
      "> t14 APPLY %C3%A9%20x INSERT i:-7 d:1e300 s:%25",
      "< t14 OK 0",
      "> t15 EVALUATE s",
      "< t15 OK 3 3 0 I_d 1 I_MI 3 I_P 3 I_R 2 I_lin_R 1.5",
      "> t16 EVALUATE s APPROX 0.5",
      "< t16 OK 3 3 1 I_MI 3 3 3 I_P 3 3 3 I_R 2 2 2 I_lin_R 1.5 1.5 1.5",
      "> t17 EVALUATE_ALL",
      "< t17 ITEM s 3 3 0 I_d 1 I_MI 3 I_P 3 I_R 2 I_lin_R 1.5",
      "< t17 ITEM %C3%A9%20x 1 0 0 I_d 0 I_MI 0 I_P 0 I_R 0 I_lin_R 0",
      "< t17 OK 2",
      "> t18 STATS s",
      "< t18 OK {%0A%20%20\"name\":%20\"constraint_stats\",%0A%20%20\"header"
      "\":%20[\"constraint\",%20\"probes\",%20\"fires\",%20\"watchers\"],%0A%"
      "20%20\"rows\":%20[%0A%20%20%20%20[\"!(t[A]%20=%20t'[A]%20&%20t[B]%20!="
      "%20t'[B])\",%20\"3\",%20\"3\",%20\"1\"],%0A%20%20%20%20[\"!(t[B]%20=%2"
      "0t'[B]%20&%20t[C]%20!=%20t'[C])\",%20\"1\",%20\"1\",%20\"2\"]%0A%20%20"
      "]%0A}%0A {\"durable\":0}",
      "> t19 DUMP s",
      "< t19 ITEM 0 i:1 i:2 s:x",
      "< t19 ITEM 1 i:1 i:2 s:a%20b",
      "< t19 ITEM 2 i:1 i:9 d:-0",
      "< t19 OK 3",
      "> t20 DUMP %C3%A9%20x",
      "< t20 ITEM 0 i:-7 d:1.0000000000000001e+300 s:%25",
      "< t20 OK 1",
      "> t21 STREAM_TICK s 1",
      "< t21 ERR BAD_REQUEST session%20is%20not%20windowed%20(start%20dbimd%2"
      "0with%20--window)",
      "> t22 CHECKPOINT",
      "< t22 ERR NO_STORE durability%20is%20not%20configured%20(--data-dir)",
      "> t22a APPLY s DELETE 2",
      "< t7a ITEM down 1",
      "< t22a OK",
      "> t23 VACUUM 0",
      "< t23 OK 1",
      "> t24 UNREGISTER s",
      "< t24 OK",
      "> t25 EVALUATE s",
      "< t25 ERR NO_SESSION unknown%20session:%20s",
      "> t26 APPLY s DELETE x",
      "< t26 ERR BAD_REQUEST bad%20unsigned%20integer:%20x",
      "> t27 APPLY %C3%A9%20x INSERT i:1",
      "< t27 ERR BAD_REQUEST INSERT%20arity%20mismatch:%20got%201%20values,%2"
      "0relation%20has%203%20attributes",
      "> bad! PING",
      "< * ERR BAD_REQUEST bad%20tag",
  };
  EXPECT_EQ(got, want);
  server.Stop();
}

// The verbs only a windowed, durable daemon answers with OK.
TEST(ProtocolGolden, WindowedDurableVerbsReplyTheSameBytes) {
  auto schema = testing::MakeAbcSchema();
  TempDir dir;
  storage::DurableSessionStore store(
      schema, storage::CreateFlatFileBackend(dir.path));
  std::string error;
  ASSERT_TRUE(store.Open(&error)) << error;
  ServiceOptions options = GoldenOptions();
  options.session.WithWindow(WindowSpec::Kind::kTicks, 10);
  options.store = &store;
  ServiceServer server(schema, 0, GoldenFds(*schema), options);
  ASSERT_TRUE(server.Start(&error)) << error;
  const std::vector<std::string> got = Transcript(
      server.port(), {"u1 REGISTER w",
                      "u2 APPLY w INSERT i:1 i:1 i:1",
                      "u3 STREAM_TICK w 5",
                      "u4 APPLY w INSERT i:1 i:2 i:1",
                      "u5 EVALUATE w",
                      "u6 STREAM_TICK w 12",
                      "u7 CHECKPOINT",
                      "u8 REGISTER w ATTACH",
                      "u9 STREAM_TICK w 3"});
  const std::vector<std::string> want = {
      "> u1 REGISTER w",
      "< u1 OK",
      "> u2 APPLY w INSERT i:1 i:1 i:1",
      "< u2 OK 0",
      "> u3 STREAM_TICK w 5",
      "< u3 OK 0 1",
      "> u4 APPLY w INSERT i:1 i:2 i:1",
      "< u4 OK 1",
      "> u5 EVALUATE w",
      "< u5 OK 2 1 0 I_d 1 I_MI 1 I_P 2 I_R 1 I_lin_R 1",
      "> u6 STREAM_TICK w 12",
      "< u6 OK 1 1",
      "> u7 CHECKPOINT",
      "< u7 OK 1",
      "> u8 REGISTER w ATTACH",
      "< u8 OK 1",
      "> u9 STREAM_TICK w 3",
      "< u9 OK 0 1",
  };
  EXPECT_EQ(got, want);
  server.Stop();
}

// ----------------------------------------------------------- line buffer --

TEST(ProtocolLineBuffer, ReassemblesInterleavedPartialWrites) {
  // Two pipelined requests delivered one byte at a time — the exact shape
  // of a slow sender — must frame into the same two lines.
  const std::string stream = "t1 PING\nt2 EVALUATE s\r\n";
  LineBuffer buffer;
  std::vector<std::string> lines;
  for (const char c : stream) {
    ASSERT_TRUE(buffer.Feed(&c, 1, &lines));
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "t1 PING");
  EXPECT_EQ(lines[1], "t2 EVALUATE s");  // CR stripped

  // And in one burst, including an incomplete trailing fragment.
  LineBuffer burst;
  lines.clear();
  const std::string chunk = "a PING\nb PING\nc PIN";
  ASSERT_TRUE(burst.Feed(chunk.data(), chunk.size(), &lines));
  ASSERT_EQ(lines.size(), 2u);
  lines.clear();
  ASSERT_TRUE(burst.Feed("G\n", 2, &lines));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "c PING");
}

TEST(ProtocolLineBuffer, OverflowIsSticky) {
  LineBuffer buffer(/*max_line_bytes=*/8);
  std::vector<std::string> lines;
  const std::string big(64, 'x');
  EXPECT_FALSE(buffer.Feed(big.data(), big.size(), &lines));
  EXPECT_TRUE(buffer.overflowed());
  // The stream cannot be re-framed: even a clean newline keeps failing.
  EXPECT_FALSE(buffer.Feed("\n", 1, &lines));
  EXPECT_TRUE(lines.empty());
}

// ------------------------------------------------------------- fuzz (in) --

// A printable-garbage line: mostly ASCII, occasional escapes and high
// bytes, never a newline (framing is LineBuffer's job, tested above).
std::string RandomLine(Rng& rng, size_t max_len) {
  const size_t len = rng.UniformIndex(max_len + 1);
  std::string line;
  line.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    const size_t draw = rng.UniformIndex(100);
    if (draw < 70) {
      line.push_back(static_cast<char>(0x20 + rng.UniformIndex(0x5f)));
    } else if (draw < 80) {
      line.push_back('%');
    } else if (draw < 90) {
      // Any byte except '\n' — a newline would split the line in two at
      // the peer and is LineBuffer territory, not the parser's.
      const char raw = static_cast<char>(rng.UniformIndex(256));
      line.push_back(raw == '\n' ? '\r' : raw);
    } else {
      line += " PING";
    }
  }
  return line;
}

// ----------------------------------------------------------- tool flags --

// Runs SessionOptionsFromFlags over `flags` (argv[0] is a dummy).
bool ParseFlags(std::vector<std::string> flags, SessionOptions* options,
                std::string* error) {
  flags.insert(flags.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& flag : flags) argv.push_back(flag.data());
  return SessionOptionsFromFlags(static_cast<int>(argv.size()), argv.data(),
                                 options, error);
}

TEST(SessionFlags, ParsesValidValues) {
  SessionOptions options;
  std::string error;
  ASSERT_TRUE(ParseFlags({"--threads=3", "--measures=I_MI,I_d", "--mc",
                          "--window=ticks:40", "--approx=0.25"},
                         &options, &error))
      << error;
  EXPECT_EQ(options.detector.num_threads, 3u);
  EXPECT_EQ(options.registry.only,
            (std::vector<std::string>{"I_MI", "I_d"}));
  EXPECT_TRUE(options.registry.include_mc);
  EXPECT_EQ(options.window.kind, WindowSpec::Kind::kTicks);
  EXPECT_EQ(options.window.size, 40u);
  EXPECT_DOUBLE_EQ(options.approx.eps, 0.25);
  // Absent flags keep the defaults.
  ASSERT_TRUE(ParseFlags({}, &options, &error)) << error;
  EXPECT_EQ(options.detector.num_threads, 1u);
  EXPECT_FALSE(options.window.enabled());
  EXPECT_FALSE(options.approx.enabled());
}

TEST(SessionFlags, RejectsMalformedNumber) {
  for (const char* flag :
       {"--threads=abc", "--threads=", "--threads=-1", "--threads=4x",
        "--window=count:abc", "--approx=abc", "--approx=0", "--approx=2"}) {
    SessionOptions options;
    std::string error;
    EXPECT_FALSE(ParseFlags({flag}, &options, &error)) << flag;
    EXPECT_FALSE(error.empty()) << flag;
  }
}

TEST(SessionFlags, RejectsBadWindowKind) {
  for (const char* flag : {"--window=cuont:10", "--window=count",
                           "--window=ticks:1:2"}) {
    SessionOptions options;
    std::string error;
    EXPECT_FALSE(ParseFlags({flag}, &options, &error)) << flag;
    EXPECT_NE(error.find("--window"), std::string::npos) << error;
  }
}

TEST(SessionFlags, UintFlagChecksRange) {
  std::string port_flag = "--port=70000";
  std::string queue_flag = "--queue=0";
  char tool[] = "tool";
  char* argv[] = {tool, port_flag.data(), queue_flag.data()};
  uint64_t value = 7;
  std::string error;
  EXPECT_TRUE(UintFlag(3, argv, "workers", 1, 64, &value, &error));
  EXPECT_EQ(value, 7u);  // absent: untouched
  EXPECT_FALSE(UintFlag(3, argv, "port", 0, 65535, &value, &error));
  EXPECT_NE(error.find("--port"), std::string::npos) << error;
  EXPECT_FALSE(UintFlag(3, argv, "queue", 1, 100, &value, &error));
  std::string valid_flag = "--port=8080";
  char* valid_argv[] = {tool, valid_flag.data()};
  ASSERT_TRUE(UintFlag(2, valid_argv, "port", 0, 65535, &value, &error))
      << error;
  EXPECT_EQ(value, 8080u);
}

TEST(ProtocolFuzz, ParserNeverCrashesOnGarbage) {
  Rng rng(20210708);
  size_t accepted = 0;
  const std::vector<std::string> valid = {
      "t PING",
      "t SCHEMA",
      "t REGISTER s",
      "t APPLY s INSERT i:1 s:x _ d:0.5",
      "t APPLY s DELETE 3",
      "t APPLY s UPDATE 3 1 i:9",
      "t EVALUATE s",
      "t EVALUATE_ALL",
      "t STATS s",
      "t DUMP s",
      "t UNREGISTER s",
      "t VACUUM 0.5",
  };
  size_t cases = 0;
  for (size_t i = 0; i < 1500; ++i) {
    std::string line;
    const size_t mode = rng.UniformIndex(4);
    if (mode == 0) {
      line = RandomLine(rng, 80);
    } else if (mode == 1) {
      // Truncated prefix of a valid request.
      const std::string& base = valid[rng.UniformIndex(valid.size())];
      line = base.substr(0, rng.UniformIndex(base.size() + 1));
    } else if (mode == 2) {
      // Valid request with one mutated byte.
      line = valid[rng.UniformIndex(valid.size())];
      if (!line.empty()) {
        line[rng.UniformIndex(line.size())] =
            static_cast<char>(rng.UniformIndex(256));
      }
    } else {
      // Oversized token glued onto a valid-looking head.
      line = "t REGISTER " +
             std::string(rng.UniformIndex(4096) + kMaxSessionNameBytes, 'a');
    }
    ++cases;
    Request request;
    std::string error;
    if (ParseRequest(line, &request, &error)) {
      ++accepted;
      // Anything accepted must re-format and re-parse identically (the
      // parser and formatter agree on the grammar).
      ExpectRequestRoundTrips(request);
    } else {
      EXPECT_FALSE(error.empty()) << line;
    }
    Response response;
    std::string response_error;
    if (!ParseResponse(line, &response, &response_error)) {
      EXPECT_FALSE(response_error.empty()) << line;
    }
  }
  ASSERT_GE(cases, 1000u);
  // Truncations and mutations occasionally stay valid ("t PING" cut to
  // nothing mutated back...), but the vast majority must be rejected.
  EXPECT_LT(accepted, cases / 4);
}

// ----------------------------------------------------------- fuzz (wire) --

// Garbage against a live server: every line — however malformed — draws
// exactly one terminal reply, and a tagged PING sent after each batch
// arrives in order on its own tag, proving the framing never desyncs.
TEST(ProtocolFuzzWire, ServerAnswersEveryGarbageLineExactlyOnce) {
  const ServiceSpec spec = ExampleSpec();
  ServiceOptions options;
  options.num_workers = 1;
  ServiceServer server(spec.schema, spec.relation, spec.constraints,
                       options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  ServiceClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  Rng rng(4242);
  for (int batch = 0; batch < 40; ++batch) {
    const size_t batch_size = 1 + rng.UniformIndex(8);
    for (size_t i = 0; i < batch_size; ++i) {
      std::string line = RandomLine(rng, 60);
      // Keep the stream frameable: RandomLine never emits '\n', but a
      // stray '\r' mid-line is fine and must be rejected, not crash.
      ASSERT_TRUE(client.SendRawLine(line, &error)) << error;
    }
    const std::string ping_tag = "sync" + std::to_string(batch);
    Request ping = Request::Ping();
    ping.tag = ping_tag;
    ASSERT_TRUE(client.SendRawLine(FormatRequest(ping), &error)) << error;

    // Exactly batch_size terminal replies, then the ping's OK.
    size_t terminals = 0;
    for (;;) {
      std::string line;
      ASSERT_TRUE(client.ReadRawLine(&line, &error)) << error;
      Response response;
      ASSERT_TRUE(ParseResponse(line, &response, &error))
          << line << ": " << error;
      if (response.kind == ResponseKind::kItem) continue;
      if (response.tag == ping_tag) {
        EXPECT_TRUE(response.ok());
        EXPECT_EQ(terminals, batch_size)
            << "framing desync in batch " << batch;
        break;
      }
      ++terminals;
      ASSERT_LE(terminals, batch_size) << "extra reply in batch " << batch;
    }
  }
  client.Close();
  server.Stop();
}

// A NaN cell cannot be ordered against anything, so the wire refuses it:
// every spelling strtod would accept draws ERR, while a finite double in
// the same position is applied.
TEST(ProtocolFuzzWire, NanCellDrawsErr) {
  const ServiceSpec spec = ExampleSpec();
  ServiceServer server(spec.schema, spec.relation, spec.constraints,
                       ServiceOptions());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ServiceClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  // Sends one line and returns its terminal reply.
  auto roundtrip = [&](const std::string& line) {
    Response response;
    EXPECT_TRUE(client.SendRawLine(line, &error)) << error;
    do {
      std::string reply;
      EXPECT_TRUE(client.ReadRawLine(&reply, &error)) << error;
      EXPECT_TRUE(ParseResponse(reply, &response, &error)) << reply;
    } while (response.kind == ResponseKind::kItem);
    return response;
  };
  ASSERT_TRUE(roundtrip("r REGISTER s").ok());
  const size_t arity = spec.schema->relation(spec.relation).arity();
  auto insert = [&](const std::string& first) {
    std::string line = "a APPLY s INSERT " + first;
    for (size_t i = 1; i < arity; ++i) line += " i:1";
    return line;
  };
  for (const std::string nan : {"d:nan", "d:-nan", "d:NaN"}) {
    EXPECT_EQ(roundtrip(insert(nan)).kind, ResponseKind::kErr) << nan;
  }
  EXPECT_TRUE(roundtrip(insert("d:1.5")).ok());
  client.Close();
  server.Stop();
}

TEST(ProtocolFuzzWire, OversizedLineGetsTooLargeAndCut) {
  const ServiceSpec spec = ExampleSpec();
  ServiceOptions options;
  options.max_line_bytes = 1024;  // small cap keeps the test cheap
  ServiceServer server(spec.schema, spec.relation, spec.constraints,
                       options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  ServiceClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  ASSERT_TRUE(client.SendRawLine(std::string(4096, 'x'), &error)) << error;
  std::string line;
  ASSERT_TRUE(client.ReadRawLine(&line, &error)) << error;
  Response response;
  ASSERT_TRUE(ParseResponse(line, &response, &error)) << line;
  EXPECT_EQ(response.kind, ResponseKind::kErr);
  EXPECT_EQ(response.error_code, "TOO_LARGE");
  // The connection is cut: the next read reports closure, not a hang.
  EXPECT_FALSE(client.ReadRawLine(&line, &error));
  client.Close();
  server.Stop();
}

}  // namespace
}  // namespace dbim
