// Window-slide fuzz for the streaming layer: after any Push / AdvanceTo /
// Erase sequence, a StreamSession's Evaluate must be bit-identical to a
// fresh one-shot evaluation of a database holding exactly the live facts.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "constraints/parser.h"
#include "measures/session.h"
#include "relational/operations.h"
#include "streaming/stream_session.h"
#include "test_util.h"

namespace dbim {
namespace {

using testing::MakeAbcSchema;
using testing::MakeRandomDatabase;

std::vector<DenialConstraint> AbcFds(const Schema& schema) {
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  dcs.push_back(*ParseDc(schema, 0, "!(t.B = t'.B & t.C != t'.C)"));
  return dcs;
}

Fact RandomAbcFact(Rng& rng, int64_t domain) {
  std::vector<Value> values;
  for (int a = 0; a < 3; ++a) {
    values.emplace_back(rng.UniformInt(0, domain - 1));
  }
  return Fact(0, std::move(values));
}

// The fuzz baseline: rebuild a standalone database holding exactly the
// window's live facts (the handle's database, copied out under the session
// locks) and run the uncached one-shot path over it.
BatchReport FreshEvaluation(const MeasureSession& session,
                            const StreamSession& stream,
                            std::shared_ptr<const Schema> schema) {
  Database live(std::move(schema));
  for (const auto& [id, values] : session.CopyFacts(stream.handle())) {
    live.InsertWithId(id, Fact(0, values));
  }
  return session.EvaluateOne(live);
}

void ExpectIdenticalReports(const BatchReport& expected,
                            const BatchReport& actual,
                            const std::string& where) {
  EXPECT_EQ(expected.num_minimal_subsets, actual.num_minimal_subsets)
      << where;
  ASSERT_EQ(expected.measures.size(), actual.measures.size()) << where;
  for (size_t m = 0; m < expected.measures.size(); ++m) {
    EXPECT_EQ(expected.measures[m].name, actual.measures[m].name) << where;
    EXPECT_EQ(expected.measures[m].value, actual.measures[m].value)
        << where << " measure " << expected.measures[m].name;
  }
}

class WindowFuzz : public ::testing::TestWithParam<WindowSpec::Kind> {};

// Random stream of pushes, clock advances and out-of-band erases; the
// equivalence invariant is checked after every operation that could have
// slid the window.
TEST_P(WindowFuzz, EvaluateMatchesFreshEngineAfterEverySlide) {
  const auto schema = MakeAbcSchema();
  const auto dcs = AbcFds(*schema);
  for (const uint64_t seed : {11u, 12u, 13u}) {
    MeasureSession session(schema, dcs);
    WindowSpec window;
    window.kind = GetParam();
    window.size = 8;
    StreamSession stream(&session, window);
    Rng rng(seed);
    uint64_t tick = 0;
    for (size_t op = 0; op < 60; ++op) {
      const std::string at = "kind=" +
                             std::to_string(static_cast<int>(window.kind)) +
                             " seed=" + std::to_string(seed) +
                             " op=" + std::to_string(op);
      const size_t draw = rng.UniformIndex(10);
      if (draw < 6) {
        // Ticks advance irregularly: repeats, +1 steps and jumps past the
        // whole window all occur.
        tick += rng.UniformIndex(4) == 0 ? rng.UniformIndex(12) : 1;
        stream.Push(RandomAbcFact(rng, 4), tick);
      } else if (draw < 8) {
        tick += rng.UniformIndex(6);
        stream.AdvanceTo(tick);
      } else {
        const std::vector<FactId> live = stream.LiveIds();
        if (!live.empty()) {
          stream.Erase(live[rng.UniformIndex(live.size())]);
        }
      }
      ASSERT_LE(stream.num_live(), window.kind == WindowSpec::Kind::kCount
                                       ? window.size
                                       : static_cast<uint64_t>(-1))
          << at;
      ExpectIdenticalReports(FreshEvaluation(session, stream, schema),
                             stream.Evaluate(), at);
    }
    EXPECT_GT(stream.num_slides(), 0u) << "window never slid, seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, WindowFuzz,
                         ::testing::Values(WindowSpec::Kind::kCount,
                                           WindowSpec::Kind::kTicks));

// A tick window covers exactly (current - size, current]: facts expire the
// moment the clock moves past them, not before.
TEST(StreamSession, TickWindowExpiryBoundary) {
  const auto schema = MakeAbcSchema();
  MeasureSession session(schema, AbcFds(*schema));
  WindowSpec window;
  window.kind = WindowSpec::Kind::kTicks;
  window.size = 3;
  StreamSession stream(&session, window);
  Rng rng(5);
  stream.Push(RandomAbcFact(rng, 4), 1);
  stream.Push(RandomAbcFact(rng, 4), 2);
  EXPECT_EQ(stream.num_live(), 2u);
  EXPECT_EQ(stream.AdvanceTo(4), 1u);  // horizon 1: the tick-1 fact expires
  EXPECT_EQ(stream.num_live(), 1u);
  EXPECT_EQ(stream.AdvanceTo(5), 1u);
  EXPECT_EQ(stream.num_live(), 0u);
  EXPECT_EQ(stream.num_expired(), 2u);
  EXPECT_EQ(stream.num_slides(), 2u);
}

// A count window keeps the newest `size` facts; AdvanceTo moves the clock
// but never evicts.
TEST(StreamSession, CountWindowKeepsNewest) {
  const auto schema = MakeAbcSchema();
  MeasureSession session(schema, AbcFds(*schema));
  WindowSpec window;
  window.kind = WindowSpec::Kind::kCount;
  window.size = 2;
  StreamSession stream(&session, window);
  Rng rng(6);
  const FactId a = *stream.Push(RandomAbcFact(rng, 4), 0);
  const FactId b = *stream.Push(RandomAbcFact(rng, 4), 1);
  EXPECT_EQ(stream.AdvanceTo(100), 0u);
  EXPECT_EQ(stream.num_live(), 2u);
  const FactId c = *stream.Push(RandomAbcFact(rng, 4), 101);
  EXPECT_EQ(stream.num_live(), 2u);
  EXPECT_EQ(stream.LiveIds(), (std::vector<FactId>{b, c}));
  EXPECT_FALSE(stream.Erase(a));  // expired, no longer addressable
  EXPECT_TRUE(stream.Erase(b));
  EXPECT_EQ(stream.LiveIds(), (std::vector<FactId>{c}));
}

// Adopting an existing handle: its facts become live at tick 0 and a count
// window trims to the newest immediately.
TEST(StreamSession, AdoptedHandleEntersWindow) {
  const auto schema = MakeAbcSchema();
  MeasureSession session(schema, AbcFds(*schema));
  const Database start = MakeRandomDatabase(schema, 0, 10, 4, 17);
  const DbHandle handle = session.Register(start);
  WindowSpec window;
  window.kind = WindowSpec::Kind::kCount;
  window.size = 4;
  {
    StreamSession stream(&session, window, handle);
    EXPECT_EQ(stream.num_live(), 4u);
    EXPECT_EQ(session.NumFacts(handle), 4u);
    ExpectIdenticalReports(FreshEvaluation(session, stream, schema),
                           stream.Evaluate(), "adopted");
  }
  // The adopting constructor does not own the handle.
  EXPECT_EQ(session.num_registered(), 1u);
  session.Unregister(handle);
}

}  // namespace
}  // namespace dbim
