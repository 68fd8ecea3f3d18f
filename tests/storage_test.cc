// Tests for the interned-value columnar storage engine: ValuePool
// semantics, equivalence of the columnar Database with a row-major
// reference model under randomized operation sequences, randomized
// detector-vs-oracle parity, and MeasureSession::EvaluateOne batch
// evaluation.
#include <algorithm>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/value_pool.h"
#include "constraints/fd.h"
#include "measures/session.h"
#include "relational/database.h"
#include "test_util.h"
#include "violations/detector.h"

namespace dbim {
namespace {

using dbim::testing::ExpectMatchesOracle;
using dbim::testing::MakeAbcSchema;
using dbim::testing::MakeRandomDatabase;
using dbim::testing::MakeRunningExample;

// ---- ValuePool ----

TEST(ValuePool, InternsDistinctValuesToDistinctIds) {
  ValuePool pool;
  const ValueId a = pool.Intern(Value(1));
  const ValueId b = pool.Intern(Value("x"));
  const ValueId c = pool.Intern(Value(2.5));
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(a, c);
  EXPECT_EQ(pool.Intern(Value(1)), a);
  EXPECT_EQ(pool.Intern(Value("x")), b);
  EXPECT_EQ(pool.value(a), Value(1));
  EXPECT_EQ(pool.value(b), Value("x"));
}

TEST(ValuePool, NullIsPreInterned) {
  ValuePool pool;
  EXPECT_EQ(pool.Intern(Value()), kNullValueId);
  EXPECT_TRUE(pool.value(kNullValueId).is_null());
  EXPECT_GE(pool.size(), 1u);
}

TEST(ValuePool, ClassEqualityMatchesValueEquality) {
  // Value(2) == Value(2.0): distinct representations (ids round-trip the
  // kind exactly) but one semantic class — class comparison is what makes
  // integer compares a sound equality test in the detector.
  ValuePool pool;
  const ValueId i = pool.Intern(Value(2));
  const ValueId d = pool.Intern(Value(2.0));
  EXPECT_NE(i, d);
  EXPECT_EQ(pool.class_of(i), pool.class_of(d));
  EXPECT_EQ(pool.value(i).kind(), Value::Kind::kInt);
  EXPECT_EQ(pool.value(d).kind(), Value::Kind::kDouble);
  const ValueId other = pool.Intern(Value(3));
  EXPECT_NE(pool.class_of(i), pool.class_of(other));
  ASSERT_TRUE(pool.FindClass(Value(2.0)).has_value());
  EXPECT_EQ(*pool.FindClass(Value(2.0)), pool.class_of(i));
  EXPECT_FALSE(pool.FindClass(Value(99)).has_value());
}

TEST(ValuePool, HashMatchesValueHash) {
  ValuePool pool;
  for (const Value& v :
       {Value(7), Value(-1.25), Value("hello"), Value(), Value("")}) {
    const ValueId id = pool.Intern(v);
    EXPECT_EQ(pool.hash(id), v.Hash());
  }
}

// Slab growth retires (never frees) the outgrown slab so lock-free
// readers stay valid; an exclusive-access reclaim must drop every retired
// slab back to one live slab per array and leave all reads intact.
TEST(ValuePool, ReclaimRetiredSlabsFreesGrowthDebris) {
  ValuePool pool;
  EXPECT_EQ(pool.num_slabs(), 3u);  // one live slab per array (null entry)
  // Force two growths per array (initial capacity 1024): 3 slabs each.
  std::vector<ValueId> ids;
  for (int64_t i = 0; i < 3000; ++i) ids.push_back(pool.Intern(Value(i)));
  EXPECT_EQ(pool.num_slabs(), 9u);

  pool.ReclaimRetiredSlabs();
  EXPECT_EQ(pool.num_slabs(), 3u);

  // Every read path still answers from the live slabs.
  for (int64_t i = 0; i < 3000; i += 97) {
    const ValueId id = ids[static_cast<size_t>(i)];
    EXPECT_EQ(pool.value(id), Value(i));
    EXPECT_EQ(pool.hash(id), Value(i).Hash());
    EXPECT_EQ(pool.class_of(id), id);  // ints: one representation per class
  }
  // Reclaim is idempotent, and the pool keeps growing normally afterwards.
  pool.ReclaimRetiredSlabs();
  EXPECT_EQ(pool.num_slabs(), 3u);
  for (int64_t i = 3000; i < 4200; ++i) pool.Intern(Value(i));
  EXPECT_GT(pool.num_slabs(), 3u);
  EXPECT_EQ(pool.value(ids[42]), Value(42));
}

// The lock-striped pool is a drop-in for the historical single-mutex one:
// sequential interning of mixed kinds (including semantic int/double
// duplicates) must produce identical ids and class assignments whatever
// the stripe count.
TEST(ValuePool, StripeCountNeverChangesSequentialIdsOrClasses) {
  ValuePool single(1);
  ValuePool striped(64);
  EXPECT_EQ(single.num_stripes(), 1u);
  EXPECT_EQ(striped.num_stripes(), 64u);
  Rng rng(314);
  for (int i = 0; i < 5000; ++i) {
    Value v;
    switch (rng.UniformInt(0, 2)) {
      case 0:
        v = Value(rng.UniformInt(0, 800));
        break;
      case 1:
        v = Value(static_cast<double>(rng.UniformInt(0, 800)));
        break;
      default:
        v = Value("k" + std::to_string(rng.UniformInt(0, 800)));
        break;
    }
    ASSERT_EQ(striped.Intern(v), single.Intern(v)) << "op " << i;
  }
  ASSERT_EQ(striped.size(), single.size());
  for (ValueId id = 0; id < striped.size(); ++id) {
    EXPECT_EQ(striped.class_of(id), single.class_of(id));
    EXPECT_EQ(striped.hash(id), single.hash(id));
    EXPECT_TRUE(striped.value(id) == single.value(id));
  }
}

// Every pool carries a process-unique identity token so content-derived
// caches can detect a pool swap (a session vacuum) even when the sizes
// coincide. Interning must not perturb it.
TEST(ValuePool, GenerationIsUniquePerPoolAndStable) {
  ValuePool a;
  ValuePool b;
  EXPECT_NE(a.generation(), b.generation());
  const uint64_t before = a.generation();
  a.Intern(Value(1));
  a.Intern(Value("x"));
  EXPECT_EQ(a.generation(), before);
}

TEST(ValuePool, FindDoesNotIntern) {
  ValuePool pool;
  EXPECT_FALSE(pool.Find(Value(42)).has_value());
  const size_t before = pool.size();
  EXPECT_EQ(pool.size(), before);
  const ValueId id = pool.Intern(Value(42));
  ASSERT_TRUE(pool.Find(Value(42)).has_value());
  EXPECT_EQ(*pool.Find(Value(42)), id);
}

// ---- Columnar database vs row-major reference model ----

// A trivially correct reference implementation of the Database contract.
struct ReferenceModel {
  std::map<FactId, Fact> facts;

  FactId Insert(const Fact& f) {
    FactId id = 0;
    while (facts.count(id) > 0) ++id;
    facts.emplace(id, f);
    return id;
  }
  void Delete(FactId id) { facts.erase(id); }
  void UpdateValue(FactId id, AttrIndex attr, const Value& v) {
    facts.at(id).set_value(attr, v);
  }
  std::vector<Value> ActiveDomain(RelationId rel, AttrIndex attr) const {
    std::vector<Value> out;
    for (const auto& [id, f] : facts) {
      if (f.relation() != rel) continue;
      out.push_back(f.value(attr));
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }
};

void ExpectMatchesModel(const Database& db, const ReferenceModel& model,
                        RelationId relation) {
  ASSERT_EQ(db.size(), model.facts.size());
  std::vector<FactId> expected_ids;
  for (const auto& [id, f] : model.facts) expected_ids.push_back(id);
  EXPECT_EQ(db.ids(), expected_ids);
  for (const auto& [id, f] : model.facts) {
    ASSERT_TRUE(db.Contains(id));
    EXPECT_EQ(db.fact(id), f) << "fact " << id;
    for (AttrIndex a = 0; a < f.arity(); ++a) {
      // value_id round-trips through the pool to the same value.
      EXPECT_EQ(db.pool().value(db.value_id(id, a)), f.value(a));
    }
  }
  const size_t arity = db.schema().relation(relation).arity();
  for (AttrIndex a = 0; a < arity; ++a) {
    EXPECT_EQ(db.ActiveDomain(relation, a), model.ActiveDomain(relation, a))
        << "active domain of attr " << a;
  }
  // The columnar blocks cover exactly the live facts.
  const auto& block = db.relation_block(relation);
  EXPECT_EQ(block.num_rows(), model.facts.size());
  for (uint32_t row = 0; row < block.num_rows(); ++row) {
    const FactId id = block.row_ids[row];
    ASSERT_TRUE(model.facts.count(id) > 0);
    for (AttrIndex a = 0; a < arity; ++a) {
      EXPECT_EQ(db.pool().value(block.at(a, row)),
                model.facts.at(id).value(a));
    }
  }
}

TEST(ColumnarDatabase, RandomizedOperationEquivalence) {
  const auto schema = MakeAbcSchema();
  const RelationId r = 0;
  Rng rng(2024);
  Database db(schema);
  ReferenceModel model;
  std::vector<FactId> live;

  auto random_fact = [&]() {
    std::vector<Value> values;
    for (int a = 0; a < 3; ++a) {
      if (rng.Bernoulli(0.2)) {
        values.emplace_back("s" + std::to_string(rng.UniformInt(0, 5)));
      } else {
        values.emplace_back(rng.UniformInt(0, 9));
      }
    }
    return Fact(r, std::move(values));
  };

  for (int step = 0; step < 600; ++step) {
    const double dice = rng.UniformDouble();
    if (dice < 0.45 || live.empty()) {
      const Fact f = random_fact();
      const FactId id = db.Insert(f);
      EXPECT_EQ(id, model.Insert(f));  // minimal-unused-id convention
      live.push_back(id);
    } else if (dice < 0.65) {
      const size_t pick = rng.UniformIndex(live.size());
      const FactId id = live[pick];
      db.Delete(id);
      model.Delete(id);
      live.erase(live.begin() + pick);
    } else {
      const FactId id = live[rng.UniformIndex(live.size())];
      const AttrIndex attr = static_cast<AttrIndex>(rng.UniformInt(0, 2));
      const Value v = Value(rng.UniformInt(0, 9));
      db.UpdateValue(id, attr, v);
      model.UpdateValue(id, attr, v);
    }
    if (step % 37 == 0) ExpectMatchesModel(db, model, r);
  }
  ExpectMatchesModel(db, model, r);

  // Restrict to a random subset, preserving ids and values.
  std::vector<FactId> keep;
  for (const FactId id : live) {
    if (rng.Bernoulli(0.5)) keep.push_back(id);
  }
  std::sort(keep.begin(), keep.end());
  const Database restricted = db.Restrict(keep);
  ReferenceModel restricted_model;
  for (const FactId id : keep) {
    restricted_model.facts.emplace(id, model.facts.at(id));
  }
  ExpectMatchesModel(restricted, restricted_model, r);
  EXPECT_TRUE(restricted.IsSubsetOf(db));
}

// Const accessors only read, so threads sharing one `const Database&`
// need no lock and each sees what a single-threaded reader sees.
TEST(ColumnarDatabase, ConcurrentConstReadersAreRaceFree) {
  const auto schema = MakeAbcSchema();
  const Database db = MakeRandomDatabase(schema, 0, 200, 8, 17);
  struct Read {
    std::vector<FactId> ids;
    std::vector<Fact> facts;
    std::vector<ValueId> cells;
    std::vector<uint32_t> rows;
  };
  auto read_all = [&db] {
    Read read;
    read.ids = db.ids();
    for (const FactId id : read.ids) {
      read.facts.push_back(db.fact(id));
      for (AttrIndex a = 0; a < 3; ++a) {
        read.cells.push_back(db.value_id(id, a));
      }
      read.rows.push_back(db.Locate(id).row);
    }
    return read;
  };
  // The threads are the database's first readers; the reference read
  // comes after they join.
  constexpr int kThreads = 4;
  std::vector<Read> reads(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { reads[t] = read_all(); });
  }
  for (std::thread& thread : threads) thread.join();
  const Read expected = read_all();
  for (const Read& read : reads) {
    EXPECT_EQ(read.ids, expected.ids);
    EXPECT_EQ(read.facts, expected.facts);
    EXPECT_EQ(read.cells, expected.cells);
    EXPECT_EQ(read.rows, expected.rows);
  }
}

TEST(ColumnarDatabase, PreservesValueKindsThroughInterning) {
  // A numerically equal int and double elsewhere in the database must not
  // change a cell's observed representation (CSV round-trips and typed
  // noise depend on the kind).
  const auto schema = MakeAbcSchema();
  Database db(schema);
  const FactId a = db.Insert(Fact(0, {Value(5.0), Value(1), Value(1)}));
  const FactId b = db.Insert(Fact(0, {Value(5), Value(2), Value(2)}));
  EXPECT_EQ(db.fact(a).value(0).kind(), Value::Kind::kDouble);
  EXPECT_EQ(db.fact(b).value(0).kind(), Value::Kind::kInt);
  // ...while the active domain treats them as one value.
  EXPECT_EQ(db.ActiveDomain(0, 0).size(), 1u);
}

TEST(ColumnarDatabase, EqualityAcrossSchemasWithDifferentArity) {
  auto narrow = std::make_shared<Schema>();
  narrow->AddRelation("R", {"A"});
  auto wide = std::make_shared<Schema>();
  wide->AddRelation("R", {"A", "B"});
  Database a(narrow);
  Database b(wide);
  a.Insert(Fact(0, {Value(1)}));
  b.Insert(Fact(0, {Value(1), Value(2)}));
  EXPECT_FALSE(a == b);  // same ids, different arity: never equal
  EXPECT_FALSE(a.IsSubsetOf(b));
}

TEST(ColumnarDatabase, CopiesShareThePoolAndCompareById) {
  Database db = MakeRandomDatabase(MakeAbcSchema(), 0, 50, 6, 7);
  const Database copy = db;
  EXPECT_EQ(copy.pool_ptr().get(), db.pool_ptr().get());
  EXPECT_TRUE(copy == db);
  db.UpdateValue(db.ids().front(), 0, Value(12345));
  EXPECT_FALSE(copy == db);
}

TEST(ColumnarDatabase, EqualityAcrossIndependentPools) {
  // Databases built separately (disjoint pools, different interning order)
  // must still compare by value.
  const auto schema = MakeAbcSchema();
  Database a(schema);
  Database b(schema);
  a.Insert(Fact(0, {Value(1), Value("x"), Value(2.0)}));
  b.Insert(Fact(0, {Value(1), Value("x"), Value(2)}));  // 2 == 2.0
  EXPECT_TRUE(a == b);
  b.UpdateValue(0, 1, Value("y"));
  EXPECT_FALSE(a == b);
}

TEST(ColumnarDatabase, RestrictPreservesDeletionCosts) {
  Database db = MakeRandomDatabase(MakeAbcSchema(), 0, 10, 4, 11);
  db.set_deletion_cost(3, 2.5);
  const Database restricted = db.Restrict({1, 3, 7});
  EXPECT_DOUBLE_EQ(restricted.deletion_cost(3), 2.5);
  EXPECT_DOUBLE_EQ(restricted.deletion_cost(1), 1.0);
}

// ---- ValuePool vacuum ----

TEST(PoolVacuum, ChurnStaysBoundedAndQueriesAreUnchanged) {
  const auto schema = MakeAbcSchema();
  const std::vector<DenialConstraint> dcs =
      FunctionalDependency(0, {0}, {1}).ToDenialConstraints();
  Database db = MakeRandomDatabase(schema, 0, 30, 4, 123);
  const ViolationDetector detector(schema, dcs);
  Rng rng(321);

  // Sustained value churn: every step overwrites one cell with a value the
  // database has never seen, so an append-only pool grows linearly. The
  // periodic vacuum must keep it bounded without disturbing any query.
  size_t max_pool_size = 0;
  int64_t fresh_value = 1000;
  for (int step = 0; step < 300; ++step) {
    const std::vector<FactId> ids = db.ids();
    db.UpdateValue(ids[rng.UniformIndex(ids.size())],
                   static_cast<AttrIndex>(rng.UniformIndex(3)),
                   Value(fresh_value++));
    if (step % 25 == 24) {
      const ViolationSet before = detector.FindViolations(db);
      const std::vector<Value> domain_before = db.ActiveDomain(0, 1);
      std::vector<Fact> facts_before;
      for (const FactId id : ids) facts_before.push_back(db.fact(id));

      const bool ran = db.VacuumPool(0.3);
      if (ran) {
        EXPECT_LE(db.PoolWaste(), 0.3);
      }

      const ViolationSet after = detector.FindViolations(db);
      EXPECT_EQ(before.minimal_subsets(), after.minimal_subsets())
          << "step " << step;
      EXPECT_EQ(domain_before, db.ActiveDomain(0, 1)) << "step " << step;
      for (size_t i = 0; i < ids.size(); ++i) {
        EXPECT_TRUE(facts_before[i] == db.fact(ids[i]))
            << "step " << step << " fact " << ids[i];
      }
    }
    max_pool_size = std::max(max_pool_size, db.pool().size());
  }
  // 300 churned-in distinct values plus the initial interning would grow an
  // append-only pool past 300 entries; the vacuum cadence (every 25 steps,
  // 30 live facts x 3 attrs <= 90 live distinct values) keeps it far below.
  EXPECT_LT(max_pool_size, 200u);

  // A final full compaction (a no-op when the loop's last vacuum already
  // ran) leaves exactly the referenced values + null.
  db.VacuumPool(0.0);
  EXPECT_DOUBLE_EQ(db.PoolWaste(), 0.0);
  std::vector<char> seen(db.pool().size(), 0);
  size_t distinct_live = 0;
  for (const FactId id : db.ids()) {
    for (AttrIndex a = 0; a < 3; ++a) {
      const ValueId v = db.value_id(id, a);
      if (!seen[v]) {
        seen[v] = 1;
        ++distinct_live;
      }
    }
  }
  EXPECT_EQ(db.pool().size(), distinct_live + 1);  // + pre-interned null
}

TEST(PoolVacuum, RefusesWhileThePoolIsShared) {
  Database db = MakeRandomDatabase(MakeAbcSchema(), 0, 10, 3, 9);
  for (int i = 0; i < 50; ++i) db.UpdateValue(1, 0, Value(10000 + i));
  EXPECT_GT(db.PoolWaste(), 0.5);
  {
    const Database copy = db;  // shares the pool, pins the old ids
    EXPECT_FALSE(db.VacuumPool(0.5));
    EXPECT_TRUE(copy == db);
  }
  EXPECT_TRUE(db.VacuumPool(0.5));  // sole owner again
  EXPECT_DOUBLE_EQ(db.PoolWaste(), 0.0);
}

TEST(PoolVacuum, EqualityAcrossVacuumedAndUnvacuumedCopies) {
  Database db = MakeRandomDatabase(MakeAbcSchema(), 0, 20, 3, 17);
  // An independent rebuild with its own pool and interning order.
  Database rebuilt(MakeAbcSchema());
  for (const FactId id : db.ids()) rebuilt.InsertWithId(id, db.fact(id));
  for (int i = 0; i < 100; ++i) db.UpdateValue(2, 1, Value(777000 + i));
  db.UpdateValue(2, 1, rebuilt.fact(2).value(1));  // churn, then restore
  ASSERT_TRUE(db.VacuumPool(0.1));
  // Different pools, different interning orders — equality is by value.
  EXPECT_TRUE(db == rebuilt);
}

// ---- Randomized detector / oracle parity ----

TEST(DetectorParity, RandomizedDetectionMatchesOracle) {
  const auto schema = MakeAbcSchema();
  const RelationId r = 0;
  // An FD-style DC (pure hash blocking), a mixed equality/order DC with a
  // constant predicate (blocking plus residual predicates), and a DC with
  // no cross-variable equality (a single bucket probed through the order
  // index).
  std::vector<DenialConstraint> dcs;
  dcs.push_back(DcBuilder(*schema, r)
                    .Cross("A", CompareOp::kEq, "A")
                    .Cross("B", CompareOp::kNe, "B")
                    .BuildBinary());
  dcs.push_back(DcBuilder(*schema, r)
                    .Cross("B", CompareOp::kEq, "B")
                    .Cross("C", CompareOp::kLt, "C")
                    .Const(0, "A", CompareOp::kGe, Value(2))
                    .BuildBinary());
  dcs.push_back(DcBuilder(*schema, r)
                    .Cross("A", CompareOp::kLt, "A")
                    .Cross("B", CompareOp::kGt, "B")
                    .BuildBinary());
  const ViolationDetector detector(schema, dcs);

  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    Database db = MakeRandomDatabase(schema, r, 60, 5, seed);
    // Churn the database so column rows are swap-permuted relative to ids.
    Rng rng(seed * 31);
    for (int i = 0; i < 15; ++i) {
      const auto ids = db.ids();
      db.Delete(ids[rng.UniformIndex(ids.size())]);
    }
    const ViolationSet found = detector.FindViolations(db);
    ExpectMatchesOracle(dcs, db, found);
    EXPECT_EQ(detector.Satisfies(db), found.empty());
  }
}

TEST(DetectorParity, RunningExampleMatchesOracle) {
  const auto example = MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  for (const Database* db : {&example.d0, &example.d1, &example.d2}) {
    ExpectMatchesOracle(example.dcs, *db, detector.FindViolations(*db));
  }
}

// ---- MeasureSession::EvaluateOne ----

TEST(EvaluateOne, MatchesPerMeasureFreshEvaluation) {
  const auto example = MakeRunningExample();
  SessionOptions options;
  options.registry.include_mc = true;
  const MeasureSession session(example.schema, example.dcs, options);
  const BatchReport report = session.EvaluateOne(example.d2);

  const ViolationDetector detector(example.schema, example.dcs);
  const auto measures = CreateMeasures(options.registry);
  ASSERT_EQ(report.measures.size(), measures.size());
  for (size_t i = 0; i < measures.size(); ++i) {
    EXPECT_EQ(report.measures[i].name, measures[i]->name());
    EXPECT_DOUBLE_EQ(report.measures[i].value,
                     measures[i]->EvaluateFresh(detector, example.d2))
        << measures[i]->name();
  }
  EXPECT_FALSE(report.truncated);
  EXPECT_GT(report.num_minimal_subsets, 0u);
  ASSERT_NE(report.Find("I_MI"), nullptr);
  EXPECT_DOUBLE_EQ(report.Find("I_MI")->value,
                   static_cast<double>(report.num_minimal_subsets));
  EXPECT_EQ(report.Find("no_such_measure"), nullptr);
}

// The registry filter is the one measure filter: measures() lists exactly
// what is evaluated, in Table-2 order whatever the filter's order, and
// unknown names are ignored.
TEST(EvaluateOne, OnlyFilterSelectsMeasures) {
  const auto example = MakeRunningExample();
  SessionOptions options;
  options.WithMeasure("I_MI").WithMeasure("I_d").WithMeasure("no_such");
  const MeasureSession session(example.schema, example.dcs, options);
  const BatchReport report = session.EvaluateOne(example.d1);
  ASSERT_EQ(report.measures.size(), 2u);
  EXPECT_EQ(report.measures[0].name, "I_d");
  EXPECT_EQ(report.measures[1].name, "I_MI");
  ASSERT_EQ(session.measures().size(), 2u);
  EXPECT_EQ(session.measures()[0]->name(), "I_d");
  EXPECT_EQ(session.measures()[1]->name(), "I_MI");
}

TEST(EvaluateOne, ConsistentDatabaseScoresZeroEverywhere) {
  const auto example = MakeRunningExample();
  const MeasureSession session(example.schema, example.dcs);
  const BatchReport report = session.EvaluateOne(example.d0);
  EXPECT_EQ(report.num_minimal_subsets, 0u);
  for (const MeasureResult& r : report.measures) {
    EXPECT_DOUBLE_EQ(r.value, 0.0) << r.name;
  }
}

}  // namespace
}  // namespace dbim
