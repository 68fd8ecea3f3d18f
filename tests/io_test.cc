#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "datagen/datasets.h"
#include "datagen/io.h"
#include "test_util.h"
#include "violations/detector.h"

namespace dbim {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(DatabaseCsv, RoundTripPreservesValueKinds) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"A", "B", "C", "D"});
  Database db(schema);
  db.Insert(Fact(r, {Value(42), Value(2.5), Value("text, with comma"),
                     Value()}));
  db.Insert(Fact(r, {Value(-7), Value(1e-9), Value("line\"quote"), Value()}));
  const std::string path = TempPath("dbim_io_roundtrip.csv");
  ASSERT_TRUE(WriteDatabaseCsv(db, r, path));
  const auto loaded = ReadDatabaseCsv(schema, r, path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 2u);
  const auto ids = loaded->ids();
  EXPECT_EQ(loaded->fact(ids[0]).value(0), Value(42));
  EXPECT_EQ(loaded->fact(ids[0]).value(1), Value(2.5));
  EXPECT_EQ(loaded->fact(ids[0]).value(2), Value("text, with comma"));
  EXPECT_TRUE(loaded->fact(ids[0]).value(3).is_null());
  EXPECT_EQ(loaded->fact(ids[1]).value(2), Value("line\"quote"));
  std::remove(path.c_str());
}

TEST(DatabaseCsv, RunningExampleRoundTripKeepsMeasures) {
  const auto example = testing::MakeRunningExample();
  const std::string path = TempPath("dbim_io_d1.csv");
  ASSERT_TRUE(WriteDatabaseCsv(example.d1, example.relation, path));
  const auto loaded = ReadDatabaseCsv(example.schema, example.relation, path);
  ASSERT_TRUE(loaded.has_value());
  const ViolationDetector detector(example.schema, example.dcs);
  // Ids are renumbered (0..4 instead of 1..5) but all measure inputs —
  // the multiset of facts — survive.
  EXPECT_EQ(detector.FindViolations(*loaded).num_minimal_subsets(), 7u);
  std::remove(path.c_str());
}

TEST(DatabaseCsv, UntaggedFieldsLoadAsStrings) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"Name", "City"});
  const std::string path = TempPath("dbim_io_plain.csv");
  {
    FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("Name,City\nalice,Haifa\nbob,Waterloo\n", f);
    std::fclose(f);
  }
  const auto loaded = ReadDatabaseCsv(schema, r, path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_EQ(loaded->fact(loaded->ids()[0]).value(1), Value("Haifa"));
  std::remove(path.c_str());
}

TEST(DatabaseCsv, ArityMismatchIsReported) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"A", "B"});
  const std::string path = TempPath("dbim_io_bad.csv");
  {
    FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("A,B,C\n1,2,3\n", f);
    std::fclose(f);
  }
  std::string error;
  EXPECT_FALSE(ReadDatabaseCsv(schema, r, path, &error).has_value());
  EXPECT_NE(error.find("columns"), std::string::npos);
  std::remove(path.c_str());
}

TEST(DatabaseCsv, MalformedTypedCellFailsTheRead) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"A", "B"});
  const std::string path = TempPath("dbim_io_malformed.csv");
  for (const std::string bad :
       {"d:nan", "d:-nan", "d:NaN", "d:", "d:1.5x", "i:", "i:12x", "i:-",
        "i:1.5", "i:99999999999999999999"}) {
    {
      FILE* f = std::fopen(path.c_str(), "w");
      ASSERT_NE(f, nullptr);
      std::fputs(("A,B\ni:1,i:2\ni:3," + bad + "\n").c_str(), f);
      std::fclose(f);
    }
    std::string error;
    EXPECT_FALSE(ReadDatabaseCsv(schema, r, path, &error).has_value()) << bad;
    // The error names the row and the column.
    EXPECT_NE(error.find("row 2"), std::string::npos) << error;
    EXPECT_NE(error.find("column B"), std::string::npos) << error;
  }
  std::remove(path.c_str());
}

TEST(DatabaseCsv, MissingFileIsReported) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"A"});
  std::string error;
  EXPECT_FALSE(
      ReadDatabaseCsv(schema, r, "/nonexistent/nope.csv", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(DatabaseCsv, GeneratedDatasetSurvivesExport) {
  const Dataset dataset = MakeDataset(DatasetId::kStock, 80, 3);
  const std::string path = TempPath("dbim_io_stock.csv");
  ASSERT_TRUE(WriteDatabaseCsv(dataset.data, dataset.relation, path));
  const auto loaded =
      ReadDatabaseCsv(dataset.schema, dataset.relation, path);
  ASSERT_TRUE(loaded.has_value());
  const ViolationDetector detector(dataset.schema, dataset.constraints);
  EXPECT_TRUE(detector.Satisfies(*loaded));
  EXPECT_EQ(loaded->size(), dataset.data.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dbim
