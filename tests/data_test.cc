// Tests for the dataset model and the synthetic generators (structure,
// macro-statistics, determinism, CSV round-trip).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <set>

#include "common/csv.h"
#include "data/dataset.h"
#include "data/generators.h"

namespace crowder {
namespace data {
namespace {

TEST(TableTest, ConcatenatedRecord) {
  Table t;
  t.attribute_names = {"name", "city"};
  t.records = {{"oceana", "new york"}};
  EXPECT_EQ(t.ConcatenatedRecord(0), "oceana new york");
}

TEST(TableTest, ValidateCatchesRaggedRecords) {
  Table t;
  t.attribute_names = {"a", "b"};
  t.records = {{"1"}};
  EXPECT_FALSE(t.Validate().ok());
}

TEST(TableTest, ValidateCatchesSourcesMismatch) {
  Table t;
  t.attribute_names = {"a"};
  t.records = {{"1"}, {"2"}};
  t.sources = {0};
  EXPECT_FALSE(t.Validate().ok());
}

TEST(DatasetTest, MatchingPairCountSingleSource) {
  Dataset ds;
  ds.table.attribute_names = {"a"};
  ds.table.records = {{"x"}, {"y"}, {"z"}, {"w"}};
  ds.truth.entity_of = {0, 0, 0, 1};  // entity 0 has 3 records -> 3 pairs
  EXPECT_EQ(ds.CountMatchingPairs(), 3u);
  EXPECT_EQ(ds.CountAdmissiblePairs(), 6u);
}

TEST(DatasetTest, MatchingPairCountCrossSource) {
  Dataset ds;
  ds.table.attribute_names = {"a"};
  ds.table.records = {{"x"}, {"y"}, {"z"}};
  ds.table.sources = {0, 0, 1};
  ds.truth.entity_of = {5, 5, 5};
  // Same-source (0,1) is inadmissible; (0,2) and (1,2) count.
  EXPECT_EQ(ds.CountMatchingPairs(), 2u);
  EXPECT_EQ(ds.CountAdmissiblePairs(), 2u);
}

TEST(DatasetTest, ValidateCatchesTruthMismatch) {
  Dataset ds;
  ds.table.attribute_names = {"a"};
  ds.table.records = {{"x"}};
  ds.truth.entity_of = {0, 1};
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(RestaurantGeneratorTest, MatchesConfiguredStatistics) {
  RestaurantConfig config;
  auto ds = GenerateRestaurant(config);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->table.num_records(), config.num_records);
  EXPECT_EQ(ds->table.num_attributes(), 4u);
  EXPECT_EQ(ds->CountMatchingPairs(), config.num_duplicate_pairs);
  EXPECT_TRUE(ds->table.sources.empty());  // single source
  // The paper's total: 858*857/2 = 367,653.
  EXPECT_EQ(ds->CountAdmissiblePairs(), 367653u);
}

TEST(RestaurantGeneratorTest, DeterministicGivenSeed) {
  auto a = GenerateRestaurant({}).ValueOrDie();
  auto b = GenerateRestaurant({}).ValueOrDie();
  EXPECT_EQ(a.table.records, b.table.records);
  EXPECT_EQ(a.truth.entity_of, b.truth.entity_of);
}

TEST(RestaurantGeneratorTest, DifferentSeedsDiffer) {
  RestaurantConfig c1;
  RestaurantConfig c2;
  c2.seed = 999;
  auto a = GenerateRestaurant(c1).ValueOrDie();
  auto b = GenerateRestaurant(c2).ValueOrDie();
  EXPECT_NE(a.table.records, b.table.records);
}

TEST(RestaurantGeneratorTest, SmallConfig) {
  RestaurantConfig config;
  config.num_records = 40;
  config.num_duplicate_pairs = 8;
  config.num_chains = 2;
  auto ds = GenerateRestaurant(config);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->table.num_records(), 40u);
  EXPECT_EQ(ds->CountMatchingPairs(), 8u);
}

TEST(RestaurantGeneratorTest, RejectsImpossibleConfig) {
  RestaurantConfig config;
  config.num_records = 10;
  config.num_duplicate_pairs = 6;  // needs 12 records
  EXPECT_FALSE(GenerateRestaurant(config).ok());
}

TEST(RestaurantGeneratorTest, ScaleFactorGrowsCountsProportionally) {
  RestaurantConfig config;
  config.scale_factor = 3.0;
  auto ds = GenerateRestaurant(config);
  ASSERT_TRUE(ds.ok());
  // Macro statistics preserved: every count scales by the same factor, so
  // the duplicate fraction (and the join/recall regime) is unchanged.
  EXPECT_EQ(ds->table.num_records(), 3 * config.num_records);
  EXPECT_EQ(ds->CountMatchingPairs(), 3 * config.num_duplicate_pairs);
  // Deterministic given (seed, scale_factor).
  auto again = GenerateRestaurant(config).ValueOrDie();
  EXPECT_EQ(ds->table.records, again.table.records);
}

TEST(GeneratorScaleFactorTest, RejectsNonPositive) {
  RestaurantConfig restaurant;
  restaurant.scale_factor = 0.0;
  EXPECT_FALSE(GenerateRestaurant(restaurant).ok());
  ProductConfig product;
  product.scale_factor = -1.0;
  EXPECT_FALSE(GenerateProduct(product).ok());
  ProductDupConfig dup;
  dup.scale_factor = 0.0;
  EXPECT_FALSE(GenerateProductDup(dup).ok());
}

TEST(ProductGeneratorTest, MatchesPaperStatistics) {
  ProductConfig config;
  auto ds = GenerateProduct(config);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->table.num_records(), 1081u + 1092u);
  EXPECT_EQ(ds->CountMatchingPairs(), 1097u);
  // The paper's total: 1081*1092 = 1,180,452 cross-source pairs.
  EXPECT_EQ(ds->CountAdmissiblePairs(), 1180452u);
  size_t abt = 0;
  for (int s : ds->table.sources) abt += (s == 0);
  EXPECT_EQ(abt, 1081u);
}

TEST(ProductGeneratorTest, TwoAttributes) {
  auto ds = GenerateProduct({}).ValueOrDie();
  EXPECT_EQ(ds.table.attribute_names, (std::vector<std::string>{"name", "price"}));
  // Prices look like "$123.45".
  EXPECT_EQ(ds.table.records[0][1][0], '$');
}

TEST(ProductGeneratorTest, Deterministic) {
  auto a = GenerateProduct({}).ValueOrDie();
  auto b = GenerateProduct({}).ValueOrDie();
  EXPECT_EQ(a.table.records, b.table.records);
}

TEST(ProductGeneratorTest, SmallBalancedConfig) {
  ProductConfig config;
  config.num_abt = 50;
  config.num_buy = 60;
  config.num_matching_pairs = 40;
  auto ds = GenerateProduct(config);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->CountMatchingPairs(), 40u);
}

TEST(ProductGeneratorTest, RejectsImpossibleMatchCount) {
  ProductConfig config;
  config.num_abt = 10;
  config.num_buy = 10;
  config.num_matching_pairs = 100;
  EXPECT_FALSE(GenerateProduct(config).ok());
}

TEST(ProductGeneratorTest, ScaleFactorGrowsCountsProportionally) {
  ProductConfig config;
  config.scale_factor = 2.5;
  auto ds = GenerateProduct(config);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->table.num_records(),
            static_cast<size_t>(std::llround(2.5 * config.num_abt)) +
                static_cast<size_t>(std::llround(2.5 * config.num_buy)));
  EXPECT_EQ(ds->CountMatchingPairs(),
            static_cast<uint64_t>(std::llround(2.5 * config.num_matching_pairs)));
  size_t abt = 0;
  for (int s : ds->table.sources) abt += (s == 0);
  EXPECT_EQ(abt, static_cast<size_t>(std::llround(2.5 * config.num_abt)));
}

TEST(ProductDupGeneratorTest, ConstructionPerPaper) {
  ProductDupConfig config;
  auto ds = GenerateProductDup(config);
  ASSERT_TRUE(ds.ok());
  // 100 base entities; with x ~ U[0,9] copies each, expect 100..1000
  // records and a single source.
  EXPECT_GE(ds->table.num_records(), 100u);
  EXPECT_LE(ds->table.num_records(), 1000u);
  EXPECT_TRUE(ds->table.sources.empty());
  std::set<uint32_t> entities(ds->truth.entity_of.begin(), ds->truth.entity_of.end());
  EXPECT_EQ(entities.size(), 100u);
}

TEST(ProductDupGeneratorTest, DuplicatesArePermutationsOfBase) {
  auto ds = GenerateProductDup({}).ValueOrDie();
  // Records of the same entity must have identical token multisets in the
  // name attribute (the paper's construction only swaps token positions).
  std::map<uint32_t, std::multiset<std::string>> canon;
  for (uint32_t r = 0; r < ds.table.num_records(); ++r) {
    std::multiset<std::string> tokens;
    std::string cur;
    for (char c : ds.table.records[r][0] + " ") {
      if (c == ' ') {
        if (!cur.empty()) tokens.insert(cur);
        cur.clear();
      } else {
        cur.push_back(c);
      }
    }
    auto [it, inserted] = canon.emplace(ds.truth.entity_of[r], tokens);
    if (!inserted) {
      EXPECT_EQ(it->second, tokens) << "record " << r;
    }
  }
}

TEST(ProductDupGeneratorTest, RejectsBadBaseCount) {
  ProductDupConfig config;
  config.num_base_records = 0;
  EXPECT_FALSE(GenerateProductDup(config).ok());
}

TEST(DatasetCsvTest, RoundTrip) {
  RestaurantConfig config;
  config.num_records = 30;
  config.num_duplicate_pairs = 5;
  config.num_chains = 1;
  auto ds = GenerateRestaurant(config).ValueOrDie();

  const std::string path = "/tmp/crowder_dataset_test.csv";
  ASSERT_TRUE(WriteDatasetCsv(ds, path).ok());
  auto back = ReadDatasetCsv(path, ds.name);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->table.records, ds.table.records);
  EXPECT_EQ(back->truth.entity_of, ds.truth.entity_of);
  EXPECT_EQ(back->table.attribute_names, ds.table.attribute_names);
  std::remove(path.c_str());
}

TEST(DatasetCsvTest, RoundTripPreservesSources) {
  ProductConfig config;
  config.num_abt = 20;
  config.num_buy = 25;
  config.num_matching_pairs = 15;
  auto ds = GenerateProduct(config).ValueOrDie();
  const std::string path = "/tmp/crowder_dataset_sources_test.csv";
  ASSERT_TRUE(WriteDatasetCsv(ds, path).ok());
  auto back = ReadDatasetCsv(path, ds.name);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->table.sources, ds.table.sources);
  std::remove(path.c_str());
}

TEST(DatasetCsvTest, MissingColumnsRejected) {
  const std::string path = "/tmp/crowder_dataset_bad_test.csv";
  ASSERT_TRUE(WriteCsvFile(path, {"name"}, {{"x"}}).ok());
  EXPECT_FALSE(ReadDatasetCsv(path, "bad").ok());
  std::remove(path.c_str());
}

TEST(DatasetCsvTest, BadLabelCellsReturnNamedStatus) {
  // Cells a mutated CSV produced: each once aborted the process through an
  // uncaught std::stoul/std::stoi exception, or read as a wrong number.
  const std::string path = "/tmp/crowder_dataset_label_test.csv";
  const struct {
    const char* source;
    const char* entity;
    const char* column;
  } cases[] = {
      {"0", "5999999999999999999997", "__entity"},
      {"0", "-1", "__entity"},
      {"0", "12abc", "__entity"},
      {"abc", "3", "__source"},
  };
  for (const auto& c : cases) {
    ASSERT_TRUE(WriteCsvFile(path, {"name", "__source", "__entity"},
                             {{"ok", "0", "1"}, {"bad", c.source, c.entity}})
                    .ok());
    const auto read = ReadDatasetCsv(path, "bad");
    ASSERT_FALSE(read.ok()) << c.source << "|" << c.entity;
    EXPECT_TRUE(read.status().IsInvalidArgument()) << read.status().ToString();
    EXPECT_NE(read.status().message().find(std::string("row 2 ") + c.column),
              std::string::npos)
        << read.status().ToString();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace data
}  // namespace crowder
