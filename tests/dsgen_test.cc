// Property tests of the data generator: determinism, chunk-parallel
// equivalence, scaling fidelity, referential integrity, SCD invariants,
// and the coupling of sales and returns (paper §3).

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>

#include "dsgen/generator.h"
#include "dsgen/parallel.h"
#include "dsgen/keys.h"
#include "dsgen/scd.h"
#include "scaling/scaling.h"

namespace tpcds {
namespace {

constexpr double kSf = 0.002;

GeneratorOptions Options(double sf = kSf) {
  GeneratorOptions o;
  o.scale_factor = sf;
  return o;
}

Result<std::vector<std::vector<std::string>>> GenerateAll(
    const std::string& table, const GeneratorOptions& options) {
  TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<TableGenerator> gen,
                         MakeGenerator(table, options));
  MemoryRowSink sink;
  TPCDS_RETURN_NOT_OK(gen->Generate(&sink));
  return sink.rows();
}

int64_t ToInt(const std::string& field) {
  return std::strtoll(field.c_str(), nullptr, 10);
}

TEST(DsgenTest, BusinessKeyFormat) {
  EXPECT_EQ(BusinessKey(0), "AAAAAAAAAAAAAAAA");
  EXPECT_EQ(BusinessKey(1), "AAAAAAAABAAAAAAA");
  EXPECT_EQ(BusinessKey(26), "AAAAAAAAABAAAAAA");
  EXPECT_EQ(BusinessKey(27), "AAAAAAAABBAAAAAA");
  EXPECT_EQ(BusinessKey(123456).size(), 16u);
  EXPECT_NE(BusinessKey(5), BusinessKey(6));
}

TEST(DsgenTest, DateSkRoundTrip) {
  Date d = Date::FromYmd(2000, 11, 15);
  EXPECT_EQ(SkToDate(DateToSk(d)), d);
  EXPECT_EQ(DateToSk(ScalingModel::DateDimBeginDate()), 1);
  EXPECT_EQ(SecondsToTimeSk(0), 1);
  EXPECT_EQ(SecondsToTimeSk(86399), 86400);
}

TEST(DsgenTest, GenerationIsDeterministic) {
  for (const char* table : {"customer", "item", "store_sales"}) {
    auto a = GenerateAll(table, Options());
    auto b = GenerateAll(table, Options());
    ASSERT_TRUE(a.ok() && b.ok()) << table;
    EXPECT_EQ(*a, *b) << table;
  }
}

TEST(DsgenTest, DifferentSeedsDifferentData) {
  GeneratorOptions other = Options();
  other.master_seed = 42;
  auto a = GenerateAll("customer", Options());
  auto b = GenerateAll("customer", other);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());  // same cardinality...
  EXPECT_NE(*a, *b);                // ...different content
}

// The table is a std::string so that the test name prints its text; a
// const char* inside a tuple prints as its address, which changes with
// every run of the binary.
class ChunkEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(ChunkEquivalenceTest, ChunkedEqualsSerial) {
  // The paper's parallel-generation requirement: the concatenation of
  // independently generated chunks is bit-identical to a serial run.
  auto [table, num_chunks] = GetParam();
  auto serial = GenerateAll(table, Options());
  ASSERT_TRUE(serial.ok());
  std::vector<std::vector<std::string>> combined;
  for (int chunk = 1; chunk <= num_chunks; ++chunk) {
    GeneratorOptions options = Options();
    options.chunk = chunk;
    options.num_chunks = num_chunks;
    auto part = GenerateAll(table, options);
    ASSERT_TRUE(part.ok());
    combined.insert(combined.end(), part->begin(), part->end());
  }
  EXPECT_EQ(combined, *serial) << table << " in " << num_chunks << " chunks";
}

INSTANTIATE_TEST_SUITE_P(
    TablesAndChunkCounts, ChunkEquivalenceTest,
    ::testing::Combine(::testing::Values("customer", "item", "store_sales",
                                         "web_returns", "inventory",
                                         "customer_demographics"),
                       ::testing::Values(2, 3, 7)));

TEST(DsgenTest, ThreadPoolParallelGenerationEqualsSerial) {
  ThreadPool pool(3);
  for (const char* table : {"customer", "store_sales"}) {
    auto serial = GenerateAll(table, Options());
    ASSERT_TRUE(serial.ok());
    MemoryRowSink parallel;
    Status st = GenerateTableParallel(table, Options(), /*num_chunks=*/5,
                                      &pool, &parallel);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(parallel.rows(), *serial) << table;
  }
  EXPECT_FALSE(
      GenerateTableParallel("customer", Options(), 0, &pool, nullptr).ok());
}

TEST(DsgenTest, FrequentNameSkewReachesCustomers) {
  // Paper §3.2: real-world skew ("frequent names") must survive into the
  // generated customer dimension — Smith outnumbers a tail name.
  auto rows = GenerateAll("customer", Options(0.05));
  ASSERT_TRUE(rows.ok());
  int64_t smith = 0;
  int64_t hayes = 0;  // tail of the embedded census list
  for (const auto& row : *rows) {
    if (row[9] == "Smith") ++smith;
    if (row[9] == "Hayes") ++hayes;
  }
  EXPECT_GT(smith, 0);
  EXPECT_GT(smith, 3 * hayes) << "Smith " << smith << " Hayes " << hayes;
}

TEST(DsgenTest, TimeDimContent) {
  GeneratorOptions options = Options();
  auto gen = MakeGenerator("time_dim", options);
  ASSERT_TRUE(gen.ok());
  MemoryRowSink sink;
  // 08:30:15 = second 30615; 19:00:00 = 68400.
  ASSERT_TRUE((*gen)->GenerateUnits(30615, 1, &sink).ok());
  ASSERT_TRUE((*gen)->GenerateUnits(68400, 1, &sink).ok());
  const auto& morning = sink.rows()[0];
  EXPECT_EQ(morning[3], "8");           // hour
  EXPECT_EQ(morning[4], "30");          // minute
  EXPECT_EQ(morning[5], "15");          // second
  EXPECT_EQ(morning[6], "AM");
  EXPECT_EQ(morning[9], "breakfast");
  const auto& evening = sink.rows()[1];
  EXPECT_EQ(evening[6], "PM");
  EXPECT_EQ(evening[7], "second");      // shift
  EXPECT_EQ(evening[9], "dinner");
}

TEST(DsgenTest, DateDimHolidaysAndWeekends) {
  GeneratorOptions options = Options();
  auto gen = MakeGenerator("date_dim", options);
  ASSERT_TRUE(gen.ok());
  MemoryRowSink sink;
  ASSERT_TRUE((*gen)
                  ->GenerateUnits(DateToSk(Date::FromYmd(2000, 12, 25)) - 1,
                                  1, &sink)
                  .ok());
  ASSERT_TRUE((*gen)
                  ->GenerateUnits(DateToSk(Date::FromYmd(2000, 7, 8)) - 1, 1,
                                  &sink)
                  .ok());
  const auto& christmas = sink.rows()[0];
  EXPECT_EQ(christmas[16], "Y");  // d_holiday
  const auto& saturday = sink.rows()[1];
  EXPECT_EQ(saturday[17], "Y");   // d_weekend
  EXPECT_EQ(saturday[14], "Saturday");
}

TEST(DsgenTest, RowCountsTrackScalingModel) {
  // Dimensions hit the model exactly; sales are organised in tickets of
  // 1..20 items (mean 10.5), so their totals land within ~2%.
  for (const char* table : {"customer", "item", "store", "promotion"}) {
    auto rows = GenerateAll(table, Options());
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(static_cast<int64_t>(rows->size()),
              ScalingModel::RowCount(table, kSf))
        << table;
  }
  auto sales = GenerateAll("store_sales", Options());
  ASSERT_TRUE(sales.ok());
  double expected = static_cast<double>(
      ScalingModel::RowCount("store_sales", kSf));
  EXPECT_NEAR(static_cast<double>(sales->size()) / expected, 1.0, 0.05);
}

TEST(DsgenTest, SalesReferentialIntegrity) {
  auto sales = GenerateAll("store_sales", Options());
  ASSERT_TRUE(sales.ok());
  int64_t items = ScalingModel::RowCount("item", kSf);
  int64_t customers = ScalingModel::RowCount("customer", kSf);
  int64_t stores = ScalingModel::RowCount("store", kSf);
  int64_t dates = ScalingModel::DateDimRows();
  int64_t sold_begin = DateToSk(ScalingModel::SalesBeginDate());
  int64_t sold_end = DateToSk(ScalingModel::SalesEndDate());
  for (const auto& row : *sales) {
    ASSERT_EQ(row.size(), 23u);
    int64_t date_sk = ToInt(row[0]);
    EXPECT_GE(date_sk, sold_begin);
    EXPECT_LE(date_sk, sold_end);
    EXPECT_LE(date_sk, dates);
    EXPECT_GE(ToInt(row[2]), 1);          // item
    EXPECT_LE(ToInt(row[2]), items);
    EXPECT_GE(ToInt(row[3]), 1);          // customer
    EXPECT_LE(ToInt(row[3]), customers);
    EXPECT_GE(ToInt(row[7]), 1);          // store
    EXPECT_LE(ToInt(row[7]), stores);
    EXPECT_GE(ToInt(row[10]), 1);         // quantity
    EXPECT_LE(ToInt(row[10]), 100);
  }
}

TEST(DsgenTest, ReturnsAreSubsetOfSales) {
  GeneratorOptions options = Options();
  MemoryRowSink sales;
  MemoryRowSink returns;
  ASSERT_TRUE(GenerateSalesChannel("store_sales", options, &sales, &returns)
                  .ok());
  ASSERT_GT(returns.rows().size(), 0u);
  // Each return's (item_sk, ticket_number) matches exactly one sale.
  std::set<std::pair<int64_t, int64_t>> sold;
  for (const auto& row : sales.rows()) {
    EXPECT_TRUE(sold.insert({ToInt(row[2]), ToInt(row[9])}).second)
        << "duplicate sales PK";
  }
  for (const auto& row : returns.rows()) {
    ASSERT_EQ(row.size(), 20u);
    EXPECT_TRUE(sold.count({ToInt(row[2]), ToInt(row[9])}))
        << "orphan return";
    // Returned quantity can't exceed the 1..100 sold quantity.
    EXPECT_GE(ToInt(row[10]), 1);
    EXPECT_LE(ToInt(row[10]), 100);
  }
  // Return rate tracks the paper's ~4.9% for the store channel.
  double rate = static_cast<double>(returns.rows().size()) /
                static_cast<double>(sales.rows().size());
  EXPECT_NEAR(rate, 140000.0 / 2880000.0, 0.02);
}

TEST(DsgenTest, TicketsAverageTenAndAHalfItems) {
  auto sales = GenerateAll("store_sales", Options(0.005));
  ASSERT_TRUE(sales.ok());
  std::map<int64_t, int> ticket_sizes;
  for (const auto& row : *sales) ++ticket_sizes[ToInt(row[9])];
  double total = 0;
  int max_items = 0;
  for (const auto& [ticket, n] : ticket_sizes) {
    total += n;
    max_items = std::max(max_items, n);
  }
  double avg = total / static_cast<double>(ticket_sizes.size());
  EXPECT_NEAR(avg, 10.5, 0.6);  // paper §3.1: avg cart = 10.5 items
  EXPECT_LE(max_items, 20);
}

TEST(DsgenTest, ScdInvariants) {
  auto rows = GenerateAll("item", Options(0.05));
  ASSERT_TRUE(rows.ok());
  // Column layout: 0 sk, 1 business key, 2 rec_start, 3 rec_end.
  std::map<std::string, std::vector<size_t>> by_bk;
  for (size_t i = 0; i < rows->size(); ++i) {
    by_bk[(*rows)[i][1]].push_back(i);
    EXPECT_EQ(ToInt((*rows)[i][0]), static_cast<int64_t>(i) + 1)
        << "surrogates must be dense and 1-based";
  }
  for (const auto& [bk, indices] : by_bk) {
    ASSERT_LE(indices.size(), 3u) << "paper: up to 3 revisions";
    int open = 0;
    std::string prev_end;
    for (size_t k = 0; k < indices.size(); ++k) {
      const auto& row = (*rows)[indices[k]];
      if (row[3].empty()) {
        ++open;
        EXPECT_EQ(k, indices.size() - 1) << "only the newest is open";
      }
      if (k > 0) {
        // Consecutive revision windows must not overlap.
        const auto& prev = (*rows)[indices[k - 1]];
        EXPECT_LT(prev[3], row[2]) << bk;
      }
      // Identity attributes are stable across revisions (item_id col 1 is
      // the key itself; category col 12 must match).
      EXPECT_EQ(row[12], (*rows)[indices[0]][12]) << bk;
    }
    EXPECT_EQ(open, 1) << bk;
  }
}

TEST(DsgenTest, RevisionMapDistributesAllRows) {
  RevisionMap map(123, 1000);
  EXPECT_EQ(map.surrogate_rows(), 1000);
  EXPECT_GT(map.num_business_keys(), 300);  // avg 2 revisions
  EXPECT_LT(map.num_business_keys(), 700);
  for (int64_t i = 1; i < 1000; ++i) {
    const RevisionMap::Entry& prev = map.At(i - 1);
    const RevisionMap::Entry& cur = map.At(i);
    if (cur.business_key == prev.business_key) {
      EXPECT_EQ(cur.revision, prev.revision + 1);
    } else {
      EXPECT_EQ(cur.business_key, prev.business_key + 1);
      EXPECT_EQ(cur.revision, 0);
    }
    EXPECT_LE(cur.num_revisions, 3);
    EXPECT_LT(cur.revision, cur.num_revisions);
  }
}

TEST(DsgenTest, RevisionValidityWindows) {
  // Single revision: open-ended from the first epoch.
  RevisionWindow w1 = RevisionValidity(0, 1);
  EXPECT_FALSE(w1.rec_end_date.has_value());
  // Three revisions tile the epochs without gaps or overlaps.
  RevisionWindow a = RevisionValidity(0, 3);
  RevisionWindow b = RevisionValidity(1, 3);
  RevisionWindow c = RevisionValidity(2, 3);
  ASSERT_TRUE(a.rec_end_date.has_value());
  ASSERT_TRUE(b.rec_end_date.has_value());
  EXPECT_FALSE(c.rec_end_date.has_value());
  EXPECT_EQ(a.rec_end_date->AddDays(1), b.rec_begin_date);
  EXPECT_EQ(b.rec_end_date->AddDays(1), c.rec_begin_date);
}

TEST(DsgenTest, DateDimContent) {
  GeneratorOptions options = Options();
  auto gen = MakeGenerator("date_dim", options);
  ASSERT_TRUE(gen.ok());
  MemoryRowSink sink;
  // Generate a slice around 2000-02-29 (leap day).
  int64_t leap_index = DateToSk(Date::FromYmd(2000, 2, 29)) - 1;
  ASSERT_TRUE((*gen)->GenerateUnits(leap_index, 2, &sink).ok());
  const auto& leap = sink.rows()[0];
  EXPECT_EQ(leap[2], "2000-02-29");
  EXPECT_EQ(leap[6], "2000");   // d_year
  EXPECT_EQ(leap[8], "2");      // d_moy
  EXPECT_EQ(leap[9], "29");     // d_dom
  EXPECT_EQ(leap[10], "1");     // d_qoy
  const auto& march = sink.rows()[1];
  EXPECT_EQ(march[2], "2000-03-01");
}

TEST(DsgenTest, UnknownTableRejected) {
  GeneratorOptions options = Options();
  auto gen = MakeGenerator("nope", options);
  EXPECT_FALSE(gen.ok());
  EXPECT_EQ(gen.status().code(), StatusCode::kNotFound);
}

TEST(DsgenTest, LoadOrderCoversAllTables) {
  EXPECT_EQ(GeneratorTableNames().size(), 24u);
  // Every listed table has a working generator.
  for (const std::string& table : GeneratorTableNames()) {
    auto gen = MakeGenerator(table, Options());
    ASSERT_TRUE(gen.ok()) << table;
    EXPECT_GT((*gen)->NumUnits(), 0) << table;
  }
}

}  // namespace
}  // namespace tpcds
