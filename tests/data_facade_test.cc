// DataFacade / generation hot-swap tests: copy-on-write forks, atomic
// publication, reader pinning (a query sees exactly one generation even
// while maintenance swaps underneath it), and retirement of
// generation-scoped derived state. The concurrency tests are the TSan
// targets for the provider — scripts/check_tsan.sh runs this binary.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/audit.h"
#include "engine/data_facade.h"
#include "engine/database.h"
#include "maintenance/maintenance.h"

namespace tpcds {
namespace {

/// A one-column table whose every row holds the same marker value; the
/// swap tests republish generations where marker == generation id, so a
/// torn read (rows from two generations in one scan) is detectable as
/// MIN(g) != MAX(g).
void BuildProbe(Database* db, int64_t rows, int64_t marker) {
  ASSERT_TRUE(db->CreateTable("probe", {{"g", ColumnType::kInteger}}).ok());
  EngineTable* t = db->FindTable("probe");
  for (int64_t i = 0; i < rows; ++i) {
    ASSERT_TRUE(t->AppendRowStrings({std::to_string(marker)}).ok());
  }
}

TEST(DataFacadeTest, SnapshotPinsGenerationAndTables) {
  Database db;
  BuildProbe(&db, 8, 1);
  std::shared_ptr<const DataFacade> snap = db.Snapshot();
  EXPECT_EQ(snap->generation(), 1u);
  EXPECT_EQ(snap->TableCount(), 1u);
  ASSERT_NE(snap->FindTable("probe"), nullptr);
  EXPECT_EQ(snap->FindTable("probe")->num_rows(), 8);
  EXPECT_EQ(snap->FindTable("nope"), nullptr);
  // The snapshot shares storage with the live database (no deep copy).
  EXPECT_EQ(snap->FindTable("probe"), db.FindTable("probe"));
}

TEST(DataFacadeTest, ForkIsCopyOnWriteAndAdoptSwapsAtomically) {
  Database db;
  BuildProbe(&db, 8, 1);
  ASSERT_TRUE(db.CreateTable("shared", {{"x", ColumnType::kInteger}}).ok());
  ASSERT_TRUE(db.FindTable("shared")->AppendRowStrings({"7"}).ok());

  std::shared_ptr<const DataFacade> pinned = db.Snapshot();
  Result<std::unique_ptr<Database>> fork = db.ForkForMaintenance({"probe"});
  ASSERT_TRUE(fork.ok()) << fork.status().ToString();

  // Only the named table is cloned; the rest is shared by pointer.
  EXPECT_NE((*fork)->FindTable("probe"), db.FindTable("probe"));
  EXPECT_EQ((*fork)->FindTable("shared"), db.FindTable("shared"));

  // Mutating the fork leaves the live database and the pinned facade
  // untouched.
  EngineTable* forked = (*fork)->FindTable("probe");
  for (int64_t r = 0; r < forked->num_rows(); ++r) {
    forked->SetValue(r, 0, Value::Int(2));
  }
  EXPECT_EQ(db.FindTable("probe")->GetValue(0, 0).AsInt(), 1);
  EXPECT_EQ(pinned->FindTable("probe")->GetValue(0, 0).AsInt(), 1);

  uint64_t before = db.generation();
  ASSERT_TRUE(db.AdoptTablesFrom(fork->get()).ok());
  EXPECT_EQ(db.generation(), before + 1);
  EXPECT_EQ(db.FindTable("probe")->GetValue(0, 0).AsInt(), 2);
  // The pre-swap generation stays alive and unchanged for its holder.
  EXPECT_EQ(pinned->generation(), before);
  EXPECT_EQ(pinned->FindTable("probe")->GetValue(0, 0).AsInt(), 1);
}

TEST(DataFacadeTest, ForkUnknownTableFails) {
  Database db;
  BuildProbe(&db, 2, 1);
  Result<std::unique_ptr<Database>> fork =
      db.ForkForMaintenance({"no_such_table"});
  EXPECT_FALSE(fork.ok());
}

TEST(DataFacadeTest, ProviderPublishAndAcquire) {
  Database db;
  BuildProbe(&db, 4, 1);
  DataFacadeProvider provider;
  EXPECT_EQ(provider.Acquire(), nullptr);
  EXPECT_EQ(provider.PublishCount(), 0);
  provider.Publish(db.Snapshot());
  std::shared_ptr<const DataFacade> first = provider.Acquire();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->generation(), 1u);
  // Swap in generation 2; the earlier Acquire keeps generation 1 alive.
  Result<std::unique_ptr<Database>> fork = db.ForkForMaintenance({"probe"});
  ASSERT_TRUE(fork.ok());
  ASSERT_TRUE(db.AdoptTablesFrom(fork->get()).ok());
  provider.Publish(db.Snapshot());
  EXPECT_EQ(provider.PublishCount(), 2);
  EXPECT_EQ(provider.Acquire()->generation(), 2u);
  EXPECT_EQ(first->generation(), 1u);
}

TEST(DataFacadeTest, RetiredDerivedStateStaysValidForHolders) {
  Database db;
  BuildProbe(&db, 16, 3);
  EngineTable* t = db.FindTable("probe");
  const EngineTable::HashIndex& index = t->GetOrBuildIntIndex(0);
  EXPECT_EQ(t->RetiredDerivedCount(), 0u);
  // Invalidation retires the bundle instead of destroying it: a reader
  // mid-probe keeps a consistent view.
  t->InvalidateIndexes();
  EXPECT_EQ(t->RetiredDerivedCount(), 1u);
  auto hit = index.find(3);
  ASSERT_NE(hit, index.end());
  EXPECT_EQ(hit->second.size(), 16u);
  // A rebuilt index is a fresh bundle, not the retired one.
  const EngineTable::HashIndex& rebuilt = t->GetOrBuildIntIndex(0);
  EXPECT_NE(&rebuilt, &index);
}

/// Every mutator retires the derived state, so the next index build and
/// the zone maps a pruned scan reads describe the rows after it.
enum class Mutation {
  kAppendRowStrings,
  kAppendRowValues,
  kSetValue,
  kDeleteRows,
  kTruncateRows,
  kReinsertRows,
};

class DerivedStateMutationTest : public ::testing::TestWithParam<Mutation> {};

TEST_P(DerivedStateMutationTest, RebuiltIndexesAndZoneMapsSeeTheNewRows) {
  // Row i holds key i, over three morsels. Each mutation adds or removes
  // one occurrence of `probe`; a kept index, or a kept zone map pruning
  // the probe's morsel, would still answer as before the mutation.
  Database db;
  ASSERT_TRUE(db.CreateTable("t", {{"k", ColumnType::kIdentifier}}).ok());
  EngineTable* t = db.FindTable("t");
  const int64_t rows = 2 * static_cast<int64_t>(kBatchRows) + 5;
  for (int64_t i = 0; i < rows; ++i) {
    ASSERT_TRUE(t->AppendRowStrings({std::to_string(i)}).ok());
  }
  int64_t probe = 0;
  std::function<void()> mutate;
  switch (GetParam()) {
    case Mutation::kAppendRowStrings:
      probe = rows;
      mutate = [&] {
        ASSERT_TRUE(t->AppendRowStrings({std::to_string(probe)}).ok());
      };
      break;
    case Mutation::kAppendRowValues:
      probe = rows + 1;
      mutate = [&] {
        ASSERT_TRUE(t->AppendRowValues({Value::Int(probe)}).ok());
      };
      break;
    case Mutation::kSetValue:
      probe = 9999;
      mutate = [&] { t->SetValue(5, 0, Value::Int(probe)); };
      break;
    case Mutation::kDeleteRows:
      probe = 3;
      mutate = [&] { EXPECT_EQ(t->DeleteRows({3}), 1); };
      break;
    case Mutation::kTruncateRows:
      probe = rows - 1;
      mutate = [&] { ASSERT_TRUE(t->TruncateRows(rows - 1).ok()); };
      break;
    case Mutation::kReinsertRows:
      probe = 3;
      ASSERT_EQ(t->DeleteRows({3}), 1);
      mutate = [&] {
        ASSERT_TRUE(t->ReinsertRows({3}, {{Value::Int(probe)}}).ok());
      };
      break;
  }
  auto index_hits = [&]() -> int64_t {
    const EngineTable::HashIndex& index = t->GetOrBuildIntIndex(0);
    auto hit = index.find(probe);
    return hit == index.end() ? 0 : static_cast<int64_t>(hit->second.size());
  };
  auto scan_hits = [&]() -> int64_t {
    ExecStats stats;
    Result<QueryResult> r = db.Query(
        "SELECT COUNT(*) FROM t WHERE k = " + std::to_string(probe),
        db.default_options(), &stats);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(stats.morsels_pruned, 0);
    return r.ok() ? r->rows[0][0].AsInt() : -1;
  };
  const int64_t before = index_hits();
  EXPECT_EQ(scan_hits(), before);
  EXPECT_EQ(t->IndexCount(), 1u);
  const size_t retired = t->RetiredDerivedCount();

  mutate();
  EXPECT_EQ(t->RetiredDerivedCount(), retired + 1);
  EXPECT_EQ(t->IndexCount(), 0u);
  const int64_t after = 1 - before;
  EXPECT_EQ(index_hits(), after);
  EXPECT_EQ(scan_hits(), after);
  const ZoneMap* zones = t->GetOrBuildZoneMap(0);
  ASSERT_NE(zones, nullptr);
  EXPECT_EQ(static_cast<int64_t>(zones->blocks.size()),
            (t->num_rows() + static_cast<int64_t>(kBatchRows) - 1) /
                static_cast<int64_t>(kBatchRows));
}

INSTANTIATE_TEST_SUITE_P(
    Mutators, DerivedStateMutationTest,
    ::testing::Values(Mutation::kAppendRowStrings, Mutation::kAppendRowValues,
                      Mutation::kSetValue, Mutation::kDeleteRows,
                      Mutation::kTruncateRows, Mutation::kReinsertRows),
    [](const ::testing::TestParamInfo<Mutation>& info) -> std::string {
      switch (info.param) {
        case Mutation::kAppendRowStrings:
          return "AppendRowStrings";
        case Mutation::kAppendRowValues:
          return "AppendRowValues";
        case Mutation::kSetValue:
          return "SetValue";
        case Mutation::kDeleteRows:
          return "DeleteRows";
        case Mutation::kTruncateRows:
          return "TruncateRows";
        case Mutation::kReinsertRows:
          return "ReinsertRows";
      }
      return "Unknown";
    });

TEST(DataFacadeTest, MaintenanceGenerationPublishesToProvider) {
  Database db;
  ASSERT_TRUE(db.CreateTpcdsTables().ok());
  GeneratorOptions gen;
  gen.scale_factor = 0.001;
  ASSERT_TRUE(db.LoadTpcdsData(gen).ok());
  DataFacadeProvider provider;
  provider.Publish(db.Snapshot());
  std::shared_ptr<const DataFacade> old_gen = provider.Acquire();
  uint64_t old_hash = HashFacadeContent(*old_gen);

  MaintenanceOptions dm;
  dm.scale_factor = 0.001;
  dm.dimension_updates = 5;
  MaintenanceReport report;
  Status st = RunMaintenanceGeneration(&db, dm, &report, nullptr, &provider);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(report.operations.size(), 12u);

  std::shared_ptr<const DataFacade> new_gen = provider.Acquire();
  EXPECT_EQ(new_gen->generation(), old_gen->generation() + 1);
  EXPECT_NE(HashFacadeContent(*new_gen), old_hash);
  // The pinned pre-swap generation is bit-for-bit what it was.
  EXPECT_EQ(HashFacadeContent(*old_gen), old_hash);
}

/// TSan target: N reader threads hammer QueryFacade while the main thread
/// publishes M copy-on-write generation swaps. Every row of generation k
/// carries marker k, so any query observing two generations at once (or
/// a generation that does not match its pinned facade) fails.
TEST(DataFacadeConcurrencyTest, ReadersSeeExactlyOneGenerationPerQuery) {
  constexpr int kReaders = 4;
  constexpr int kSwaps = 24;
  constexpr int64_t kRows = 64;

  Database db;
  BuildProbe(&db, kRows, 1);
  DataFacadeProvider provider;
  provider.Publish(db.Snapshot());

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::atomic<long long> queries_run{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&] {
      // do-while: even if the swapper finishes before this thread is
      // scheduled, every reader still runs at least one pinned query.
      do {
        std::shared_ptr<const DataFacade> facade = provider.Acquire();
        Result<QueryResult> r = QueryFacade(
            *facade, "SELECT MIN(g), MAX(g), COUNT(*) FROM probe",
            PlannerOptions{});
        if (!r.ok() || r->rows.size() != 1) {
          ++violations;
          continue;
        }
        int64_t min_g = r->rows[0][0].AsInt();
        int64_t max_g = r->rows[0][1].AsInt();
        int64_t count = r->rows[0][2].AsInt();
        // One generation, and exactly the one the facade is pinned to.
        if (min_g != max_g || count != kRows ||
            min_g != static_cast<int64_t>(facade->generation())) {
          ++violations;
        }
        ++queries_run;
      } while (!done.load(std::memory_order_acquire));
    });
  }

  for (int swap = 0; swap < kSwaps; ++swap) {
    Result<std::unique_ptr<Database>> fork = db.ForkForMaintenance({"probe"});
    ASSERT_TRUE(fork.ok()) << fork.status().ToString();
    EngineTable* t = (*fork)->FindTable("probe");
    int64_t marker = static_cast<int64_t>(db.generation()) + 1;
    for (int64_t r = 0; r < t->num_rows(); ++r) {
      t->SetValue(r, 0, Value::Int(marker));
    }
    ASSERT_TRUE(db.AdoptTablesFrom(fork->get()).ok());
    provider.Publish(db.Snapshot());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& th : readers) th.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(queries_run.load(), 0);
  EXPECT_EQ(provider.Acquire()->generation(),
            static_cast<uint64_t>(1 + kSwaps));
  EXPECT_EQ(provider.PublishCount(), 1 + kSwaps);
}

}  // namespace
}  // namespace tpcds
