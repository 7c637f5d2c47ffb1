// Chaos-harness tests: workload-profile determinism (identical seeds give
// identical bind sequences; Zipf skew matches the analytic CDF; session
// chains tighten IN-list predicates as strict prefixes), bit-reproducible
// fault triggers and time-phased chaos windows, and the full duty-cycle
// crash drill — kill the DM mid-generation under concurrent skewed
// streams, recover from checkpoint + WAL, and verify every standing
// invariant (balanced counters, drained pool, no lost queries, bounded
// retries, byte-identical recovery, clean constraint audit).

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "driver/drill.h"
#include "driver/profile.h"
#include "qgen/qgen.h"
#include "temp_path.h"
#include "templates/templates.h"
#include "util/fault.h"
#include "util/random.h"

namespace tpcds {
namespace {

namespace fs = std::filesystem;

// --- workload-profile determinism ----------------------------------------

std::vector<std::string> InstantiateSweep(const WorkloadProfile& profile,
                                          int streams, int length) {
  QueryGenerator qgen(19620718);
  const std::vector<QueryTemplate>& templates = AllTemplates();
  std::vector<std::string> sql;
  for (int s = 1; s <= streams; ++s) {
    std::vector<ProfileSlot> slots =
        qgen.ProfileSequence(s, templates, profile.bind, length);
    EXPECT_EQ(slots.size(), static_cast<size_t>(length));
    for (const ProfileSlot& slot : slots) {
      Result<std::string> one =
          qgen.Instantiate(templates[slot.template_index], s, 0,
                           &profile.bind, slot.chain_step);
      EXPECT_TRUE(one.ok()) << one.status().ToString();
      if (one.ok()) sql.push_back(*one);
    }
  }
  return sql;
}

TEST(ChaosProfileTest, IdenticalSeedsGiveIdenticalBindSequences) {
  Result<WorkloadProfile> profile =
      WorkloadProfile::Parse("hot-skew,chain=2");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  std::vector<std::string> first = InstantiateSweep(*profile, 4, 20);
  std::vector<std::string> second = InstantiateSweep(*profile, 4, 20);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "sweep diverged at statement " << i;
  }
}

TEST(ChaosProfileTest, SeedSaltChangesBindSequences) {
  Result<WorkloadProfile> base = WorkloadProfile::Preset("hot-skew");
  ASSERT_TRUE(base.ok());
  Result<WorkloadProfile> salted =
      WorkloadProfile::Parse("hot-skew,salt=7");
  ASSERT_TRUE(salted.ok());
  std::vector<std::string> a = InstantiateSweep(*base, 2, 10);
  std::vector<std::string> b = InstantiateSweep(*salted, 2, 10);
  ASSERT_EQ(a.size(), b.size());
  bool any_differs = false;
  for (size_t i = 0; i < a.size(); ++i) any_differs |= a[i] != b[i];
  EXPECT_TRUE(any_differs) << "salt=7 produced the identical sweep";
}

TEST(ChaosProfileTest, ZipfSkewMatchesAnalyticCdf) {
  // P(rank < 10 of 100) = (10/100)^(1-theta): ~0.631 at theta 0.8,
  // exactly 0.1 at theta 0 (uniform). 20k draws put the standard error
  // near 0.003, so +/-0.02 is a generous six-sigma band.
  constexpr int kDraws = 20000;
  RngStream skewed(42);
  int hot = 0;
  for (int i = 0; i < kDraws; ++i) {
    if (skewed.ZipfInt(100, 0.8) < 10) ++hot;
  }
  double hot_frac = static_cast<double>(hot) / kDraws;
  EXPECT_NEAR(hot_frac, 0.631, 0.02);

  RngStream uniform(42);
  int low = 0;
  for (int i = 0; i < kDraws; ++i) {
    if (uniform.ZipfInt(100, 0.0) < 10) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / kDraws, 0.10, 0.02);
}

TEST(ChaosProfileTest, UniformProfileIsByteIdenticalToClassicalPath) {
  QueryGenerator qgen(19620718);
  BindProfile uniform;  // all defaults
  for (const QueryTemplate& t : AllTemplates()) {
    Result<std::string> classical = qgen.Instantiate(t, 3);
    Result<std::string> profiled = qgen.Instantiate(t, 3, 0, &uniform, 0);
    ASSERT_TRUE(classical.ok()) << t.name;
    ASSERT_TRUE(profiled.ok()) << t.name;
    EXPECT_EQ(*classical, *profiled) << t.name;
  }
}

TEST(ChaosProfileTest, MixWeightsSkewClassCounts) {
  QueryGenerator qgen(19620718);
  const std::vector<QueryTemplate>& templates = AllTemplates();
  int class_total[3] = {0, 0, 0};
  for (const QueryTemplate& t : templates) {
    ++class_total[static_cast<int>(t.query_class)];
  }
  Result<WorkloadProfile> reporting = WorkloadProfile::Preset("reporting");
  ASSERT_TRUE(reporting.ok());
  int picked[3] = {0, 0, 0};
  constexpr int kLength = 300;
  for (int s = 1; s <= 4; ++s) {
    for (const ProfileSlot& slot :
         qgen.ProfileSequence(s, templates, reporting->bind, kLength)) {
      ++picked[static_cast<int>(
          templates[slot.template_index].query_class)];
    }
  }
  // Reporting templates are drawn 4x as often per unit weight; their
  // share of picks must exceed their share of the template catalog.
  double catalog_share =
      static_cast<double>(class_total[1]) / templates.size();
  double picked_share =
      static_cast<double>(picked[1]) / (4.0 * kLength);
  EXPECT_GT(picked_share, catalog_share + 0.10)
      << "reporting share " << picked_share << " vs catalog share "
      << catalog_share;
}

// Extracts the contents of the first "IN (...)" in the SQL.
std::string InListContents(const std::string& sql) {
  size_t at = sql.find(" IN (");
  if (at == std::string::npos) return "";
  size_t open = at + 5;
  size_t close = sql.find(')', open);
  if (close == std::string::npos) return "";
  return sql.substr(open, close - open);
}

TEST(ChaosProfileTest, SessionChainTightensInListAsStrictPrefix) {
  // q20 binds CATS = list(categories, 3): step 0 keeps all three picks,
  // each later step drops the last one (floor 1), so every step's
  // IN-list is a strict textual prefix of the step before it while all
  // scalar binds stay fixed.
  const QueryTemplate* q20 = FindTemplate(20);
  ASSERT_NE(q20, nullptr);
  QueryGenerator qgen(19620718);
  BindProfile bind;  // chain refinement is orthogonal to skew
  std::vector<std::string> lists;
  for (int step = 0; step < 3; ++step) {
    Result<std::string> sql = qgen.Instantiate(*q20, 2, 0, &bind, step);
    ASSERT_TRUE(sql.ok()) << sql.status().ToString();
    std::string in = InListContents(*sql);
    ASSERT_FALSE(in.empty()) << *sql;
    lists.push_back(in);
  }
  EXPECT_LT(lists[1].size(), lists[0].size());
  EXPECT_LT(lists[2].size(), lists[1].size());
  EXPECT_EQ(lists[0].compare(0, lists[1].size(), lists[1]), 0)
      << "step 1 is not a prefix of step 0";
  EXPECT_EQ(lists[1].compare(0, lists[2].size(), lists[2]), 0)
      << "step 2 is not a prefix of step 1";
}

// --- chaos schedule & trigger determinism --------------------------------

class ChaosScheduleTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Clear(); }
};

TEST_F(ChaosScheduleTest, ParseRoundTripsAndRejectsBadSpecs) {
  Result<ChaosSchedule> sched =
      ChaosSchedule::Parse("wal-append@50+200=nth:3,shed@0+500=every:2");
  ASSERT_TRUE(sched.ok()) << sched.status().ToString();
  ASSERT_EQ(sched->windows.size(), 2u);
  EXPECT_EQ(sched->windows[0].site, "wal-append");
  EXPECT_DOUBLE_EQ(sched->windows[0].start_ms, 50.0);
  EXPECT_DOUBLE_EQ(sched->windows[0].duration_ms, 200.0);
  EXPECT_EQ(sched->windows[0].trigger.kind, FaultTrigger::Kind::kNth);
  EXPECT_EQ(sched->windows[0].trigger.n, 3u);
  Result<ChaosSchedule> reparsed = ChaosSchedule::Parse(sched->ToString());
  ASSERT_TRUE(reparsed.ok()) << sched->ToString();
  EXPECT_EQ(reparsed->ToString(), sched->ToString());

  EXPECT_FALSE(ChaosSchedule::Parse("no-such-site@0+10=nth:1").ok());
  EXPECT_FALSE(ChaosSchedule::Parse("morsel+10=nth:1").ok());
  EXPECT_FALSE(ChaosSchedule::Parse("morsel@0+10=sometimes").ok());
}

std::vector<int> FiringPattern(const std::string& spec, const char* site,
                               int calls) {
  FaultInjector& injector = FaultInjector::Global();
  injector.Clear();
  EXPECT_TRUE(injector.Configure(spec).ok());
  std::vector<int> fired;
  for (int i = 0; i < calls; ++i) {
    if (!injector.Maybe(site).ok()) fired.push_back(i);
  }
  injector.Clear();
  return fired;
}

TEST_F(ChaosScheduleTest, ProbFiringSetIsBitReproducible) {
  std::vector<int> first = FiringPattern("morsel=prob:0.3", "morsel", 500);
  std::vector<int> again = FiringPattern("morsel=prob:0.3", "morsel", 500);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, again);

  // Bare prob derives its seed from the site, so two sites armed with
  // the same probability never fire in lockstep...
  std::vector<int> other = FiringPattern("alloc=prob:0.3", "alloc", 500);
  EXPECT_NE(first, other);

  // ...while an explicit seed pins the firing set regardless of site.
  std::vector<int> seeded_a =
      FiringPattern("morsel=prob:0.3:42", "morsel", 500);
  std::vector<int> seeded_b =
      FiringPattern("alloc=prob:0.3:42", "alloc", 500);
  EXPECT_EQ(seeded_a, seeded_b);
}

TEST_F(ChaosScheduleTest, WindowFiresDeterministicallyOnceStarted) {
  FaultInjector& injector = FaultInjector::Global();
  injector.Clear();
  Result<ChaosSchedule> sched =
      ChaosSchedule::Parse("morsel@0+60000=nth:3");
  ASSERT_TRUE(sched.ok());
  ASSERT_TRUE(injector.ArmSchedule(*sched).ok());

  // Dormant until the clock starts: no window may fire.
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(injector.Maybe("morsel").ok());
  EXPECT_EQ(injector.FiredAt("morsel"), 0);

  // Window call indices count from the first call observed inside the
  // window, so exactly the third post-start call fails.
  injector.StartScheduleClock();
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    if (!injector.Maybe("morsel").ok()) fired.push_back(i);
  }
  EXPECT_EQ(fired, std::vector<int>{2});
  EXPECT_EQ(injector.FiredAt("morsel"), 1);
  EXPECT_NE(injector.ScheduleReport().find("1 fired"), std::string::npos)
      << injector.ScheduleReport();
  injector.StopSchedule();
  EXPECT_TRUE(injector.Maybe("morsel").ok());
}

// --- the duty-cycle crash drill ------------------------------------------

std::string DrillScratch(const std::string& leaf) {
  std::string path = ProcessTempPath("chaos_test_" + leaf);
  fs::remove_all(path);
  fs::create_directories(path);
  return path;
}

BenchmarkConfig DrillBase(const std::string& scratch) {
  BenchmarkConfig base;
  base.scale_factor = 0.002;
  base.streams = 8;
  base.queries_per_stream = 3;
  base.service_worker_slots = 2;
  base.service_queue_depth = 6;
  base.service_priority_spread = 2;
  base.checkpoint_dir = scratch + "/ckpt";
  base.wal_path = scratch + "/drill.wal";
  return base;
}

TEST(ChaosDrillTest, DutyCycleCrashDrillRecoversWithInvariantsIntact) {
  std::string scratch = DrillScratch("crash_drill");
  DrillConfig config;
  config.base = DrillBase(scratch);
  Result<WorkloadProfile> profile =
      WorkloadProfile::Parse("hot-skew,chain=2,refresh_ms=15,refresh_cycles=2");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  config.base.profile = *profile;
  Result<ChaosSchedule> sched =
      ChaosSchedule::Parse("maintenance@0+60000=nth:2");
  ASSERT_TRUE(sched.ok());
  config.schedule = *sched;

  Result<DrillResult> drill = RunChaosDrill(config);
  FaultInjector::Global().Clear();
  ASSERT_TRUE(drill.ok()) << drill.status().ToString();

  // The fault window killed a DM generation mid-build...
  EXPECT_EQ(drill->refresh_cycles_attempted, 2);
  EXPECT_GE(drill->faults_fired, 1);
  // ...and every standing invariant still holds.
  EXPECT_TRUE(drill->counters_balanced) << drill->counters.ToString();
  EXPECT_TRUE(drill->pool_drained) << drill->counters.ToString();
  EXPECT_TRUE(drill->no_lost_queries)
      << drill->executions.size() << " of " << drill->queries_expected;
  EXPECT_TRUE(drill->retries_bounded);
  EXPECT_TRUE(drill->recovery_ran);
  EXPECT_TRUE(drill->recovery_verified)
      << "recovered state diverges from live state";
  EXPECT_TRUE(drill->audit_clean) << drill->failures.ToString();
  EXPECT_TRUE(drill->Passed()) << drill->ToString();
  fs::remove_all(scratch);
}

TEST(ChaosDrillTest, QuietDrillPassesWithNoFaults) {
  std::string scratch = DrillScratch("quiet_drill");
  DrillConfig config;
  config.base = DrillBase(scratch);
  config.base.streams = 4;

  Result<DrillResult> drill = RunChaosDrill(config);
  FaultInjector::Global().Clear();
  ASSERT_TRUE(drill.ok()) << drill.status().ToString();
  EXPECT_EQ(drill->faults_fired, 0);
  EXPECT_EQ(drill->refresh_cycles_failed, 0);
  EXPECT_EQ(drill->executions.size(),
            static_cast<size_t>(drill->queries_expected));
  EXPECT_TRUE(drill->Passed()) << drill->ToString();
  fs::remove_all(scratch);
}

TEST(ChaosDrillTest, DrillRequiresDurablePaths) {
  DrillConfig config;
  config.base.scale_factor = 0.002;
  config.base.checkpoint_dir.clear();
  config.base.wal_path.clear();
  EXPECT_FALSE(RunChaosDrill(config).ok());
}

}  // namespace
}  // namespace tpcds
