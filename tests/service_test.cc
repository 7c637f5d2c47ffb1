// Query-service admission-control tests: every submitted statement must
// resolve to exactly one disposition (completed / failed / shed /
// rejected-queue-full / rejected-deadline) — the no-lost-queries
// invariant — while the bounded queue applies backpressure, deadlines
// reject work that would rot in the queue, shedding displaces the newest
// lowest-priority waiter, and the global memory pool drains back to
// exactly zero. The hammer test at the bottom races 32 sessions against
// mid-run generation swaps and is part of the TSan/ASan suites.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/data_facade.h"
#include "engine/database.h"
#include "service/service.h"
#include "util/fault.h"

namespace tpcds {
namespace {

/// Leaves the global fault injector disarmed after every test.
class ServiceTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Clear(); }
};

void BuildSmallTable(Database* db, const std::string& name, int64_t rows) {
  ASSERT_TRUE(db->CreateTable(name, {{"k", ColumnType::kInteger},
                                     {"grp", ColumnType::kInteger},
                                     {"txt", ColumnType::kVarchar}})
                  .ok());
  EngineTable* t = db->FindTable(name);
  for (int64_t i = 0; i < rows; ++i) {
    ASSERT_TRUE(t->AppendRowStrings({std::to_string(i),
                                     std::to_string(i % 7),
                                     "txt-" + std::to_string(i % 5)})
                    .ok());
  }
}

/// A gate the on_execute hook blocks on: holds worker slots occupied so
/// admission states (queued, queue-full, shed) become deterministic.
class Gate {
 public:
  void Block() {
    std::unique_lock<std::mutex> lock(mu_);
    ++blocked_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }
  void WaitForBlocked(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return blocked_ >= n; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int blocked_ = 0;
  bool open_ = false;
};

/// Options of a session for `tenant`, other fields at their defaults.
SessionOptions Tenant(const std::string& tenant, int priority = 0,
                      double deadline_ms = 0.0) {
  SessionOptions options;
  options.tenant = tenant;
  options.priority = priority;
  options.deadline_ms = deadline_ms;
  return options;
}

void ExpectBalanced(const ServiceCounters& c) {
  EXPECT_TRUE(c.Balanced()) << c.ToString();
}

TEST_F(ServiceTest, CompletesConcurrentStatementsFromManySessions) {
  Database db;
  BuildSmallTable(&db, "t", 2000);
  ServiceConfig config;
  config.worker_slots = 3;
  QueryService service(config, db);
  std::vector<std::thread> clients;
  std::atomic<int> completed{0};
  for (int s = 0; s < 6; ++s) {
    clients.emplace_back([&service, &completed, s] {
      Session session =
          service.OpenSession(Tenant("tenant-" + std::to_string(s)));
      for (int q = 0; q < 4; ++q) {
        QueryOutcome out =
            session.Execute("SELECT grp, COUNT(*) FROM t GROUP BY grp");
        if (out.disposition == QueryDisposition::kCompleted) {
          EXPECT_EQ(out.result.rows.size(), 7u);
          EXPECT_GT(out.generation, 0u);
          ++completed;
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(completed.load(), 24);
  ServiceCounters counters = service.Counters();
  ExpectBalanced(counters);
  EXPECT_EQ(counters.submitted, 24);
  EXPECT_EQ(counters.completed, 24);
  EXPECT_LE(counters.peak_running, 3);
  EXPECT_EQ(service.CompletedLatenciesMs().size(), 24u);
}

TEST_F(ServiceTest, QueueFullAppliesBackpressureToEqualPriority) {
  Database db;
  BuildSmallTable(&db, "t", 100);
  Gate gate;
  ServiceConfig config;
  config.worker_slots = 1;
  config.max_queue_depth = 1;
  config.on_execute = [&](const std::string&, int) { gate.Block(); };
  QueryService service(config, db);
  Session session = service.OpenSession();
  QueryTicket running = session.Submit("SELECT COUNT(*) FROM t");
  gate.WaitForBlocked(1);
  QueryTicket queued = session.Submit("SELECT COUNT(*) FROM t");
  // Same priority cannot displace the waiter: backpressure instead.
  QueryTicket rejected = session.Submit("SELECT COUNT(*) FROM t");
  const QueryOutcome& out = rejected.Wait();
  EXPECT_EQ(out.disposition, QueryDisposition::kRejectedQueueFull);
  EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(out.status.message().find("backpressure"), std::string::npos);
  gate.Open();
  EXPECT_EQ(running.Wait().disposition, QueryDisposition::kCompleted);
  EXPECT_EQ(queued.Wait().disposition, QueryDisposition::kCompleted);
  EXPECT_TRUE(queued.Wait().waited_in_queue);
  ServiceCounters counters = service.Counters();
  ExpectBalanced(counters);
  EXPECT_EQ(counters.rejected_queue_full, 1);
  EXPECT_EQ(counters.peak_running, 1);
}

TEST_F(ServiceTest, OverloadShedsNewestLowestPriorityWaiterFirst) {
  Database db;
  BuildSmallTable(&db, "t", 100);
  Gate gate;
  std::mutex order_mu;
  std::vector<int> execution_priorities;
  ServiceConfig config;
  config.worker_slots = 1;
  config.max_queue_depth = 2;
  config.on_execute = [&](const std::string&, int priority) {
    {
      std::lock_guard<std::mutex> lock(order_mu);
      execution_priorities.push_back(priority);
    }
    gate.Block();
  };
  QueryService service(config, db);
  Session low = service.OpenSession(Tenant("low", /*priority=*/0));
  Session high = service.OpenSession(Tenant("high", /*priority=*/5));
  QueryTicket a = low.Submit("SELECT COUNT(*) FROM t");  // occupies the slot
  gate.WaitForBlocked(1);
  QueryTicket b = low.Submit("SELECT COUNT(*) FROM t");  // queued, oldest
  QueryTicket c = low.Submit("SELECT COUNT(*) FROM t");  // queued, newest
  // Queue is now full. High-priority work displaces the NEWEST
  // lowest-priority waiter: c is shed, b survives.
  QueryTicket d = high.Submit("SELECT COUNT(*) FROM t");
  const QueryOutcome& shed = c.Wait();
  EXPECT_EQ(shed.disposition, QueryDisposition::kShed);
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.status.message().find("shed under overload"),
            std::string::npos);
  EXPECT_TRUE(shed.waited_in_queue);
  gate.Open();
  EXPECT_EQ(a.Wait().disposition, QueryDisposition::kCompleted);
  EXPECT_EQ(b.Wait().disposition, QueryDisposition::kCompleted);
  EXPECT_EQ(d.Wait().disposition, QueryDisposition::kCompleted);
  // The surviving queue drains priority-first: a (already running), then
  // d (priority 5), then b (priority 0).
  EXPECT_EQ(execution_priorities, (std::vector<int>{0, 5, 0}));
  ServiceCounters counters = service.Counters();
  ExpectBalanced(counters);
  EXPECT_EQ(counters.shed, 1);
  EXPECT_EQ(counters.completed, 3);
}

TEST_F(ServiceTest, DeadlineExpiresInQueueWithoutBurningASlot) {
  Database db;
  BuildSmallTable(&db, "t", 100);
  Gate gate;
  ServiceConfig config;
  config.worker_slots = 1;
  config.on_execute = [&](const std::string& sql, int) {
    if (sql.find("grp") != std::string::npos) gate.Block();
  };
  QueryService service(config, db);
  Session session = service.OpenSession();
  QueryTicket running = session.Submit("SELECT grp FROM t");
  gate.WaitForBlocked(1);
  Session hurried =
      service.OpenSession(Tenant("hurried", 0, /*deadline_ms=*/20.0));
  QueryTicket doomed = hurried.Submit("SELECT COUNT(*) FROM t");
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  gate.Open();
  const QueryOutcome& out = doomed.Wait();
  EXPECT_EQ(out.disposition, QueryDisposition::kRejectedDeadline);
  EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(out.status.message().find("deadline expired"),
            std::string::npos);
  EXPECT_TRUE(out.waited_in_queue);
  EXPECT_GE(out.queue_ms, 20.0);
  EXPECT_EQ(running.Wait().disposition, QueryDisposition::kCompleted);
  ServiceCounters counters = service.Counters();
  ExpectBalanced(counters);
  EXPECT_EQ(counters.rejected_deadline, 1);
}

TEST_F(ServiceTest, PredictedDeadlineMissIsRejectedAtSubmit) {
  Database db;
  BuildSmallTable(&db, "t", 100);
  Gate gate;
  ServiceConfig config;
  config.worker_slots = 1;
  config.on_execute = [&](const std::string& sql, int) {
    if (sql.find("grp") != std::string::npos) {
      gate.Block();
    } else {
      // Make the execution-time EMA large relative to the deadline below.
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
  };
  QueryService service(config, db);
  Session session = service.OpenSession();
  // Seed the EMA with one slow completion.
  EXPECT_EQ(session.Execute("SELECT COUNT(*) FROM t").disposition,
            QueryDisposition::kCompleted);
  QueryTicket running = session.Submit("SELECT grp FROM t");
  gate.WaitForBlocked(1);
  // Every slot is busy and the estimated wait (~30 ms EMA) already blows
  // the 1 ms deadline: reject at submit instead of queueing a dead query.
  Session hurried =
      service.OpenSession(Tenant("hurried", 0, /*deadline_ms=*/1.0));
  QueryTicket doomed = hurried.Submit("SELECT COUNT(*) FROM t");
  const QueryOutcome& out = doomed.Wait();
  EXPECT_EQ(out.disposition, QueryDisposition::kRejectedDeadline);
  EXPECT_NE(out.status.message().find("would miss"), std::string::npos);
  EXPECT_FALSE(out.waited_in_queue);
  gate.Open();
  EXPECT_EQ(running.Wait().disposition, QueryDisposition::kCompleted);
  ExpectBalanced(service.Counters());
}

TEST_F(ServiceTest, CancelResolvesQueuedStatementWithoutRunningIt) {
  Database db;
  BuildSmallTable(&db, "t", 100);
  Gate gate;
  std::atomic<int> executed{0};
  ServiceConfig config;
  config.worker_slots = 1;
  config.on_execute = [&](const std::string&, int) {
    ++executed;
    gate.Block();
  };
  QueryService service(config, db);
  Session session = service.OpenSession();
  QueryTicket running = session.Submit("SELECT COUNT(*) FROM t");
  gate.WaitForBlocked(1);
  QueryTicket queued = session.Submit("SELECT COUNT(*) FROM t");
  queued.Cancel("caller gave up");
  const QueryOutcome& out = queued.Wait();
  EXPECT_EQ(out.disposition, QueryDisposition::kFailed);
  EXPECT_EQ(out.status.code(), StatusCode::kCancelled);
  gate.Open();
  EXPECT_EQ(running.Wait().disposition, QueryDisposition::kCompleted);
  EXPECT_EQ(executed.load(), 1);  // the cancelled statement never ran
  ExpectBalanced(service.Counters());
}

TEST_F(ServiceTest, ShutdownShedsQueuedStatementsAndFinishesRunningOnes) {
  Database db;
  BuildSmallTable(&db, "t", 100);
  Gate gate;
  ServiceConfig config;
  config.worker_slots = 1;
  config.on_execute = [&](const std::string&, int) { gate.Block(); };
  auto service = std::make_unique<QueryService>(config, db);
  Session session = service->OpenSession();
  QueryTicket running = session.Submit("SELECT COUNT(*) FROM t");
  gate.WaitForBlocked(1);
  QueryTicket q1 = session.Submit("SELECT COUNT(*) FROM t");
  QueryTicket q2 = session.Submit("SELECT COUNT(*) FROM t");
  std::thread destroyer([&] { service.reset(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Open();
  destroyer.join();
  // Admitted work finished; queued work was shed — nothing lost.
  EXPECT_EQ(running.Wait().disposition, QueryDisposition::kCompleted);
  for (const QueryTicket& t : {q1, q2}) {
    const QueryOutcome& out = t.Wait();
    EXPECT_EQ(out.disposition, QueryDisposition::kShed);
    EXPECT_NE(out.status.message().find("shutting down"),
              std::string::npos);
  }
}

TEST_F(ServiceTest, AdmitFaultSiteResolvesTheSubmitWithTheInjectedError) {
  Database db;
  BuildSmallTable(&db, "t", 100);
  ServiceConfig config;
  config.worker_slots = 2;
  QueryService service(config, db);
  Session session = service.OpenSession();
  ASSERT_TRUE(FaultInjector::Global().Configure("admit=nth:2").ok());
  EXPECT_EQ(session.Execute("SELECT COUNT(*) FROM t").disposition,
            QueryDisposition::kCompleted);
  QueryOutcome faulted = session.Execute("SELECT COUNT(*) FROM t");
  EXPECT_EQ(faulted.disposition, QueryDisposition::kFailed);
  EXPECT_NE(faulted.status.message().find("injected fault"),
            std::string::npos);
  EXPECT_EQ(session.Execute("SELECT COUNT(*) FROM t").disposition,
            QueryDisposition::kCompleted);
  ServiceCounters counters = service.Counters();
  ExpectBalanced(counters);
  EXPECT_EQ(counters.failed, 1);
  EXPECT_EQ(counters.completed, 2);
}

TEST_F(ServiceTest, ShedFaultMakesSheddingUnavailableNotLossy) {
  Database db;
  BuildSmallTable(&db, "t", 100);
  Gate gate;
  ServiceConfig config;
  config.worker_slots = 1;
  config.max_queue_depth = 1;
  config.on_execute = [&](const std::string&, int) { gate.Block(); };
  QueryService service(config, db);
  Session low = service.OpenSession(Tenant("low", /*priority=*/0));
  Session high = service.OpenSession(Tenant("high", /*priority=*/5));
  QueryTicket running = low.Submit("SELECT COUNT(*) FROM t");
  gate.WaitForBlocked(1);
  QueryTicket waiter = low.Submit("SELECT COUNT(*) FROM t");
  // The shed fault fires at the displacement point: the victim survives
  // and the incoming statement gets backpressure instead — both still
  // resolve exactly once.
  ASSERT_TRUE(FaultInjector::Global().Configure("shed=nth:1").ok());
  QueryTicket incoming = high.Submit("SELECT COUNT(*) FROM t");
  const QueryOutcome& out = incoming.Wait();
  EXPECT_EQ(out.disposition, QueryDisposition::kRejectedQueueFull);
  EXPECT_NE(out.status.message().find("shedding unavailable"),
            std::string::npos);
  gate.Open();
  EXPECT_EQ(running.Wait().disposition, QueryDisposition::kCompleted);
  EXPECT_EQ(waiter.Wait().disposition, QueryDisposition::kCompleted);
  ServiceCounters counters = service.Counters();
  ExpectBalanced(counters);
  EXPECT_EQ(counters.shed, 0);
  EXPECT_EQ(counters.rejected_queue_full, 1);
}

TEST_F(ServiceTest, GlobalMemoryPoolExhaustionFailsCleanlyAndDrains) {
  Database db;
  BuildSmallTable(&db, "fact", 20000);
  BuildSmallTable(&db, "dim", 20000);
  BuildSmallTable(&db, "tiny", 100);
  ServiceConfig config;
  config.worker_slots = 2;
  // Holds the join's early key reservations but far below the build
  // side's total, so the shared pool must trip mid-build.
  config.global_memory_budget_bytes = 128 * 1024;
  // A huge per-query budget keeps the executor's tracking path on while
  // only the shared pool can trip.
  config.default_limits.memory_budget_bytes = 1LL << 40;
  QueryService service(config, db);
  Session session = service.OpenSession();
  QueryOutcome big = session.Execute(
      "SELECT COUNT(*) FROM fact, dim WHERE fact.k = dim.k");
  EXPECT_EQ(big.disposition, QueryDisposition::kFailed);
  EXPECT_EQ(big.status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(big.status.message().find("global memory pool exhausted"),
            std::string::npos);
  // A query under the pool cap still completes...
  EXPECT_EQ(session.Execute("SELECT COUNT(*) FROM tiny").disposition,
            QueryDisposition::kCompleted);
  // ...and after the mix of outcomes the pool reads exactly zero.
  ServiceCounters counters = service.Counters();
  ExpectBalanced(counters);
  EXPECT_EQ(counters.pool_bytes_in_use, 0);
  EXPECT_GT(counters.pool_peak_bytes, 0);
  EXPECT_EQ(service.memory_pool().used(), 0);
}

// The overload hammer: 32 sessions with mixed priorities and deadlines
// storm a 2-slot service with a bounded queue while another thread
// hot-swaps dataset generations underneath them. Asserts the full
// robustness contract — every submit resolves exactly once, the counters
// balance, admitted queries pin exactly one published generation, and the
// global memory pool drains to zero. Runs under TSan/ASan via
// scripts/check_tsan.sh.
TEST_F(ServiceTest, HammerNoQueryLostAcrossGenerationSwaps) {
  Database db;
  BuildSmallTable(&db, "t", 4000);
  DataFacadeProvider provider;
  provider.Publish(db.Snapshot());
  ServiceConfig config;
  config.worker_slots = 2;
  config.max_queue_depth = 8;
  config.global_memory_budget_bytes = 1LL << 30;
  config.default_limits.memory_budget_bytes = 1LL << 40;
  constexpr int kSessions = 32;
  constexpr int kStatementsPerSession = 6;
  std::atomic<int64_t> resolutions{0};
  {
    QueryService service(config, &provider);
    std::atomic<bool> stop_swapping{false};
    std::thread swapper([&] {
      while (!stop_swapping.load(std::memory_order_relaxed)) {
        provider.Publish(db.Snapshot());
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
    std::vector<std::thread> clients;
    for (int s = 0; s < kSessions; ++s) {
      clients.emplace_back([&, s] {
        SessionOptions options;
        options.tenant = "hammer-" + std::to_string(s);
        options.priority = s % 3;
        if (s % 4 == 0) options.deadline_ms = 50.0;
        Session session = service.OpenSession(options);
        for (int q = 0; q < kStatementsPerSession; ++q) {
          QueryOutcome out = session.Execute(
              q % 2 == 0 ? "SELECT grp, COUNT(*) FROM t GROUP BY grp"
                         : "SELECT COUNT(*) FROM t WHERE k < 2000");
          switch (out.disposition) {
            case QueryDisposition::kCompleted:
              EXPECT_TRUE(out.status.ok());
              EXPECT_GT(out.generation, 0u);
              break;
            case QueryDisposition::kFailed:
            case QueryDisposition::kShed:
            case QueryDisposition::kRejectedQueueFull:
            case QueryDisposition::kRejectedDeadline:
              EXPECT_FALSE(out.status.ok());
              break;
          }
          ++resolutions;
        }
      });
    }
    for (std::thread& c : clients) c.join();
    stop_swapping.store(true, std::memory_order_relaxed);
    swapper.join();
    ServiceCounters counters = service.Counters();
    ExpectBalanced(counters);
    EXPECT_EQ(counters.submitted, kSessions * kStatementsPerSession);
    EXPECT_EQ(resolutions.load(), kSessions * kStatementsPerSession);
    EXPECT_LE(counters.peak_running, 2);
    EXPECT_EQ(counters.pool_bytes_in_use, 0);
    EXPECT_EQ(service.memory_pool().used(), 0);
  }
}

}  // namespace
}  // namespace tpcds
