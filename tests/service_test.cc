// Query-service tests: multi-session stress (mixed GROUP BY / ORDER BY /
// PARTITION BY) asserting results identical to serial execution, plan-cache
// hit-rate on repeated queries, admission-control bounds, the shared
// calibration singleton, environment overrides, and the metrics registry.
//
// Determinism notes: the service runs with rho = 0 (the "N/S" exhaustive
// search — no wall-clock stopwatch), so every session picks the same plan.
// The parallel sort is not stable, so oids may permute within tied keys;
// the comparison therefore checks everything Lemma 1 fixes exactly —
// group bounds, the sorted key sequence of every sort column, aggregate
// values, and the per-row rank map — all with exact equality.
#include "mcsort/service/query_service.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "mcsort/common/random.h"
#include "mcsort/cost/calibration.h"
#include "mcsort/service/metrics.h"

namespace mcsort {
namespace {

Table RandomTable(size_t n, uint64_t seed) {
  Rng rng(seed);
  Table table;
  EncodedColumn a(6, n), b(11, n), c(19, n), m(10, n);
  for (size_t r = 0; r < n; ++r) {
    a.Set(r, rng.NextBounded(20));
    b.Set(r, rng.NextBounded(500));
    c.Set(r, rng.NextBounded(100000));
    m.Set(r, rng.NextBounded(1000));
  }
  table.AddColumn("a", std::move(a));
  table.AddColumn("b", std::move(b));
  table.AddColumn("c", std::move(c));
  table.AddColumn("m", std::move(m));
  return table;
}

// The mixed workload every stress session runs.
std::vector<QuerySpec> StressSpecs() {
  return {
      QuerySpecBuilder().GroupBy({"a", "b"}).Sum("m").Count().Build(),
      QuerySpecBuilder()
          .OrderBy("a")
          .OrderBy("b", SortOrder::kDescending)
          .OrderBy("c")
          .Build(),
      QuerySpecBuilder().PartitionBy({"a", "b"}).WindowOrder("m").Build(),
      // Unique tie-breaker ("a" is the group key) keeps the order total.
      QuerySpecBuilder()
          .GroupBy({"a"})
          .Count()
          .ResultOrder("agg:0", SortOrder::kDescending)
          .ResultOrder("a")
          .Build(),
      QuerySpecBuilder()
          .Filter("c", CompareOp::kLess, 30000)
          .GroupBy({"a", "b"})
          .Sum("m")
          .Build(),
  };
}

// Exact equality on everything a valid plan determines (Lemma 1). Oids may
// permute within tied keys (the parallel sort is not stable), so rows are
// compared via the keys they carry, and ranks via a per-oid map.
void ExpectEquivalent(const Table& table, const QuerySpec& spec,
                      const QueryResult& got, const QueryResult& want,
                      const std::string& label) {
  EXPECT_EQ(got.input_rows, want.input_rows) << label;
  EXPECT_EQ(got.filtered_rows, want.filtered_rows) << label;
  EXPECT_EQ(got.num_groups, want.num_groups) << label;
  EXPECT_EQ(got.sort_profile.groups.bounds, want.sort_profile.groups.bounds)
      << label;
  EXPECT_EQ(got.aggregate_values, want.aggregate_values) << label;
  EXPECT_EQ(got.result_group_order, want.result_group_order) << label;

  // Sorted key sequences: every sort attribute, row by row.
  std::vector<std::string> attrs = spec.group_by;
  for (const auto& [name, order] : spec.order_by) attrs.push_back(name);
  for (const auto& name : spec.partition_by) attrs.push_back(name);
  if (!spec.window_order_column.empty()) {
    attrs.push_back(spec.window_order_column);
  }
  ASSERT_EQ(got.result_oids.size(), want.result_oids.size()) << label;
  for (const std::string& name : attrs) {
    const EncodedColumn& col = table.column(name);
    for (size_t r = 0; r < got.result_oids.size(); ++r) {
      ASSERT_EQ(col.Get(got.result_oids[r]), col.Get(want.result_oids[r]))
          << label << " attr=" << name << " row=" << r;
    }
  }
  // Ranks keyed by base-table oid.
  ASSERT_EQ(got.ranks.size(), want.ranks.size()) << label;
  if (!got.ranks.empty()) {
    std::vector<uint32_t> got_by_oid(table.row_count(), 0);
    std::vector<uint32_t> want_by_oid(table.row_count(), 0);
    for (size_t r = 0; r < got.ranks.size(); ++r) {
      got_by_oid[got.result_oids[r]] = got.ranks[r];
      want_by_oid[want.result_oids[r]] = want.ranks[r];
    }
    EXPECT_EQ(got_by_oid, want_by_oid) << label;
  }
}

TEST(QueryServiceTest, MultiSessionStressMatchesSerialExecution) {
  const Table table = RandomTable(30000, 91);
  const std::vector<QuerySpec> specs = StressSpecs();

  // Serial reference: no pool, same exhaustive (rho = 0) plan search.
  ExecutorOptions serial;
  serial.rho = 0;
  QueryExecutor reference(table, serial);
  std::vector<QueryResult> expected;
  expected.reserve(specs.size());
  for (const QuerySpec& spec : specs) {
    expected.push_back(
        reference.Execute(spec, ExecContext::Default()).result);
  }

  ServiceOptions options;
  options.threads = 4;
  options.rho = 0;
  options.admission.max_inflight = 3;
  QueryService service(options);

  constexpr int kSessions = 4;
  constexpr int kIters = 3;
  std::vector<std::thread> clients;
  clients.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    clients.emplace_back([&, s] {
      auto session = service.OpenSession(table);
      for (int iter = 0; iter < kIters; ++iter) {
        for (size_t i = 0; i < specs.size(); ++i) {
          const ExecResult run =
              session->Execute(specs[i], ExecContext::Default());
          ASSERT_TRUE(run.ok());
          const QueryResult& result = run.result;
          char label[64];
          std::snprintf(label, sizeof(label), "session=%d iter=%d spec=%zu",
                        s, iter, i);
          ExpectEquivalent(table, specs[i], result, expected[i], label);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // Every query consulted the cache; only first encounters missed. Several
  // sessions may race the same cold signature, so the miss bound is
  // sessions * distinct-signatures, not distinct-signatures.
  const PlanCache::Stats cache = service.plan_cache().GetStats();
  const uint64_t lookups = uint64_t{kSessions} * kIters * specs.size();
  EXPECT_EQ(cache.hits + cache.misses + cache.stale_hits, lookups);
  EXPECT_EQ(cache.stale_hits, 0u);  // statistics never drift mid-test
  EXPECT_LE(cache.misses, uint64_t{kSessions} * specs.size());
  EXPECT_GE(cache.hits, lookups - uint64_t{kSessions} * specs.size());

  const AdmissionController::Stats admission = service.admission().GetStats();
  EXPECT_EQ(admission.admitted_total, lookups);
  EXPECT_LE(admission.peak_inflight, 3);
  EXPECT_EQ(admission.inflight, 0);
  EXPECT_EQ(admission.queue_depth, 0);

  EXPECT_EQ(service.metrics().counter("service.queries_served")->value(),
            lookups);
}

TEST(QueryServiceTest, RepeatedQueryHitsPlanCache) {
  const Table table = RandomTable(20000, 92);
  ServiceOptions options;
  options.threads = 2;
  QueryService service(options);
  auto session = service.OpenSession(table);

  const QuerySpec spec =
      QuerySpecBuilder().GroupBy({"a", "b", "c"}).Sum("m").Build();

  constexpr int kRuns = 20;
  for (int run = 0; run < kRuns; ++run) {
    const ExecResult exec = session->Execute(spec, ExecContext::Default());
    ASSERT_TRUE(exec.ok());
    const QueryResult& result = exec.result;
    EXPECT_EQ(session->last_plan_cached(), run > 0) << "run " << run;
    if (run > 0) {
      // Exact reuse skips ROGA entirely.
      EXPECT_EQ(result.plan_seconds, 0.0) << "run " << run;
    }
  }
  const PlanCache::Stats cache = service.plan_cache().GetStats();
  EXPECT_EQ(cache.hits, uint64_t{kRuns - 1});
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_GE(cache.hit_rate(), 0.9);  // the acceptance threshold
}

TEST(QueryServiceTest, MassageDisabledBypassesCache) {
  const Table table = RandomTable(5000, 93);
  ServiceOptions options;
  options.use_massage = false;
  QueryService service(options);
  auto session = service.OpenSession(table);
  const QuerySpec spec =
      QuerySpecBuilder().GroupBy({"a", "b"}).Count().Build();
  const ExecResult run = session->Execute(spec, ExecContext::Default());
  ASSERT_TRUE(run.ok());
  const QueryResult& result = run.result;
  EXPECT_GT(result.num_groups, 0u);
  EXPECT_FALSE(session->last_plan_cached());
  const PlanCache::Stats cache = service.plan_cache().GetStats();
  EXPECT_EQ(cache.hits + cache.misses + cache.stale_hits, 0u);
}

TEST(QueryServiceTest, DumpMetricsExposesCacheAdmissionAndLatency) {
  const Table table = RandomTable(5000, 94);
  QueryService service(ServiceOptions{});
  auto session = service.OpenSession(table);
  const QuerySpec spec = QuerySpecBuilder().GroupBy({"a"}).Count().Build();
  session->Execute(spec, ExecContext::Default());
  session->Execute(spec, ExecContext::Default());

  const std::string dump = service.DumpMetrics();
  for (const char* key :
       {"service.queries_served 2", "plan_cache.hits 1",
        "plan_cache.misses 1", "plan_cache.hit_rate 0.5",
        "admission.admitted_total 2", "query.total_seconds count=2",
        "query.mcs_seconds", "admission.wait_seconds"}) {
    EXPECT_NE(dump.find(key), std::string::npos)
        << "missing \"" << key << "\" in dump:\n" << dump;
  }
}

TEST(QueryServiceTest, EstimateScratchBytesGrowsWithAttrs) {
  const Table table = RandomTable(1000, 95);
  QueryExecutor executor(table, {});
  const QuerySpec two = QuerySpecBuilder().GroupBy({"a", "b"}).Build();
  const QuerySpec three =
      QuerySpecBuilder().GroupBy({"a", "b", "c"}).Build();
  const size_t bytes2 =
      EstimateScratchBytes(table, executor.ResolveSortAttrs(two));
  const size_t bytes3 =
      EstimateScratchBytes(table, executor.ResolveSortAttrs(three));
  EXPECT_GT(bytes2, 0u);
  EXPECT_GT(bytes3, bytes2);
}

// --------------------------------------------------------------------------
// Admission control
// --------------------------------------------------------------------------

TEST(AdmissionControllerTest, BoundsConcurrentAdmissions) {
  AdmissionOptions options;
  options.max_inflight = 2;
  AdmissionController controller(options);

  std::atomic<int> running{0};
  std::atomic<int> observed_peak{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      AdmissionController::Ticket ticket = controller.Admit(1000);
      const int now = running.fetch_add(1, std::memory_order_acq_rel) + 1;
      int peak = observed_peak.load(std::memory_order_relaxed);
      while (now > peak &&
             !observed_peak.compare_exchange_weak(peak, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      running.fetch_sub(1, std::memory_order_acq_rel);
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_LE(observed_peak.load(), 2);
  const AdmissionController::Stats stats = controller.GetStats();
  EXPECT_EQ(stats.admitted_total, 8u);
  EXPECT_LE(stats.peak_inflight, 2);
  EXPECT_GE(stats.peak_queue_depth, 1);
  EXPECT_EQ(stats.inflight, 0);
  EXPECT_EQ(stats.inflight_bytes, 0u);
  EXPECT_EQ(stats.queue_depth, 0);
}

TEST(AdmissionControllerTest, OversizedQueryAdmittedOnlyWhenAlone) {
  AdmissionOptions options;
  options.max_inflight = 4;
  options.memory_budget_bytes = 100;
  AdmissionController controller(options);

  {
    // Alone, an estimate beyond the whole budget is still admitted (the
    // budget is soft; otherwise the query could never run).
    AdmissionController::Ticket big = controller.Admit(500);
    EXPECT_TRUE(big.admitted());
  }

  // With a small ticket in flight, the oversized one must wait for it.
  AdmissionController::Ticket small = controller.Admit(50);
  std::atomic<bool> big_admitted{false};
  std::thread waiter([&] {
    AdmissionController::Ticket big = controller.Admit(500);
    big_admitted.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(big_admitted.load(std::memory_order_acquire));
  small.Release();
  waiter.join();
  EXPECT_TRUE(big_admitted.load(std::memory_order_acquire));
}

TEST(AdmissionControllerTest, WithinBudgetQueriesOverlap) {
  AdmissionOptions options;
  options.max_inflight = 4;
  options.memory_budget_bytes = 100;
  AdmissionController controller(options);
  AdmissionController::Ticket t1 = controller.Admit(40);
  AdmissionController::Ticket t2 = controller.Admit(40);  // 80 <= 100: no wait
  EXPECT_TRUE(t1.admitted());
  EXPECT_TRUE(t2.admitted());
  EXPECT_EQ(controller.GetStats().inflight, 2);
}

TEST(AdmissionControllerTest, CancelledWaiterAbandonsWithoutBlockingQueue) {
  // Regression: the FIFO used to be a strict served-ticket counter, so a
  // waiter that gave up (cancelled mid-queue) would wedge everyone behind
  // it. The wait set must hand headship to the next arrival instead.
  AdmissionOptions options;
  options.max_inflight = 1;
  AdmissionController controller(options);

  AdmissionController::Ticket holder = controller.Admit(10);
  ASSERT_TRUE(holder.admitted());

  CancellationSource cancel;
  ExecContext cancelled_ctx;
  cancelled_ctx.WithToken(cancel.token());
  cancel.Cancel();  // already stopped: the wait must abandon promptly
  AdmissionController::Ticket abandoned =
      controller.Admit(10, cancelled_ctx);
  EXPECT_FALSE(abandoned.admitted());
  EXPECT_EQ(abandoned.status().code, StatusCode::kCancelled);

  // The queue behind the abandoned waiter still drains.
  std::atomic<bool> late_admitted{false};
  std::thread late([&] {
    AdmissionController::Ticket ticket = controller.Admit(10);
    late_admitted.store(ticket.admitted(), std::memory_order_release);
  });
  holder.Release();
  late.join();
  EXPECT_TRUE(late_admitted.load(std::memory_order_acquire));
  const AdmissionController::Stats stats = controller.GetStats();
  EXPECT_EQ(stats.abandoned_total, 1u);
  EXPECT_EQ(stats.queue_depth, 0);
}

TEST(AdmissionControllerTest, DeadlineExpiredWaiterAbandons) {
  AdmissionOptions options;
  options.max_inflight = 1;
  AdmissionController controller(options);
  AdmissionController::Ticket holder = controller.Admit(10);

  ExecContext ctx;
  ctx.WithDeadlineAfter(0.01);
  AdmissionController::Ticket ticket = controller.Admit(10, ctx);
  EXPECT_FALSE(ticket.admitted());
  EXPECT_EQ(ticket.status().code, StatusCode::kDeadlineExceeded);
}

TEST(QueryServiceTest, TicketReleasedWhenExecutionFails) {
  // Regression for the error-path leak: an execution that unwinds with a
  // non-ok status must still free its admission slot (RAII ticket), or the
  // service wedges after max_inflight failures.
  const Table table = RandomTable(20000, 96);
  ServiceOptions options;
  options.admission.max_inflight = 1;
  QueryService service(options);
  auto session = service.OpenSession(table);
  const QuerySpec spec =
      QuerySpecBuilder().GroupBy({"a", "b"}).Sum("m").Build();

  CancellationSource cancel;
  cancel.Cancel();
  ExecContext cancelled_ctx;
  cancelled_ctx.WithToken(cancel.token());
  for (int i = 0; i < 3; ++i) {  // > max_inflight: leaks would deadlock
    const ExecResult failed = session->Execute(spec, cancelled_ctx);
    EXPECT_FALSE(failed.ok());
    EXPECT_EQ(failed.status.code, StatusCode::kCancelled);
  }
  EXPECT_EQ(service.admission().GetStats().inflight, 0);

  // The slot is actually reusable: a clean execution still succeeds.
  const ExecResult run = session->Execute(spec, ExecContext::Default());
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run.result.num_groups, 0u);
  EXPECT_GE(service.metrics().counter("exec.cancelled")->value(), 3u);
  EXPECT_EQ(service.metrics().counter("exec.ok")->value(), 1u);
}

// --------------------------------------------------------------------------
// Metrics
// --------------------------------------------------------------------------

TEST(MetricsTest, HistogramPercentilesWithinGeometricError) {
  Histogram hist;
  for (int i = 0; i < 100; ++i) hist.Record(1e-3);
  hist.Record(1e-1);
  EXPECT_EQ(hist.count(), 101u);
  // Geometric buckets: answers within ~19% relative error.
  EXPECT_NEAR(hist.Percentile(50), 1e-3, 0.2e-3);
  EXPECT_NEAR(hist.max(), 1e-1, 0.2e-1);
  EXPECT_NEAR(hist.sum(), 0.2, 0.02);
  // p100 lands in the outlier's bucket.
  EXPECT_GT(hist.Percentile(100), 5e-2);
}

TEST(MetricsTest, CountersAreThreadSafeAndRegistryStable) {
  MetricsRegistry registry;
  Counter* counter = registry.counter("test.ops");
  ASSERT_EQ(counter, registry.counter("test.ops"));  // stable pointer
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) registry.counter("test.ops")->Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter->value(), 4000u);
  registry.histogram("test.latency")->Record(0.5);
  const std::string dump = registry.Dump();
  EXPECT_NE(dump.find("test.ops 4000"), std::string::npos) << dump;
  EXPECT_NE(dump.find("test.latency count=1"), std::string::npos) << dump;
}

// --------------------------------------------------------------------------
// Configuration sharing: env overrides + the calibration singleton
// --------------------------------------------------------------------------

TEST(ServiceConfigTest, RhoAndThreadsComeFromEnvironment) {
  setenv("MCSORT_RHO", "0.05", 1);
  setenv("MCSORT_THREADS", "7", 1);
  const ServiceOptions from_env = ServiceOptions::FromEnv();
  EXPECT_DOUBLE_EQ(from_env.rho, 0.05);
  EXPECT_EQ(from_env.threads, 7);
  unsetenv("MCSORT_RHO");
  unsetenv("MCSORT_THREADS");
  const ServiceOptions defaults = ServiceOptions::FromEnv();
  EXPECT_DOUBLE_EQ(defaults.rho, 0.001);
}

TEST(ServiceConfigTest, SharedCostModelLoadsCalibrationFileExactlyOnce) {
  // Point the process-wide singleton at a canned calibration file with a
  // recognizable constant, so no live calibration runs and the loaded
  // values are attributable.
  CostParams canned = CostParams::Default();
  canned.scan_cycles = 7.25;
  const char* path = "service_test_calibration.txt";
  ASSERT_TRUE(SaveParams(canned, path));
  setenv("MCSORT_CALIBRATION_FILE", path, 1);

  const CostModel* first = nullptr;
  const CostModel* second = nullptr;
  std::thread t1([&] { first = &SharedCostModel(); });
  std::thread t2([&] { second = &SharedCostModel(); });
  t1.join();
  t2.join();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first, second);  // one instance, however many racers
  EXPECT_DOUBLE_EQ(first->params().scan_cycles, 7.25);
  EXPECT_EQ(&SharedCostModel(), first);

  // A service built with use_calibration shares exactly those parameters.
  ServiceOptions options;
  options.use_calibration = true;
  QueryService service(options);
  EXPECT_DOUBLE_EQ(service.params().scan_cycles, 7.25);

  unsetenv("MCSORT_CALIBRATION_FILE");
  std::remove(path);
}

}  // namespace
}  // namespace mcsort
