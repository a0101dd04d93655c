// MetricsRegistry unit tests plus the Database metrics integration: query
// counters, compile/execute latency histograms, plan-cache and thread-pool
// gauges, SHOW METRICS and MetricsJson().
#include "engine/metrics.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "engine/database.h"
#include "tests/testing/db_fixtures.h"

namespace qopt {
namespace {

TEST(MetricsRegistryTest, CounterBasics) {
  MetricsRegistry registry;
  MetricsRegistry::Counter* c = registry.GetCounter("x");
  EXPECT_EQ(c->Value(), 0u);
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->Value(), 42u);
  // Same name -> same counter (stable pointer).
  EXPECT_EQ(registry.GetCounter("x"), c);
  EXPECT_NE(registry.GetCounter("y"), c);
}

TEST(MetricsRegistryTest, HistogramBucketsAndPercentiles) {
  MetricsRegistry registry;
  MetricsRegistry::Histogram* h = registry.GetHistogram("lat");
  EXPECT_EQ(h->Percentile(50), 0u);  // Empty.
  h->Record(0);
  EXPECT_EQ(h->Count(), 1u);
  EXPECT_EQ(h->Percentile(0), 0u);  // Bucket 0 holds exactly v == 0.
  // 5 lands in bucket [4, 8); the reported percentile is the bucket's
  // upper bound 7 — a factor-2 approximation by design.
  h->Record(5);
  h->Record(5);
  h->Record(5);
  EXPECT_EQ(h->Count(), 4u);
  EXPECT_EQ(h->Sum(), 15u);
  EXPECT_EQ(h->Percentile(100), 7u);
  EXPECT_EQ(h->Percentile(0), 0u);
  h->Record(1000);  // Bucket [512, 1024) -> upper bound 1023.
  EXPECT_EQ(h->Percentile(100), 1023u);
}

TEST(MetricsRegistryTest, GaugeReadsCallbackAtExport) {
  MetricsRegistry registry;
  uint64_t source = 7;
  registry.RegisterGauge("g", [&source] { return source; });
  auto value_of = [&](const std::string& name) -> uint64_t {
    for (const MetricsRegistry::Sample& s : registry.Snapshot()) {
      if (s.name == name) return s.value;
    }
    return ~uint64_t{0};
  };
  EXPECT_EQ(value_of("g"), 7u);
  source = 9;  // No re-registration needed: read at export time.
  EXPECT_EQ(value_of("g"), 9u);
}

TEST(MetricsRegistryTest, SnapshotSortedAndHistogramExpansion) {
  MetricsRegistry registry;
  registry.GetCounter("b.count");
  registry.GetHistogram("a.lat")->Record(3);
  registry.RegisterGauge("c.depth", [] { return uint64_t{1}; });
  std::vector<MetricsRegistry::Sample> samples = registry.Snapshot();
  ASSERT_GE(samples.size(), 7u);  // 1 counter + 1 gauge + 5 histogram rows.
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LT(samples[i - 1].name, samples[i].name);
  }
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"a.lat.count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"a.lat.sum\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"b.count\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"c.depth\": 1"), std::string::npos);
}

class DatabaseMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::LoadEmpDept(&db_, /*num_emps=*/200, /*num_depts=*/10);
  }

  uint64_t Metric(const std::string& name) {
    for (const MetricsRegistry::Sample& s : db_.metrics().Snapshot()) {
      if (s.name == name) return s.value;
    }
    ADD_FAILURE() << "no metric named " << name;
    return 0;
  }

  Database db_;
};

TEST_F(DatabaseMetricsTest, QueryCountersAndLatencyHistograms) {
  EXPECT_EQ(Metric("queries.ok"), 0u);
  ASSERT_TRUE(db_.Query("SELECT eid FROM Emp WHERE sal > 50000").ok());
  EXPECT_EQ(Metric("queries.ok"), 1u);
  EXPECT_EQ(Metric("queries.failed"), 0u);
  EXPECT_EQ(Metric("query.compile_ns.count"), 1u);
  EXPECT_EQ(Metric("query.execute_ns.count"), 1u);
  EXPECT_GT(Metric("query.execute_ns.sum"), 0u);
  // The result-row build is one phase of execution.
  EXPECT_EQ(Metric("query.materialize_ns.count"), 1u);
  EXPECT_LE(Metric("query.materialize_ns.sum"),
            Metric("query.execute_ns.sum"));

  EXPECT_FALSE(db_.Query("SELECT nope FROM Missing").ok());
  EXPECT_EQ(Metric("queries.failed"), 1u);
  EXPECT_EQ(Metric("queries.ok"), 1u);
}

TEST_F(DatabaseMetricsTest, GovernorTripCounted) {
  QueryOptions options;
  options.governor.max_rows = 1;  // Trips once a second row materializes.
  Result<QueryResult> r =
      db_.Query("SELECT eid FROM Emp", options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(Metric("governor.trips"), 1u);
  EXPECT_EQ(Metric("queries.failed"), 1u);
}

TEST_F(DatabaseMetricsTest, PlanCacheGauges) {
  const std::string sql = "SELECT eid FROM Emp WHERE sal > 60000";
  ASSERT_TRUE(db_.Query(sql).ok());
  EXPECT_EQ(Metric("plan_cache.misses"), 1u);
  EXPECT_EQ(Metric("plan_cache.entries"), 1u);
  ASSERT_TRUE(db_.Query(sql).ok());
  EXPECT_EQ(Metric("plan_cache.hits"), 1u);
}

TEST_F(DatabaseMetricsTest, ThreadPoolGaugesAfterParallelQuery) {
  EXPECT_EQ(Metric("thread_pool.tasks_submitted"), 0u);  // Pool not created.
  QueryOptions options;
  options.execution_mode = exec::ExecMode::kParallel;
  options.dop = 4;
  options.morsel_rows = 32;
  // A filtered scan always forms a parallel region (a join could plan to
  // an index nested-loop, which stays serial).
  ASSERT_TRUE(db_.Query("SELECT eid FROM Emp WHERE sal > 50000", options).ok());
  EXPECT_GT(Metric("thread_pool.tasks_submitted"), 0u);
  // ParallelFor completes once its work is done; the helper closures it
  // queued may still sit in worker deques for a moment before a worker
  // pops them as no-ops. Poll until the pool drains.
  uint64_t depth = Metric("thread_pool.queue_depth");
  for (int i = 0; i < 200 && depth != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    depth = Metric("thread_pool.queue_depth");
  }
  EXPECT_EQ(depth, 0u);  // Idle once drained.
}

TEST_F(DatabaseMetricsTest, ShowMetricsStatement) {
  ASSERT_TRUE(db_.Query("SELECT eid FROM Emp").ok());
  Result<QueryResult> r = db_.Query("SHOW METRICS");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->column_names,
            (std::vector<std::string>{"metric", "kind", "value"}));
  bool saw_ok = false;
  for (const Row& row : r->rows) {
    if (row[0].AsString() == "queries.ok") {
      saw_ok = true;
      EXPECT_EQ(row[1].AsString(), "counter");
      EXPECT_EQ(row[2].AsInt(), 1);
    }
  }
  EXPECT_TRUE(saw_ok);
  // SHOW METRICS is a query, not DDL.
  EXPECT_FALSE(db_.Execute("SHOW METRICS").ok());
}

TEST_F(DatabaseMetricsTest, MetricsJson) {
  ASSERT_TRUE(db_.Query("SELECT eid FROM Emp").ok());
  std::string json = db_.MetricsJson();
  EXPECT_NE(json.find("\"queries.ok\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"plan_cache.misses\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"query.compile_ns.count\": 1"), std::string::npos);
}

}  // namespace
}  // namespace qopt
