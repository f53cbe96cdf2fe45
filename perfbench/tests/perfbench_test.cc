// Tests of the gate benchmark's own code: the percentile rule, op-stream
// determinism, retry accounting, and the report's result line.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/graph_db.h"
#include "ldbc/queries.h"
#include "metrics.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

using poseidon::Status;

TEST(Percentile, NearestRankOnOneToHundred) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  const Summary s = Summarize(&v);
  EXPECT_EQ(s.n, 100u);
  EXPECT_EQ(s.p50, 50);
  EXPECT_TRUE(std::isnan(s.p99));  // only one sample beyond p99
  EXPECT_EQ(Quantile(v, 0.9), 90);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  EXPECT_TRUE(TailSupported(1000, 0.99));
  EXPECT_FALSE(TailSupported(999, 0.99));
  EXPECT_TRUE(TailSupported(100, 0.90));
  EXPECT_FALSE(TailSupported(99, 0.90));
  EXPECT_FALSE(TailSupported(0, 0.5));

  std::vector<double> v(1000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i + 1);
  const Summary s = Summarize(&v);
  EXPECT_EQ(s.p99, 990);  // exactly ten samples (991..1000) beyond
  v.pop_back();
  EXPECT_TRUE(std::isnan(Summarize(&v).p99));
}

TEST(Percentile, MedianOfEmptyIsNan) {
  EXPECT_TRUE(std::isnan(Median({})));
  EXPECT_EQ(Median({3, 1, 2}), 2);
}

class OpStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    poseidon::core::GraphDbOptions options;  // DRAM, no pool file
    options.query_threads = 1;
    auto db = poseidon::core::GraphDb::Create(options);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    poseidon::ldbc::SnbConfig cfg;
    cfg.persons = 60;
    auto ds = poseidon::ldbc::GenerateSnb(db_->txm(), db_->store(), cfg);
    ASSERT_TRUE(ds.ok());
    ds_ = std::move(*ds);
    for (const auto& q : poseidon::ldbc::BuildShortReads(ds_.schema, true)) {
      reads_.push_back(q.name);
    }
    auto updates = poseidon::ldbc::BuildUpdates(
        ds_.schema, &db_->store()->dict(), true);
    ASSERT_TRUE(updates.ok());
    for (const auto& q : *updates) writes_.push_back(q.name);
  }

  std::vector<OpStream> Make(uint64_t seed) {
    return MakeOpStreams(*FindWorkload("htap_mixed"), ds_, reads_, writes_,
                         2000, seed);
  }

  static bool Same(const std::vector<OpStream>& a,
                   const std::vector<OpStream>& b) {
    if (a.size() != b.size()) return false;
    for (size_t c = 0; c < a.size(); ++c) {
      if (a[c].ops.size() != b[c].ops.size() ||
          a[c].params != b[c].params) {
        return false;
      }
      for (size_t i = 0; i < a[c].ops.size(); ++i) {
        const Op& x = a[c].ops[i];
        const Op& y = b[c].ops[i];
        if (x.is_write != y.is_write || x.query != y.query ||
            x.num_params != y.num_params || x.param_begin != y.param_begin) {
          return false;
        }
      }
    }
    return true;
  }

  std::unique_ptr<poseidon::core::GraphDb> db_;
  poseidon::ldbc::SnbDataset ds_;
  std::vector<std::string> reads_;
  std::vector<std::string> writes_;
};

TEST_F(OpStreamTest, SameSeedSameStreamOtherSeedOtherStream) {
  const auto a = Make(7);
  EXPECT_TRUE(Same(a, Make(7)));
  EXPECT_FALSE(Same(a, Make(8)));
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0].ops.size(), 2000u);
}

TEST_F(OpStreamTest, WriteShareAndIdsAreSound) {
  const auto streams = Make(11);
  uint64_t writes = 0;
  uint64_t ops = 0;
  std::set<int64_t> created;
  for (const OpStream& s : streams) {
    std::vector<poseidon::query::Value> params;
    for (const Op& op : s.ops) {
      ++ops;
      if (!op.is_write) continue;
      ++writes;
      s.CopyParams(op, &params);
      const std::string& name = writes_[op.query];
      if (CreatedLabel(ds_.schema, name) != poseidon::storage::kInvalidCode) {
        // New ids are unique across both clients.
        EXPECT_TRUE(created.insert(params[0].AsInt()).second) << name;
      }
      if (name == "IU2" || name == "IU3" || name == "IU5" || name == "IU8") {
        // References name generated persons only.
        const int64_t ref = name == "IU5" ? params[1].AsInt()
                                          : params[0].AsInt();
        EXPECT_LE(ref, ds_.max_person_id) << name;
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(writes) / static_cast<double>(ops), 0.2,
              0.03);
}

TEST(OpCount, ShortRunsStillSupportAReadP99) {
  for (const WorkloadSpec& w : Workloads()) {
    const uint64_t reads = static_cast<uint64_t>(
        static_cast<double>(OpsPerClient(w, 1) * w.clients) *
        (1.0 - w.write_share) * 0.9);  // minus a margin for the draw
    EXPECT_TRUE(TailSupported(reads, 0.99)) << w.name;
  }
  EXPECT_EQ(OpsPerClient(*FindWorkload("sr_indexed"), 15), 900000u);
}

TEST(Retries, ConflictsRetryOtherErrorsStop) {
  int calls = 0;
  Attempts a = RunWithRetries(kMaxAttempts, [&] {
    return ++calls < 3 ? Status::Aborted("conflict") : Status::Ok();
  });
  EXPECT_TRUE(a.committed);
  EXPECT_EQ(a.attempts, 3u);

  calls = 0;
  a = RunWithRetries(kMaxAttempts, [&] {
    ++calls;
    return Status::Internal("broken");
  });
  EXPECT_FALSE(a.committed);
  EXPECT_EQ(a.attempts, 1u);

  a = RunWithRetries(4, [] { return Status::Aborted("conflict"); });
  EXPECT_FALSE(a.committed);
  EXPECT_EQ(a.attempts, 4u);
}

TEST(Retries, OkRatioCountsOpsNotAttempts) {
  OpTally t;
  t.Add(true, Attempts{true, 3, Status::Ok()});    // committed on retry
  t.Add(true, Attempts{false, 8, Status::Aborted("x")});  // gave up
  t.Add(false, Attempts{true, 1, Status::Ok()});
  t.Add(false, Attempts{true, 1, Status::Ok()});
  EXPECT_EQ(t.attempted, 4u);
  EXPECT_EQ(t.committed, 3u);
  EXPECT_EQ(t.failed, 1u);
  EXPECT_EQ(t.write_attempts, 11u);
  EXPECT_EQ(t.writes_committed, 1u);
  EXPECT_EQ(t.reads, 2u);
  EXPECT_DOUBLE_EQ(t.ok_ratio(), 0.75);
}

TEST(ReportTest, ResultLineNeedsEveryEndToEndValue) {
  Report r;
  std::string missing;
  for (const MetricDef& m : Catalog()) {
    if (!m.per_layer) r.Set(m.name, 1.5, 10);
  }
  const std::string line = r.Json(false, true, 10, 0, &missing);
  EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 10, ", 0), 0u);
  EXPECT_NE(line.find("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"),
            std::string::npos);

  r.Set("read_p99_us", NAN);
  EXPECT_EQ(r.Json(false, true, 10, 0, &missing), "");
  EXPECT_EQ(missing, "read_p99_us");
}

TEST(ReportTest, BypassedLayerReadsZeroInJsonAndNaInText) {
  Report r;
  for (const MetricDef& m : Catalog()) {
    if (m.per_layer) r.Set(m.name, 2.0);
  }
  r.Set("pmem.drains_per_write", NAN);
  std::string missing;
  const std::string line = r.Json(true, true, 1, 0, &missing);
  EXPECT_NE(line.find("\"pmem.drains_per_write\": {\"value\": 0,"),
            std::string::npos);
  EXPECT_NE(r.Text(true).find("pmem.drains_per_write = n/a"),
            std::string::npos);
}

TEST(ReportTest, FormatDoubleKeepsEveryDigit) {
  EXPECT_EQ(FormatDouble(0.1), "0.1");
  EXPECT_EQ(std::stod(FormatDouble(1.0 / 3.0)), 1.0 / 3.0);
}

}  // namespace
}  // namespace perfbench
