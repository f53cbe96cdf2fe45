// Tests for the engine extensions beyond the paper's core: the hybrid
// DRAM/PMem dictionary decode cache (§8 future work), the GroupBy
// aggregate operator, and the EXPLAIN plan printer.

#include <gtest/gtest.h>

#include "jit/jit_query_engine.h"

namespace poseidon {
namespace {

using jit::ExecutionMode;
using query::AggFn;
using query::CmpOp;
using query::Expr;
using query::Plan;
using query::PlanBuilder;
using query::Value;
using storage::PVal;

class ExtensionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto pool = pmem::Pool::CreateVolatile(256ull << 20);
    ASSERT_TRUE(pool.ok());
    pool_ = std::move(*pool);
    auto store = storage::GraphStore::Create(pool_.get());
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
    mgr_ = std::make_unique<tx::TransactionManager>(store_.get(), nullptr);
    auto engine = jit::JitQueryEngine::Create(store_.get(), nullptr, 2,
                                              /*cache=*/nullptr);
    ASSERT_TRUE(engine.ok());
    engine_ = std::move(*engine);
    person_ = *store_->Code("Person");
    city_ = *store_->Code("city");
    age_ = *store_->Code("age");

    // 30 persons across 3 cities with ages 0..29.
    auto tx = mgr_->Begin();
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(tx->CreateNode(person_,
                                 {{city_, PVal::Int(i % 3)},
                                  {age_, PVal::Int(i)}})
                      .ok());
    }
    ASSERT_TRUE(tx->Commit().ok());
  }

  Result<query::QueryResult> Run(const Plan& p) {
    auto tx = mgr_->Begin();
    auto r = engine_->Execute(p, tx.get(), {}, ExecutionMode::kInterpret);
    if (r.ok()) EXPECT_TRUE(tx->Commit().ok());
    return r;
  }

  std::unique_ptr<pmem::Pool> pool_;
  std::unique_ptr<storage::GraphStore> store_;
  std::unique_ptr<tx::TransactionManager> mgr_;
  std::unique_ptr<jit::JitQueryEngine> engine_;
  storage::DictCode person_, city_, age_;
};

// --- GroupBy -----------------------------------------------------------------

TEST_F(ExtensionsTest, GroupByCount) {
  Plan p = PlanBuilder()
               .NodeScan(person_)
               .GroupBy(Expr::Property(0, city_), AggFn::kCount,
                        Expr::Property(0, age_))
               .Build();
  auto r = Run(p);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 3u);
  for (const auto& row : r->rows) {
    EXPECT_EQ(row[1].AsInt(), 10);
  }
}

TEST_F(ExtensionsTest, GroupBySumMinMaxAvg) {
  struct Case {
    AggFn fn;
    // expected per city 0 (ages 0,3,...,27)
    double expected;
  };
  // City 0 holds ages {0,3,6,...,27}: sum=135, min=0, max=27, avg=13.5.
  const Case cases[] = {{AggFn::kSum, 135},
                        {AggFn::kMin, 0},
                        {AggFn::kMax, 27},
                        {AggFn::kAvg, 13.5}};
  for (const Case& c : cases) {
    Plan p = PlanBuilder()
                 .NodeScan(person_)
                 .GroupBy(Expr::Property(0, city_), c.fn,
                          Expr::Property(0, age_))
                 .Build();
    auto r = Run(p);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->rows.size(), 3u);
    bool found = false;
    for (const auto& row : r->rows) {
      if (row[0].AsInt() != 0) continue;
      found = true;
      double got = row[1].kind() == Value::Kind::kDouble
                       ? row[1].AsDouble()
                       : static_cast<double>(row[1].AsInt());
      EXPECT_DOUBLE_EQ(got, c.expected)
          << "fn " << static_cast<int>(c.fn);
    }
    EXPECT_TRUE(found);
  }
}

TEST_F(ExtensionsTest, GroupByAfterFilter) {
  Plan p = PlanBuilder()
               .NodeScan(person_)
               .FilterProperty(0, age_, CmpOp::kLt,
                               Expr::Literal(Value::Int(9)))
               .GroupBy(Expr::Property(0, city_), AggFn::kCount,
                        Expr::Property(0, age_))
               .Build();
  auto r = Run(p);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 3u);  // ages 0..8 cover all three cities
  int64_t total = 0;
  for (const auto& row : r->rows) total += row[1].AsInt();
  EXPECT_EQ(total, 9);
}

TEST_F(ExtensionsTest, GroupByParallelMatchesSerial) {
  Plan p = PlanBuilder()
               .NodeScan(person_)
               .GroupBy(Expr::Property(0, city_), AggFn::kSum,
                        Expr::Property(0, age_))
               .Build();
  auto tx = mgr_->Begin();
  auto serial = engine_->Execute(p, tx.get(), {}, ExecutionMode::kInterpret);
  auto parallel =
      engine_->Execute(p, tx.get(), {}, ExecutionMode::kInterpretParallel);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  ASSERT_TRUE(tx->Commit().ok());
  auto total = [](const query::QueryResult& r) {
    double t = 0;
    for (const auto& row : r.rows) {
      t += row[1].kind() == Value::Kind::kDouble
               ? row[1].AsDouble()
               : static_cast<double>(row[1].AsInt());
    }
    return t;
  };
  EXPECT_DOUBLE_EQ(total(*serial), total(*parallel));
}

// --- EXPLAIN -----------------------------------------------------------------

TEST_F(ExtensionsTest, ExplainRendersOperators) {
  Plan p = PlanBuilder()
               .NodeScan(person_)
               .FilterProperty(0, age_, CmpOp::kGe, Expr::Param(0))
               .Expand(0, query::Direction::kOut, city_)
               .Project({Expr::Property(2, age_)})
               .OrderBy(0, true, 5)
               .Build();
  std::string text = p.ToString(&store_->dict());
  EXPECT_NE(text.find("NodeScan(Person)"), std::string::npos) << text;
  EXPECT_NE(text.find("Filter(c0.age >= $0)"), std::string::npos) << text;
  EXPECT_NE(text.find("ForeachRelationship"), std::string::npos) << text;
  EXPECT_NE(text.find("OrderBy(c0 desc, limit 5)"), std::string::npos)
      << text;
  // Operators are printed source-first.
  EXPECT_LT(text.find("NodeScan"), text.find("Filter"));
}

TEST_F(ExtensionsTest, ExplainRendersJoinBuildSide) {
  Plan build = PlanBuilder().NodeScan(person_).Build();
  Plan p = PlanBuilder()
               .NodeScan(person_)
               .HashJoin(std::move(build), 0, 0)
               .Count()
               .Build();
  std::string text = p.ToString(&store_->dict());
  EXPECT_NE(text.find("HashJoin(c0 = c0) build:"), std::string::npos) << text;
  EXPECT_NE(text.find("Count()"), std::string::npos) << text;
}

TEST_F(ExtensionsTest, ExplainWithoutDictionaryUsesCodes) {
  Plan p = PlanBuilder().NodeScan(person_).Build();
  std::string text = p.ToString();
  EXPECT_NE(text.find("NodeScan(#" + std::to_string(person_) + ")"),
            std::string::npos)
      << text;
}

// --- Hybrid dictionary -------------------------------------------------------

TEST_F(ExtensionsTest, DecodeCacheReturnsSameStrings) {
  auto& dict = store_->dict();
  auto code = *dict.Encode("cached string");
  std::string before(*dict.Decode(code));
  dict.EnableDecodeCache();
  EXPECT_TRUE(dict.decode_cache_enabled());
  // First decode fills the cache, second one hits it.
  EXPECT_EQ(*dict.Decode(code), before);
  EXPECT_EQ(*dict.Decode(code), before);
  // New strings after enabling are also served correctly.
  auto code2 = *dict.Encode("later string");
  EXPECT_EQ(*dict.Decode(code2), "later string");
  EXPECT_FALSE(dict.Decode(9999).ok());
}

TEST_F(ExtensionsTest, DecodeCacheSkipsPmemLatency) {
  // With an exaggerated read latency, cached decodes must be much faster.
  pmem::PoolOptions options;
  options.capacity = 64ull << 20;
  options.mode = pmem::PoolMode::kDram;
  options.has_latency_override = true;
  options.latency_override.read_block_ns = 50000;  // 50 us per block
  auto pool = pmem::Pool::Create("", options);
  ASSERT_TRUE(pool.ok());
  auto dict = storage::Dictionary::Create(pool->get());
  ASSERT_TRUE(dict.ok());
  std::vector<storage::DictCode> codes;
  for (int i = 0; i < 64; ++i) {
    codes.push_back(*(*dict)->Encode("value_" + std::to_string(i)));
  }
  auto time_decodes = [&] {
    StopWatch w;
    for (int round = 0; round < 4; ++round) {
      for (auto c : codes) (void)*(*dict)->Decode(c);
    }
    return w.ElapsedUs();
  };
  double persistent_us = time_decodes();
  (*dict)->EnableDecodeCache();
  (void)time_decodes();  // fill
  double hybrid_us = time_decodes();
  EXPECT_LT(hybrid_us * 5, persistent_us)
      << "hybrid dictionary must avoid the PMem string reads";
}

}  // namespace
}  // namespace poseidon
