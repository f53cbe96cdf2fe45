// JIT code-generation edge cases and property sweeps, complementing
// jit_test.cc's end-to-end equivalence checks.

#include <gtest/gtest.h>

#include "jit/jit_query_engine.h"

namespace poseidon::jit {
namespace {

using query::CmpOp;
using query::Direction;
using query::Expr;
using query::Plan;
using query::PlanBuilder;
using query::QueryResult;
using query::Value;
using storage::PVal;
using storage::RecordId;

class JitCodegenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto pool = pmem::Pool::CreateVolatile(512ull << 20);
    ASSERT_TRUE(pool.ok());
    pool_ = std::move(*pool);
    auto store = storage::GraphStore::Create(pool_.get());
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
    indexes_ = std::make_unique<index::IndexManager>(store_.get());
    mgr_ = std::make_unique<tx::TransactionManager>(store_.get(),
                                                    indexes_.get());
    auto engine = JitQueryEngine::Create(store_.get(), indexes_.get(), 2,
                                         nullptr);
    ASSERT_TRUE(engine.ok());
    engine_ = std::move(*engine);
    thing_ = *store_->Code("Thing");
    v_ = *store_->Code("v");
    s_ = *store_->Code("s");
    edge_ = *store_->Code("edge");
  }

  Result<QueryResult> RunBoth(const Plan& plan, std::vector<Value> params,
                              bool* equal) {
    auto tx = mgr_->Begin();
    auto aot = engine_->Execute(plan, tx.get(), params,
                                ExecutionMode::kInterpret);
    auto jit = engine_->Execute(plan, tx.get(), params, ExecutionMode::kJit);
    EXPECT_TRUE(tx->Commit().ok());
    if (!aot.ok()) return aot;
    if (!jit.ok()) return jit;
    auto key = [](const query::Tuple& t) {
      std::string k;
      for (const auto& val : t) {
        k += std::to_string(static_cast<int>(val.kind())) + ":" +
             std::to_string(val.raw()) + "|";
      }
      return k;
    };
    std::vector<std::string> ka, kb;
    for (const auto& t : aot->rows) ka.push_back(key(t));
    for (const auto& t : jit->rows) kb.push_back(key(t));
    std::sort(ka.begin(), ka.end());
    std::sort(kb.begin(), kb.end());
    *equal = ka == kb;
    return jit;
  }

  std::unique_ptr<pmem::Pool> pool_;
  std::unique_ptr<storage::GraphStore> store_;
  std::unique_ptr<index::IndexManager> indexes_;
  std::unique_ptr<tx::TransactionManager> mgr_;
  std::unique_ptr<JitQueryEngine> engine_;
  storage::DictCode thing_, v_, s_, edge_;
};

TEST_F(JitCodegenTest, EmptyTableProducesNoRows) {
  Plan p = PlanBuilder().NodeScan(thing_).Project({Expr::RecordId(0)}).Build();
  bool equal = false;
  auto r = RunBoth(p, {}, &equal);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(equal);
  EXPECT_TRUE(r->rows.empty());
}

TEST_F(JitCodegenTest, ScanSkipsDeletedSlots) {
  RecordId doomed;
  {
    auto tx = mgr_->Begin();
    for (int i = 0; i < 10; ++i) {
      auto id = tx->CreateNode(thing_, {{v_, PVal::Int(i)}});
      ASSERT_TRUE(id.ok());
      if (i == 5) doomed = *id;
    }
    ASSERT_TRUE(tx->Commit().ok());
  }
  {
    auto tx = mgr_->Begin();
    ASSERT_TRUE(tx->DeleteNode(doomed).ok());
    ASSERT_TRUE(tx->Commit().ok());
  }
  Plan p = PlanBuilder().NodeScan(thing_).Count().Build();
  bool equal = false;
  auto r = RunBoth(p, {}, &equal);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal);
  EXPECT_EQ(r->rows[0][0].AsInt(), 9);
}

TEST_F(JitCodegenTest, ExpandWithEmptyAdjacency) {
  {
    auto tx = mgr_->Begin();
    ASSERT_TRUE(tx->CreateNode(thing_, {}).ok());
    ASSERT_TRUE(tx->Commit().ok());
  }
  Plan p = PlanBuilder()
               .NodeScan(thing_)
               .Expand(0, Direction::kOut, edge_)
               .Count()
               .Build();
  bool equal = false;
  auto r = RunBoth(p, {}, &equal);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal);
  EXPECT_EQ(r->rows[0][0].AsInt(), 0);
}

TEST_F(JitCodegenTest, MissingPropertyComparesAsNull) {
  {
    auto tx = mgr_->Begin();
    ASSERT_TRUE(tx->CreateNode(thing_, {{v_, PVal::Int(1)}}).ok());
    ASSERT_TRUE(tx->CreateNode(thing_, {}).ok());  // no `v` property
    ASSERT_TRUE(tx->Commit().ok());
  }
  Plan p = PlanBuilder()
               .NodeScan(thing_)
               .FilterProperty(0, v_, CmpOp::kGe,
                               Expr::Literal(Value::Int(0)))
               .Count()
               .Build();
  bool equal = false;
  auto r = RunBoth(p, {}, &equal);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal);
  EXPECT_EQ(r->rows[0][0].AsInt(), 1) << "null never satisfies >=";
}

TEST_F(JitCodegenTest, PropertyChainLongerThanOneRecord) {
  // 8 properties -> 3 chained 64 B records; the inline chain walk must
  // find keys in every record.
  std::vector<storage::Property> props;
  std::vector<storage::DictCode> keys;
  for (int i = 0; i < 8; ++i) {
    keys.push_back(*store_->Code("k" + std::to_string(i)));
    props.push_back({keys.back(), PVal::Int(i * 11)});
  }
  {
    auto tx = mgr_->Begin();
    ASSERT_TRUE(tx->CreateNode(thing_, props).ok());
    ASSERT_TRUE(tx->Commit().ok());
  }
  for (int i = 0; i < 8; ++i) {
    Plan p = PlanBuilder()
                 .NodeScan(thing_)
                 .Project({Expr::Property(0, keys[i])})
                 .Build();
    bool equal = false;
    auto r = RunBoth(p, {}, &equal);
    ASSERT_TRUE(r.ok()) << "k" << i;
    EXPECT_TRUE(equal) << "k" << i;
    ASSERT_EQ(r->rows.size(), 1u);
    EXPECT_EQ(r->rows[0][0].AsInt(), i * 11) << "k" << i;
  }
}

TEST_F(JitCodegenTest, StringAndDoubleAndBoolProperties) {
  auto code = *store_->Code("hello");
  {
    auto tx = mgr_->Begin();
    ASSERT_TRUE(tx->CreateNode(thing_, {{s_, PVal::String(code)},
                                        {v_, PVal::Double(2.5)},
                                        {edge_, PVal::Bool(true)}})
                    .ok());
    ASSERT_TRUE(tx->Commit().ok());
  }
  Plan p = PlanBuilder()
               .NodeScan(thing_)
               .Project({Expr::Property(0, s_), Expr::Property(0, v_),
                         Expr::Property(0, edge_)})
               .Build();
  bool equal = false;
  auto r = RunBoth(p, {}, &equal);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal);
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].kind(), Value::Kind::kString);
  EXPECT_EQ(r->rows[0][0].AsString(), code);
  EXPECT_EQ(r->rows[0][1].kind(), Value::Kind::kDouble);
  EXPECT_DOUBLE_EQ(r->rows[0][1].AsDouble(), 2.5);
  EXPECT_EQ(r->rows[0][2].kind(), Value::Kind::kBool);
  EXPECT_TRUE(r->rows[0][2].AsBool());
}

TEST_F(JitCodegenTest, LimitThroughTailStopsScan) {
  {
    auto tx = mgr_->Begin();
    for (int i = 0; i < 5000; ++i) {
      ASSERT_TRUE(tx->CreateNode(thing_, {}).ok());
    }
    ASSERT_TRUE(tx->Commit().ok());
  }
  Plan p = PlanBuilder().NodeScan(thing_).Limit(7).Build();
  auto tx = mgr_->Begin();
  auto r = engine_->Execute(p, tx.get(), {}, ExecutionMode::kJit);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(tx->Commit().ok());
  EXPECT_EQ(r->rows.size(), 7u);
}

TEST_F(JitCodegenTest, JitReadsSnapshotVersionsThroughHelper) {
  // Old snapshot must see pre-update values even via compiled code (the
  // slow-path helper resolves DRAM version chains).
  RecordId id;
  {
    auto tx = mgr_->Begin();
    id = *tx->CreateNode(thing_, {{v_, PVal::Int(1)}});
    ASSERT_TRUE(tx->Commit().ok());
  }
  auto old_reader = mgr_->Begin();
  {
    auto tx = mgr_->Begin();
    ASSERT_TRUE(tx->SetNodeProperty(id, v_, PVal::Int(2)).ok());
    ASSERT_TRUE(tx->Commit().ok());
  }
  Plan p = PlanBuilder()
               .NodeScan(thing_)
               .Project({Expr::Property(0, v_)})
               .Build();
  auto old_result = engine_->Execute(p, old_reader.get(), {},
                                     ExecutionMode::kJit);
  ASSERT_TRUE(old_result.ok()) << old_result.status().ToString();
  ASSERT_EQ(old_result->rows.size(), 1u);
  EXPECT_EQ(old_result->rows[0][0].AsInt(), 1)
      << "snapshot isolation through compiled code";
  ASSERT_TRUE(old_reader->Commit().ok());

  auto fresh = mgr_->Begin();
  auto new_result = engine_->Execute(p, fresh.get(), {}, ExecutionMode::kJit);
  ASSERT_TRUE(new_result.ok());
  EXPECT_EQ(new_result->rows[0][0].AsInt(), 2);
}

/// Property sweep: filter-chain depth. JIT and AOT must agree for any
/// pipeline length (exercises nested block generation + emit widths).
class JitChainDepthTest : public JitCodegenTest,
                          public ::testing::WithParamInterface<int> {};

// Non-fixture parameterized wrapper (gtest requires a single fixture).
TEST_F(JitCodegenTest, FilterChainDepthSweep) {
  {
    auto tx = mgr_->Begin();
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(tx->CreateNode(thing_, {{v_, PVal::Int(i)}}).ok());
    }
    ASSERT_TRUE(tx->Commit().ok());
  }
  for (int depth : {1, 2, 4, 8, 16}) {
    query::PlanBuilder b;
    std::move(b).NodeScan(thing_);
    for (int i = 0; i < depth; ++i) {
      std::move(b).FilterProperty(0, v_, CmpOp::kGe,
                                  Expr::Literal(Value::Int(i * 10)));
    }
    std::move(b).Count();
    Plan p = std::move(b).Build();
    bool equal = false;
    auto r = RunBoth(p, {}, &equal);
    ASSERT_TRUE(r.ok()) << "depth " << depth;
    EXPECT_TRUE(equal) << "depth " << depth;
    EXPECT_EQ(r->rows[0][0].AsInt(), 500 - (depth - 1) * 10)
        << "depth " << depth;
  }
}

TEST_F(JitCodegenTest, TwoHopExpandChain) {
  // a -> b -> c: two chained expands, three handle scopes live at once.
  {
    auto tx = mgr_->Begin();
    auto a = *tx->CreateNode(thing_, {{v_, PVal::Int(1)}});
    auto b = *tx->CreateNode(thing_, {{v_, PVal::Int(2)}});
    auto c = *tx->CreateNode(thing_, {{v_, PVal::Int(3)}});
    ASSERT_TRUE(tx->CreateRelationship(a, b, edge_, {}).ok());
    ASSERT_TRUE(tx->CreateRelationship(b, c, edge_, {}).ok());
    ASSERT_TRUE(tx->Commit().ok());
  }
  Plan p = PlanBuilder()
               .NodeScan(thing_)
               .Expand(0, Direction::kOut, edge_)
               .Expand(2, Direction::kOut, edge_)
               .Project({Expr::Property(0, v_), Expr::Property(2, v_),
                         Expr::Property(4, v_)})
               .Build();
  bool equal = false;
  auto r = RunBoth(p, {}, &equal);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(equal);
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 1);
  EXPECT_EQ(r->rows[0][1].AsInt(), 2);
  EXPECT_EQ(r->rows[0][2].AsInt(), 3);
}

TEST_F(JitCodegenTest, GroupByRunsInAotTailUnderJit) {
  {
    auto tx = mgr_->Begin();
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(tx->CreateNode(thing_, {{s_, PVal::Int(i % 3)},
                                          {v_, PVal::Int(i)}})
                      .ok());
    }
    ASSERT_TRUE(tx->Commit().ok());
  }
  Plan p = PlanBuilder()
               .NodeScan(thing_)
               .GroupBy(Expr::Property(0, s_), query::AggFn::kSum,
                        Expr::Property(0, v_))
               .Build();
  bool equal = false;
  auto r = RunBoth(p, {}, &equal);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(equal);
  ASSERT_EQ(r->rows.size(), 3u);
}

TEST_F(JitCodegenTest, NodeScanEmitsItsPipelineOnce) {
  // The pipelined scan runs the downstream operators from one place: the
  // flush of a slow-path handle reuses the queue's consumer loop instead of
  // a second copy of the pipeline.
  std::vector<Plan> plans;
  plans.push_back(PlanBuilder()
                      .NodeScan(thing_)
                      .FilterProperty(0, v_, CmpOp::kLt,
                                      Expr::Literal(Value::Int(5)))
                      .Project({Expr::Property(0, v_)})
                      .Build());
  plans.push_back(PlanBuilder()
                      .NodeScan(thing_)
                      .Expand(0, Direction::kOut, edge_)
                      .Count()
                      .Build());
  for (const Plan& p : plans) {
    auto code = GenerateQueryIR(p, "q_emit_once");
    ASSERT_TRUE(code.ok()) << code.status().ToString();
    const llvm::Function* emit = code->module->getFunction("poseidon_emit");
    ASSERT_NE(emit, nullptr);
    EXPECT_EQ(emit->getNumUses(), 1u);
  }
}

TEST_F(JitCodegenTest, CompileFailsGracefullyOnUnsupportedSource) {
  // A plan whose source the code generator does not support must surface a
  // clean error, not crash.
  Plan p = PlanBuilder()
               .CreateNode(thing_, {v_}, {Expr::Param(0)})
               .FilterProperty(0, v_, CmpOp::kEq, Expr::Param(0))
               .Build();
  // CreateNode source with a non-tail op after it is still fine (tail
  // starts at op 0); this must execute, not crash.
  auto tx = mgr_->Begin();
  auto r = engine_->Execute(p, tx.get(), {Value::Int(5)},
                            ExecutionMode::kJit);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  tx->Abort();
}

}  // namespace
}  // namespace poseidon::jit
