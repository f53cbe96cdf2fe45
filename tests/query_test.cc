#include "jit/jit_query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

namespace poseidon::query {
namespace {

using storage::DictCode;
using storage::Property;
using storage::PVal;
using storage::RecordId;

// A small social graph:
//   persons p0..p4 with age 20+i; p_i knows p_{i+1} (creationDate 100+i)
//   city c; every person livesIn c
class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto pool = pmem::Pool::CreateVolatile(256ull << 20);
    ASSERT_TRUE(pool.ok());
    pool_ = std::move(*pool);
    auto store = storage::GraphStore::Create(pool_.get());
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
    indexes_ = std::make_unique<index::IndexManager>(store_.get());
    mgr_ = std::make_unique<tx::TransactionManager>(store_.get(),
                                                    indexes_.get());
    auto engine = jit::JitQueryEngine::Create(store_.get(), indexes_.get(), 2,
                                              /*cache=*/nullptr);
    ASSERT_TRUE(engine.ok());
    engine_ = std::move(*engine);

    person_ = *store_->Code("Person");
    city_ = *store_->Code("City");
    knows_ = *store_->Code("knows");
    lives_in_ = *store_->Code("livesIn");
    age_ = *store_->Code("age");
    id_key_ = *store_->Code("id");
    date_ = *store_->Code("creationDate");

    auto tx = mgr_->Begin();
    city_id_ = *tx->CreateNode(city_, {{id_key_, PVal::Int(1000)}});
    for (int i = 0; i < 5; ++i) {
      persons_[i] = *tx->CreateNode(
          person_, {{id_key_, PVal::Int(i)}, {age_, PVal::Int(20 + i)}});
      ASSERT_TRUE(
          tx->CreateRelationship(persons_[i], city_id_, lives_in_, {}).ok());
    }
    for (int i = 0; i + 1 < 5; ++i) {
      ASSERT_TRUE(tx->CreateRelationship(persons_[i], persons_[i + 1], knows_,
                                         {{date_, PVal::Int(100 + i)}})
                      .ok());
    }
    ASSERT_TRUE(tx->Commit().ok());
  }

  Result<QueryResult> Run(const Plan& plan, std::vector<Value> params = {},
                          bool parallel = false) {
    auto tx = mgr_->Begin();
    auto r = engine_->Execute(plan, tx.get(), params,
                              parallel ? jit::ExecutionMode::kInterpretParallel
                                       : jit::ExecutionMode::kInterpret);
    if (r.ok()) EXPECT_TRUE(tx->Commit().ok());
    return r;
  }

  std::unique_ptr<pmem::Pool> pool_;
  std::unique_ptr<storage::GraphStore> store_;
  std::unique_ptr<index::IndexManager> indexes_;
  std::unique_ptr<tx::TransactionManager> mgr_;
  std::unique_ptr<jit::JitQueryEngine> engine_;
  DictCode person_, city_, knows_, lives_in_, age_, id_key_, date_;
  RecordId persons_[5];
  RecordId city_id_;
};

TEST_F(QueryTest, NodeScanWithLabel) {
  Plan p = PlanBuilder().NodeScan(person_).Count().Build();
  auto r = Run(p);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 5);
}

TEST_F(QueryTest, NodeScanAllLabels) {
  Plan p = PlanBuilder().NodeScan().Count().Build();
  auto r = Run(p);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 6);  // 5 persons + 1 city
}

TEST_F(QueryTest, FilterOnProperty) {
  Plan p = PlanBuilder()
               .NodeScan(person_)
               .FilterProperty(0, age_, CmpOp::kGt,
                               Expr::Literal(Value::Int(22)))
               .Project({Expr::Property(0, id_key_)})
               .Build();
  auto r = Run(p);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);  // ages 23, 24
}

TEST_F(QueryTest, FilterWithParam) {
  Plan p = PlanBuilder()
               .NodeScan(person_)
               .FilterProperty(0, id_key_, CmpOp::kEq, Expr::Param(0))
               .Project({Expr::Property(0, age_)})
               .Build();
  auto r = Run(p, {Value::Int(3)});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 23);
}

TEST_F(QueryTest, ExpandOutgoing) {
  // p1 -knows-> p2: project the friend's age and the rel's creationDate.
  Plan p = PlanBuilder()
               .NodeScan(person_)
               .FilterProperty(0, id_key_, CmpOp::kEq,
                               Expr::Literal(Value::Int(1)))
               .Expand(0, Direction::kOut, knows_)
               .Project({Expr::Property(2, age_), Expr::Property(1, date_)})
               .Build();
  auto r = Run(p);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 22);
  EXPECT_EQ(r->rows[0][1].AsInt(), 101);
}

TEST_F(QueryTest, ExpandIncomingWithNodeLabelFilter) {
  // City <-livesIn- persons.
  Plan p = PlanBuilder()
               .NodeScan(city_)
               .Expand(0, Direction::kIn, lives_in_, person_)
               .Count()
               .Build();
  auto r = Run(p);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 5);
}

TEST_F(QueryTest, ExpandRelLabelFilters) {
  // p1 has outgoing: livesIn(city), knows(p2). Only knows counted.
  Plan p = PlanBuilder()
               .NodeScan(person_)
               .FilterProperty(0, id_key_, CmpOp::kEq,
                               Expr::Literal(Value::Int(1)))
               .Expand(0, Direction::kOut, knows_)
               .Count()
               .Build();
  auto r = Run(p);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 1);
}

TEST_F(QueryTest, ExpandTransitiveFollowsChainToLabel) {
  // knows-chain p0 -> p1 -> ... -> p4; from p0 follow "knows" until the
  // node has... all have Person label, so stop immediately at p0 itself.
  // Instead: from p0 follow livesIn to City (1 hop).
  Plan p = PlanBuilder()
               .NodeScan(person_)
               .FilterProperty(0, id_key_, CmpOp::kEq,
                               Expr::Literal(Value::Int(0)))
               .ExpandTransitive(0, Direction::kOut, lives_in_, city_)
               .Project({Expr::Property(1, id_key_)})
               .Build();
  auto r = Run(p);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 1000);
}

TEST_F(QueryTest, OrderByDescWithLimit) {
  Plan p = PlanBuilder()
               .NodeScan(person_)
               .Project({Expr::Property(0, age_)})
               .OrderBy(0, /*desc=*/true, /*limit=*/3)
               .Build();
  auto r = Run(p);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 3u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 24);
  EXPECT_EQ(r->rows[1][0].AsInt(), 23);
  EXPECT_EQ(r->rows[2][0].AsInt(), 22);
}

TEST_F(QueryTest, LimitStopsEarly) {
  Plan p = PlanBuilder().NodeScan(person_).Limit(2).Build();
  auto r = Run(p);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);
}

TEST_F(QueryTest, HashJoinMatchesPairs) {
  // Join persons with persons on same city: 5x5 = 25 pairs.
  Plan build = PlanBuilder()
                   .NodeScan(person_)
                   .Expand(0, Direction::kOut, lives_in_)
                   .Project({Expr::Column(0), Expr::Column(2)})
                   .Build();
  Plan p = PlanBuilder()
               .NodeScan(person_)
               .Expand(0, Direction::kOut, lives_in_)
               .Project({Expr::Column(0), Expr::Column(2)})
               .HashJoin(std::move(build), /*left_key_col=*/1,
                         /*right_key_col=*/1)
               .Count()
               .Build();
  auto r = Run(p);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt(), 25);
}

TEST_F(QueryTest, ParallelScanMatchesSingleThreaded) {
  Plan p = PlanBuilder()
               .NodeScan(person_)
               .FilterProperty(0, age_, CmpOp::kGe,
                               Expr::Literal(Value::Int(21)))
               .Count()
               .Build();
  auto seq = Run(p);
  auto par = Run(p, {}, /*parallel=*/true);
  ASSERT_TRUE(seq.ok() && par.ok());
  EXPECT_EQ(seq->rows[0][0].AsInt(), par->rows[0][0].AsInt());
  EXPECT_EQ(par->rows[0][0].AsInt(), 4);
}

TEST_F(QueryTest, IndexScanUsesIndexAndRevalidates) {
  ASSERT_TRUE(
      indexes_->CreateIndex(person_, id_key_, index::Placement::kHybrid)
          .ok());
  Plan p = PlanBuilder()
               .IndexScan(person_, id_key_, Expr::Param(0))
               .Project({Expr::Property(0, age_)})
               .Build();
  auto r = Run(p, {Value::Int(4)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 24);
}

TEST_F(QueryTest, IndexRangeScan) {
  ASSERT_TRUE(
      indexes_->CreateIndex(person_, age_, index::Placement::kHybrid).ok());
  Plan p = PlanBuilder()
               .IndexRangeScan(person_, age_, Expr::Literal(Value::Int(21)),
                               Expr::Literal(Value::Int(23)))
               .Count()
               .Build();
  auto r = Run(p);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt(), 3);
}

TEST_F(QueryTest, ParallelIndexRangeScanMatchesSerial) {
  // Morsel parallelism is no longer NodeScan-only: the matching offsets of an
  // IndexRangeScan source are materialized and partitioned across workers.
  ASSERT_TRUE(
      indexes_->CreateIndex(person_, age_, index::Placement::kHybrid).ok());
  Plan p = PlanBuilder()
               .IndexRangeScan(person_, age_, Expr::Literal(Value::Int(21)),
                               Expr::Literal(Value::Int(24)))
               .Project({Expr::Property(0, id_key_),
                         Expr::Property(0, age_)})
               .Build();
  auto seq = Run(p);
  auto par = Run(p, {}, /*parallel=*/true);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  auto key = [](const std::vector<Value>& row) {
    return std::make_pair(row[0].AsInt(), row[1].AsInt());
  };
  auto sorted = [&](const QueryResult& r) {
    std::vector<std::pair<int64_t, int64_t>> rows;
    for (const auto& row : r.rows) rows.push_back(key(row));
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  EXPECT_EQ(sorted(*seq), sorted(*par));
  EXPECT_EQ(seq->rows.size(), 4u);

  // Aggregation across morsels merges at the breaker identically.
  Plan count = PlanBuilder()
                   .IndexRangeScan(person_, age_,
                                   Expr::Literal(Value::Int(21)),
                                   Expr::Literal(Value::Int(24)))
                   .Count()
                   .Build();
  auto cs = Run(count);
  auto cp = Run(count, {}, /*parallel=*/true);
  ASSERT_TRUE(cs.ok() && cp.ok());
  EXPECT_EQ(cs->rows[0][0].AsInt(), cp->rows[0][0].AsInt());
  EXPECT_EQ(cp->rows[0][0].AsInt(), 4);
}

TEST_F(QueryTest, IndexMaintainedAcrossCommits) {
  ASSERT_TRUE(
      indexes_->CreateIndex(person_, id_key_, index::Placement::kHybrid)
          .ok());
  {
    auto tx = mgr_->Begin();
    ASSERT_TRUE(
        tx->CreateNode(person_, {{id_key_, PVal::Int(77)}}).ok());
    ASSERT_TRUE(tx->Commit().ok());
  }
  Plan p = PlanBuilder()
               .IndexScan(person_, id_key_, Expr::Literal(Value::Int(77)))
               .Count()
               .Build();
  auto r = Run(p);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 1);
}

TEST_F(QueryTest, CreateNodePipeline) {
  Plan p = PlanBuilder()
               .CreateNode(person_, {id_key_, age_},
                           {Expr::Param(0), Expr::Param(1)})
               .Project({Expr::Property(0, age_)})
               .Build();
  auto tx = mgr_->Begin();
  auto r = engine_->Execute(p, tx.get(), {Value::Int(99), Value::Int(55)},
                            jit::ExecutionMode::kInterpret);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 55);
  ASSERT_TRUE(tx->Commit().ok());

  Plan count = PlanBuilder().NodeScan(person_).Count().Build();
  auto c = Run(count);
  EXPECT_EQ(c->rows[0][0].AsInt(), 6);
}

TEST_F(QueryTest, CreateRelViaJoinPipeline) {
  // IU8-shaped plan: match two persons (scan+filter), join, create edge.
  Plan build = PlanBuilder()
                   .NodeScan(person_)
                   .FilterProperty(0, id_key_, CmpOp::kEq, Expr::Param(1))
                   .Project({Expr::Column(0), Expr::Literal(Value::Int(1))})
                   .Build();
  Plan p = PlanBuilder()
               .NodeScan(person_)
               .FilterProperty(0, id_key_, CmpOp::kEq, Expr::Param(0))
               .Project({Expr::Column(0), Expr::Literal(Value::Int(1))})
               .HashJoin(std::move(build), 1, 1)
               .CreateRel(/*src_column=*/0, /*dst_column=*/2, knows_, {date_},
                          {Expr::Param(2)})
               .Build();
  auto tx = mgr_->Begin();
  auto r = engine_->Execute(p, tx.get(),
                            {Value::Int(0), Value::Int(4), Value::Int(777)},
                            jit::ExecutionMode::kInterpret);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(tx->Commit().ok());

  // Verify p0 -knows-> p4 with the property set.
  Plan check = PlanBuilder()
                   .NodeScan(person_)
                   .FilterProperty(0, id_key_, CmpOp::kEq,
                                   Expr::Literal(Value::Int(0)))
                   .Expand(0, Direction::kOut, knows_)
                   .Project({Expr::Property(2, id_key_),
                             Expr::Property(1, date_)})
                   .Build();
  auto cr = Run(check);
  ASSERT_TRUE(cr.ok());
  ASSERT_EQ(cr->rows.size(), 2u);  // knows p1 (old) + p4 (new, head)
  EXPECT_EQ(cr->rows[0][0].AsInt(), 4);
  EXPECT_EQ(cr->rows[0][1].AsInt(), 777);
}

TEST_F(QueryTest, SetPropertyPipeline) {
  Plan p = PlanBuilder()
               .NodeScan(person_)
               .FilterProperty(0, id_key_, CmpOp::kEq, Expr::Param(0))
               .SetProperty(0, age_, Expr::Param(1))
               .Build();
  auto tx = mgr_->Begin();
  auto r = engine_->Execute(p, tx.get(), {Value::Int(2), Value::Int(88)},
                            jit::ExecutionMode::kInterpret);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(tx->Commit().ok());

  auto check = mgr_->Begin();
  EXPECT_EQ(check->GetNodeProperty(persons_[2], age_)->AsInt(), 88);
}

TEST_F(QueryTest, SignatureStableAcrossParams) {
  auto mk = [&](int) {
    return PlanBuilder()
        .NodeScan(person_)
        .FilterProperty(0, id_key_, CmpOp::kEq, Expr::Param(0))
        .Build();
  };
  EXPECT_EQ(mk(1).Signature(), mk(2).Signature());
  Plan other = PlanBuilder().NodeScan(person_).Count().Build();
  EXPECT_NE(mk(1).Signature(), other.Signature());
}

TEST_F(QueryTest, UncommittedWritesVisibleToOwnQueries) {
  auto tx = mgr_->Begin();
  ASSERT_TRUE(tx->CreateNode(person_, {{id_key_, PVal::Int(500)}}).ok());
  Plan p = PlanBuilder().NodeScan(person_).Count().Build();
  auto r = engine_->Execute(p, tx.get(), {}, jit::ExecutionMode::kInterpret);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 6) << "own insert visible pre-commit";
  tx->Abort();

  auto r2 = Run(p);
  EXPECT_EQ(r2->rows[0][0].AsInt(), 5);
}

}  // namespace
}  // namespace poseidon::query
