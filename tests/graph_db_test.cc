#include "core/graph_db.h"

#include <gtest/gtest.h>

#include <filesystem>

namespace poseidon::core {
namespace {

using query::CmpOp;
using query::Expr;
using query::Plan;
using query::PlanBuilder;
using query::Value;
using storage::PVal;

GraphDbOptions FastOptions(const std::string& path) {
  GraphDbOptions o;
  o.path = path;
  o.capacity = 512ull << 20;
  o.has_latency_override = true;
  o.latency_override = pmem::LatencyModel::Dram();
  o.query_threads = 2;
  return o;
}

class GraphDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/graphdb_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".pmem";
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::string path_;
};

TEST_F(GraphDbTest, EndToEndLifecycle) {
  storage::DictCode person, name;
  storage::RecordId alice;
  {
    auto db = GraphDb::Create(FastOptions(path_));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    person = *(*db)->Code("Person");
    name = *(*db)->Code("name");
    auto tx = (*db)->Begin();
    auto a = tx->CreateNode(person, {{name, PVal::Int(1)}});
    ASSERT_TRUE(a.ok());
    alice = *a;
    auto b = tx->CreateNode(person, {{name, PVal::Int(2)}});
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(
        tx->CreateRelationship(alice, *b, *(*db)->Code("knows"), {}).ok());
    ASSERT_TRUE(tx->Commit().ok());

    Plan count = PlanBuilder().NodeScan(person).Count().Build();
    auto r = (*db)->Execute(count);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->rows[0][0].AsInt(), 2);
  }
  // Clean reopen: everything durable.
  {
    auto db = GraphDb::Open(FastOptions(path_));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_FALSE((*db)->recovered_from_crash());
    auto tx = (*db)->Begin();
    auto v = tx->GetNodeProperty(alice, name);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->AsInt(), 1);
  }
}

TEST_F(GraphDbTest, VolatileModeWorksWithoutPath) {
  GraphDbOptions o;
  o.path = "";
  o.capacity = 256ull << 20;
  auto db = GraphDb::Create(o);
  ASSERT_TRUE(db.ok());
  auto tx = (*db)->Begin();
  ASSERT_TRUE(tx->CreateNode(*(*db)->Code("N"), {}).ok());
  ASSERT_TRUE(tx->Commit().ok());
  EXPECT_EQ((*db)->store()->nodes().size(), 1u);
}

TEST_F(GraphDbTest, IndexCreationAndIndexedQuery) {
  auto db = GraphDb::Create(FastOptions(path_));
  ASSERT_TRUE(db.ok());
  auto person = *(*db)->Code("Person");
  auto id_key = *(*db)->Code("id");
  {
    auto tx = (*db)->Begin();
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(tx->CreateNode(person, {{id_key, PVal::Int(i)}}).ok());
    }
    ASSERT_TRUE(tx->Commit().ok());
  }
  ASSERT_TRUE((*db)->CreateIndex("Person", "id").ok());
  Plan p = PlanBuilder()
               .IndexScan(person, id_key, Expr::Param(0))
               .Project({Expr::Property(0, id_key)})
               .Build();
  auto r = (*db)->Execute(p, jit::ExecutionMode::kInterpret, {Value::Int(42)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 42);
}

TEST_F(GraphDbTest, HybridIndexSurvivesReopen) {
  auto person_ids = std::vector<int64_t>{};
  {
    auto db = GraphDb::Create(FastOptions(path_));
    ASSERT_TRUE(db.ok());
    auto person = *(*db)->Code("Person");
    auto id_key = *(*db)->Code("id");
    auto tx = (*db)->Begin();
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(tx->CreateNode(person, {{id_key, PVal::Int(i)}}).ok());
    }
    ASSERT_TRUE(tx->Commit().ok());
    ASSERT_TRUE((*db)->CreateIndex("Person", "id").ok());
  }
  {
    auto db = GraphDb::Open(FastOptions(path_));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto person = *(*db)->Code("Person");
    auto id_key = *(*db)->Code("id");
    // The hybrid index was recovered by rebuilding its DRAM inner levels.
    Plan p = PlanBuilder()
                 .IndexScan(person, id_key, Expr::Param(0))
                 .Count()
                 .Build();
    auto r = (*db)->Execute(p, jit::ExecutionMode::kInterpret,
                            {Value::Int(123)});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows[0][0].AsInt(), 1);
  }
}

TEST_F(GraphDbTest, JitQueryCachePersistsAcrossSessions) {
  auto person_count_plan = [](storage::DictCode person) {
    return PlanBuilder().NodeScan(person).Count().Build();
  };
  storage::DictCode person;
  {
    auto db = GraphDb::Create(FastOptions(path_));
    ASSERT_TRUE(db.ok());
    person = *(*db)->Code("Person");
    auto tx = (*db)->Begin();
    ASSERT_TRUE(tx->CreateNode(person, {}).ok());
    ASSERT_TRUE(tx->Commit().ok());
    Plan p = person_count_plan(person);
    jit::ExecStats stats;
    auto r = (*db)->Execute(p, jit::ExecutionMode::kJit, {}, &stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(stats.cache_hit);
    EXPECT_GT((*db)->query_cache()->size(), 0u);
  }
  {
    auto db = GraphDb::Open(FastOptions(path_));
    ASSERT_TRUE(db.ok());
    Plan p = person_count_plan(person);
    jit::ExecStats stats;
    auto r = (*db)->Execute(p, jit::ExecutionMode::kJit, {}, &stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(stats.cache_hit)
        << "compiled code must be reused across restarts (§6.2)";
    EXPECT_EQ(r->rows[0][0].AsInt(), 1);
  }
}

TEST_F(GraphDbTest, CrashRecoveryEndToEnd) {
  storage::DictCode person, name;
  {
    auto options = FastOptions(path_);
    auto db_or = GraphDb::Create(options);
    ASSERT_TRUE(db_or.ok());
    GraphDb* db = db_or->get();
    person = *db->Code("Person");
    name = *db->Code("name");
    {
      auto tx = db->Begin();
      ASSERT_TRUE(tx->CreateNode(person, {{name, PVal::Int(1)}}).ok());
      ASSERT_TRUE(tx->Commit().ok());
    }
    {
      auto tx = db->Begin();
      ASSERT_TRUE(tx->CreateNode(person, {{name, PVal::Int(2)}}).ok());
      ASSERT_TRUE(tx->SetNodeProperty(0, name, PVal::Int(99)).ok());
      (void)tx.release();  // in-flight at crash
    }
    (void)db_or->release();  // hard crash: no clean shutdown
  }
  {
    auto db = GraphDb::Open(FastOptions(path_));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_TRUE((*db)->recovered_from_crash());
    auto tx = (*db)->Begin();
    auto v = tx->GetNodeProperty(0, name);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->AsInt(), 1) << "uncommitted update must be rolled back";
    EXPECT_EQ((*db)->store()->nodes().size(), 1u)
        << "uncommitted insert must be dropped";
  }
}

TEST_F(GraphDbTest, AdaptiveExecutionThroughFacade) {
  auto db = GraphDb::Create(FastOptions(path_));
  ASSERT_TRUE(db.ok());
  auto person = *(*db)->Code("Person");
  auto age = *(*db)->Code("age");
  {
    auto tx = (*db)->Begin();
    for (int i = 0; i < 5000; ++i) {
      ASSERT_TRUE(tx->CreateNode(person, {{age, PVal::Int(i % 90)}}).ok());
    }
    ASSERT_TRUE(tx->Commit().ok());
  }
  Plan p = PlanBuilder()
               .NodeScan(person)
               .FilterProperty(0, age, CmpOp::kLt,
                               Expr::Literal(Value::Int(30)))
               .Count()
               .Build();
  auto aot = (*db)->Execute(p, jit::ExecutionMode::kInterpret);
  auto adaptive = (*db)->Execute(p, jit::ExecutionMode::kAdaptive);
  ASSERT_TRUE(aot.ok() && adaptive.ok());
  EXPECT_EQ(aot->rows[0][0].AsInt(), adaptive->rows[0][0].AsInt());
  (*db)->engine()->WaitForBackgroundCompiles();
}

TEST_F(GraphDbTest, AdjacencyCacheAblationIdenticalAcrossModes) {
  // Expand must return the same rows with the DRAM adjacency cache on
  // (default) and off (raw chain walk) in every execution mode. Cache
  // enablement feeds the JIT cache key, so the off run compiles a distinct
  // chain-walk-only variant rather than reusing the dual-loop code.
  auto db = GraphDb::Create(FastOptions(path_));
  ASSERT_TRUE(db.ok());
  auto person = *(*db)->Code("Person");
  auto knows = *(*db)->Code("knows");
  constexpr int kPersons = 400;
  {
    auto tx = (*db)->Begin();
    std::vector<storage::RecordId> ids;
    for (int i = 0; i < kPersons; ++i) {
      ids.push_back(*tx->CreateNode(person, {}));
    }
    for (int i = 0; i < kPersons; ++i) {
      ASSERT_TRUE(tx->CreateRelationship(ids[i], ids[(i + 1) % kPersons],
                                         knows, {})
                      .ok());
      if (i % 3 == 0) {
        ASSERT_TRUE(tx->CreateRelationship(ids[i], ids[(i + 7) % kPersons],
                                           knows, {})
                        .ok());
      }
    }
    ASSERT_TRUE(tx->Commit().ok());
  }
  Plan p = PlanBuilder()
               .NodeScan(person)
               .Expand(0, query::Direction::kOut, knows)
               .Count()
               .Build();

  const jit::ExecutionMode modes[] = {
      jit::ExecutionMode::kInterpret, jit::ExecutionMode::kInterpretParallel,
      jit::ExecutionMode::kJit, jit::ExecutionMode::kAdaptive};
  int64_t expected = -1;
  for (bool cache_on : {true, false}) {
    (*db)->set_adj_cache_enabled(cache_on);
    for (jit::ExecutionMode mode : modes) {
      auto r = (*db)->Execute(p, mode);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      int64_t count = r->rows[0][0].AsInt();
      if (expected < 0) expected = count;
      EXPECT_EQ(count, expected) << "mode=" << static_cast<int>(mode)
                                 << " adj_cache=" << (cache_on ? "on" : "off");
    }
  }
  (*db)->engine()->WaitForBackgroundCompiles();
  (*db)->set_adj_cache_enabled(true);

  // Compiled execution reports cache traffic: the first hot run rebuilds the
  // arrays (cleared by the toggle above), the second is all hits.
  {
    auto tx = (*db)->Begin();
    jit::ExecStats stats;
    auto r = (*db)->ExecuteIn(p, tx.get(), {}, jit::ExecutionMode::kJit,
                              &stats);
    ASSERT_TRUE(r.ok());
    EXPECT_GT(stats.adj_cache_misses, 0u);
    jit::ExecStats hot;
    r = (*db)->ExecuteIn(p, tx.get(), {}, jit::ExecutionMode::kJit, &hot);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->rows[0][0].AsInt(), expected);
    EXPECT_GT(hot.adj_cache_hits, 0u);
    EXPECT_EQ(hot.adj_cache_misses, 0u);
    ASSERT_TRUE(tx->Commit().ok());
  }

  // EXPLAIN renders the cache state and counters on Expand operators.
  EXPECT_NE((*db)->Explain(p).find("adjcache=on"), std::string::npos);
  (*db)->set_adj_cache_enabled(false);
  EXPECT_NE((*db)->Explain(p).find("adjcache=off"), std::string::npos);
  (*db)->set_adj_cache_enabled(true);
}

}  // namespace
}  // namespace poseidon::core
