#include "jit/jit_query_engine.h"

#include <gtest/gtest.h>

#include "ldbc/queries.h"
#include "util/hash.h"

namespace poseidon::jit {
namespace {

using ldbc::SnbConfig;
using ldbc::SnbDataset;
using query::CmpOp;
using query::Direction;
using query::Expr;
using query::Plan;
using query::PlanBuilder;
using query::QueryResult;
using query::Value;

bool SameRows(const QueryResult& a, const QueryResult& b,
              bool order_sensitive = true) {
  if (a.rows.size() != b.rows.size()) return false;
  auto key = [](const query::Tuple& t) {
    std::string k;
    for (const auto& v : t) {
      k += std::to_string(static_cast<int>(v.kind())) + ":" +
           std::to_string(v.raw()) + "|";
    }
    return k;
  };
  std::vector<std::string> ka, kb;
  for (const auto& t : a.rows) ka.push_back(key(t));
  for (const auto& t : b.rows) kb.push_back(key(t));
  if (!order_sensitive) {
    std::sort(ka.begin(), ka.end());
    std::sort(kb.begin(), kb.end());
  }
  return ka == kb;
}

class JitTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto pool = pmem::Pool::CreateVolatile(1ull << 30);
    ASSERT_TRUE(pool.ok());
    pool_ = pool->release();
    auto store = storage::GraphStore::Create(pool_);
    ASSERT_TRUE(store.ok());
    store_ = store->release();
    indexes_ = new index::IndexManager(store_);
    mgr_ = new tx::TransactionManager(store_, indexes_);
    auto cache = QueryCache::Create(pool_);
    ASSERT_TRUE(cache.ok());
    cache_ = cache->release();
    auto engine = JitQueryEngine::Create(store_, indexes_, 2, cache_);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = engine->release();

    SnbConfig cfg;
    cfg.persons = 200;
    auto ds = ldbc::GenerateSnb(mgr_, store_, cfg);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    ds_ = new SnbDataset(std::move(*ds));
    ASSERT_TRUE(ldbc::CreateSnbIndexes(indexes_, ds_->schema,
                                       index::Placement::kHybrid)
                    .ok());
  }

  static void TearDownTestSuite() {
    delete engine_;
    delete cache_;
    delete mgr_;
    delete indexes_;
    delete ds_;
    delete store_;
    delete pool_;
  }

  Result<QueryResult> Run(const Plan& plan, std::vector<Value> params,
                          ExecutionMode mode, ExecStats* stats = nullptr) {
    auto tx = mgr_->Begin();
    auto r = engine_->Execute(plan, tx.get(), params, mode, stats);
    if (r.ok()) EXPECT_TRUE(tx->Commit().ok());
    return r;
  }

  static pmem::Pool* pool_;
  static storage::GraphStore* store_;
  static index::IndexManager* indexes_;
  static tx::TransactionManager* mgr_;
  static QueryCache* cache_;
  static JitQueryEngine* engine_;
  static SnbDataset* ds_;
};

pmem::Pool* JitTest::pool_ = nullptr;
storage::GraphStore* JitTest::store_ = nullptr;
index::IndexManager* JitTest::indexes_ = nullptr;
tx::TransactionManager* JitTest::mgr_ = nullptr;
QueryCache* JitTest::cache_ = nullptr;
JitQueryEngine* JitTest::engine_ = nullptr;
SnbDataset* JitTest::ds_ = nullptr;

TEST_F(JitTest, ScanFilterProjectMatchesInterpreter) {
  const auto& s = ds_->schema;
  Plan p = PlanBuilder()
               .NodeScan(s.person)
               .FilterProperty(0, s.id, CmpOp::kLe,
                               Expr::Literal(Value::Int(50)))
               .Project({Expr::Property(0, s.id),
                         Expr::Property(0, s.first_name)})
               .Build();
  auto aot = Run(p, {}, ExecutionMode::kInterpret);
  ExecStats stats;
  auto jit = Run(p, {}, ExecutionMode::kJit, &stats);
  ASSERT_TRUE(aot.ok() && jit.ok())
      << aot.status().ToString() << " / " << jit.status().ToString();
  EXPECT_TRUE(stats.used_jit);
  EXPECT_EQ(aot->rows.size(), 50u);
  EXPECT_TRUE(SameRows(*aot, *jit, /*order_sensitive=*/false));
}

TEST_F(JitTest, ExpandMatchesInterpreter) {
  const auto& s = ds_->schema;
  Plan p = PlanBuilder()
               .NodeScan(s.person)
               .FilterProperty(0, s.id, CmpOp::kEq, Expr::Param(0))
               .Expand(0, Direction::kOut, s.knows)
               .Project({Expr::Property(2, s.id),
                         Expr::Property(1, s.creation_date)})
               .Build();
  for (int64_t pid : {1, 7, 42, 100}) {
    auto aot = Run(p, {Value::Int(pid)}, ExecutionMode::kInterpret);
    auto jit = Run(p, {Value::Int(pid)}, ExecutionMode::kJit);
    ASSERT_TRUE(aot.ok() && jit.ok());
    EXPECT_TRUE(SameRows(*aot, *jit)) << "person " << pid;
  }
}

TEST_F(JitTest, CountViaTailMatches) {
  const auto& s = ds_->schema;
  Plan p = PlanBuilder().NodeScan(s.comment).Count().Build();
  auto aot = Run(p, {}, ExecutionMode::kInterpret);
  auto jit = Run(p, {}, ExecutionMode::kJit);
  ASSERT_TRUE(aot.ok() && jit.ok());
  ASSERT_EQ(jit->rows.size(), 1u);
  EXPECT_EQ(aot->rows[0][0].AsInt(), jit->rows[0][0].AsInt());
  EXPECT_EQ(jit->rows[0][0].AsInt(), static_cast<int64_t>(ds_->comments.size()));
}

TEST_F(JitTest, IndexScanSourceMatches) {
  const auto& s = ds_->schema;
  Plan p = PlanBuilder()
               .IndexScan(s.person, s.id, Expr::Param(0))
               .Project({Expr::Property(0, s.first_name),
                         Expr::Property(0, s.last_name)})
               .Build();
  auto aot = Run(p, {Value::Int(33)}, ExecutionMode::kInterpret);
  auto jit = Run(p, {Value::Int(33)}, ExecutionMode::kJit);
  ASSERT_TRUE(aot.ok() && jit.ok())
      << aot.status().ToString() << " / " << jit.status().ToString();
  EXPECT_EQ(aot->rows.size(), 1u);
  EXPECT_TRUE(SameRows(*aot, *jit));
}

TEST_F(JitTest, AllShortReadsJitMatchesAot) {
  for (bool use_index : {false, true}) {
    auto queries = ldbc::BuildShortReads(ds_->schema, use_index);
    Rng rng(99);
    for (const auto& q : queries) {
      for (int i = 0; i < 5; ++i) {
        auto params = ldbc::DrawShortReadParams(*ds_, q.name, &rng);
        auto aot = Run(q.plan, params, ExecutionMode::kInterpret);
        auto jit = Run(q.plan, params, ExecutionMode::kJit);
        ASSERT_TRUE(aot.ok()) << q.name << ": " << aot.status().ToString();
        ASSERT_TRUE(jit.ok()) << q.name << ": " << jit.status().ToString();
        // Order-insensitive: morsel interleaving may reorder equal sort
        // keys and unordered results.
        EXPECT_TRUE(SameRows(*aot, *jit, /*order_sensitive=*/false))
            << q.name << " params=" << params[0].AsInt()
            << " use_index=" << use_index;
      }
    }
  }
}

TEST_F(JitTest, AllUpdatesRunThroughJit) {
  auto queries = ldbc::BuildUpdates(ds_->schema, &store_->dict(), true);
  ASSERT_TRUE(queries.ok());
  Rng rng(31);
  uint64_t rels_before = store_->relationships().size();
  for (const auto& q : *queries) {
    auto params = ldbc::DrawUpdateParams(ds_, q.name, &rng);
    auto tx = mgr_->Begin();
    ExecStats stats;
    auto r = engine_->Execute(q.plan, tx.get(), params, ExecutionMode::kJit,
                              &stats);
    ASSERT_TRUE(r.ok()) << q.name << ": " << r.status().ToString();
    ASSERT_TRUE(tx->Commit().ok()) << q.name;
  }
  EXPECT_GT(store_->relationships().size(), rels_before);
}

TEST_F(JitTest, CompilationIsMemoized) {
  const auto& s = ds_->schema;
  Plan p = PlanBuilder().NodeScan(s.tag).Count().Build();
  ExecStats first, second;
  ASSERT_TRUE(Run(p, {}, ExecutionMode::kJit, &first).ok());
  ASSERT_TRUE(Run(p, {}, ExecutionMode::kJit, &second).ok());
  EXPECT_TRUE(second.memo_hit || second.cache_hit);
  EXPECT_EQ(second.compile_ms, 0.0);
}

TEST_F(JitTest, PersistentCacheServesNewEngine) {
  const auto& s = ds_->schema;
  Plan p = PlanBuilder()
               .NodeScan(s.forum)
               .Project({Expr::Property(0, s.id)})
               .Build();
  auto first = Run(p, {}, ExecutionMode::kJit);
  ASSERT_TRUE(first.ok());
  uint64_t cached = cache_->size();
  EXPECT_GT(cached, 0u);

  // A brand-new engine (fresh LLJIT, empty memo) must link the persisted
  // object instead of recompiling.
  auto engine2 = JitQueryEngine::Create(store_, indexes_, 2, cache_);
  ASSERT_TRUE(engine2.ok());
  auto tx = mgr_->Begin();
  ExecStats stats;
  auto r = (*engine2)->Execute(p, tx.get(), {}, ExecutionMode::kJit, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(tx->Commit().ok());
  EXPECT_TRUE(stats.cache_hit);
  EXPECT_TRUE(SameRows(*first, *r, /*order_sensitive=*/false));
}

TEST_F(JitTest, PlanIdAtBuildIsTheSignatureHash) {
  // The id a plan computes when it is built is the input QueryIdFor has
  // always hashed, so ids, and code persisted under them, stay valid.
  auto updates = ldbc::BuildUpdates(ds_->schema, &store_->dict(), false);
  auto indexed_updates =
      ldbc::BuildUpdates(ds_->schema, &store_->dict(), true);
  ASSERT_TRUE(updates.ok() && indexed_updates.ok());
  std::vector<std::vector<ldbc::NamedQuery>> sets;
  sets.push_back(ldbc::BuildShortReads(ds_->schema, false));
  sets.push_back(ldbc::BuildShortReads(ds_->schema, true));
  sets.push_back(std::move(*updates));
  sets.push_back(std::move(*indexed_updates));
  size_t checked = 0;
  for (const auto& set : sets) {
    for (const auto& q : set) {
      EXPECT_EQ(q.plan.id(), HashString(q.plan.Signature())) << q.name;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 2 * 12 + 2 * 8u);
  // A moved-from plan is the empty plan, id included, so it can never
  // carry the id of operators it no longer holds.
  Plan moved = PlanBuilder().NodeScan(ds_->schema.tag).Build();
  Plan target = std::move(moved);
  EXPECT_EQ(moved.root(), nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.id(), Plan().id());
  EXPECT_EQ(Plan().id(), HashString(""));
  EXPECT_EQ(target.id(), HashString(target.Signature()));
}

TEST_F(JitTest, CacheKeyIsVersionedAndIgnoresBatchSize) {
  const auto& s = ds_->schema;
  Plan p = PlanBuilder()
               .NodeScan(s.forum)
               .Project({Expr::Property(0, s.id)})
               .Build();
  JitOptions options;
  options.scan = engine_->scan_options();
  options.adj_cache = engine_->adj_cache_enabled();
  JitOptions other_batch = options;
  other_batch.scan.batch_size = options.scan.batch_size * 2 + 1;
  EXPECT_EQ(JitEngine::QueryIdFor(p, options),
            JitEngine::QueryIdFor(p, other_batch))
      << "codegen never reads batch_size";
  JitOptions other_distance = options;
  other_distance.scan.prefetch_distance = options.scan.prefetch_distance + 8;
  EXPECT_EQ(JitEngine::QueryIdFor(p, options),
            JitEngine::QueryIdFor(p, other_distance))
      << "codegen reads only whether prefetch_distance is nonzero";
  JitOptions no_prefetch = options;
  no_prefetch.scan.prefetch_distance = 0;
  EXPECT_NE(JitEngine::QueryIdFor(p, options),
            JitEngine::QueryIdFor(p, no_prefetch));
  const uint64_t id = JitEngine::QueryIdFor(p, options);
  const uint64_t old_id =
      JitEngine::QueryIdFor(p, options, kCodegenVersion - 1);
  ASSERT_NE(id, old_id);

  // Fill a cache with this plan's object, then plant the same linkable
  // bytes in a second cache under the previous generator version's id, as
  // a pool written by an older binary would hold them.
  auto current = QueryCache::Create(pool_);
  auto stale = QueryCache::Create(pool_);
  ASSERT_TRUE(current.ok() && stale.ok());
  {
    auto engine = JitQueryEngine::Create(store_, indexes_, 2, current->get());
    ASSERT_TRUE(engine.ok());
    auto tx = mgr_->Begin();
    ASSERT_TRUE(
        (*engine)->Execute(p, tx.get(), {}, ExecutionMode::kJit).ok());
    ASSERT_TRUE(tx->Commit().ok());
  }
  auto blob = (*current)->Get(id);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  ASSERT_TRUE((*stale)->Put(old_id, blob->data(), blob->size()).ok());

  auto expected = Run(p, {}, ExecutionMode::kInterpret);
  ASSERT_TRUE(expected.ok());
  for (bool linked : {false, true}) {
    SCOPED_TRACE(linked ? "second engine" : "first engine");
    auto engine = JitQueryEngine::Create(store_, indexes_, 2, stale->get());
    ASSERT_TRUE(engine.ok());
    auto tx = mgr_->Begin();
    ExecStats stats;
    auto r = (*engine)->Execute(p, tx.get(), {}, ExecutionMode::kJit, &stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(tx->Commit().ok());
    // The old-version entry is never linked: the first engine compiles
    // afresh and caches under the current id, which the second one links.
    EXPECT_EQ(stats.cache_hit, linked);
    EXPECT_EQ(stats.compile_ms > 0, !linked);
    EXPECT_TRUE(SameRows(*expected, *r, /*order_sensitive=*/false));
  }
  EXPECT_TRUE((*stale)->Contains(id));
}

TEST_F(JitTest, AdaptiveMatchesInterpreter) {
  const auto& s = ds_->schema;
  Plan p = PlanBuilder()
               .NodeScan(s.person)
               .Expand(0, Direction::kOut, s.knows)
               .Count()
               .Build();
  auto aot = Run(p, {}, ExecutionMode::kInterpret);
  ASSERT_TRUE(aot.ok());
  // First adaptive run may finish before compilation lands; run twice.
  ExecStats stats;
  auto a1 = Run(p, {}, ExecutionMode::kAdaptive, &stats);
  ASSERT_TRUE(a1.ok()) << a1.status().ToString();
  EXPECT_EQ(aot->rows[0][0].AsInt(), a1->rows[0][0].AsInt());
  engine_->WaitForBackgroundCompiles();
  auto a2 = Run(p, {}, ExecutionMode::kAdaptive, &stats);
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(aot->rows[0][0].AsInt(), a2->rows[0][0].AsInt());
  EXPECT_GT(stats.jit_morsels, 0u)
      << "second adaptive run should execute compiled code (memoized)";
  engine_->WaitForBackgroundCompiles();
}

TEST_F(JitTest, JitSeesOwnUncommittedWrites) {
  const auto& s = ds_->schema;
  Plan count = PlanBuilder().NodeScan(s.person).Count().Build();
  auto tx = mgr_->Begin();
  auto before = engine_->Execute(count, tx.get(), {}, ExecutionMode::kJit);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(tx->CreateNode(s.person, {}).ok());
  auto after = engine_->Execute(count, tx.get(), {}, ExecutionMode::kJit);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows[0][0].AsInt(), before->rows[0][0].AsInt() + 1);
  tx->Abort();
}

}  // namespace
}  // namespace poseidon::jit
