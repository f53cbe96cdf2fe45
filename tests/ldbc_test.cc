#include "ldbc/queries.h"

#include <gtest/gtest.h>

#include "jit/jit_query_engine.h"

namespace poseidon::ldbc {
namespace {

using jit::ExecutionMode;
using jit::JitQueryEngine;
using query::QueryResult;
using query::Value;

class LdbcTest : public ::testing::Test {
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
    auto engine = JitQueryEngine::Create(store_, indexes_, 2, nullptr);
    ASSERT_TRUE(engine.ok());
    engine_ = engine->release();

    SnbConfig cfg;
    cfg.persons = 300;
    auto ds = GenerateSnb(mgr_, store_, cfg);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    ds_ = new SnbDataset(std::move(*ds));
    ASSERT_TRUE(CreateSnbIndexes(indexes_, ds_->schema,
                                 index::Placement::kHybrid)
                    .ok());
  }

  static void TearDownTestSuite() {
    delete engine_;
    delete mgr_;
    delete indexes_;
    delete ds_;
    delete store_;
    delete pool_;
  }

  Result<QueryResult> Run(const query::Plan& plan, std::vector<Value> params) {
    auto tx = mgr_->Begin();
    auto r = engine_->Execute(plan, tx.get(), params,
                              ExecutionMode::kInterpret);
    if (r.ok()) EXPECT_TRUE(tx->Commit().ok());
    return r;
  }

  static pmem::Pool* pool_;
  static storage::GraphStore* store_;
  static index::IndexManager* indexes_;
  static tx::TransactionManager* mgr_;
  static JitQueryEngine* engine_;
  static SnbDataset* ds_;
};

pmem::Pool* LdbcTest::pool_ = nullptr;
storage::GraphStore* LdbcTest::store_ = nullptr;
index::IndexManager* LdbcTest::indexes_ = nullptr;
tx::TransactionManager* LdbcTest::mgr_ = nullptr;
JitQueryEngine* LdbcTest::engine_ = nullptr;
SnbDataset* LdbcTest::ds_ = nullptr;

TEST_F(LdbcTest, DatasetHasExpectedShape) {
  EXPECT_EQ(ds_->persons.size(), 300u);
  EXPECT_EQ(ds_->forums.size(), 300u);
  EXPECT_EQ(ds_->posts.size(), 900u);
  EXPECT_EQ(ds_->comments.size(), 1800u);
  EXPECT_GT(ds_->total_relationships, 5000u);
  EXPECT_EQ(ds_->total_nodes, store_->nodes().size());
}

TEST_F(LdbcTest, GenerationIsDeterministic) {
  // A second store generated with the same seed must match entity counts
  // and logical-id ranges exactly.
  auto pool = pmem::Pool::CreateVolatile(1ull << 30);
  ASSERT_TRUE(pool.ok());
  auto store = storage::GraphStore::Create(pool->get());
  ASSERT_TRUE(store.ok());
  tx::TransactionManager mgr(store->get(), nullptr);
  SnbConfig cfg;
  cfg.persons = 300;
  auto ds = GenerateSnb(&mgr, store->get(), cfg);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->total_nodes, ds_->total_nodes);
  EXPECT_EQ(ds->total_relationships, ds_->total_relationships);
  EXPECT_EQ(ds->max_message_id, ds_->max_message_id);
}

TEST_F(LdbcTest, KnowsDegreesArePowerLawish) {
  // The zipf-skewed knows generator must produce a heavy tail: the maximum
  // out-degree should be several times the average.
  auto tx = mgr_->Begin();
  uint64_t total = 0, max_degree = 0;
  for (storage::RecordId p : ds_->persons) {
    uint64_t degree = 0;
    ASSERT_TRUE(tx->ForEachOutgoing(p, [&](auto, const auto& rel) {
                      if (rel.label == ds_->schema.knows) ++degree;
                      return true;
                    }).ok());
    total += degree;
    max_degree = std::max(max_degree, degree);
  }
  double avg = static_cast<double>(total) / ds_->persons.size();
  EXPECT_GT(avg, 2.0);
  EXPECT_GT(static_cast<double>(max_degree), 2.0 * avg);
  ASSERT_TRUE(tx->Commit().ok());
}

TEST_F(LdbcTest, EveryMessageHasCreatorAndRoot) {
  auto tx = mgr_->Begin();
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    storage::RecordId msg =
        ds_->comments[rng.Uniform(ds_->comments.size())];
    // Exactly one hasCreator edge.
    int creators = 0;
    ASSERT_TRUE(tx->ForEachOutgoing(msg, [&](auto, const auto& rel) {
                      if (rel.label == ds_->schema.has_creator) ++creators;
                      return true;
                    }).ok());
    EXPECT_EQ(creators, 1);
    // replyOf chain terminates at a Post.
    storage::RecordId cur = msg;
    for (int hop = 0; hop < 64; ++hop) {
      auto n = tx->GetNode(cur);
      ASSERT_TRUE(n.ok());
      if (n->rec.label == ds_->schema.post) break;
      storage::RecordId next = storage::kNullId;
      ASSERT_TRUE(tx->ForEachOutgoing(cur, [&](auto, const auto& rel) {
                        if (rel.label != ds_->schema.reply_of) return true;
                        next = rel.dst;
                        return false;
                      }).ok());
      ASSERT_NE(next, storage::kNullId) << "dangling replyOf chain";
      cur = next;
    }
  }
  ASSERT_TRUE(tx->Commit().ok());
}

TEST_F(LdbcTest, AllShortReadsReturnResults) {
  for (bool use_index : {false, true}) {
    auto queries = BuildShortReads(ds_->schema, use_index);
    ASSERT_EQ(queries.size(), 12u);
    Rng rng(7);
    for (const auto& q : queries) {
      // Try a few parameters; at least one should produce rows (some
      // persons have no comments etc.).
      uint64_t total = 0;
      for (int i = 0; i < 10; ++i) {
        auto params = DrawShortReadParams(*ds_, q.name, &rng);
        auto r = Run(q.plan, params);
        ASSERT_TRUE(r.ok()) << q.name << ": " << r.status().ToString();
        total += r->rows.size();
      }
      EXPECT_GT(total, 0u) << q.name << " (use_index=" << use_index << ")";
    }
  }
}

TEST_F(LdbcTest, IndexedAndScannedShortReadsAgree) {
  auto scan_queries = BuildShortReads(ds_->schema, false);
  auto index_queries = BuildShortReads(ds_->schema, true);
  Rng rng(11);
  for (size_t i = 0; i < scan_queries.size(); ++i) {
    auto params = DrawShortReadParams(*ds_, scan_queries[i].name, &rng);
    auto a = Run(scan_queries[i].plan, params);
    auto b = Run(index_queries[i].plan, params);
    ASSERT_TRUE(a.ok() && b.ok()) << scan_queries[i].name;
    ASSERT_EQ(a->rows.size(), b->rows.size()) << scan_queries[i].name;
    for (size_t r = 0; r < a->rows.size(); ++r) {
      EXPECT_EQ(a->rows[r].size(), b->rows[r].size());
      for (size_t c = 0; c < a->rows[r].size(); ++c) {
        EXPECT_TRUE(a->rows[r][c] == b->rows[r][c])
            << scan_queries[i].name << " row " << r << " col " << c;
      }
    }
  }
}

TEST_F(LdbcTest, Is1ReturnsFullProfile) {
  auto queries = BuildShortReads(ds_->schema, true);
  auto r = Run(queries[0].plan, {Value::Int(1)});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0].size(), 8u);
  // City id is in the 20M range.
  EXPECT_GE(r->rows[0][5].AsInt(), 20'000'000);
}

TEST_F(LdbcTest, Is2RespectsLimitAndOrder) {
  auto queries = BuildShortReads(ds_->schema, true);
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    auto params = DrawShortReadParams(*ds_, "IS2-post", &rng);
    auto r = Run(queries[1].plan, params);
    ASSERT_TRUE(r.ok());
    ASSERT_LE(r->rows.size(), 10u);
    for (size_t k = 1; k < r->rows.size(); ++k) {
      EXPECT_GE(r->rows[k - 1][2].AsInt(), r->rows[k][2].AsInt())
          << "creationDate must be descending";
    }
  }
}

TEST_F(LdbcTest, AllUpdatesExecuteAndCommit) {
  for (bool use_index : {true, false}) {
    auto queries = BuildUpdates(ds_->schema, &store_->dict(), use_index);
    ASSERT_TRUE(queries.ok());
    Rng rng(23);
    uint64_t rels_before = store_->relationships().size();
    for (const auto& q : *queries) {
      auto params = DrawUpdateParams(ds_, q.name, &rng);
      auto tx = mgr_->Begin();
      auto r = engine_->Execute(q.plan, tx.get(), params,
                                ExecutionMode::kInterpret);
      ASSERT_TRUE(r.ok()) << q.name << ": " << r.status().ToString();
      ASSERT_TRUE(tx->Commit().ok()) << q.name;
    }
    EXPECT_GT(store_->relationships().size(), rels_before);
  }
}

TEST_F(LdbcTest, Iu8CreatesBidirectionalFriendship) {
  auto queries = BuildUpdates(ds_->schema, &store_->dict(), true);
  ASSERT_TRUE(queries.ok());
  // Find IU8.
  const NamedQuery* iu8 = nullptr;
  for (const auto& q : *queries) {
    if (q.name == "IU8") iu8 = &q;
  }
  ASSERT_NE(iu8, nullptr);
  // Create two fresh persons, then befriend them.
  int64_t p1 = ++ds_->max_person_id;
  int64_t p2 = ++ds_->max_person_id;
  storage::RecordId r1, r2;
  {
    auto tx = mgr_->Begin();
    r1 = *tx->CreateNode(ds_->schema.person,
                         {{ds_->schema.id, storage::PVal::Int(p1)}});
    r2 = *tx->CreateNode(ds_->schema.person,
                         {{ds_->schema.id, storage::PVal::Int(p2)}});
    ASSERT_TRUE(tx->Commit().ok());
  }
  {
    auto tx = mgr_->Begin();
    auto r = engine_->Execute(iu8->plan, tx.get(),
                              {Value::Int(p1), Value::Int(p2),
                               Value::Int(123456)},
                              ExecutionMode::kInterpret);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(tx->Commit().ok());
  }
  auto tx = mgr_->Begin();
  int out1 = 0, out2 = 0;
  ASSERT_TRUE(tx->ForEachOutgoing(r1, [&](auto, const auto& rel) {
                    if (rel.label == ds_->schema.knows) ++out1;
                    return true;
                  }).ok());
  ASSERT_TRUE(tx->ForEachOutgoing(r2, [&](auto, const auto& rel) {
                    if (rel.label == ds_->schema.knows) ++out2;
                    return true;
                  }).ok());
  EXPECT_EQ(out1, 1);
  EXPECT_EQ(out2, 1);
}

}  // namespace
}  // namespace poseidon::ldbc
