// Versioned DRAM adjacency cache (ISSUE 6): MVTO-correctness of the cached
// Expand path. The contract under test: ForEachNeighbor through the cache is
// observationally identical to the chain walk for every transaction — hits
// only for read snapshots that cover the array's stamp, fallback for writers,
// older snapshots and in-flight topology, hygiene invalidation/restamping at
// commit, and bounded DRAM via LRU eviction.

#include "tx/adjacency_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <tuple>

#include "jit/jit_query_engine.h"
#include "tx/transaction.h"
#include "util/random.h"

namespace poseidon::tx {
namespace {

using storage::DictCode;
using storage::PVal;
using storage::RecordId;

// (rel_id, rel_label, neighbor) triple as observed by ForEachNeighbor.
using Triple = std::tuple<RecordId, DictCode, RecordId>;

class AdjacencyCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto pool = pmem::Pool::CreateVolatile(256ull << 20);
    ASSERT_TRUE(pool.ok());
    pool_ = std::move(*pool);
    auto store = storage::GraphStore::Create(pool_.get());
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
    indexes_ = std::make_unique<index::IndexManager>(store_.get());
    mgr_ = std::make_unique<TransactionManager>(store_.get(), indexes_.get());
    person_ = *store_->Code("Person");
    city_ = *store_->Code("City");
    knows_ = *store_->Code("knows");
    likes_ = *store_->Code("likes");
    name_ = *store_->Code("name");
  }

  RecordId MakeNode(DictCode label) {
    auto tx = mgr_->Begin();
    auto id = tx->CreateNode(label, {});
    EXPECT_TRUE(id.ok());
    EXPECT_TRUE(tx->Commit().ok());
    return *id;
  }

  RecordId Link(RecordId src, RecordId dst, DictCode label) {
    auto tx = mgr_->Begin();
    auto id = tx->CreateRelationship(src, dst, label, {});
    EXPECT_TRUE(id.ok());
    EXPECT_TRUE(tx->Commit().ok());
    return *id;
  }

  void Unlink(RecordId rel) {
    auto tx = mgr_->Begin();
    EXPECT_TRUE(tx->DeleteRelationship(rel).ok());
    EXPECT_TRUE(tx->Commit().ok());
  }

  // Collects ForEachNeighbor output (the cache-or-fallback path).
  static std::vector<Triple> Neighbors(Transaction* tx, RecordId node,
                                       AdjDir dir) {
    std::vector<Triple> out;
    EXPECT_TRUE(tx->ForEachNeighbor(node, dir,
                                    [&](RecordId rel, DictCode label,
                                        RecordId neighbor) {
                                      out.emplace_back(rel, label, neighbor);
                                      return true;
                                    })
                    .ok());
    return out;
  }

  // Collects the same triples through the raw chain walk (ground truth).
  static std::vector<Triple> ChainNeighbors(Transaction* tx, RecordId node,
                                            AdjDir dir) {
    std::vector<Triple> out;
    auto fn = [&](RecordId rel, const storage::RelationshipRecord& rec) {
      out.emplace_back(rel, rec.label,
                       dir == AdjDir::kOut ? rec.dst : rec.src);
      return true;
    };
    EXPECT_TRUE((dir == AdjDir::kOut ? tx->ForEachOutgoing(node, fn)
                                     : tx->ForEachIncoming(node, fn))
                    .ok());
    return out;
  }

  AdjacencyCache& cache() { return mgr_->adjacency_cache(); }

  std::unique_ptr<pmem::Pool> pool_;
  std::unique_ptr<storage::GraphStore> store_;
  std::unique_ptr<index::IndexManager> indexes_;
  std::unique_ptr<TransactionManager> mgr_;
  DictCode person_, city_, knows_, likes_, name_;
};

TEST_F(AdjacencyCacheTest, SecondReadHitsAndMatchesChainWalk) {
  RecordId hub = MakeNode(person_);
  std::vector<RecordId> spokes;
  for (int i = 0; i < 8; ++i) {
    spokes.push_back(MakeNode(person_));
    Link(hub, spokes.back(), i % 2 == 0 ? knows_ : likes_);
  }
  auto before = cache().stats();
  auto tx1 = mgr_->Begin();
  auto first = Neighbors(tx1.get(), hub, AdjDir::kOut);
  EXPECT_TRUE(tx1->Commit().ok());
  auto mid = cache().stats();
  EXPECT_EQ(mid.misses, before.misses + 1);  // build on first touch
  EXPECT_EQ(mid.inserts, before.inserts + 1);

  auto tx2 = mgr_->Begin();
  auto second = Neighbors(tx2.get(), hub, AdjDir::kOut);
  auto chain = ChainNeighbors(tx2.get(), hub, AdjDir::kOut);
  EXPECT_TRUE(tx2->Commit().ok());
  auto after = cache().stats();
  EXPECT_EQ(after.hits, mid.hits + 1);
  EXPECT_EQ(first, second);
  EXPECT_EQ(second, chain);
  EXPECT_EQ(second.size(), 8u);
}

TEST_F(AdjacencyCacheTest, TopologyChangeInvalidatesAndRebuilds) {
  RecordId hub = MakeNode(person_);
  RecordId a = MakeNode(person_);
  Link(hub, a, knows_);
  {
    auto tx = mgr_->Begin();
    ASSERT_EQ(Neighbors(tx.get(), hub, AdjDir::kOut).size(), 1u);  // warm
    ASSERT_TRUE(tx->Commit().ok());
  }
  auto warmed = cache().stats();

  RecordId b = MakeNode(person_);
  RecordId rel_b = Link(hub, b, likes_);  // commit invalidates hub
  auto after_insert = cache().stats();
  EXPECT_GT(after_insert.invalidations, warmed.invalidations);

  auto tx = mgr_->Begin();
  auto got = Neighbors(tx.get(), hub, AdjDir::kOut);  // rebuild, fresh stamp
  EXPECT_EQ(got, ChainNeighbors(tx.get(), hub, AdjDir::kOut));
  ASSERT_EQ(got.size(), 2u);
  ASSERT_TRUE(tx->Commit().ok());

  Unlink(rel_b);  // deletes invalidate too
  auto tx2 = mgr_->Begin();
  auto got2 = Neighbors(tx2.get(), hub, AdjDir::kOut);
  ASSERT_EQ(got2.size(), 1u);
  EXPECT_EQ(std::get<2>(got2[0]), a);
  ASSERT_TRUE(tx2->Commit().ok());
}

TEST_F(AdjacencyCacheTest, WriterSeesOwnEdgesViaFallback) {
  RecordId hub = MakeNode(person_);
  RecordId a = MakeNode(person_);
  Link(hub, a, knows_);
  {
    auto tx = mgr_->Begin();
    ASSERT_EQ(Neighbors(tx.get(), hub, AdjDir::kOut).size(), 1u);  // warm
    ASSERT_TRUE(tx->Commit().ok());
  }

  RecordId b = MakeNode(person_);
  auto writer = mgr_->Begin();
  ASSERT_TRUE(writer->CreateRelationship(hub, b, likes_, {}).ok());
  // hub is in the writer's write set: must fall back and see the in-flight
  // edge; GetCachedAdjacency refuses to serve (or poison) the cache.
  EXPECT_EQ(writer->GetCachedAdjacency(hub, AdjDir::kOut), nullptr);
  auto own = Neighbors(writer.get(), hub, AdjDir::kOut);
  EXPECT_EQ(own.size(), 2u);
  writer->Abort();

  // The abort left the published array untouched: readers still hit it and
  // see only the committed edge.
  auto before = cache().stats();
  auto tx = mgr_->Begin();
  auto got = Neighbors(tx.get(), hub, AdjDir::kOut);
  ASSERT_TRUE(tx->Commit().ok());
  EXPECT_EQ(cache().stats().hits, before.hits + 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(std::get<2>(got[0]), a);
}

TEST_F(AdjacencyCacheTest, OlderSnapshotFallsBackToItsOwnView) {
  RecordId hub = MakeNode(person_);
  RecordId a = MakeNode(person_);
  Link(hub, a, knows_);

  auto old_reader = mgr_->Begin();  // snapshot before the topology change
  RecordId b = MakeNode(person_);
  Link(hub, b, likes_);             // newer committed topology

  // A current reader builds + serves the 2-edge array.
  auto fresh = mgr_->Begin();
  auto now = Neighbors(fresh.get(), hub, AdjDir::kOut);
  EXPECT_EQ(now.size(), 2u);
  EXPECT_TRUE(fresh->Commit().ok());

  // The old snapshot must not be served that array: its visible node version
  // has an older bts, so it chain-walks and sees only its own edge.
  auto old_view = Neighbors(old_reader.get(), hub, AdjDir::kOut);
  ASSERT_EQ(old_view.size(), 1u);
  EXPECT_EQ(std::get<2>(old_view[0]), a);
  EXPECT_EQ(old_view, ChainNeighbors(old_reader.get(), hub, AdjDir::kOut));
  EXPECT_TRUE(old_reader->Commit().ok());
}

TEST_F(AdjacencyCacheTest, PropertyOnlyCommitRestampsInsteadOfInvalidating) {
  RecordId hub = MakeNode(person_);
  Link(hub, MakeNode(person_), knows_);
  {
    auto tx = mgr_->Begin();
    ASSERT_EQ(Neighbors(tx.get(), hub, AdjDir::kOut).size(), 1u);  // warm
    ASSERT_TRUE(tx->Commit().ok());
  }
  auto warmed = cache().stats();

  {
    auto tx = mgr_->Begin();
    ASSERT_TRUE(tx->SetNodeProperty(hub, name_, PVal::Int(42)).ok());
    ASSERT_TRUE(tx->Commit().ok());
  }
  auto after = cache().stats();
  EXPECT_EQ(after.invalidations, warmed.invalidations);  // restamped

  // The carried-forward entry still hits under the bumped node bts.
  auto tx = mgr_->Begin();
  auto got = Neighbors(tx.get(), hub, AdjDir::kOut);
  ASSERT_TRUE(tx->Commit().ok());
  EXPECT_EQ(cache().stats().hits, after.hits + 1);
  EXPECT_EQ(got.size(), 1u);
}

TEST_F(AdjacencyCacheTest, IncomingMirrorsOutgoing) {
  // Dense little digraph; every out-edge must appear exactly once as an
  // in-edge of its destination, through the cache, in both directions.
  constexpr int kN = 6;
  std::vector<RecordId> nodes;
  for (int i = 0; i < kN; ++i) nodes.push_back(MakeNode(person_));
  for (int i = 0; i < kN; ++i) {
    for (int j = 0; j < kN; ++j) {
      if (i != j && (i + j) % 3 != 0) Link(nodes[i], nodes[j], knows_);
    }
  }
  for (int pass = 0; pass < 2; ++pass) {  // pass 0 builds, pass 1 hits
    auto tx = mgr_->Begin();
    std::vector<std::pair<RecordId, RecordId>> out_pairs, in_pairs;
    for (RecordId n : nodes) {
      for (auto& [rel, label, neighbor] : Neighbors(tx.get(), n, AdjDir::kOut))
        out_pairs.emplace_back(n, neighbor);
      for (auto& [rel, label, neighbor] : Neighbors(tx.get(), n, AdjDir::kIn))
        in_pairs.emplace_back(neighbor, n);
    }
    std::sort(out_pairs.begin(), out_pairs.end());
    std::sort(in_pairs.begin(), in_pairs.end());
    EXPECT_EQ(out_pairs, in_pairs) << "pass " << pass;
    ASSERT_TRUE(tx->Commit().ok());
  }
}

TEST_F(AdjacencyCacheTest, DisabledCacheStillServesCorrectly) {
  RecordId hub = MakeNode(person_);
  Link(hub, MakeNode(person_), knows_);
  cache().set_enabled(false);
  auto before = cache().stats();
  auto tx = mgr_->Begin();
  auto got = Neighbors(tx.get(), hub, AdjDir::kOut);
  EXPECT_EQ(got, ChainNeighbors(tx.get(), hub, AdjDir::kOut));
  EXPECT_EQ(got.size(), 1u);
  ASSERT_TRUE(tx->Commit().ok());
  auto after = cache().stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.entries, 0u);
  cache().set_enabled(true);
}

TEST_F(AdjacencyCacheTest, RandomizedCacheVsChainEquivalence) {
  // Interleave topology mutations with reads across snapshots; after every
  // committed round, the cached path must agree with the chain walk for every
  // node and both directions — twice, so the second sweep exercises hits.
  constexpr int kN = 10;
  constexpr int kRounds = 50;
  Rng rng(2024);
  std::vector<RecordId> nodes;
  for (int i = 0; i < kN; ++i) nodes.push_back(MakeNode(person_));
  std::vector<RecordId> live_rels;

  for (int round = 0; round < kRounds; ++round) {
    auto tx = mgr_->Begin();
    if (!live_rels.empty() && rng.Uniform(3) == 0) {
      size_t pick = rng.Uniform(live_rels.size());
      ASSERT_TRUE(tx->DeleteRelationship(live_rels[pick]).ok());
      live_rels.erase(live_rels.begin() + pick);
    } else {
      auto rel = tx->CreateRelationship(nodes[rng.Uniform(kN)],
                                        nodes[rng.Uniform(kN)],
                                        rng.Uniform(2) ? knows_ : likes_, {});
      ASSERT_TRUE(rel.ok());
      live_rels.push_back(*rel);
    }
    // Sometimes a property write rides along (restamp interleaving).
    if (rng.Uniform(4) == 0) {
      ASSERT_TRUE(tx->SetNodeProperty(nodes[rng.Uniform(kN)], name_,
                                      PVal::Int(round))
                      .ok());
    }
    ASSERT_TRUE(tx->Commit().ok());

    auto reader = mgr_->Begin();
    for (int sweep = 0; sweep < 2; ++sweep) {
      for (RecordId n : nodes) {
        for (AdjDir dir : {AdjDir::kOut, AdjDir::kIn}) {
          EXPECT_EQ(Neighbors(reader.get(), n, dir),
                    ChainNeighbors(reader.get(), n, dir))
              << "round " << round << " node " << n << " dir "
              << static_cast<int>(dir);
        }
      }
    }
    ASSERT_TRUE(reader->Commit().ok());
  }
  auto st = cache().stats();
  EXPECT_GT(st.hits, 0u);
  EXPECT_GT(st.invalidations, 0u);
}

TEST_F(AdjacencyCacheTest, EvictionKeepsBytesBounded) {
  // Standalone cache instance with a tiny budget: inserting far more than
  // fits must evict LRU entries and keep the byte count at the cap.
  AdjacencyCacheOptions opts;
  opts.max_bytes = 4096;
  AdjacencyCache small(opts);
  for (RecordId n = 1; n <= 64; ++n) {
    std::vector<CachedNeighbor> edges(10);
    small.Insert(n, AdjDir::kOut, /*stamp=*/1, std::move(edges));
  }
  auto st = small.stats();
  EXPECT_GT(st.evictions, 0u);
  EXPECT_LE(st.bytes, opts.max_bytes);
  EXPECT_EQ(st.inserts, 64u);
  EXPECT_EQ(st.entries, st.inserts - st.evictions);
  EXPECT_GT(st.entries, 0u);  // eviction trims to budget, never to empty
  // A fresh insert after heavy eviction is still immediately servable.
  small.Insert(100, AdjDir::kOut, /*stamp=*/1, {});
  EXPECT_NE(small.Lookup(100, AdjDir::kOut, 1), nullptr);
}

TEST_F(AdjacencyCacheTest, StaleStampLookupSelfHeals) {
  AdjacencyCache c;
  c.Insert(7, AdjDir::kOut, /*stamp=*/5, {});
  EXPECT_EQ(c.Lookup(7, AdjDir::kOut, /*stamp=*/9), nullptr);  // stale: erased
  EXPECT_EQ(c.stats().entries, 0u);
  // Restamp only applies when the entry still reflects old_stamp.
  c.Insert(7, AdjDir::kOut, 5, {});
  c.Restamp(7, /*old_stamp=*/4, /*new_stamp=*/9);  // mismatch: no-op
  EXPECT_NE(c.Lookup(7, AdjDir::kOut, 5), nullptr);
  c.Restamp(7, 5, 9);
  EXPECT_NE(c.Lookup(7, AdjDir::kOut, 9), nullptr);
}

// --- Interpreter Expand over mutating topology ----------------------------

TEST_F(AdjacencyCacheTest, ExpandLabelFilterAcrossConcurrentDeletion) {
  // p0 -knows-> p1(Person), p0 -knows-> c(City). Expand with a Person node
  // filter returns p1 only. A reader whose snapshot predates the deletion of
  // p1 keeps seeing it (served or chain-walked); post-deletion snapshots see
  // an empty result, exercising the interpreter's deleted-neighbor skip.
  auto engine = jit::JitQueryEngine::Create(store_.get(), indexes_.get(), 2,
                                            /*cache=*/nullptr);
  ASSERT_TRUE(engine.ok());
  RecordId p0 = MakeNode(person_);
  RecordId p1 = MakeNode(person_);
  RecordId c = MakeNode(city_);
  RecordId rel_p = Link(p0, p1, knows_);
  Link(p0, c, knows_);

  query::Plan plan = query::PlanBuilder()
                         .NodeScan(person_)
                         .FilterRecordId(
                             0, query::Expr::Literal(query::Value::Int(
                                    static_cast<int64_t>(p0))))
                         .Expand(0, query::Direction::kOut, knows_, person_)
                         .Count()
                         .Build();

  auto count_in = [&](Transaction* tx) {
    auto r = (*engine)->Execute(plan, tx, {}, jit::ExecutionMode::kInterpret);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->rows[0][0].AsInt();
  };

  {
    auto tx = mgr_->Begin();
    EXPECT_EQ(count_in(tx.get()), 1);  // p1 yes, city filtered out
    ASSERT_TRUE(tx->Commit().ok());
  }

  auto old_reader = mgr_->Begin();
  {
    auto del = mgr_->Begin();  // concurrent deletion of the p1 edge + node
    ASSERT_TRUE(del->DeleteRelationship(rel_p).ok());
    ASSERT_TRUE(del->DeleteNode(p1).ok());
    ASSERT_TRUE(del->Commit().ok());
  }
  EXPECT_EQ(count_in(old_reader.get()), 1);  // snapshot predates the delete
  ASSERT_TRUE(old_reader->Commit().ok());

  auto tx = mgr_->Begin();
  EXPECT_EQ(count_in(tx.get()), 0);
  ASSERT_TRUE(tx->Commit().ok());
}

// --- Races: concurrent builds, invalidations and readers (TSAN food) ------

TEST_F(AdjacencyCacheTest, ConcurrentMutatorsAndCachedReadersStayCoherent) {
  constexpr int kHubs = 4;
  constexpr int kIters = 150;
  std::vector<RecordId> hubs, spokes;
  for (int i = 0; i < kHubs; ++i) hubs.push_back(MakeNode(person_));
  for (int i = 0; i < 16; ++i) spokes.push_back(MakeNode(person_));
  for (int i = 0; i < kHubs; ++i) Link(hubs[i], spokes[i], knows_);

  std::atomic<uint64_t> commits{0}, aborts{0};
  auto writer = [&](int seed) {
    Rng rng(seed);
    for (int i = 0; i < kIters; ++i) {
      RecordId hub = hubs[rng.Uniform(kHubs)];
      RecordId spoke = spokes[rng.Uniform(spokes.size())];
      auto tx = mgr_->Begin();
      auto rel = tx->CreateRelationship(hub, spoke, likes_, {});
      if (!rel.ok() || !tx->Commit().ok()) {
        aborts.fetch_add(1);
        continue;
      }
      commits.fetch_add(1);
      auto tx2 = mgr_->Begin();
      if (tx2->DeleteRelationship(*rel).ok() && tx2->Commit().ok()) {
        commits.fetch_add(1);
      } else {
        aborts.fetch_add(1);
      }
    }
  };
  auto reader = [&](int seed) {
    Rng rng(seed);
    for (int i = 0; i < kIters; ++i) {
      RecordId hub = hubs[rng.Uniform(kHubs)];
      auto tx = mgr_->Begin();
      // Cached and chain walks inside one snapshot must agree whenever both
      // succeed; aborts (foreign write locks) are legitimate outcomes.
      std::vector<Triple> cached, chain;
      auto cs = tx->ForEachNeighbor(hub, AdjDir::kOut,
                                    [&](RecordId r, DictCode l, RecordId n) {
                                      cached.emplace_back(r, l, n);
                                      return true;
                                    });
      if (!cs.ok()) {
        tx->Abort();
        continue;
      }
      auto ws = tx->ForEachOutgoing(
          hub, [&](RecordId r, const storage::RelationshipRecord& rec) {
            chain.emplace_back(r, rec.label, rec.dst);
            return true;
          });
      if (ws.ok()) {
        EXPECT_EQ(cached, chain) << "hub " << hub;
        // Served topology is real: every rel resolves with matching
        // endpoints in this same snapshot.
        for (auto& [rel, label, neighbor] : cached) {
          auto rr = tx->GetRelationship(rel);
          if (!rr.ok()) continue;  // foreign lock; visibility already checked
          EXPECT_EQ(rr->rec.src, hub);
          EXPECT_EQ(rr->rec.dst, neighbor);
        }
      }
      tx->Abort();
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(writer, 1);
  threads.emplace_back(writer, 2);
  threads.emplace_back(reader, 3);
  threads.emplace_back(reader, 4);
  for (auto& t : threads) t.join();
  EXPECT_GT(commits.load(), 0u);
}

}  // namespace
}  // namespace poseidon::tx
