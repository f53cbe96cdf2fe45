// Morsel-driver tests: the one loop behind every ExecutionMode.
//
// A cross-mode equivalence table runs each operator shape over each source
// kind in all four modes and checks both the rows and the morsel accounting
// (kJit runs every morsel compiled, kInterpret none, a satisfied Limit stops
// a serial run after its first morsel). Regression tests pin the driver's
// lifecycle and scheduling guarantees: an engine destroyed with an adaptive
// compile in flight drains it first, and parallel queries wait for their own
// morsels only, never for the whole worker pool, threads share built plans,
// a memo hit never waits for another plan's compile, and an adaptive rerun
// never waits for its own. The pipelined-scan tests pin the per-word match
// queue of the compiled NodeScan and, under read latency, its node and
// property prefetches; their fixture also carries the Expand tests
// (version-chain neighbors in later handle slots, exact per-execution
// adjacency-cache counts).

#include "jit/jit_query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>

namespace poseidon::jit {
namespace {

using query::AggFn;
using query::CmpOp;
using query::Expr;
using query::Plan;
using query::PlanBuilder;
using query::QueryResult;
using query::Value;
using storage::DictCode;
using storage::PVal;
using storage::RecordId;

// 6000 persons span three NodeScan morsels; deleting every third one leaves
// partially filled occupancy words and 4000 index matches (two morsels).
constexpr int kPersons = 6000;
constexpr int kLivePersons = kPersons - kPersons / 3;
constexpr int kCities = 3;
constexpr int kTagged = 100;  // persons with tag = 1: ids [0, 100)
constexpr uint64_t kLimit = 5;
constexpr int64_t kAgeBound = 40;

enum class Source { kNodeScan, kIndexRangeScan, kCreate };
enum class Shape {
  kFilterProject,
  kCount,
  kGroupBy,
  kOrderByLimit,
  kLimit,
  kHashJoin,
};

const Source kSources[] = {Source::kNodeScan, Source::kIndexRangeScan,
                           Source::kCreate};
const Shape kShapes[] = {Shape::kFilterProject, Shape::kCount,
                         Shape::kGroupBy,       Shape::kOrderByLimit,
                         Shape::kLimit,         Shape::kHashJoin};
// kAdaptive before kJit: its first run starts interpreted with the compile
// in flight instead of hitting the code kJit memoized.
const ExecutionMode kModes[] = {
    ExecutionMode::kInterpret, ExecutionMode::kInterpretParallel,
    ExecutionMode::kAdaptive, ExecutionMode::kJit};

const char* SourceName(Source s) {
  switch (s) {
    case Source::kNodeScan: return "NodeScan";
    case Source::kIndexRangeScan: return "IndexRangeScan";
    case Source::kCreate: return "Create";
  }
  return "?";
}

const char* ShapeName(Shape s) {
  switch (s) {
    case Shape::kFilterProject: return "Filter+Project";
    case Shape::kCount: return "Filter+Count";
    case Shape::kGroupBy: return "GroupBy";
    case Shape::kOrderByLimit: return "OrderBy+Limit";
    case Shape::kLimit: return "Filter+Limit";
    case Shape::kHashJoin: return "HashJoin";
  }
  return "?";
}

const char* ModeName(ExecutionMode m) {
  switch (m) {
    case ExecutionMode::kInterpret: return "kInterpret";
    case ExecutionMode::kInterpretParallel: return "kInterpretParallel";
    case ExecutionMode::kJit: return "kJit";
    case ExecutionMode::kAdaptive: return "kAdaptive";
  }
  return "?";
}

bool Serial(ExecutionMode m) {
  return m == ExecutionMode::kInterpret || m == ExecutionMode::kJit;
}

/// Rows in emission order (serial modes emit in slot order).
std::vector<std::string> Rows(const QueryResult& r) {
  std::vector<std::string> out;
  for (const auto& t : r.rows) {
    std::string k;
    for (const auto& v : t) {
      k += std::to_string(static_cast<int>(v.kind())) + ":" +
           std::to_string(v.raw()) + "|";
    }
    out.push_back(std::move(k));
  }
  return out;
}

/// Order-insensitive row fingerprint (parallel morsels finish in any order).
std::vector<std::string> Fingerprint(const QueryResult& r) {
  std::vector<std::string> out = Rows(r);
  std::sort(out.begin(), out.end());
  return out;
}

class MorselDriverTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto pool = pmem::Pool::CreateVolatile(256ull << 20);
    ASSERT_TRUE(pool.ok());
    pool_ = pool->release();
    auto store = storage::GraphStore::Create(pool_);
    ASSERT_TRUE(store.ok());
    store_ = store->release();
    indexes_ = new index::IndexManager(store_);
    mgr_ = new tx::TransactionManager(store_, indexes_);
    auto engine = JitQueryEngine::Create(store_, indexes_, 4, nullptr);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = engine->release();

    person_ = *store_->Code("Person");
    city_ = *store_->Code("City");
    id_ = *store_->Code("id");
    age_ = *store_->Code("age");
    city_key_ = *store_->Code("city");
    cid_ = *store_->Code("cid");
    tag_ = *store_->Code("tag");

    std::vector<RecordId> persons;
    {
      auto tx = mgr_->Begin();
      // Two cities per cid: every hash-join probe matches two build rows.
      for (int c = 0; c < 2 * kCities; ++c) {
        ASSERT_TRUE(
            tx->CreateNode(city_, {{cid_, PVal::Int(c % kCities)}}).ok());
      }
      for (int i = 0; i < kPersons; ++i) {
        auto id = tx->CreateNode(
            person_, {{id_, PVal::Int(i)},
                      {age_, PVal::Int(i % 90)},
                      {city_key_, PVal::Int(i % kCities)},
                      {tag_, PVal::Int(i < kTagged ? 1 : 0)}});
        ASSERT_TRUE(id.ok());
        persons.push_back(*id);
      }
      ASSERT_TRUE(tx->Commit().ok());
    }
    {
      auto tx = mgr_->Begin();
      for (int i = 0; i < kPersons; i += 3) {
        ASSERT_TRUE(tx->DeleteNode(persons[i]).ok());
      }
      ASSERT_TRUE(tx->Commit().ok());
    }
    ASSERT_TRUE(
        indexes_->CreateIndex(person_, id_, index::Placement::kHybrid).ok());
  }

  static void TearDownTestSuite() {
    delete engine_;
    delete mgr_;
    delete indexes_;
    delete store_;
    delete pool_;
  }

  static PlanBuilder SourceBuilder(Source s) {
    switch (s) {
      case Source::kNodeScan:
        return PlanBuilder().NodeScan(person_);
      case Source::kIndexRangeScan:
        return PlanBuilder().IndexRangeScan(
            person_, id_, Expr::Literal(Value::Int(0)),
            Expr::Literal(Value::Int(kPersons)));
      case Source::kCreate:
        return PlanBuilder().CreateNode(
            person_, {id_, age_, city_key_, tag_},
            {Expr::Literal(Value::Int(90001)), Expr::Literal(Value::Int(7)),
             Expr::Literal(Value::Int(1)), Expr::Literal(Value::Int(1))});
    }
    return PlanBuilder();
  }

  /// Every shape starts from a Person node in column 0 and ends in plain
  /// values, so Create runs (fresh record ids) compare across modes.
  static Plan MakePlan(Source src, Shape shape) {
    PlanBuilder b = SourceBuilder(src);
    Expr young = Expr::Literal(Value::Int(kAgeBound));
    switch (shape) {
      case Shape::kFilterProject:
        return std::move(b)
            .FilterProperty(0, age_, CmpOp::kLt, young)
            .Project({Expr::Property(0, id_), Expr::Property(0, age_)})
            .Build();
      case Shape::kCount:
        return std::move(b)
            .FilterProperty(0, age_, CmpOp::kLt, young)
            .Count()
            .Build();
      case Shape::kGroupBy:
        return std::move(b)
            .GroupBy(Expr::Property(0, city_key_), AggFn::kSum,
                     Expr::Property(0, age_))
            .Build();
      case Shape::kOrderByLimit:
        return std::move(b)
            .Project({Expr::Property(0, id_)})
            .OrderBy(0, /*desc=*/true, /*limit=*/10)
            .Build();
      case Shape::kLimit:
        // Tagged persons all live in the first morsel of either scan
        // source, so the rows are deterministic even in parallel modes.
        return std::move(b)
            .FilterProperty(0, tag_, CmpOp::kEq, Expr::Literal(Value::Int(1)))
            .Limit(kLimit)
            .Project({Expr::Property(0, id_)})
            .Build();
      case Shape::kHashJoin: {
        Plan build = PlanBuilder()
                         .NodeScan(city_)
                         .Project({Expr::Property(0, cid_)})
                         .Build();
        return std::move(b)
            .Project({Expr::Column(0), Expr::Property(0, city_key_)})
            .HashJoin(std::move(build), /*left_key_col=*/1,
                      /*right_key_col=*/0)
            .Project({Expr::Property(0, id_), Expr::Column(2)})
            .Build();
      }
    }
    return Plan();
  }

  static uint64_t Morsels(uint64_t units) {
    return (units + kMorselSize - 1) / kMorselSize;
  }

  static uint64_t ExpectedMorsels(Source s) {
    switch (s) {
      case Source::kNodeScan: return Morsels(store_->nodes().NumSlots());
      case Source::kIndexRangeScan: return Morsels(kLivePersons);
      case Source::kCreate: return 1;
    }
    return 0;
  }

  /// Runs `plan` in its own transaction; Create runs are rolled back so the
  /// graph stays fixed across modes.
  static Result<QueryResult> Run(const Plan& plan, Source src,
                                 ExecutionMode mode, ExecStats* stats,
                                 JitQueryEngine* engine = engine_) {
    auto tx = mgr_->Begin();
    auto r = engine->Execute(plan, tx.get(), {}, mode, stats);
    if (src == Source::kCreate || !r.ok()) {
      tx->Abort();
    } else {
      EXPECT_TRUE(tx->Commit().ok());
    }
    return r;
  }

  /// An IndexScan with 60 Filters and a Project (62 operators), whose
  /// compile takes long enough to show a wait behind it (230–760 ms on a
  /// 4-vCPU host, where 30 Filters took 106–341 ms, too near the harness's
  /// 100 ms skip). `base` keeps the plans of different tests apart.
  static Plan LargePlan(int64_t base) {
    PlanBuilder b = PlanBuilder().IndexScan(person_, id_,
                                            Expr::Literal(Value::Int(8)));
    for (int i = 0; i < 60; ++i) {
      PlanBuilder next = std::move(b).FilterProperty(
          0, age_, CmpOp::kNe, Expr::Literal(Value::Int(base + i)));
      b = std::move(next);
    }
    return std::move(b).Project({Expr::Property(0, id_)}).Build();
  }

  /// Queues `large`'s background compile in `engine` with a kAdaptive run
  /// (which generates the IR inline and leaves the pass cascade, object
  /// emission and linking to the compile worker), then repeats `probe`
  /// until the compile lands. A probe that queued behind the compile lock
  /// waits out nearly the whole compile; a host stall under a parallel test
  /// run can pass 20 ms, and stalls grow with load just as the compile
  /// does, so the slowest probe must stay under max(20 ms, compile / 4).
  /// Skips when the compile took under 100 ms, too short to show a wait.
  template <typename Probe>
  static void ExpectNoWaitDuringCompile(JitQueryEngine* engine,
                                        const Plan& large, const char* what,
                                        Probe&& probe) {
    using Clock = std::chrono::steady_clock;
    ASSERT_GE(large.CountOps(), 32);
    ExecStats stats;
    ASSERT_TRUE(Run(large, Source::kNodeScan, ExecutionMode::kAdaptive,
                    &stats, engine)
                    .ok());
    const auto queued = Clock::now();
    std::atomic<bool> landed{false};
    std::atomic<int64_t> landed_ns{0};
    std::thread waiter([&] {
      engine->WaitForBackgroundCompiles();
      landed_ns.store((Clock::now() - queued).count());
      landed.store(true, std::memory_order_release);
    });
    Clock::duration worst{0};
    int probes = 0;
    while (!landed.load(std::memory_order_acquire)) {
      const auto t0 = Clock::now();
      probe();
      worst = std::max(worst, Clock::now() - t0);
      ++probes;
    }
    waiter.join();
    const auto compile = Clock::duration(landed_ns.load());
    const double compile_ms =
        std::chrono::duration<double, std::milli>(compile).count();
    if (compile < std::chrono::milliseconds(100)) {
      GTEST_SKIP() << "the background compile took only " << compile_ms
                   << " ms, too short to show a wait";
    }
    EXPECT_GT(probes, 0);
    const auto bound =
        std::max<Clock::duration>(std::chrono::milliseconds(20), compile / 4);
    EXPECT_LT(worst, bound) << "slowest of " << probes << " " << what
                            << " during a " << compile_ms << " ms compile";
  }

  static pmem::Pool* pool_;
  static storage::GraphStore* store_;
  static index::IndexManager* indexes_;
  static tx::TransactionManager* mgr_;
  static JitQueryEngine* engine_;
  static DictCode person_, city_, id_, age_, city_key_, cid_, tag_;
};

pmem::Pool* MorselDriverTest::pool_ = nullptr;
storage::GraphStore* MorselDriverTest::store_ = nullptr;
index::IndexManager* MorselDriverTest::indexes_ = nullptr;
tx::TransactionManager* MorselDriverTest::mgr_ = nullptr;
JitQueryEngine* MorselDriverTest::engine_ = nullptr;
DictCode MorselDriverTest::person_, MorselDriverTest::city_,
    MorselDriverTest::id_, MorselDriverTest::age_,
    MorselDriverTest::city_key_, MorselDriverTest::cid_,
    MorselDriverTest::tag_;

TEST_F(MorselDriverTest, EveryShapeAndSourceMatchesAcrossModes) {
  ASSERT_GE(ExpectedMorsels(Source::kNodeScan), 3u);
  ASSERT_GE(ExpectedMorsels(Source::kIndexRangeScan), 2u);
  int64_t young_live = 0;
  for (int i = 0; i < kPersons; ++i) {
    if (i % 3 != 0 && i % 90 < kAgeBound) ++young_live;
  }

  for (Source src : kSources) {
    for (Shape shape : kShapes) {
      Plan plan = MakePlan(src, shape);
      const uint64_t morsels = ExpectedMorsels(src);
      const bool limited = shape == Shape::kLimit;
      std::vector<std::string> expected;
      for (ExecutionMode mode : kModes) {
        SCOPED_TRACE(std::string(SourceName(src)) + " / " + ShapeName(shape) +
                     " / " + ModeName(mode));
        ExecStats stats;
        auto r = Run(plan, src, mode, &stats);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        if (mode == ExecutionMode::kInterpret) {
          expected = Fingerprint(*r);
          ASSERT_FALSE(expected.empty());
          if (shape == Shape::kCount && src != Source::kCreate) {
            EXPECT_EQ(r->rows[0][0].AsInt(), young_live);
          }
          if (limited && src != Source::kCreate) {
            EXPECT_EQ(r->rows.size(), kLimit);
          }
        }
        EXPECT_EQ(Fingerprint(*r), expected);

        const uint64_t ran = stats.jit_morsels + stats.interpreted_morsels;
        if (limited && Serial(mode)) {
          EXPECT_EQ(ran, 1u) << "a satisfied Limit stops a serial run";
        } else if (limited) {
          EXPECT_GE(ran, 1u);
          EXPECT_LE(ran, morsels);
        } else {
          EXPECT_EQ(ran, morsels);
        }
        switch (mode) {
          case ExecutionMode::kInterpret:
          case ExecutionMode::kInterpretParallel:
            EXPECT_EQ(stats.jit_morsels, 0u);
            EXPECT_FALSE(stats.used_jit);
            break;
          case ExecutionMode::kJit:
            EXPECT_FALSE(stats.jit_fallback);
            EXPECT_EQ(stats.interpreted_morsels, 0u);
            EXPECT_TRUE(stats.used_jit);
            break;
          case ExecutionMode::kAdaptive:
            EXPECT_EQ(stats.used_jit, stats.jit_morsels > 0);
            break;
        }
      }
    }
  }

  // Once the background compiles landed, adaptive runs hit the memo and
  // run every morsel compiled — on the pool when there are several.
  engine_->WaitForBackgroundCompiles();
  for (Source src : kSources) {
    for (Shape shape : kShapes) {
      SCOPED_TRACE(std::string(SourceName(src)) + " / " + ShapeName(shape));
      Plan plan = MakePlan(src, shape);
      ExecStats stats;
      auto r = Run(plan, src, ExecutionMode::kAdaptive, &stats);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(stats.memo_hit);
      EXPECT_EQ(stats.interpreted_morsels, 0u);
      EXPECT_GE(stats.jit_morsels, 1u);
    }
  }
}

TEST_F(MorselDriverTest, CancelledTokenRunsNoMorselInAnyMode) {
  // The token is checked before each morsel, so a query cancelled before it
  // starts runs nothing — not even a Create source.
  const uint64_t nodes_before = store_->nodes().size();
  for (Source src : {Source::kNodeScan, Source::kCreate}) {
    Plan plan = MakePlan(src, Shape::kCount);
    for (ExecutionMode mode : kModes) {
      SCOPED_TRACE(std::string(SourceName(src)) + " / " + ModeName(mode));
      auto tx = mgr_->Begin();
      tx->cancel_token()->Cancel();
      ExecStats stats;
      auto r = engine_->Execute(plan, tx.get(), {}, mode, &stats);
      ASSERT_FALSE(r.ok());
      EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
      EXPECT_TRUE(stats.cancelled);
      EXPECT_EQ(stats.jit_morsels + stats.interpreted_morsels, 0u);
      tx->Abort();
    }
  }
  engine_->WaitForBackgroundCompiles();
  EXPECT_EQ(store_->nodes().size(), nodes_before);
}

TEST_F(MorselDriverTest, EngineTeardownDrainsInFlightAdaptiveCompile) {
  // Regression: an engine destroyed while an adaptive compile was still in
  // flight freed the JitEngine under the detached compile thread
  // (heap-use-after-free under ASan). The engine-owned compile worker now
  // drains and joins before the JitEngine goes away.
  Plan plan = MakePlan(Source::kNodeScan, Shape::kCount);
  for (int i = 0; i < 8; ++i) {
    auto engine = JitQueryEngine::Create(store_, indexes_, 2, nullptr);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ExecStats stats;
    auto r = Run(plan, Source::kNodeScan, ExecutionMode::kAdaptive, &stats,
                 engine->get());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(stats.memo_hit) << "each engine starts with an empty memo";
    // No WaitForBackgroundCompiles: the compile is queued or running here.
  }
}

TEST_F(MorselDriverTest, ParallelQueryWaitsOnlyForItsOwnMorsels) {
  // Regression: parallel and adaptive queries waited for the whole pool to
  // go idle, so an unrelated long task on one worker stalled them.
  auto engine = JitQueryEngine::Create(store_, indexes_, 2, nullptr);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ThreadPool* pool = (*engine)->pool();
  Plan plan = MakePlan(Source::kNodeScan, Shape::kCount);
  for (ExecutionMode mode :
       {ExecutionMode::kInterpretParallel, ExecutionMode::kAdaptive}) {
    SCOPED_TRACE(ModeName(mode));
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    pool->Submit([&] {
      started.store(true, std::memory_order_release);
      auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(3);
      while (!release.load(std::memory_order_acquire) &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    while (!started.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    auto t0 = std::chrono::steady_clock::now();
    ExecStats stats;
    auto r = Run(plan, Source::kNodeScan, mode, &stats, engine->get());
    auto elapsed = std::chrono::steady_clock::now() - t0;
    release.store(true, std::memory_order_release);
    pool->WaitIdle();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(stats.jit_morsels + stats.interpreted_morsels,
              ExpectedMorsels(Source::kNodeScan));
    EXPECT_LT(elapsed, std::chrono::seconds(1))
        << "the query must not wait for another task's worker";
  }
  (*engine)->WaitForBackgroundCompiles();
}

TEST_F(MorselDriverTest, ThreadsShareImmutablePlansInKJit) {
  // A built plan is immutable, so concurrent executions share it: two
  // threads run the same Plan objects in kJit at once (racing on their
  // first compiles too, in a fresh engine), and each compares its rows with
  // its own kInterpret run.
  std::vector<Plan> plans;
  for (Source src : {Source::kNodeScan, Source::kIndexRangeScan}) {
    for (Shape shape : kShapes) plans.push_back(MakePlan(src, shape));
  }
  auto engine = JitQueryEngine::Create(store_, indexes_, 2, nullptr);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::atomic<int> failures{0};
  auto worker = [&] {
    for (int round = 0; round < 2; ++round) {
      for (const Plan& plan : plans) {
        ExecStats stats;
        auto aot = Run(plan, Source::kNodeScan, ExecutionMode::kInterpret,
                       nullptr, engine->get());
        auto jit = Run(plan, Source::kNodeScan, ExecutionMode::kJit, &stats,
                       engine->get());
        if (!aot.ok() || !jit.ok() || !stats.used_jit || stats.jit_fallback ||
            Fingerprint(*aot) != Fingerprint(*jit)) {
          failures.fetch_add(1);
        }
      }
    }
  };
  std::thread a(worker);
  std::thread b(worker);
  a.join();
  b.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(MorselDriverTest, MemoHitDoesNotWaitForAnotherPlansCompile) {
  // The memo has its own lock: a kJit run of already-compiled code must
  // not queue behind a background compile of another plan, which holds the
  // compile lock for its whole pass cascade, object emission and linking.
  auto engine = JitQueryEngine::Create(store_, indexes_, 2, nullptr);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Plan point = PlanBuilder()
                   .IndexScan(person_, id_, Expr::Literal(Value::Int(7)))
                   .Project({Expr::Property(0, age_)})
                   .Build();
  ExecStats stats;
  ASSERT_TRUE(Run(point, Source::kNodeScan, ExecutionMode::kJit, &stats,
                  engine->get())
                  .ok());
  ExpectNoWaitDuringCompile(engine->get(), LargePlan(1000), "memo hits", [&] {
    auto r = Run(point, Source::kNodeScan, ExecutionMode::kJit, &stats,
                 engine->get());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(stats.memo_hit);
  });
}

TEST_F(MorselDriverTest, FirstAdaptiveRunDoesNotWaitForAnotherPlansCompile) {
  // A first kAdaptive run of a plan not in the memo generates its IR and
  // queues its compile behind the one in flight, then starts interpreted;
  // it must not wait for the compile lock another plan's compile holds.
  // Each probe's literal makes a plan of its own. Every probe queues a
  // compile and the harness waits for all of them, so only the first few
  // probes make plans.
  constexpr int64_t kFreshPlans = 8;
  auto engine = JitQueryEngine::Create(store_, indexes_, 2, nullptr);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  int64_t fresh = 0;
  ExpectNoWaitDuringCompile(
      engine->get(), LargePlan(3000), "first adaptive runs", [&] {
        if (fresh == kFreshPlans) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          return;
        }
        Plan plan = PlanBuilder()
                        .IndexScan(person_, id_,
                                   Expr::Literal(Value::Int(++fresh)))
                        .Project({Expr::Property(0, age_)})
                        .Build();
        ExecStats stats;
        auto r = Run(plan, Source::kNodeScan, ExecutionMode::kAdaptive,
                     &stats, engine->get());
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_FALSE(stats.memo_hit);
      });
}

TEST_F(MorselDriverTest, AdaptiveRerunDoesNotWaitForItsOwnCompile) {
  // A kAdaptive run of a plan whose background compile is queued or running
  // starts interpreted at once; it must not wait for the compile lock that
  // compile holds.
  auto engine = JitQueryEngine::Create(store_, indexes_, 2, nullptr);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const Plan large = LargePlan(2000);
  ExpectNoWaitDuringCompile(engine->get(), large, "adaptive reruns", [&] {
    ExecStats stats;
    auto r = Run(large, Source::kNodeScan, ExecutionMode::kAdaptive, &stats,
                 engine->get());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  });
}

// The compiled NodeScan resolves a whole occupancy word into a queue before
// it runs the downstream pipeline over it. These tests pin what the queue
// must not change: per-row values (including versions that only the
// slow-path helper can resolve), row order, full words, a Limit's stop and
// agreement with the interpreter under a concurrent writer.
class PipelinedScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A nonzero read latency makes the generated scan call its runtime
    // helpers (the node-block charge, the property-head prefetch).
    pmem::PoolOptions options;
    options.capacity = 64ull << 20;
    options.mode = pmem::PoolMode::kDram;
    options.has_latency_override = read_block_ns_ != 0;
    options.latency_override.read_block_ns = read_block_ns_;
    auto pool = pmem::Pool::Create("", options);
    ASSERT_TRUE(pool.ok());
    pool_ = std::move(*pool);
    auto store = storage::GraphStore::Create(pool_.get());
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
    indexes_ = std::make_unique<index::IndexManager>(store_.get());
    mgr_ = std::make_unique<tx::TransactionManager>(store_.get(),
                                                    indexes_.get());
    auto engine =
        JitQueryEngine::Create(store_.get(), indexes_.get(), 2, nullptr);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(*engine);
    item_ = *store_->Code("Item");
    v_ = *store_->Code("v");
    edge_ = *store_->Code("edge");
  }

  /// Creates `n` Item nodes with v = 0..n-1 in one transaction.
  std::vector<RecordId> CreateItems(int n) {
    std::vector<RecordId> ids;
    auto tx = mgr_->Begin();
    for (int i = 0; i < n; ++i) {
      auto id = tx->CreateNode(item_, {{v_, PVal::Int(i)}});
      EXPECT_TRUE(id.ok());
      ids.push_back(*id);
    }
    EXPECT_TRUE(tx->Commit().ok());
    return ids;
  }

  /// Links item i to items i+1, i+7 and i+13 (mod n) with `edge` edges.
  void LinkRing(const std::vector<RecordId>& ids) {
    const size_t n = ids.size();
    auto tx = mgr_->Begin();
    for (size_t i = 0; i < n; ++i) {
      for (size_t step : {1, 7, 13}) {
        EXPECT_TRUE(
            tx->CreateRelationship(ids[i], ids[(i + step) % n], edge_, {})
                .ok());
      }
    }
    EXPECT_TRUE(tx->Commit().ok());
  }

  Plan IdAndValue() const {
    return PlanBuilder()
        .NodeScan(item_)
        .FilterProperty(0, v_, CmpOp::kGe, Expr::Literal(Value::Int(0)))
        .Project({Expr::RecordId(0), Expr::Property(0, v_)})
        .Build();
  }

  /// Runs `plan` in kInterpret and kJit inside `tx` (one snapshot).
  void ExpectSameRows(const Plan& plan, tx::Transaction* tx,
                      QueryResult* jit_out = nullptr) {
    auto aot = engine_->Execute(plan, tx, {}, ExecutionMode::kInterpret);
    ExecStats stats;
    auto jit = engine_->Execute(plan, tx, {}, ExecutionMode::kJit, &stats);
    ASSERT_TRUE(aot.ok()) << aot.status().ToString();
    ASSERT_TRUE(jit.ok()) << jit.status().ToString();
    EXPECT_FALSE(stats.jit_fallback);
    EXPECT_EQ(stats.interpreted_morsels, 0u);
    EXPECT_EQ(Rows(*jit), Rows(*aot));
    if (jit_out != nullptr) *jit_out = std::move(*jit);
  }

  uint64_t read_block_ns_ = 0;
  std::unique_ptr<pmem::Pool> pool_;
  std::unique_ptr<storage::GraphStore> store_;
  std::unique_ptr<index::IndexManager> indexes_;
  std::unique_ptr<tx::TransactionManager> mgr_;
  std::unique_ptr<JitQueryEngine> engine_;
  DictCode item_, v_, edge_;
};

// The same queue under the emulated read latency, with the runtime helpers
// the generated scan calls for it.
class ChargedScanTest : public PipelinedScanTest {
 protected:
  static constexpr uint64_t kBlockNs = 20000;
  ChargedScanTest() { read_block_ns_ = kBlockNs; }

  /// Switches both compiled prefetches (node blocks, property heads) and
  /// the interpreter's record prefetch.
  void SetPrefetch(bool on) {
    storage::ScanOptions o = engine_->scan_options();
    o.prefetch_distance = on ? 4 : 0;
    engine_->set_scan_options(o);
  }

  Plan IdsOnly() const {
    return PlanBuilder().NodeScan(item_).Project({Expr::RecordId(0)}).Build();
  }

  /// Wall time of one compiled run of `plan`, which returns `rows` rows.
  std::chrono::nanoseconds TimedJitScan(const Plan& plan, tx::Transaction* tx,
                                        size_t rows) {
    const auto start = std::chrono::steady_clock::now();
    auto r = engine_->Execute(plan, tx, {}, ExecutionMode::kJit);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) EXPECT_EQ(r->rows.size(), rows);
    return elapsed;
  }
};

TEST_F(PipelinedScanTest, OldSnapshotKeepsMidWordVersionsInTheirOwnRows) {
  // Nodes 20 and 22 are updated after the reader's snapshot: both resolve
  // through the slow-path helper into the one snapshot slot of the scan
  // handle, so each must reach the pipeline before the next one is read.
  std::vector<RecordId> ids = CreateItems(64);
  auto reader = mgr_->Begin();
  {
    auto tx = mgr_->Begin();
    ASSERT_TRUE(tx->SetNodeProperty(ids[20], v_, PVal::Int(1020)).ok());
    ASSERT_TRUE(tx->SetNodeProperty(ids[22], v_, PVal::Int(1022)).ok());
    ASSERT_TRUE(tx->Commit().ok());
  }
  QueryResult rows;
  ExpectSameRows(IdAndValue(), reader.get(), &rows);
  ASSERT_EQ(rows.rows.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(rows.rows[i][0].AsInt(), static_cast<int64_t>(ids[i]));
    EXPECT_EQ(rows.rows[i][1].AsInt(), static_cast<int64_t>(i));
  }
  ASSERT_TRUE(reader->Commit().ok());

  auto fresh = mgr_->Begin();
  ExpectSameRows(IdAndValue(), fresh.get(), &rows);
  EXPECT_EQ(rows.rows[20][1].AsInt(), 1020);
  EXPECT_EQ(rows.rows[22][1].AsInt(), 1022);
  ASSERT_TRUE(fresh->Commit().ok());
}

TEST_F(PipelinedScanTest, FullWordsQueueEveryMatch) {
  // Three fully occupied words (64 matches each) and a partial one.
  std::vector<RecordId> ids = CreateItems(200);
  ASSERT_EQ(ids.back(), 199u) << "items fill the first words densely";
  auto tx = mgr_->Begin();
  QueryResult rows;
  ExpectSameRows(IdAndValue(), tx.get(), &rows);
  ASSERT_EQ(rows.rows.size(), 200u);
  for (size_t i = 0; i < rows.rows.size(); ++i) {
    EXPECT_EQ(rows.rows[i][1].AsInt(), static_cast<int64_t>(i));
  }
  ASSERT_TRUE(tx->Commit().ok());
}

TEST_F(PipelinedScanTest, LimitSatisfiedByQueuedEntryStopsTheRun) {
  CreateItems(5000);
  ASSERT_GE(store_->nodes().NumSlots(), 2 * kMorselSize);
  Plan plan = PlanBuilder()
                  .NodeScan(item_)
                  .FilterProperty(0, v_, CmpOp::kGe,
                                  Expr::Literal(Value::Int(0)))
                  .Limit(3)
                  .Project({Expr::Property(0, v_)})
                  .Build();
  auto tx = mgr_->Begin();
  QueryResult rows;
  ExpectSameRows(plan, tx.get(), &rows);
  ASSERT_EQ(rows.rows.size(), 3u);
  EXPECT_EQ(rows.rows[2][0].AsInt(), 2);
  ExecStats stats;
  ASSERT_TRUE(
      engine_->Execute(plan, tx.get(), {}, ExecutionMode::kJit, &stats).ok());
  EXPECT_EQ(stats.jit_morsels, 1u) << "the stop ends the run in morsel 0";
  ASSERT_TRUE(tx->Commit().ok());
}

TEST_F(PipelinedScanTest, ConcurrentWriterKeepsCompiledScansEqual) {
  // A writer updates properties of matched nodes and links them while
  // readers scan; within one snapshot, compiled and interpreted runs must
  // return the same rows.
  constexpr int kItems = 192;
  std::vector<RecordId> ids = CreateItems(kItems);
  Plan values = IdAndValue();
  Plan links = PlanBuilder()
                   .NodeScan(item_)
                   .Expand(0, query::Direction::kOut, edge_)
                   .Project({Expr::RecordId(0), Expr::Property(0, v_),
                             Expr::RecordId(2)})
                   .Build();
  std::atomic<bool> done{false};
  std::atomic<int> commits{0};
  std::thread writer([&] {
    uint64_t x = 12345;
    for (int i = 0; !done.load(std::memory_order_acquire); ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      RecordId a = ids[(x >> 33) % kItems];
      RecordId b = ids[(x >> 13) % kItems];
      auto tx = mgr_->Begin();
      Status s = tx->SetNodeProperty(a, v_, PVal::Int(kItems + i));
      if (s.ok() && i % 4 == 0) {
        s = tx->CreateRelationship(a, b, edge_, {}).status();
      }
      if (s.ok() && tx->Commit().ok()) {
        commits.fetch_add(1, std::memory_order_relaxed);
      } else if (!s.ok()) {
        tx->Abort();
      }
    }
  });
  // A writer preempted while holding a lock makes every reader meanwhile
  // abort, so on a loaded machine 60 rounds can end with nothing compared:
  // keep going until some rounds compared (or the deadline passes).
  int compared = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (int round = 0;
       (round < 60 || compared < 20 || commits.load() == 0) &&
       std::chrono::steady_clock::now() < deadline;
       ++round) {
    for (const Plan* plan : {&values, &links}) {
      auto tx = mgr_->Begin();
      auto aot = engine_->Execute(*plan, tx.get(), {},
                                  ExecutionMode::kInterpret);
      auto jit = engine_->Execute(*plan, tx.get(), {}, ExecutionMode::kJit);
      // A reader meeting a writer's lock aborts (MVTO); nothing to compare.
      if (aot.ok() && jit.ok()) {
        EXPECT_EQ(Fingerprint(*jit), Fingerprint(*aot));
        ++compared;
      }
      tx->Abort();
    }
  }
  done.store(true, std::memory_order_release);
  writer.join();
  EXPECT_GT(compared, 0);
  EXPECT_GT(commits.load(), 0);
}

TEST_F(ChargedScanTest, ChargesEveryRecordBlockAndMatchesInterpreter) {
  // 200 items fill slots 0..199 of the first chunk: 51 blocks of records
  // (slot s sits in block (s + 2) / 4 behind the 128 B chunk header). The
  // header charge on entering the chunk covers block 0; with prefetching
  // off every other block is charged in full, except for up to
  // kPrefetchSlots blocks whose fills an earlier run started and that
  // still sit in the model's per-thread fill ring.
  SetPrefetch(false);
  std::vector<RecordId> ids = CreateItems(200);
  ASSERT_EQ(ids.back(), 199u);
  auto reader = mgr_->Begin();
  {
    auto tx = mgr_->Begin();
    ASSERT_TRUE(tx->SetNodeProperty(ids[70], v_, PVal::Int(1070)).ok());
    ASSERT_TRUE(tx->Commit().ok());
  }
  QueryResult rows;
  ExpectSameRows(IdAndValue(), reader.get(), &rows);
  ASSERT_EQ(rows.rows.size(), ids.size());
  EXPECT_EQ(rows.rows[70][1].AsInt(), 70) << "the reader's own version";

  Plan ids_only = IdsOnly();
  ExpectSameRows(ids_only, reader.get());
  const auto elapsed = TimedJitScan(ids_only, reader.get(), ids.size());
  EXPECT_GE(elapsed,
            std::chrono::nanoseconds((50 - pmem::kPrefetchSlots) * kBlockNs));
  ASSERT_TRUE(reader->Commit().ok());
}

TEST_F(ChargedScanTest, NodePrefetchHidesTheNextWordsBlocks) {
  // The same 51 blocks with prefetching on: each word's charge starts the
  // fills of up to kPrefetchSlots blocks of the next word, so words 1..3
  // can each have that many blocks in flight, and an earlier run may leave
  // kPrefetchSlots more in the ring. Every other block is charged in full.
  // Words 1 and 2 have their last 8 blocks in flight when the charge
  // reaches them, while an unprefetched run finds at most kPrefetchSlots
  // blocks an earlier run left in the ring, so prefetching saves at least
  // 8 block charges. The test demands 2 of them, comparing the fastest of
  // seven runs each, alternating, so the two see the same host: under a
  // loaded host a run's CPU work stretches by more than the rest.
  std::vector<RecordId> ids = CreateItems(200);
  ASSERT_EQ(ids.back(), 199u);
  Plan ids_only = IdsOnly();
  auto reader = mgr_->Begin();
  std::chrono::nanoseconds fastest[2] = {std::chrono::hours(1),
                                         std::chrono::hours(1)};
  for (int round = 0; round < 7; ++round) {
    for (bool prefetch : {false, true}) {
      SCOPED_TRACE(prefetch ? "prefetch on" : "prefetch off");
      SetPrefetch(prefetch);
      ExpectSameRows(ids_only, reader.get());
      fastest[prefetch] = std::min(
          fastest[prefetch], TimedJitScan(ids_only, reader.get(), ids.size()));
    }
  }
  EXPECT_GE(fastest[1], std::chrono::nanoseconds(
                            (50 - 4 * pmem::kPrefetchSlots) * kBlockNs));
  EXPECT_LT(fastest[1] + std::chrono::nanoseconds(2 * kBlockNs), fastest[0])
      << "prefetched " << fastest[1].count() << " ns, unprefetched "
      << fastest[0].count() << " ns";
  ASSERT_TRUE(reader->Commit().ok());
}

TEST_F(ChargedScanTest, PrefetchEdgesMatchInterpreterInEveryMode) {
  // 5120 items fill ten chunks exactly, so the scan's next-word prefetch
  // meets every edge: a chunk change every 8 words, the end of the first
  // two morsels (slots 2048 and 4096) and the table's last word, past which
  // there is no chunk. Deleted items leave gaps inside words and one run of
  // empty words. Compiled runs on two workers and the parallel interpreter
  // must return the kInterpret rows, with and without property reads.
  constexpr int kItems = 5120;
  std::vector<RecordId> ids = CreateItems(kItems);
  ASSERT_EQ(ids.back(), static_cast<RecordId>(kItems - 1));
  {
    auto tx = mgr_->Begin();
    for (int i = 0; i < kItems; ++i) {
      if (i % 7 == 3 || (i >= 2100 && i < 2300)) {
        ASSERT_TRUE(tx->DeleteNode(ids[i]).ok());
      }
    }
    ASSERT_TRUE(tx->Commit().ok());
  }
  ASSERT_EQ(store_->nodes().NumSlots(), static_cast<uint64_t>(kItems));
  const uint64_t morsels = (kItems + kMorselSize - 1) / kMorselSize;
  SetPrefetch(true);
  for (const Plan& plan : {IdAndValue(), IdsOnly()}) {
    auto tx = mgr_->Begin();
    auto aot = engine_->Execute(plan, tx.get(), {}, ExecutionMode::kInterpret);
    ASSERT_TRUE(aot.ok()) << aot.status().ToString();
    const std::vector<std::string> expected = Fingerprint(*aot);
    ASSERT_FALSE(expected.empty());
    for (ExecutionMode mode :
         {ExecutionMode::kJit, ExecutionMode::kAdaptive,
          ExecutionMode::kInterpretParallel}) {
      SCOPED_TRACE(ModeName(mode));
      ExecStats stats;
      auto r = engine_->Execute(plan, tx.get(), {}, mode, &stats);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(Fingerprint(*r), expected);
      if (mode != ExecutionMode::kAdaptive) continue;
      // Once the background compile landed, every morsel runs compiled on
      // the workers.
      engine_->WaitForBackgroundCompiles();
      r = engine_->Execute(plan, tx.get(), {}, mode, &stats);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(Fingerprint(*r), expected);
      EXPECT_EQ(stats.jit_morsels, morsels);
    }
    ASSERT_TRUE(tx->Commit().ok());
  }
}

TEST_F(PipelinedScanTest, ExpandedNodeFromVersionChainMatchesInterpreter) {
  // Items 1, 7 and 13 are updated after the reader began, so the neighbor
  // handles of an Expand from item 0 (slots after the source's) resolve
  // their old versions off the DRAM version chain, whose property snapshots
  // the runtime stores per slot, growing that storage on demand.
  std::vector<RecordId> ids = CreateItems(40);
  LinkRing(ids);
  ASSERT_TRUE(
      indexes_->CreateIndex(item_, v_, index::Placement::kHybrid).ok());
  Plan plan = PlanBuilder()
                  .IndexScan(item_, v_, Expr::Literal(Value::Int(0)))
                  .Expand(0, query::Direction::kOut, edge_)
                  .Project({Expr::RecordId(2), Expr::Property(2, v_)})
                  .Build();
  auto reader = mgr_->Begin();
  {
    auto tx = mgr_->Begin();
    for (int i : {1, 7, 13}) {
      ASSERT_TRUE(tx->SetNodeProperty(ids[i], v_, PVal::Int(1000 + i)).ok());
    }
    ASSERT_TRUE(tx->Commit().ok());
  }
  QueryResult rows;
  ExpectSameRows(plan, reader.get(), &rows);
  std::vector<int64_t> values;
  for (const auto& row : rows.rows) values.push_back(row[1].AsInt());
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, (std::vector<int64_t>{1, 7, 13}))
      << "the reader sees the versions before the update";
  ASSERT_TRUE(reader->Commit().ok());
}

TEST_F(PipelinedScanTest, ConcurrentExpandsReportTheirOwnAdjacencyCounts) {
  // Adjacency-cache hits and misses are tallied on each execution's own
  // transaction: two threads expanding from different items at once each
  // report exactly what the same query reports alone. (rts tallies are
  // left out: whether a read skips its rts bump legitimately depends on
  // which concurrent reader bumped the record first.)
  std::vector<RecordId> ids = CreateItems(40);
  LinkRing(ids);
  ASSERT_TRUE(
      indexes_->CreateIndex(item_, v_, index::Placement::kHybrid).ok());
  Plan plan = PlanBuilder()
                  .IndexScan(item_, v_, Expr::Param(0))
                  .Expand(0, query::Direction::kOut, edge_)
                  .Expand(2, query::Direction::kOut, edge_)
                  .Project({Expr::Property(4, v_)})
                  .Build();
  auto run = [&](int64_t start, ExecutionMode mode, ExecStats* stats) {
    auto tx = mgr_->Begin();
    auto r = engine_->Execute(plan, tx.get(), {Value::Int(start)}, mode,
                              stats);
    const bool ok = r.ok() && r->rows.size() == 9 && tx->Commit().ok();
    if (!ok) tx->Abort();
    return ok;
  };
  auto same = [](const ExecStats& a, const ExecStats& b) {
    return a.adj_cache_hits == b.adj_cache_hits &&
           a.adj_cache_misses == b.adj_cache_misses &&
           a.jit_morsels == b.jit_morsels &&
           a.interpreted_morsels == b.interpreted_morsels &&
           a.used_jit == b.used_jit && a.memo_hit == b.memo_hit &&
           a.cache_hit == b.cache_hit && a.jit_fallback == b.jit_fallback;
  };
  const int64_t starts[2] = {0, 20};
  for (ExecutionMode mode : {ExecutionMode::kInterpret, ExecutionMode::kJit}) {
    SCOPED_TRACE(ModeName(mode));
    // The first run builds the cache entries and compiles; the second is
    // the reference: one probe for the start item and one per neighbor.
    ExecStats alone[2];
    for (int t = 0; t < 2; ++t) {
      ExecStats warm;
      ASSERT_TRUE(run(starts[t], mode, &warm));
      ASSERT_TRUE(run(starts[t], mode, &alone[t]));
      EXPECT_EQ(alone[t].adj_cache_hits, 4u);
      EXPECT_EQ(alone[t].adj_cache_misses, 0u);
    }
    std::atomic<int> mismatches{0};
    std::atomic<int> failures{0};
    auto worker = [&](int t) {
      for (int i = 0; i < 200; ++i) {
        ExecStats stats;
        if (!run(starts[t], mode, &stats)) {
          failures.fetch_add(1);
        } else if (!same(stats, alone[t])) {
          mismatches.fetch_add(1);
        }
      }
    };
    std::thread a(worker, 0);
    std::thread b(worker, 1);
    a.join();
    b.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(mismatches.load(), 0);
  }
}

}  // namespace
}  // namespace poseidon::jit
