// Fault-injection subsystem tests (tentpole legs 2 and 3): checksummed
// redo-log recovery that discards exactly the damaged segments, pool-header
// corruption detection, the deterministic FaultRegistry itself, diskgraph
// fsync/read fault recovery with WAL replay, and JIT compile-failure
// degradation to interpreted execution.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <vector>

#include "diskgraph/disk_graph.h"
#include "jit/jit_query_engine.h"
#include "tx/transaction.h"
#include "util/crc32c.h"
#include "util/fault.h"

namespace poseidon {
namespace {

using pmem::Offset;
using pmem::Pool;
using pmem::RecoveryReport;
using storage::DictCode;
using storage::PVal;
using storage::RecordId;
using util::FaultRegistry;

// --- FaultRegistry ----------------------------------------------------------

TEST(FaultRegistryTest, ArmedSiteFailsOnScheduleThenRecovers) {
  FaultRegistry& reg = FaultRegistry::Instance();
  reg.Reset();
  // Unarmed sites never fail.
  EXPECT_FALSE(reg.ShouldFail("test.site"));
  // "The 2nd evaluation from now fails, and so does the 3rd."
  reg.Arm("test.site", /*after=*/2, /*times=*/2);
  EXPECT_FALSE(reg.ShouldFail("test.site"));
  EXPECT_TRUE(reg.ShouldFail("test.site"));
  EXPECT_TRUE(reg.ShouldFail("test.site"));
  EXPECT_FALSE(reg.ShouldFail("test.site")) << "schedule exhausted";
  EXPECT_EQ(reg.fired("test.site"), 2u);
  EXPECT_EQ(reg.hits("test.site"), 5u);
  // Re-arming counts from now, not from the site's first evaluation.
  reg.Arm("test.site", 1, 1);
  EXPECT_TRUE(reg.ShouldFail("test.site"));
  EXPECT_FALSE(reg.ShouldFail("test.site"));
  reg.Reset();
}

TEST(FaultRegistryTest, EnvironmentArmsSiteOnFirstEvaluation) {
  FaultRegistry& reg = FaultRegistry::Instance();
  setenv("POSEIDON_FAULT_TEST_ENVSITE", "2:3", 1);
  reg.Reset();  // forget env_checked so the variable is re-read
  EXPECT_FALSE(reg.ShouldFail("test.envsite"));
  EXPECT_TRUE(reg.ShouldFail("test.envsite"));
  EXPECT_TRUE(reg.ShouldFail("test.envsite"));
  EXPECT_TRUE(reg.ShouldFail("test.envsite"));
  EXPECT_FALSE(reg.ShouldFail("test.envsite"));
  unsetenv("POSEIDON_FAULT_TEST_ENVSITE");

  setenv("POSEIDON_FAULT_TEST_ALWAYSSITE", "always", 1);
  reg.Reset();
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(reg.ShouldFail("test.alwayssite"));
  unsetenv("POSEIDON_FAULT_TEST_ALWAYSSITE");
  reg.Reset();
}

// --- Checksummed redo-log recovery -----------------------------------------

/// Writes a committed segment in the documented v3 layout; when
/// `corrupt_crc`, the stored checksum deliberately mismatches the entry
/// bytes (a torn entry flush under a durable marker).
void CraftSegment(Pool* pool, uint32_t seg_idx, uint64_t commit_ts,
                  Offset target, uint64_t value, bool corrupt_crc = false) {
  char* seg = pool->ToPtr<char>(pool->redo_log()->segment_offset(seg_idx));
  constexpr uint64_t kHdr = pmem::kRedoSegmentHeaderBytes;
  uint64_t state = 1, n = 1, len = 8;
  std::memcpy(seg + 8, &commit_ts, 8);
  std::memcpy(seg + 16, &n, 8);
  std::memcpy(seg + kHdr, &target, 8);
  std::memcpy(seg + kHdr + 8, &len, 8);
  std::memcpy(seg + kHdr + 16, &value, 8);
  uint64_t crc = util::Crc32c(seg + 8, 16);
  crc = util::Crc32c(seg + kHdr, 24, static_cast<uint32_t>(crc));
  if (corrupt_crc) crc ^= 0xdeadbeef;
  std::memcpy(seg + 24, &crc, 8);
  std::memcpy(seg, &state, 8);
}

TEST(RedoCorruptionTest, CorruptSegmentIsDiscardedWhileValidOneReplays) {
  auto pool_r = Pool::CreateVolatile(32ull << 20);
  ASSERT_TRUE(pool_r.ok());
  Pool* pool = pool_r->get();
  ASSERT_GE(pool->redo_log()->num_segments(), 2u);
  auto a = pool->AllocateZeroed(64);
  auto b = pool->AllocateZeroed(64);
  ASSERT_TRUE(a.ok() && b.ok());

  CraftSegment(pool, 0, /*commit_ts=*/5, *a, 111);
  CraftSegment(pool, 1, /*commit_ts=*/6, *b, 222, /*corrupt_crc=*/true);

  RecoveryReport report;
  EXPECT_TRUE(pool->redo_log()->Recover(&report));
  // The valid segment replayed; the corrupt one was discarded, NOT applied.
  EXPECT_EQ(*pool->ToPtr<uint64_t>(*a), 111u);
  EXPECT_EQ(*pool->ToPtr<uint64_t>(*b), 0u)
      << "corrupt redo data must never reach its target";
  EXPECT_EQ(report.segments_replayed, 1u);
  EXPECT_EQ(report.segments_discarded_corrupt, 1u);
  EXPECT_EQ(report.entries_applied, 1u);
  ASSERT_FALSE(report.status.ok());
  EXPECT_EQ(report.status.code(), StatusCode::kCorruption);
  ASSERT_FALSE(report.warnings.empty());
  EXPECT_NE(report.warnings[0].find("checksum"), std::string::npos)
      << report.warnings[0];

  // The discard is durable: a second recovery finds a clean log.
  RecoveryReport again;
  EXPECT_FALSE(pool->redo_log()->Recover(&again));
  EXPECT_TRUE(again.status.ok());
  EXPECT_EQ(again.segments_discarded_corrupt, 0u);
}

TEST(RedoCorruptionTest, GarbageEntryCountIsDiscardedNotWalkedOutOfBounds) {
  auto pool_r = Pool::CreateVolatile(32ull << 20);
  ASSERT_TRUE(pool_r.ok());
  Pool* pool = pool_r->get();
  auto a = pool->AllocateZeroed(64);
  ASSERT_TRUE(a.ok());

  CraftSegment(pool, 0, 5, *a, 111);
  // Stamp a garbage entry count AFTER the crc: bounds validation must reject
  // it before any checksum walk could run off the segment.
  char* seg = pool->ToPtr<char>(pool->redo_log()->segment_offset(0));
  uint64_t huge = ~0ull / 2;
  std::memcpy(seg + 16, &huge, 8);

  RecoveryReport report;
  EXPECT_FALSE(pool->redo_log()->Recover(&report));
  EXPECT_EQ(*pool->ToPtr<uint64_t>(*a), 0u);
  EXPECT_EQ(report.segments_discarded_corrupt, 1u);
  EXPECT_EQ(report.status.code(), StatusCode::kCorruption);
}

TEST(RedoCorruptionTest, GarbageStateWordIsResetWithoutCorruptionStatus) {
  auto pool_r = Pool::CreateVolatile(32ull << 20);
  ASSERT_TRUE(pool_r.ok());
  Pool* pool = pool_r->get();
  char* seg = pool->ToPtr<char>(pool->redo_log()->segment_offset(0));
  uint64_t garbage = 7;
  std::memcpy(seg, &garbage, 8);

  RecoveryReport report;
  EXPECT_FALSE(pool->redo_log()->Recover(&report));
  EXPECT_EQ(report.segments_reset_garbage, 1u);
  EXPECT_EQ(report.segments_discarded_corrupt, 0u);
  EXPECT_TRUE(report.status.ok())
      << "an uninitialized state word is not data corruption";
  ASSERT_FALSE(report.warnings.empty());
}

TEST(RedoCorruptionTest, CommittedTransactionSurvivesChecksummedRecovery) {
  // End-to-end: a real commit that crashed between marker and apply still
  // replays — the checksum must accept what the commit path writes.
  pmem::PoolOptions o;
  o.mode = pmem::PoolMode::kDram;
  o.capacity = 32ull << 20;
  o.crash_shadow = true;
  auto pool_r = Pool::Create("", o);
  ASSERT_TRUE(pool_r.ok());
  Pool* pool = pool_r->get();
  auto a = pool->AllocateZeroed(64);
  ASSERT_TRUE(a.ok());

  int drains = 0;
  pmem::RedoTx tx(pool->redo_log());
  uint64_t v = 42;
  tx.StageValue(*a, v);
  ASSERT_TRUE(tx.Commit(3, [&] {
                  pool->Drain();
                  if (++drains == 2) pool->FreezeShadow();
                }).ok());
  pool->SimulateCrash();
  RecoveryReport report;
  EXPECT_TRUE(pool->redo_log()->Recover(&report));
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(report.segments_replayed, 1u);
  EXPECT_EQ(*pool->ToPtr<uint64_t>(*a), 42u);
}

// --- Pool-header corruption -------------------------------------------------

TEST(HeaderCorruptionTest, BitFlipInHeaderConfigIsDetectedAtOpen) {
  std::string path = testing::TempDir() + "/header_corrupt.pmem";
  std::filesystem::remove(path);
  pmem::PoolOptions o;
  o.capacity = 16ull << 20;
  { auto pool = Pool::Create(path, o); ASSERT_TRUE(pool.ok()); }

  // Flip one bit in the pool_id field (offset 24): only the config checksum
  // can catch this — every individual field still "looks" plausible.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(24);
    char byte;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(24);
    f.write(&byte, 1);
  }

  auto reopened = Pool::Open(path, o);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(reopened.status().message().find("checksum"), std::string::npos)
      << reopened.status().ToString();
  std::filesystem::remove(path);
}

// --- Diskgraph fault recovery ----------------------------------------------

diskgraph::DiskGraphOptions FreshDiskDir(const std::string& name) {
  diskgraph::DiskGraphOptions o;
  o.dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(o.dir);
  return o;
}

TEST(DiskFaultTest, TransientFsyncFailureIsRetriedThenCommitSucceeds) {
  setenv("POSEIDON_DISK_FSYNC_US", "0", 1);
  FaultRegistry::Instance().Reset();
  auto o = FreshDiskDir("dg_fsync_retry");
  auto g = diskgraph::DiskGraph::Create(o);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  DictCode label = *(*g)->Code("N");
  ASSERT_TRUE((*g)->CreateNode(label, {}).ok());

  FaultRegistry::Instance().Arm("diskgraph.fsync", /*after=*/1, /*times=*/1);
  EXPECT_TRUE((*g)->Commit().ok()) << "one transient failure must be ridden "
                                      "out by the backoff retry";
  EXPECT_GE((*g)->fsync_retries(), 1u);
  FaultRegistry::Instance().Reset();
}

TEST(DiskFaultTest, PersistentFsyncFailureSurfacesThenRetryCommits) {
  setenv("POSEIDON_DISK_FSYNC_US", "0", 1);
  FaultRegistry::Instance().Reset();
  auto o = FreshDiskDir("dg_fsync_exhaust");
  auto g = diskgraph::DiskGraph::Create(o);
  ASSERT_TRUE(g.ok());
  DictCode label = *(*g)->Code("N");
  DictCode key = *(*g)->Code("v");
  auto id = (*g)->CreateNode(label, {{key, PVal::Int(7)}});
  ASSERT_TRUE(id.ok());

  FaultRegistry::Instance().Arm("diskgraph.fsync", 1,
                                FaultRegistry::kUnbounded);
  Status failed = (*g)->Commit();
  ASSERT_FALSE(failed.ok()) << "exhausted retries must surface, not hang";
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  EXPECT_NE(failed.message().find("injected"), std::string::npos);

  // The batch stayed in the dirty set: once the fault clears, a plain retry
  // commits it and the data survives a crash + reopen.
  FaultRegistry::Instance().Disarm("diskgraph.fsync");
  ASSERT_TRUE((*g)->Commit().ok());
  g->reset();  // close without flushing the page files: WAL is the truth

  auto reopened = diskgraph::DiskGraph::Create(o);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_GE((*reopened)->wal_batches_replayed(), 1u);
  auto v = (*reopened)->GetNodeProperty(*id, key);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->AsInt(), 7);
  FaultRegistry::Instance().Reset();
  std::filesystem::remove_all(o.dir);
}

TEST(DiskFaultTest, TransientReadFailureIsRetried) {
  setenv("POSEIDON_DISK_FSYNC_US", "0", 1);
  FaultRegistry::Instance().Reset();
  auto o = FreshDiskDir("dg_read_retry");
  auto g = diskgraph::DiskGraph::Create(o);
  ASSERT_TRUE(g.ok());
  DictCode label = *(*g)->Code("N");
  DictCode key = *(*g)->Code("v");
  auto id = (*g)->CreateNode(label, {{key, PVal::Int(11)}});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*g)->Commit().ok());
  ASSERT_TRUE((*g)->DropCaches().ok());  // force the next access to pread

  FaultRegistry::Instance().Arm("diskgraph.read", 1, 1);
  auto v = (*g)->GetNodeProperty(*id, key);
  ASSERT_TRUE(v.ok()) << "one transient pread failure must be retried: "
                      << v.status().ToString();
  EXPECT_EQ(v->AsInt(), 11);
  EXPECT_GE((*g)->read_retries(), 1u);

  // An unbounded read fault exhausts the retries and surfaces IoError.
  ASSERT_TRUE((*g)->DropCaches().ok());
  FaultRegistry::Instance().Arm("diskgraph.read", 1,
                                FaultRegistry::kUnbounded);
  auto dead = (*g)->GetNode(*id);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kIoError);
  FaultRegistry::Instance().Reset();
  std::filesystem::remove_all(o.dir);
}

TEST(DiskFaultTest, WalReplayRecoversCommittedBatchAndDropsUncommitted) {
  setenv("POSEIDON_DISK_FSYNC_US", "0", 1);
  FaultRegistry::Instance().Reset();
  auto o = FreshDiskDir("dg_wal_replay");
  RecordId n1, n2, rel;
  DictCode label, knows, key;
  {
    auto g = diskgraph::DiskGraph::Create(o);
    ASSERT_TRUE(g.ok());
    label = *(*g)->Code("Person");
    knows = *(*g)->Code("KNOWS");
    key = *(*g)->Code("v");
    n1 = *(*g)->CreateNode(label, {{key, PVal::Int(1)}});
    n2 = *(*g)->CreateNode(label, {{key, PVal::Int(2)}});
    rel = *(*g)->CreateRelationship(n1, n2, knows, {});
    ASSERT_TRUE((*g)->Commit().ok());
    // An uncommitted change after the commit: dirty in the buffer pool,
    // absent from the WAL — it must NOT survive the crash.
    ASSERT_TRUE((*g)->SetNodeProperty(n1, key, PVal::Int(999)).ok());
    // Destructor closes fds without flushing pools: the page files never
    // saw the committed pages either; only WAL replay can produce them.
  }

  auto g = diskgraph::DiskGraph::Create(o);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_GE((*g)->wal_batches_replayed(), 1u);
  EXPECT_EQ((*g)->num_nodes(), 2u);
  EXPECT_EQ((*g)->num_relationships(), 1u);
  auto v1 = (*g)->GetNodeProperty(n1, key);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->AsInt(), 1) << "uncommitted update must not survive";
  EXPECT_EQ((*g)->GetNodeProperty(n2, key)->AsInt(), 2);
  int out_edges = 0;
  ASSERT_TRUE((*g)
                  ->ForEachOutgoing(n1,
                                    [&](RecordId id,
                                        const diskgraph::DiskRel& r) {
                                      ++out_edges;
                                      EXPECT_EQ(id, rel);
                                      EXPECT_EQ(r.dst, n2);
                                      return true;
                                    })
                  .ok());
  EXPECT_EQ(out_edges, 1);

  // A second reopen replays nothing: the WAL was truncated.
  g->reset();
  auto again = diskgraph::DiskGraph::Create(o);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->wal_batches_replayed(), 0u);
  EXPECT_EQ((*again)->num_nodes(), 2u);
  std::filesystem::remove_all(o.dir);
}

// --- JIT graceful degradation ----------------------------------------------

TEST(JitFaultTest, CompileFailureDegradesToInterpreterNotQueryFailure) {
  FaultRegistry::Instance().Reset();
  auto pool = pmem::Pool::CreateVolatile(256ull << 20);
  ASSERT_TRUE(pool.ok());
  auto store = storage::GraphStore::Create(pool->get());
  ASSERT_TRUE(store.ok());
  index::IndexManager indexes(store->get());
  tx::TransactionManager mgr(store->get(), &indexes);
  DictCode label = *(*store)->Code("N");
  DictCode key = *(*store)->Code("id");
  constexpr int kNodes = 20;
  for (int i = 0; i < kNodes; ++i) {
    auto tx = mgr.Begin();
    ASSERT_TRUE(tx->CreateNode(label, {{key, PVal::Int(i)}}).ok());
    ASSERT_TRUE(tx->Commit().ok());
  }
  auto engine =
      jit::JitQueryEngine::Create(store->get(), &indexes, 2, nullptr);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  query::Plan plan = query::PlanBuilder()
                         .NodeScan(label)
                         .Project({query::Expr::Property(0, key)})
                         .Build();

  // Every compile fails: kJit must run the interpreter and still answer.
  FaultRegistry::Instance().Arm("jit.compile", 1, FaultRegistry::kUnbounded);
  {
    auto tx = mgr.Begin();
    jit::ExecStats stats;
    auto r = (*engine)->Execute(plan, tx.get(), {},
                                jit::ExecutionMode::kJit, &stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(stats.jit_fallback);
    EXPECT_FALSE(stats.used_jit);
    EXPECT_EQ(r->rows.size(), static_cast<size_t>(kNodes));
    ASSERT_TRUE(tx->Commit().ok());
  }
  // Adaptive mode: same degradation, all morsels interpreted.
  {
    auto tx = mgr.Begin();
    jit::ExecStats stats;
    auto r = (*engine)->Execute(plan, tx.get(), {},
                                jit::ExecutionMode::kAdaptive, &stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(stats.jit_fallback);
    EXPECT_EQ(stats.jit_morsels, 0u);
    EXPECT_EQ(r->rows.size(), static_cast<size_t>(kNodes));
    ASSERT_TRUE(tx->Commit().ok());
  }
  // Fault cleared: the same plan compiles and runs jitted.
  FaultRegistry::Instance().Disarm("jit.compile");
  {
    auto tx = mgr.Begin();
    jit::ExecStats stats;
    auto r = (*engine)->Execute(plan, tx.get(), {},
                                jit::ExecutionMode::kJit, &stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(stats.jit_fallback);
    EXPECT_TRUE(stats.used_jit);
    EXPECT_EQ(r->rows.size(), static_cast<size_t>(kNodes));
    ASSERT_TRUE(tx->Commit().ok());
  }
  FaultRegistry::Instance().Reset();
}

TEST(JitFaultTest, CompileFaultSiteSparesMemoizedCode) {
  // jit.compile fires only where code is about to be generated: with it
  // armed for good, a memoized plan still runs compiled in kJit and
  // kAdaptive, and only a plan that was never compiled degrades.
  FaultRegistry::Instance().Reset();
  auto pool = pmem::Pool::CreateVolatile(256ull << 20);
  ASSERT_TRUE(pool.ok());
  auto store = storage::GraphStore::Create(pool->get());
  ASSERT_TRUE(store.ok());
  index::IndexManager indexes(store->get());
  tx::TransactionManager mgr(store->get(), &indexes);
  DictCode label = *(*store)->Code("N");
  DictCode key = *(*store)->Code("id");
  constexpr int kNodes = 20;
  {
    auto tx = mgr.Begin();
    for (int i = 0; i < kNodes; ++i) {
      ASSERT_TRUE(tx->CreateNode(label, {{key, PVal::Int(i)}}).ok());
    }
    ASSERT_TRUE(tx->Commit().ok());
  }
  auto engine =
      jit::JitQueryEngine::Create(store->get(), &indexes, 2, nullptr);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  query::Plan memoized = query::PlanBuilder()
                             .NodeScan(label)
                             .Project({query::Expr::Property(0, key)})
                             .Build();
  query::Plan fresh = query::PlanBuilder().NodeScan(label).Count().Build();
  auto run = [&](const query::Plan& plan, jit::ExecutionMode mode,
                 jit::ExecStats* stats) {
    auto tx = mgr.Begin();
    auto r = (*engine)->Execute(plan, tx.get(), {}, mode, stats);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(tx->Commit().ok());
    return r.ok() ? r->rows.size() : 0;
  };
  jit::ExecStats stats;
  ASSERT_EQ(run(memoized, jit::ExecutionMode::kJit, &stats),
            static_cast<size_t>(kNodes));
  ASSERT_TRUE(stats.used_jit);

  FaultRegistry::Instance().Arm("jit.compile", 1, FaultRegistry::kUnbounded);
  for (jit::ExecutionMode mode :
       {jit::ExecutionMode::kJit, jit::ExecutionMode::kAdaptive}) {
    SCOPED_TRACE(mode == jit::ExecutionMode::kJit ? "kJit" : "kAdaptive");
    EXPECT_EQ(run(memoized, mode, &stats), static_cast<size_t>(kNodes));
    EXPECT_TRUE(stats.used_jit);
    EXPECT_TRUE(stats.memo_hit);
    EXPECT_FALSE(stats.jit_fallback);
  }
  EXPECT_EQ(FaultRegistry::Instance().fired("jit.compile"), 0u)
      << "memo hits never evaluate the site";

  EXPECT_EQ(run(fresh, jit::ExecutionMode::kJit, &stats), 1u);
  EXPECT_TRUE(stats.jit_fallback);
  EXPECT_FALSE(stats.used_jit);
  EXPECT_EQ(FaultRegistry::Instance().fired("jit.compile"), 1u);
  FaultRegistry::Instance().Reset();
}

}  // namespace
}  // namespace poseidon
