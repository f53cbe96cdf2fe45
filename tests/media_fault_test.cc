// End-to-end media-fault tolerance (DESIGN.md "Online scrubbing & media
// faults"): randomized bit flips and torn lines are injected into the
// durable image, surfaced by SimulateCrash(), and must all be *detected*
// by the scrubber; re-derivable structures repair in place, unrepairable
// slots are quarantined so queries degrade to Status::Corruption — never
// garbage values, never crashes.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/graph_db.h"
#include "pmem/fault_injector.h"
#include "pmem/psan.h"

namespace poseidon::core {
namespace {

using query::Expr;
using query::Plan;
using query::PlanBuilder;
using query::Value;
using storage::PVal;
using storage::RecordId;

// DRAM-backed pool with a crash shadow: checksums are on (crash-shadow
// pools maintain the sidecar), media faults land in the shadow and are
// surfaced by SimulateCrash(), and there is no PMem latency emulation or
// query cache to slow the campaign down.
GraphDbOptions ShadowOptions() {
  GraphDbOptions o;
  o.path = "";
  o.capacity = 96ull << 20;
  o.crash_shadow = true;
  o.query_threads = 2;
  return o;
}

class MediaFaultTest : public ::testing::Test {
 protected:
  void Create() {
    auto db = GraphDb::Create(ShadowOptions());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    pool_ = db_->pool();
    ASSERT_TRUE(pool_->checksums_enabled());
    ASSERT_NE(pool_->fault_injector(), nullptr);
    ASSERT_NE(db_->scrubber(), nullptr);
  }

  // True when any byte of `line` (64 B line number) is quarantined.
  bool LineQuarantined(uint64_t line) const {
    const char* p = pool_->ToPtr<char>(line * pmem::kCacheLineSize);
    return pool_->IsQuarantinedRange(p, pmem::kCacheLineSize);
  }

  std::unique_ptr<GraphDb> db_;
  pmem::Pool* pool_ = nullptr;
};

TEST_F(MediaFaultTest, CleanPoolScrubsClean) {
  Create();
  auto person = *db_->Code("Person");
  auto key = *db_->Code("k");
  auto tx = db_->Begin();
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(tx->CreateNode(person, {{key, PVal::Int(i)}}).ok());
  }
  ASSERT_TRUE(tx->Commit().ok());

  EXPECT_EQ(db_->scrubber()->ScrubOnce(), 0u);
  auto health = db_->Health();
  EXPECT_TRUE(health.checksums_enabled);
  EXPECT_GT(health.scrub_lines_verified, 0u);
  EXPECT_EQ(health.scrub_mismatches, 0u);
  EXPECT_EQ(health.quarantined_lines, 0u);
  EXPECT_EQ(health.psan_violations, 0u);
}

// The acceptance campaign: >=100 randomized single-bit flips across the
// whole sealed data area. Every flipped line must end either verified
// clean (repaired / adopted) or quarantined — an undetected corruption
// would still verify as kMismatch without being quarantined. Reads after
// the scrub return a correct value or Status::Corruption, never garbage.
TEST_F(MediaFaultTest, RandomizedBitFlipCampaignDetectsEverything) {
  Create();
  constexpr int kNodes = 2000;
  auto person = *db_->Code("Person");
  auto id_key = *db_->Code("id");
  auto v_key = *db_->Code("v");
  auto knows = *db_->Code("knows");

  std::vector<RecordId> ids;
  {
    auto tx = db_->Begin();
    for (int i = 0; i < kNodes; ++i) {
      auto id = tx->CreateNode(
          person, {{id_key, PVal::Int(i)}, {v_key, PVal::Int(i * 3)}});
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    for (int i = 0; i + 1 < kNodes; i += 7) {
      ASSERT_TRUE(tx->CreateRelationship(ids[i], ids[i + 1], knows, {}).ok());
    }
    ASSERT_TRUE(tx->Commit().ok());
  }
  ASSERT_TRUE(db_->CreateIndex("Person", "id").ok());

  // Pin transaction: begun before the updates below so their pre-update
  // versions stay retained — the scrubber's resurrect path rolls corrupt
  // updated records back to them.
  auto pin = db_->Begin();
  {
    auto tx = db_->Begin();
    for (int i = 0; i < kNodes; i += 3) {
      ASSERT_TRUE(
          tx->SetNodeProperty(ids[i], v_key, PVal::Int(i * 3 + 1)).ok());
    }
    ASSERT_TRUE(tx->Commit().ok());
  }

  pool_->SealPending();
  auto lines =
      pool_->fault_injector()->InjectRandomMediaFaults(pool_, 120, 0xC0FFEE);
  ASSERT_GE(lines.size(), 100u);
  pool_->SimulateCrash();

  uint64_t mismatches = db_->scrubber()->ScrubOnce();
  EXPECT_GE(mismatches, 1u);

  // 100% detection: no injected line may remain mismatched-but-live.
  for (uint64_t line : lines) {
    auto v = pool_->VerifyLine(line);
    bool detected =
        v == pmem::Pool::LineVerify::kClean || LineQuarantined(line);
    EXPECT_TRUE(detected) << "line " << line << " verdict "
                          << static_cast<int>(v);
  }
  // A second pass finds nothing new (quarantined lines are skipped).
  EXPECT_EQ(db_->scrubber()->ScrubOnce(), 0u);

  auto health = db_->Health();
  EXPECT_GE(health.scrub_mismatches, mismatches);
  EXPECT_EQ(health.scrub_repaired + health.scrub_adopted +
                health.scrub_quarantined + health.scrub_resealed,
            health.scrub_mismatches);

  // Reads degrade loudly, never silently: each property read returns the
  // committed value (updated records may resurrect to their pre-update
  // version) or Status::Corruption.
  int corrupt_reads = 0;
  {
    auto tx = db_->Begin();
    for (int i = 0; i < kNodes; ++i) {
      auto v = tx->GetNodeProperty(ids[i], v_key);
      if (v.ok()) {
        int64_t got = v->AsInt();
        if (i % 3 == 0) {
          EXPECT_TRUE(got == i * 3 || got == i * 3 + 1) << "node " << i;
        } else {
          EXPECT_EQ(got, i * 3) << "node " << i;
        }
      } else {
        EXPECT_EQ(v.status().code(), StatusCode::kCorruption)
            << v.status().ToString();
        ++corrupt_reads;
      }
    }
  }
  // Scans skip tombstoned slots instead of failing the whole query.
  Plan count = PlanBuilder().NodeScan(person).Count().Build();
  auto r = db_->Execute(count);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->rows[0][0].AsInt(), 0);
  EXPECT_LE(r->rows[0][0].AsInt(), kNodes);
  EXPECT_GE(r->rows[0][0].AsInt() + corrupt_reads, kNodes - 64);

  // Index probes for intact records still work after leaf repair.
  {
    auto tx = db_->Begin();
    for (int i = 1; i < kNodes; ++i) {
      auto v = tx->GetNodeProperty(ids[i], id_key);
      if (!v.ok() || v->AsInt() != i) continue;  // record was lost
      Plan probe = PlanBuilder()
                       .IndexScan(person, id_key, Expr::Param(0))
                       .Count()
                       .Build();
      auto pr = db_->Execute(probe, jit::ExecutionMode::kInterpret,
                             {Value::Int(i)});
      ASSERT_TRUE(pr.ok()) << pr.status().ToString();
      EXPECT_EQ(pr->rows[0][0].AsInt(), 1);
      break;
    }
  }
  EXPECT_EQ(pmem::PsanTotalViolations(), 0u);
}

// A whole torn (garbage) line over an updated record resurrects from its
// retained version chain — read-repair, not quarantine. NodeRecord is
// exactly one cache line, so the tear hits a single slot.
TEST_F(MediaFaultTest, TornNodeRecordResurrectsFromVersionChain) {
  Create();
  auto person = *db_->Code("Person");
  auto v_key = *db_->Code("v");
  std::vector<RecordId> ids;
  {
    auto tx = db_->Begin();
    for (int i = 0; i < 4; ++i) {
      auto id = tx->CreateNode(person, {{v_key, PVal::Int(7)}});
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    ASSERT_TRUE(tx->Commit().ok());
  }
  auto pin = db_->Begin();  // retains the pre-update versions below
  {
    auto tx = db_->Begin();
    for (RecordId id : ids) {
      ASSERT_TRUE(tx->SetNodeProperty(id, v_key, PVal::Int(8)).ok());
    }
    ASSERT_TRUE(tx->Commit().ok());
  }
  pool_->SealPending();
  pool_->fault_injector()->InjectTornLine(
      pool_, pool_->ToOffset(db_->store()->nodes().At(ids[1])));
  pool_->SimulateCrash();

  EXPECT_GE(db_->scrubber()->ScrubOnce(), 1u);
  EXPECT_EQ(pool_->quarantined_lines(), 0u);
  auto tx = db_->Begin();
  auto v = tx->GetNodeProperty(ids[1], v_key);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_TRUE(v->AsInt() == 7 || v->AsInt() == 8);
  EXPECT_EQ(pmem::PsanTotalViolations(), 0u);
}

// A flip in a *free* slot's line is harmless: the content is dead bytes,
// so the line is adopted (resealed as-is), not quarantined.
TEST_F(MediaFaultTest, FreeSlotLinesAreAdopted) {
  Create();
  auto person = *db_->Code("Person");
  auto tx = db_->Begin();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(tx->CreateNode(person, {}).ok());
  }
  ASSERT_TRUE(tx->Commit().ok());
  pool_->SealPending();

  // Slot 100 of chunk 0 exists (512 slots/chunk) but is unoccupied.
  auto& nodes = db_->store()->nodes();
  ASSERT_FALSE(nodes.IsOccupied(100));
  pool_->fault_injector()->InjectBitFlip(pool_, pool_->ToOffset(nodes.At(100)),
                                         5);
  pool_->SimulateCrash();

  EXPECT_GE(db_->scrubber()->ScrubOnce(), 1u);
  EXPECT_EQ(pool_->quarantined_lines(), 0u);
  EXPECT_GE(pool_->scrub_stats().adopted.load(), 1u);
  EXPECT_EQ(pmem::PsanTotalViolations(), 0u);
}

// The first header line of a chunk carries re-derivable fields (next
// pointer, first id): corruption there is repaired from the DRAM chunk
// directory and the table keeps growing and reading correctly.
TEST_F(MediaFaultTest, ChunkHeaderLineIsRepaired) {
  Create();
  auto person = *db_->Code("Person");
  auto v_key = *db_->Code("v");
  std::vector<RecordId> ids;
  {
    auto tx = db_->Begin();
    for (int i = 0; i < 600; ++i) {  // > 512: forces a second chunk
      auto id = tx->CreateNode(person, {{v_key, PVal::Int(i)}});
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    ASSERT_TRUE(tx->Commit().ok());
  }
  pool_->SealPending();

  // Locate chunk 0's first header line (the one holding next/first_id).
  auto& nodes = db_->store()->nodes();
  std::vector<uint64_t> sealed;
  pool_->CollectSealedLines(&sealed);
  uint64_t header_line = 0;
  for (uint64_t line : sealed) {
    auto owner = nodes.OwnerOfLine(line * pmem::kCacheLineSize);
    using Kind = storage::NodeTable::LineKind;
    if (owner.kind == Kind::kHeader && owner.chunk == 0) {
      header_line = line;
      break;  // sealed lines are sorted: first hit is the first line
    }
  }
  ASSERT_NE(header_line, 0u);
  // Byte 0 is the low byte of the chunk's `next` offset.
  pool_->fault_injector()->InjectBitFlip(
      pool_, header_line * pmem::kCacheLineSize, 3);
  pool_->SimulateCrash();

  EXPECT_GE(db_->scrubber()->ScrubOnce(), 1u);
  EXPECT_EQ(pool_->quarantined_lines(), 0u);
  // The inter-chunk link works: reads cross into chunk 1 and inserts land.
  auto tx = db_->Begin();
  auto v = tx->GetNodeProperty(ids[599], v_key);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->AsInt(), 599);
  ASSERT_TRUE(tx->CreateNode(person, {{v_key, PVal::Int(600)}}).ok());
  ASSERT_TRUE(tx->Commit().ok());
  EXPECT_EQ(pmem::PsanTotalViolations(), 0u);
}

// The compiled NodeScan reads node chunks through the chunk mirror rather
// than ChunkedTable::ScanBatch, so it must run the same first-touch
// verification: a kJit scan that is the first touch of a cold chunk after
// Open finds a flipped record, quarantines it, and returns the rows a later
// interpreted scan returns, with and without read latency.
TEST_F(MediaFaultTest, CompiledScanVerifiesColdChunkOnFirstTouch) {
  for (uint64_t read_ns : {uint64_t{0}, uint64_t{2000}}) {
    SCOPED_TRACE("read_block_ns " + std::to_string(read_ns));
    const std::string path = testing::TempDir() + "/jit_first_touch.pmem";
    std::filesystem::remove(path);
    GraphDbOptions o = ShadowOptions();
    o.path = path;
    o.enable_query_cache = false;
    o.has_latency_override = true;
    o.latency_override.read_block_ns = read_ns;
    pmem::Offset flipped = 0;
    {
      auto db = GraphDb::Create(o);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      auto person = *(*db)->Code("Person");
      auto v_key = *(*db)->Code("v");
      std::vector<RecordId> ids;
      auto tx = (*db)->Begin();
      for (int i = 0; i < 1200; ++i) {  // three chunks of 512 slots
        auto id = tx->CreateNode(person, {{v_key, PVal::Int(i)}});
        ASSERT_TRUE(id.ok());
        ids.push_back(*id);
      }
      ASSERT_TRUE(tx->Commit().ok());
      flipped = (*db)->pool()->ToOffset((*db)->store()->nodes().At(ids[1100]));
    }
    {
      // Media decay while the pool is closed: one bit of an occupied
      // record in the last chunk, which nothing reads before the scan.
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(f.good());
      const auto at = static_cast<std::streamoff>(
          flipped + offsetof(storage::NodeRecord, reserved));
      char byte;
      f.seekg(at);
      f.read(&byte, 1);
      byte = static_cast<char>(byte ^ 0x10);
      f.seekp(at);
      f.write(&byte, 1);
    }
    auto db = GraphDb::Open(o);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    pmem::Pool* pool = (*db)->pool();
    ASSERT_TRUE(pool->checksums_enabled());
    const uint64_t mismatches_before = pool->scrub_stats().mismatches.load();
    Plan plan = PlanBuilder()
                    .NodeScan(*(*db)->Code("Person"))
                    .Project({Expr::RecordId(0),
                              Expr::Property(0, *(*db)->Code("v"))})
                    .Build();
    jit::ExecStats stats;
    auto jit = (*db)->Execute(plan, jit::ExecutionMode::kJit, {}, &stats);
    ASSERT_TRUE(jit.ok()) << jit.status().ToString();
    EXPECT_TRUE(stats.used_jit);
    EXPECT_GT(pool->scrub_stats().mismatches.load(), mismatches_before)
        << "the compiled scan served the cold chunk unverified";
    EXPECT_GE(stats.scrub_quarantined, 1u);
    auto aot = (*db)->Execute(plan, jit::ExecutionMode::kInterpret);
    ASSERT_TRUE(aot.ok()) << aot.status().ToString();
    ASSERT_EQ(jit->rows.size(), aot->rows.size());
    EXPECT_EQ(jit->rows.size(), 1199u) << "the flipped record is quarantined";
    for (size_t i = 0; i < aot->rows.size(); ++i) {
      EXPECT_EQ(jit->rows[i][0].AsInt(), aot->rows[i][0].AsInt());
      EXPECT_EQ(jit->rows[i][1].AsInt(), aot->rows[i][1].AsInt());
    }
    db->reset();
    std::filesystem::remove(path);
  }
  EXPECT_EQ(pmem::PsanTotalViolations(), 0u);
}

// Dictionary lines: the hash table rebuilds, the meta block restores from
// its DRAM mirror, and codes whose string bytes are lost poison only
// themselves — Decode answers correctly or with Corruption, and new
// strings still intern.
TEST_F(MediaFaultTest, DictionaryLinesDegradeGracefully) {
  Create();
  std::vector<std::pair<storage::DictCode, std::string>> interned;
  for (int i = 0; i < 64; ++i) {
    std::string s = "dict-string-" + std::to_string(i);
    auto code = db_->Code(s);
    ASSERT_TRUE(code.ok());
    interned.emplace_back(*code, s);
  }
  pool_->SealPending();

  std::vector<uint64_t> sealed;
  pool_->CollectSealedLines(&sealed);
  const auto& dict = db_->store()->dict();
  int injected = 0;
  for (uint64_t line : sealed) {
    if (!dict.OwnsLine(line * pmem::kCacheLineSize)) continue;
    pool_->fault_injector()->InjectBitFlip(
        pool_, line * pmem::kCacheLineSize + (injected % 64),
        injected % 8);
    if (++injected == 8) break;
  }
  ASSERT_GT(injected, 0);
  pool_->SimulateCrash();

  EXPECT_GE(db_->scrubber()->ScrubOnce(), 1u);
  for (const auto& [code, s] : interned) {
    auto d = db_->Decode(code);
    if (d.ok()) {
      EXPECT_EQ(*d, s);
    } else {
      EXPECT_EQ(d.status().code(), StatusCode::kCorruption)
          << d.status().ToString();
    }
  }
  auto fresh = db_->Code("interned-after-the-fault");
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(pmem::PsanTotalViolations(), 0u);
}

// A commit-boundary seal racing a concurrent write to the same line must
// never leave a stale checksum in the durable image: at every instant the
// durable slot is either 0 (unsealed, not judged) or the CRC of the durable
// content. A stale seal is invisible in-process (the line stays in the
// pending set, which reseals on touch) but a crash wipes that set, and
// recovery would then quarantine a perfectly good committed line.
TEST_F(MediaFaultTest, SealRaceNeverLeavesStaleDurableChecksum) {
  Create();
  // A dedicated line nothing else reads: only the seal protocol is under
  // test, so the writer can scribble freely.
  auto off = pool_->Allocate(pmem::kCacheLineSize);
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  uint64_t line = *off / pmem::kCacheLineSize;
  char* p = pool_->ToPtr<char>(*off);
  std::memset(p, 0xA5, pmem::kCacheLineSize);  // psan: test scribble
  pool_->Flush(p, pmem::kCacheLineSize);
  pool_->SealPending();
  ASSERT_EQ(pool_->VerifyLine(line), pmem::Pool::LineVerify::kClean);
  for (int round = 0; round < 20000; ++round) {
    std::thread sealer([&] { pool_->SealPending(); });
    p[63] = static_cast<char>(round);  // psan: raw store is the test subject
    pool_->Flush(p + 63, 1);
    sealer.join();
    // "Crash now": the durable image must verify unsealed or clean. A
    // mismatch means the sealer published a CRC computed before this
    // round's flush — the stale-seal race.
    auto v = pool_->VerifyLine(line);
    ASSERT_NE(v, pmem::Pool::LineVerify::kMismatch) << "round " << round;
  }
  EXPECT_EQ(pmem::PsanTotalViolations(), 0u);
}

// SimulateCrash() must leave the scrubber in a deterministic state for
// crash-point sweeps: epoch bumped (the background thread restarts its
// cursor), quarantine cleared, and a fresh full pass finds nothing.
TEST_F(MediaFaultTest, SimulateCrashResetsScrubberState) {
  Create();
  auto person = *db_->Code("Person");
  {
    auto tx = db_->Begin();
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(tx->CreateNode(person, {}).ok());
    }
    ASSERT_TRUE(tx->Commit().ok());
  }
  pool_->SealPending();
  auto* scrubber = db_->scrubber();
  scrubber->SetRate(64);
  scrubber->Start();
  EXPECT_TRUE(scrubber->running());

  std::vector<uint64_t> sealed;
  pool_->CollectSealedLines(&sealed);
  ASSERT_FALSE(sealed.empty());
  pool_->QuarantineLine(sealed.front());
  EXPECT_EQ(pool_->quarantined_lines(), 1u);

  uint64_t epoch = pool_->scrub_epoch();
  pool_->SimulateCrash();
  EXPECT_EQ(pool_->scrub_epoch(), epoch + 1);
  EXPECT_EQ(pool_->quarantined_lines(), 0u);
  EXPECT_EQ(scrubber->ScrubOnce(), 0u);
  scrubber->Stop();
  EXPECT_FALSE(scrubber->running());
  EXPECT_EQ(pmem::PsanTotalViolations(), 0u);
}

}  // namespace
}  // namespace poseidon::core
