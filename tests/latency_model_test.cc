// LatencyModel tests: env-knob parsing, the Dram()/EmulatedPmem() presets,
// the zero-latency passthrough guarantees that keep DRAM-mode tests fast,
// and the prefetch rules: a multi-block read charges its blocks in order,
// and a batched prefetch starts at most kPrefetchSlots fills. The spin-wait
// *durations* are calibrated elsewhere (bench_pmem_micro E1); the timed
// tests here use 50 ms blocks, so the outcomes they separate lie a whole
// block apart.

#include "pmem/latency_model.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>

namespace poseidon::pmem {
namespace {

class LatencyModelTest : public ::testing::Test {
 protected:
  void SetUp() override { ClearEnv(); }
  void TearDown() override { ClearEnv(); }

  static void ClearEnv() {
    ::unsetenv("POSEIDON_PMEM_READ_NS");
    ::unsetenv("POSEIDON_PMEM_FLUSH_NS");
    ::unsetenv("POSEIDON_PMEM_DRAIN_NS");
  }
};

TEST_F(LatencyModelTest, DramPresetIsDisabled) {
  LatencyModel m = LatencyModel::Dram();
  EXPECT_EQ(m.read_block_ns, 0u);
  EXPECT_EQ(m.flush_line_ns, 0u);
  EXPECT_EQ(m.drain_ns, 0u);
  EXPECT_FALSE(m.enabled());
}

TEST_F(LatencyModelTest, EmulatedPmemDefaultsMatchPublishedNumbers) {
  LatencyModel m = LatencyModel::EmulatedPmem();
  // The documented Optane approximations (see latency_model.h header).
  EXPECT_EQ(m.read_block_ns, 200u);
  EXPECT_EQ(m.flush_line_ns, 90u);
  EXPECT_EQ(m.drain_ns, 100u);
  EXPECT_TRUE(m.enabled());
}

TEST_F(LatencyModelTest, EnvKnobsOverrideEachComponent) {
  ::setenv("POSEIDON_PMEM_READ_NS", "350", 1);
  ::setenv("POSEIDON_PMEM_FLUSH_NS", "0", 1);
  ::setenv("POSEIDON_PMEM_DRAIN_NS", "75", 1);
  LatencyModel m = LatencyModel::EmulatedPmem();
  EXPECT_EQ(m.read_block_ns, 350u);
  EXPECT_EQ(m.flush_line_ns, 0u);  // explicit zero disables just that knob
  EXPECT_EQ(m.drain_ns, 75u);
  EXPECT_TRUE(m.enabled());  // drain + read still inject latency
}

TEST_F(LatencyModelTest, KnobsAreReadFreshOnEveryCall) {
  ::setenv("POSEIDON_PMEM_READ_NS", "111", 1);
  EXPECT_EQ(LatencyModel::EmulatedPmem().read_block_ns, 111u);
  ::setenv("POSEIDON_PMEM_READ_NS", "222", 1);
  EXPECT_EQ(LatencyModel::EmulatedPmem().read_block_ns, 222u);
}

TEST_F(LatencyModelTest, GarbageAndEmptyEnvFallBackToDefaults) {
  ::setenv("POSEIDON_PMEM_READ_NS", "not-a-number", 1);
  ::setenv("POSEIDON_PMEM_FLUSH_NS", "", 1);
  LatencyModel m = LatencyModel::EmulatedPmem();
  EXPECT_EQ(m.read_block_ns, 200u);
  EXPECT_EQ(m.flush_line_ns, 90u);
}

TEST_F(LatencyModelTest, ZeroLatencyCallsArePassthrough) {
  // Dram() models must be safe to call on every hot-path hook and cost
  // nothing observable: no spins, no thread-local churn that matters.
  LatencyModel m = LatencyModel::Dram();
  char buf[4096];
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 100000; ++i) {
    m.OnRead(buf, sizeof(buf));
    m.OnPrefetch(buf, sizeof(buf));
    m.OnFlush(64);
    m.OnDrain();
  }
  auto elapsed = std::chrono::steady_clock::now() - start;
  // 400k no-op hooks in well under a second even on a loaded CI machine;
  // a missing early-out would spin for (100000 * 64 * 90ns) = ~9 minutes.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000);
}

TEST_F(LatencyModelTest, ZeroLengthAccessesAreIgnored) {
  LatencyModel m;
  m.read_block_ns = 1'000'000'000;  // 1s per block: a miss would hang
  m.flush_line_ns = 1'000'000'000;
  auto start = std::chrono::steady_clock::now();
  char buf[8];
  m.OnRead(buf, 0);
  m.OnPrefetch(buf, 0);
  m.OnFlush(0);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            100);
}

TEST_F(LatencyModelTest, PrefetchMakesLaterReadCheaper) {
  // A block announced via OnPrefetch long enough ago is served with only
  // the residual wait. With a tiny read latency the residual is ~zero, so
  // this is timing-safe: we assert the prefetched read does NOT pay the
  // full per-block cost, using a deliberately huge cost to separate the
  // two outcomes by orders of magnitude.
  LatencyModel m;
  m.read_block_ns = 50'000'000;  // 50 ms per block — unmissable if paid
  alignas(256) static char buf[256];
  m.OnPrefetch(buf, 1);
  // Let the modeled fill complete.
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
  }
  auto start = std::chrono::steady_clock::now();
  m.OnRead(buf, 1);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            40)
      << "prefetched block paid the full read latency";
}

// The batched-prefetch tests address blocks by number: the model never
// dereferences them, and each test uses its own range because the fill
// ring is per thread and outlives a test.
const void* BlockAddr(uint64_t block) {
  return reinterpret_cast<const void*>(block * kPmemBlockSize);
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

TEST_F(LatencyModelTest, BlocksPrefetchedTogetherCostOneFillReadEitherWay) {
  // Four blocks prefetched in one batch fill in parallel. Read in one call
  // right away, the first pays what is left of its fill and the others are
  // ready by the time the read reaches them: one fill in all, the same as
  // reading them one at a time. (Charging every block its residual from
  // the start of the call would cost four fills.)
  LatencyModel m;
  m.read_block_ns = 50'000'000;  // 50 ms
  const uint64_t together[4] = {1000, 1001, 1002, 1003};
  ASSERT_EQ(m.OnPrefetchBlocks(together, 4), 4u);
  auto start = std::chrono::steady_clock::now();
  m.OnRead(BlockAddr(1000), 4 * kPmemBlockSize);
  const double one_call = MsSince(start);

  const uint64_t apart[4] = {1010, 1011, 1012, 1013};
  ASSERT_EQ(m.OnPrefetchBlocks(apart, 4), 4u);
  start = std::chrono::steady_clock::now();
  for (uint64_t b : apart) m.OnRead(BlockAddr(b), kPmemBlockSize);
  const double one_by_one = MsSince(start);

  for (double ms : {one_call, one_by_one}) {
    EXPECT_GE(ms, 25.0) << "the fill was still outstanding";
    EXPECT_LT(ms, 100.0) << "in-flight blocks paid more than one fill";
  }
}

TEST_F(LatencyModelTest, UnprefetchedBlocksPayFullLatencyInReadOrder) {
  // Blocks 2000 and 2002 are in flight, 2001 and 2003 are not. One read of
  // all four: 2000 pays its residual (~1 fill), 2001 a full fill, 2002 is
  // ready by then, 2003 a full fill: three fills, against four if each
  // in-flight block paid its residual from the start of the call.
  LatencyModel m;
  m.read_block_ns = 50'000'000;
  const uint64_t some[2] = {2000, 2002};
  ASSERT_EQ(m.OnPrefetchBlocks(some, 2), 2u);
  const auto start = std::chrono::steady_clock::now();
  m.OnRead(BlockAddr(2000), 4 * kPmemBlockSize);
  const double ms = MsSince(start);
  EXPECT_GE(ms, 100.0) << "each unprefetched block costs a full fill";
  EXPECT_LT(ms, 190.0) << "the ready in-flight block was charged again";

  // Not prefetched at all: read_block_ns per block.
  const auto cold = std::chrono::steady_clock::now();
  m.OnRead(BlockAddr(2100), 2 * kPmemBlockSize);
  EXPECT_GE(MsSince(cold), 100.0);
}

TEST_F(LatencyModelTest, BatchedPrefetchSkipsInFlightAndLastReadBlocks) {
  // The return value counts the fills a batch started: blocks in flight or
  // last read are skipped, and the ring never holds more than
  // kPrefetchSlots, so older fills are evicted and can start again.
  LatencyModel m;
  m.read_block_ns = 1;  // nonzero: the model is on; no read below spins long
  m.OnRead(BlockAddr(3000), 1);
  const uint64_t first[3] = {3000, 3001, 3002};
  EXPECT_EQ(m.OnPrefetchBlocks(first, 3), 2u) << "3000 was read last";
  const uint64_t overlap[3] = {3001, 3002, 3003};
  EXPECT_EQ(m.OnPrefetchBlocks(overlap, 3), 1u) << "3001, 3002 in flight";
  const uint64_t dup[3] = {3004, 3004, 3004};
  EXPECT_EQ(m.OnPrefetchBlocks(dup, 3), 1u);

  uint64_t many[12];
  for (uint64_t i = 0; i < 12; ++i) many[i] = 3100 + i;
  EXPECT_EQ(m.OnPrefetchBlocks(many, 12), kPrefetchSlots)
      << "at most kPrefetchSlots fills per batch";
  EXPECT_EQ(m.OnPrefetchBlocks(many, kPrefetchSlots), 0u);
  EXPECT_EQ(m.OnPrefetchBlocks(many + kPrefetchSlots, 4), 4u);
  // Those four evicted the four oldest fills of the first batch.
  EXPECT_EQ(m.OnPrefetchBlocks(many, 4), 4u);
  EXPECT_EQ(m.OnPrefetchBlocks(first + 1, 2), 2u) << "evicted long ago";

  LatencyModel off;  // read_block_ns == 0: nothing is modeled
  EXPECT_EQ(off.OnPrefetchBlocks(many, 12), 0u);
}

}  // namespace
}  // namespace poseidon::pmem
