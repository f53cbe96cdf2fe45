// Emulated PMem timing model.
//
// This reproduction runs on DRAM; real Optane DCPMMs are not available. To
// preserve the performance *shape* the paper reports (C1: ~3x higher read
// latency and lower bandwidth than DRAM; C2: asymmetrically slower writes;
// C3: 256-byte internal block granularity), the pool injects calibrated
// busy-waits at the same points where a real DCPMM pays its costs:
//
//   * on reads, per 256-byte block touched (TouchRead),
//   * on cache-line flushes (clwb emulation, per dirty line),
//   * on store fences (sfence emulation).
//
// Defaults approximate published Optane measurements (DRAM random read
// ~85 ns vs PMem ~300 ns; flush ~90 ns/line; fence ~100 ns) and can be
// overridden via environment variables for calibration sweeps:
//   POSEIDON_PMEM_READ_NS, POSEIDON_PMEM_FLUSH_NS, POSEIDON_PMEM_DRAIN_NS

#ifndef POSEIDON_PMEM_LATENCY_MODEL_H_
#define POSEIDON_PMEM_LATENCY_MODEL_H_

#include <chrono>
#include <cstdint>

#include "util/spin_timer.h"

namespace poseidon::pmem {

/// Size of the internal DCPMM write-combining block (C3).
inline constexpr uint64_t kPmemBlockSize = 256;
inline constexpr uint64_t kCacheLineSize = 64;

/// Number of in-flight software prefetches the model tracks per thread,
/// mirroring the small number of fill buffers a core can keep outstanding
/// against the DIMM. Prefetches beyond this evict the oldest entry.
inline constexpr uint32_t kPrefetchSlots = 8;

struct LatencyModel {
  /// Extra nanoseconds per 256-byte block on a read access (0 = disabled).
  uint64_t read_block_ns = 0;
  /// Extra nanoseconds per flushed cache line (clwb).
  uint64_t flush_line_ns = 0;
  /// Extra nanoseconds per drain barrier (sfence).
  uint64_t drain_ns = 0;

  /// No injected latency: behaves like DRAM.
  static LatencyModel Dram() { return LatencyModel{}; }

  /// Default emulated-Optane model; env vars override individual knobs.
  static LatencyModel EmulatedPmem();

  bool enabled() const {
    return read_block_ns != 0 || flush_line_ns != 0 || drain_ns != 0;
  }

  /// Models a read of [addr, addr+len): one delay per touched 256 B block,
  /// except for blocks still in the DCPMM's internal buffer. The buffer is
  /// modeled as the most recently accessed block per thread — consecutive
  /// accesses within one block (sequential scans over 64 B records, chained
  /// property records in the same block) are served buffer-hot, which is
  /// what gives PMem its near-sequential-bandwidth behaviour (C3).
  ///
  /// Blocks announced via OnPrefetch / OnPrefetchBlocks earlier only pay
  /// what is left of their in-flight fill, so software prefetching overlaps
  /// PMem latency with real work — exactly the effect a hardware
  /// `prefetchnta` has against a DCPMM. The blocks are charged in address
  /// order, as reading them one at a time would be: an in-flight block pays
  /// only the part of its fill that is still outstanding once the charges
  /// of the blocks before it have elapsed. The clock is read at most once
  /// per call, and only when an in-flight block is met.
  void OnRead(const void* addr, uint64_t len) const {
    if (read_block_ns == 0 || len == 0) return;
    PrefetchRing& ring = TlsRing();
    auto a = reinterpret_cast<uint64_t>(addr);
    uint64_t first = a / kPmemBlockSize;
    uint64_t last = (a + len - 1) / kPmemBlockSize;
    uint64_t wait_ns = 0;
    uint64_t now = 0;  // fetched lazily; steady_clock reads are not free
    for (uint64_t b = first; b <= last; ++b) {
      if (b == ring.last_block) continue;
      if (uint64_t* ready_at = ring.Find(b)) {
        if (now == 0) now = NowNs();
        // The read reaches this block once the waits before it are over.
        const uint64_t reached = now + wait_ns;
        if (*ready_at > reached) wait_ns += *ready_at - reached;
        continue;
      }
      wait_ns += read_block_ns;
    }
    ring.last_block = last;
    if (wait_ns != 0) SpinWaitNs(wait_ns);
  }

  /// Announces an upcoming read of [addr, addr+len): starts a modeled fill
  /// that completes `read_block_ns` from now for each touched block. Pair
  /// with __builtin_prefetch so the DRAM emulation machine also warms its
  /// real caches. A later OnRead of the same block spins only for whatever
  /// portion of the fill has not yet elapsed.
  void OnPrefetch(const void* addr, uint64_t len) const {
    if (read_block_ns == 0 || len == 0) return;
    PrefetchRing& ring = TlsRing();
    auto a = reinterpret_cast<uint64_t>(addr);
    uint64_t first = a / kPmemBlockSize;
    uint64_t last = (a + len - 1) / kPmemBlockSize;
    uint64_t now = NowNs();
    for (uint64_t b = first; b <= last; ++b) {
      if (b == ring.last_block || ring.Find(b) != nullptr) continue;
      ring.Insert(b, now + read_block_ns);
    }
  }

  /// Batched prefetch: starts fills for the 256 B blocks `blocks[0..n)`
  /// (block numbers, address / kPmemBlockSize) with one clock read. Blocks
  /// already in flight or last read are skipped, and at most kPrefetchSlots
  /// fills are started, so a batch never evicts its own fills. Returns the
  /// number of fills started — the ring slots the batch took.
  uint32_t OnPrefetchBlocks(const uint64_t* blocks, uint32_t n) const {
    if (read_block_ns == 0 || n == 0) return 0;
    PrefetchRing& ring = TlsRing();
    uint64_t ready_at = 0;  // one clock read, only if a fill starts
    uint32_t started = 0;
    for (uint32_t i = 0; i < n && started < kPrefetchSlots; ++i) {
      const uint64_t b = blocks[i];
      if (b == ring.last_block || ring.Find(b) != nullptr) continue;
      if (ready_at == 0) ready_at = NowNs() + read_block_ns;
      ring.Insert(b, ready_at);
      ++started;
    }
    return started;
  }

  /// Models flushing `lines` dirty cache lines.
  void OnFlush(uint64_t lines) const {
    if (flush_line_ns != 0 && lines != 0) SpinWaitNs(flush_line_ns * lines);
  }

  /// Models a store fence.
  void OnDrain() const {
    if (drain_ns != 0) SpinWaitNs(drain_ns);
  }

 private:
  /// Per-thread view of the DIMM's buffering: the most recently accessed
  /// block (served hot) plus up to kPrefetchSlots fills in flight.
  struct PrefetchRing {
    uint64_t last_block = ~0ull;
    uint64_t blocks[kPrefetchSlots];
    uint64_t ready_at_ns[kPrefetchSlots] = {};
    uint32_t next = 0;

    PrefetchRing() {
      for (uint64_t& b : blocks) b = ~0ull;
    }

    uint64_t* Find(uint64_t block) {
      for (uint32_t i = 0; i < kPrefetchSlots; ++i) {
        if (blocks[i] == block) return &ready_at_ns[i];
      }
      return nullptr;
    }

    void Insert(uint64_t block, uint64_t ready_at) {
      blocks[next] = block;
      ready_at_ns[next] = ready_at;
      next = (next + 1) % kPrefetchSlots;
    }
  };

  static PrefetchRing& TlsRing() {
    thread_local PrefetchRing ring;
    return ring;
  }

  static uint64_t NowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
};

}  // namespace poseidon::pmem

#endif  // POSEIDON_PMEM_LATENCY_MODEL_H_
