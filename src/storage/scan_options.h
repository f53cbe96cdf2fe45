// Tuning knobs for the batched scan kernels (ChunkedTable::ScanBatch /
// ForEachBatch, the JIT's pipelined word loop): the interpreter's batch
// size and the software-prefetch depth. prefetch_distance 0 disables
// latency hiding while keeping the word-level skip test.

#ifndef POSEIDON_STORAGE_SCAN_OPTIONS_H_
#define POSEIDON_STORAGE_SCAN_OPTIONS_H_

#include <cstdint>
#include <cstdlib>

namespace poseidon::storage {

struct ScanOptions {
  /// Records gathered per batch before the interpreter's consumer loop
  /// runs; a morsel is split into batches. Compiled scans consume whole
  /// occupancy words and ignore it.
  uint32_t batch_size = 256;
  /// How many record slots ahead of the consumer a prefetch is issued
  /// (0 = no prefetching). The interpreter prefetches one record per
  /// consumed record. Compiled scans do not prefetch node records; any
  /// nonzero value makes them prefetch the property-chain heads of their
  /// matches a fixed number of entries ahead (EXPERIMENTS.md E7b).
  uint32_t prefetch_distance = 4;

  /// Environment overrides for sweeps without recompiling:
  ///   POSEIDON_SCAN_BATCH_SIZE, POSEIDON_SCAN_PREFETCH_DIST
  static ScanOptions FromEnv() {
    ScanOptions o;
    if (const char* v = std::getenv("POSEIDON_SCAN_BATCH_SIZE"); v && *v) {
      uint64_t n = std::strtoull(v, nullptr, 10);
      if (n >= 1 && n <= 65536) o.batch_size = static_cast<uint32_t>(n);
    }
    if (const char* v = std::getenv("POSEIDON_SCAN_PREFETCH_DIST"); v && *v) {
      uint64_t n = std::strtoull(v, nullptr, 10);
      if (n <= 64) o.prefetch_distance = static_cast<uint32_t>(n);
    }
    return o;
  }
};

}  // namespace poseidon::storage

#endif  // POSEIDON_STORAGE_SCAN_OPTIONS_H_
