// Crash-point scheduler for the PMem pool (tentpole leg 1 of the
// fault-injection subsystem).
//
// Every persistence primitive the pool executes — each Flush (including
// FlushBatch-coalesced flushes) and each Drain — is a *numbered injection
// point*: the injector assigns them 1, 2, 3, ... in execution order. Arming
// point k freezes the crash shadow the moment the k-th primitive begins,
// BEFORE it copies anything durable — i.e. the durable image is exactly
// "everything persisted strictly before point k", which is the state a
// power loss at that instant would leave on media.
//
// The workload keeps running after the freeze (later stores and flushes are
// volatile-only); the test then calls Pool::SimulateCrash() to revert to
// the frozen image and re-runs recovery. Running the same deterministic
// workload with k = 1..points_seen() enumerates every flush/drain ordering
// the commit path can be cut at — the exhaustive crash-state exploration
// that Persistent Memory Transactions-style testing demands.
//
// Determinism caveat: background threads (POSEIDON_BG_GC, group commit)
// interleave their own flushes into the numbering; exhaustive sweeps should
// disable them and drive a single-threaded workload.
//
// The injector is created only when PoolOptions::crash_shadow is set, so
// production pools pay nothing (a null-pointer test on the flush path).
// POSEIDON_CRASH_POINT=<k> arms point k at Create/Open time for driving
// whole binaries (e.g. the recovery bench sweep).

#ifndef POSEIDON_PMEM_FAULT_INJECTOR_H_
#define POSEIDON_PMEM_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace poseidon::pmem {

class Pool;
using Offset = uint64_t;

class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arms the scheduler: the `point`-th persistence primitive from now on
  /// (1-based) freezes the crash shadow. 0 disarms. Counting is NOT reset —
  /// arm before the workload starts.
  void ArmCrashPoint(uint64_t point) {
    armed_.store(point, std::memory_order_release);
  }

  void Disarm() { ArmCrashPoint(0); }

  /// Called by the pool at the top of every Flush/Drain. Assigns the point
  /// number and fires the armed crash, freezing `pool`'s shadow before the
  /// primitive does any durability work.
  void OnPersistPoint(Pool* pool);

  /// Persistence primitives executed so far (== the highest point number
  /// assigned). A dry run of a workload reports how many crash points an
  /// exhaustive sweep must cover.
  uint64_t points_seen() const {
    return counter_.load(std::memory_order_acquire);
  }

  /// Point number the armed crash fired at (0 = has not fired).
  uint64_t crash_fired_at() const {
    return fired_at_.load(std::memory_order_acquire);
  }

  bool crash_fired() const { return crash_fired_at() != 0; }

  // --- Media faults (tentpole leg 3 of the scrubbing subsystem) -----------
  //
  // Unlike crash points (which cut the persistence stream), media faults
  // mutate bytes that were already durable: a single-bit flip or a torn
  // 64 B line written into the crash shadow, so SimulateCrash() surfaces
  // damage exactly as decayed media would after a power loss. Without a
  // shadow the live image is corrupted directly.

  /// Flips bit `bit` (0..7) of the durable byte at pool offset `off`.
  void InjectBitFlip(Pool* pool, Offset off, uint32_t bit);

  /// Overwrites the second half of the 64 B durable line containing `off`
  /// with a recognizable pattern — a torn-line write (partial line made it
  /// to media before power loss).
  void InjectTornLine(Pool* pool, Offset off);

  /// Deterministically injects `count` single-bit flips into randomly
  /// chosen *sealed* (checksummed) lines of the pool's data area. Returns
  /// the affected line numbers (offset / 64; deduplicated, sorted). Fewer
  /// than `count` faults land only when the pool has fewer sealed lines.
  std::vector<uint64_t> InjectRandomMediaFaults(Pool* pool, uint64_t count,
                                                uint64_t seed);

  /// Parses POSEIDON_FAULT_MEDIA=<count>[:<seed>] (seed defaults to the
  /// count) and arms that many random bit flips to be applied by the next
  /// SimulateCrash().
  void ArmMediaFaultsFromEnv();
  void ArmMediaFaults(uint64_t count, uint64_t seed);

  /// Called by Pool::SimulateCrash(): applies armed media faults (once).
  void ApplyPendingMediaFaults(Pool* pool);

  /// Lines damaged by this injector so far (deduplicated, sorted).
  std::vector<uint64_t> media_faulted_lines() const;

 private:
  std::atomic<uint64_t> counter_{0};   // points assigned so far
  std::atomic<uint64_t> armed_{0};     // 0 = disarmed
  std::atomic<uint64_t> fired_at_{0};  // 0 = not fired
  std::atomic<uint64_t> media_armed_count_{0};
  std::atomic<uint64_t> media_seed_{0};
  mutable std::mutex media_mu_;
  std::vector<uint64_t> media_lines_;  // lines damaged so far

  void RecordMediaLine(Offset off);
};

}  // namespace poseidon::pmem

#endif  // POSEIDON_PMEM_FAULT_INJECTOR_H_
