// Query execution façade: one morsel driver serving the push-based AOT
// interpreter (§6.1) and the JIT compiler, with the paper's adaptive mode
// (§6.2 "Adaptive Execution").
//
// Every mode runs the same loop: the source is split into morsels of
// kMorselSize units (table slots for NodeScan, match positions for index
// scans; a Create source is one unit), and each morsel runs the compiled
// task function when one is set and the interpreter otherwise. The four
// ExecutionModes are two choices on top of that loop:
//
//   * when the task function gets set — never (kInterpret,
//     kInterpretParallel), before the first morsel (kJit: compile or
//     memo / persistent-cache hit, blocking), or by a background compile
//     (kAdaptive: execution starts interpreted and the next morsel after
//     the compile lands runs machine code; short queries may finish
//     entirely interpreted, the compiled code still lands in the cache);
//   * where morsels run — on the calling thread (kInterpret, kJit) or on
//     the worker pool (kInterpretParallel, kAdaptive; a single-morsel
//     source still runs inline).
//
// Both paths share one PipelineExecutor, so pipeline-breaker state
// (order-by buffers, counters, join tables) and results are identical
// regardless of where the mode switch happens. Adaptive compiles run on a
// single engine-owned compile worker that is drained and joined before the
// JitEngine is destroyed.

#ifndef POSEIDON_JIT_JIT_QUERY_ENGINE_H_
#define POSEIDON_JIT_JIT_QUERY_ENGINE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <set>

#include "jit/jit_engine.h"
#include "jit/runtime.h"
#include "util/thread_pool.h"

namespace poseidon::query {

struct QueryResult {
  std::vector<Tuple> rows;
};

}  // namespace poseidon::query

namespace poseidon::jit {

/// Source units per morsel (paper-style granularity).
inline constexpr uint64_t kMorselSize = 2048;

enum class ExecutionMode {
  kInterpret,
  kInterpretParallel,
  kJit,
  kAdaptive,
};

struct ExecStats {
  double compile_ms = 0;  ///< blocking compile cost (kJit; 0 on memo hits)
  bool used_jit = false;  ///< at least one morsel ran compiled code
  bool cache_hit = false;
  bool memo_hit = false;
  uint64_t jit_morsels = 0;          ///< morsels that ran compiled code
  uint64_t interpreted_morsels = 0;  ///< morsels that ran interpreted
  bool jit_fallback = false;  ///< compile failed; query ran interpreted
  /// Adjacency-cache traffic attributed to this execution (hits serve
  /// Expand from DRAM arrays; misses include builds and fallback walks).
  /// Tallied on the transaction, so exact under concurrent queries.
  uint64_t adj_cache_hits = 0;
  uint64_t adj_cache_misses = 0;
  /// rts-bump coalescing attributed to this execution: CAS-maxes skipped
  /// because the record already carried rts >= reader id, and bumps elided
  /// entirely by shared-snapshot read-only transactions.
  uint64_t rts_skipped = 0;
  uint64_t rts_deferred = 0;
  /// Integrity-scrub activity overlapping this execution (pool checksums
  /// enabled only): lines verified, repaired in place, and quarantined —
  /// includes cold-chunk first-touch verification the query triggered.
  uint64_t scrub_verified = 0;
  uint64_t scrub_repaired = 0;
  uint64_t scrub_quarantined = 0;
  /// Overload governance (cooperative cancellation): set when this execution
  /// was cut short by the transaction's CancelToken. Exactly one of the two
  /// may be set; the returned Status carries the same code.
  bool deadline_exceeded = false;
  bool cancelled = false;
};

class JitQueryEngine {
 public:
  /// `cache` may be null (no persistent compiled-code cache).
  static Result<std::unique_ptr<JitQueryEngine>> Create(
      storage::GraphStore* store, index::IndexManager* indexes,
      size_t num_threads, QueryCache* cache);

  // Pool workers and the compile worker hold `this`.
  JitQueryEngine(const JitQueryEngine&) = delete;
  JitQueryEngine& operator=(const JitQueryEngine&) = delete;

  /// Executes `plan` inside `tx`. The plan only needs to live for the
  /// duration of this call: adaptive background compilation operates on a
  /// self-contained module generated synchronously (JitEngine::BeginCompile).
  /// The parallel modes are for read-only plans: MVTO write sets are
  /// transaction-private and not synchronized across worker threads.
  Result<query::QueryResult> Execute(const query::Plan& plan,
                                     tx::Transaction* tx,
                                     const std::vector<query::Value>& params,
                                     ExecutionMode mode,
                                     ExecStats* stats = nullptr,
                                     const JitOptions& options = {});

  JitEngine* engine() { return engine_.get(); }
  ThreadPool* pool() { return &pool_; }
  storage::GraphStore* store() const { return store_; }

  /// Batched-scan knobs applied to every execution; shared by the
  /// interpreter context and the JIT codegen options.
  const storage::ScanOptions& scan_options() const { return scan_options_; }
  void set_scan_options(const storage::ScanOptions& o) { scan_options_ = o; }

  /// Whether generated code carries the adjacency-cache fast path (part of
  /// the compiled-code cache key). The runtime switch on the cache itself
  /// lives in tx::AdjacencyCache::set_enabled; GraphDb toggles both.
  bool adj_cache_enabled() const { return adj_cache_enabled_; }
  void set_adj_cache_enabled(bool on) { adj_cache_enabled_ = on; }

  /// Blocks until background (adaptive) compilations are finished. The
  /// destructor drains them too; call this to make a finished compile's
  /// code visible to the next query (benchmarks, tests).
  void WaitForBackgroundCompiles() { compiler_.WaitIdle(); }

 private:
  JitQueryEngine(storage::GraphStore* store, index::IndexManager* indexes,
                 size_t num_threads);

  /// kAdaptive: probes the memo / persistent cache and otherwise queues
  /// the compile on the compile worker, which publishes the function into
  /// `task_fn` when it lands.
  void CompileInBackground(
      const query::Plan& plan, const JitOptions& options,
      const std::shared_ptr<std::atomic<CompiledQueryFn>>& task_fn,
      ExecStats* stats);

  /// The morsel driver: runs every morsel of `exec`'s source through
  /// `task_fn` when it is set and the interpreter otherwise, on the calling
  /// thread or (`parallel` and more than one morsel) on the pool, then
  /// flushes the pipeline breakers.
  Status RunMorsels(query::PipelineExecutor* exec,
                    const std::atomic<CompiledQueryFn>& task_fn,
                    JitRuntimeState* state, bool parallel,
                    tx::Transaction* tx, ExecStats* stats);

  storage::GraphStore* store_;
  index::IndexManager* indexes_;
  ThreadPool pool_;  // morsel workers
  std::unique_ptr<JitEngine> engine_;
  storage::ScanOptions scan_options_ = storage::ScanOptions::FromEnv();
  bool adj_cache_enabled_ = tx::AdjacencyCacheOptions::FromEnv().enabled;

  std::mutex bg_mu_;
  std::set<uint64_t> bg_query_ids_;  // dedupe concurrent compilations
  // Declared last: destroyed first, so queued compiles drain and the worker
  // joins while engine_ and the dedupe set are still alive.
  ThreadPool compiler_{1};
};

}  // namespace poseidon::jit

#endif  // POSEIDON_JIT_JIT_QUERY_ENGINE_H_
