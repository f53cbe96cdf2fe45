// GraphDb: the public entry point of the engine — one object wiring the
// PMem pool, graph storage, MVTO transactions, secondary indexes, and the
// AOT/JIT/adaptive query engines together (the full architecture of the
// paper).
//
// Typical usage:
//
//   core::GraphDbOptions options;
//   options.path = "/mnt/pmem/social.graph";    // "" = pure DRAM mode
//   auto db = core::GraphDb::Create(options);   // or Open() to recover
//   auto tx = (*db)->Begin();
//   auto alice = tx->CreateNode(*(*db)->Code("Person"),
//                               {{*(*db)->Code("name"), PVal::Int(1)}});
//   tx->Commit();
//
//   query::Plan plan = query::PlanBuilder().NodeScan(person).Count().Build();
//   auto result = (*db)->Execute(plan, jit::ExecutionMode::kAdaptive);

#ifndef POSEIDON_CORE_GRAPH_DB_H_
#define POSEIDON_CORE_GRAPH_DB_H_

#include <memory>
#include <string>

#include "jit/jit_query_engine.h"
#include "pmem/scrubber.h"

namespace poseidon::core {

struct GraphDbOptions {
  /// Pool file path. Empty = volatile DRAM mode (the paper's DRAM
  /// baseline: no persistence, no PMem latency emulation).
  std::string path;
  uint64_t capacity = 1ull << 30;
  /// Worker threads for parallel / adaptive execution.
  size_t query_threads = 4;
  /// Persist compiled query code in the pool (pmem mode only).
  bool enable_query_cache = true;
  /// Track flushes so tests can SimulateCrash().
  bool crash_shadow = false;
  /// Override the emulated-PMem latency model (e.g. LatencyModel::Dram()
  /// to measure pure software overhead).
  bool has_latency_override = false;
  pmem::LatencyModel latency_override;
  /// Batched-scan knobs (batch size, prefetch distance) applied to all
  /// executions; defaults honour the POSEIDON_SCAN_* env variables.
  storage::ScanOptions scan = storage::ScanOptions::FromEnv();
  /// Redo-log segment count: 0 = POSEIDON_REDO_SEGMENTS env (default 8).
  uint32_t redo_segments = 0;
};

class GraphDb {
 public:
  /// Creates a new database. Fails if a pmem file already exists at path.
  static Result<std::unique_ptr<GraphDb>> Create(const GraphDbOptions& options);

  /// Opens an existing database, running crash recovery when the previous
  /// session did not shut down cleanly: redo-log replay (pool open),
  /// in-flight transaction rollback, and hybrid index inner rebuild.
  static Result<std::unique_ptr<GraphDb>> Open(const GraphDbOptions& options);

  GraphDb(const GraphDb&) = delete;
  GraphDb& operator=(const GraphDb&) = delete;
  ~GraphDb();

  /// Starts an MVTO transaction (snapshot isolation, §5).
  std::unique_ptr<tx::Transaction> Begin() { return txm_->Begin(); }

  /// Starts a writer transaction through the admission gate (overload
  /// governance): sheds with ResourceExhausted when POSEIDON_MAX_WRITERS
  /// writers are already in flight after a bounded backoff wait, or when the
  /// pool sits above its soft space watermark even after emergency GC.
  Result<std::unique_ptr<tx::Transaction>> BeginWrite() {
    return txm_->BeginWrite();
  }

  /// Cooperatively cancels the work running under `tx`: interpreter push
  /// loops, compiled scan/expand loops, morsel workers, and analytics
  /// snapshot builds observe the token at batch granularity and abort with
  /// kCancelled. Safe from any thread.
  static void Cancel(tx::Transaction* tx) { tx->cancel_token()->Cancel(); }

  /// Starts a read-only transaction. With snapshot reuse enabled
  /// (POSEIDON_SNAPSHOT_EPOCH_US > 0, the default) it reads at the shared
  /// published snapshot timestamp and never mutates shared state — no
  /// timestamp allocation, no per-record rts bumps (§5 read path,
  /// DESIGN.md "Read-path scalability").
  std::unique_ptr<tx::Transaction> BeginReadOnly() {
    return txm_->BeginReadOnly();
  }

  /// Interns a label / property-key / string value.
  Result<storage::DictCode> Code(std::string_view s) {
    return store_->Code(s);
  }
  Result<std::string_view> Decode(storage::DictCode code) const {
    return store_->dict().Decode(code);
  }

  /// Executes a plan in its own transaction (committed on success, aborted
  /// with the cause recorded on failure). `deadline_ms` > 0 overrides the
  /// manager-wide POSEIDON_QUERY_DEADLINE_MS default for this query only.
  Result<query::QueryResult> Execute(
      const query::Plan& plan,
      jit::ExecutionMode mode = jit::ExecutionMode::kInterpret,
      const std::vector<query::Value>& params = {},
      jit::ExecStats* stats = nullptr, int64_t deadline_ms = 0);

  /// Executes a plan inside a caller-managed transaction.
  Result<query::QueryResult> ExecuteIn(
      const query::Plan& plan, tx::Transaction* tx,
      const std::vector<query::Value>& params,
      jit::ExecutionMode mode = jit::ExecutionMode::kInterpret,
      jit::ExecStats* stats = nullptr,
      const jit::JitOptions& options = {});

  /// Creates (and bulk-loads) a secondary index on (label, property).
  Status CreateIndex(std::string_view label, std::string_view key,
                     index::Placement placement = index::Placement::kHybrid);

  /// Batched-scan knobs; settable at runtime for ablation.
  const storage::ScanOptions& scan_options() const {
    return engine_->scan_options();
  }
  void set_scan_options(const storage::ScanOptions& o) {
    engine_->set_scan_options(o);
  }

  /// Versioned DRAM adjacency cache; settable at runtime for ablation.
  /// Toggles both the runtime cache (interpreter / JIT helper) and the
  /// compiled-code variant baked into newly generated Expand loops.
  bool adj_cache_enabled() const { return engine_->adj_cache_enabled(); }
  void set_adj_cache_enabled(bool on) {
    engine_->set_adj_cache_enabled(on);
    txm_->adjacency_cache().set_enabled(on);
  }

  /// EXPLAIN: renders `plan` with execution-mode annotations on the
  /// pipeline source (worker threads, morsel size, batching state).
  std::string Explain(const query::Plan& plan) const;

  /// True if Open() had to recover from an unclean shutdown.
  bool recovered_from_crash() const { return recovered_; }

  /// One-stop integrity snapshot: the last recovery's outcome plus the live
  /// scrub / repair / quarantine counters (see DESIGN.md "Online scrubbing
  /// & media faults").
  struct HealthReport {
    pmem::RecoveryReport recovery;  ///< redo-log recovery of the last Open
    uint64_t scrub_lines_verified = 0;
    uint64_t scrub_mismatches = 0;
    uint64_t scrub_repaired = 0;
    uint64_t scrub_adopted = 0;
    uint64_t scrub_quarantined = 0;
    uint64_t scrub_resealed = 0;
    uint64_t scrub_passes = 0;       ///< background full passes completed
    uint64_t quarantined_lines = 0;  ///< currently quarantined 64 B lines
    bool checksums_enabled = false;
    bool scrubber_running = false;
    uint64_t scrub_rate_mb_s = 0;
    uint64_t psan_violations = 0;
    /// Overload governance: abort-cause taxonomy, admission-gate sheds, and
    /// pool space pressure (see DESIGN.md "Overload governance").
    uint64_t aborts_conflict = 0;
    uint64_t aborts_deadline = 0;
    uint64_t aborts_cancelled = 0;
    uint64_t aborts_space = 0;
    uint64_t writers_shed = 0;   ///< BeginWrite denied: too many writers
    uint64_t space_denied = 0;   ///< BeginWrite denied: above soft watermark
    int64_t active_writers = 0;
    int64_t max_writers = 0;     ///< 0 = admission gate off
    uint64_t pool_bytes_used = 0;
    uint64_t pool_capacity = 0;
    uint32_t soft_watermark_pct = 0;  ///< 0 = watermark off
    bool above_soft_watermark = false;
    uint64_t alloc_failures = 0;  ///< pool allocations denied (incl. faults)
  };
  HealthReport Health() const;

  /// Background scrubber (null when the pool maintains no checksums).
  /// Started automatically when POSEIDON_SCRUB=1; tests drive ScrubOnce().
  pmem::Scrubber* scrubber() { return scrubber_.get(); }

  // Component access for benchmarks, tests, and advanced users.
  pmem::Pool* pool() { return pool_.get(); }
  storage::GraphStore* store() { return store_.get(); }
  tx::TransactionManager* txm() { return txm_.get(); }
  index::IndexManager* indexes() { return indexes_.get(); }
  jit::JitQueryEngine* engine() { return engine_.get(); }
  jit::QueryCache* query_cache() { return qcache_.get(); }

 private:
  GraphDb() = default;

  static Result<std::unique_ptr<GraphDb>> Init(const GraphDbOptions& options,
                                               bool create);

  std::unique_ptr<pmem::Pool> pool_;
  std::unique_ptr<pmem::Scrubber> scrubber_;
  std::unique_ptr<storage::GraphStore> store_;
  std::unique_ptr<index::IndexManager> indexes_;
  std::unique_ptr<tx::TransactionManager> txm_;
  std::unique_ptr<jit::QueryCache> qcache_;
  // Destroyed first: its compile worker drains while the query cache, store
  // and pool that background compiles touch are still alive.
  std::unique_ptr<jit::JitQueryEngine> engine_;
  bool recovered_ = false;
};

}  // namespace poseidon::core

#endif  // POSEIDON_CORE_GRAPH_DB_H_
