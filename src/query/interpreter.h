// Push-based AOT query interpreter (paper §6.1).
//
// A PipelineExecutor walks the operator chain source -> sink, pushing tuples
// through ahead-of-time-compiled operator implementations. The same instance
// serves all morsels of a parallel scan: operator state that must be shared
// (order-by buffers, counters, limits, join hash tables) is synchronized,
// everything else is tuple-local.
//
// The interpreter is also the fallback/first execution mode of the adaptive
// JIT engine (§6.2): it starts executing immediately while the compiler
// works in the background.

#ifndef POSEIDON_QUERY_INTERPRETER_H_
#define POSEIDON_QUERY_INTERPRETER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "index/index_manager.h"
#include "query/plan.h"
#include "query/value.h"
#include "storage/scan_options.h"
#include "tx/transaction.h"

namespace poseidon::query {

/// Everything an operator needs at runtime.
struct ExecContext {
  tx::Transaction* tx = nullptr;
  storage::GraphStore* store = nullptr;
  index::IndexManager* indexes = nullptr;       // may be null
  const std::vector<Value>* params = nullptr;   // may be null
  storage::ScanOptions scan;                    // batched-scan knobs
};

/// Thread-safe sink receiving final tuples.
class ResultCollector {
 public:
  void Add(const Tuple& t) {
    std::lock_guard<std::mutex> lock(mu_);
    rows_.push_back(t);
  }

  /// Merges a per-worker tuple buffer under a single lock acquisition
  /// (morsel workers buffer locally and flush here once per morsel).
  void AddBatch(std::vector<Tuple>&& batch) {
    if (batch.empty()) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (rows_.empty()) {
      rows_ = std::move(batch);
    } else {
      rows_.insert(rows_.end(), std::make_move_iterator(batch.begin()),
                   std::make_move_iterator(batch.end()));
    }
  }

  uint64_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rows_.size();
  }

  std::vector<Tuple> TakeRows() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(rows_);
  }

 private:
  mutable std::mutex mu_;
  std::vector<Tuple> rows_;
};

class PipelineExecutor {
 public:
  /// `plan` and `collector` must outlive the executor.
  PipelineExecutor(const Plan& plan, ExecContext ctx,
                   ResultCollector* collector);

  /// Executes a sub-pipeline rooted at `root` (hash-join build sides).
  PipelineExecutor(const Op* root, ExecContext ctx,
                   ResultCollector* collector);

  /// One-time setup: flattens the chain, executes hash-join build sides.
  Status Prepare();

  /// Runs the whole query single-threaded (source + Finish). Nested
  /// executors (hash-join build sides) use it; queries go through the
  /// morsel driver in jit::JitQueryEngine.
  Status Run();

  /// Runs one morsel: source units [begin, end) of a range source, or the
  /// whole source when it is not a range source (Create runs as one unit).
  /// Terminal tuples are buffered and reach the collector once per morsel.
  /// Sets `*stop` when a Limit was satisfied, so no later morsel needs to
  /// run.
  Status RunMorsel(uint64_t begin, uint64_t end, bool* stop);

  /// Flushes pipeline breakers (order-by buffers, count). Call exactly once
  /// after all morsels completed.
  Status Finish();

  /// True when the source splits into morsels: NodeScan (table slots) and
  /// IndexScan/IndexRangeScan (materialized matches). Valid after Prepare.
  bool HasRangeSource() const;

  /// Number of source units for morsel splitting: table slots for NodeScan,
  /// materialized index matches for IndexScan/IndexRangeScan (after
  /// Prepare), 0 when the source cannot be split (create pipelines).
  uint64_t SourceCardinality() const;

  /// Materialized index-source matches (record ids in index order) when the
  /// pipeline source is an IndexScan/IndexRangeScan; nullptr otherwise.
  /// Morsel ranges for index sources address positions in this vector. The
  /// JIT runtime shares it so compiled and interpreted morsels agree.
  const std::vector<storage::RecordId>* SourceMatches() const {
    return source_matches_valid_ ? &source_matches_ : nullptr;
  }

  /// Evaluates `e` against `t` in `ctx` (shared with the JIT runtime).
  static Result<Value> Eval(const Expr& e, const Tuple& t, ExecContext* ctx);

  /// True when `cmp` holds between a and b.
  static bool Compare(CmpOp cmp, const Value& a, const Value& b);

  /// Entry point for the JIT runtime: feeds a tuple into the pipeline at
  /// operator index `op_index` (the AOT tail after the compiled prefix).
  /// kOutOfRange means "stop producing".
  Status PushFrom(size_t op_index, Tuple& t) { return Push(op_index, t); }

  /// Operators in source..sink order (valid after Prepare).
  const std::vector<const Op*>& ops() const { return ops_; }

 private:
  struct AggState {
    Value group;
    uint64_t count = 0;
    double sum = 0;
    bool any_double = false;
    Value min, max;
    bool has_minmax = false;
  };

  struct OpState {
    // kOrderBy
    std::mutex buffer_mu;
    std::vector<Tuple> buffer;
    // kGroupBy: key = (kind, raw) of the group value
    std::map<std::pair<uint8_t, uint64_t>, AggState> groups;
    // kCount
    std::atomic<uint64_t> count{0};
    // kLimit
    std::atomic<uint64_t> taken{0};
    // kHashJoin: materialized build side
    std::vector<Tuple> build_rows;
    std::unordered_map<uint64_t, std::vector<size_t>> build_index;
  };

  /// Pushes `t` into ops_[i]; kOutOfRange signals "stop producing".
  Status Push(size_t i, Tuple& t);

  Status RunSourceRange(uint64_t begin, uint64_t end);
  Status RunNonScanSource();
  /// Collects + bounds-stamps the index matches for an index-source
  /// pipeline (called from Prepare).
  Status MaterializeIndexMatches();
  /// Snapshot re-validation + push for one index match.
  Status PushIndexMatch(const Op* src, storage::RecordId id, Tuple& t);

  const Op* root_;
  ExecContext ctx_;
  ResultCollector* collector_;

  std::vector<const Op*> ops_;  // source .. sink order
  std::vector<std::unique_ptr<OpState>> states_;
  // Index-source morsel support (filled by Prepare).
  std::vector<storage::RecordId> source_matches_;
  int64_t source_lo_key_ = 0;
  int64_t source_hi_key_ = 0;
  bool source_matches_valid_ = false;
  bool prepared_ = false;
};

}  // namespace poseidon::query

#endif  // POSEIDON_QUERY_INTERPRETER_H_
