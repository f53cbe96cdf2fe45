#include "jit/jit_query_engine.h"

#include <algorithm>
#include <condition_variable>

namespace poseidon::jit {

using query::PipelineExecutor;
using query::QueryResult;

namespace {

/// Handle slots a compiled query may use; code needing more runs
/// interpreted (jit_fallback).
constexpr uint32_t kMaxHandleSlots = 64;

/// Builds the shared runtime state for one execution: handle storage for
/// the calling thread (slot 0) plus one slot per pool worker. The storage
/// starts empty and the runtime helpers grow it as they fill handles.
std::unique_ptr<JitRuntimeState> MakeState(query::ExecContext ctx,
                                           query::ResultCollector* collector,
                                           PipelineExecutor* exec,
                                           size_t num_workers) {
  auto state = std::make_unique<JitRuntimeState>();
  const auto& nodes = ctx.store->nodes();
  const auto& rels = ctx.store->relationships();
  const auto& props = *ctx.store->properties().table();
  state->header.node_chunks = nodes.chunk_ptr_array();
  state->header.rel_chunks = rels.chunk_ptr_array();
  state->header.prop_chunks = props.chunk_ptr_array();
  state->header.node_num_chunks = nodes.num_chunks();
  state->header.rel_num_chunks = rels.num_chunks();
  state->header.prop_num_chunks = props.num_chunks();
  state->header.ts = ctx.tx->id();
  state->header.read_latency = ctx.store->pool()->latency().read_block_ns;
  // The token always exists, and an explicit Cancel may arrive at any time,
  // so generated loops always poll. The flag stays in the header so compiled
  // code cached before this field existed remains well-defined (it simply
  // never polls) and future fast paths can gate on it.
  state->header.cancellable = 1;
  state->ctx = ctx;
  state->collector = collector;
  state->executor = exec;
  state->threads.reserve(num_workers + 1);
  for (size_t t = 0; t < num_workers + 1; ++t) {
    state->threads.push_back(std::make_unique<JitRuntimeState::ThreadSlots>());
  }
  return state;
}

Status StatusFromCode(int32_t code, JitRuntimeState* state) {
  if (code >= 0) return Status::Ok();
  std::lock_guard<std::mutex> lock(state->error_mu);
  if (!state->error.ok()) return state->error;
  return Status::Internal("compiled query reported an unknown error");
}

}  // namespace

JitQueryEngine::JitQueryEngine(storage::GraphStore* store,
                               index::IndexManager* indexes,
                               size_t num_threads)
    : store_(store), indexes_(indexes), pool_(num_threads) {}

Result<std::unique_ptr<JitQueryEngine>> JitQueryEngine::Create(
    storage::GraphStore* store, index::IndexManager* indexes,
    size_t num_threads, QueryCache* cache) {
  auto engine = std::unique_ptr<JitQueryEngine>(
      new JitQueryEngine(store, indexes, num_threads));
  POSEIDON_ASSIGN_OR_RETURN(engine->engine_, JitEngine::Create(cache));
  return engine;
}

void JitQueryEngine::CompileInBackground(
    const query::Plan& plan, const JitOptions& options,
    const std::shared_ptr<std::atomic<CompiledQueryFn>>& task_fn,
    ExecStats* stats) {
  // A repeated adaptive run of a plan whose compile is queued or running
  // starts interpreted at once, without generating its IR again.
  const uint64_t qid = JitEngine::QueryIdFor(plan, options);
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    if (bg_query_ids_.count(qid) != 0) return;
  }
  // The plan-dependent phases (memo/cache probe + IR generation) run
  // synchronously — sub-millisecond, and never behind another plan's
  // compile — so the caller's plan may be destroyed right after
  // Execute returns; only the expensive pass cascade, object emission and
  // linking run on the compile worker.
  auto pending = engine_->BeginCompile(plan, options);
  if (!pending.ok()) {
    stats->jit_fallback = true;  // all morsels run interpreted
    return;
  }
  if (pending->done) {
    // Memo/cache hit (§6.2: "If the code is found, it will be linked with
    // the current database instance").
    if (pending->result.num_handle_slots <= kMaxHandleSlots) {
      task_fn->store(pending->result.fn, std::memory_order_release);
      stats->memo_hit = pending->result.from_memo;
      stats->cache_hit = pending->result.from_persistent_cache;
    }
    return;
  }
  // Two first runs racing through BeginCompile must not queue it twice.
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    if (!bg_query_ids_.insert(qid).second) return;
  }
  auto shared_pending =
      std::make_shared<JitEngine::PendingCompile>(std::move(*pending));
  compiler_.Submit([this, shared_pending, task_fn, qid] {
    auto compiled = engine_->FinishCompile(std::move(*shared_pending));
    if (compiled.ok() && compiled->num_handle_slots <= kMaxHandleSlots) {
      task_fn->store(compiled->fn, std::memory_order_release);
    }
    std::lock_guard<std::mutex> lock(bg_mu_);
    bg_query_ids_.erase(qid);
  });
}

Status JitQueryEngine::RunMorsels(PipelineExecutor* exec,
                                  const std::atomic<CompiledQueryFn>& task_fn,
                                  JitRuntimeState* state, bool parallel,
                                  tx::Transaction* tx, ExecStats* stats) {
  const bool range = exec->HasRangeSource();
  const uint64_t units = range ? exec->SourceCardinality() : 1;
  const uint64_t morsels = (units + kMorselSize - 1) / kMorselSize;

  std::atomic<uint64_t> next{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> jit_morsels{0};
  std::atomic<uint64_t> interpreted_morsels{0};
  std::mutex error_mu;
  Status first_error;

  // A runner pulls morsels until the source is exhausted, a Limit is
  // satisfied (compiled code 1 or the interpreter's stop signal), a morsel
  // fails, or the cancel token trips. `worker` addresses the JIT handle
  // storage: 0 is the calling thread, pool workers use their index + 1.
  auto runner = [&](uint32_t worker) {
    while (!stop.load(std::memory_order_acquire)) {
      uint64_t m = next.fetch_add(1, std::memory_order_relaxed);
      if (m >= morsels) return;
      uint64_t begin = m * kMorselSize;
      uint64_t end = std::min(begin + kMorselSize, units);
      bool done = false;
      Status s = tx->cancel_token()->Check();
      if (s.ok()) {
        if (CompiledQueryFn fn = task_fn.load(std::memory_order_acquire)) {
          int32_t code = fn(state, begin, end, worker);
          jit_morsels.fetch_add(1, std::memory_order_relaxed);
          done = code == 1;
          s = StatusFromCode(code, state);
        } else {
          s = exec->RunMorsel(begin, end, &done);
          interpreted_morsels.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error.ok()) first_error = s;
        done = true;
      }
      if (done) stop.store(true, std::memory_order_release);
    }
  };

  if (parallel && morsels > 1) {
    // Wait for this query's runners only, never for the whole pool: another
    // query's long morsel must not delay this one.
    const size_t runners = std::min<uint64_t>(pool_.num_threads(), morsels);
    std::mutex done_mu;
    std::condition_variable done_cv;
    size_t finished = 0;
    for (size_t r = 0; r < runners; ++r) {
      pool_.Submit([&] {
        runner(static_cast<uint32_t>(ThreadPool::current_worker_index() + 1));
        std::lock_guard<std::mutex> lock(done_mu);
        if (++finished == runners) done_cv.notify_one();
      });
    }
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return finished == runners; });
  } else {
    runner(0);
  }

  stats->jit_morsels = jit_morsels.load(std::memory_order_relaxed);
  stats->interpreted_morsels =
      interpreted_morsels.load(std::memory_order_relaxed);
  stats->used_jit = stats->jit_morsels > 0;
  POSEIDON_RETURN_IF_ERROR(first_error);
  return exec->Finish();
}

Result<QueryResult> JitQueryEngine::Execute(
    const query::Plan& plan, tx::Transaction* tx,
    const std::vector<query::Value>& params, ExecutionMode mode,
    ExecStats* stats, const JitOptions& options) {
  ExecStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = ExecStats();

  // Engine-level scan knobs flow into both execution paths: the interpreter
  // reads them from the context, the code generator bakes them into the
  // compiled scan loop (and the compiled-code cache key).
  JitOptions jit_options = options;
  jit_options.scan = scan_options_;
  jit_options.adj_cache = adj_cache_enabled_;

  // rts-coalescing and adjacency-cache tallies live on the transaction
  // itself, so this attribution is exact even under concurrent queries.
  const uint64_t adj_hits_before = tx->adj_cache_hits();
  const uint64_t adj_misses_before = tx->adj_cache_misses();
  const uint64_t rts_skipped_before = tx->rts_skipped();
  const uint64_t rts_deferred_before = tx->rts_deferred();

  query::ResultCollector collector;
  query::ExecContext ctx;
  ctx.tx = tx;
  ctx.store = store_;
  ctx.indexes = indexes_;
  ctx.params = &params;
  ctx.scan = scan_options_;
  PipelineExecutor exec(plan, ctx, &collector);
  POSEIDON_RETURN_IF_ERROR(exec.Prepare());

  // The paper's "static task function": null runs the interpreter. kJit
  // sets it before the first morsel; kAdaptive's compile worker may set it
  // at any point, so it is shared with that worker.
  auto task_fn = std::make_shared<std::atomic<CompiledQueryFn>>(nullptr);
  if (mode == ExecutionMode::kJit) {
    auto compiled = engine_->Compile(plan, jit_options);
    if (compiled.ok() && compiled->num_handle_slots <= kMaxHandleSlots) {
      task_fn->store(compiled->fn, std::memory_order_relaxed);
      stats->compile_ms =
          compiled->codegen_ms + compiled->cascade_ms + compiled->emit_ms;
      stats->cache_hit = compiled->from_persistent_cache;
      stats->memo_hit = compiled->from_memo;
    } else {
      // Graceful degradation: a compile failure (injectable via the
      // jit.compile fault site) costs the speedup, not the query — the same
      // plan runs through the interpreter instead of surfacing an
      // engine-internal error to the client.
      stats->jit_fallback = true;
    }
  } else if (mode == ExecutionMode::kAdaptive) {
    CompileInBackground(plan, jit_options, task_fn, stats);
  }
  const bool parallel = mode == ExecutionMode::kInterpretParallel ||
                        mode == ExecutionMode::kAdaptive;
  std::unique_ptr<JitRuntimeState> state;
  if (mode == ExecutionMode::kAdaptive ||
      task_fn->load(std::memory_order_relaxed) != nullptr) {
    state = MakeState(ctx, &collector, &exec,
                      parallel ? pool_.num_threads() : 0);
  }

  Status run_status =
      RunMorsels(&exec, *task_fn, state.get(), parallel, tx, stats);
  if (!run_status.ok()) {
    stats->deadline_exceeded = run_status.IsDeadlineExceeded();
    stats->cancelled = run_status.IsCancelled();
    return run_status;
  }

  stats->adj_cache_hits = tx->adj_cache_hits() - adj_hits_before;
  stats->adj_cache_misses = tx->adj_cache_misses() - adj_misses_before;
  stats->rts_skipped = tx->rts_skipped() - rts_skipped_before;
  stats->rts_deferred = tx->rts_deferred() - rts_deferred_before;

  QueryResult result;
  result.rows = collector.TakeRows();
  return result;
}

}  // namespace poseidon::jit
