// Ablation of the JIT design decisions of §6.2 (DESIGN.md experiment E8):
//   1. where a compile's time goes, per query: IR generation, the pass
//      cascade and object emission, beside the hot compiled execution;
//   2. compile-time scaling with operator count (the paper: "as the number
//      of operators increases, the compilation time increases by only a few
//      milliseconds");
//   3. the persistent compiled-code cache: fresh compile vs cache-hit link
//      time (including across engine restarts).

#include "bench/bench_common.h"

namespace poseidon::bench {
namespace {

using jit::ExecStats;
using jit::ExecutionMode;
using jit::JitOptions;

int Main() {
  uint64_t runs = BenchRuns();
  std::printf("=== JIT ablation (E8): compile phases, compile scaling, "
              "code cache ===\n\n");
  BENCH_ASSIGN(auto env, MakeEnv(true, "jitabl", false));
  auto queries = ldbc::BuildShortReads(env->ds.schema, false);

  // --- 1. compile phases and hot execution per query ---------------------
  // The engine's own options, so the hot runs below hit the memoized code.
  JitOptions options;
  options.use_persistent_cache = false;
  options.scan = env->db->scan_options();
  options.adj_cache = env->db->adj_cache_enabled();
  std::printf("%-9s | %11s %11s %11s | %10s | %6s\n", "query",
              "codegen(ms)", "cascade(ms)", "emit(ms)", "hot(us)", "ops");
  for (const auto& q : queries) {
    Rng rng(5);
    auto params = ldbc::DrawShortReadParams(env->ds, q.name, &rng);
    auto compiled = env->db->engine()->engine()->Compile(q.plan, options);
    if (!compiled.ok()) Die(compiled.status(), q.name.c_str());
    const double hot_us = MeanUs(runs, [&] {
      auto tx = env->db->Begin();
      auto r = env->db->ExecuteIn(q.plan, tx.get(), params,
                                  ExecutionMode::kJit, nullptr, options);
      if (!r.ok()) Die(r.status(), q.name.c_str());
      BENCH_CHECK(tx->Commit());
    });
    std::printf("%-9s | %11.2f %11.2f %11.2f | %10.1f | %6d\n",
                q.name.c_str(), compiled->codegen_ms, compiled->cascade_ms,
                compiled->emit_ms, hot_us, q.plan.CountOps());
  }

  // --- 2. compile time vs operator count (synthetic chains) --------------
  std::printf("\ncompile-time scaling (filter chains):\n%-6s %12s\n", "ops",
              "compile(ms)");
  auto age = env->ds.schema.creation_date;
  for (int n_filters : {1, 4, 8, 16, 32}) {
    query::PlanBuilder b;
    std::move(b).NodeScan(env->ds.schema.person);
    for (int i = 0; i < n_filters; ++i) {
      std::move(b).FilterProperty(
          0, age, query::CmpOp::kGe,
          query::Expr::Literal(query::Value::Int(i)));
    }
    std::move(b).Count();
    query::Plan plan = std::move(b).Build();
    auto tx = env->db->Begin();
    ExecStats stats;
    auto r = env->db->ExecuteIn(plan, tx.get(), {}, ExecutionMode::kJit,
                                &stats, options);
    if (!r.ok()) Die(r.status(), "filter chain");
    BENCH_CHECK(tx->Commit());
    std::printf("%-6d %12.2f\n", plan.CountOps(), stats.compile_ms);
  }

  // --- 3. persistent code cache: compile vs link-from-cache ---------------
  std::printf("\npersistent code cache (fresh engine per row):\n");
  std::printf("%-26s %12s\n", "path", "latency(ms)");
  {
    // A plan no earlier section compiled: the first run is a genuine
    // compile that also populates the persistent cache (earlier sections
    // ran with the cache disabled).
    query::PlanBuilder cb;
    std::move(cb).NodeScan(env->ds.schema.comment);
    std::move(cb).Expand(0, query::Direction::kOut, env->ds.schema.reply_of);
    std::move(cb).Expand(2, query::Direction::kOut,
                         env->ds.schema.has_creator);
    std::move(cb).Project({query::Expr::Property(4, env->ds.schema.id)});
    std::move(cb).Limit(3);
    query::Plan probe = std::move(cb).Build();
    std::vector<query::Value> params;
    StopWatch w;
    {
      auto tx = env->db->Begin();
      ExecStats stats;
      auto r = env->db->ExecuteIn(probe, tx.get(), params,
                                  ExecutionMode::kJit, &stats);
      if (!r.ok()) Die(r.status(), "cache-probe");
      BENCH_CHECK(tx->Commit());
      std::printf("%-26s %12.2f\n", "compile (fresh plan)",
                  stats.compile_ms);
    }
    BENCH_ASSIGN(auto engine2,
                 jit::JitQueryEngine::Create(env->db->store(),
                                             env->db->indexes(), 2,
                                             env->db->query_cache()));
    w.Reset();
    {
      auto tx = env->db->Begin();
      ExecStats stats;
      auto r = engine2->Execute(probe, tx.get(), params,
                                ExecutionMode::kJit, &stats);
      if (!r.ok()) Die(r.status(), "cache-probe");
      BENCH_CHECK(tx->Commit());
      std::printf("%-26s %12.2f  (cache_hit=%d)\n",
                  "link from persistent cache", w.ElapsedMs(),
                  stats.cache_hit ? 1 : 0);
    }
  }
  std::printf("\nexpected shape: object emission is most of a compile and "
              "the pass cascade about a fifth of it; compile time grows by "
              "~ms per operator; cache hits skip compilation entirely.\n");
  return 0;
}

}  // namespace
}  // namespace poseidon::bench

int main() { return poseidon::bench::Main(); }
