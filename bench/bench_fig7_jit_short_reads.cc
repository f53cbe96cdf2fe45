// Reproduces Fig. 7 (paper §7.5): Interactive Short Reads executed with the
// JIT query engine — single-threaded, without indexes — on DRAM and
// emulated PMem:
//   AOT          interpreted execution (the baseline)
//   JIT          compiled execution, compilation excluded (hot code)
//   JIT+compile  compiled execution including the one-off compilation
//
// Expected shape (paper): JIT-compiled code is always faster than AOT, and
// is usually faster even when the few-ms compilation time is included;
// complex queries (IS7-*) benefit most.

#include "bench/bench_common.h"

namespace poseidon::bench {
namespace {

using jit::ExecStats;
using jit::ExecutionMode;

struct Row {
  double aot_us;
  double jit_us;
  double compile_ms;
};

Row RunOne(BenchEnv* env, const ldbc::NamedQuery& q, uint64_t runs,
           Rng* rng) {
  std::vector<std::vector<query::Value>> params;
  for (uint64_t i = 0; i < runs + 1; ++i) {
    params.push_back(ldbc::DrawShortReadParams(env->ds, q.name, rng));
  }
  Row row{};
  size_t i = 0;
  row.aot_us = MeanUs(runs, [&] {
    auto tx = env->db->Begin();
    auto r = env->db->ExecuteIn(q.plan, tx.get(),
                                params[i++ % params.size()],
                                ExecutionMode::kInterpret);
    if (!r.ok()) Die(r.status(), q.name.c_str());
    BENCH_CHECK(tx->Commit());
  });
  // First JIT run records the compile time; subsequent runs are hot.
  {
    auto tx = env->db->Begin();
    ExecStats stats;
    auto r = env->db->ExecuteIn(q.plan, tx.get(), params[0],
                                ExecutionMode::kJit, &stats);
    if (!r.ok()) Die(r.status(), q.name.c_str());
    BENCH_CHECK(tx->Commit());
    row.compile_ms = stats.compile_ms;
  }
  i = 0;
  row.jit_us = MeanUs(runs, [&] {
    auto tx = env->db->Begin();
    auto r = env->db->ExecuteIn(q.plan, tx.get(),
                                params[i++ % params.size()],
                                ExecutionMode::kJit);
    if (!r.ok()) Die(r.status(), q.name.c_str());
    BENCH_CHECK(tx->Commit());
  });
  return row;
}

int Main() {
  uint64_t runs = BenchRuns();
  std::printf("=== Fig. 7: Short Reads via JIT (single-threaded, no indexes,"
              " avg of %llu runs) ===\n\n",
              static_cast<unsigned long long>(runs));

  BENCH_ASSIGN(auto pmem_env, MakeEnv(true, "fig7", false));
  BENCH_ASSIGN(auto dram_env, MakeEnv(false, "fig7d", false));
  auto pmem_queries = ldbc::BuildShortReads(pmem_env->ds.schema, false);
  auto dram_queries = ldbc::BuildShortReads(dram_env->ds.schema, false);

  BenchJson json("fig7_jit_short_reads");

  std::printf("%-9s | %10s %10s %12s | %10s %10s %12s\n", "query",
              "PMem-AOT", "PMem-JIT", "PMem-JIT+c", "DRAM-AOT", "DRAM-JIT",
              "DRAM-JIT+c");
  for (size_t q = 0; q < pmem_queries.size(); ++q) {
    Rng rng(42 + q);
    const std::string& name = pmem_queries[q].name;
    Row pmem = RunOne(pmem_env.get(), pmem_queries[q], runs, &rng);
    Row dram = RunOne(dram_env.get(), dram_queries[q], runs, &rng);
    std::printf("%-9s | %10.1f %10.1f %12.1f | %10.1f %10.1f %12.1f\n",
                name.c_str(), pmem.aot_us, pmem.jit_us,
                pmem.jit_us + pmem.compile_ms * 1000.0, dram.aot_us,
                dram.jit_us, dram.jit_us + dram.compile_ms * 1000.0);
    json.Add(name + "/PMem-AOT", pmem.aot_us * 1000.0);
    json.Add(name + "/PMem-JIT", pmem.jit_us * 1000.0);
    json.Add(name + "/PMem-JIT+c",
             (pmem.jit_us + pmem.compile_ms * 1000.0) * 1000.0);
    json.Add(name + "/DRAM-AOT", dram.aot_us * 1000.0);
    json.Add(name + "/DRAM-JIT", dram.jit_us * 1000.0);
    json.Add(name + "/DRAM-JIT+c",
             (dram.jit_us + dram.compile_ms * 1000.0) * 1000.0);
  }
  json.Write();
  std::printf(
      "\n(JIT+c adds the one-off compilation: tens of ms per query on this "
      "engine, mostly LLVM object emission, against the paper's few ms.)\n"
      "expected shape: JIT < AOT on every query; JIT+c < AOT for the "
      "scan-heavy queries.\n");
  return 0;
}

}  // namespace
}  // namespace poseidon::bench

int main() { return poseidon::bench::Main(); }
