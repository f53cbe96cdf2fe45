// Shared infrastructure for the figure-reproduction benchmarks.
//
// Each bench binary regenerates one table/figure of the paper (see
// DESIGN.md, per-experiment index). Environment knobs:
//   POSEIDON_BENCH_PERSONS  SNB scale (default 1000 persons)
//   POSEIDON_BENCH_RUNS     hot-run repetitions per query (default 50,
//                           as in the paper)
//   POSEIDON_PMEM_*         emulated PMem latency model (see latency_model.h)
//   POSEIDON_DISK_MISS_US   SSD miss latency for the DISK baseline
//   POSEIDON_DISK_HIT_NS    buffer-manager per-page overhead (see below)
//   POSEIDON_DISK_FSYNC_US  commit fsync latency floor

#ifndef POSEIDON_BENCH_BENCH_COMMON_H_
#define POSEIDON_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "core/graph_db.h"
#include "ldbc/queries.h"
#include "util/spin_timer.h"

namespace poseidon::bench {

inline uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(v, &end, 10);
  return end == v ? fallback : static_cast<uint64_t>(parsed);
}

inline uint64_t BenchPersons() { return EnvU64("POSEIDON_BENCH_PERSONS", 1000); }
inline uint64_t BenchRuns() { return EnvU64("POSEIDON_BENCH_RUNS", 50); }

struct BenchEnv {
  std::unique_ptr<core::GraphDb> db;
  ldbc::SnbDataset ds;
  std::string path;  // pool file (pmem mode), removed on destruction

  ~BenchEnv() {
    db.reset();
    if (!path.empty()) std::filesystem::remove(path);
  }
};

/// Builds a database + SNB dataset. `pmem_mode` selects the emulated-PMem
/// configuration vs the pure-DRAM baseline (paper §7.3).
inline Result<std::unique_ptr<BenchEnv>> MakeEnv(bool pmem_mode,
                                                 const std::string& tag,
                                                 bool with_indexes) {
  auto env = std::make_unique<BenchEnv>();
  core::GraphDbOptions options;
  options.capacity = 4ull << 30;
  options.query_threads = EnvU64("POSEIDON_BENCH_THREADS", 4);
  if (pmem_mode) {
    env->path = "/tmp/poseidon_bench_" + tag + "_" +
                std::to_string(::getpid()) + ".pmem";
    std::filesystem::remove(env->path);
    options.path = env->path;
  }
  POSEIDON_ASSIGN_OR_RETURN(env->db, core::GraphDb::Create(options));

  ldbc::SnbConfig cfg;
  cfg.persons = BenchPersons();
  POSEIDON_ASSIGN_OR_RETURN(
      env->ds, ldbc::GenerateSnb(env->db->txm(), env->db->store(), cfg));
  if (with_indexes) {
    POSEIDON_RETURN_IF_ERROR(ldbc::CreateSnbIndexes(
        env->db->indexes(), env->ds.schema,
        pmem_mode ? index::Placement::kHybrid : index::Placement::kVolatile));
  }
  return env;
}

/// One measured configuration: the mean (printed, matches the paper's
/// "avg of N hot runs" figures) and the median (written to BENCH_*.json —
/// robust against scheduler outliers).
struct BenchSample {
  double mean_us = 0;
  double median_ns = 0;
};

/// Times `runs` invocations of `fn` after one untimed warm-up.
template <typename F>
BenchSample Measure(uint64_t runs, F&& fn) {
  fn();
  std::vector<double> samples;  // nanoseconds
  samples.reserve(runs);
  for (uint64_t i = 0; i < runs; ++i) {
    StopWatch w;
    fn();
    samples.push_back(w.ElapsedNs());
  }
  std::sort(samples.begin(), samples.end());
  BenchSample out;
  for (double s : samples) out.mean_us += s;
  out.mean_us /= static_cast<double>(samples.size()) * 1000.0;
  size_t n = samples.size();
  out.median_ns = (n % 2 != 0)
                      ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  return out;
}

/// Mean over `runs` timed invocations of `fn` (microseconds). `fn` is also
/// invoked once untimed as warm-up.
template <typename F>
double MeanUs(uint64_t runs, F&& fn) {
  return Measure(runs, std::forward<F>(fn)).mean_us;
}

/// Machine-readable results: collects (name -> median ns) pairs and writes
/// them as flat JSON to $POSEIDON_BENCH_JSON_DIR/BENCH_<bench>.json (set by
/// run_benches.sh; nothing is written when the variable is absent).
class BenchJson {
 public:
  /// `unit` labels the values in the emitted JSON; latency benches keep the
  /// default "ns", throughput benches pass "ops_per_sec".
  explicit BenchJson(std::string bench, std::string unit = "ns")
      : bench_(std::move(bench)), unit_(std::move(unit)) {}

  void Add(const std::string& name, double median_ns) {
    entries_.emplace_back(name, median_ns);
  }

  void Write() const {
    const char* dir = std::getenv("POSEIDON_BENCH_JSON_DIR");
    if (dir == nullptr || *dir == '\0') return;
    std::string path = std::string(dir) + "/BENCH_" + bench_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "WARN: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"unit\": \"%s\",\n"
                 "  \"results\": {\n", bench_.c_str(), unit_.c_str());
    for (size_t i = 0; i < entries_.size(); ++i) {
      // Round-trip precision: a sub-0.05 value must not print as 0.0.
      std::fprintf(f, "    \"%s\": %.17g%s\n", entries_[i].first.c_str(),
                   entries_[i].second,
                   i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu entries)\n", path.c_str(), entries_.size());
  }

 private:
  std::string bench_;
  std::string unit_;
  std::vector<std::pair<std::string, double>> entries_;
};

inline void Die(const Status& s, const char* what) {
  std::fprintf(stderr, "FATAL (%s): %s\n", what, s.ToString().c_str());
  std::exit(1);
}

#define BENCH_CHECK(expr)                          \
  do {                                             \
    ::poseidon::Status _st = (expr);               \
    if (!_st.ok()) ::poseidon::bench::Die(_st, #expr); \
  } while (0)

#define BENCH_ASSIGN(decl, expr) \
  BENCH_ASSIGN_IMPL(POSEIDON_STATUS_CONCAT(_bench_res_, __LINE__), decl, expr)
#define BENCH_ASSIGN_IMPL(tmp, decl, expr)          \
  auto tmp = (expr);                                \
  if (!tmp.ok()) ::poseidon::bench::Die(tmp.status(), #expr); \
  decl = std::move(tmp).value()

}  // namespace poseidon::bench

#endif  // POSEIDON_BENCH_BENCH_COMMON_H_
