// The gate benchmark's driver: builds an emulated-PMem SNB graph through
// the public GraphDb API, drives the pre-generated op streams as a closed
// loop, checks the answers, and turns the window's measurements into the
// metrics listed in BENCHMARK.json.

#ifndef POSEIDON_PERFBENCH_DRIVER_H_
#define POSEIDON_PERFBENCH_DRIVER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/graph_db.h"
#include "ldbc/queries.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

/// Shared settings of every workload.
inline constexpr uint64_t kPersons = 1000;
inline constexpr size_t kQueryThreads = 2;

struct RunConfig {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  uint64_t seconds = 10;
  bool trace = false;
  std::string pool_dir;   ///< pool files of this run live here
  std::string trace_dir;  ///< span files of a traced run go here
  std::string git_sha;

  uint64_t data_seed() const { return seed; }
  uint64_t op_seed() const { return seed ^ 0x5eed5eed5eedull; }
};

/// One database built for a measured pass. Destroying it closes the
/// database and removes its pool file.
struct Env {
  std::unique_ptr<poseidon::core::GraphDb> db;
  poseidon::core::GraphDbOptions options;
  poseidon::ldbc::SnbDataset ds;
  std::vector<poseidon::ldbc::NamedQuery> reads;
  std::vector<poseidon::ldbc::NamedQuery> writes;
  double setup_s = 0;
  double create_ms = 0;
  double generate_s = 0;
  double index_ms = 0;
  double compile_ms = 0;

  Env() = default;
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;
  ~Env();
};

/// Create, generate, index and compile every read plan of the workload.
/// `zero_media` replaces the PMem latency model with LatencyModel::Dram().
poseidon::Result<std::unique_ptr<Env>> Setup(const RunConfig& cfg,
                                             const std::string& pool_path,
                                             bool zero_media, SpanLog* log);

/// Check (a): every read plan returns the same rows in the workload's mode
/// as in kInterpret, on a fixed parameter set.
poseidon::Status CheckModesAgree(Env* env, const WorkloadSpec& spec);

/// A node created by a committed update, to be found again after reopen.
struct Created {
  poseidon::storage::DictCode label = 0;
  int64_t id = 0;
};

/// Plain copies of the engine's counters at one instant.
struct Counters {
  poseidon::tx::TxStats tx;
  poseidon::tx::AdjacencyCacheStats adj;
  uint64_t alloc_calls = 0;
  uint64_t alloc_from_free_list = 0;
  uint64_t flushed_lines = 0;
  uint64_t deduped_lines = 0;
  uint64_t drains = 0;
  uint64_t bytes_used = 0;

  static Counters Read(poseidon::core::GraphDb* db);
};

/// Everything one measured window produced.
struct Pass {
  OpTally tally;
  double wall_s = 0;        ///< window wall time
  double probe_free_s = 0;  ///< wall time minus the probes (traced only)
  std::vector<double> read_ns;
  std::vector<double> write_ns;
  std::vector<Created> created;
  Counters before;
  Counters after;
  /// Reads whose shape check failed (a single-entity query that did not
  /// return exactly one row) and the first failed op's error.
  uint64_t bad_reads = 0;
  std::string first_error;
  // Traced only.
  std::vector<SpanLog> logs;
  uint64_t jit_reads = 0;
  uint64_t memo_hits = 0;
  uint64_t jit_morsels = 0;
  uint64_t interpreted_morsels = 0;
};

/// Runs the timed window over `streams`. Each client first runs an untimed
/// warm pass over its first reads. `traced` records spans and the index and
/// table-scan probes.
poseidon::Result<Pass> RunWindow(Env* env, const WorkloadSpec& spec,
                                 const std::vector<OpStream>& streams,
                                 bool traced);

/// Check (b) after a clean close: reopen, compare table sizes, recovery
/// status and index lookups of every created id. With `reopens` > 0 the
/// pool is first reopened that many times to time GraphDb::Open, and each
/// read plan's first compile after reopen, served by linking the code the
/// persistent query cache holds, is timed.
struct ReopenResult {
  std::vector<double> reopen_ms;
  double cache_link_ms = 0;
  uint64_t cache_hits = 0;
  uint64_t nodes = 0;
  uint64_t rels = 0;
};
poseidon::Result<ReopenResult> CloseAndReopen(
    Env* env, const std::vector<Created>& created, int reopens,
    SpanLog* log);

/// Resident anonymous memory of this process in MiB: the DRAM the engine
/// holds beyond the file-backed pool mapping.
double DramMb();

}  // namespace perfbench

#endif  // POSEIDON_PERFBENCH_DRIVER_H_
