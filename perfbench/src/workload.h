// Workload definitions and pre-generated op streams for the gate benchmark.
//
// Every client's ops are drawn before the timed window from the op-stream
// seed, so the engine only ever sees generated inputs and the same seed
// always yields the same streams (ldbc::DrawUpdateParams is not
// thread-safe, which also rules out drawing inside the window).

#ifndef POSEIDON_PERFBENCH_WORKLOAD_H_
#define POSEIDON_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "jit/jit_query_engine.h"
#include "ldbc/snb_gen.h"
#include "query/value.h"
#include "util/backoff.h"
#include "util/status.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  int clients;
  /// Mode of the short reads; updates always run kInterpret, as the paper
  /// runs them.
  poseidon::jit::ExecutionMode read_mode;
  const char* read_mode_name;
  /// IndexScan on the hybrid `id` indexes vs NodeScan + id filter.
  bool indexed;
  /// Share of ops that are IU1-IU8 updates.
  double write_share;
  /// Ops per second of measured window, summed over clients: the fixed op
  /// count of a run is this times --seconds, so every run of a workload at
  /// one --seconds executes exactly the same number of ops.
  uint64_t ops_per_second;
};

/// The benchmark's workloads: sr_indexed, htap_mixed, sr_scan.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

/// Enough ops that even a short run leaves ten reads beyond its p99.
inline constexpr uint64_t kMinOpsPerClient = 2000;

/// Fixed op count per client for a run of `seconds`.
uint64_t OpsPerClient(const WorkloadSpec& spec, uint64_t seconds);

/// One pre-drawn op: a short read (index into the read plans) or an update
/// (index into the IU plans), with its parameters in OpStream::params.
struct Op {
  bool is_write = false;
  uint8_t query = 0;
  uint8_t num_params = 0;
  uint32_t param_begin = 0;
};

struct OpStream {
  std::vector<Op> ops;
  std::vector<poseidon::query::Value> params;

  void CopyParams(const Op& op,
                  std::vector<poseidon::query::Value>* out) const {
    out->assign(params.begin() + op.param_begin,
                params.begin() + op.param_begin + op.num_params);
  }
};

/// Draws one stream per client. Reads pick one of `read_names` uniformly;
/// with probability spec.write_share an op is instead one of `write_names`.
/// Update references (persons, posts, forums, ...) are drawn from the
/// generated dataset only, and new ids come from one counter shared by all
/// clients, so no op depends on another client's uncommitted insert and no
/// two ops create the same id.
std::vector<OpStream> MakeOpStreams(const WorkloadSpec& spec,
                                    const poseidon::ldbc::SnbDataset& ds,
                                    const std::vector<std::string>& read_names,
                                    const std::vector<std::string>& write_names,
                                    uint64_t ops_per_client, uint64_t seed);

/// Label of the node an update creates (IU1 person, IU4 forum, IU6 post,
/// IU7 comment; its new id is param 0), or kInvalidCode when it creates
/// none.
poseidon::storage::DictCode CreatedLabel(const poseidon::ldbc::SnbSchema& s,
                                         std::string_view iu_name);

/// Outcome of one op under the retry rule.
struct Attempts {
  bool committed = false;
  uint32_t attempts = 0;
  poseidon::Status last;
};

/// An op whose transaction aborts on a conflict (a write's MVTO conflict,
/// or a read meeting a record locked by a committing writer) is retried
/// with the same parameters after a growing spin (1, 2, 4, ... 2048 us, about
/// 27 ms in all), long enough for the conflicting commit to finish even when
/// its thread stalls for milliseconds; any other error ends the op
/// at once.
inline constexpr uint32_t kMaxAttempts = 24;

/// Runs `attempt` (returns the Status of one begin/execute/commit try) until
/// it succeeds, fails with a non-conflict error, or `max_attempts` tries
/// have aborted.
template <typename F>
Attempts RunWithRetries(uint32_t max_attempts, F&& attempt) {
  poseidon::util::Backoff backoff(poseidon::util::Backoff::Options{
      .max_attempts = static_cast<int>(max_attempts),
      .base_spin_ns = 1000,
      .max_spin_ns = 2048000});
  Attempts out;
  for (;;) {
    ++out.attempts;
    out.last = attempt();
    if (out.last.ok()) {
      out.committed = true;
      break;
    }
    if (!out.last.IsAborted() || !backoff.Next()) break;
  }
  return out;
}

/// Op accounting of a measured window. ok_ratio counts an op once however
/// many attempts it took; it fails only when every attempt failed.
struct OpTally {
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t reads = 0;
  uint64_t writes_committed = 0;
  uint64_t write_attempts = 0;

  void Add(bool is_write, const Attempts& a) {
    ++attempted;
    if (a.committed) {
      ++committed;
    } else {
      ++failed;
    }
    if (is_write) {
      write_attempts += a.attempts;
      if (a.committed) ++writes_committed;
    } else {
      ++reads;
    }
  }
  void Merge(const OpTally& o) {
    attempted += o.attempted;
    committed += o.committed;
    failed += o.failed;
    reads += o.reads;
    writes_committed += o.writes_committed;
    write_attempts += o.write_attempts;
  }
  double ok_ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(committed) /
                                static_cast<double>(attempted);
  }
};

}  // namespace perfbench

#endif  // POSEIDON_PERFBENCH_WORKLOAD_H_
