#include "workload.h"

#include <algorithm>

#include "ldbc/queries.h"
#include "util/random.h"

namespace perfbench {

using poseidon::Rng;
using poseidon::jit::ExecutionMode;
using poseidon::ldbc::SnbDataset;
using poseidon::query::Value;

// Rates are the measured throughput on a 4-vCPU Xeon VM with the default
// emulated-PMem latency model, so a run's fixed op count takes about
// --seconds there. They size the work only; every metric is measured.
//
// sr_scan runs kJit, not kAdaptive: with 2 morsel workers its read p99
// ranged 1.9-3.7 ms over runs of one seed (the tail is set by pool-worker
// wakeups), against 3.3-3.6 ms serially compiled.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"sr_indexed", 1, ExecutionMode::kJit, "jit", true, 0.0, 60000},
      {"htap_mixed", 2, ExecutionMode::kJit, "jit", true, 0.2, 50000},
      {"sr_scan", 1, ExecutionMode::kJit, "jit", false, 0.0, 450},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

uint64_t OpsPerClient(const WorkloadSpec& spec, uint64_t seconds) {
  return std::max(kMinOpsPerClient, spec.ops_per_second * seconds /
                                        static_cast<uint64_t>(spec.clients));
}

std::vector<OpStream> MakeOpStreams(const WorkloadSpec& spec,
                                    const SnbDataset& ds,
                                    const std::vector<std::string>& read_names,
                                    const std::vector<std::string>& write_names,
                                    uint64_t ops_per_client, uint64_t seed) {
  SnbDataset draw = ds;
  int64_t next_person = ds.max_person_id;
  int64_t next_forum = ds.max_forum_id;
  int64_t next_message = ds.max_message_id;
  std::vector<OpStream> streams(static_cast<size_t>(spec.clients));
  for (size_t c = 0; c < streams.size(); ++c) {
    Rng rng(seed + 0x9e3779b97f4a7c15ull * (c + 1));
    OpStream& stream = streams[c];
    stream.ops.reserve(ops_per_client);
    for (uint64_t i = 0; i < ops_per_client; ++i) {
      Op op;
      std::vector<Value> params;
      op.is_write = spec.write_share > 0 && !write_names.empty() &&
                    rng.NextDouble() < spec.write_share;
      if (op.is_write) {
        op.query = static_cast<uint8_t>(rng.Uniform(write_names.size()));
        const std::string& name = write_names[op.query];
        params = poseidon::ldbc::DrawUpdateParams(&draw, name, &rng);
        draw.max_person_id = ds.max_person_id;
        draw.max_forum_id = ds.max_forum_id;
        draw.max_message_id = ds.max_message_id;
        if (name == "IU1") params[0] = Value::Int(++next_person);
        if (name == "IU4") params[0] = Value::Int(++next_forum);
        if (name == "IU6" || name == "IU7") {
          params[0] = Value::Int(++next_message);
        }
      } else {
        op.query = static_cast<uint8_t>(rng.Uniform(read_names.size()));
        params = poseidon::ldbc::DrawShortReadParams(ds, read_names[op.query],
                                                     &rng);
      }
      op.param_begin = static_cast<uint32_t>(stream.params.size());
      op.num_params = static_cast<uint8_t>(params.size());
      stream.params.insert(stream.params.end(), params.begin(), params.end());
      stream.ops.push_back(op);
    }
  }
  return streams;
}

poseidon::storage::DictCode CreatedLabel(const poseidon::ldbc::SnbSchema& s,
                                         std::string_view iu_name) {
  if (iu_name == "IU1") return s.person;
  if (iu_name == "IU4") return s.forum;
  if (iu_name == "IU6") return s.post;
  if (iu_name == "IU7") return s.comment;
  return poseidon::storage::kInvalidCode;
}

}  // namespace perfbench
