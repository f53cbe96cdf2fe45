#include "metrics.h"

#include <charconv>
#include <cmath>

namespace perfbench {

const std::vector<MetricDef>& Catalog() {
  static const std::vector<MetricDef> kCatalog = {
      // End to end, measured with tracing off.
      {"setup_s", "s", false},
      {"ops_per_s", "ops/s", false},
      {"read_p50_us", "us", false},
      {"read_p99_us", "us", false},
      {"ok_ratio", "fraction", false},
      {"pool_mb", "MiB", false},
      {"dram_mb", "MiB", false},
      // Traced run. Write latencies are end to end but exist on htap_mixed
      // only, so they ride with the per-layer metrics.
      {"write_p50_us", "us", true},
      {"write_p99_us", "us", true},
      {"trace.overhead", "ratio", true},
      {"op.self_p50_us", "us", true},
      {"core.create_ms", "ms", true},
      {"core.reopen_ms", "ms", true},
      {"ldbc.generate_s", "s", true},
      {"index.build_ms", "ms", true},
      {"index.lookup_p50_ns", "ns", true},
      {"jit.compile_ms", "ms", true},
      {"jit.cache_link_ms", "ms", true},
      {"jit.memo_hit_ratio", "fraction", true},
      {"jit.compiled_morsel_ratio", "fraction", true},
      {"query.read_exec_p50_us", "us", true},
      {"query.read_exec_p99_us", "us", true},
      {"query.write_exec_p50_us", "us", true},
      {"tx.ro_begin_p50_us", "us", true},
      {"tx.ro_commit_p50_us", "us", true},
      {"tx.rw_begin_p50_us", "us", true},
      {"tx.rw_commit_p50_us", "us", true},
      {"tx.rw_commit_p99_us", "us", true},
      {"tx.conflict_aborts_per_kwrite", "aborts/kwrite", true},
      {"tx.group_drains_per_commit", "drains/commit", true},
      {"tx.read_retries_per_kread", "retries/kread", true},
      {"tx.snapshot_fallbacks_per_kread", "fallbacks/kread", true},
      {"tx.rts_skipped_per_read", "skips/read", true},
      {"tx.rts_deferred_per_read", "defers/read", true},
      {"adj.hit_ratio", "fraction", true},
      {"adj.invalidations_per_write", "inval/write", true},
      {"adj.mb", "MiB", true},
      {"pmem.flushed_lines_per_write", "lines/write", true},
      {"pmem.deduped_lines_per_write", "lines/write", true},
      {"pmem.drains_per_write", "drains/write", true},
      {"pmem.modeled_persist_us_per_write", "us/write", true},
      {"pmem.allocs_per_write", "allocs/write", true},
      {"pmem.free_list_alloc_ratio", "fraction", true},
      {"pmem.bytes_per_write", "B/write", true},
      {"pmem.media_share_read", "fraction", true},
      {"pmem.media_share_write", "fraction", true},
      {"storage.table_scan_ms", "ms", true},
      {"storage.nodes", "count", true},
      {"storage.rels", "count", true},
  };
  return kCatalog;
}

std::string CatalogJson(const std::vector<std::string>& workloads) {
  std::string out = "{\"workloads\": [";
  for (size_t i = 0; i < workloads.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + workloads[i] + "\"";
  }
  out += "]";
  for (bool per_layer : {false, true}) {
    out += per_layer ? ", \"per_layer\": [" : ", \"end_to_end\": [";
    bool first = true;
    for (const MetricDef& m : Catalog()) {
      if (m.per_layer != per_layer) continue;
      out += first ? "" : ", ";
      out += "[\"" + std::string(m.name) + "\", \"" + m.unit + "\"]";
      first = false;
    }
    out += "]";
  }
  return out + "}";
}

std::string FormatDouble(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

void Report::Set(const std::string& name, double value, uint64_t n) {
  values_[name] = {value, n};
}

std::string Report::Text(bool per_layer) const {
  std::string out;
  for (const MetricDef& m : Catalog()) {
    if (m.per_layer != per_layer) continue;
    auto it = values_.find(m.name);
    if (it == values_.end()) continue;
    out += "  " + std::string(m.name) + " = ";
    out += std::isnan(it->second.value) ? std::string("n/a")
                                        : FormatDouble(it->second.value) +
                                              " " + m.unit;
    if (it->second.n != 0) out += " (n=" + std::to_string(it->second.n) + ")";
    out += "\n";
  }
  return out;
}

std::string Report::Json(bool per_layer, bool correct, uint64_t attempted,
                         uint64_t failed, std::string* missing) const {
  std::string metrics;
  for (const MetricDef& m : Catalog()) {
    if (m.per_layer != per_layer) continue;
    auto it = values_.find(m.name);
    if (it == values_.end() ||
        (!per_layer && !std::isfinite(it->second.value))) {
      *missing = m.name;
      return "";
    }
    const double v = std::isfinite(it->second.value) ? it->second.value : 0;
    metrics += metrics.empty() ? "" : ", ";
    metrics += "\"" + std::string(m.name) + "\": {\"value\": " +
               FormatDouble(v) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
         metrics + "}}";
}

}  // namespace perfbench
