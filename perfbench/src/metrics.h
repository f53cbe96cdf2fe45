// The benchmark's metric catalog (names and units must match
// BENCHMARK.json) and the report a run prints: one text line per metric
// with its sample count, then the result as one JSON line.

#ifndef POSEIDON_PERFBENCH_METRICS_H_
#define POSEIDON_PERFBENCH_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
  /// Printed by the traced run (BENCHMARK.json per_layer) rather than the
  /// measured run (end_to_end).
  bool per_layer;
};

const std::vector<MetricDef>& Catalog();

/// The driver's workloads and metric catalog as JSON: {"workloads": [...],
/// "end_to_end": [[name, unit], ...], "per_layer": [...]}.
std::string CatalogJson(const std::vector<std::string>& workloads);

/// Shortest decimal form that reads back as the same double.
std::string FormatDouble(double v);

class Report {
 public:
  /// Records a metric; NaN marks one the workload bypasses (printed as n/a
  /// in the text and as 0 in the JSON line; end-to-end metrics must have a
  /// value). `n` is the sample count behind it, 0 when not a sample.
  void Set(const std::string& name, double value, uint64_t n = 0);

  /// Text lines for the metrics of one kind, in catalog order.
  std::string Text(bool per_layer) const;

  /// The result line. Fails (returns "") when a metric of this kind is
  /// missing or an end-to-end metric has no value; `missing` says which.
  std::string Json(bool per_layer, bool correct, uint64_t attempted,
                   uint64_t failed, std::string* missing) const;

 private:
  struct Value {
    double value;
    uint64_t n;
  };
  std::map<std::string, Value> values_;
};

}  // namespace perfbench

#endif  // POSEIDON_PERFBENCH_METRICS_H_
