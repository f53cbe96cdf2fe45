// Spans for the traced run. Each call the benchmark makes into a layer gets
// one span (id, parent id, start, end); spans of one op share the op's root
// span as parent. Every thread records into its own SpanLog, so recording
// takes no lock; spans stay in memory until the run ends.

#ifndef POSEIDON_PERFBENCH_TRACE_H_
#define POSEIDON_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : uint8_t {
  kSetupCreate,
  kSetupGenerate,
  kSetupIndex,
  kSetupCompile,
  kOp,
  kTxBegin,
  kQueryExecute,
  kTxCommit,
  kIndexLookup,
  kStorageScan,
  kReopen,
};

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanKind kind = SpanKind::kOp;
  bool is_write = false;  ///< op type of an op span and its children
  uint8_t query = 0;      ///< read or IU plan index
};

class SpanLog {
 public:
  /// `lane` makes ids unique across logs; a disabled log records nothing
  /// and every call is a branch.
  SpanLog(uint32_t lane, bool enabled)
      : base_(static_cast<uint64_t>(lane + 1) << 40), enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (0 when disabled).
  uint64_t Open(SpanKind kind, uint64_t parent = 0, bool is_write = false,
                uint8_t query = 0, int64_t start_ns = 0) {
    if (!enabled_) return 0;
    Span s;
    s.id = base_ + spans_.size() + 1;
    s.parent = parent;
    s.start_ns = start_ns != 0 ? start_ns : NowNs();
    s.kind = kind;
    s.is_write = is_write;
    s.query = query;
    spans_.push_back(s);
    return s.id;
  }

  void Close(uint64_t id, int64_t end_ns = 0) {
    if (!enabled_) return;
    spans_[id - base_ - 1].end_ns = end_ns != 0 ? end_ns : NowNs();
  }

  void Reserve(size_t n) {
    if (enabled_) spans_.reserve(n);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span, the time its children cover. The children of a span are
  /// sequential calls on this log's thread, so their durations add up.
  std::vector<int64_t> ChildTimeNs() const;

 private:
  uint64_t base_;
  bool enabled_;
  std::vector<Span> spans_;
};

/// Writes each log's spans up to its `max_ops`-th op (with that op's
/// children) as tab-separated lines to `path`.
bool WriteSpans(const std::string& path, const std::vector<SpanLog>& logs,
                uint64_t max_ops);

}  // namespace perfbench

#endif  // POSEIDON_PERFBENCH_TRACE_H_
