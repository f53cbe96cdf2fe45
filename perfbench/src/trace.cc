#include "trace.h"

#include <cstdio>

namespace perfbench {
namespace {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSetupCreate:
      return "setup.create";
    case SpanKind::kSetupGenerate:
      return "setup.generate";
    case SpanKind::kSetupIndex:
      return "setup.index";
    case SpanKind::kSetupCompile:
      return "setup.compile";
    case SpanKind::kOp:
      return "op";
    case SpanKind::kTxBegin:
      return "tx.begin";
    case SpanKind::kQueryExecute:
      return "query.execute";
    case SpanKind::kTxCommit:
      return "tx.commit";
    case SpanKind::kIndexLookup:
      return "index.lookup";
    case SpanKind::kStorageScan:
      return "storage.scan";
    case SpanKind::kReopen:
      return "reopen";
  }
  return "?";
}

}  // namespace

std::vector<int64_t> SpanLog::ChildTimeNs() const {
  std::vector<int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent > base_ && s.parent - base_ <= spans_.size()) {
      covered[s.parent - base_ - 1] += s.end_ns - s.start_ns;
    }
  }
  return covered;
}

bool WriteSpans(const std::string& path, const std::vector<SpanLog>& logs,
                uint64_t max_ops) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\tname\top\tquery\tstart_ns\tend_ns\n");
  for (const SpanLog& log : logs) {
    uint64_t ops = 0;
    uint64_t kept_op = 0;  // id of the last op whose children are kept
    for (const Span& s : log.spans()) {
      if (s.kind == SpanKind::kOp) {
        if (ops++ == max_ops) break;
        kept_op = s.id;
      } else if (s.parent != 0 && s.parent != kept_op) {
        continue;
      }
      std::fprintf(f, "%llu\t%llu\t%s\t%s\t%u\t%lld\t%lld\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   SpanKindName(s.kind), s.is_write ? "write" : "read",
                   static_cast<unsigned>(s.query),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
