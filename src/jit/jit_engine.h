// JIT compilation engine (paper §6.2): LLVM ORC-based compilation of
// generated query IR with the paper's optimization pass cascade, an
// in-process memo table, and an optional persistent compiled-code cache.
//
// Pass cascade (paper list): Promote Memory To Register, Control Flow Graph
// Simplification, Loop Unrolling, Dead Code Elimination, Instruction
// Combining — followed by five passes of the standard -O3 pipeline (Jump
// Threading, Correlated Value Propagation, CFG Simplification, Loop
// Rotation, LICM), which keep its speed on the IS plans (geometric mean)
// at a fifth of its compile time (EXPERIMENTS.md E8). The module then goes
// to the default-level backend; generated functions carry `optsize`
// (codegen.cc).

#ifndef POSEIDON_JIT_JIT_ENGINE_H_
#define POSEIDON_JIT_JIT_ENGINE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "jit/codegen.h"
#include "jit/query_cache.h"
#include "query/plan.h"
#include "storage/scan_options.h"

namespace llvm {
class TargetMachine;
namespace orc {
class LLJIT;
}  // namespace orc
}  // namespace llvm

namespace poseidon::jit {

/// A ready-to-run compiled query. The function pointer stays valid for the
/// engine's lifetime.
struct CompiledQuery {
  CompiledQueryFn fn = nullptr;
  int tail_index = -1;
  uint32_t num_handle_slots = 0;
  uint64_t query_id = 0;
  bool from_persistent_cache = false;
  bool from_memo = false;
  /// Wall-clock compilation cost by phase (all 0 when memoized): IR
  /// generation, the pass cascade, and object emission by the backend.
  double codegen_ms = 0;
  double cascade_ms = 0;
  double emit_ms = 0;
};

/// Version of the generated code, mixed into every compiled-code cache key.
/// The persistent QueryCache outlives the binary that filled it, so bump
/// this whenever the emitted code changes shape or the JitHandle /
/// JitStateHeader layout it reads changes: entries cached by another
/// version then miss and are compiled afresh instead of being linked.
inline constexpr uint32_t kCodegenVersion = 5;

/// Per-compile options. Every plan gets the same pass cascade and backend
/// level (EXPERIMENTS.md E8), so neither is an option.
struct JitOptions {
  /// Consult/fill the persistent code cache.
  bool use_persistent_cache = true;
  /// Scan knobs: the generated scan loop bakes in whether
  /// `prefetch_distance` is nonzero, which is therefore part of the cache
  /// key (the distance itself and `batch_size` only steer the interpreter's
  /// kernels and are not).
  storage::ScanOptions scan;
  /// Bake the DRAM adjacency-cache probe + array loop into kExpand
  /// (poseidon_expand_cached fast path with chain-walk fallback). Part of
  /// the cache key like the scan knobs.
  bool adj_cache = true;
};

class JitEngine {
 public:
  /// `cache` may be null (no persistence of compiled code).
  static Result<std::unique_ptr<JitEngine>> Create(QueryCache* cache);

  ~JitEngine();
  JitEngine(const JitEngine&) = delete;
  JitEngine& operator=(const JitEngine&) = delete;

  /// Compiles `plan` (or fetches it from the memo / persistent cache). A
  /// memo hit costs the id combination and one short lock: it never waits
  /// for a compile in flight.
  Result<CompiledQuery> Compile(const query::Plan& plan,
                                const JitOptions& options = {});

  /// Two-phase compilation for adaptive execution: BeginCompile performs
  /// every plan-dependent step (memo/cache probe + IR generation)
  /// synchronously — afterwards the plan may be destroyed — and
  /// FinishCompile runs the expensive pass cascade, object emission and
  /// linking on the self-contained pending state (typically on a
  /// background thread). BeginCompile takes no compile lock, so it never
  /// waits for another plan's FinishCompile. The `jit.compile` fault site
  /// fires only where code is about to be generated, never on a memo or
  /// persistent-cache hit.
  struct PendingCompile {
    bool done = false;         ///< memo/cache hit: `result` is final
    CompiledQuery result;
    JitOptions options;
    std::string fn_name;
    CodegenResult code;        ///< generated module (plan-independent)
    void* dylib = nullptr;     ///< JITDylib prepared by BeginCompile
  };
  Result<PendingCompile> BeginCompile(const query::Plan& plan,
                                      const JitOptions& options = {});
  Result<CompiledQuery> FinishCompile(PendingCompile pending);

  /// Stable identifier of (plan, options, generator version) — the
  /// compiled-code cache key. Combines the id the plan computed when it was
  /// built with the options that shape the code, so it costs a few hash
  /// rounds per call.
  static uint64_t QueryIdFor(const query::Plan& plan,
                             const JitOptions& options,
                             uint32_t codegen_version = kCodegenVersion);

  QueryCache* cache() const { return cache_; }

 private:
  JitEngine() = default;

  /// Copies the memoized code for `query_id` into `*out` as a memo hit
  /// (from_memo set, compile times zeroed); false when there is none.
  bool MemoLookup(uint64_t query_id, CompiledQuery* out);
  /// Publishes `compiled` unless a racer published the query first, and
  /// returns the entry the memo then holds, so every caller runs one copy.
  CompiledQuery MemoInsert(const CompiledQuery& compiled);

  std::unique_ptr<llvm::orc::LLJIT> jit_;
  std::unique_ptr<llvm::TargetMachine> tm_;
  QueryCache* cache_ = nullptr;
  /// Serializes FinishCompile (the pass cascade, the shared TargetMachine's
  /// object emission, linking); held for a whole compile. BeginCompile does
  /// not take it: ORC's session lock covers its JITDylib and linking calls,
  /// and IR generation works in the module's own LLVMContext.
  std::mutex compile_mu_;
  /// Guards memo_ only, so a memo hit never waits for a compile. Taken
  /// inside compile_mu_ when both are held.
  std::mutex memo_mu_;
  std::unordered_map<uint64_t, CompiledQuery> memo_;
  /// Names each compile's JITDylib. Racers of one query that both miss
  /// BeginCompile's memo checks each create one; the loser's stays unused.
  std::atomic<uint64_t> dylib_counter_{0};
};

}  // namespace poseidon::jit

#endif  // POSEIDON_JIT_JIT_ENGINE_H_
