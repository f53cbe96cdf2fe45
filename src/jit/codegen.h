// LLVM IR code generation for graph-algebra plans (paper §6.2).
//
// The generator transforms the complete query pipeline into a single IR
// function (entry/consume-block structure per operator), inlining the hot
// data path:
//   * the chunk-table scan loop over record ids (a per-word match queue,
//     see EmitNodeScanSource),
//   * record field loads (label, adjacency pointers, src/dst) at the fixed
//     byte offsets of storage/records.h,
//   * adjacency-list traversal loops for ForeachRelationship,
//   * predicate and projection evaluation with tuple elements held in
//     SSA registers (type information fixed at compile time).
// Record-version resolution, property-chain lookups, and everything after
// the first pipeline breaker / transactional operator run through the AOT
// helpers of jit/runtime.h.
//
// IR requirements from the paper are honored: (1) all allocas live in the
// entry block and heap allocation is absent from generated code,
// (2) initializations (parameter loads, handle slots) happen at the entry
// point, (3) tuple element types are fixed at code-generation time,
// (4) the generated pipeline is fully compatible with the AOT engine (it
// can hand tuples to the interpreter at any operator index).

#ifndef POSEIDON_JIT_CODEGEN_H_
#define POSEIDON_JIT_CODEGEN_H_

#include <memory>
#include <string>

#include <llvm/IR/LLVMContext.h>
#include <llvm/IR/Module.h>

#include "query/plan.h"
#include "storage/scan_options.h"
#include "util/status.h"

namespace poseidon::jit {

struct CodegenResult {
  std::unique_ptr<llvm::LLVMContext> context;
  std::unique_ptr<llvm::Module> module;
  std::string function_name;
  /// Interpreter operator index where the AOT tail starts (-1 = the whole
  /// plan was inlined and tuples go straight to the collector).
  int tail_index = -1;
  /// Number of JitHandle stack slots the function uses (the query engine
  /// runs plans needing more than it supports interpreted).
  uint32_t num_handle_slots = 0;
};

/// Generates the IR module for `plan`. `function_name` must be unique per
/// module (the engine derives it from the plan signature hash). The
/// node-scan source iterates occupancy bitmap words (whole-word skip test,
/// cttz bit extraction) in two phases: it resolves a word's occupied slots
/// into a queue of handles holding DRAM record copies, then runs the
/// downstream pipeline over the queue. It charges the read latency of a
/// word's node records in one helper call, without prefetching them;
/// `scan.prefetch_distance` > 0 adds software prefetches of the queued
/// entries' property-chain heads, and whether it is nonzero is part of the
/// compiled-code cache key.
///
/// `adj_cache` bakes the DRAM adjacency-cache fast path into every kExpand:
/// a per-node poseidon_expand_cached probe plus a DRAM array loop, with the
/// original PMem chain walk as the miss fallback. Like the scan knobs it is
/// part of the compiled-code cache key; with it off the emitted Expand IR is
/// identical to the pre-cache generator.
Result<CodegenResult> GenerateQueryIR(
    const query::Plan& plan, const std::string& function_name,
    const storage::ScanOptions& scan = storage::ScanOptions{},
    bool adj_cache = true);

/// Generated function type: i32(state, begin, end, thread).
using CompiledQueryFn = int32_t (*)(void* state, uint64_t begin, uint64_t end,
                                    uint32_t thread);

}  // namespace poseidon::jit

#endif  // POSEIDON_JIT_CODEGEN_H_
