#include "jit/jit_engine.h"

#include <llvm/ExecutionEngine/Orc/CompileUtils.h>
#include <llvm/ExecutionEngine/Orc/LLJIT.h>
#include <llvm/IR/LegacyPassManager.h>
#include <llvm/Support/TargetSelect.h>
#include <llvm/Transforms/InstCombine/InstCombine.h>
#include <llvm/Transforms/Scalar.h>
#include <llvm/Transforms/Utils.h>

#include <cstring>

#include "jit/runtime.h"
#include "util/fault.h"
#include "util/hash.h"
#include "util/spin_timer.h"

namespace poseidon::jit {

namespace {

/// Cached blob layout: header + raw object-file bytes. tail_index and the
/// handle-slot count are codegen outputs that must survive alongside the
/// machine code.
struct BlobHeader {
  uint32_t magic;
  int32_t tail_index;
  uint32_t num_handle_slots;
  uint32_t reserved;
};
constexpr uint32_t kBlobMagic = 0x504a4954;  // "PJIT"

void InitializeLlvmOnce() {
  static bool initialized = [] {
    llvm::InitializeNativeTarget();
    llvm::InitializeNativeTargetAsmPrinter();
    llvm::InitializeNativeTargetAsmParser();
    return true;
  }();
  (void)initialized;
}

/// Registers the AOT helper functions (jit/runtime.h) as absolute symbols
/// so generated code can call them without dynamic symbol export.
llvm::Error RegisterRuntimeSymbols(llvm::orc::LLJIT* jit,
                                   llvm::orc::JITDylib& jd) {
  llvm::orc::SymbolMap symbols;
  auto& es = jit->getExecutionSession();
  auto add = [&](const char* name, auto* fn) {
    symbols[es.intern(name)] = llvm::JITEvaluatedSymbol(
        llvm::pointerToJITTargetAddress(fn), llvm::JITSymbolFlags::Exported);
  };
  add("poseidon_node_ref", &poseidon_node_ref);
  add("poseidon_rel_ref", &poseidon_rel_ref);
  add("poseidon_get_prop", &poseidon_get_prop);
  add("poseidon_param", &poseidon_param);
  add("poseidon_compare", &poseidon_compare);
  add("poseidon_index_matches", &poseidon_index_matches);
  add("poseidon_index_match_at", &poseidon_index_match_at);
  add("poseidon_emit", &poseidon_emit);
  add("poseidon_touch", &poseidon_touch);
  add("poseidon_scan_chunk", &poseidon_scan_chunk);
  add("poseidon_scan_touch", &poseidon_scan_touch);
  add("poseidon_scan_prefetch_props", &poseidon_scan_prefetch_props);
  add("poseidon_expand_cached", &poseidon_expand_cached);
  add("poseidon_should_yield", &poseidon_should_yield);
  return jd.define(llvm::orc::absoluteSymbols(std::move(symbols)));
}

/// A memo entry as its reader gets it: a hit paid for no compile.
CompiledQuery AsMemoHit(CompiledQuery entry) {
  entry.from_memo = true;
  entry.codegen_ms = entry.cascade_ms = entry.emit_ms = 0;
  return entry;
}

std::string LlvmErrToString(llvm::Error err) {
  std::string out;
  llvm::handleAllErrors(std::move(err), [&](const llvm::ErrorInfoBase& e) {
    out += e.message();
    out += "; ";
  });
  return out;
}

/// The run-time optimization strategy: the paper's five-pass cascade, then
/// the five passes of the standard -O3 pipeline that carry its speed on the
/// generated code. Jump threading, value propagation and a CFG cleanup,
/// followed by loop rotation and LICM, ran the IS plans as fast as the
/// whole -O3 module pipeline on a latency-free pool (geometric mean) at a
/// fifth of its compile time; neither group alone did (EXPERIMENTS.md E8).
void RunPassCascade(llvm::Module* module) {
  llvm::legacy::FunctionPassManager fpm(module);
  fpm.add(llvm::createPromoteMemoryToRegisterPass());  // mem2reg
  fpm.add(llvm::createCFGSimplificationPass());
  fpm.add(llvm::createLoopUnrollPass());
  fpm.add(llvm::createDeadCodeEliminationPass());
  fpm.add(llvm::createInstructionCombiningPass());
  fpm.add(llvm::createJumpThreadingPass());
  fpm.add(llvm::createCorrelatedValuePropagationPass());
  fpm.add(llvm::createCFGSimplificationPass());
  fpm.add(llvm::createLoopRotatePass());
  fpm.add(llvm::createLICMPass());
  fpm.doInitialization();
  for (auto& f : *module) {
    if (!f.isDeclaration()) fpm.run(f);
  }
  fpm.doFinalization();
}

}  // namespace

JitEngine::~JitEngine() = default;

Result<std::unique_ptr<JitEngine>> JitEngine::Create(QueryCache* cache) {
  InitializeLlvmOnce();
  auto engine = std::unique_ptr<JitEngine>(new JitEngine());
  engine->cache_ = cache;
  auto jit = llvm::orc::LLJITBuilder().create();
  if (!jit) {
    return Status::Internal("LLJIT creation failed: " +
                            LlvmErrToString(jit.takeError()));
  }
  engine->jit_ = std::move(*jit);
  auto tmb = llvm::orc::JITTargetMachineBuilder::detectHost();
  if (!tmb) {
    return Status::Internal("host detection failed: " +
                            LlvmErrToString(tmb.takeError()));
  }
  auto tm = tmb->createTargetMachine();
  if (!tm) {
    return Status::Internal("target machine creation failed: " +
                            LlvmErrToString(tm.takeError()));
  }
  engine->tm_ = std::move(*tm);
  return engine;
}

uint64_t JitEngine::QueryIdFor(const query::Plan& plan,
                               const JitOptions& options,
                               uint32_t codegen_version) {
  // Code persisted by another generator version must never be linked.
  uint64_t id = HashCombine(plan.id(), codegen_version);
  // The scan loop bakes in whether it prefetches, not how far: the
  // distance and the batch size only steer the interpreter.
  id = HashCombine(id, options.scan.prefetch_distance != 0 ? 1 : 2);
  // So is the adjacency-cache fast path (dual Expand loop vs chain walk).
  id = HashCombine(id, options.adj_cache ? 1 : 2);
  return id;
}

bool JitEngine::MemoLookup(uint64_t query_id, CompiledQuery* out) {
  std::lock_guard<std::mutex> lock(memo_mu_);
  auto it = memo_.find(query_id);
  if (it == memo_.end()) return false;
  *out = AsMemoHit(it->second);
  return true;
}

CompiledQuery JitEngine::MemoInsert(const CompiledQuery& compiled) {
  std::lock_guard<std::mutex> lock(memo_mu_);
  auto [it, inserted] = memo_.try_emplace(compiled.query_id, compiled);
  return inserted ? compiled : AsMemoHit(it->second);
}

Result<CompiledQuery> JitEngine::Compile(const query::Plan& plan,
                                         const JitOptions& options) {
  // Every kJit execution calls this: a hit returns before a PendingCompile
  // is built.
  CompiledQuery hit;
  if (MemoLookup(QueryIdFor(plan, options), &hit)) return hit;
  POSEIDON_ASSIGN_OR_RETURN(PendingCompile pending,
                            BeginCompile(plan, options));
  return FinishCompile(std::move(pending));
}

Result<JitEngine::PendingCompile> JitEngine::BeginCompile(
    const query::Plan& plan, const JitOptions& options) {
  PendingCompile pending;
  pending.options = options;
  const uint64_t query_id = QueryIdFor(plan, options);
  pending.result.query_id = query_id;
  if (MemoLookup(query_id, &pending.result)) {
    pending.done = true;
    return pending;
  }

  // No compile lock from here on: a racer of the same query may do this
  // work twice. The re-check below and MemoInsert keep one copy in use.

  // --- Persistent cache probe ------------------------------------------
  std::vector<char> cached;  // header + object bytes of a persisted compile
  BlobHeader header{};
  if (cache_ != nullptr && options.use_persistent_cache) {
    auto blob = cache_->Get(query_id);
    if (blob.ok() && blob->size() > sizeof(BlobHeader)) {
      std::memcpy(&header, blob->data(), sizeof(header));
      if (header.magic == kBlobMagic) cached = std::move(*blob);
    }
  }
  // A racer may have published the query while the probe read the pool:
  // reuse its code rather than create and link a second copy.
  if (MemoLookup(query_id, &pending.result)) {
    pending.done = true;
    return pending;
  }

  // Injectable compile failure (jit.compile): lets tests and benches prove
  // the query layer degrades to interpretation instead of failing the query
  // when codegen breaks (OOM in ORC, unsupported plan shape, ...). Only a
  // query about to be generated evaluates it, before anything is created
  // for it: memo and persistent-cache hits never do.
  if (cached.empty() &&
      util::FaultRegistry::Instance().ShouldFail("jit.compile")) {
    return Status::Internal("JIT compilation failed: injected fault "
                            "(jit.compile)");
  }

  char name_buf[32];
  std::snprintf(name_buf, sizeof(name_buf), "q%016llx",
                static_cast<unsigned long long>(query_id));
  pending.fn_name = name_buf;

  // Each compiled query gets its own JITDylib so symbol names can never
  // collide across plans or cache generations.
  std::string dylib_name =
      pending.fn_name + "_d" + std::to_string(dylib_counter_++);
  auto jd_or = jit_->getExecutionSession().createJITDylib(dylib_name);
  if (!jd_or) {
    return Status::Internal("createJITDylib failed: " +
                            LlvmErrToString(jd_or.takeError()));
  }
  llvm::orc::JITDylib& jd = *jd_or;
  if (auto err = RegisterRuntimeSymbols(jit_.get(), jd)) {
    return Status::Internal("symbol registration failed: " +
                            LlvmErrToString(std::move(err)));
  }
  pending.dylib = &jd;

  if (!cached.empty()) {
    auto buffer = llvm::MemoryBuffer::getMemBufferCopy(
        llvm::StringRef(cached.data() + sizeof(BlobHeader),
                        cached.size() - sizeof(BlobHeader)),
        pending.fn_name);
    if (auto err = jit_->addObjectFile(jd, std::move(buffer))) {
      return Status::Internal("linking cached object failed: " +
                              LlvmErrToString(std::move(err)));
    }
    auto sym = jit_->lookup(jd, pending.fn_name);
    if (!sym) {
      return Status::Internal("cached symbol lookup failed: " +
                              LlvmErrToString(sym.takeError()));
    }
    pending.result.fn = reinterpret_cast<CompiledQueryFn>(sym->getAddress());
    pending.result.tail_index = header.tail_index;
    pending.result.num_handle_slots = header.num_handle_slots;
    pending.result.from_persistent_cache = true;
    pending.result = MemoInsert(pending.result);
    pending.done = true;
    return pending;
  }

  // --- IR generation (the only phase that reads the plan) -----------------
  StopWatch watch;
  POSEIDON_ASSIGN_OR_RETURN(
      pending.code, GenerateQueryIR(plan, pending.fn_name, options.scan,
                                    options.adj_cache));
  pending.result.codegen_ms = watch.ElapsedMs();
  pending.result.tail_index = pending.code.tail_index;
  pending.result.num_handle_slots = pending.code.num_handle_slots;
  pending.code.module->setDataLayout(jit_->getDataLayout());
  return pending;
}

Result<CompiledQuery> JitEngine::FinishCompile(PendingCompile pending) {
  if (pending.done) return pending.result;
  // The shared TargetMachine is not thread-safe, and two compiles of one
  // query must not both link it ("symbol already defined"): an adaptive
  // background compile racing a foreground Compile corrupted the heap or
  // failed that way. One compile at a time; a racer that lost reuses the
  // winner's memoized code instead of re-linking.
  std::lock_guard<std::mutex> lock(compile_mu_);
  CompiledQuery hit;
  if (MemoLookup(pending.result.query_id, &hit)) return hit;
  CompiledQuery result = pending.result;

  // --- Pass cascade ---------------------------------------------------------
  StopWatch watch;
  RunPassCascade(pending.code.module.get());
  result.cascade_ms = watch.ElapsedMs();

  // --- Emission of a relocatable object -------------------------------------
  watch.Reset();
  llvm::orc::SimpleCompiler compiler(*tm_);
  auto object = compiler(*pending.code.module);
  if (!object) {
    return Status::Internal("object compilation failed: " +
                            LlvmErrToString(object.takeError()));
  }
  result.emit_ms = watch.ElapsedMs();

  // --- Persist, link, resolve -----------------------------------------------
  if (cache_ != nullptr && pending.options.use_persistent_cache) {
    BlobHeader header{kBlobMagic, result.tail_index, result.num_handle_slots,
                      0};
    std::vector<char> blob(sizeof(header) + (*object)->getBufferSize());
    std::memcpy(blob.data(), &header, sizeof(header));
    std::memcpy(blob.data() + sizeof(header), (*object)->getBufferStart(),
                (*object)->getBufferSize());
    POSEIDON_RETURN_IF_ERROR(
        cache_->Put(result.query_id, blob.data(), blob.size()));
  }
  auto& jd = *static_cast<llvm::orc::JITDylib*>(pending.dylib);
  if (auto err = jit_->addObjectFile(jd, std::move(*object))) {
    return Status::Internal("linking object failed: " +
                            LlvmErrToString(std::move(err)));
  }
  auto sym = jit_->lookup(jd, pending.fn_name);
  if (!sym) {
    return Status::Internal("symbol lookup failed: " +
                            LlvmErrToString(sym.takeError()));
  }
  result.fn = reinterpret_cast<CompiledQueryFn>(sym->getAddress());
  return MemoInsert(result);
}

}  // namespace poseidon::jit
