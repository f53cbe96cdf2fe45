#include "jit/codegen.h"

#include <llvm/IR/IRBuilder.h>
#include <llvm/IR/Intrinsics.h>
#include <llvm/IR/Verifier.h>

#include <algorithm>
#include <functional>
#include <map>

#include "jit/runtime.h"
#include "storage/graph_store.h"
#include "storage/records.h"
#include "tx/adjacency_cache.h"

namespace poseidon::jit {

namespace {

using query::Expr;
using query::Op;
using query::OpKind;
using query::Plan;
using query::Value;

constexpr uint64_t kNullId = storage::kNullId;

// Chunk-table geometry baked into generated code. All three tables use 512
// records per chunk, so record ids split as (id >> 9, id & 511).
static_assert(storage::NodeTable::kBitmapWords == 8);
constexpr uint64_t kRpcShift = 9;
constexpr uint64_t kRpcMask = 511;
constexpr uint64_t kNodeHeaderBytes = storage::NodeTable::kHeaderBytes;
constexpr uint64_t kRelHeaderBytes = storage::RelationshipTable::kHeaderBytes;
constexpr uint64_t kPropHeaderBytes = storage::PropertyTable::kHeaderBytes;

// JitHandle field offsets consumed by inline fast-path stores.
static_assert(offsetof(JitHandle, rec) == 0);
static_assert(offsetof(JitHandle, id) == 8);
static_assert(offsetof(JitHandle, props) == 16);
static_assert(offsetof(JitHandle, has_snapshot) == 32);

// JitStateHeader field offsets consumed by the entry block.
static_assert(offsetof(JitStateHeader, node_chunks) == 0);
static_assert(offsetof(JitStateHeader, rel_chunks) == 8);
static_assert(offsetof(JitStateHeader, prop_chunks) == 16);
static_assert(offsetof(JitStateHeader, node_num_chunks) == 24);
static_assert(offsetof(JitStateHeader, rel_num_chunks) == 32);
static_assert(offsetof(JitStateHeader, prop_num_chunks) == 40);
static_assert(offsetof(JitStateHeader, ts) == 48);
static_assert(offsetof(JitStateHeader, read_latency) == 56);
static_assert(offsetof(JitRuntimeState, header) == 0);

// CachedNeighbor layout streamed by the Expand fast path (24-byte stride).
static_assert(sizeof(tx::CachedNeighbor) == 24);
static_assert(offsetof(tx::CachedNeighbor, rel_id) == 0);
static_assert(offsetof(tx::CachedNeighbor, neighbor) == 8);
static_assert(offsetof(tx::CachedNeighbor, rel_label) == 16);

// Pipelined NodeScan geometry. The queue holds one occupancy word's
// matches. Phase B prefetches property heads in batches of kScanPropBatch
// (jit/runtime.h; one latency-model call per batch instead of per head) and
// keeps one to two batches in flight, so two batches must fit the model's
// in-flight slots.
constexpr uint64_t kScanQueueCap = 64;
static_assert((kScanPropBatch & (kScanPropBatch - 1)) == 0);
static_assert(2 * kScanPropBatch <= pmem::kPrefetchSlots);

uint8_t KindTag(Value::Kind k) { return static_cast<uint8_t>(k); }

/// True when the plan can read a property of the scanned node (column 0):
/// a property filter or expression on column 0 before the first Project
/// rebinds the columns. Only then does the scan prefetch property heads.
bool ReadsScannedProperty(const std::vector<const Op*>& ops) {
  auto reads = [](const Expr& e) {
    return e.kind == Expr::Kind::kProperty && e.column == 0;
  };
  for (size_t i = 1; i < ops.size(); ++i) {
    const Op* op = ops[i];
    if (op->kind == OpKind::kFilter && op->column == 0 &&
        op->label == storage::kInvalidCode &&
        op->key != storage::kInvalidCode) {
      return true;
    }
    if (reads(op->value) || reads(op->value2) ||
        std::any_of(op->exprs.begin(), op->exprs.end(), reads)) {
      return true;
    }
    if (op->kind == OpKind::kProject) break;
  }
  return false;
}

/// Ops the generator inlines; anything else starts the AOT tail.
bool IsInlinable(const Op* op, bool is_source) {
  switch (op->kind) {
    case OpKind::kNodeScan:
    case OpKind::kIndexScan:
    case OpKind::kIndexRangeScan:
      return is_source;
    case OpKind::kFilter:
    case OpKind::kExpand:
    case OpKind::kExpandTransitive:
    case OpKind::kProject:
      return true;
    default:
      return false;
  }
}

class CodeGenerator {
 public:
  CodeGenerator(const Plan& plan, const std::string& fn_name,
                const storage::ScanOptions& scan, bool adj_cache)
      : plan_(plan), fn_name_(fn_name), scan_(scan), adj_cache_(adj_cache) {}

  Result<CodegenResult> Generate();

 private:
  /// One tuple element: raw payload + kind tag (both IR values; the kind is
  /// almost always a constant) and, for node/rel columns, the handle slot
  /// whose `rec` pointer serves field loads.
  struct Col {
    llvm::Value* raw;
    llvm::Value* kind;  // i8
    int handle_slot = -1;
  };

  llvm::IRBuilder<>& b() { return *builder_; }
  llvm::Type* I8() { return builder_->getInt8Ty(); }
  llvm::Type* I32() { return builder_->getInt32Ty(); }
  llvm::Type* I64() { return builder_->getInt64Ty(); }
  llvm::PointerType* PtrTy() { return builder_->getInt8PtrTy(); }
  llvm::Constant* C32(uint32_t v) { return builder_->getInt32(v); }
  llvm::Constant* C64(uint64_t v) { return builder_->getInt64(v); }
  llvm::Constant* CKind(Value::Kind k) { return builder_->getInt8(KindTag(k)); }

  void DeclareHelpers();
  llvm::BasicBlock* NewBlock(const std::string& name) {
    return llvm::BasicBlock::Create(*context_, name, fn_);
  }

  std::pair<llvm::Value*, uint32_t> AllocHandle();

  llvm::Value* LoadRec(llvm::Value* slot_ptr);
  llvm::Value* LoadField64(llvm::Value* rec, uint64_t byte_off);
  llvm::Value* LoadField64Atomic(llvm::Value* rec, uint64_t byte_off);
  llvm::Value* LoadField32(llvm::Value* rec, uint64_t byte_off);
  llvm::Value* LoadLabel(llvm::Value* rec) {
    return LoadField32(rec, storage::kOffsetOfLabel);
  }
  void StoreField64(llvm::Value* rec, uint64_t byte_off, llvm::Value* v);
  void StoreField32(llvm::Value* rec, uint64_t byte_off, llvm::Value* v);

  /// Emits the conditional PMem read-latency injection for [ptr, ptr+len).
  void EmitTouch(llvm::Value* ptr, uint64_t len);

  /// Emits a cooperative-cancellation poll (poseidon_should_yield) gated on
  /// JitStateHeader::cancellable; a fired token branches to ret_err_.
  void EmitCancelPoll(const char* tag);

  /// What the scan's phase A asks of EmitRecordRef beyond a plain lookup.
  /// The scan has charged the record's read latency already (once per
  /// occupancy word), so the lookup does not touch it again.
  struct ScanRef {
    /// The fast path copies the records of this label (any label when
    /// kInvalidCode) into the handle before the revalidation and points the
    /// handle at that DRAM copy; it reports records of other labels as
    /// invisible (the caller tests the label anyway).
    storage::DictCode label = storage::kInvalidCode;
    /// Receives an i1 that is true when the slow-path helper filled the
    /// handle.
    llvm::Value** via_helper = nullptr;
  };

  /// Resolves record `id` into handle `slot_ptr`. Inlines the paper's hot
  /// path: chunk addressing, occupancy bitmap, MVTO fast-path visibility
  /// (unlocked latest committed version, rts bump + revalidation); all
  /// other cases (locked, chain versions, write set) call the AOT helper.
  /// Returns an i1 "visible". For relationships the handle is ALWAYS
  /// readable afterwards (chain pointers of invisible records); for nodes
  /// it is readable only when visible. Errors branch to ret_err_. A `scan`
  /// caller also guarantees that `id` lies in an allocated chunk.
  llvm::Value* EmitRecordRef(bool is_node, llvm::Value* id,
                             llvm::Value* slot_ptr, uint32_t slot_idx,
                             const ScanRef* scan = nullptr);

  /// Inline property lookup on a resolved handle: walks the PMem property
  /// chain in IR (snapshot versions fall back to the AOT helper). Returns
  /// the (raw, Value-kind) pair.
  Col EmitPropLoad(llvm::Value* slot_ptr, uint32_t key);

  Result<Col> EvalExpr(const Expr& e);

  Status EmitPipeline(size_t i, llvm::BasicBlock* cont);
  Status EmitFilter(const Op* op, size_t i, llvm::BasicBlock* cont);
  Status EmitExpand(const Op* op, size_t i, llvm::BasicBlock* cont);
  Status EmitExpandTransitive(const Op* op, size_t i, llvm::BasicBlock* cont);
  Status EmitProject(const Op* op, size_t i, llvm::BasicBlock* cont);
  Status EmitTailCall(llvm::BasicBlock* cont);
  Status EmitNodeScanSource();
  Status EmitIndexScanSource();
  Status EmitCreateSource();

  const Plan& plan_;
  std::string fn_name_;
  storage::ScanOptions scan_;
  bool adj_cache_ = true;

  std::unique_ptr<llvm::LLVMContext> context_;
  std::unique_ptr<llvm::Module> module_;
  std::unique_ptr<llvm::IRBuilder<>> builder_;
  llvm::Function* fn_ = nullptr;

  std::vector<const Op*> ops_;  // source..sink
  int tail_index_ = -1;

  llvm::Value* arg_state_ = nullptr;
  llvm::Value* arg_begin_ = nullptr;
  llvm::Value* arg_end_ = nullptr;
  llvm::Value* arg_thread_ = nullptr;

  // Header fields hoisted to the entry block.
  llvm::Value* hdr_node_chunks_ = nullptr;
  llvm::Value* hdr_rel_chunks_ = nullptr;
  llvm::Value* hdr_prop_chunks_ = nullptr;
  llvm::Value* hdr_node_nc_ = nullptr;
  llvm::Value* hdr_rel_nc_ = nullptr;
  llvm::Value* hdr_prop_nc_ = nullptr;
  llvm::Value* hdr_ts_ = nullptr;
  llvm::Value* hdr_has_latency_ = nullptr;  // i1
  llvm::Value* hdr_cancellable_ = nullptr;  // i1

  llvm::BasicBlock* entry_ = nullptr;
  llvm::BasicBlock* ret_ok_ = nullptr;
  llvm::BasicBlock* ret_stop_ = nullptr;
  llvm::BasicBlock* ret_err_ = nullptr;
  llvm::Value* tmp_u64_ = nullptr;
  llvm::Value* vals_array_ = nullptr;
  llvm::Value* kinds_array_ = nullptr;
  uint32_t emit_width_ = 0;

  llvm::FunctionCallee h_node_ref_, h_rel_ref_, h_get_prop_, h_param_,
      h_compare_, h_index_matches_, h_index_match_at_, h_emit_, h_touch_,
      h_scan_chunk_, h_scan_touch_, h_scan_prefetch_props_, h_expand_cached_,
      h_should_yield_;

  std::map<int, Col> params_;
  std::vector<Col> cols_;
  std::vector<llvm::Value*> handle_ptrs_;
  uint32_t num_handle_slots_ = 0;
};

void CodeGenerator::DeclareHelpers() {
  auto* i32 = llvm::Type::getInt32Ty(*context_);
  auto* i64 = llvm::Type::getInt64Ty(*context_);
  auto* ptr = llvm::Type::getInt8PtrTy(*context_);
  auto* i64p = llvm::Type::getInt64PtrTy(*context_);
  auto* void_ty = llvm::Type::getVoidTy(*context_);

  h_node_ref_ = module_->getOrInsertFunction(
      "poseidon_node_ref",
      llvm::FunctionType::get(i32, {ptr, i64, ptr, i32, i32}, false));
  h_rel_ref_ = module_->getOrInsertFunction(
      "poseidon_rel_ref",
      llvm::FunctionType::get(i32, {ptr, i64, ptr, i32, i32}, false));
  h_get_prop_ = module_->getOrInsertFunction(
      "poseidon_get_prop",
      llvm::FunctionType::get(i32, {ptr, ptr, i32, i64p}, false));
  h_param_ = module_->getOrInsertFunction(
      "poseidon_param", llvm::FunctionType::get(i32, {ptr, i32, i64p}, false));
  h_compare_ = module_->getOrInsertFunction(
      "poseidon_compare",
      llvm::FunctionType::get(i32, {i32, i32, i64, i32, i64}, false));
  h_index_matches_ = module_->getOrInsertFunction(
      "poseidon_index_matches",
      llvm::FunctionType::get(i64, {ptr, i32, i32}, false));
  h_index_match_at_ = module_->getOrInsertFunction(
      "poseidon_index_match_at",
      llvm::FunctionType::get(i64, {ptr, i32, i64}, false));
  h_emit_ = module_->getOrInsertFunction(
      "poseidon_emit",
      llvm::FunctionType::get(i32, {ptr, i32, i32, i64p, ptr}, false));
  h_touch_ = module_->getOrInsertFunction(
      "poseidon_touch",
      llvm::FunctionType::get(void_ty, {ptr, ptr, i64}, false));
  h_scan_chunk_ = module_->getOrInsertFunction(
      "poseidon_scan_chunk",
      llvm::FunctionType::get(void_ty, {ptr, i64}, false));
  h_scan_touch_ = module_->getOrInsertFunction(
      "poseidon_scan_touch",
      llvm::FunctionType::get(void_ty, {ptr, ptr, i64, i64, i64}, false));
  h_scan_prefetch_props_ = module_->getOrInsertFunction(
      "poseidon_scan_prefetch_props",
      llvm::FunctionType::get(void_ty, {ptr, ptr, ptr, i64, i64}, false));
  h_expand_cached_ = module_->getOrInsertFunction(
      "poseidon_expand_cached",
      llvm::FunctionType::get(ptr, {ptr, i64, i32, i32, i32, i64p}, false));
  h_should_yield_ = module_->getOrInsertFunction(
      "poseidon_should_yield", llvm::FunctionType::get(i32, {ptr}, false));
}

/// Emits a cooperative-cancellation poll: when the state is cancellable,
/// calls poseidon_should_yield and branches to the error exit (state->error
/// carries kCancelled / kDeadlineExceeded) on a nonzero answer. Placed at
/// batch granularity — occupancy word, gather batch, expand hop — so
/// compiled queries stay interruptible (paper-survey requirement: compiled
/// loops need explicit interruption points).
void CodeGenerator::EmitCancelPoll(const char* tag) {
  auto* poll = NewBlock(std::string(tag) + ".poll");
  auto* cont = NewBlock(std::string(tag) + ".poll.cont");
  b().CreateCondBr(hdr_cancellable_, poll, cont);
  b().SetInsertPoint(poll);
  auto* ans = b().CreateCall(h_should_yield_, {arg_state_});
  b().CreateCondBr(b().CreateICmpNE(ans, C32(0)), ret_err_, cont);
  b().SetInsertPoint(cont);
}

std::pair<llvm::Value*, uint32_t> CodeGenerator::AllocHandle() {
  llvm::IRBuilder<> eb(entry_, entry_->begin());
  auto* ty = llvm::ArrayType::get(eb.getInt8Ty(), sizeof(JitHandle));
  auto* slot = eb.CreateAlloca(ty, nullptr, "handle");
  slot->setAlignment(llvm::Align(8));
  uint32_t idx = num_handle_slots_++;
  return {builder_->CreateBitCast(slot, PtrTy()), idx};
}

llvm::Value* CodeGenerator::LoadRec(llvm::Value* slot_ptr) {
  auto* pp = b().CreateBitCast(slot_ptr, PtrTy()->getPointerTo());
  return b().CreateLoad(PtrTy(), pp, "rec");
}

llvm::Value* CodeGenerator::LoadField64(llvm::Value* rec, uint64_t byte_off) {
  auto* addr = b().CreateGEP(I8(), rec, C64(byte_off));
  auto* p = b().CreateBitCast(addr, llvm::Type::getInt64PtrTy(*context_));
  return b().CreateLoad(I64(), p);
}

llvm::Value* CodeGenerator::LoadField64Atomic(llvm::Value* rec,
                                              uint64_t byte_off) {
  auto* addr = b().CreateGEP(I8(), rec, C64(byte_off));
  auto* p = b().CreateBitCast(addr, llvm::Type::getInt64PtrTy(*context_));
  auto* load = b().CreateLoad(I64(), p);
  load->setAtomic(llvm::AtomicOrdering::Acquire);
  load->setAlignment(llvm::Align(8));
  return load;
}

llvm::Value* CodeGenerator::LoadField32(llvm::Value* rec, uint64_t byte_off) {
  auto* addr = b().CreateGEP(I8(), rec, C64(byte_off));
  auto* p = b().CreateBitCast(addr, llvm::Type::getInt32PtrTy(*context_));
  return b().CreateLoad(I32(), p);
}

void CodeGenerator::StoreField64(llvm::Value* rec, uint64_t byte_off,
                                 llvm::Value* v) {
  auto* addr = b().CreateGEP(I8(), rec, C64(byte_off));
  auto* p = b().CreateBitCast(addr, llvm::Type::getInt64PtrTy(*context_));
  b().CreateStore(v, p);
}

void CodeGenerator::StoreField32(llvm::Value* rec, uint64_t byte_off,
                                 llvm::Value* v) {
  auto* addr = b().CreateGEP(I8(), rec, C64(byte_off));
  auto* p = b().CreateBitCast(addr, llvm::Type::getInt32PtrTy(*context_));
  b().CreateStore(v, p);
}

void CodeGenerator::EmitTouch(llvm::Value* ptr, uint64_t len) {
  auto* touch_bb = NewBlock("touch");
  auto* cont_bb = NewBlock("touch.cont");
  b().CreateCondBr(hdr_has_latency_, touch_bb, cont_bb);
  b().SetInsertPoint(touch_bb);
  b().CreateCall(h_touch_, {arg_state_, ptr, C64(len)});
  b().CreateBr(cont_bb);
  b().SetInsertPoint(cont_bb);
}

llvm::Value* CodeGenerator::EmitRecordRef(bool is_node, llvm::Value* id,
                                          llvm::Value* slot_ptr,
                                          uint32_t slot_idx,
                                          const ScanRef* scan) {
  llvm::Value* chunks = is_node ? hdr_node_chunks_ : hdr_rel_chunks_;
  llvm::Value* num_chunks = is_node ? hdr_node_nc_ : hdr_rel_nc_;
  uint64_t header_bytes = is_node ? kNodeHeaderBytes : kRelHeaderBytes;
  uint64_t rec_size = is_node ? sizeof(storage::NodeRecord)
                              : sizeof(storage::RelationshipRecord);
  uint64_t props_off =
      is_node ? storage::kOffsetOfNodeProps : storage::kOffsetOfRelProps;
  const char* tag = is_node ? "nref" : "rref";

  auto* addr_bb = NewBlock(std::string(tag) + ".addr");
  auto* occ_bb = NewBlock(std::string(tag) + ".occ");
  auto* fast_bb = NewBlock(std::string(tag) + ".fast");
  auto* fill_bb = NewBlock(std::string(tag) + ".fill");
  auto* slow_bb = NewBlock(std::string(tag) + ".slow");
  auto* slow_ok_bb = NewBlock(std::string(tag) + ".slow_ok");
  auto* merge_bb = NewBlock(std::string(tag) + ".merge");
  llvm::BasicBlock* miss_bb =
      is_node ? NewBlock(std::string(tag) + ".miss") : nullptr;

  // Bounds check: out-of-snapshot ids (own inserts in fresh chunks) take
  // the slow path, which resolves them through the write set. A scan only
  // visits allocated chunks.
  auto* chunk = b().CreateLShr(id, C64(kRpcShift), "chunk");
  if (scan != nullptr) {
    b().CreateBr(addr_bb);
  } else {
    b().CreateCondBr(b().CreateICmpULT(chunk, num_chunks), addr_bb, slow_bb);
  }

  // addr: chunk base + occupancy bitmap test.
  b().SetInsertPoint(addr_bb);
  auto* slotno = b().CreateAnd(id, C64(kRpcMask), "slot");
  auto* chunk_pp = b().CreateGEP(PtrTy(), chunks, chunk);
  auto* base = b().CreateLoad(PtrTy(), chunk_pp, "chunk_base");
  auto* word_index = b().CreateLShr(slotno, C64(6));
  auto* word_addr = b().CreateGEP(
      I8(), base,
      b().CreateAdd(C64(16), b().CreateShl(word_index, C64(3))));
  auto* word = b().CreateLoad(
      I64(), b().CreateBitCast(word_addr,
                               llvm::Type::getInt64PtrTy(*context_)));
  auto* bit = b().CreateAnd(
      b().CreateLShr(word, b().CreateAnd(slotno, C64(63))), C64(1));
  auto* occupied = b().CreateICmpNE(bit, C64(0));
  // Unoccupied node slots are plain invisible (scans skip them without a
  // helper call); unoccupied relationship slots defer to the helper, which
  // also provides the raw chain pointers.
  b().CreateCondBr(occupied, occ_bb, is_node ? miss_bb : slow_bb);

  // occ: record address, latency, MVTO fast-path check.
  b().SetInsertPoint(occ_bb);
  auto* rec = b().CreateGEP(
      I8(), base,
      b().CreateAdd(C64(header_bytes),
                    b().CreateMul(slotno, C64(rec_size))),
      "recptr");
  if (scan == nullptr) EmitTouch(rec, rec_size);
  auto* txn = LoadField64Atomic(rec, storage::kOffsetOfTxnId);
  auto* bts = LoadField64(rec, storage::kOffsetOfBts);
  auto* ets = LoadField64(rec, storage::kOffsetOfEts);
  auto* fast = b().CreateAnd(
      b().CreateAnd(b().CreateICmpEQ(txn, C64(0)),
                    b().CreateICmpNE(bts, C64(0))),
      b().CreateAnd(b().CreateICmpULE(bts, hdr_ts_),
                    b().CreateICmpULT(hdr_ts_, ets)));
  b().CreateCondBr(fast, fast_bb, slow_bb);

  // fast: rts bump (atomic umax, unflushed — §5.1) + revalidation. A copy
  // taken before the bump is ordered before it (the bump is a release) and
  // validated by the re-read after it, seqlock style.
  b().SetInsertPoint(fast_bb);
  llvm::Value* copy_ptr = nullptr;
  llvm::Value* wanted = nullptr;  // i1: the live label is `scan->label`
  if (scan != nullptr) {
    copy_ptr = b().CreateGEP(I8(), slot_ptr, C64(offsetof(JitHandle, copy)));
    if (scan->label != storage::kInvalidCode) {
      wanted = b().CreateICmpEQ(LoadLabel(rec), C32(scan->label));
      auto* copy_bb = NewBlock(std::string(tag) + ".copy");
      auto* bump_bb = NewBlock(std::string(tag) + ".bump");
      b().CreateCondBr(wanted, copy_bb, bump_bb);
      b().SetInsertPoint(copy_bb);
      b().CreateMemCpy(copy_ptr, llvm::MaybeAlign(8), rec,
                       llvm::MaybeAlign(8), rec_size);
      b().CreateBr(bump_bb);
      b().SetInsertPoint(bump_bb);
    } else {
      b().CreateMemCpy(copy_ptr, llvm::MaybeAlign(8), rec,
                       llvm::MaybeAlign(8), rec_size);
    }
  }
  auto* rts_addr = b().CreateBitCast(
      b().CreateGEP(I8(), rec, C64(storage::kOffsetOfRts)),
      llvm::Type::getInt64PtrTy(*context_));
  b().CreateAtomicRMW(llvm::AtomicRMWInst::UMax, rts_addr, hdr_ts_,
                      llvm::MaybeAlign(8),
                      llvm::AtomicOrdering::AcquireRelease);
  auto* txn2 = LoadField64Atomic(rec, storage::kOffsetOfTxnId);
  auto* bts2 = LoadField64(rec, storage::kOffsetOfBts);
  auto* stable = b().CreateAnd(b().CreateICmpEQ(txn2, C64(0)),
                               b().CreateICmpEQ(bts2, bts));
  if (wanted != nullptr) {
    // The label read above was validated along with the copy: a stable
    // record of another label is skipped like a free slot.
    auto* keep_bb = NewBlock(std::string(tag) + ".keep");
    b().CreateCondBr(stable, keep_bb, slow_bb);
    b().SetInsertPoint(keep_bb);
    b().CreateCondBr(wanted, fill_bb, miss_bb);
  } else {
    b().CreateCondBr(stable, fill_bb, slow_bb);
  }

  // fill: handle points at the live PMem record, or at its copy.
  b().SetInsertPoint(fill_bb);
  {
    llvm::Value* src = scan != nullptr ? copy_ptr : rec;
    auto* pp = b().CreateBitCast(slot_ptr, PtrTy()->getPointerTo());
    b().CreateStore(src, pp);
    StoreField64(slot_ptr, offsetof(JitHandle, id), id);
    StoreField64(slot_ptr, offsetof(JitHandle, props),
                 LoadField64(src, props_off));
    StoreField32(slot_ptr, offsetof(JitHandle, has_snapshot), C32(0));
  }
  b().CreateBr(merge_bb);

  // slow: write set, version chains, locks, uncommitted inserts.
  b().SetInsertPoint(slow_bb);
  auto* r = b().CreateCall(
      is_node ? h_node_ref_ : h_rel_ref_,
      {arg_state_, id, slot_ptr, arg_thread_, C32(slot_idx)});
  auto* is_err = b().CreateICmpSLT(r, C32(0));
  b().CreateCondBr(is_err, ret_err_, slow_ok_bb);
  b().SetInsertPoint(slow_ok_bb);
  auto* vis_slow = b().CreateICmpEQ(r, C32(1));
  b().CreateBr(merge_bb);

  if (is_node) {
    b().SetInsertPoint(miss_bb);
    b().CreateBr(merge_bb);
  }

  b().SetInsertPoint(merge_bb);
  auto* visible = b().CreatePHI(b().getInt1Ty(), is_node ? 3 : 2, "visible");
  visible->addIncoming(b().getTrue(), fill_bb);
  visible->addIncoming(vis_slow, slow_ok_bb);
  if (is_node) visible->addIncoming(b().getFalse(), miss_bb);
  if (scan != nullptr && scan->via_helper != nullptr) {
    auto* slow = b().CreatePHI(b().getInt1Ty(), is_node ? 3 : 2, "via_helper");
    slow->addIncoming(b().getFalse(), fill_bb);
    slow->addIncoming(b().getTrue(), slow_ok_bb);
    if (is_node) slow->addIncoming(b().getFalse(), miss_bb);
    *scan->via_helper = slow;
  }
  return visible;
}

CodeGenerator::Col CodeGenerator::EmitPropLoad(llvm::Value* slot_ptr,
                                               uint32_t key) {
  auto* inline_bb = NewBlock("prop.inline");
  auto* loop_bb = NewBlock("prop.loop");
  auto* body_bb = NewBlock("prop.body");
  auto* helper_bb = NewBlock("prop.helper");
  auto* miss_bb = NewBlock("prop.miss");
  auto* merge_bb = NewBlock("prop.merge");

  auto* pre_bb = b().GetInsertBlock();
  auto* has_snap = LoadField32(slot_ptr, offsetof(JitHandle, has_snapshot));
  b().CreateCondBr(b().CreateICmpNE(has_snap, C32(0)), helper_bb, inline_bb);
  (void)pre_bb;

  // inline: walk the PMem property chain directly (DD3 layout: 64 B
  // records, 3 entries of {key u32, type u32, value u64} at offset 16).
  b().SetInsertPoint(inline_bb);
  auto* head = LoadField64(slot_ptr, offsetof(JitHandle, props));
  b().CreateBr(loop_bb);

  b().SetInsertPoint(loop_bb);
  auto* cur = b().CreatePHI(I64(), 2, "prop.cur");
  cur->addIncoming(head, inline_bb);
  auto* at_end = b().CreateICmpEQ(cur, C64(kNullId));
  auto* bounds_bb = NewBlock("prop.bounds");
  b().CreateCondBr(at_end, miss_bb, bounds_bb);

  b().SetInsertPoint(bounds_bb);
  auto* chunk = b().CreateLShr(cur, C64(kRpcShift));
  auto* in_bounds = b().CreateICmpULT(chunk, hdr_prop_nc_);
  b().CreateCondBr(in_bounds, body_bb, miss_bb);

  b().SetInsertPoint(body_bb);
  auto* slotno = b().CreateAnd(cur, C64(kRpcMask));
  auto* base = b().CreateLoad(
      PtrTy(), b().CreateGEP(PtrTy(), hdr_prop_chunks_, chunk));
  auto* rec = b().CreateGEP(
      I8(), base,
      b().CreateAdd(C64(kPropHeaderBytes), b().CreateMul(slotno, C64(64))));
  EmitTouch(rec, 64);

  // Three key comparisons; hits collect (type, value) per entry.
  std::vector<std::pair<llvm::BasicBlock*, std::pair<llvm::Value*,
                                                     llvm::Value*>>>
      hits;
  auto* hit_merge_bb = NewBlock("prop.hit");
  llvm::BasicBlock* cur_bb = b().GetInsertBlock();
  llvm::Value* next = nullptr;
  for (int e = 0; e < storage::PropertyRecord::kEntriesPerRecord; ++e) {
    uint64_t entry_off = 16 + 16 * static_cast<uint64_t>(e);
    auto* k = LoadField32(rec, entry_off);
    auto* match = b().CreateICmpEQ(k, C32(key));
    auto* found_bb = NewBlock("prop.found");
    auto* next_bb = NewBlock("prop.next_entry");
    b().CreateCondBr(match, found_bb, next_bb);
    b().SetInsertPoint(found_bb);
    auto* type = LoadField32(rec, entry_off + 4);
    auto* value = LoadField64(rec, entry_off + 8);
    hits.emplace_back(found_bb, std::make_pair(type, value));
    b().CreateBr(hit_merge_bb);
    b().SetInsertPoint(next_bb);
    cur_bb = next_bb;
  }
  next = LoadField64(rec, 8);  // PropertyRecord::next
  cur->addIncoming(next, cur_bb);
  b().CreateBr(loop_bb);

  // hit: convert the storage PType tag to a query::Value kind.
  b().SetInsertPoint(hit_merge_bb);
  auto* type_phi = b().CreatePHI(I32(), hits.size(), "ptype");
  auto* value_phi = b().CreatePHI(I64(), hits.size(), "praw");
  for (auto& [bb, tv] : hits) {
    type_phi->addIncoming(tv.first, bb);
    value_phi->addIncoming(tv.second, bb);
  }
  // PType {0:null,1:int,2:double,3:string,4:bool}
  //  -> Kind {0:null,2:int,3:double,4:string,1:bool}
  auto* kind_hit = b().CreateSelect(
      b().CreateICmpEQ(type_phi, C32(1)), b().getInt8(2),
      b().CreateSelect(
          b().CreateICmpEQ(type_phi, C32(2)), b().getInt8(3),
          b().CreateSelect(
              b().CreateICmpEQ(type_phi, C32(3)), b().getInt8(4),
              b().CreateSelect(b().CreateICmpEQ(type_phi, C32(4)),
                               b().getInt8(1), b().getInt8(0)))));
  auto* hit_end_bb = b().GetInsertBlock();
  b().CreateBr(merge_bb);

  // helper: DRAM snapshot versions.
  b().SetInsertPoint(helper_bb);
  auto* kind_helper32 = b().CreateCall(
      h_get_prop_,
      {arg_state_, slot_ptr, C32(key),
       b().CreateBitCast(tmp_u64_, llvm::Type::getInt64PtrTy(*context_))});
  auto* raw_helper = b().CreateLoad(I64(), tmp_u64_);
  auto* kind_helper = b().CreateTrunc(kind_helper32, I8());
  auto* helper_end_bb = b().GetInsertBlock();
  b().CreateBr(merge_bb);

  b().SetInsertPoint(miss_bb);
  b().CreateBr(merge_bb);

  b().SetInsertPoint(merge_bb);
  auto* kind = b().CreatePHI(I8(), 3, "prop.kind");
  auto* raw = b().CreatePHI(I64(), 3, "prop.raw");
  kind->addIncoming(kind_hit, hit_end_bb);
  raw->addIncoming(value_phi, hit_end_bb);
  kind->addIncoming(kind_helper, helper_end_bb);
  raw->addIncoming(raw_helper, helper_end_bb);
  kind->addIncoming(b().getInt8(0), miss_bb);
  raw->addIncoming(C64(0), miss_bb);
  return Col{raw, kind, -1};
}

Result<CodeGenerator::Col> CodeGenerator::EvalExpr(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return Col{C64(e.literal.raw()), CKind(e.literal.kind()), -1};
    case Expr::Kind::kParam: {
      auto it = params_.find(e.param);
      if (it == params_.end()) {
        return Status::Internal("parameter not preloaded");
      }
      return it->second;
    }
    case Expr::Kind::kColumn:
      if (e.column < 0 || e.column >= static_cast<int>(cols_.size())) {
        return Status::InvalidArgument("codegen: column out of range");
      }
      return cols_[e.column];
    case Expr::Kind::kProperty: {
      if (e.column < 0 || e.column >= static_cast<int>(cols_.size()) ||
          cols_[e.column].handle_slot < 0) {
        return Status::InvalidArgument(
            "codegen: property access needs a record column");
      }
      llvm::Value* slot = handle_ptrs_[cols_[e.column].handle_slot];
      return EmitPropLoad(slot, e.key);
    }
    case Expr::Kind::kRecordId: {
      if (e.column < 0 || e.column >= static_cast<int>(cols_.size())) {
        return Status::InvalidArgument("codegen: column out of range");
      }
      return Col{cols_[e.column].raw, CKind(Value::Kind::kInt), -1};
    }
    case Expr::Kind::kLabel: {
      if (e.column < 0 || e.column >= static_cast<int>(cols_.size()) ||
          cols_[e.column].handle_slot < 0) {
        return Status::InvalidArgument(
            "codegen: label access needs a record column");
      }
      llvm::Value* slot = handle_ptrs_[cols_[e.column].handle_slot];
      auto* rec = LoadRec(slot);
      auto* lbl = b().CreateZExt(LoadLabel(rec), I64());
      return Col{lbl, CKind(Value::Kind::kString), -1};
    }
  }
  return Status::Internal("codegen: unknown expression kind");
}

Status CodeGenerator::EmitFilter(const Op* op, size_t i,
                                 llvm::BasicBlock* cont) {
  llvm::Value* pass = nullptr;
  if (op->label != storage::kInvalidCode) {
    const Col& c = cols_[op->column];
    if (c.handle_slot < 0) {
      return Status::InvalidArgument("codegen: label filter needs a record");
    }
    auto* rec = LoadRec(handle_ptrs_[c.handle_slot]);
    pass = b().CreateICmpEQ(LoadLabel(rec), C32(op->label));
  } else {
    Col lhs;
    if (op->key != storage::kInvalidCode) {
      POSEIDON_ASSIGN_OR_RETURN(
          lhs, EvalExpr(Expr::Property(op->column, op->key)));
    } else {
      lhs = Col{cols_[op->column].raw, CKind(Value::Kind::kInt), -1};
    }
    POSEIDON_ASSIGN_OR_RETURN(Col rhs, EvalExpr(op->value));
    auto* r = b().CreateCall(
        h_compare_,
        {C32(static_cast<uint32_t>(op->cmp)), b().CreateZExt(lhs.kind, I32()),
         lhs.raw, b().CreateZExt(rhs.kind, I32()), rhs.raw});
    pass = b().CreateICmpNE(r, C32(0));
  }
  auto* then = NewBlock("filter.pass");
  b().CreateCondBr(pass, then, cont);
  b().SetInsertPoint(then);
  return EmitPipeline(i + 1, cont);
}

Status CodeGenerator::EmitExpand(const Op* op, size_t i,
                                 llvm::BasicBlock* cont) {
  const Col& c = cols_[op->column];
  if (c.handle_slot < 0) {
    return Status::InvalidArgument("codegen: expand needs a node column");
  }
  bool out = op->dir == query::Direction::kOut;
  // Cancellation poll per expanded tuple: bounds a hub node's neighbor walk
  // (the scan loops provide the per-record cadence upstream).
  EmitCancelPoll("exp");
  auto* rec = LoadRec(handle_ptrs_[c.handle_slot]);
  auto* first = LoadField64(rec, out ? storage::kOffsetOfNodeFirstOut
                                     : storage::kOffsetOfNodeFirstIn);

  llvm::IRBuilder<> eb(entry_, entry_->begin());
  auto* cur_addr = eb.CreateAlloca(eb.getInt64Ty(), nullptr, "exp.cur");
  b().CreateStore(first, cur_addr);

  auto [rel_slot, rel_idx] = AllocHandle();
  auto [node_slot, node_idx] = AllocHandle();

  auto* head = NewBlock("exp.head");
  auto* body = NewBlock("exp.body");
  auto* latch = NewBlock("exp.latch");
  // Both the cached loop and the chain walk converge here with (rel id,
  // neighbor id) so the downstream pipeline is emitted exactly once.
  auto* merge = NewBlock("exp.pair");

  // Adjacency-cache fast path (compiled in unless the cache is off in the
  // query key): probe once per input node; on a hit the loop streams
  // 24-byte CachedNeighbor entries from sequential DRAM — next "pointer",
  // label filter, and neighbor id all come from the array, so the PMem
  // chain is never touched. The probe misses (null) for writer
  // transactions, old snapshots, or a disabled cache; then the original
  // chain walk below runs unchanged.
  llvm::Value* hit = nullptr;         // i1; dominates latch
  llvm::Value* idx_addr = nullptr;
  llvm::BasicBlock* chead = nullptr;
  llvm::BasicBlock* clatch = nullptr;
  llvm::Value* crel = nullptr;        // cached rel id reaching merge
  llvm::Value* cneigh = nullptr;      // cached neighbor id reaching merge
  llvm::BasicBlock* cached_pred = nullptr;
  if (adj_cache_) {
    idx_addr = eb.CreateAlloca(eb.getInt64Ty(), nullptr, "exp.cidx");
    auto* cnt_addr = eb.CreateAlloca(eb.getInt64Ty(), nullptr, "exp.ccnt");
    auto* adj_base = b().CreateCall(
        h_expand_cached_,
        {arg_state_, c.raw, C32(out ? 1 : 0), arg_thread_, C32(rel_idx),
         cnt_addr},
        "adj.base");
    hit = b().CreateICmpNE(adj_base,
                           llvm::ConstantPointerNull::get(PtrTy()),
                           "adj.hit");
    auto* cinit = NewBlock("exp.cinit");
    chead = NewBlock("exp.chead");
    auto* cbody = NewBlock("exp.cbody");
    clatch = NewBlock("exp.clatch");
    b().CreateCondBr(hit, cinit, head);

    b().SetInsertPoint(cinit);
    b().CreateStore(C64(0), idx_addr);
    b().CreateBr(chead);

    b().SetInsertPoint(chead);
    auto* idx = b().CreateLoad(I64(), idx_addr, "adj.idx");
    auto* cnt = b().CreateLoad(I64(), cnt_addr, "adj.cnt");
    b().CreateCondBr(b().CreateICmpULT(idx, cnt), cbody, cont);

    b().SetInsertPoint(cbody);
    auto* eptr = b().CreateGEP(
        I8(), adj_base,
        b().CreateMul(idx, C64(sizeof(tx::CachedNeighbor))), "adj.entry");
    crel = b().CreateLoad(
        I64(), b().CreateBitCast(eptr, I64()->getPointerTo()), "adj.rel");
    cneigh = b().CreateLoad(
        I64(),
        b().CreateBitCast(
            b().CreateGEP(I8(), eptr,
                          C64(offsetof(tx::CachedNeighbor, neighbor))),
            I64()->getPointerTo()),
        "adj.neigh");
    if (op->label != storage::kInvalidCode) {
      auto* lbl = b().CreateLoad(
          I32(),
          b().CreateBitCast(
              b().CreateGEP(I8(), eptr,
                            C64(offsetof(tx::CachedNeighbor, rel_label))),
              I32()->getPointerTo()),
          "adj.label");
      auto* cref = NewBlock("exp.cref");
      b().CreateCondBr(b().CreateICmpEQ(lbl, C32(op->label)), cref, latch);
      b().SetInsertPoint(cref);
    }
    // The emitted relationship handle still resolves through full MVTO
    // visibility (downstream operators may read its properties); the
    // cached stamp guarantees the hop exists, but a foreign lock must
    // abort and an in-flight version must come from the write set.
    auto* cvis = EmitRecordRef(/*is_node=*/false, crel, rel_slot, rel_idx);
    cached_pred = b().GetInsertBlock();
    b().CreateCondBr(cvis, merge, latch);

    b().SetInsertPoint(clatch);
    auto* idx2 = b().CreateLoad(I64(), idx_addr);
    b().CreateStore(b().CreateAdd(idx2, C64(1)), idx_addr);
    b().CreateBr(chead);
  } else {
    b().CreateBr(head);
  }

  b().SetInsertPoint(head);
  auto* cur = b().CreateLoad(I64(), cur_addr, "cur");
  b().CreateCondBr(b().CreateICmpEQ(cur, C64(kNullId)), cont, body);

  b().SetInsertPoint(body);
  auto* visible = EmitRecordRef(/*is_node=*/false, cur, rel_slot, rel_idx);
  auto* relrec = LoadRec(rel_slot);
  auto* next = LoadField64(relrec, out ? storage::kOffsetOfRelNextSrc
                                       : storage::kOffsetOfRelNextDst);
  b().CreateStore(next, cur_addr);
  auto* check_label = NewBlock("exp.check");
  b().CreateCondBr(visible, check_label, latch);

  b().SetInsertPoint(check_label);
  if (op->label != storage::kInvalidCode) {
    auto* match = b().CreateICmpEQ(LoadLabel(relrec), C32(op->label));
    auto* get_neighbor = NewBlock("exp.neigh");
    b().CreateCondBr(match, get_neighbor, latch);
    b().SetInsertPoint(get_neighbor);
  }
  auto* wneigh = LoadField64(relrec, out ? storage::kOffsetOfRelDst
                                         : storage::kOffsetOfRelSrc);
  auto* walk_pred = b().GetInsertBlock();
  b().CreateBr(merge);

  b().SetInsertPoint(merge);
  llvm::Value* rel_v = cur;
  llvm::Value* neighbor = wneigh;
  if (adj_cache_) {
    auto* rel_phi = b().CreatePHI(I64(), 2, "rel.phi");
    rel_phi->addIncoming(crel, cached_pred);
    rel_phi->addIncoming(cur, walk_pred);
    auto* neigh_phi = b().CreatePHI(I64(), 2, "neigh.phi");
    neigh_phi->addIncoming(cneigh, cached_pred);
    neigh_phi->addIncoming(wneigh, walk_pred);
    rel_v = rel_phi;
    neighbor = neigh_phi;
  }
  auto* nvisible =
      EmitRecordRef(/*is_node=*/true, neighbor, node_slot, node_idx);
  auto* have_node = NewBlock("exp.node");
  b().CreateCondBr(nvisible, have_node, latch);
  b().SetInsertPoint(have_node);
  if (op->label2 != storage::kInvalidCode) {
    auto* nrec = LoadRec(node_slot);
    auto* match = b().CreateICmpEQ(LoadLabel(nrec), C32(op->label2));
    auto* body2 = NewBlock("exp.node2");
    b().CreateCondBr(match, body2, latch);
    b().SetInsertPoint(body2);
  }

  size_t base = cols_.size();
  handle_ptrs_[rel_idx] = rel_slot;
  handle_ptrs_[node_idx] = node_slot;
  cols_.push_back(
      Col{rel_v, CKind(Value::Kind::kRel), static_cast<int>(rel_idx)});
  cols_.push_back(
      Col{neighbor, CKind(Value::Kind::kNode), static_cast<int>(node_idx)});
  POSEIDON_RETURN_IF_ERROR(EmitPipeline(i + 1, latch));
  cols_.resize(base);

  b().SetInsertPoint(latch);
  if (adj_cache_) {
    b().CreateCondBr(hit, clatch, head);
  } else {
    b().CreateBr(head);
  }
  return Status::Ok();
}

Status CodeGenerator::EmitExpandTransitive(const Op* op, size_t i,
                                           llvm::BasicBlock* cont) {
  const Col& c = cols_[op->column];
  if (c.handle_slot < 0) {
    return Status::InvalidArgument("codegen: expand needs a node column");
  }
  bool out = op->dir == query::Direction::kOut;

  llvm::IRBuilder<> eb(entry_, entry_->begin());
  auto* cur_addr = eb.CreateAlloca(eb.getInt64Ty(), nullptr, "tr.cur");
  auto* edge_addr = eb.CreateAlloca(eb.getInt64Ty(), nullptr, "tr.edge");
  b().CreateStore(c.raw, cur_addr);

  auto [node_slot, node_idx] = AllocHandle();
  auto [rel_slot, rel_idx] = AllocHandle();

  auto* head = NewBlock("tr.head");
  auto* stop = NewBlock("tr.stop");
  auto* walk = NewBlock("tr.walk");
  auto* fhead = NewBlock("tr.fhead");
  auto* fbody = NewBlock("tr.fbody");
  b().CreateBr(head);

  b().SetInsertPoint(head);
  EmitCancelPoll("tr");  // once per transitive hop
  auto* cur = b().CreateLoad(I64(), cur_addr);
  auto* visible = EmitRecordRef(/*is_node=*/true, cur, node_slot, node_idx);
  auto* have = NewBlock("tr.have");
  b().CreateCondBr(visible, have, cont);
  b().SetInsertPoint(have);
  auto* rec = LoadRec(node_slot);
  auto* is_stop = b().CreateICmpEQ(LoadLabel(rec), C32(op->label2));
  b().CreateCondBr(is_stop, stop, walk);

  b().SetInsertPoint(walk);
  auto* first = LoadField64(rec, out ? storage::kOffsetOfNodeFirstOut
                                     : storage::kOffsetOfNodeFirstIn);
  b().CreateStore(first, edge_addr);
  b().CreateBr(fhead);

  b().SetInsertPoint(fhead);
  auto* edge = b().CreateLoad(I64(), edge_addr);
  b().CreateCondBr(b().CreateICmpEQ(edge, C64(kNullId)), cont, fbody);

  b().SetInsertPoint(fbody);
  auto* evisible = EmitRecordRef(/*is_node=*/false, edge, rel_slot, rel_idx);
  auto* erec = LoadRec(rel_slot);
  auto* enext = LoadField64(erec, out ? storage::kOffsetOfRelNextSrc
                                      : storage::kOffsetOfRelNextDst);
  b().CreateStore(enext, edge_addr);
  auto* echeck = NewBlock("tr.echeck");
  b().CreateCondBr(evisible, echeck, fhead);
  b().SetInsertPoint(echeck);
  if (op->label != storage::kInvalidCode) {
    auto* match = b().CreateICmpEQ(LoadLabel(erec), C32(op->label));
    auto* follow = NewBlock("tr.follow");
    b().CreateCondBr(match, follow, fhead);
    b().SetInsertPoint(follow);
  }
  auto* nextnode = LoadField64(erec, out ? storage::kOffsetOfRelDst
                                         : storage::kOffsetOfRelSrc);
  b().CreateStore(nextnode, cur_addr);
  b().CreateBr(head);

  b().SetInsertPoint(stop);
  size_t base = cols_.size();
  handle_ptrs_[node_idx] = node_slot;
  cols_.push_back(
      Col{cur, CKind(Value::Kind::kNode), static_cast<int>(node_idx)});
  POSEIDON_RETURN_IF_ERROR(EmitPipeline(i + 1, cont));
  cols_.resize(base);
  return Status::Ok();
}

Status CodeGenerator::EmitProject(const Op* op, size_t i,
                                  llvm::BasicBlock* cont) {
  std::vector<Col> out;
  out.reserve(op->exprs.size());
  for (const Expr& e : op->exprs) {
    POSEIDON_ASSIGN_OR_RETURN(Col c, EvalExpr(e));
    out.push_back(c);
  }
  std::vector<Col> saved = std::move(cols_);
  cols_ = std::move(out);
  Status s = EmitPipeline(i + 1, cont);
  cols_ = std::move(saved);
  return s;
}

Status CodeGenerator::EmitTailCall(llvm::BasicBlock* cont) {
  uint32_t n = static_cast<uint32_t>(cols_.size());
  if (n > emit_width_) {
    return Status::Internal("codegen: emit width underestimated");
  }
  for (uint32_t k = 0; k < n; ++k) {
    auto* vslot = b().CreateGEP(
        llvm::ArrayType::get(I64(), emit_width_), vals_array_,
        {C32(0), C32(k)});
    b().CreateStore(cols_[k].raw, vslot);
    auto* kslot = b().CreateGEP(
        llvm::ArrayType::get(I8(), emit_width_), kinds_array_,
        {C32(0), C32(k)});
    b().CreateStore(cols_[k].kind, kslot);
  }
  auto* vptr = b().CreateGEP(llvm::ArrayType::get(I64(), emit_width_),
                             vals_array_, {C32(0), C32(0)});
  auto* kptr = b().CreateGEP(llvm::ArrayType::get(I8(), emit_width_),
                             kinds_array_, {C32(0), C32(0)});
  auto* r = b().CreateCall(
      h_emit_, {arg_state_, C32(static_cast<uint32_t>(tail_index_)), C32(n),
                vptr, kptr});
  auto* sw = b().CreateSwitch(r, cont, 2);
  sw->addCase(b().getInt32(1), ret_stop_);
  sw->addCase(
      llvm::ConstantInt::getSigned(llvm::Type::getInt32Ty(*context_), -1),
      ret_err_);
  return Status::Ok();
}

Status CodeGenerator::EmitPipeline(size_t i, llvm::BasicBlock* cont) {
  if (tail_index_ >= 0 && i >= static_cast<size_t>(tail_index_)) {
    return EmitTailCall(cont);
  }
  if (i >= ops_.size()) {
    return EmitTailCall(cont);  // tail_index_ == -1: straight to collector
  }
  const Op* op = ops_[i];
  switch (op->kind) {
    case OpKind::kFilter:
      return EmitFilter(op, i, cont);
    case OpKind::kExpand:
      return EmitExpand(op, i, cont);
    case OpKind::kExpandTransitive:
      return EmitExpandTransitive(op, i, cont);
    case OpKind::kProject:
      return EmitProject(op, i, cont);
    default:
      return Status::Internal("codegen: unexpected mid-pipeline operator");
  }
}

// Software-pipelined scan loop over each 64-bit occupancy word (one
// `bits != 0` test skips 64 empty slots; cttz extracts the set bits):
//  * Phase A resolves every occupied slot of the word once (MVTO fast path,
//    rts bump, label test) and appends each visible match to a per-word
//    queue of JitHandles. The fast path copies the validated record into
//    its queue entry, so nothing after phase A reads the live PMem record.
//    The blocks holding the word's occupied records are charged by one
//    helper call before phase A reads them; when the scan prefetches, the
//    same call then starts the fills of the next word's record blocks, so
//    they overlap this word's work. Model calls scale with words and
//    property batches, never with records (EXPERIMENTS.md E7b).
//  * Phase B runs the downstream pipeline, emitted once, over the queue in
//    slot order, prefetching the blocks of the property-chain heads one to
//    two batches of kScanPropBatch entries ahead, so the dependent property
//    read overlaps the work on the entries before it. Once the last batch
//    is out, the same helper re-issues the node prefetches that property
//    fills evicted (JitScanPrefetch keeps the count within the model's
//    fill ring).
// A handle filled by the slow-path helper (a chain version or a DRAM
// property snapshot, whose storage is per handle slot) is queued and then
// flushed through phase B at once, before the next record can reuse that
// storage. On entering a chunk the loop calls poseidon_scan_chunk, which
// verifies a cold chunk of a reopened pool and charges the header block
// the occupancy words are read from.
Status CodeGenerator::EmitNodeScanSource() {
  const Op* src = ops_[0];
  llvm::IRBuilder<> eb(entry_, entry_->begin());
  auto* w_addr = eb.CreateAlloca(eb.getInt64Ty(), nullptr, "scan.w");
  auto* bits_addr = eb.CreateAlloca(eb.getInt64Ty(), nullptr, "scan.bits");
  auto* qn_addr = eb.CreateAlloca(eb.getInt64Ty(), nullptr, "scan.qn");
  auto* qi_addr = eb.CreateAlloca(eb.getInt64Ty(), nullptr, "scan.qi");
  auto* queue_alloca = eb.CreateAlloca(
      llvm::ArrayType::get(eb.getInt8Ty(), kScanQueueCap * sizeof(JitHandle)),
      nullptr, "scan.queue");
  queue_alloca->setAlignment(llvm::Align(8));
  auto* queue = b().CreateBitCast(queue_alloca, PtrTy());
  // Both prefetches hang on prefetch_distance != 0 (part of the query id);
  // the helpers keep their bookkeeping in `pf`, null when off.
  const bool prefetch = scan_.prefetch_distance != 0;
  llvm::Value* pf = llvm::ConstantPointerNull::get(PtrTy());
  if (prefetch) {
    auto* pf_alloca = eb.CreateAlloca(
        llvm::ArrayType::get(eb.getInt8Ty(), sizeof(JitScanPrefetch)),
        nullptr, "scan.pf");
    pf_alloca->setAlignment(llvm::Align(alignof(JitScanPrefetch)));
    pf = b().CreateBitCast(pf_alloca, PtrTy());
  }
  // Queue entries resolve into snapshot storage slot `slot_idx`.
  const uint32_t slot_idx = num_handle_slots_++;
  const bool prefetch_props = prefetch && ReadsScannedProperty(ops_);
  auto entry_at = [&](llvm::Value* i) {
    return b().CreateGEP(I8(), queue, b().CreateMul(i, C64(sizeof(JitHandle))),
                         "scan.entry");
  };

  // Occupancy words covering [begin, end): w in [begin>>6, (end+63)>>6).
  // Morsel bounds are multiples of 64 in practice; partial first/last words
  // are handled by masking below.
  auto* w_begin = b().CreateLShr(arg_begin_, C64(6), "w.begin");
  auto* w_end_raw = b().CreateLShr(b().CreateAdd(arg_end_, C64(63)), C64(6));
  // Clamp to the allocated chunks (ScanBatch clamps `end` to NumSlots the
  // same way) so the chunk-base load below never reads past the table.
  auto* w_cap = b().CreateShl(hdr_node_nc_, C64(3));  // 8 words per chunk
  auto* w_end = b().CreateSelect(b().CreateICmpULT(w_end_raw, w_cap),
                                 w_end_raw, w_cap, "w.end");
  b().CreateStore(w_begin, w_addr);
  b().CreateStore(C64(0), bits_addr);
  b().CreateStore(C64(0), qn_addr);

  auto* whead = NewBlock("scan.whead");
  auto* wbody = NewBlock("scan.wbody");
  auto* wfresh = NewBlock("scan.wfresh");
  auto* wcharge = NewBlock("scan.wcharge");
  auto* wtouch = NewBlock("scan.wtouch");
  auto* wlatch = NewBlock("scan.wlatch");
  auto* ahead = NewBlock("scan.ahead");
  auto* abody = NewBlock("scan.abody");
  auto* bstart = NewBlock("scan.bstart");
  auto* bhead = NewBlock("scan.bhead");
  auto* bbody = NewBlock("scan.bbody");
  auto* blatch = NewBlock("scan.blatch");
  auto* bdone = NewBlock("scan.bdone");
  b().CreateBr(whead);

  b().SetInsertPoint(whead);
  auto* w = b().CreateLoad(I64(), w_addr, "w");
  b().CreateCondBr(b().CreateICmpULT(w, w_end), wbody, ret_ok_);

  // wbody: bits left over from a flush resume phase A on the same word.
  // A flush re-enters here rather than jumping back into phase A: a second
  // way back would nest phase A and B in one more loop, which costs
  // compile time.
  b().SetInsertPoint(wbody);
  auto* word_base = b().CreateShl(w, C64(6), "word_base");
  b().CreateCondBr(
      b().CreateICmpNE(b().CreateLoad(I64(), bits_addr), C64(0)), ahead,
      wfresh);

  // wfresh: load the word, mask the partial first/last words of the morsel,
  // skip the whole word when nothing survives. Cancellation poll once per
  // occupancy word (64 slots).
  b().SetInsertPoint(wfresh);
  EmitCancelPoll("scan");
  auto* chunk = b().CreateLShr(w, C64(3), "chunk");  // 8 words per chunk
  auto* base = b().CreateLoad(
      PtrTy(), b().CreateGEP(PtrTy(), hdr_node_chunks_, chunk), "chunk_base");
  {
    auto* at_entry = b().CreateOr(
        b().CreateICmpEQ(b().CreateAnd(w, C64(7)), C64(0)),
        b().CreateICmpEQ(w, w_begin));
    auto* hdr_bb = NewBlock("scan.hdr");
    auto* hdr_cont = NewBlock("scan.hdr.cont");
    b().CreateCondBr(at_entry, hdr_bb, hdr_cont);
    b().SetInsertPoint(hdr_bb);
    b().CreateCall(h_scan_chunk_, {arg_state_, chunk});
    b().CreateBr(hdr_cont);
    b().SetInsertPoint(hdr_cont);
  }
  auto* word_addr = b().CreateGEP(
      I8(), base,
      b().CreateAdd(C64(16), b().CreateShl(b().CreateAnd(w, C64(7)), C64(3))));
  auto* word = b().CreateLoad(
      I64(),
      b().CreateBitCast(word_addr, llvm::Type::getInt64PtrTy(*context_)),
      "occ");
  auto* lo_mask = b().CreateSelect(
      b().CreateICmpEQ(w, w_begin),
      b().CreateShl(C64(~0ull), b().CreateAnd(arg_begin_, C64(63))),
      C64(~0ull));
  auto* avail = b().CreateSub(arg_end_, word_base);
  auto* hi_mask = b().CreateSelect(
      b().CreateICmpULT(avail, C64(64)),
      b().CreateSub(b().CreateShl(C64(1), avail), C64(1)), C64(~0ull));
  auto* bits0 = b().CreateAnd(word, b().CreateAnd(lo_mask, hi_mask), "bits");
  b().CreateStore(bits0, bits_addr);
  b().CreateCondBr(b().CreateICmpEQ(bits0, C64(0)), wlatch, wcharge);

  // wcharge: the read latency of the word's occupied record blocks, and
  // the next word's node prefetch.
  b().SetInsertPoint(wcharge);
  b().CreateCondBr(hdr_has_latency_, wtouch, ahead);
  b().SetInsertPoint(wtouch);
  b().CreateCall(h_scan_touch_, {arg_state_, pf, w, bits0, arg_end_});
  b().CreateBr(ahead);

  // Phase A: resolve the next occupied slot into the queue's tail entry.
  b().SetInsertPoint(ahead);
  auto* bits = b().CreateLoad(I64(), bits_addr);
  b().CreateCondBr(b().CreateICmpEQ(bits, C64(0)), bstart, abody);

  b().SetInsertPoint(abody);
  auto* tz = b().CreateIntrinsic(llvm::Intrinsic::cttz, {I64()},
                                 {bits, b().getInt1(true)});
  auto* id = b().CreateOr(word_base, tz, "id");
  b().CreateStore(b().CreateAnd(bits, b().CreateSub(bits, C64(1))), bits_addr);
  auto* qn = b().CreateLoad(I64(), qn_addr, "qn");
  auto* tail = entry_at(qn);
  llvm::Value* via_helper = nullptr;
  const ScanRef ref{src->label, &via_helper};
  auto* visible = EmitRecordRef(/*is_node=*/true, id, tail, slot_idx, &ref);
  auto* check = NewBlock("scan.check");
  auto* enqueue = NewBlock("scan.enqueue");
  b().CreateCondBr(visible, check, ahead);
  b().SetInsertPoint(check);
  if (src->label != storage::kInvalidCode) {
    auto* match = b().CreateICmpEQ(LoadLabel(LoadRec(tail)), C32(src->label));
    b().CreateCondBr(match, enqueue, ahead);
  } else {
    b().CreateBr(enqueue);
  }
  b().SetInsertPoint(enqueue);
  b().CreateStore(b().CreateAdd(qn, C64(1)), qn_addr);
  b().CreateCondBr(via_helper, bstart, ahead);

  // Phase B: the downstream pipeline over the queued handles.
  b().SetInsertPoint(bstart);
  auto* queued = b().CreateLoad(I64(), qn_addr, "queued");
  b().CreateStore(C64(0), qi_addr);
  b().CreateBr(bhead);

  b().SetInsertPoint(bhead);
  auto* qi = b().CreateLoad(I64(), qi_addr, "qi");
  b().CreateCondBr(b().CreateICmpULT(qi, queued), bbody, bdone);

  b().SetInsertPoint(bbody);
  if (prefetch_props) {
    // One helper call per batch of kScanPropBatch entries.
    auto* at_batch =
        b().CreateICmpEQ(b().CreateAnd(qi, C64(kScanPropBatch - 1)), C64(0));
    auto* pf_bb = NewBlock("scan.pfprops");
    auto* pf_cont = NewBlock("scan.pfprops.cont");
    b().CreateCondBr(b().CreateAnd(hdr_has_latency_, at_batch), pf_bb,
                     pf_cont);
    b().SetInsertPoint(pf_bb);
    b().CreateCall(h_scan_prefetch_props_,
                   {arg_state_, pf, queue, qi, queued});
    b().CreateBr(pf_cont);
    b().SetInsertPoint(pf_cont);
  }
  auto* head = entry_at(qi);
  handle_ptrs_[slot_idx] = head;
  cols_.clear();
  cols_.push_back(Col{LoadField64(head, offsetof(JitHandle, id)),
                      CKind(Value::Kind::kNode), static_cast<int>(slot_idx)});
  POSEIDON_RETURN_IF_ERROR(EmitPipeline(1, blatch));

  b().SetInsertPoint(blatch);
  b().CreateStore(b().CreateAdd(b().CreateLoad(I64(), qi_addr), C64(1)),
                  qi_addr);
  b().CreateBr(bhead);

  // Queue drained: move to the next word, or back to this one after a
  // flush.
  b().SetInsertPoint(bdone);
  b().CreateStore(C64(0), qn_addr);
  b().CreateCondBr(
      b().CreateICmpEQ(b().CreateLoad(I64(), bits_addr), C64(0)), wlatch,
      whead);

  b().SetInsertPoint(wlatch);
  auto* wcur = b().CreateLoad(I64(), w_addr);
  b().CreateStore(b().CreateAdd(wcur, C64(1)), w_addr);
  b().CreateBr(whead);
  return Status::Ok();
}

Status CodeGenerator::EmitIndexScanSource() {
  const Op* src = ops_[0];
  auto* count =
      b().CreateCall(h_index_matches_, {arg_state_, C32(0), arg_thread_});
  // Morsel ranges address positions in the materialized match list: iterate
  // [begin, min(end, count)) so parallel workers split the matches.
  auto* limit = b().CreateSelect(b().CreateICmpULT(count, arg_end_), count,
                                 arg_end_, "idx.limit");

  llvm::IRBuilder<> eb(entry_, entry_->begin());
  auto* i_addr = eb.CreateAlloca(eb.getInt64Ty(), nullptr, "idx.i");
  b().CreateStore(arg_begin_, i_addr);
  auto [slot, slot_idx] = AllocHandle();
  handle_ptrs_[slot_idx] = slot;

  auto* head = NewBlock("idx.head");
  auto* body = NewBlock("idx.body");
  auto* latch = NewBlock("idx.latch");
  b().CreateBr(head);

  b().SetInsertPoint(head);
  auto* iv = b().CreateLoad(I64(), i_addr);
  b().CreateCondBr(b().CreateICmpULT(iv, limit), body, ret_ok_);

  b().SetInsertPoint(body);
  EmitCancelPoll("idx");
  auto* id =
      b().CreateCall(h_index_match_at_, {arg_state_, arg_thread_, iv});
  auto* visible = EmitRecordRef(/*is_node=*/true, id, slot, slot_idx);
  auto* check = NewBlock("idx.check");
  b().CreateCondBr(visible, check, latch);
  b().SetInsertPoint(check);
  if (src->label != storage::kInvalidCode) {
    auto* rec = LoadRec(slot);
    auto* match = b().CreateICmpEQ(LoadLabel(rec), C32(src->label));
    auto* next = NewBlock("idx.label_ok");
    b().CreateCondBr(match, next, latch);
    b().SetInsertPoint(next);
  }
  // Snapshot re-validation of the indexed property bounds.
  cols_.clear();
  cols_.push_back(
      Col{id, CKind(Value::Kind::kNode), static_cast<int>(slot_idx)});
  POSEIDON_ASSIGN_OR_RETURN(Col prop, EvalExpr(Expr::Property(0, src->key)));
  POSEIDON_ASSIGN_OR_RETURN(Col lo, EvalExpr(src->value));
  auto* ge = b().CreateCall(
      h_compare_,
      {C32(static_cast<uint32_t>(query::CmpOp::kGe)),
       b().CreateZExt(prop.kind, I32()), prop.raw,
       b().CreateZExt(lo.kind, I32()), lo.raw});
  Col hi = lo;
  if (src->kind == OpKind::kIndexRangeScan) {
    POSEIDON_ASSIGN_OR_RETURN(hi, EvalExpr(src->value2));
  }
  auto* le = b().CreateCall(
      h_compare_,
      {C32(static_cast<uint32_t>(query::CmpOp::kLe)),
       b().CreateZExt(prop.kind, I32()), prop.raw,
       b().CreateZExt(hi.kind, I32()), hi.raw});
  auto* in_range = b().CreateAnd(b().CreateICmpNE(ge, C32(0)),
                                 b().CreateICmpNE(le, C32(0)));
  auto* process = NewBlock("idx.process");
  b().CreateCondBr(in_range, process, latch);
  b().SetInsertPoint(process);
  POSEIDON_RETURN_IF_ERROR(EmitPipeline(1, latch));

  b().SetInsertPoint(latch);
  auto* cur = b().CreateLoad(I64(), i_addr);
  b().CreateStore(b().CreateAdd(cur, C64(1)), i_addr);
  b().CreateBr(head);
  return Status::Ok();
}

Status CodeGenerator::EmitCreateSource() {
  cols_.clear();
  return EmitPipeline(0, ret_ok_);
}

Result<CodegenResult> CodeGenerator::Generate() {
  context_ = std::make_unique<llvm::LLVMContext>();
  module_ = std::make_unique<llvm::Module>("poseidon_query", *context_);
  builder_ = std::make_unique<llvm::IRBuilder<>>(*context_);
  DeclareHelpers();

  for (const Op* op = plan_.root(); op != nullptr; op = op->input.get()) {
    ops_.push_back(op);
  }
  std::reverse(ops_.begin(), ops_.end());
  tail_index_ = -1;
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (!IsInlinable(ops_[i], i == 0)) {
      tail_index_ = static_cast<int>(i);
      break;
    }
  }

  // Widest tuple that can reach an emit point.
  uint32_t width = 1;
  uint32_t running = 0;
  size_t limit = tail_index_ >= 0 ? static_cast<size_t>(tail_index_)
                                  : ops_.size();
  for (size_t i = 0; i < limit; ++i) {
    switch (ops_[i]->kind) {
      case OpKind::kNodeScan:
      case OpKind::kIndexScan:
      case OpKind::kIndexRangeScan:
        running = 1;
        break;
      case OpKind::kExpand:
        running += 2;
        break;
      case OpKind::kExpandTransitive:
        running += 1;
        break;
      case OpKind::kProject:
        running = static_cast<uint32_t>(ops_[i]->exprs.size());
        break;
      default:
        break;
    }
    width = std::max(width, std::max(running, 1u));
  }
  emit_width_ = std::max(width, 1u);

  auto* fn_ty = llvm::FunctionType::get(
      I32(), {PtrTy(), I64(), I64(), I32()}, false);
  fn_ = llvm::Function::Create(fn_ty, llvm::Function::ExternalLinkage,
                               fn_name_, module_.get());
  // Size-conscious code. `optsize` first kept the former -O3 module pipeline
  // from unswitching loops per invariant flag and unrolling speculatively.
  // Under today's pass cascade, an in-process A/B on a DRAM pool measured
  // the same compile time with and without it, and hot code about 1%
  // faster with it (EXPERIMENTS.md E8).
  fn_->addFnAttr(llvm::Attribute::OptimizeForSize);
  arg_state_ = fn_->getArg(0);
  arg_begin_ = fn_->getArg(1);
  arg_end_ = fn_->getArg(2);
  arg_thread_ = fn_->getArg(3);

  entry_ = NewBlock("entry");
  ret_ok_ = NewBlock("ret.ok");
  ret_stop_ = NewBlock("ret.stop");
  ret_err_ = NewBlock("ret.err");
  {
    llvm::IRBuilder<> rb(ret_ok_);
    rb.CreateRet(rb.getInt32(0));
    rb.SetInsertPoint(ret_stop_);
    rb.CreateRet(rb.getInt32(1));
    rb.SetInsertPoint(ret_err_);
    rb.CreateRet(llvm::ConstantInt::getSigned(I32(), -1));
  }

  b().SetInsertPoint(entry_);
  tmp_u64_ = b().CreateAlloca(I64(), nullptr, "tmp");
  vals_array_ = b().CreateAlloca(llvm::ArrayType::get(I64(), emit_width_),
                                 nullptr, "vals");
  kinds_array_ = b().CreateAlloca(llvm::ArrayType::get(I8(), emit_width_),
                                  nullptr, "kinds");

  // Hoist the state header to registers (initializations at the entry
  // point — paper IR requirement 2).
  auto load_hdr_ptr = [&](uint64_t off) {
    auto* addr = b().CreateGEP(I8(), arg_state_, C64(off));
    return b().CreateLoad(
        PtrTy(), b().CreateBitCast(addr, PtrTy()->getPointerTo()));
  };
  auto load_hdr_u64 = [&](uint64_t off) {
    auto* addr = b().CreateGEP(I8(), arg_state_, C64(off));
    return b().CreateLoad(
        I64(), b().CreateBitCast(addr, llvm::Type::getInt64PtrTy(*context_)));
  };
  hdr_node_chunks_ =
      b().CreateBitCast(load_hdr_ptr(0), PtrTy()->getPointerTo());
  hdr_rel_chunks_ =
      b().CreateBitCast(load_hdr_ptr(8), PtrTy()->getPointerTo());
  hdr_prop_chunks_ =
      b().CreateBitCast(load_hdr_ptr(16), PtrTy()->getPointerTo());
  hdr_node_nc_ = load_hdr_u64(24);
  hdr_rel_nc_ = load_hdr_u64(32);
  hdr_prop_nc_ = load_hdr_u64(40);
  hdr_ts_ = load_hdr_u64(48);
  hdr_has_latency_ = b().CreateICmpNE(load_hdr_u64(56), C64(0));
  hdr_cancellable_ = b().CreateICmpNE(load_hdr_u64(64), C64(0));

  std::function<void(const Op*)> collect = [&](const Op* op) {
    if (op == nullptr) return;
    auto add = [&](const Expr& e) {
      if (e.kind == Expr::Kind::kParam) params_[e.param] = Col{};
    };
    add(op->value);
    add(op->value2);
    for (const Expr& e : op->exprs) add(e);
    collect(op->input.get());
    collect(op->right.get());
  };
  collect(plan_.root());
  for (auto& [idx, col] : params_) {
    auto* kind = b().CreateCall(
        h_param_,
        {arg_state_, C32(static_cast<uint32_t>(idx)),
         b().CreateBitCast(tmp_u64_, llvm::Type::getInt64PtrTy(*context_))});
    auto* raw = b().CreateLoad(I64(), tmp_u64_);
    col = Col{raw, b().CreateTrunc(kind, I8()), -1};
  }

  handle_ptrs_.assign(64, nullptr);

  Status s;
  switch (ops_[0]->kind) {
    case OpKind::kNodeScan:
      s = EmitNodeScanSource();
      break;
    case OpKind::kIndexScan:
    case OpKind::kIndexRangeScan:
      s = EmitIndexScanSource();
      break;
    case OpKind::kCreateNode:
      if (tail_index_ != 0) {
        return Status::Internal("create source must start the AOT tail");
      }
      s = EmitCreateSource();
      break;
    default:
      return Status::Unimplemented("codegen: unsupported source operator");
  }
  POSEIDON_RETURN_IF_ERROR(s);

  std::string err;
  llvm::raw_string_ostream os(err);
  if (llvm::verifyFunction(*fn_, &os)) {
    return Status::Internal("generated IR failed verification: " + os.str());
  }

  CodegenResult result;
  result.context = std::move(context_);
  result.module = std::move(module_);
  result.function_name = fn_name_;
  result.tail_index = tail_index_;
  result.num_handle_slots = num_handle_slots_;
  return result;
}

}  // namespace

Result<CodegenResult> GenerateQueryIR(const query::Plan& plan,
                                      const std::string& function_name,
                                      const storage::ScanOptions& scan,
                                      bool adj_cache) {
  if (plan.root() == nullptr) {
    return Status::InvalidArgument("empty plan");
  }
  CodeGenerator gen(plan, function_name, scan, adj_cache);
  return gen.Generate();
}

}  // namespace poseidon::jit
