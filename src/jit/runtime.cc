#include "jit/runtime.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace poseidon::jit {
namespace {

using query::CmpOp;
using query::PipelineExecutor;
using query::Tuple;
using query::Value;
using storage::PVal;
using storage::Property;
using storage::RecordId;

JitRuntimeState* State(void* p) { return static_cast<JitRuntimeState*>(p); }
JitHandle* Handle(void* p) { return static_cast<JitHandle*>(p); }

/// Fills `h` from a Resolved record version; snapshot properties move into
/// the per-thread per-slot storage so the handle stays POD.
template <typename R>
void FillHandle(JitRuntimeState* s, uint32_t thread, uint32_t slot,
                JitHandle* h, RecordId id, tx::Resolved<R>&& r) {
  h->id = id;
  h->thread = thread;
  h->slot = slot;
  h->props = r.rec.props;
  std::memcpy(h->copy, &r.rec, sizeof(R));
  h->rec = h->copy;
  if (r.from_snapshot) {
    h->has_snapshot = 1;
    auto& snapshots = s->threads[thread]->snapshots;
    if (snapshots.size() <= slot) snapshots.resize(slot + 1);
    snapshots[slot] = std::move(r.snapshot);
  } else {
    h->has_snapshot = 0;
  }
}

}  // namespace
}  // namespace poseidon::jit

using namespace poseidon;         // NOLINT(build/namespaces)
using namespace poseidon::jit;    // NOLINT(build/namespaces)

extern "C" {

int32_t poseidon_node_ref(void* state, uint64_t id, void* slot_ptr,
                          uint32_t thread, uint32_t slot) {
  auto* s = State(state);
  if (!s->ctx.store->nodes().IsOccupied(id)) return 0;
  auto r = s->ctx.tx->GetNode(id);
  if (!r.ok()) {
    if (r.status().IsNotFound()) return 0;
    s->SetError(r.status());
    return -1;
  }
  FillHandle(s, thread, slot, Handle(slot_ptr), id, std::move(*r));
  return 1;
}

int32_t poseidon_rel_ref(void* state, uint64_t id, void* slot_ptr,
                         uint32_t thread, uint32_t slot) {
  auto* s = State(state);
  auto* h = Handle(slot_ptr);
  auto r = s->ctx.tx->GetRelationship(id);
  if (!r.ok()) {
    if (!r.status().IsNotFound()) {
      s->SetError(r.status());
      return -1;
    }
    // Invisible but possibly chained: expose the raw record so the
    // generated traversal loop can still follow next_src/next_dst
    // (mirrors Transaction::ForEachOutgoing's defensive path).
    const auto* raw = s->ctx.store->relationships().At(id);
    std::memcpy(h->copy, raw, sizeof(storage::RelationshipRecord));
    h->rec = h->copy;
    h->id = id;
    h->thread = thread;
    h->slot = slot;
    h->has_snapshot = 0;
    h->props = storage::kNullId;
    return 0;
  }
  FillHandle(s, thread, slot, h, id, std::move(*r));
  return 1;
}

const void* poseidon_expand_cached(void* state, uint64_t node_id,
                                   uint32_t dir_out, uint32_t thread,
                                   uint32_t slot, uint64_t* count_out) {
  auto* s = State(state);
  *count_out = 0;
  auto adj = s->ctx.tx->GetCachedAdjacency(
      node_id, dir_out != 0 ? tx::AdjDir::kOut : tx::AdjDir::kIn);
  if (adj == nullptr) return nullptr;  // fall back to the inline chain walk
  *count_out = adj->edges.size();
  // data() of an empty vector may be null, which generated code reads as a
  // miss; hand back any non-null pointer (the loop bound is zero anyway).
  static const tx::CachedNeighbor kEmpty{};
  const void* base = adj->edges.empty()
                         ? static_cast<const void*>(&kEmpty)
                         : static_cast<const void*>(adj->edges.data());
  auto& holds = s->threads[thread]->adj_holds;
  if (holds.size() <= slot) holds.resize(slot + 1);
  holds[slot] = std::move(adj);  // pinned until this slot is probed again
  return base;
}

uint32_t poseidon_get_prop(void* state, void* slot_ptr, uint32_t key,
                           uint64_t* out) {
  auto* s = State(state);
  auto* h = Handle(slot_ptr);
  // Tags returned here are query::Value kinds (what poseidon_compare and
  // the emitted tuples expect), not storage PType tags.
  if (h->has_snapshot != 0) {
    const auto& props = s->threads[h->thread]->snapshots[h->slot];
    for (const Property& p : props) {
      if (p.key == key) {
        Value v = Value::FromPVal(p.value);
        *out = v.raw();
        return static_cast<uint32_t>(v.kind());
      }
    }
    *out = 0;
    return 0;
  }
  Value v = Value::FromPVal(s->ctx.store->properties().Get(h->props, key));
  *out = v.raw();
  return static_cast<uint32_t>(v.kind());
}

uint32_t poseidon_param(void* state, uint32_t idx, uint64_t* out) {
  auto* s = State(state);
  if (s->ctx.params == nullptr || idx >= s->ctx.params->size()) {
    s->SetError(Status::InvalidArgument("missing query parameter " +
                                        std::to_string(idx)));
    *out = 0;
    return 0;
  }
  const Value& v = (*s->ctx.params)[idx];
  *out = v.raw();
  return static_cast<uint32_t>(v.kind());
}

int32_t poseidon_compare(uint32_t cmp, uint32_t kind_a, uint64_t raw_a,
                         uint32_t kind_b, uint64_t raw_b) {
  Value a = Value::FromRaw(static_cast<uint8_t>(kind_a), raw_a);
  Value b = Value::FromRaw(static_cast<uint8_t>(kind_b), raw_b);
  return PipelineExecutor::Compare(static_cast<CmpOp>(cmp), a, b) ? 1 : 0;
}

uint64_t poseidon_index_matches(void* state, uint32_t op_idx,
                                uint32_t thread) {
  auto* s = State(state);
  auto& slots = *s->threads[thread];
  // Prefer the executor's matches materialized by Prepare(): morsel ranges
  // [begin, end) address positions in that list, so compiled code must see
  // the exact ordering and count SourceCardinality() reported.
  if (op_idx == 0 && s->executor != nullptr) {
    if (const auto* shared = s->executor->SourceMatches()) {
      slots.shared_matches = shared;
      return shared->size();
    }
  }
  slots.shared_matches = nullptr;
  const query::Op* op = s->executor->ops()[op_idx];
  auto& buffer = slots.index_matches;
  buffer.clear();
  if (s->ctx.indexes == nullptr) {
    s->SetError(Status::FailedPrecondition("no index manager configured"));
    return 0;
  }
  index::BPlusTree* tree = s->ctx.indexes->Find(op->label, op->key);
  if (tree == nullptr) {
    s->SetError(Status::FailedPrecondition("no index on (label, key)"));
    return 0;
  }
  Tuple empty;
  auto lo = PipelineExecutor::Eval(op->value, empty, &s->ctx);
  if (!lo.ok()) {
    s->SetError(lo.status());
    return 0;
  }
  int64_t lo_key = index::IndexKeyOf(lo->ToPVal());
  int64_t hi_key = lo_key;
  if (op->kind == query::OpKind::kIndexRangeScan) {
    auto hi = PipelineExecutor::Eval(op->value2, empty, &s->ctx);
    if (!hi.ok()) {
      s->SetError(hi.status());
      return 0;
    }
    hi_key = index::IndexKeyOf(hi->ToPVal());
  }
  tree->ScanRange(index::BTreeKey{lo_key, 0}, index::BTreeKey{hi_key, ~0ull},
                  [&](const index::BTreeKey&, RecordId id) {
                    buffer.push_back(id);
                    return true;
                  });
  return buffer.size();
}

uint64_t poseidon_index_match_at(void* state, uint32_t thread, uint64_t i) {
  const auto& slots = *State(state)->threads[thread];
  if (slots.shared_matches != nullptr) return (*slots.shared_matches)[i];
  return slots.index_matches[i];
}

void poseidon_touch(void* state, const void* ptr, uint64_t len) {
  State(state)->ctx.store->pool()->TouchRead(ptr, len);
}

void poseidon_scan_touch(void* state, uint64_t w, uint64_t bits) {
  using storage::NodeRecord;
  using storage::NodeTable;
  constexpr uint64_t kBlock = pmem::kPmemBlockSize;
  auto* s = State(state);
  const char* slots = s->header.node_chunks[w / NodeTable::kBitmapWords] +
                      NodeTable::kHeaderBytes +
                      w % NodeTable::kBitmapWords * 64 * sizeof(NodeRecord);
  // One model read per run of blocks that hold occupied slots: a dense
  // word costs one clock read and one spin, and a block without occupied
  // slots is never charged.
  const auto block = [](const char* p) {
    return reinterpret_cast<uintptr_t>(p) / kBlock;
  };
  const char* lo = nullptr;
  const char* hi = nullptr;
  while (bits != 0) {
    const int first = std::countr_zero(bits);
    const int run = std::countr_one(bits >> first);
    const char* a = slots + first * sizeof(NodeRecord);
    if (lo != nullptr && block(a) > block(hi - 1) + 1) {
      s->ctx.store->pool()->TouchRead(lo, hi - lo);
      lo = nullptr;
    }
    if (lo == nullptr) lo = a;
    hi = a + run * sizeof(NodeRecord);
    bits = first + run >= 64 ? 0 : bits & (~0ull << (first + run));
  }
  if (lo != nullptr) s->ctx.store->pool()->TouchRead(lo, hi - lo);
}

void poseidon_scan_prefetch_props(void* state, const void* queue,
                                  uint64_t at, uint64_t queued) {
  using storage::PropertyTable;
  constexpr uint64_t kPerChunk = PropertyTable::kBitmapWords * 64;
  constexpr uint64_t kRec = sizeof(storage::PropertyRecord);
  const uint64_t from = at == 0 ? 0 : at + kScanPropBatch;
  const uint64_t to = std::min(at + 2 * kScanPropBatch, queued);
  if (from >= to) return;
  auto* s = State(state);
  const JitStateHeader& h = s->header;
  const auto* handles = static_cast<const JitHandle*>(queue);
  // Heads of neighbouring matches often sit a few records apart; one range
  // over them costs one model clock read instead of one per head. A range
  // spans at most one block per head, so it takes no more in-flight slots
  // than separate prefetches would.
  const uint64_t max_span = (to - from) * pmem::kPmemBlockSize;
  const char* lo = nullptr;
  const char* hi = nullptr;
  for (uint64_t i = from; i < to; ++i) {
    const JitHandle& e = handles[i];
    if (e.has_snapshot != 0 || e.props == storage::kNullId) continue;
    const uint64_t chunk = e.props / kPerChunk;
    if (chunk >= h.prop_num_chunks) continue;
    const char* rec = h.prop_chunks[chunk] + PropertyTable::kHeaderBytes +
                      e.props % kPerChunk * kRec;
    if (lo != nullptr && rec >= lo && rec + kRec <= lo + max_span) {
      hi = std::max(hi, rec + kRec);
      continue;
    }
    if (lo != nullptr) s->ctx.store->pool()->TouchPrefetch(lo, hi - lo);
    lo = rec;
    hi = rec + kRec;
  }
  if (lo != nullptr) s->ctx.store->pool()->TouchPrefetch(lo, hi - lo);
}

int32_t poseidon_should_yield(void* state) {
  auto* s = State(state);
  Status st = s->ctx.tx->cancel_token()->Check();
  if (st.ok()) return 0;
  s->SetError(st);
  return 1;
}

int32_t poseidon_emit(void* state, int32_t tail_idx, uint32_t n,
                      const uint64_t* vals, const uint8_t* kinds) {
  auto* s = State(state);
  Tuple t;
  t.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    t.push_back(Value::FromRaw(kinds[i], vals[i]));
  }
  if (tail_idx < 0) {
    s->collector->Add(t);
    return 0;
  }
  Status st = s->executor->PushFrom(static_cast<size_t>(tail_idx), t);
  if (st.ok()) return 0;
  if (st.code() == StatusCode::kOutOfRange) return 1;  // stop producing
  s->SetError(st);
  return -1;
}

}  // extern "C"
