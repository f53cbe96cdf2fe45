#include "jit/runtime.h"

#include <algorithm>
#include <atomic>
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

using storage::NodeTable;
constexpr uint64_t kNodeWords = NodeTable::kBitmapWords;
/// Most 256 B blocks one occupancy word's 64 node records can span.
constexpr uint32_t kWordBlocks =
    64 * sizeof(storage::NodeRecord) / pmem::kPmemBlockSize + 1;

uint64_t BlockOf(const char* p) {
  return reinterpret_cast<uintptr_t>(p) / pmem::kPmemBlockSize;
}
const char* BlockPtr(uint64_t block) {
  return reinterpret_cast<const char*>(block * pmem::kPmemBlockSize);
}

/// The block-list builder of the compiled NodeScan: the 256 B blocks
/// holding node-table word `w`'s records whose slots are set in `bits`, in
/// address order, each once. Returns their count (at most kWordBlocks).
uint32_t WordBlocks(const JitStateHeader& h, uint64_t w, uint64_t bits,
                    uint64_t* out) {
  constexpr uint64_t kRec = sizeof(storage::NodeRecord);
  const char* slots = h.node_chunks[w / kNodeWords] + NodeTable::kHeaderBytes +
                      w % kNodeWords * 64 * kRec;
  uint32_t n = 0;
  while (bits != 0) {
    const int first = std::countr_zero(bits);
    const int run = std::countr_one(bits >> first);
    uint64_t lo = BlockOf(slots + first * kRec);
    const uint64_t hi = BlockOf(slots + (first + run) * kRec - 1);
    if (n != 0 && out[n - 1] >= lo) lo = out[n - 1] + 1;
    for (uint64_t b = lo; b <= hi; ++b) out[n++] = b;
    bits = first + run >= 64 ? 0 : bits & (~0ull << (first + run));
  }
  return n;
}

/// Starts the fills of the blocks holding the property-chain heads of the
/// `n` queue entries at `e`, each block once, in one model call. Returns the
/// number of fills started.
uint32_t PrefetchHeads(JitRuntimeState* s, const JitHandle* e, uint64_t n) {
  using storage::PropertyTable;
  constexpr uint64_t kPerChunk = PropertyTable::kBitmapWords * 64;
  const JitStateHeader& h = s->header;
  uint64_t blocks[kScanPropBatch];
  uint32_t m = 0;
  for (uint64_t i = 0; i < n; ++i) {
    if (e[i].has_snapshot != 0 || e[i].props == storage::kNullId) continue;
    const uint64_t chunk = e[i].props / kPerChunk;
    if (chunk >= h.prop_num_chunks) continue;
    const uint64_t b =
        BlockOf(h.prop_chunks[chunk] + PropertyTable::kHeaderBytes +
                e[i].props % kPerChunk * sizeof(storage::PropertyRecord));
    if (std::find(blocks, blocks + m, b) == blocks + m) blocks[m++] = b;
  }
  return s->ctx.store->pool()->TouchPrefetchBlocks(blocks, m);
}

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

void poseidon_scan_chunk(void* state, uint64_t chunk) {
  State(state)->ctx.store->nodes().EnterChunk(chunk);
}

void poseidon_scan_touch(void* state, void* pf, uint64_t w, uint64_t bits,
                         uint64_t end) {
  auto* s = State(state);
  const pmem::Pool* pool = s->ctx.store->pool();
  uint64_t blocks[kWordBlocks];
  const uint32_t n = WordBlocks(s->header, w, bits, blocks);
  // One model read per run of consecutive blocks: a dense word costs one
  // call, and a block without occupied slots is never charged.
  for (uint32_t i = 0; i < n;) {
    uint32_t j = i + 1;
    while (j < n && blocks[j] == blocks[j - 1] + 1) ++j;
    pool->TouchRead(BlockPtr(blocks[i]), (j - i) * pmem::kPmemBlockSize);
    i = j;
  }
  if (pf == nullptr) return;
  auto* p = static_cast<JitScanPrefetch*>(pf);
  p->num_next = 0;
  p->prop_fills[0] = p->prop_fills[1] = 0;
  const uint64_t next = w + 1;
  const uint64_t w_end =
      std::min((end + 63) / 64, s->header.node_num_chunks * kNodeWords);
  if (next >= w_end) return;
  const auto* chunk = reinterpret_cast<const NodeTable::ChunkHeader*>(
      s->header.node_chunks[next / kNodeWords]);
  uint64_t next_bits = std::atomic_ref<const uint64_t>(
                           chunk->bitmap[next % kNodeWords])
                           .load(std::memory_order_acquire);
  if (end - next * 64 < 64) next_bits &= (1ull << (end - next * 64)) - 1;
  const uint32_t m = WordBlocks(s->header, next, next_bits, blocks);
  p->num_next = std::min(m, pmem::kPrefetchSlots);
  std::copy(blocks + m - p->num_next, blocks + m, p->next_blocks);
  pool->TouchPrefetchBlocks(p->next_blocks, p->num_next);
}

void poseidon_scan_prefetch_props(void* state, void* pf, const void* queue,
                                  uint64_t at, uint64_t queued) {
  auto* s = State(state);
  auto* p = static_cast<JitScanPrefetch*>(pf);
  const auto* handles = static_cast<const JitHandle*>(queue);
  const uint64_t batch = at / kScanPropBatch;
  auto issue = [&](uint64_t k) {
    const uint64_t from = k * kScanPropBatch;
    const uint64_t to = std::min(from + kScanPropBatch, queued);
    p->prop_fills[k & 1] =
        from < to ? PrefetchHeads(s, handles + from, to - from) : 0;
  };
  if (at == 0) issue(0);
  issue(batch + 1);
  if ((batch + 2) * kScanPropBatch < queued) return;  // batches to come
  // The last batch is out. Entries before `at` are consumed, so only the
  // fills of batches `batch` and `batch + 1` are still unread; the node
  // prefetch may take the other slots. Its fills that survive are the
  // newest ones, the tail of next_blocks, so re-issuing a tail of the
  // allowed length restores exactly what property fills evicted.
  const uint32_t held = p->prop_fills[0] + p->prop_fills[1];
  if (held >= pmem::kPrefetchSlots) return;
  const uint32_t n = std::min(pmem::kPrefetchSlots - held, p->num_next);
  s->ctx.store->pool()->TouchPrefetchBlocks(
      p->next_blocks + p->num_next - n, n);
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
