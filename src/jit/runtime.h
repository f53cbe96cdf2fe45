// AOT runtime for JIT-compiled queries (paper §6.2).
//
// The code generator inlines the hot data-path — chunk-table loops, MVTO
// fast-path visibility checks, record field loads by fixed byte offset,
// adjacency traversal, predicate evaluation — directly into LLVM IR. For
// everything that is already well-optimized AOT code or inherently
// state-heavy, the generated code calls the extern "C" helpers declared
// here: version-chain fallbacks, property-chain lookups, pipeline breakers
// (order-by/limit/count), hash-join probes, transactional create/set
// operators, and result emission. This mirrors the paper's requirement (4):
// full compatibility with the AOT execution engine.
//
// Calling convention: the generated function has signature
//   i32 query(i8* state, i64 begin, i64 end)
// and returns 0 (ok), 1 (stop requested, e.g. limit reached) or -1 (error;
// the Status is in JitRuntimeState::error). Record handles are caller-
// allocated stack slots (filled by poseidon_node_ref / poseidon_rel_ref),
// satisfying the paper's IR requirements (1) minimal stack allocation and
// (2) initialization at the function entry point.

#ifndef POSEIDON_JIT_RUNTIME_H_
#define POSEIDON_JIT_RUNTIME_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "pmem/latency_model.h"
#include "query/interpreter.h"

namespace poseidon::jit {

/// Queue entries per property-head prefetch batch of the compiled NodeScan.
inline constexpr uint64_t kScanPropBatch = 4;

/// Prefetch bookkeeping of one compiled NodeScan, kept in a stack slot of
/// the generated function (whose IR only passes its address around). The
/// scan never holds more than pmem::kPrefetchSlots fills of its own in the
/// latency model's fill ring, counting node fills and unconsumed property
/// fills together, so no fill is evicted before its read.
struct JitScanPrefetch {
  /// The next occupancy word's record blocks the node prefetch covers: the
  /// last ones that word's charge reaches (the fills the earlier blocks'
  /// charges give the most time), in address order.
  uint64_t next_blocks[pmem::kPrefetchSlots];
  uint32_t num_next = 0;
  /// Fills started by the two most recent property batches, indexed by the
  /// batch number's parity.
  uint32_t prop_fills[2] = {0, 0};
};

/// POD header at the start of JitRuntimeState, read directly by generated
/// code (field offsets are hard-coded in jit/codegen.cc): chunk-table
/// geometry for inline record addressing, the transaction timestamp for the
/// inline MVTO fast-path visibility check, and the PMem latency flag.
struct JitStateHeader {
  char* const* node_chunks = nullptr;
  char* const* rel_chunks = nullptr;
  char* const* prop_chunks = nullptr;
  uint64_t node_num_chunks = 0;
  uint64_t rel_num_chunks = 0;
  uint64_t prop_num_chunks = 0;
  uint64_t ts = 0;             ///< transaction timestamp (id)
  uint64_t read_latency = 0;   ///< nonzero: generated code calls poseidon_touch
  /// Nonzero when the transaction's CancelToken carries a deadline or may be
  /// cancelled (always set today — the token always exists). Generated loops
  /// poll poseidon_should_yield at batch granularity when this is nonzero.
  uint64_t cancellable = 0;
};

/// A resolved record reference living in a stack slot of generated code.
/// `rec` points either at the PMem record (fast path) or at `copy` (version
/// from the DRAM chain / write set, and every entry of the NodeScan queue,
/// whose fast path copies the record too). Property snapshots for
/// non-fast-path versions are kept per-slot in JitRuntimeState.
struct JitHandle {
  const void* rec = nullptr;
  storage::RecordId id = storage::kNullId;
  storage::RecordId props = storage::kNullId;  ///< property chain head
  uint32_t thread = 0;        ///< owning worker (snapshot storage index)
  uint32_t slot = 0;          ///< index into JitRuntimeState::snapshots
  uint32_t has_snapshot = 0;  ///< properties come from the snapshot vector
  alignas(8) char copy[sizeof(storage::RelationshipRecord)];
};

/// Per-execution shared state. One instance serves every morsel of a query
/// run (the same breaker states the interpreter morsels feed — the adaptive
/// engine relies on this).
struct JitRuntimeState {
  JitStateHeader header;  ///< MUST stay the first member (read from IR)

  query::ExecContext ctx;
  query::ResultCollector* collector = nullptr;
  /// Tail/breaker delegate; its ops() are the plan's operators in source..
  /// sink order, which helpers address by operator index.
  query::PipelineExecutor* executor = nullptr;

  /// Per-thread handle storage. The helpers that fill a handle slot's entry
  /// grow these vectors on demand, so an execution pays only for the slots
  /// its code actually fills.
  struct ThreadSlots {
    /// Property snapshots of handles resolved off the DRAM version chain,
    /// indexed by handle slot.
    std::vector<std::vector<storage::Property>> snapshots;
    std::vector<storage::RecordId> index_matches;  ///< index-scan buffer
    /// Adjacency arrays pinned by poseidon_expand_cached, indexed by handle
    /// slot: the shared_ptr keeps the DRAM array alive while generated code
    /// streams it, even if the cache evicts or invalidates the entry.
    std::vector<std::shared_ptr<const tx::AdjacencyList>> adj_holds;
    /// Borrowed pointer to the executor's materialized match list (set by
    /// poseidon_index_matches when available). Sharing it keeps compiled
    /// and interpreted morsels in agreement on match ordering and count
    /// (PipelineExecutor::SourceCardinality drives the morsel split).
    const std::vector<storage::RecordId>* shared_matches = nullptr;
  };
  std::vector<std::unique_ptr<ThreadSlots>> threads;

  Status error;  ///< first helper error (guarded by error_mu)
  std::mutex error_mu;

  void SetError(const Status& s) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (error.ok()) error = s;
  }
};

}  // namespace poseidon::jit

extern "C" {

/// Resolves node `id` to the version visible to the transaction.
/// Returns 1 (visible; slot filled), 0 (skip: free slot / invisible), or
/// -1 (error/abort; see state->error). `thread` and `slot` address the
/// snapshot storage.
int32_t poseidon_node_ref(void* state, uint64_t id, void* slot_ptr,
                          uint32_t thread, uint32_t slot);

/// Like poseidon_node_ref for relationships, but on return the slot's `rec`
/// is ALWAYS usable for reading the chain pointers (next_src/next_dst) so
/// traversals can continue past invisible relationships.
int32_t poseidon_rel_ref(void* state, uint64_t id, void* slot_ptr,
                         uint32_t thread, uint32_t slot);

/// Property lookup against a resolved handle. Returns the PType tag and
/// stores the raw payload in *out (0 tag = null/absent).
uint32_t poseidon_get_prop(void* state, void* slot_ptr, uint32_t key,
                           uint64_t* out);

/// Loads query parameter `idx`; returns the Value kind tag.
uint32_t poseidon_param(void* state, uint32_t idx, uint64_t* out);

/// Generic comparison of two (kind, raw) values under CmpOp `cmp`
/// (handles int/double coercion like the interpreter). Returns 0/1.
int32_t poseidon_compare(uint32_t cmp, uint32_t kind_a, uint64_t raw_a,
                         uint32_t kind_b, uint64_t raw_b);

/// Materializes the matches of the index-scan source operator `op_idx`
/// into the thread's buffer; returns the match count.
uint64_t poseidon_index_matches(void* state, uint32_t op_idx,
                                uint32_t thread);

/// i-th buffered index match of this thread.
uint64_t poseidon_index_match_at(void* state, uint32_t thread, uint64_t i);

/// Injects the emulated PMem read latency for [ptr, ptr+len). Generated
/// code calls this only when JitStateHeader::read_latency is nonzero.
void poseidon_touch(void* state, const void* ptr, uint64_t len);

/// Chunk entry of the compiled NodeScan, before it reads node chunk
/// `chunk`'s occupancy words (storage::ChunkedTable::EnterChunk): a cold
/// chunk of a reopened pool with checksums is verified on this first touch,
/// then the header block is charged. Called with or without read latency.
void poseidon_scan_chunk(void* state, uint64_t chunk);

/// Node-scan read charge for occupancy word `w` (64 slots) of the node
/// table, before phase A reads the records whose slots are set in `bits`:
/// charges the 256 B blocks holding them, in one model read per run of such
/// blocks. With a prefetch cursor `pf` (a JitScanPrefetch; null when the
/// scan does not prefetch), it then starts the fills of up to
/// pmem::kPrefetchSlots blocks holding the occupied records of word w + 1,
/// if that word starts below slot `end` (the morsel end), with one model
/// clock read. The same block-list builder serves the charge and the
/// prefetch. Called only when JitStateHeader::read_latency is nonzero.
void poseidon_scan_touch(void* state, void* pf, uint64_t w, uint64_t bits,
                         uint64_t end);

/// Property-head prefetch for the NodeScan queue (`queue`, a JitHandle
/// array of `queued` entries), called when the consumer reaches entry `at`,
/// a multiple of kScanPropBatch: starts the modeled fills of the blocks
/// holding the property-chain heads of the batch after the next one — of
/// the first two batches when `at` is 0 — so one to two batches are in
/// flight. Each batch prefetches exactly its heads' blocks, deduplicated,
/// in one model call; handles with DRAM snapshot properties or no
/// properties are skipped. Once the last batch of the queue is out, each
/// call also re-issues the node prefetches of `pf` that property fills
/// evicted, in the ring slots no unconsumed property fill holds. Called
/// only when JitStateHeader::read_latency is nonzero.
void poseidon_scan_prefetch_props(void* state, void* pf, const void* queue,
                                  uint64_t at, uint64_t queued);

/// Probes (or lazily builds) the versioned DRAM adjacency cache for
/// (node_id, direction). On success returns the base of a CachedNeighbor
/// array (24-byte stride; see tx/adjacency_cache.h) and stores the entry
/// count in *count_out; the array stays pinned in the thread's `slot` until
/// the next probe reuses that slot. Returns null when the cache cannot
/// serve this transaction (disabled, writer tx, old snapshot, in-flight
/// versions) — generated code then falls back to the inline chain walk.
const void* poseidon_expand_cached(void* state, uint64_t node_id,
                                   uint32_t dir_out, uint32_t thread,
                                   uint32_t slot, uint64_t* count_out);

/// Cooperative-cancellation poll for generated loops (overload governance):
/// checks the transaction's CancelToken. Returns 0 (keep going) or nonzero
/// (stop: kCancelled / kDeadlineExceeded recorded in state->error, the
/// generated code branches to its error exit).
int32_t poseidon_should_yield(void* state);

/// Emits a finished tuple. `tail_idx` < 0 sends it to the collector;
/// otherwise the tuple enters the interpreter pipeline at operator
/// `tail_idx` (pipeline breakers, joins, create/set operators — the AOT
/// tail). Returns 0 (ok), 1 (stop producing) or -1 (error).
int32_t poseidon_emit(void* state, int32_t tail_idx, uint32_t n,
                      const uint64_t* vals, const uint8_t* kinds);

}  // extern "C"

#endif  // POSEIDON_JIT_RUNTIME_H_
