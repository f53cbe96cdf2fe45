// Chunked persistent record table (paper DD1/DD2, Fig. 1).
//
// A table is a linked list of fixed-size chunks allocated in a pmem::Pool.
// Each chunk stores `kRecordsPerChunk` equally-sized records plus an
// occupancy bitmap, is cache-line aligned, and spans a multiple of 256 bytes
// (DG3). Records are addressed by a global slot id
// (`chunk_index * kRecordsPerChunk + slot`) — the paper's 8-byte "array
// offset" (DD2). A persistent chunk directory (the sparse index of Fig. 1)
// maps chunk index -> chunk location; a DRAM mirror of it makes record
// access a single address computation.
//
// Crash safety of mutations:
//   * Insert persists the record payload BEFORE setting its bitmap bit; the
//     bit flip is an 8-byte-atomic store (C4), so a torn insert is invisible.
//   * Delete clears the bit (8-byte atomic); the slot is recycled through a
//     volatile free list rebuilt on open (DG5 — no deallocation).

#ifndef POSEIDON_STORAGE_CHUNKED_TABLE_H_
#define POSEIDON_STORAGE_CHUNKED_TABLE_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <functional>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "pmem/pool.h"
#include "pmem/pptr.h"
#include "storage/scan_options.h"
#include "storage/types.h"
#include "util/status.h"

namespace poseidon::storage {

/// Persistent per-table metadata, allocated in the pool; its offset is the
/// durable handle to the table.
struct TableMeta {
  uint64_t record_size;
  uint64_t records_per_chunk;
  uint64_t num_chunks;
  uint64_t directory;           ///< offset of the chunk-directory array
  uint64_t directory_capacity;  ///< entries in the directory
  uint64_t head_chunk;          ///< first chunk (scan entry point)
  uint64_t tail_chunk;          ///< last chunk (insert fast path)
};

template <typename R, uint64_t kRecordsPerChunk = 512>
class ChunkedTable {
 public:
  static_assert(kRecordsPerChunk % 64 == 0,
                "records-per-chunk must fill whole bitmap words");

  static constexpr uint64_t kBitmapWords = kRecordsPerChunk / 64;
  /// Chunk header: next link + first record id + occupancy bitmap, padded to
  /// a cache line boundary so record 0 is cache-line aligned.
  static constexpr uint64_t kHeaderBytes =
      ((16 + kBitmapWords * 8) + pmem::kCacheLineSize - 1) &
      ~(pmem::kCacheLineSize - 1);
  /// Whole chunk rounded up to the 256 B DCPMM block size (DG3).
  static constexpr uint64_t kChunkBytes =
      ((kHeaderBytes + kRecordsPerChunk * sizeof(R)) + pmem::kPmemBlockSize -
       1) &
      ~(pmem::kPmemBlockSize - 1);

  struct ChunkHeader {
    uint64_t next;      ///< pool offset of the next chunk (0 = end)
    uint64_t first_id;  ///< record id of slot 0 in this chunk
    uint64_t bitmap[kBitmapWords];
  };

  ChunkedTable() = default;
  ChunkedTable(const ChunkedTable&) = delete;
  ChunkedTable& operator=(const ChunkedTable&) = delete;
  ChunkedTable(ChunkedTable&&) = default;
  ChunkedTable& operator=(ChunkedTable&&) = default;

  /// Creates an empty table in `pool`. The returned table's meta_offset() is
  /// the durable handle for reopening.
  static Result<std::unique_ptr<ChunkedTable>> Create(pmem::Pool* pool) {
    auto table = std::make_unique<ChunkedTable>();
    table->pool_ = pool;
    POSEIDON_ASSIGN_OR_RETURN(pmem::Offset meta_off,
                              pool->AllocateZeroed(sizeof(TableMeta)));
    table->meta_off_ = meta_off;
    auto* meta = table->meta();
    PsanStore(pool, &meta->record_size, sizeof(R));
    PsanStore(pool, &meta->records_per_chunk, kRecordsPerChunk);
    PsanStore(pool, &meta->num_chunks, uint64_t{0});
    PsanStore(pool, &meta->directory_capacity, uint64_t{1024});
    POSEIDON_ASSIGN_OR_RETURN(
        pmem::Offset dir,
        pool->AllocateZeroed(meta->directory_capacity * sizeof(uint64_t)));
    PsanPublish(pool, &meta->directory, dir, dir,
                meta->directory_capacity * sizeof(uint64_t));
    PsanStore(pool, &meta->head_chunk, uint64_t{0});
    PsanStore(pool, &meta->tail_chunk, uint64_t{0});
    pool->Persist(meta, sizeof(TableMeta));
    table->ReserveMirror();
    table->SyncMetaMirror();
    return table;
  }

  /// Reopens a table previously created in `pool` at `meta_off`, rebuilding
  /// the volatile chunk-pointer mirror and free list from persistent state.
  static Result<std::unique_ptr<ChunkedTable>> Open(pmem::Pool* pool,
                                                    pmem::Offset meta_off) {
    auto table = std::make_unique<ChunkedTable>();
    table->pool_ = pool;
    table->meta_off_ = meta_off;
    const auto* meta = table->meta();
    if (meta->record_size != sizeof(R) ||
        meta->records_per_chunk != kRecordsPerChunk) {
      return Status::Corruption("table meta does not match record type");
    }
    table->ReserveMirror();
    const auto* dir = pool->ToPtr<uint64_t>(meta->directory);
    for (uint64_t c = 0; c < meta->num_chunks; ++c) {
      table->chunk_ptrs_[c] = pool->ToPtr<char>(dir[c]);
    }
    table->num_chunks_.store(meta->num_chunks, std::memory_order_release);
    // Rebuild the volatile free-slot shards + live count from the bitmaps.
    // The fresh-slot cursor restarts one past the highest occupied slot, so
    // trailing never-used slots are handed out by the (cheaper) fresh path;
    // only holes below the cursor enter the free shards — every hole is
    // still recycled before any fresh slot is touched (DG5).
    uint64_t records = 0;
    uint64_t hwm = 0;  // one past the highest occupied slot
    for (uint64_t c = 0; c < meta->num_chunks; ++c) {
      auto* h = reinterpret_cast<ChunkHeader*>(table->chunk_ptrs_[c]);
      for (uint64_t w = 0; w < kBitmapWords; ++w) {
        uint64_t bits = h->bitmap[w];
        if (bits == 0) continue;
        records += static_cast<uint64_t>(std::popcount(bits));
        hwm = c * kRecordsPerChunk + w * 64 + (64 - std::countl_zero(bits));
      }
    }
    table->num_records_.store(records, std::memory_order_relaxed);
    table->next_fresh_slot_.store(hwm, std::memory_order_relaxed);
    for (uint64_t id = 0; id < hwm; ++id) {
      uint64_t word = reinterpret_cast<ChunkHeader*>(
                          table->chunk_ptrs_[id / kRecordsPerChunk])
                          ->bitmap[(id % kRecordsPerChunk) / 64];
      if ((word >> (id % 64)) & 1) continue;
      table->free_shards_[id % kFreeShards].slots.push_back(id);
    }
    // Within each shard, lowest ids are recycled first (pops from the back).
    for (FreeShard& s : table->free_shards_) {
      std::sort(s.slots.begin(), s.slots.end(), std::greater<RecordId>());
    }
    // A reopened pool may carry media damage the previous session never
    // saw: verify each chunk against its checksum sidecar on first touch.
    table->EnableVerifyOnFirstTouch();
    table->SyncMetaMirror();
    return table;
  }

  pmem::Offset meta_offset() const { return meta_off_; }
  pmem::Pool* pool() const { return pool_; }

  /// Inserts a copy of `record`, persisting payload before visibility.
  /// Reuses a freed slot when one exists (DG5). Returns the new record id.
  ///
  /// Concurrency: slot assignment hands the caller exclusive ownership of
  /// the slot (a popped free-shard entry or a fetch_add'd fresh id), so the
  /// payload store, its flush, and the occupancy-bit publish all run
  /// without any lock; only chunk growth serializes (grow_mu_).
  Result<RecordId> Insert(const R& record) {
    RecordId id;
    if (!TryPopFree(&id)) {
      uint64_t fresh = next_fresh_slot_.fetch_add(1, std::memory_order_relaxed);
      while (fresh >= NumSlots()) {
        std::lock_guard<std::mutex> lock(grow_mu_);
        if (fresh >= NumSlots()) {
          // On failure the reserved id leaks until the next reopen (Open's
          // high-water-mark rebuild reclaims it) — acceptable for an
          // out-of-space path.
          POSEIDON_RETURN_IF_ERROR(AddChunk());
        }
      }
      id = fresh;
    }
    // Cold-chunk first-touch verification (reopened pools only): catch
    // media damage before a record is written next to it.
    MaybeVerifyChunk(id / kRecordsPerChunk);
    char* slot = SlotPtr(id);
    // Word-atomic store: concurrent stable readers (seqlock-style copies)
    // may race a slot being recycled; record structs are 8-byte multiples
    // (PsanStoreCopy falls back to memcpy for odd sizes/alignments).
    PsanStoreCopy(pool_, slot, &record, sizeof(R));
    // The drain is deferred to the inserting transaction's commit: the
    // payload flush is ordered before the occupancy flush below, and
    // both land before the commit marker that makes the record reachable.
    pool_->Flush(slot, sizeof(R));
    SetBit(id, true);
    num_records_.fetch_add(1, std::memory_order_relaxed);
    return id;
  }

  /// Raw slot access without occupancy check (the id must have been
  /// obtained from Insert / a scan). Injects PMem read latency.
  R* At(RecordId id) const {
    char* slot = SlotPtr(id);
    pool_->TouchRead(slot, sizeof(R));
    return reinterpret_cast<R*>(slot);
  }

  /// Like At() but without the read-latency injection; used on write paths
  /// that immediately overwrite the record.
  R* AtForWrite(RecordId id) const { return reinterpret_cast<R*>(SlotPtr(id)); }

  bool IsOccupied(RecordId id) const {
    if (id == kNullId) return false;
    uint64_t chunk = id / kRecordsPerChunk;
    if (chunk >= num_chunks_.load(std::memory_order_acquire)) return false;
    uint64_t slot = id % kRecordsPerChunk;
    const auto* h = reinterpret_cast<const ChunkHeader*>(chunk_ptrs_[chunk]);
    uint64_t word = std::atomic_ref<const uint64_t>(h->bitmap[slot / 64])
                        .load(std::memory_order_acquire);
    return (word >> (slot % 64)) & 1;
  }

  /// At() guarded by the occupancy bitmap; nullptr for free slots.
  R* AtOccupied(RecordId id) const {
    if (!IsOccupied(id)) return nullptr;
    return At(id);
  }

  /// True when `id`'s slot bytes overlap a media-fault quarantined line.
  /// Valid for free (e.g. tombstoned) slots too; one relaxed load when the
  /// pool has no quarantined lines.
  bool IsQuarantined(RecordId id) const {
    if (pool_ == nullptr || id == kNullId ||
        id / kRecordsPerChunk >= num_chunks_.load(std::memory_order_acquire)) {
      return false;
    }
    return pool_->IsQuarantinedRange(SlotPtr(id), sizeof(R));
  }

  /// Marks the slot free (8-byte-atomic bitmap clear) and recycles it
  /// through the id-sharded free lists. The atomic fetch_and doubles as the
  /// occupancy test, so two racing Deletes of the same id resolve to one
  /// winner and one NotFound.
  Status Delete(RecordId id) {
    if (id == kNullId ||
        id / kRecordsPerChunk >= num_chunks_.load(std::memory_order_acquire)) {
      return Status::NotFound("record slot not occupied");
    }
    if (!ClearBit(id)) return Status::NotFound("record slot not occupied");
    FreeShard& shard = free_shards_[id % kFreeShards];
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.slots.push_back(id);
    }
    num_records_.fetch_sub(1, std::memory_order_relaxed);
    return Status::Ok();
  }

  /// Number of live records.
  uint64_t size() const { return num_records_.load(std::memory_order_relaxed); }

  /// Upper bound of record ids; scans iterate [0, NumSlots()).
  uint64_t NumSlots() const {
    return num_chunks_.load(std::memory_order_acquire) * kRecordsPerChunk;
  }

  uint64_t num_chunks() const {
    return num_chunks_.load(std::memory_order_acquire);
  }

  /// Stable pointer to the DRAM chunk-pointer mirror (pre-sized at
  /// create/open; never reallocated). The JIT runtime hands this to
  /// generated code for direct record addressing.
  char* const* chunk_ptr_array() const { return chunk_ptrs_.data(); }

  /// What a scan does on entering chunk `chunk` (below num_chunks()),
  /// before it reads the chunk's occupancy words: a reopened pool with
  /// checksums verifies the chunk on its first touch, then the header block
  /// is charged. ScanBatch and the compiled NodeScan both call it.
  void EnterChunk(uint64_t chunk) const {
    MaybeVerifyChunk(chunk);
    pool_->TouchRead(chunk_ptrs_[chunk], kHeaderBytes);
  }

  /// Invokes f(id, record&) for every occupied slot (single-threaded scan).
  template <typename F>
  void ForEach(F&& f) const {
    uint64_t slots = NumSlots();
    for (RecordId id = 0; id < slots; ++id) {
      if (R* r = AtOccupied(id)) f(id, *r);
    }
  }

  /// Issues a software prefetch for the record slot (hardware prefetch plus
  /// a modeled in-flight PMem fill). Safe on any id below NumSlots();
  /// adjacency walks use it to fetch the next record of an offset chain
  /// while the current one is processed.
  void Prefetch(RecordId id) const {
    if (id == kNullId) return;
    if (id / kRecordsPerChunk >= num_chunks_.load(std::memory_order_acquire))
      return;
    pool_->TouchPrefetch(SlotPtr(id), sizeof(R));
  }

  /// Batched occupancy scan: fills `ids` with up to `cap` occupied slot ids
  /// from [*cursor, min(end, NumSlots())), skipping whole empty 64-bit
  /// occupancy words via countr_zero and prefetching the next chunk header
  /// while the current chunk's bitmap is consumed. Advances *cursor past the
  /// last examined slot; returns the number of ids emitted (0 = range
  /// exhausted). Bitmap words are probed with acquire loads, and each chunk
  /// header block is charged once per entry into the chunk; record payloads
  /// are NOT touched here — consumers pair At() with Prefetch() to overlap
  /// the PMem read latency (see ForEachBatch). Point accesses (IsOccupied)
  /// leave the header uncharged: the few KB of headers would sit in CPU
  /// caches on real hardware, while a scan streams them.
  uint64_t ScanBatch(RecordId* cursor, RecordId end, const ScanOptions& opts,
                     RecordId* ids, uint64_t cap) const {
    uint64_t slots = NumSlots();
    if (end > slots) end = slots;
    RecordId id = *cursor;
    uint64_t count = 0;
    uint64_t cur_chunk = ~0ull;
    while (id < end && count < cap) {
      uint64_t chunk = id / kRecordsPerChunk;
      if (chunk != cur_chunk) {
        cur_chunk = chunk;
        // The occupancy words below are PMem reads too: the header block
        // is charged once per chunk entry.
        EnterChunk(chunk);
        uint64_t next_chunk = chunk + 1;
        if (opts.prefetch_distance != 0 &&
            next_chunk * kRecordsPerChunk < end) {
          // Chunks never shrink, so next_chunk's mirror entry is valid.
          pool_->TouchPrefetch(chunk_ptrs_[next_chunk], kHeaderBytes);
        }
      }
      uint64_t slot = id % kRecordsPerChunk;
      const auto* h = reinterpret_cast<const ChunkHeader*>(chunk_ptrs_[chunk]);
      uint64_t bits = std::atomic_ref<const uint64_t>(h->bitmap[slot / 64])
                          .load(std::memory_order_acquire);
      bits &= ~0ull << (slot % 64);  // drop slots below the cursor
      RecordId word_base = id - (slot % 64);
      if (bits == 0) {  // whole-word skip: 64 slots in one test
        id = word_base + 64;
        continue;
      }
      while (bits != 0) {
        RecordId hit = word_base + std::countr_zero(bits);
        if (hit >= end) {
          bits = 0;
          break;
        }
        ids[count++] = hit;
        bits &= bits - 1;
        if (count == cap) {
          *cursor = hit + 1;
          return count;
        }
      }
      id = word_base + 64;
    }
    *cursor = id < end ? id : end;
    return count;
  }

  /// Invokes f(id, record&) for every occupied slot in [begin, end) using
  /// the batch kernel: gather a batch of ids from the bitmap, then consume
  /// it software-pipelined — prefetch the record `prefetch_distance` ahead,
  /// touch/process the current one — so the modeled PMem fill of slot
  /// i+distance overlaps the processing of slot i.
  template <typename F>
  void ForEachBatchRange(RecordId begin, RecordId end, const ScanOptions& opts,
                         F&& f) const {
    uint64_t cap = opts.batch_size == 0 ? 1 : opts.batch_size;
    std::vector<RecordId> ids(cap);
    RecordId cursor = begin;
    uint64_t d = opts.prefetch_distance;
    for (;;) {
      uint64_t n = ScanBatch(&cursor, end, opts, ids.data(), cap);
      if (n == 0) return;
      for (uint64_t i = 0; i < n; ++i) {
        if (d != 0 && i + d < n) {
          pool_->TouchPrefetch(SlotPtr(ids[i + d]), sizeof(R));
        }
        f(ids[i], *At(ids[i]));
      }
    }
  }

  /// ForEach through the batch kernels (whole table).
  template <typename F>
  void ForEachBatch(F&& f, const ScanOptions& opts = ScanOptions{}) const {
    ForEachBatchRange(0, NumSlots(), opts, std::forward<F>(f));
  }

  // --- Integrity repair (media-fault tolerance) -------------------------
  //
  // GraphStore's corruption handler dispatches a corrupt 64 B line here.
  // Chunk headers and the directory are re-derivable from the DRAM mirror
  // (with the documented exception of occupancy bitmap words, which are
  // adopted as-is); record slots are the caller's problem — it decides
  // between rewrite (version store), adopt (free slot) and tombstone.

  enum class LineKind { kNone, kMeta, kDirectory, kHeader, kRecords };

  struct LineOwner {
    LineKind kind = LineKind::kNone;
    uint64_t chunk = 0;       ///< kHeader / kRecords
    RecordId first_id = 0;    ///< kRecords: slots overlapping the line
    RecordId last_id = 0;     ///< inclusive
  };

  /// Classifies the line starting at pool offset `line_off`.
  LineOwner OwnerOfLine(pmem::Offset line_off) const {
    LineOwner owner;
    if (line_off >= meta_off_ && line_off < meta_off_ + sizeof(TableMeta)) {
      owner.kind = LineKind::kMeta;
      return owner;
    }
    const auto* m = meta();
    if (line_off >= m->directory &&
        line_off < m->directory + m->directory_capacity * sizeof(uint64_t)) {
      owner.kind = LineKind::kDirectory;
      return owner;
    }
    uint64_t n = num_chunks_.load(std::memory_order_acquire);
    for (uint64_t c = 0; c < n; ++c) {
      pmem::Offset chunk_off = pool_->ToOffset(chunk_ptrs_[c]);
      if (line_off < chunk_off || line_off >= chunk_off + kChunkBytes) {
        continue;
      }
      owner.chunk = c;
      if (line_off < chunk_off + kHeaderBytes) {
        owner.kind = LineKind::kHeader;
        return owner;
      }
      uint64_t rel = line_off - chunk_off - kHeaderBytes;
      uint64_t first_slot = rel / sizeof(R);
      uint64_t last_slot = (rel + pmem::kCacheLineSize - 1) / sizeof(R);
      if (first_slot >= kRecordsPerChunk) break;  // tail padding
      last_slot = std::min(last_slot, kRecordsPerChunk - 1);
      owner.kind = LineKind::kRecords;
      owner.first_id = c * kRecordsPerChunk + first_slot;
      owner.last_id = c * kRecordsPerChunk + last_slot;
      return owner;
    }
    return owner;
  }

  /// Rebuilds a corrupt chunk-header line from the DRAM mirror: next link
  /// and first_id are fully re-derivable; occupancy bitmap words are NOT
  /// (they are the only authority on slot liveness) and keep whatever the
  /// durable image holds.
  void RepairHeaderLine(uint64_t chunk) {
    uint64_t n = num_chunks_.load(std::memory_order_acquire);
    uint64_t fields[2];
    fields[0] = chunk + 1 < n ? pool_->ToOffset(chunk_ptrs_[chunk + 1]) : 0;
    fields[1] = chunk * kRecordsPerChunk;
    pool_->RepairStore(pool_->ToOffset(chunk_ptrs_[chunk]), fields,
                       sizeof(fields));
  }

  /// Rewrites the whole table-meta block from the DRAM mirror (refreshed
  /// under grow_mu_ at every growth step — the only time TableMeta changes).
  void RepairMetaLine() {
    std::lock_guard<std::mutex> lock(grow_mu_);
    pool_->RepairStore(meta_off_, &meta_mirror_, sizeof(TableMeta));
  }

  /// Rewrites the directory entries covered by the corrupt line from the
  /// DRAM chunk-pointer mirror.
  void RepairDirectoryLine(pmem::Offset line_off) {
    const auto* m = meta();
    if (m->directory == 0 || line_off < m->directory ||
        m->directory + m->directory_capacity * sizeof(uint64_t) >
            pool_->capacity()) {
      return;  // meta itself is damaged; its own repair must run first
    }
    uint64_t first = (line_off - m->directory) / sizeof(uint64_t);
    uint64_t count = std::min<uint64_t>(
        pmem::kCacheLineSize / sizeof(uint64_t), m->directory_capacity - first);
    uint64_t n = num_chunks_.load(std::memory_order_acquire);
    uint64_t entries[pmem::kCacheLineSize / sizeof(uint64_t)] = {};
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t c = first + i;
      entries[i] = c < n ? pool_->ToOffset(chunk_ptrs_[c]) : 0;
    }
    pool_->RepairStore(m->directory + first * sizeof(uint64_t), entries,
                       count * sizeof(uint64_t));
  }

  /// Rewrites an (occupied) slot in place from a redundant copy.
  void RewriteRecord(RecordId id, const R& record) {
    pool_->RepairStore(pool_->ToOffset(SlotPtr(id)), &record, sizeof(R));
  }

  /// Marks an unrepairable slot dead: clears the occupancy bit (scans skip
  /// it) WITHOUT recycling it through the free shards — the slot stays
  /// quarantined for this session so point reads keep reporting
  /// Status::Corruption instead of serving a recycled stranger. Returns
  /// false when the bit was already clear.
  bool Tombstone(RecordId id) {
    if (id == kNullId ||
        id / kRecordsPerChunk >= num_chunks_.load(std::memory_order_acquire)) {
      return false;
    }
    if (!ClearBit(id)) return false;
    num_records_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  /// Arms cold-chunk first-touch verification (no-op unless the pool
  /// maintains checksums). Open() arms it automatically; Create()d tables
  /// skip it — every line they own was written by this session.
  void EnableVerifyOnFirstTouch() {
    if (pool_ == nullptr || !pool_->checksums_enabled()) return;
    verified_chunks_ =
        std::make_unique<std::atomic<uint8_t>[]>(chunk_ptrs_.size());
    verify_touch_.store(true, std::memory_order_release);
  }

 private:
  /// First touch of a chunk after reopen: verify it against the sidecar
  /// before serving records from it. One-shot per chunk (atomic flag).
  void MaybeVerifyChunk(uint64_t chunk) const {
    if (!verify_touch_.load(std::memory_order_acquire)) return;
    if (chunk >= num_chunks_.load(std::memory_order_acquire)) return;
    if (verified_chunks_[chunk].load(std::memory_order_relaxed) != 0) return;
    if (verified_chunks_[chunk].exchange(1, std::memory_order_acq_rel) != 0) {
      return;
    }
    pool_->VerifyAndRepairRange(pool_->ToOffset(chunk_ptrs_[chunk]),
                                kChunkBytes);
  }
  TableMeta* meta() const { return pool_->ToPtr<TableMeta>(meta_off_); }

  void ReserveMirror() {
    uint64_t max_chunks = pool_->capacity() / kChunkBytes + 2;
    chunk_ptrs_.assign(max_chunks, nullptr);
  }

  char* SlotPtr(RecordId id) const {
    uint64_t chunk = id / kRecordsPerChunk;
    uint64_t slot = id % kRecordsPerChunk;
    return chunk_ptrs_[chunk] + kHeaderBytes + slot * sizeof(R);
  }

  uint64_t& BitmapWord(RecordId id) const {
    auto* h = reinterpret_cast<ChunkHeader*>(chunk_ptrs_[id / kRecordsPerChunk]);
    return h->bitmap[(id % kRecordsPerChunk) / 64];
  }

  /// Atomic read-modify-write bit flips: concurrent inserters/deleters of
  /// different slots share bitmap words, so plain load/store pairs would
  /// lose updates.
  void SetBit(RecordId id, bool value) {
    uint64_t& word = BitmapWord(id);
    uint64_t mask = 1ull << (id % 64);
    if (value) {
      std::atomic_ref<uint64_t>(word).fetch_or(mask, std::memory_order_release);
    } else {
      std::atomic_ref<uint64_t>(word).fetch_and(~mask,
                                                std::memory_order_release);
    }
    PsanMarkRange(pool_, &word, sizeof(word));
    pool_->Flush(&word, sizeof(word));
  }

  /// Clears the occupancy bit; returns false when it was already clear.
  bool ClearBit(RecordId id) {
    uint64_t& word = BitmapWord(id);
    uint64_t mask = 1ull << (id % 64);
    uint64_t old = std::atomic_ref<uint64_t>(word).fetch_and(
        ~mask, std::memory_order_acq_rel);
    if ((old & mask) == 0) return false;
    PsanMarkRange(pool_, &word, sizeof(word));
    pool_->Flush(&word, sizeof(word));
    return true;
  }

  /// Pops a recycled slot, preferring the current thread's shard and
  /// stealing round-robin from the others; false when every shard is empty.
  bool TryPopFree(RecordId* out) {
    size_t start =
        std::hash<std::thread::id>{}(std::this_thread::get_id()) % kFreeShards;
    for (size_t i = 0; i < kFreeShards; ++i) {
      FreeShard& s = free_shards_[(start + i) % kFreeShards];
      std::lock_guard<std::mutex> lock(s.mu);
      if (!s.slots.empty()) {
        *out = s.slots.back();
        s.slots.pop_back();
        return true;
      }
    }
    return false;
  }

  /// Appends a zeroed chunk: chunk persisted first, then directory entry,
  /// then the chunk count (so a crash mid-append just leaks the chunk).
  Status AddChunk() {
    auto* m = meta();
    uint64_t n = m->num_chunks;
    if (n >= m->directory_capacity) {
      POSEIDON_RETURN_IF_ERROR(GrowDirectory());
      m = meta();
    }
    POSEIDON_ASSIGN_OR_RETURN(
        pmem::Offset chunk_off,
        pool_->AllocateZeroed(kChunkBytes, pmem::kPmemBlockSize));
    auto* h = pool_->ToPtr<ChunkHeader>(chunk_off);
    PsanStore(pool_, &h->next, uint64_t{0});
    PsanStore(pool_, &h->first_id, n * kRecordsPerChunk);
    pool_->Persist(h, sizeof(ChunkHeader));

    auto* dir = pool_->ToPtr<uint64_t>(m->directory);
    // Directory entry publishes the chunk: its header must be durable first.
    PsanPublish(pool_, &dir[n], chunk_off, chunk_off, kHeaderBytes);
    pool_->Persist(&dir[n], sizeof(uint64_t));

    if (n == 0) {
      PsanPublish(pool_, &m->head_chunk, chunk_off, chunk_off, kHeaderBytes);
    } else {
      auto* tail = pool_->ToPtr<ChunkHeader>(m->tail_chunk);
      PsanPublish(pool_, &tail->next, chunk_off, chunk_off, kHeaderBytes);
      pool_->Persist(&tail->next, sizeof(uint64_t));
    }
    PsanStore(pool_, &m->tail_chunk, chunk_off);
    PsanPublish(pool_, &m->num_chunks, n + 1, chunk_off, kHeaderBytes);
    pool_->Persist(m, sizeof(TableMeta));

    chunk_ptrs_[n] = pool_->ToPtr<char>(chunk_off);
    num_chunks_.store(n + 1, std::memory_order_release);
    SyncMetaMirror();
    return Status::Ok();
  }

  /// Refreshes the DRAM TableMeta mirror from the (just persisted) pool
  /// copy. Called wherever TableMeta mutates — create/open and chunk/
  /// directory growth, all serialized by grow_mu_ or single-threaded setup.
  void SyncMetaMirror() { std::memcpy(&meta_mirror_, meta(), sizeof(TableMeta)); }

  Status GrowDirectory() {
    auto* m = meta();
    uint64_t new_cap = m->directory_capacity * 2;
    POSEIDON_ASSIGN_OR_RETURN(
        pmem::Offset new_dir, pool_->AllocateZeroed(new_cap * sizeof(uint64_t)));
    std::memcpy(pool_->ToPtr<void>(new_dir), pool_->ToPtr<void>(m->directory),
                m->num_chunks * sizeof(uint64_t));
    PsanMarkRange(pool_, pool_->ToPtr<void>(new_dir),
                  new_cap * sizeof(uint64_t));
    pool_->Persist(pool_->ToPtr<void>(new_dir), new_cap * sizeof(uint64_t));
    // 8-byte atomic switch; the old directory block is recycled.
    pmem::Offset old_dir = m->directory;
    uint64_t old_cap = m->directory_capacity;
    PsanPublish(pool_, &m->directory, new_dir, new_dir,
                new_cap * sizeof(uint64_t));
    pool_->Persist(&m->directory, sizeof(uint64_t));
    PsanStore(pool_, &m->directory_capacity, new_cap);
    pool_->Persist(&m->directory_capacity, sizeof(uint64_t));
    pool_->Free(old_dir, old_cap * sizeof(uint64_t));
    SyncMetaMirror();
    return Status::Ok();
  }

  pmem::Pool* pool_ = nullptr;
  pmem::Offset meta_off_ = 0;
  /// DRAM copy of the persistent TableMeta (media-fault repair source).
  TableMeta meta_mirror_{};

  // Volatile mirror (rebuilt on Open): direct chunk pointers indexed by
  // chunk number, lock-free for readers (slots are published before
  // num_chunks_ is advanced).
  std::vector<char*> chunk_ptrs_;
  std::atomic<uint64_t> num_chunks_{0};

  // Slot assignment is sharded so concurrent inserters/deleters stop
  // funnelling through one table mutex: recycled slots live in
  // id-partitioned free shards (cache-line padded), fresh slots come from
  // an atomic cursor, and only chunk growth takes grow_mu_.
  static constexpr size_t kFreeShards = 8;
  struct alignas(64) FreeShard {
    std::mutex mu;
    std::vector<RecordId> slots;
  };
  FreeShard free_shards_[kFreeShards];
  std::mutex grow_mu_;  // serializes AddChunk / GrowDirectory
  std::atomic<uint64_t> next_fresh_slot_{0};
  std::atomic<uint64_t> num_records_{0};

  // Cold-chunk first-touch verification (armed by Open on checksummed
  // pools): one byte per mirror slot, flipped once per chunk.
  std::atomic<bool> verify_touch_{false};
  mutable std::unique_ptr<std::atomic<uint8_t>[]> verified_chunks_;
};

}  // namespace poseidon::storage

#endif  // POSEIDON_STORAGE_CHUNKED_TABLE_H_
