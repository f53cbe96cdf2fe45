#include "storage/graph_store.h"

#include <atomic>

#include "pmem/pptr.h"

namespace poseidon::storage {

Result<std::unique_ptr<GraphStore>> GraphStore::Create(pmem::Pool* pool) {
  if (pool->root() != pmem::kNullOffset) {
    return Status::AlreadyExists("pool already contains a graph root");
  }
  auto store = std::unique_ptr<GraphStore>(new GraphStore());
  store->pool_ = pool;
  POSEIDON_ASSIGN_OR_RETURN(store->root_off_,
                            pool->AllocateZeroed(sizeof(GraphRoot)));
  POSEIDON_ASSIGN_OR_RETURN(store->nodes_, NodeTable::Create(pool));
  POSEIDON_ASSIGN_OR_RETURN(store->rels_, RelationshipTable::Create(pool));
  POSEIDON_ASSIGN_OR_RETURN(store->prop_table_, PropertyTable::Create(pool));
  POSEIDON_ASSIGN_OR_RETURN(store->dict_, Dictionary::Create(pool));
  store->prop_store_ = std::make_unique<PropertyStore>(store->prop_table_.get());

  auto* root = store->root();
  PsanStore(pool, &root->node_meta, store->nodes_->meta_offset());
  PsanStore(pool, &root->rel_meta, store->rels_->meta_offset());
  PsanStore(pool, &root->prop_meta, store->prop_table_->meta_offset());
  PsanStore(pool, &root->dict_meta, store->dict_->meta_offset());
  PsanStore(pool, &root->qcache_meta, pmem::Offset{0});
  PsanStore(pool, &root->index_dir, pmem::Offset{0});
  PsanStore(pool, &root->next_timestamp, Timestamp{1});
  pool->Persist(root, sizeof(GraphRoot));
  pool->set_root(store->root_off_);
  return store;
}

Result<std::unique_ptr<GraphStore>> GraphStore::Open(pmem::Pool* pool) {
  if (pool->root() == pmem::kNullOffset) {
    return Status::NotFound("pool has no graph root");
  }
  auto store = std::unique_ptr<GraphStore>(new GraphStore());
  store->pool_ = pool;
  store->root_off_ = pool->root();
  const auto* root = store->root();
  POSEIDON_ASSIGN_OR_RETURN(store->nodes_,
                            NodeTable::Open(pool, root->node_meta));
  POSEIDON_ASSIGN_OR_RETURN(store->rels_,
                            RelationshipTable::Open(pool, root->rel_meta));
  POSEIDON_ASSIGN_OR_RETURN(store->prop_table_,
                            PropertyTable::Open(pool, root->prop_meta));
  POSEIDON_ASSIGN_OR_RETURN(store->dict_,
                            Dictionary::Open(pool, root->dict_meta));
  store->prop_store_ = std::make_unique<PropertyStore>(store->prop_table_.get());
  return store;
}

template <typename R, uint64_t N, typename Resurrect>
pmem::Pool::RepairOutcome GraphStore::RepairRecordLine(
    ChunkedTable<R, N>* table, const typename ChunkedTable<R, N>::LineOwner& owner,
    const Resurrect& resurrect) {
  using Outcome = pmem::Pool::RepairOutcome;
  bool any_lost = false;
  bool any_rewritten = false;
  for (RecordId id = owner.first_id; id <= owner.last_id; ++id) {
    if (!table->IsOccupied(id)) continue;  // free slot: content is dead bytes
    R fresh;
    if (resurrect && resurrect(id, &fresh)) {
      table->RewriteRecord(id, fresh);
      any_rewritten = true;
    } else {
      // No redundant copy: drop the slot from the bitmap but keep it
      // quarantined so point reads degrade to Corruption, not garbage.
      table->Tombstone(id);
      any_lost = true;
    }
  }
  if (any_lost) return Outcome::kUnrepairable;
  return any_rewritten ? Outcome::kRepaired : Outcome::kAdopted;
}

std::optional<pmem::Pool::RepairOutcome> GraphStore::RepairLine(
    pmem::Offset line_off) {
  using Outcome = pmem::Pool::RepairOutcome;

  auto dispatch = [&](auto* table,
                      const auto& resurrect) -> std::optional<Outcome> {
    auto owner = table->OwnerOfLine(line_off);
    using Kind = typename std::decay_t<decltype(*table)>::LineKind;
    switch (owner.kind) {
      case Kind::kNone:
        return std::nullopt;
      case Kind::kMeta:
        // TableMeta is mirrored in DRAM (refreshed at every growth step):
        // rewrite the whole block so the directory pointer and chunk count
        // never dangle.
        table->RepairMetaLine();
        return Outcome::kRepaired;
      case Kind::kDirectory:
        table->RepairDirectoryLine(line_off);
        return Outcome::kRepaired;
      case Kind::kHeader:
        // Only the first header line carries re-derivable fields (next,
        // first_id); the rest is occupancy bitmap, the sole authority on
        // slot liveness, and is adopted as-is.
        table->RepairHeaderLine(owner.chunk);
        return Outcome::kAdopted;
      case Kind::kRecords:
        return RepairRecordLine(table, owner, resurrect);
    }
    return std::nullopt;
  };

  if (auto r = dispatch(nodes_.get(), node_resurrect_)) return r;
  if (auto r = dispatch(rels_.get(), rel_resurrect_)) return r;
  // Property chains are immutable and their old versions are GC'd: no
  // redundant copy exists, so corrupt slots are tombstoned and chain walks
  // degrade via PropertyStore::CheckChain.
  static const std::function<bool(RecordId, PropertyRecord*)> kNoResurrect{};
  if (auto r = dispatch(prop_table_.get(), kNoResurrect)) return r;
  if (dict_->OwnsLine(line_off)) return dict_->RepairLine(line_off);
  if (line_off >= root_off_ && line_off < root_off_ + sizeof(GraphRoot)) {
    // The root directory's qcache/index/timestamp fields have no redundant
    // source.
    return Outcome::kUnrepairable;
  }
  return std::nullopt;
}

void GraphStore::PersistTimestamp(Timestamp ts) {
  // CAS-max: concurrent committers race to advance the high-water mark.
  auto* root = this->root();
  std::atomic_ref<Timestamp> hwm(root->next_timestamp);
  Timestamp cur = hwm.load(std::memory_order_relaxed);
  while (cur < ts) {
    if (hwm.compare_exchange_weak(cur, ts, std::memory_order_acq_rel)) {
      // Flush only — the committing transaction's redo drain
      // orders it before the commit marker, so no durable bts can ever
      // exceed a durable next_timestamp. The CAS itself cannot route
      // through PsanStore, so mark the store after the fact.
      PsanMarkRange(pool_, &root->next_timestamp, sizeof(Timestamp));
      pool_->Flush(&root->next_timestamp, sizeof(Timestamp));
      return;
    }
  }
}

}  // namespace poseidon::storage
