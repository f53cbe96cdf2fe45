#include "tx/transaction.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "pmem/pptr.h"
#include "util/backoff.h"
#include "util/env.h"

namespace poseidon::tx {

using storage::DictCode;
using storage::kInfinityTs;
using storage::kNullId;
using storage::kUnlocked;
using storage::NodeRecord;
using storage::Property;
using storage::PVal;
using storage::RecordId;
using storage::RelationshipRecord;
using storage::Timestamp;

namespace {

std::atomic_ref<Timestamp> AtomicTs(Timestamp& field) {
  return std::atomic_ref<Timestamp>(field);
}

/// Replaces or appends `key` in a property list.
void UpsertProp(std::vector<Property>* props, DictCode key, PVal value) {
  for (auto& p : *props) {
    if (p.key == key) {
      p.value = value;
      return;
    }
  }
  props->push_back(Property{key, value});
}

PVal FindProp(const std::vector<Property>& props, DictCode key) {
  for (const auto& p : props) {
    if (p.key == key) return p.value;
  }
  return PVal::Null();
}

using poseidon::util::EnvInt;

}  // namespace

// --- Transaction: lifecycle --------------------------------------------------

Transaction::Transaction(TransactionManager* mgr, Timestamp ts)
    : mgr_(mgr), store_(mgr->store()), id_(ts) {
  // Arm the default cooperative deadline (POSEIDON_QUERY_DEADLINE_MS;
  // 0 = none). Per-query overrides re-arm the token after Begin.
  int64_t deadline_ms = mgr->default_deadline_ms();
  if (deadline_ms > 0) cancel_.SetDeadlineAfterMs(deadline_ms);
}

AbortCause Transaction::CauseFromStatus(const Status& s) {
  switch (s.code()) {
    case StatusCode::kDeadlineExceeded:
      return AbortCause::kDeadline;
    case StatusCode::kCancelled:
      return AbortCause::kCancelled;
    case StatusCode::kResourceExhausted:
      return AbortCause::kSpace;
    default:
      return AbortCause::kConflict;
  }
}

Transaction::~Transaction() {
  if (!finished_) Abort();
}

// --- Stable reads -------------------------------------------------------------

template <typename Table, typename R>
Status Transaction::ReadStable(const Table& table, RecordId id, R* out) {
  // Bounded exponential backoff instead of the seed's tight 1024-iteration
  // spin: under commit contention the reader yields the cache line instead
  // of ping-ponging it, and exhaustion is an Aborted (retryable by the
  // client) rather than an engine-internal error.
  util::Backoff backoff(mgr_->read_backoff_);
  do {
    R* rec = table.At(id);
    Timestamp txn = AtomicTs(rec->tx.txn_id).load(std::memory_order_acquire);
    if (txn != kUnlocked && txn != id_) {
      if (AtomicTs(rec->tx.bts).load(std::memory_order_acquire) == 0) {
        // A locked record that was never committed is another transaction's
        // in-flight insert: simply invisible, no conflict (paper §5.1).
        return Status::NotFound("record not yet committed");
      }
      // Paper §5.1: a lock held by another transaction aborts the reader.
      return Status::Aborted("record locked by transaction " +
                             std::to_string(txn));
    }
    // Word-atomic copy: a concurrent commit applies with 8-byte atomic
    // stores, so the racing copy is data-race-free; the seqlock check below
    // rejects torn logical content.
    pmem::AtomicLoadCopy(out, rec, sizeof(R));
    std::atomic_thread_fence(std::memory_order_acquire);
    Timestamp txn2 = AtomicTs(rec->tx.txn_id).load(std::memory_order_acquire);
    Timestamp bts2 = AtomicTs(rec->tx.bts).load(std::memory_order_acquire);
    if (txn2 == txn && bts2 == out->tx.bts) return Status::Ok();
    // A concurrent commit raced our copy; retry against the new state.
    mgr_->read_retries_.fetch_add(1, std::memory_order_relaxed);
  } while (backoff.Next());
  mgr_->retry_exhausted_.fetch_add(1, std::memory_order_relaxed);
  return Status::Aborted("record would not stabilize after " +
                         std::to_string(backoff.attempts()) + " attempts");
}

template <typename R>
bool Transaction::BumpRts(R* rec) {
  auto rts = AtomicTs(rec->tx.rts);
  Timestamp cur = rts.load(std::memory_order_relaxed);
  while (cur < id_) {
    // Unflushed on purpose: rts is re-initializable after a crash (§5.1).
    if (rts.compare_exchange_weak(cur, id_, std::memory_order_acq_rel)) break;
  }
  return true;
}

template <typename R, typename Table, typename Chains, typename WriteMap>
Result<Resolved<R>> Transaction::GetRecord(const Table& table,
                                           const Chains& chains,
                                           const WriteMap& writes, RecordId id,
                                           bool is_node) {
  (void)is_node;
  // One named return object shared by every branch: separate locals per
  // branch defeat NRVO, and the resulting Resolved move + vector teardown
  // per read shows up on the snapshot fast path (which does little else).
  Resolved<R> r;
  auto it = writes.find(id);
  if (it != writes.end()) {
    const auto& w = it->second;
    if (w.deleted) return Status::NotFound("record deleted in this tx");
    r.rec = w.rec;
    r.from_snapshot = true;
    r.snapshot = w.props;
    return r;
  }
  if (id == kNullId || !table.IsOccupied(id)) {
    // A tombstoned slot (bitmap cleared by the repair pipeline, line still
    // quarantined) must report loss, not absence.
    if (table.IsQuarantined(id)) {
      return Status::Corruption("record lost to an unrepairable media fault");
    }
    return Status::NotFound("record does not exist");
  }
  if (table.IsQuarantined(id)) {
    return Status::Corruption("record quarantined by media fault");
  }
  util::Backoff backoff(mgr_->visibility_backoff_);
  do {
    R copy;
    POSEIDON_RETURN_IF_ERROR(ReadStable(table, id, &copy));
    if (copy.tx.bts == 0) {
      // Uncommitted insert of another transaction: invisible.
      return Status::NotFound("record not yet committed");
    }
    if (copy.tx.bts <= id_) {
      if (id_ >= copy.tx.ets) {
        return Status::NotFound("record deleted before this tx");
      }
      const bool coalesce =
          mgr_->rts_coalesce_.load(std::memory_order_relaxed);
      if (snapshot_ && coalesce) {
        // Shared-snapshot read: no active or future writer has an id <= our
        // published timestamp (invariant of MaybeRefreshSnapshot), so no
        // writer admission check can ever probe rts against a value below
        // it — the bump, and the revalidation that protects it, are dead
        // weight. Serving the validated copy directly leaves the record's
        // cache line untouched. Counted per transaction (morsel workers
        // share the tx, hence atomic; relaxed) and flushed at Finish: a
        // manager-wide atomic here would concentrate every reader on one
        // counter cache line — hotter than the per-record rts CAS traffic
        // this path exists to avoid.
        rts_deferred_.fetch_add(1, std::memory_order_relaxed);
        r.rec = copy;
        return r;
      }
      if (coalesce && copy.tx.rts >= id_) {
        // Coalesced fast path: the validated copy already carries
        // rts >= id_. rts is a CAS-max (monotone), so every future
        // admission check by a writer older than us sees rts >= id_ and
        // aborts exactly as if we had bumped; a writer that passed its
        // check before our copy either committed first (we saw its bts) or
        // still held the lock during the copy (ReadStable rejected it).
        // Skipping the CAS also skips the revalidation it protects.
        rts_skipped_.fetch_add(1, std::memory_order_relaxed);
        r.rec = copy;
        return r;
      }
      // Latest committed version is visible: bump rts, then re-validate
      // that no writer slipped in between visibility check and rts bump.
      R* rec = table.AtForWrite(id);
      BumpRts(rec);
      Timestamp txn2 =
          AtomicTs(rec->tx.txn_id).load(std::memory_order_acquire);
      Timestamp bts2 = AtomicTs(rec->tx.bts).load(std::memory_order_acquire);
      if (txn2 != kUnlocked || bts2 != copy.tx.bts) {
        // A writer slipped in between visibility check and rts bump.
        mgr_->read_retries_.fetch_add(1, std::memory_order_relaxed);
        continue;  // backs off via the loop condition
      }
      r.rec = copy;
      return r;
    }
    // A newer version is committed; ours (if any) lives in the DRAM chain.
    auto v = chains.FindVisible(id, id_);
    if (!v.has_value()) {
      return Status::NotFound("no version visible at this timestamp");
    }
    r.rec = v->rec;
    r.from_snapshot = true;
    r.snapshot = std::move(v->props);
    return r;
  } while (backoff.Next());
  mgr_->retry_exhausted_.fetch_add(1, std::memory_order_relaxed);
  return Status::Aborted("record visibility would not stabilize after " +
                         std::to_string(backoff.attempts()) + " attempts");
}

Result<Resolved<NodeRecord>> Transaction::GetNode(RecordId id) {
  return GetRecord<NodeRecord>(store_->nodes(), mgr_->node_versions_,
                               node_writes_, id, true);
}

Result<Resolved<RelationshipRecord>> Transaction::GetRelationship(
    RecordId id) {
  return GetRecord<RelationshipRecord>(store_->relationships(),
                                       mgr_->rel_versions_, rel_writes_, id,
                                       false);
}

Result<PVal> Transaction::GetNodeProperty(RecordId id, DictCode key) {
  POSEIDON_ASSIGN_OR_RETURN(auto r, GetNode(id));
  if (r.from_snapshot) return FindProp(r.snapshot, key);
  POSEIDON_RETURN_IF_ERROR(store_->properties().CheckChain(r.rec.props));
  return store_->properties().Get(r.rec.props, key);
}

Result<PVal> Transaction::GetRelationshipProperty(RecordId id, DictCode key) {
  POSEIDON_ASSIGN_OR_RETURN(auto r, GetRelationship(id));
  if (r.from_snapshot) return FindProp(r.snapshot, key);
  POSEIDON_RETURN_IF_ERROR(store_->properties().CheckChain(r.rec.props));
  return store_->properties().Get(r.rec.props, key);
}

Result<std::vector<Property>> Transaction::GetNodeProperties(RecordId id) {
  POSEIDON_ASSIGN_OR_RETURN(auto r, GetNode(id));
  if (r.from_snapshot) return std::move(r.snapshot);
  POSEIDON_RETURN_IF_ERROR(store_->properties().CheckChain(r.rec.props));
  std::vector<Property> props;
  store_->properties().ReadChain(r.rec.props, &props);
  return props;
}

Result<std::vector<Property>> Transaction::GetRelationshipProperties(
    RecordId id) {
  POSEIDON_ASSIGN_OR_RETURN(auto r, GetRelationship(id));
  if (r.from_snapshot) return std::move(r.snapshot);
  POSEIDON_RETURN_IF_ERROR(store_->properties().CheckChain(r.rec.props));
  std::vector<Property> props;
  store_->properties().ReadChain(r.rec.props, &props);
  return props;
}

// --- Traversal ----------------------------------------------------------------

Status Transaction::ForEachRelChain(
    RecordId node, AdjDir dir,
    const std::function<bool(RecordId, const RelationshipRecord&)>& fn) {
  const bool out = dir == AdjDir::kOut;
  POSEIDON_ASSIGN_OR_RETURN(auto n, GetNode(node));
  RecordId cur = out ? n.rec.first_out : n.rec.first_in;
  while (cur != kNullId) {
    auto r = GetRelationship(cur);
    if (!r.ok()) {
      if (!r.status().IsNotFound()) return r.status();
      // Defensive: invisible relationship on our chain (should not happen
      // for a consistent snapshot); follow its raw next pointer.
      RelationshipRecord raw;
      POSEIDON_RETURN_IF_ERROR(
          ReadStable(store_->relationships(), cur, &raw));
      cur = out ? raw.next_src : raw.next_dst;
      continue;
    }
    RecordId next = out ? r->rec.next_src : r->rec.next_dst;
    // Start the fill of the next link before the callback runs, so its PMem
    // read latency overlaps the per-relationship work.
    store_->relationships().Prefetch(next);
    if (!fn(cur, r->rec)) return Status::Ok();
    cur = next;
  }
  return Status::Ok();
}

Status Transaction::ForEachOutgoing(
    RecordId node,
    const std::function<bool(RecordId, const RelationshipRecord&)>& fn) {
  return ForEachRelChain(node, AdjDir::kOut, fn);
}

Status Transaction::ForEachIncoming(
    RecordId node,
    const std::function<bool(RecordId, const RelationshipRecord&)>& fn) {
  return ForEachRelChain(node, AdjDir::kIn, fn);
}

std::shared_ptr<const AdjacencyList> Transaction::GetCachedAdjacency(
    RecordId node, AdjDir dir) {
  AdjacencyCache& cache = mgr_->adj_cache_;
  if (!cache.enabled() || finished_) return nullptr;
  // Our own topology edits live in the write set; the cache only reflects
  // committed state.
  if (node_writes_.count(node) != 0) return nullptr;
  auto n = GetNode(node);
  // Errors (NotFound, foreign lock) fall back so the chain walk re-raises
  // them with full fidelity.
  if (!n.ok()) return nullptr;
  // n->rec is the node version our MVTO read resolved — latest committed
  // (rts bumped, blocking any topology writer older than us) or an older
  // version off the DRAM chain whose topology is frozen forever. Either
  // way a cached array whose [first_stamp, stamp] range covers this bts is
  // exactly the chain we would walk (every adjacency change commits a new
  // node version, so the range never spans one). Epoch-snapshot readers
  // hit here even while property updates restamp the entry forward.
  const Timestamp stamp = n->rec.tx.bts;
  const bool out = dir == AdjDir::kOut;
  if (auto hit = cache.Lookup(node, dir, stamp)) {
    adj_hits_.fetch_add(1, std::memory_order_relaxed);
    return hit;
  }
  adj_misses_.fetch_add(1, std::memory_order_relaxed);
  // Miss: build from our own walk. Eligible only if every hop also resolves
  // without reaching into the version chain — then the edges we record are
  // the topology at our read timestamp, which lies inside the visible node
  // version's lifetime, i.e. exactly version `stamp`'s topology. A
  // concurrent topology commit during the build is benign: it bumps the
  // node's bts, so the entry we publish is behind any fresh reader's stamp
  // and Lookup erases it instead of serving it (and Insert refuses to
  // displace a newer-stamped entry).
  std::vector<CachedNeighbor> edges;
  RecordId cur = out ? n->rec.first_out : n->rec.first_in;
  while (cur != kNullId) {
    auto r = GetRelationship(cur);
    if (!r.ok() || r->from_snapshot) return nullptr;
    RecordId next = out ? r->rec.next_src : r->rec.next_dst;
    store_->relationships().Prefetch(next);
    edges.push_back(CachedNeighbor{cur, out ? r->rec.dst : r->rec.src,
                                   r->rec.label, 0});
    cur = next;
  }
  return cache.Insert(node, dir, stamp, std::move(edges));
}

Status Transaction::ForEachNeighbor(
    RecordId node, AdjDir dir,
    const std::function<bool(RecordId, DictCode, RecordId)>& fn) {
  if (auto adj = GetCachedAdjacency(node, dir)) {
    for (const CachedNeighbor& e : adj->edges) {
      if (!fn(e.rel_id, e.rel_label, e.neighbor)) break;
    }
    return Status::Ok();
  }
  const bool out = dir == AdjDir::kOut;
  return ForEachRelChain(
      node, dir, [&](RecordId rel_id, const RelationshipRecord& rel) {
        return fn(rel_id, rel.label, out ? rel.dst : rel.src);
      });
}

// --- Locking -------------------------------------------------------------------

Result<Transaction::NodeWrite*> Transaction::LockNode(RecordId id) {
  auto it = node_writes_.find(id);
  if (it != node_writes_.end()) {
    if (it->second.deleted) {
      return Status::NotFound("node deleted in this tx");
    }
    return &it->second;
  }
  if (id == kNullId || !store_->nodes().IsOccupied(id)) {
    return Status::NotFound("node does not exist");
  }
  NodeRecord* rec = store_->nodes().AtForWrite(id);
  Timestamp expected = kUnlocked;
  if (!AtomicTs(rec->tx.txn_id)
           .compare_exchange_strong(expected, id_,
                                    std::memory_order_acq_rel)) {
    return Status::Aborted("node write-locked by transaction " +
                           std::to_string(expected));
  }
  auto unlock_and = [&](Status s) {
    // psan: volatile lock word, never flushed by design (recovery clears it)
    AtomicTs(rec->tx.txn_id).store(kUnlocked, std::memory_order_release);
    return s;
  };
  if (rec->tx.bts == 0) {
    return unlock_and(Status::NotFound("node not committed"));
  }
  if (rec->tx.ets != kInfinityTs) {
    return unlock_and(Status::NotFound("node already deleted"));
  }
  if (rec->tx.bts > id_) {
    return unlock_and(Status::Aborted("newer node version committed"));
  }
  if (AtomicTs(rec->tx.rts).load(std::memory_order_acquire) > id_) {
    // MVTO write rule: cannot overwrite a version a newer tx already read.
    return unlock_and(Status::Aborted("node read by newer transaction"));
  }
  NodeWrite w;
  // Word-atomic copy: concurrent lockers CAS the txn_id word and readers
  // CAS-max rts while we copy the record we just locked.
  pmem::AtomicLoadCopy(&w.before, rec, sizeof(NodeRecord));
  w.before.tx.txn_id = kUnlocked;
  w.rec = w.before;
  store_->properties().ReadChain(rec->props, &w.props_before);
  w.props = w.props_before;
  auto [pos, inserted] = node_writes_.emplace(id, std::move(w));
  (void)inserted;
  return &pos->second;
}

Result<Transaction::RelWrite*> Transaction::LockRel(RecordId id) {
  auto it = rel_writes_.find(id);
  if (it != rel_writes_.end()) {
    if (it->second.deleted) {
      return Status::NotFound("relationship deleted in this tx");
    }
    return &it->second;
  }
  if (id == kNullId || !store_->relationships().IsOccupied(id)) {
    return Status::NotFound("relationship does not exist");
  }
  RelationshipRecord* rec = store_->relationships().AtForWrite(id);
  Timestamp expected = kUnlocked;
  if (!AtomicTs(rec->tx.txn_id)
           .compare_exchange_strong(expected, id_,
                                    std::memory_order_acq_rel)) {
    return Status::Aborted("relationship write-locked by transaction " +
                           std::to_string(expected));
  }
  auto unlock_and = [&](Status s) {
    // psan: volatile lock word, never flushed by design (recovery clears it)
    AtomicTs(rec->tx.txn_id).store(kUnlocked, std::memory_order_release);
    return s;
  };
  if (rec->tx.bts == 0) {
    return unlock_and(Status::NotFound("relationship not committed"));
  }
  if (rec->tx.ets != kInfinityTs) {
    return unlock_and(Status::NotFound("relationship already deleted"));
  }
  if (rec->tx.bts > id_) {
    return unlock_and(Status::Aborted("newer relationship version"));
  }
  if (AtomicTs(rec->tx.rts).load(std::memory_order_acquire) > id_) {
    return unlock_and(Status::Aborted("relationship read by newer tx"));
  }
  RelWrite w;
  // Word-atomic copy: see LockNode.
  pmem::AtomicLoadCopy(&w.before, rec, sizeof(RelationshipRecord));
  w.before.tx.txn_id = kUnlocked;
  w.rec = w.before;
  store_->properties().ReadChain(rec->props, &w.props_before);
  w.props = w.props_before;
  auto [pos, inserted] = rel_writes_.emplace(id, std::move(w));
  (void)inserted;
  return &pos->second;
}

// --- Writes --------------------------------------------------------------------

Result<RecordId> Transaction::CreateNode(DictCode label,
                                         const std::vector<Property>& props) {
  if (finished_) return Status::FailedPrecondition("transaction finished");
  if (read_only_) return Status::FailedPrecondition("read-only transaction");
  NodeRecord rec;
  rec.tx.txn_id = id_;  // locked by us
  rec.tx.bts = 0;       // invisible until commit (paper §5.1 insert rule)
  rec.tx.ets = kInfinityTs;
  rec.label = label;
  POSEIDON_ASSIGN_OR_RETURN(RecordId id, store_->nodes().Insert(rec));
  NodeWrite w;
  w.rec = rec;
  w.props = props;
  w.inserted = true;
  w.props_changed = !props.empty();
  node_writes_.emplace(id, std::move(w));
  return id;
}

Result<RecordId> Transaction::CreateRelationship(
    RecordId src, RecordId dst, DictCode label,
    const std::vector<Property>& props) {
  if (finished_) return Status::FailedPrecondition("transaction finished");
  if (read_only_) return Status::FailedPrecondition("read-only transaction");
  POSEIDON_ASSIGN_OR_RETURN(NodeWrite * src_w, LockNode(src));
  POSEIDON_ASSIGN_OR_RETURN(NodeWrite * dst_w, LockNode(dst));

  RelationshipRecord rec;
  rec.tx.txn_id = id_;
  rec.tx.bts = 0;
  rec.tx.ets = kInfinityTs;
  rec.label = label;
  rec.src = src;
  rec.dst = dst;
  // Insert at the head of both adjacency lists (DD4).
  rec.next_src = src_w->rec.first_out;
  rec.next_dst = dst_w->rec.first_in;
  POSEIDON_ASSIGN_OR_RETURN(RecordId id, store_->relationships().Insert(rec));

  src_w->rec.first_out = id;
  dst_w->rec.first_in = id;

  RelWrite w;
  w.rec = rec;
  w.props = props;
  w.inserted = true;
  w.props_changed = !props.empty();
  rel_writes_.emplace(id, std::move(w));
  return id;
}

Status Transaction::SetNodeProperty(RecordId id, DictCode key, PVal value) {
  if (finished_) return Status::FailedPrecondition("transaction finished");
  if (read_only_) return Status::FailedPrecondition("read-only transaction");
  POSEIDON_ASSIGN_OR_RETURN(NodeWrite * w, LockNode(id));
  UpsertProp(&w->props, key, value);
  w->props_changed = true;
  return Status::Ok();
}

Status Transaction::SetRelationshipProperty(RecordId id, DictCode key,
                                            PVal value) {
  if (finished_) return Status::FailedPrecondition("transaction finished");
  if (read_only_) return Status::FailedPrecondition("read-only transaction");
  POSEIDON_ASSIGN_OR_RETURN(RelWrite * w, LockRel(id));
  UpsertProp(&w->props, key, value);
  w->props_changed = true;
  return Status::Ok();
}

Status Transaction::DeleteNode(RecordId id) {
  if (finished_) return Status::FailedPrecondition("transaction finished");
  if (read_only_) return Status::FailedPrecondition("read-only transaction");
  POSEIDON_ASSIGN_OR_RETURN(NodeWrite * w, LockNode(id));
  if (w->rec.first_in != kNullId || w->rec.first_out != kNullId) {
    return Status::FailedPrecondition(
        "node still has relationships; delete them first");
  }
  w->deleted = true;
  return Status::Ok();
}

Status Transaction::DeleteRelationship(RecordId id) {
  if (finished_) return Status::FailedPrecondition("transaction finished");
  if (read_only_) return Status::FailedPrecondition("read-only transaction");
  POSEIDON_ASSIGN_OR_RETURN(RelWrite * rw, LockRel(id));
  RecordId src = rw->rec.src;
  RecordId dst = rw->rec.dst;
  POSEIDON_ASSIGN_OR_RETURN(NodeWrite * src_w, LockNode(src));
  POSEIDON_ASSIGN_OR_RETURN(NodeWrite * dst_w, LockNode(dst));

  // Unlink from src's outgoing list (lock-as-you-walk keeps every traversed
  // predecessor consistent under MVTO).
  if (src_w->rec.first_out == id) {
    src_w->rec.first_out = rw->rec.next_src;
  } else {
    RecordId cur = src_w->rec.first_out;
    bool unlinked = false;
    while (cur != kNullId) {
      POSEIDON_ASSIGN_OR_RETURN(RelWrite * pw, LockRel(cur));
      if (pw->rec.next_src == id) {
        pw->rec.next_src = rw->rec.next_src;
        unlinked = true;
        break;
      }
      cur = pw->rec.next_src;
    }
    if (!unlinked) {
      return Status::Corruption("relationship missing from src adjacency");
    }
  }

  // Unlink from dst's incoming list.
  if (dst_w->rec.first_in == id) {
    dst_w->rec.first_in = rw->rec.next_dst;
  } else {
    RecordId cur = dst_w->rec.first_in;
    bool unlinked = false;
    while (cur != kNullId) {
      POSEIDON_ASSIGN_OR_RETURN(RelWrite * pw, LockRel(cur));
      if (pw->rec.next_dst == id) {
        pw->rec.next_dst = rw->rec.next_dst;
        unlinked = true;
        break;
      }
      cur = pw->rec.next_dst;
    }
    if (!unlinked) {
      return Status::Corruption("relationship missing from dst adjacency");
    }
  }

  rw->deleted = true;
  return Status::Ok();
}

// --- Commit / abort -------------------------------------------------------------

Status Transaction::Commit() {
  if (finished_) return Status::FailedPrecondition("transaction finished");
  if (read_only_) {
    // Nothing to persist (the write guards kept the write set empty): no
    // redo transaction, no timestamp high-water-mark bump. Snapshot
    // transactions in particular must not persist their shared (stale)
    // timestamp.
    finished_ = true;
    mgr_->Finish(this, /*committed=*/true);
    return Status::Ok();
  }
  Status s = CommitImpl();
  if (!s.ok()) {
    RecordAbortCause(s);
    Abort();
    return s;
  }
  finished_ = true;
  mgr_->Finish(this, /*committed=*/true);
  return Status::Ok();
}

Status Transaction::CommitImpl() {
  auto* pool = store_->pool();
  // Persist the timestamp high-water mark first so a recovered instance can
  // never hand out a timestamp <= any durable bts.
  store_->PersistTimestamp(id_ + 1);

  struct IndexUpsert {
    RecordId id;
    DictCode label;
    DictCode key;
    PVal old_value;
    PVal new_value;
  };
  std::vector<IndexUpsert> index_ops;
  std::vector<std::pair<RecordId, NodeWrite*>> node_deletes_for_index;
  std::vector<GcItem> gc_items;

  // Property chains created below become reachable only once the redo
  // transaction commits (each record image carrying the head is staged, not
  // applied). If staging fails partway — a later CreateChain hitting pool
  // exhaustion is the canonical case — the chains already built for earlier
  // records are unreachable and must go back to the free lists, or every
  // space-exhaustion abort leaks pool bytes.
  struct ChainUnwind {
    storage::GraphStore* store;
    std::vector<RecordId> heads;
    bool armed = true;
    ~ChainUnwind() {
      if (!armed) return;
      for (RecordId h : heads) (void)store->properties().FreeChain(h);
    }
  } chain_unwind{store_};

  // Announce ourselves to the group-commit leader election for the whole
  // durable section (staging + redo commit): a leader only waits for
  // committers that are actually headed for a drain point.
  TransactionManager::CommitSection in_flight(mgr_);
  pmem::RedoTx redo(pool->redo_log());
  static const Timestamp kZeroTs = kUnlocked;

  // --- Nodes --------------------------------------------------------------
  for (auto& [id, w] : node_writes_) {
    if (w.inserted && w.deleted) continue;  // net no-op; freed post-commit
    NodeRecord img = w.rec;
    char* home = reinterpret_cast<char*>(store_->nodes().AtForWrite(id));
    pmem::Offset off = pool->ToOffset(home);

    if (w.inserted) {
      img.tx.bts = id_;
      img.tx.ets = kInfinityTs;
      img.tx.rts = id_;
      if (!w.props.empty()) {
        POSEIDON_ASSIGN_OR_RETURN(img.props,
                                  store_->properties().CreateChain(id, w.props));
        chain_unwind.heads.push_back(img.props);
      }
      if (mgr_->indexes_ != nullptr) {
        for (const auto& p : w.props) {
          index_ops.push_back(
              IndexUpsert{id, img.label, p.key, PVal::Null(), p.value});
        }
      }
    } else if (w.deleted) {
      // Keep the old image; only the end timestamp changes.
      img = w.before;
      img.tx.ets = id_;
      // Older readers resolve the pre-delete version from the DRAM chain.
      NodeVersion old;
      old.rec = w.before;
      old.rec.tx.ets = id_;
      old.props = w.props_before;
      mgr_->node_versions_.Push(id, std::move(old));
      if (w.before.props != kNullId) {
        gc_items.push_back(GcItem{GcItem::Kind::kPropChain, id_, w.before.props});
      }
      gc_items.push_back(GcItem{GcItem::Kind::kNodeSlot, id_, id});
      node_deletes_for_index.emplace_back(id, &w);
    } else {
      img.tx.bts = id_;
      img.tx.ets = kInfinityTs;
      img.tx.rts = id_;
      if (w.props_changed) {
        POSEIDON_ASSIGN_OR_RETURN(img.props,
                                  store_->properties().CreateChain(id, w.props));
        chain_unwind.heads.push_back(img.props);
        if (w.before.props != kNullId) {
          gc_items.push_back(
              GcItem{GcItem::Kind::kPropChain, id_, w.before.props});
        }
      }
      NodeVersion old;
      old.rec = w.before;
      old.rec.tx.ets = id_;
      old.props = w.props_before;
      mgr_->node_versions_.Push(id, std::move(old));
      if (mgr_->indexes_ != nullptr && w.props_changed) {
        for (const auto& p : w.props) {
          PVal before = FindProp(w.props_before, p.key);
          if (!(before == p.value)) {
            index_ops.push_back(
                IndexUpsert{id, img.label, p.key, before, p.value});
          }
        }
        for (const auto& p : w.props_before) {
          if (FindProp(w.props, p.key).is_null() && !p.value.is_null()) {
            index_ops.push_back(
                IndexUpsert{id, img.label, p.key, p.value, PVal::Null()});
          }
        }
      }
    }
    // Stage everything after txn-id first, then the unlocking txn-id store,
    // so the record stays locked until its new image is fully applied.
    redo.Stage(off + sizeof(Timestamp),
               reinterpret_cast<const char*>(&img) + sizeof(Timestamp),
               sizeof(NodeRecord) - sizeof(Timestamp));
    redo.StageValue(off, kZeroTs);
  }

  // --- Relationships --------------------------------------------------------
  for (auto& [id, w] : rel_writes_) {
    if (w.inserted && w.deleted) continue;
    RelationshipRecord img = w.rec;
    char* home =
        reinterpret_cast<char*>(store_->relationships().AtForWrite(id));
    pmem::Offset off = pool->ToOffset(home);

    if (w.inserted) {
      img.tx.bts = id_;
      img.tx.ets = kInfinityTs;
      img.tx.rts = id_;
      if (!w.props.empty()) {
        POSEIDON_ASSIGN_OR_RETURN(img.props,
                                  store_->properties().CreateChain(id, w.props));
        chain_unwind.heads.push_back(img.props);
      }
    } else if (w.deleted) {
      img = w.before;
      img.tx.ets = id_;
      RelVersion old;
      old.rec = w.before;
      old.rec.tx.ets = id_;
      old.props = w.props_before;
      mgr_->rel_versions_.Push(id, std::move(old));
      if (w.before.props != kNullId) {
        gc_items.push_back(GcItem{GcItem::Kind::kPropChain, id_, w.before.props});
      }
      gc_items.push_back(GcItem{GcItem::Kind::kRelSlot, id_, id});
    } else {
      img.tx.bts = id_;
      img.tx.ets = kInfinityTs;
      img.tx.rts = id_;
      if (w.props_changed) {
        POSEIDON_ASSIGN_OR_RETURN(img.props,
                                  store_->properties().CreateChain(id, w.props));
        chain_unwind.heads.push_back(img.props);
        if (w.before.props != kNullId) {
          gc_items.push_back(
              GcItem{GcItem::Kind::kPropChain, id_, w.before.props});
        }
      }
      RelVersion old;
      old.rec = w.before;
      old.rec.tx.ets = id_;
      old.props = w.props_before;
      mgr_->rel_versions_.Push(id, std::move(old));
    }
    redo.Stage(off + sizeof(Timestamp),
               reinterpret_cast<const char*>(&img) + sizeof(Timestamp),
               sizeof(RelationshipRecord) - sizeof(Timestamp));
    redo.StageValue(off, kZeroTs);
  }

  // The failure-atomic point: either every staged image (and unlock) becomes
  // durable, or none does (paper: PMDK transaction at commit, DG4). The
  // commit timestamp orders crash replay across redo segments; with group
  // commit, every phase drain is batched across concurrent committers.
  pmem::RedoTx::DrainFn drain;
  if (mgr_->group_commit_enabled_) {
    drain = [this] { mgr_->GroupDrain(); };
  }
  POSEIDON_RETURN_IF_ERROR(redo.Commit(id_, drain));
  chain_unwind.armed = false;  // chains are now reachable from durable images

  // --- Post-commit bookkeeping (volatile / secondary) ----------------------
  for (auto& [id, w] : node_writes_) {
    if (w.inserted && w.deleted) (void)store_->nodes().Delete(id);
  }
  for (auto& [id, w] : rel_writes_) {
    if (w.inserted && w.deleted) (void)store_->relationships().Delete(id);
  }
  if (mgr_->indexes_ != nullptr) {
    for (const auto& op : index_ops) {
      mgr_->indexes_->OnNodeUpserted(op.id, op.label, op.key, op.old_value,
                                     op.new_value);
    }
    for (auto& [id, w] : node_deletes_for_index) {
      mgr_->indexes_->OnNodeDeleted(id, w->before.label, w->props_before);
    }
  }
  for (auto& item : gc_items) mgr_->Defer(item);

  // Adjacency-cache maintenance. Safe to run after durability: a stale entry
  // can never be served (its stamp no longer matches the node's bts), so this
  // is hygiene, not correctness. Topology commits invalidate every touched
  // node; pure property updates carry the entry forward by restamping it to
  // the new version timestamp (the arrays hold only immutable topology
  // fields: rel id, rel label, endpoint).
  AdjacencyCache& adj = mgr_->adj_cache_;
  if (adj.enabled() &&
      !(node_writes_.empty() && rel_writes_.empty())) {
    // Endpoints of inserted/deleted relationships: their adjacency changed
    // even when their own first_out/first_in head did not (mid-chain
    // unlinks rewrite a predecessor's next pointer only).
    std::set<RecordId> topo_nodes;
    for (auto& [id, w] : rel_writes_) {
      if (w.inserted == w.deleted) continue;  // updates & net no-ops
      topo_nodes.insert(w.rec.src);
      topo_nodes.insert(w.rec.dst);
    }
    for (auto& [id, w] : node_writes_) {
      if (w.inserted || w.deleted || topo_nodes.count(id) != 0 ||
          w.rec.first_out != w.before.first_out ||
          w.rec.first_in != w.before.first_in) {
        adj.Invalidate(id);
      } else {
        adj.Restamp(id, w.before.tx.bts, id_);
      }
      topo_nodes.erase(id);
    }
    // Endpoints of touched relationships are always write-locked (and thus
    // in node_writes_); invalidate any leftovers defensively.
    for (RecordId id : topo_nodes) adj.Invalidate(id);
  }
  return Status::Ok();
}

void Transaction::ReleaseLocks() {
  for (auto& [id, w] : node_writes_) {
    if (w.inserted) {
      (void)store_->nodes().Delete(id);
    } else {
      NodeRecord* rec = store_->nodes().AtForWrite(id);
      // psan: volatile lock word, never flushed by design
      AtomicTs(rec->tx.txn_id).store(kUnlocked, std::memory_order_release);
    }
  }
  for (auto& [id, w] : rel_writes_) {
    if (w.inserted) {
      (void)store_->relationships().Delete(id);
    } else {
      RelationshipRecord* rec = store_->relationships().AtForWrite(id);
      // psan: volatile lock word, never flushed by design
      AtomicTs(rec->tx.txn_id).store(kUnlocked, std::memory_order_release);
    }
  }
}

void Transaction::Abort() {
  if (finished_) return;
  ReleaseLocks();
  node_writes_.clear();
  rel_writes_.clear();
  finished_ = true;
  mgr_->Finish(this, /*committed=*/false);
}

// --- TransactionManager ---------------------------------------------------------

TransactionManager::TransactionManager(storage::GraphStore* store,
                                       index::IndexManager* indexes)
    : store_(store),
      indexes_(indexes),
      next_ts_(store->persisted_timestamp() + 1) {
  read_backoff_ =
      util::Backoff::FromEnv(EnvInt("POSEIDON_TX_RETRY_ATTEMPTS", 1024));
  visibility_backoff_ =
      util::Backoff::FromEnv(EnvInt("POSEIDON_TX_RETRY_ATTEMPTS", 64));
  // Read-path knobs (DESIGN.md "Read-path scalability"): epoch length of
  // the shared read-only snapshot (0 = fresh timestamp per read tx, the
  // seed protocol) and rts-bump coalescing (0 = eager CAS-max on every
  // visited record, the seed protocol).
  snapshot_epoch_us_.store(EnvInt("POSEIDON_SNAPSHOT_EPOCH_US", 100),
                           std::memory_order_relaxed);
  // Staleness bound: a snapshot more than this many drawn ids behind
  // next_ts_ (a stalled writer pinning the frontier) makes BeginReadOnly
  // degrade to the seed protocol for that transaction (0 = unbounded).
  snapshot_max_lag_.store(
      static_cast<uint64_t>(EnvInt("POSEIDON_SNAPSHOT_MAX_LAG", 64)),
      std::memory_order_relaxed);
  rts_coalesce_.store(EnvInt("POSEIDON_RTS_COALESCE", 1) != 0,
                      std::memory_order_relaxed);
  // Overload-governance knobs (DESIGN.md "Overload governance"): writer
  // admission cap (0 = unlimited, the seed behavior), its bounded gate wait,
  // and the default cooperative deadline armed on every transaction.
  max_writers_.store(EnvInt("POSEIDON_MAX_WRITERS", 0),
                     std::memory_order_relaxed);
  admission_backoff_ =
      util::Backoff::FromEnv(EnvInt("POSEIDON_ADMISSION_ATTEMPTS", 64));
  default_deadline_ms_.store(EnvInt("POSEIDON_QUERY_DEADLINE_MS", 0),
                             std::memory_order_relaxed);
  group_commit_enabled_ = EnvInt("POSEIDON_GROUP_COMMIT", 1) != 0;
  // Default 0: opportunistic batching. The leader drains immediately for
  // the members that have already arrived; committers that show up during
  // the drain form the next batch. A positive window makes the leader sleep
  // for up to that long collecting the in-flight committers — only worth it
  // when the modeled drain cost exceeds the scheduling latency (e.g. a
  // latency override emulating remote PMem fsync-class drains).
  int window = EnvInt("POSEIDON_GROUP_COMMIT_WINDOW_US", 0);
  group_window_us_ = window > 0 ? static_cast<uint64_t>(window) : 0;
  bg_gc_ = EnvInt("POSEIDON_BG_GC", 1) != 0;
  if (bg_gc_) {
    gc_thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(gc_wake_mu_);
      while (!gc_stop_.load(std::memory_order_acquire)) {
        gc_wake_cv_.wait_for(lock, std::chrono::milliseconds(1));
        if (gc_stop_.load(std::memory_order_acquire)) break;
        RunGc();
      }
    });
  }
}

TransactionManager::~TransactionManager() {
  if (gc_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(gc_wake_mu_);
      gc_stop_.store(true, std::memory_order_release);
    }
    gc_wake_cv_.notify_all();
    gc_thread_.join();
    // Drain what the epoch thread left behind so shutdown matches the
    // inline-GC baseline.
    RunGc();
  }
}

TransactionManager::CommitSection::CommitSection(TransactionManager* m)
    : mgr(m) {
  mgr->committers_in_flight_.fetch_add(1, std::memory_order_acq_rel);
}

TransactionManager::CommitSection::~CommitSection() {
  mgr->committers_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  if (mgr->group_commit_enabled_) {
    // A leader may be waiting for this committer to reach a drain point;
    // if we left the durable section instead (commit done or aborted),
    // re-evaluate its batch-complete predicate.
    std::lock_guard<std::mutex> lock(mgr->group_mu_);
    mgr->arrive_cv_.notify_all();
  }
}

void TransactionManager::GroupDrain() {
  auto* pool = store_->pool();
  std::unique_lock<std::mutex> lock(group_mu_);
  uint64_t my_batch = group_gen_;
  ++group_members_;
  arrive_cv_.notify_all();  // leader predicate may now hold
  for (;;) {
    if (group_done_gen_ >= my_batch) return;  // a leader drained for us
    if (!leader_active_) {
      leader_active_ = true;
      // Bounded wait (window > 0 only): collect the committers currently
      // inside their durable section. Single-threaded commits sail through
      // without sleeping (members == in-flight == 1); with the default
      // window of 0 the leader never sleeps and batches only the members
      // already queued behind it.
      if (group_window_us_ > 0) {
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(group_window_us_);
        arrive_cv_.wait_until(lock, deadline, [&] {
          return group_members_ >=
                 committers_in_flight_.load(std::memory_order_acquire);
        });
      }
      uint64_t batch = group_gen_++;  // close the batch; next arrivals queue
      group_members_ = 0;
      lock.unlock();
      pool->Drain();  // one physical sfence for the whole batch
      group_drains_.fetch_add(1, std::memory_order_relaxed);
      lock.lock();
      group_done_gen_ = batch;
      leader_active_ = false;
      done_cv_.notify_all();
      return;
    }
    done_cv_.wait(lock, [&] {
      return group_done_gen_ >= my_batch || !leader_active_;
    });
  }
}

std::unique_ptr<Transaction> TransactionManager::Begin() {
  // Registration protocol (all seq_cst): claim a slot holding a
  // conservative lower bound (next_ts_ BEFORE our fetch_add), draw the real
  // id, then overwrite the slot with it. A watermark scan that sees the
  // slot uses lb <= id (conservative); one that misses the claim ran its
  // next_ts_ load before our claim, hence before our fetch_add, so its
  // bound already covers our id (see TxSlots::Min).
  // Counted BEFORE the id draw: PublishStableIfQuiescent relies on "counter
  // observed 0 after a next_ts_ load => no live writer below that bound".
  active_writers_.fetch_add(1, std::memory_order_seq_cst);
  int slot = writer_slots_.Claim(next_ts_.load(std::memory_order_seq_cst));
  Timestamp ts;
  if (slot >= 0) {
    ts = next_ts_.fetch_add(1, std::memory_order_seq_cst);
    writer_slots_.Store(slot, ts);
  } else {
    // Slot array exhausted (> kTxSlots concurrent transactions): fall back
    // to the overflow multiset. Drawing the id under the mutex keeps the
    // watermark sound: a scanner either sees the entry (it locks after our
    // insert) or loaded its next_ts_ bound before our fetch_add.
    std::lock_guard<std::mutex> lock(writer_slots_.overflow_mu);
    ts = next_ts_.fetch_add(1, std::memory_order_seq_cst);
    writer_slots_.overflow.insert(ts);
  }
  auto tx = std::unique_ptr<Transaction>(new Transaction(this, ts));
  tx->slot_ = slot;
  return tx;
}

Result<std::unique_ptr<Transaction>> TransactionManager::BeginWrite() {
  int64_t max = max_writers_.load(std::memory_order_relaxed);
  if (max > 0 && active_writers_.load(std::memory_order_acquire) >= max) {
    // Bounded wait: a writer slot usually frees within microseconds; if the
    // backlog persists past the backoff budget, shed instead of queueing —
    // over capacity, every admitted writer only adds MVTO conflict aborts.
    util::Backoff backoff(admission_backoff_);
    while (active_writers_.load(std::memory_order_acquire) >= max) {
      if (!backoff.Next()) {
        writers_shed_.fetch_add(1, std::memory_order_relaxed);
        return Status::ResourceExhausted(
            "admission gate: " + std::to_string(max) +
            " writers in flight (POSEIDON_MAX_WRITERS)");
      }
    }
  }
  auto* pool = store_->pool();
  if (pool->AboveSoftWatermark()) {
    // Emergency reclamation before denying: version-chain GC returns
    // deferred property chains and deleted slots to the free lists, and the
    // DRAM adjacency cache is dropped to relieve memory pressure overall.
    RunGc();
    adj_cache_.Clear();
    if (pool->AboveSoftWatermark()) {
      space_denied_.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          "pool above soft space watermark (" +
          std::to_string(pool->soft_watermark_pct()) + "%): " +
          std::to_string(pool->bytes_used()) + " of " +
          std::to_string(pool->capacity()) + " bytes used");
    }
  }
  return Begin();
}

std::unique_ptr<Transaction> TransactionManager::BeginReadOnly() {
  if (snapshot_epoch_us_.load(std::memory_order_relaxed) > 0) {
    // Refresh is commit-driven: every writer retirement republishes the
    // snapshot (Finish), and the frontier cannot advance between writer
    // retirements. Readers therefore probe only to activate the very first
    // snapshot — afterwards BeginReadOnly stays clock-free and mutex-free.
    if (snapshot_ts_.load(std::memory_order_acquire) == 0) {
      MaybeRefreshSnapshot(/*activate=*/true);
    }
    Timestamp snap = snapshot_ts_.load(std::memory_order_seq_cst);
    uint64_t max_lag = snapshot_max_lag_.load(std::memory_order_relaxed);
    if (snap != 0 && max_lag != 0 &&
        next_ts_.load(std::memory_order_relaxed) - 1 - snap > max_lag) {
      // The frontier is pinned far behind next_ts_ — usually a writer
      // stalled mid-transaction (descheduled, or blocked in a drain). A
      // snapshot that stale turns every read of a recently-updated record
      // into a version-chain walk. Every 32nd stale begin tries a scan
      // refresh (the stall may have cleared while overlapping transactions
      // kept active_writers_ nonzero and the O(1) publish from firing;
      // scanning on every begin would tax the whole degraded phase), then
      // the transaction degrades to the seed fresh-ts protocol if the lag
      // persists: both protocols are individually correct, so the choice
      // can be made per transaction.
      if (fallback_probe_gate_.fetch_add(1, std::memory_order_relaxed) % 32 ==
          0) {
        MaybeRefreshSnapshot(/*activate=*/false);
        snap = snapshot_ts_.load(std::memory_order_seq_cst);
      }
      if (next_ts_.load(std::memory_order_relaxed) - 1 - snap > max_lag) {
        snapshot_fallbacks_.fetch_add(1, std::memory_order_relaxed);
        snap = 0;  // take the seed path below
      }
    }
    if (snap != 0) {
      // Pin the published snapshot in a reader slot. Between loading S and
      // storing it into the slot, GC is held at or below S because
      // snapshot_ts_ itself is part of the watermark; the re-check closes
      // the remaining race (a refresh advancing S after our load computed
      // its watermark without our pin). snapshot_ts_ is monotonic, so a
      // stable re-read means every prune during the window used a
      // watermark <= S.
      Timestamp s = snap;
      int slot = reader_slots_.Claim(s);
      if (slot >= 0) {
        for (;;) {
          reader_slots_.Store(slot, s);
          Timestamp again = snapshot_ts_.load(std::memory_order_seq_cst);
          if (again == s) break;
          s = again;
        }
      } else {
        std::lock_guard<std::mutex> lock(reader_slots_.overflow_mu);
        for (;;) {
          s = snapshot_ts_.load(std::memory_order_seq_cst);
          reader_slots_.overflow.insert(s);
          if (snapshot_ts_.load(std::memory_order_seq_cst) == s) break;
          reader_slots_.overflow.erase(reader_slots_.overflow.find(s));
        }
      }
      snapshot_reads_.fetch_add(1, std::memory_order_relaxed);
      auto tx = std::unique_ptr<Transaction>(new Transaction(this, s));
      tx->slot_ = slot;
      tx->read_only_ = true;
      tx->snapshot_ = true;
      return tx;
    }
    // Nothing committed yet (empty store): no publishable snapshot.
  }
  // Knob off, no snapshot yet, or lag-capped: the seed protocol — a fresh
  // timestamp, registered like any writer — plus the write guard.
  auto tx = Begin();
  tx->read_only_ = true;
  return tx;
}

void TransactionManager::MaybeRefreshSnapshot(bool activate) {
  if (!activate && snapshot_ts_.load(std::memory_order_acquire) == 0) {
    return;  // never activated; keep the seed GC timing untouched
  }
  if (snapshot_epoch_us_.load(std::memory_order_relaxed) <= 0) return;
  std::unique_lock<std::mutex> lock(snapshot_mu_, std::try_to_lock);
  if (!lock.owns_lock()) return;  // another thread is refreshing
  // Stable timestamp: one below the smallest id any active or future
  // WRITER can carry (next_ts_ loaded before the slot scan, same argument
  // as MinActiveTs). Reader pins are deliberately excluded — a snapshot
  // that waited for its own consumers could never advance.
  Timestamp bound = next_ts_.load(std::memory_order_seq_cst);
  Timestamp stable = writer_slots_.Min(bound) - 1;
  Timestamp cur = snapshot_ts_.load(std::memory_order_relaxed);
  if (stable > cur) {
    snapshot_ts_.store(stable, std::memory_order_seq_cst);
    snapshot_refreshes_.fetch_add(1, std::memory_order_relaxed);
  }
}

Timestamp TransactionManager::MinActiveTs() const {
  // next_ts_ FIRST, then the slot scans (seq_cst): see TxSlots::Min.
  Timestamp min = next_ts_.load(std::memory_order_seq_cst);
  min = writer_slots_.Min(min);
  min = reader_slots_.Min(min);
  if (snapshot_epoch_us_.load(std::memory_order_relaxed) > 0) {
    // The published snapshot pins the watermark so a reader between
    // loading it and storing its slot pin cannot lose its versions.
    Timestamp snap = snapshot_ts_.load(std::memory_order_seq_cst);
    if (snap != 0 && snap < min) min = snap;
  }
  return min;
}

void TransactionManager::Finish(Transaction* t, bool committed) {
  (t->snapshot_ ? reader_slots_ : writer_slots_).Release(t->slot_, t->id_);
  if (uint64_t n = t->rts_skipped_.load(std::memory_order_relaxed)) {
    rts_skipped_.fetch_add(n, std::memory_order_relaxed);
  }
  if (uint64_t n = t->rts_deferred_.load(std::memory_order_relaxed)) {
    rts_deferred_.fetch_add(n, std::memory_order_relaxed);
  }
  if (committed) {
    commits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    aborts_.fetch_add(1, std::memory_order_relaxed);
    switch (t->abort_cause_) {
      case AbortCause::kDeadline:
        aborts_deadline_.fetch_add(1, std::memory_order_relaxed);
        break;
      case AbortCause::kCancelled:
        aborts_cancelled_.fetch_add(1, std::memory_order_relaxed);
        break;
      case AbortCause::kSpace:
        aborts_space_.fetch_add(1, std::memory_order_relaxed);
        break;
      case AbortCause::kConflict:
        aborts_conflict_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }
  // Transaction-level GC (paper §5.3): reclaim at transaction granularity.
  // With the commit pipeline, reclamation runs on the background epoch
  // thread instead, so commit latency no longer pays version pruning.
  // Shared-snapshot readers are exempt from the inline pass: they create no
  // garbage, and the published snapshot — not their slot pin — is what
  // holds the watermark, so their release rarely unlocks reclamation. The
  // next writer Finish (or explicit/background RunGc) picks it up, bounding
  // the deferred backlog to roughly one snapshot epoch of versions.
  if (!t->snapshot_) {
    // Writer (or fresh-timestamp reader) retirement is exactly when the
    // stable frontier can advance: republish the snapshot now so its
    // staleness tracks the oldest in-flight writer (~µs) instead of a GC
    // period. Fresh snapshots keep snapshot reads on the latest committed
    // PMem version rather than falling back to DRAM version chains and
    // adjacency-cache misses. The O(1) quiescent publish covers the common
    // case; overlapping writers are picked up by the scan folded into
    // RunGc (inline here, or on the background GC thread).
    if (active_writers_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      PublishStableIfQuiescent();
    }
    if (!bg_gc_) RunGc();
  }
}

void TransactionManager::PublishStableIfQuiescent() {
  if (snapshot_ts_.load(std::memory_order_acquire) == 0 ||
      snapshot_epoch_us_.load(std::memory_order_relaxed) <= 0) {
    return;
  }
  Timestamp bound = next_ts_.load(std::memory_order_seq_cst);
  if (active_writers_.load(std::memory_order_seq_cst) != 0) {
    return;  // a writer below `bound` may still be live; RunGc will catch up
  }
  Timestamp stable = bound - 1;
  Timestamp cur = snapshot_ts_.load(std::memory_order_relaxed);
  while (stable > cur && !snapshot_ts_.compare_exchange_weak(
                             cur, stable, std::memory_order_seq_cst,
                             std::memory_order_relaxed)) {
  }
  if (stable > cur) {
    snapshot_refreshes_.fetch_add(1, std::memory_order_relaxed);
  }
}

TxStats TransactionManager::Stats() const {
  TxStats s;
  s.commits = commits_.load(std::memory_order_relaxed);
  s.aborts = aborts_.load(std::memory_order_relaxed);
  s.read_retries = read_retries_.load(std::memory_order_relaxed);
  s.retry_exhausted = retry_exhausted_.load(std::memory_order_relaxed);
  s.group_drains = group_drains_.load(std::memory_order_relaxed);
  s.rts_skipped = rts_skipped_.load(std::memory_order_relaxed);
  s.rts_deferred = rts_deferred_.load(std::memory_order_relaxed);
  s.snapshot_refreshes = snapshot_refreshes_.load(std::memory_order_relaxed);
  s.snapshot_reads = snapshot_reads_.load(std::memory_order_relaxed);
  s.snapshot_fallbacks = snapshot_fallbacks_.load(std::memory_order_relaxed);
  s.aborts_conflict = aborts_conflict_.load(std::memory_order_relaxed);
  s.aborts_deadline = aborts_deadline_.load(std::memory_order_relaxed);
  s.aborts_cancelled = aborts_cancelled_.load(std::memory_order_relaxed);
  s.aborts_space = aborts_space_.load(std::memory_order_relaxed);
  s.writers_shed = writers_shed_.load(std::memory_order_relaxed);
  s.space_denied = space_denied_.load(std::memory_order_relaxed);
  return s;
}

void TransactionManager::Defer(GcItem item) {
  std::lock_guard<std::mutex> lock(gc_mu_);
  gc_queue_.push_back(item);
}

void TransactionManager::RunGc() {
  // Serialize whole executions (not just the queue partition below): a
  // caller that raced a concurrent RunGc mid-free-loop would otherwise
  // return while items claimed under an older watermark are still being
  // freed, breaking the contract that RunGc() returning means everything
  // reclaimable at its watermark is gone (the GC tests rely on this, and
  // the destructor's final drain wants it too).
  std::lock_guard<std::mutex> run_lock(gc_run_mu_);
  // One writer-slot scan serves two jobs: republishing the snapshot
  // frontier (commit-driven refresh — Finish calls RunGc right after the
  // retiring writer released its slot, which is exactly when the frontier
  // can advance) and computing the GC watermark. A separate refresh pass
  // would re-walk the same 64 slot cache lines on every commit.
  // next_ts_ FIRST, then the slot scans (seq_cst): see TxSlots::Min.
  Timestamp bound = next_ts_.load(std::memory_order_seq_cst);
  Timestamp writer_min = writer_slots_.Min(bound);
  if (snapshot_ts_.load(std::memory_order_acquire) != 0 &&
      snapshot_epoch_us_.load(std::memory_order_relaxed) > 0) {
    // Lock-free CAS-max: the advance is monotonic, so racing publishers
    // need no mutex — the largest frontier wins and losers retry or bail.
    Timestamp stable = writer_min - 1;
    Timestamp cur = snapshot_ts_.load(std::memory_order_relaxed);
    while (stable > cur && !snapshot_ts_.compare_exchange_weak(
                               cur, stable, std::memory_order_seq_cst,
                               std::memory_order_relaxed)) {
    }
    if (stable > cur) {
      snapshot_refreshes_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  Timestamp min_active = std::min(writer_min, reader_slots_.Min(bound));
  if (snapshot_epoch_us_.load(std::memory_order_relaxed) > 0) {
    // A reader between loading S and storing its slot pin is covered
    // because snapshot_ts_ itself stays in the watermark (see MinActiveTs).
    Timestamp snap = snapshot_ts_.load(std::memory_order_seq_cst);
    if (snap != 0 && snap < min_active) min_active = snap;
  }
  node_versions_.Prune(min_active);
  rel_versions_.Prune(min_active);

  std::vector<GcItem> ready;
  {
    std::lock_guard<std::mutex> lock(gc_mu_);
    auto keep = std::partition(
        gc_queue_.begin(), gc_queue_.end(),
        [&](const GcItem& g) { return g.reclaim_after >= min_active; });
    ready.assign(keep, gc_queue_.end());
    gc_queue_.erase(keep, gc_queue_.end());
  }
  for (const GcItem& g : ready) {
    switch (g.kind) {
      case GcItem::Kind::kPropChain:
        (void)store_->properties().FreeChain(g.id);
        break;
      case GcItem::Kind::kNodeSlot:
        (void)store_->nodes().Delete(g.id);
        break;
      case GcItem::Kind::kRelSlot:
        (void)store_->relationships().Delete(g.id);
        break;
    }
  }
}

Status TransactionManager::RecoverInFlight() {
  // Uncommitted inserts (locked, bts == 0) vanish; locked committed records
  // are unlocked in place — their durable payload was never touched because
  // updates reach PMem only through the commit redo transaction.
  //
  // Durability note: BOTH branches must persist their cleared state before
  // recovery is declared done, and they must do so the same way. The unlock
  // branch used to Persist (flush + drain) every txn_id individually while
  // the drop branch relied on Delete's internal persist — a crash between
  // the two could resurrect a lock that recovery had already released. Now
  // every cleared field and occupancy bit is flushed as it is written and a
  // single drain at the end makes the whole sweep durable atomically-enough:
  // re-running recovery after a crash mid-sweep redoes the idempotent work.
  auto* pool = store_->pool();
  std::vector<RecordId> drop_nodes, drop_rels;
  store_->nodes().ForEach([&](RecordId id, storage::NodeRecord& rec) {
    if (rec.tx.txn_id == kUnlocked) return;
    if (rec.tx.bts == 0) {
      drop_nodes.push_back(id);
    } else {
      PsanStore(pool, &rec.tx.txn_id, kUnlocked);
      pool->Flush(&rec.tx.txn_id, sizeof(Timestamp));
    }
  });
  store_->relationships().ForEach(
      [&](RecordId id, storage::RelationshipRecord& rec) {
        if (rec.tx.txn_id == kUnlocked) return;
        if (rec.tx.bts == 0) {
          drop_rels.push_back(id);
        } else {
          PsanStore(pool, &rec.tx.txn_id, kUnlocked);
          pool->Flush(&rec.tx.txn_id, sizeof(Timestamp));
        }
      });
  for (RecordId id : drop_nodes) {
    POSEIDON_RETURN_IF_ERROR(store_->nodes().Delete(id));
  }
  for (RecordId id : drop_rels) {
    POSEIDON_RETURN_IF_ERROR(store_->relationships().Delete(id));
  }
  pool->Drain();
  return Status::Ok();
}

namespace {

template <typename R, typename Chains>
bool ResurrectFrom(const Chains& chains, storage::GraphStore* store,
                   RecordId id, R* out) {
  auto v = chains.Newest(id);
  if (!v.has_value()) return false;
  R rec = v->rec;
  // The retained version's PMem property chain may already be recycled by
  // GC: rewrite a fresh chain from the DRAM snapshot.
  auto head = store->properties().CreateChain(id, v->props);
  if (!head.ok()) return false;
  rec.props = *head;
  // Normalize to "latest committed, unlocked": the resurrected image takes
  // over as the record's only version.
  rec.tx.txn_id = kUnlocked;
  rec.tx.ets = kInfinityTs;
  rec.tx.rts = rec.tx.bts;
  *out = rec;
  return true;
}

}  // namespace

bool TransactionManager::ResurrectNode(RecordId id, storage::NodeRecord* out) {
  return ResurrectFrom(node_versions_, store_, id, out);
}

bool TransactionManager::ResurrectRel(RecordId id,
                                      storage::RelationshipRecord* out) {
  return ResurrectFrom(rel_versions_, store_, id, out);
}

}  // namespace poseidon::tx
