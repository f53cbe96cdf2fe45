#include "driver.h"

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <latch>
#include <thread>

#include "util/random.h"

namespace perfbench {

using poseidon::Result;
using poseidon::Rng;
using poseidon::Status;
using poseidon::core::GraphDb;
using poseidon::jit::ExecStats;
using poseidon::jit::ExecutionMode;
using poseidon::query::Plan;
using poseidon::query::QueryResult;
using poseidon::query::Tuple;
using poseidon::query::Value;
using poseidon::storage::DictCode;
namespace ldbc = poseidon::ldbc;

namespace {

/// Parameter draws of the set-up compile runs and of check (a).
constexpr uint64_t kFixedParamSeed = 0xc0ffee;
constexpr int kCheckDrawsPerPlan = 4;
/// Table-scan probes per client in a traced window.
constexpr uint64_t kScanProbes = 200;

/// Short reads that resolve one entity and return exactly one row on the
/// generated graph (IS1, IS4, IS5, IS6), checked on every op of a window.
bool SingleRow(const std::string& name) {
  return name == "IS1" || name.rfind("IS4", 0) == 0 ||
         name.rfind("IS5", 0) == 0 || name.rfind("IS6", 0) == 0;
}

/// Label of the entity a short read's parameter names.
DictCode ReadLabel(const ldbc::SnbSchema& s, const std::string& name) {
  if (name == "IS1" || name.rfind("IS2", 0) == 0 || name == "IS3") {
    return s.person;
  }
  return name.find("-post") != std::string::npos ? s.post : s.comment;
}

Result<QueryResult> RunRead(GraphDb* db, const Plan& plan,
                            const std::vector<Value>& params,
                            ExecutionMode mode, ExecStats* stats) {
  auto tx = db->BeginReadOnly();
  auto r = db->ExecuteIn(plan, tx.get(), params, mode, stats);
  if (!r.ok()) return r.status();
  POSEIDON_RETURN_IF_ERROR(tx->Commit());
  return r;
}

std::vector<Tuple> SortedRows(std::vector<Tuple> rows) {
  std::sort(rows.begin(), rows.end(), [](const Tuple& a, const Tuple& b) {
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
  return rows;
}

/// Read-only state every client of a window shares.
struct Window {
  Env* env;
  const WorkloadSpec* spec;
  bool traced;
  /// Per read plan: whether it must return one row, and its index (traced
  /// indexed windows only, for the lookup probe).
  std::vector<bool> single_row;
  std::vector<const poseidon::index::BPlusTree*> trees;
  std::vector<DictCode> creates;  ///< per IU plan
};

/// One closed-loop client of a window.
struct Client {
  Client(const Window* w, const OpStream* s, uint32_t lane)
      : window(w),
        env(w->env),
        stream(s),
        scan_every(std::max<uint64_t>(1, s->ops.size() / kScanProbes)),
        log(lane, w->traced) {}

  const Window* window;
  Env* env;
  const OpStream* stream;
  uint64_t scan_every;

  SpanLog log;
  OpTally tally;
  std::vector<double> read_ns;
  std::vector<double> write_ns;
  std::vector<Created> created;
  uint64_t bad_reads = 0;
  std::string first_error;
  int64_t end_ns = 0;
  int64_t probe_ns = 0;
  uint64_t jit_reads = 0;
  uint64_t memo_hits = 0;
  uint64_t jit_morsels = 0;
  uint64_t interpreted_morsels = 0;

  Status ReadAttempt(const Op& op, const std::vector<Value>& params,
                     uint64_t root) {
    GraphDb* db = env->db.get();
    uint64_t span = log.Open(SpanKind::kTxBegin, root, false, op.query);
    auto tx = db->BeginReadOnly();
    log.Close(span);
    ExecStats stats;
    span = log.Open(SpanKind::kQueryExecute, root, false, op.query);
    auto r = db->ExecuteIn(env->reads[op.query].plan, tx.get(), params,
                           window->spec->read_mode,
                           log.enabled() ? &stats : nullptr);
    log.Close(span);
    if (!r.ok()) return r.status();
    if (window->single_row[op.query] && r->rows.size() != 1) {
      ++bad_reads;
    }
    if (log.enabled()) {
      ++jit_reads;
      memo_hits += stats.memo_hit ? 1 : 0;
      jit_morsels += stats.jit_morsels;
      interpreted_morsels += stats.interpreted_morsels;
    }
    span = log.Open(SpanKind::kTxCommit, root, false, op.query);
    Status s = tx->Commit();
    log.Close(span);
    return s;
  }

  Status WriteAttempt(const Op& op, const std::vector<Value>& params,
                      uint64_t root) {
    GraphDb* db = env->db.get();
    uint64_t span = log.Open(SpanKind::kTxBegin, root, true, op.query);
    auto begun = db->BeginWrite();
    log.Close(span);
    if (!begun.ok()) return begun.status();
    std::unique_ptr<poseidon::tx::Transaction> tx = std::move(*begun);
    span = log.Open(SpanKind::kQueryExecute, root, true, op.query);
    auto r = db->ExecuteIn(env->writes[op.query].plan, tx.get(), params,
                           ExecutionMode::kInterpret);
    log.Close(span);
    if (!r.ok()) {
      tx->RecordAbortCause(r.status());
      tx->Abort();
      return r.status();
    }
    span = log.Open(SpanKind::kTxCommit, root, true, op.query);
    Status s = tx->Commit();
    log.Close(span);
    return s;
  }

  void Probe(const Op& op, const std::vector<Value>& params, uint64_t i) {
    const poseidon::index::BPlusTree* tree =
        op.is_write ? nullptr : window->trees[op.query];
    if (tree != nullptr) {
      const int64_t t0 = NowNs();
      uint64_t span = log.Open(SpanKind::kIndexLookup, 0, false, op.query, t0);
      tree->LookupAll(params[0].AsInt(), [](const auto&, auto) {});
      const int64_t t1 = NowNs();
      log.Close(span, t1);
      probe_ns += t1 - t0;
    }
    if (i % scan_every == 0) {
      const int64_t t0 = NowNs();
      uint64_t span = log.Open(SpanKind::kStorageScan, 0, false, 0, t0);
      env->db->store()->nodes().ForEachBatch(
          [](poseidon::storage::RecordId, const auto&) {},
          env->db->scan_options());
      const int64_t t1 = NowNs();
      log.Close(span, t1);
      probe_ns += t1 - t0;
    }
  }

  void Run(std::latch* warmed, std::latch* go) {
    std::vector<Value> params;
    // Untimed warm pass over the first tenth of the stream's reads, so the
    // window starts with the adjacency cache and compiled code hot.
    uint64_t warm = stream->ops.size() / 10;
    for (const Op& op : stream->ops) {
      if (warm == 0) break;
      if (op.is_write) continue;
      stream->CopyParams(op, &params);
      (void)RunRead(env->db.get(), env->reads[op.query].plan, params,
                    window->spec->read_mode, nullptr);
      --warm;
    }
    log.Reserve(stream->ops.size() * 5 + 2 * kScanProbes);
    read_ns.reserve(stream->ops.size());
    write_ns.reserve(env->writes.empty() ? 0 : stream->ops.size());
    warmed->count_down();
    go->wait();

    uint64_t i = 0;
    for (const Op& op : stream->ops) {
      stream->CopyParams(op, &params);
      if (log.enabled()) Probe(op, params, i);
      ++i;
      const int64_t t0 = NowNs();
      const uint64_t root =
          log.Open(SpanKind::kOp, 0, op.is_write, op.query, t0);
      const Attempts a = RunWithRetries(kMaxAttempts, [&] {
        return op.is_write ? WriteAttempt(op, params, root)
                           : ReadAttempt(op, params, root);
      });
      const int64_t t1 = NowNs();
      log.Close(root, t1);
      tally.Add(op.is_write, a);
      if (a.committed) {
        (op.is_write ? write_ns : read_ns)
            .push_back(static_cast<double>(t1 - t0));
        const DictCode label = op.is_write
                                   ? window->creates[op.query]
                                   : poseidon::storage::kInvalidCode;
        if (label != poseidon::storage::kInvalidCode) {
          created.push_back({label, params[0].AsInt()});
        }
      } else if (first_error.empty()) {
        first_error = (op.is_write ? env->writes : env->reads)[op.query].name +
                      ": " + a.last.ToString();
      }
    }
    end_ns = NowNs();
  }
};

}  // namespace

Env::~Env() {
  db.reset();
  if (!options.path.empty()) {
    std::error_code ec;
    std::filesystem::remove(options.path, ec);
  }
}

Result<std::unique_ptr<Env>> Setup(const RunConfig& cfg,
                                   const std::string& pool_path,
                                   bool zero_media, SpanLog* log) {
  const WorkloadSpec& spec = *cfg.spec;
  auto env = std::make_unique<Env>();
  env->options.path = pool_path;
  env->options.query_threads = kQueryThreads;
  if (zero_media) {
    env->options.has_latency_override = true;
    env->options.latency_override = poseidon::pmem::LatencyModel::Dram();
  }

  const int64_t t0 = NowNs();
  uint64_t span = log->Open(SpanKind::kSetupCreate, 0, false, 0, t0);
  POSEIDON_ASSIGN_OR_RETURN(env->db, GraphDb::Create(env->options));
  const int64_t t1 = NowNs();
  log->Close(span, t1);
  env->create_ms = static_cast<double>(t1 - t0) / 1e6;

  GraphDb* db = env->db.get();
  ldbc::SnbConfig snb;
  snb.persons = kPersons;
  snb.seed = cfg.data_seed();
  span = log->Open(SpanKind::kSetupGenerate, 0, false, 0, t1);
  POSEIDON_ASSIGN_OR_RETURN(env->ds,
                            ldbc::GenerateSnb(db->txm(), db->store(), snb));
  const int64_t t2 = NowNs();
  log->Close(span, t2);
  env->generate_s = static_cast<double>(t2 - t1) / 1e9;

  if (spec.indexed) {
    span = log->Open(SpanKind::kSetupIndex, 0, false, 0, t2);
    POSEIDON_RETURN_IF_ERROR(ldbc::CreateSnbIndexes(
        db->indexes(), env->ds.schema, poseidon::index::Placement::kHybrid));
    const int64_t t3 = NowNs();
    log->Close(span, t3);
    env->index_ms = static_cast<double>(t3 - t2) / 1e6;
  }

  env->reads = ldbc::BuildShortReads(env->ds.schema, spec.indexed);
  if (spec.write_share > 0) {
    POSEIDON_ASSIGN_OR_RETURN(
        env->writes, ldbc::BuildUpdates(env->ds.schema, &db->store()->dict(),
                                        spec.indexed));
  }

  // Compile every read plan synchronously, one at a time. Updates run
  // kInterpret and need no code.
  Rng rng(kFixedParamSeed);
  for (size_t q = 0; q < env->reads.size(); ++q) {
    const ldbc::NamedQuery& read = env->reads[q];
    auto params = ldbc::DrawShortReadParams(env->ds, read.name, &rng);
    span = log->Open(SpanKind::kSetupCompile, 0, false,
                     static_cast<uint8_t>(q));
    ExecStats stats;
    auto r = RunRead(db, read.plan, params, ExecutionMode::kJit, &stats);
    log->Close(span);
    if (!r.ok()) return r.status();
    if (stats.jit_fallback) {
      return Status::Internal(read.name + " failed to compile");
    }
    env->compile_ms += stats.compile_ms;
  }
  env->setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  return env;
}

Status CheckModesAgree(Env* env, const WorkloadSpec& spec) {
  GraphDb* db = env->db.get();
  Rng rng(kFixedParamSeed);
  for (const ldbc::NamedQuery& read : env->reads) {
    for (int k = 0; k < kCheckDrawsPerPlan; ++k) {
      auto params = ldbc::DrawShortReadParams(env->ds, read.name, &rng);
      const std::string what =
          read.name + "(" + std::to_string(params[0].AsInt()) + ")";
      auto got = RunRead(db, read.plan, params, spec.read_mode, nullptr);
      if (!got.ok()) {
        return Status::Internal(what + ": " + got.status().ToString());
      }
      auto want =
          RunRead(db, read.plan, params, ExecutionMode::kInterpret, nullptr);
      if (!want.ok()) {
        return Status::Internal(what + ": " + want.status().ToString());
      }
      if (SortedRows(got->rows) != SortedRows(want->rows)) {
        return Status::Internal(
            what + ": " + spec.read_mode_name + " returned " +
            std::to_string(got->rows.size()) + " rows, interpret " +
            std::to_string(want->rows.size()) + ", or different rows");
      }
      if (SingleRow(read.name) && want->rows.size() != 1) {
        return Status::Internal(what + " returned " +
                                std::to_string(want->rows.size()) +
                                " rows instead of one");
      }
    }
  }
  return Status::Ok();
}

Counters Counters::Read(GraphDb* db) {
  Counters c;
  c.tx = db->txm()->Stats();
  c.adj = db->txm()->adjacency_cache().stats();
  const poseidon::pmem::PoolStats& ps = db->pool()->stats();
  c.alloc_calls = ps.alloc_calls.load(std::memory_order_relaxed);
  c.alloc_from_free_list =
      ps.alloc_from_free_list.load(std::memory_order_relaxed);
  c.flushed_lines = ps.flushed_lines.load(std::memory_order_relaxed);
  c.deduped_lines = ps.deduped_lines.load(std::memory_order_relaxed);
  c.drains = ps.drains.load(std::memory_order_relaxed);
  c.bytes_used = db->pool()->bytes_used();
  return c;
}

Result<Pass> RunWindow(Env* env, const WorkloadSpec& spec,
                       const std::vector<OpStream>& streams, bool traced) {
  GraphDb* db = env->db.get();
  const ldbc::SnbSchema& schema = env->ds.schema;
  Window window{env, &spec, traced, {}, {}, {}};
  for (const ldbc::NamedQuery& read : env->reads) {
    window.single_row.push_back(SingleRow(read.name));
    window.trees.push_back(
        traced && spec.indexed
            ? db->indexes()->Find(ReadLabel(schema, read.name), schema.id)
            : nullptr);
  }
  for (const ldbc::NamedQuery& write : env->writes) {
    window.creates.push_back(CreatedLabel(schema, write.name));
  }

  std::vector<Client> clients;
  clients.reserve(streams.size());
  for (size_t c = 0; c < streams.size(); ++c) {
    clients.emplace_back(&window, &streams[c], static_cast<uint32_t>(c + 1));
  }

  std::latch warmed(static_cast<std::ptrdiff_t>(clients.size()));
  std::latch go(1);
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (Client& client : clients) {
    threads.emplace_back([&client, &warmed, &go] { client.Run(&warmed, &go); });
  }
  warmed.wait();
  Pass pass;
  pass.before = Counters::Read(db);
  const int64_t start = NowNs();
  go.count_down();
  for (std::thread& t : threads) t.join();
  pass.after = Counters::Read(db);

  int64_t wall = 0;
  int64_t probe_free = 0;
  for (Client& c : clients) {
    wall = std::max(wall, c.end_ns - start);
    probe_free = std::max(probe_free, c.end_ns - start - c.probe_ns);
    pass.tally.Merge(c.tally);
    pass.read_ns.insert(pass.read_ns.end(), c.read_ns.begin(), c.read_ns.end());
    pass.write_ns.insert(pass.write_ns.end(), c.write_ns.begin(),
                         c.write_ns.end());
    pass.created.insert(pass.created.end(), c.created.begin(),
                        c.created.end());
    pass.bad_reads += c.bad_reads;
    if (pass.first_error.empty()) pass.first_error = c.first_error;
    pass.jit_reads += c.jit_reads;
    pass.memo_hits += c.memo_hits;
    pass.jit_morsels += c.jit_morsels;
    pass.interpreted_morsels += c.interpreted_morsels;
    pass.logs.push_back(std::move(c.log));
  }
  pass.wall_s = static_cast<double>(wall) / 1e9;
  pass.probe_free_s = static_cast<double>(probe_free) / 1e9;
  return pass;
}

Result<ReopenResult> CloseAndReopen(Env* env,
                                    const std::vector<Created>& created,
                                    int reopens, SpanLog* log) {
  ReopenResult out;
  const uint64_t nodes = env->db->store()->nodes().size();
  const uint64_t rels = env->db->store()->relationships().size();
  env->db.reset();
  for (int i = 0; i < reopens; ++i) {
    const int64_t t0 = NowNs();
    uint64_t span = log->Open(SpanKind::kReopen, 0, false, 0, t0);
    auto db = GraphDb::Open(env->options);
    const int64_t t1 = NowNs();
    log->Close(span, t1);
    if (!db.ok()) return db.status();
    out.reopen_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  }
  POSEIDON_ASSIGN_OR_RETURN(env->db, GraphDb::Open(env->options));
  GraphDb* db = env->db.get();
  if (db->recovered_from_crash()) {
    return Status::Internal("reopen after a clean close ran crash recovery");
  }
  const GraphDb::HealthReport health = db->Health();
  if (!health.recovery.status.ok()) {
    return Status::Internal("recovery status after reopen: " +
                            health.recovery.status.ToString());
  }
  out.nodes = db->store()->nodes().size();
  out.rels = db->store()->relationships().size();
  if (out.nodes != nodes || out.rels != rels) {
    return Status::Internal(
        "table sizes changed across reopen: nodes " + std::to_string(nodes) +
        " -> " + std::to_string(out.nodes) + ", relationships " +
        std::to_string(rels) + " -> " + std::to_string(out.rels));
  }
  for (const Created& c : created) {
    const poseidon::index::BPlusTree* tree =
        db->indexes()->Find(c.label, env->ds.schema.id);
    if (tree == nullptr) {
      return Status::Internal("no id index after reopen");
    }
    const uint64_t found = tree->LookupAll(c.id, [](const auto&, auto) {});
    if (found != 1) {
      return Status::Internal("created id " + std::to_string(c.id) +
                              " found " + std::to_string(found) +
                              " times through its index after reopen");
    }
  }
  if (reopens > 0) {
    // The engine's own options, so the lookup hits the code the set-up
    // compiles persisted (JitQueryEngine::Execute keys on the same fields).
    poseidon::jit::JitOptions options;
    options.scan = db->scan_options();
    options.adj_cache = db->adj_cache_enabled();
    for (const ldbc::NamedQuery& read : env->reads) {
      const int64_t t0 = NowNs();
      auto compiled = db->engine()->engine()->Compile(read.plan, options);
      const int64_t t1 = NowNs();
      if (!compiled.ok()) return compiled.status();
      out.cache_link_ms += static_cast<double>(t1 - t0) / 1e6;
      out.cache_hits += compiled->from_persistent_cache ? 1 : 0;
    }
  }
  return out;
}

double DramMb() {
  // Freed set-up heaps would otherwise stay resident in malloc's arenas.
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "RssAnon:", 8) == 0) {
      kb = std::strtod(line + 8, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace perfbench
