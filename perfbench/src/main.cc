// Gate benchmark entry point (see perfbench/README.md):
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --pool-dir <dir> [--trace-dir <dir>] [--git-sha <sha>]
//   perfbench --list-metrics
//
// perfbench/run.py builds this binary, gives each run a fresh pool
// directory and removes it afterwards. The last line of stdout is the
// result; any failed check exits 1 with a one-line reason on stderr.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "driver.h"
#include "metrics.h"
#include "pmem/psan.h"

namespace perfbench {
namespace {

using poseidon::Result;
using poseidon::Status;

constexpr int kSetupRepeats = 3;
constexpr int kReopens = 11;
constexpr uint64_t kOpsWrittenPerLog = 20000;
constexpr double kMiB = 1024.0 * 1024.0;
#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

struct Outcome {
  Report report;
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Check(const Status& s, const std::string& what) {
    if (!s.ok()) failures.push_back(what + ": " + s.ToString());
  }
};

std::string PoolPath(const RunConfig& cfg, const std::string& tag) {
  return cfg.pool_dir + "/" + cfg.spec->name + "-" + tag + ".pool";
}

std::vector<std::string> Names(
    const std::vector<poseidon::ldbc::NamedQuery>& queries) {
  std::vector<std::string> out;
  for (const auto& q : queries) out.push_back(q.name);
  return out;
}

std::vector<OpStream> Streams(const RunConfig& cfg, const Env& env) {
  return MakeOpStreams(*cfg.spec, env.ds, Names(env.reads), Names(env.writes),
                       OpsPerClient(*cfg.spec, cfg.seconds), cfg.op_seed());
}

std::string CpuModel() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        model = colon + 1;
        model.erase(0, model.find_first_not_of(' '));
        model.erase(model.find_last_not_of(" \n") + 1);
      }
      break;
    }
  }
  std::fclose(f);
  return model;
}

/// The host and config block every result carries.
void PrintHostAndConfig(const RunConfig& cfg, const Env& env) {
  const WorkloadSpec& spec = *cfg.spec;
  const poseidon::pmem::LatencyModel& lat = env.db->pool()->latency();
  std::printf(
      "host: {\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"git_sha\": \"%s\"}\n",
      std::thread::hardware_concurrency(), CpuModel().c_str(), kCompiler,
      PERFBENCH_BUILD_TYPE, cfg.git_sha.c_str());
  std::printf(
      "config: {\"workload\": \"%s\", \"seed\": %llu, \"data_seed\": %llu, "
      "\"op_seed\": %llu, \"seconds\": %llu, \"trace\": %d, "
      "\"persons\": %llu, \"clients\": %d, \"ops_per_client\": %llu, "
      "\"write_share\": %g, \"read_mode\": \"%s\", \"indexed\": %s, "
      "\"query_threads\": %zu, \"setup_repeats\": %d, "
      "\"latency_ns\": {\"read_block\": %llu, \"flush_line\": %llu, "
      "\"drain\": %llu}}\n",
      spec.name, static_cast<unsigned long long>(cfg.seed),
      static_cast<unsigned long long>(cfg.data_seed()),
      static_cast<unsigned long long>(cfg.op_seed()),
      static_cast<unsigned long long>(cfg.seconds), cfg.trace ? 1 : 0,
      static_cast<unsigned long long>(kPersons), spec.clients,
      static_cast<unsigned long long>(OpsPerClient(spec, cfg.seconds)),
      spec.write_share, spec.read_mode_name, spec.indexed ? "true" : "false",
      kQueryThreads, cfg.trace ? 1 : kSetupRepeats,
      static_cast<unsigned long long>(lat.read_block_ns),
      static_cast<unsigned long long>(lat.flush_line_ns),
      static_cast<unsigned long long>(lat.drain_ns));
}

/// Latencies of a pass in microseconds.
void SetLatency(Report* r, const std::string& prefix,
                std::vector<double>* samples_ns) {
  const Summary s = Summarize(samples_ns);
  r->Set(prefix + "_p50_us", s.p50 / 1e3, s.n);
  r->Set(prefix + "_p99_us", s.p99 / 1e3, s.n);
}

void CheckWindow(const Pass& pass, Outcome* out) {
  if (pass.bad_reads != 0) {
    out->failures.push_back(std::to_string(pass.bad_reads) +
                            " single-entity reads did not return one row");
  }
  if (!pass.first_error.empty()) {
    std::printf("first failed op: %s\n", pass.first_error.c_str());
  }
}

void CheckPsan(Outcome* out) {
  if (poseidon::pmem::PsanTotalViolations() != 0) {
    out->failures.push_back(
        "persist-order violations: " +
        std::to_string(poseidon::pmem::PsanTotalViolations()));
  }
}

/// The measured run: end-to-end metrics with tracing off.
Status RunMeasured(const RunConfig& cfg, Outcome* out) {
  const WorkloadSpec& spec = *cfg.spec;
  SpanLog off(0, false);
  std::vector<double> setups;
  std::unique_ptr<Env> env;
  for (int i = 0; i < kSetupRepeats; ++i) {
    env.reset();
    POSEIDON_ASSIGN_OR_RETURN(
        env, Setup(cfg, PoolPath(cfg, "setup" + std::to_string(i)), false,
                   &off));
    setups.push_back(env->setup_s);
  }
  PrintHostAndConfig(cfg, *env);
  std::vector<OpStream> streams = Streams(cfg, *env);
  out->Check(CheckModesAgree(env.get(), spec), "modes disagree");
  POSEIDON_ASSIGN_OR_RETURN(Pass pass,
                            RunWindow(env.get(), spec, streams, false));
  CheckWindow(pass, out);

  Report& r = out->report;
  r.Set("setup_s", Median(setups), setups.size());
  r.Set("ops_per_s",
        static_cast<double>(pass.tally.committed) / pass.wall_s,
        pass.tally.committed);
  SetLatency(&r, "read", &pass.read_ns);
  SetLatency(&r, "write", &pass.write_ns);
  r.Set("ok_ratio", pass.tally.ok_ratio(), pass.tally.attempted);
  r.Set("pool_mb", static_cast<double>(pass.after.bytes_used) / kMiB);
  // The op streams and latency samples are the benchmark's, not the
  // engine's: release them before reading the resident set.
  streams = {};
  pass.read_ns = {};
  pass.write_ns = {};
  r.Set("dram_mb", DramMb());
  out->attempted = pass.tally.attempted;
  out->failed = pass.tally.failed;
  // The write latencies are the only per-layer metrics a measured run sets.
  if (spec.write_share > 0) std::printf("writes:\n%s", r.Text(true).c_str());

  auto reopened = CloseAndReopen(env.get(), pass.created, 0, &off);
  out->Check(reopened.status(), "reopen check");
  env.reset();
  CheckPsan(out);
  return Status::Ok();
}

/// Writes a traced pass's spans to <trace_dir>/<workload>.<tag>.tsv and
/// frees them.
void WriteTrace(const RunConfig& cfg, const std::string& tag, SpanLog main_log,
                std::vector<SpanLog>* client_logs, Outcome* out) {
  std::vector<SpanLog> logs;
  logs.push_back(std::move(main_log));
  for (SpanLog& l : *client_logs) logs.push_back(std::move(l));
  client_logs->clear();
  if (cfg.trace_dir.empty()) return;
  const std::string path =
      cfg.trace_dir + "/" + cfg.spec->name + "." + tag + ".tsv";
  if (!WriteSpans(path, logs, kOpsWrittenPerLog)) {
    out->failures.push_back("cannot write spans to " + path);
    return;
  }
  std::printf("spans: %s (first %llu ops per client)\n", path.c_str(),
              static_cast<unsigned long long>(kOpsWrittenPerLog));
}

/// count * scale / base, or NaN (n/a) when there is no base.
double Per(uint64_t count, uint64_t base, double scale = 1.0) {
  return base == 0
             ? NAN
             : static_cast<double>(count) * scale / static_cast<double>(base);
}

/// Median of `samples` (ns) as `name`, divided by `scale`.
void SetP50(Report* r, const std::string& name, std::vector<double>* samples,
            double scale) {
  const Summary s = Summarize(samples);
  r->Set(name, s.p50 / scale, s.n);
}

/// Layer timings from the spans of a traced window.
void SetSpanMetrics(const std::vector<SpanLog>& logs, Report* r) {
  std::vector<double> op_self, ro_begin, ro_commit, rw_begin, rw_commit,
      read_exec, write_exec, lookup, scan;
  for (const SpanLog& log : logs) {
    const std::vector<int64_t> child = log.ChildTimeNs();
    for (size_t i = 0; i < log.spans().size(); ++i) {
      const Span& s = log.spans()[i];
      const auto d = static_cast<double>(s.end_ns - s.start_ns);
      switch (s.kind) {
        case SpanKind::kOp:
          op_self.push_back(d - static_cast<double>(child[i]));
          break;
        case SpanKind::kTxBegin:
          (s.is_write ? rw_begin : ro_begin).push_back(d);
          break;
        case SpanKind::kQueryExecute:
          (s.is_write ? write_exec : read_exec).push_back(d);
          break;
        case SpanKind::kTxCommit:
          (s.is_write ? rw_commit : ro_commit).push_back(d);
          break;
        case SpanKind::kIndexLookup:
          lookup.push_back(d);
          break;
        case SpanKind::kStorageScan:
          scan.push_back(d);
          break;
        default:
          break;
      }
    }
  }
  SetP50(r, "op.self_p50_us", &op_self, 1e3);
  SetP50(r, "index.lookup_p50_ns", &lookup, 1);
  SetP50(r, "storage.table_scan_ms", &scan, 1e6);
  SetLatency(r, "query.read_exec", &read_exec);
  SetP50(r, "query.write_exec_p50_us", &write_exec, 1e3);
  SetP50(r, "tx.ro_begin_p50_us", &ro_begin, 1e3);
  SetP50(r, "tx.ro_commit_p50_us", &ro_commit, 1e3);
  SetP50(r, "tx.rw_begin_p50_us", &rw_begin, 1e3);
  SetLatency(r, "tx.rw_commit", &rw_commit);
}

/// Counter deltas of a traced window, per committed write or per read.
void SetCounterMetrics(const Pass& pass,
                       const poseidon::pmem::LatencyModel& lat, Report* r) {
  const Counters& b = pass.before;
  const Counters& a = pass.after;
  const uint64_t reads = pass.tally.reads;
  const uint64_t writes = pass.tally.writes_committed;
  r->Set("tx.conflict_aborts_per_kwrite",
         Per(a.tx.aborts_conflict - b.tx.aborts_conflict,
             pass.tally.write_attempts, 1000));
  r->Set("tx.group_drains_per_commit",
         Per(a.tx.group_drains - b.tx.group_drains, writes));
  r->Set("tx.read_retries_per_kread",
         Per(a.tx.read_retries - b.tx.read_retries, reads, 1000));
  r->Set("tx.snapshot_fallbacks_per_kread",
         Per(a.tx.snapshot_fallbacks - b.tx.snapshot_fallbacks, reads,
             1000));
  r->Set("tx.rts_skipped_per_read",
         Per(a.tx.rts_skipped - b.tx.rts_skipped, reads));
  r->Set("tx.rts_deferred_per_read",
         Per(a.tx.rts_deferred - b.tx.rts_deferred, reads));
  const uint64_t adj_hits = a.adj.hits - b.adj.hits;
  r->Set("adj.hit_ratio",
         Per(adj_hits, adj_hits + (a.adj.misses - b.adj.misses)));
  r->Set("adj.invalidations_per_write",
         Per(a.adj.invalidations - b.adj.invalidations, writes));
  r->Set("adj.mb", static_cast<double>(a.adj.bytes) / kMiB);
  const uint64_t flushed = a.flushed_lines - b.flushed_lines;
  const uint64_t drains = a.drains - b.drains;
  r->Set("pmem.flushed_lines_per_write", Per(flushed, writes));
  r->Set("pmem.deduped_lines_per_write",
         Per(a.deduped_lines - b.deduped_lines, writes));
  r->Set("pmem.drains_per_write", Per(drains, writes));
  r->Set("pmem.modeled_persist_us_per_write",
         Per(flushed * lat.flush_line_ns + drains * lat.drain_ns, writes,
             1e-3));
  const uint64_t allocs = a.alloc_calls - b.alloc_calls;
  r->Set("pmem.allocs_per_write", Per(allocs, writes));
  r->Set("pmem.free_list_alloc_ratio",
         Per(a.alloc_from_free_list - b.alloc_from_free_list, allocs));
  r->Set("pmem.bytes_per_write", Per(a.bytes_used - b.bytes_used, writes));
}

/// The traced run: an untraced pass (for the tracing overhead), a traced
/// pass (spans, probes, counters, reopen), and a traced zero-media pass.
Status RunTraced(const RunConfig& cfg, Outcome* out) {
  const WorkloadSpec& spec = *cfg.spec;
  Report& r = out->report;
  SpanLog off(0, false);

  // Pass A: as the measured run, tracing off.
  double untraced_ops_per_s = 0;
  {
    POSEIDON_ASSIGN_OR_RETURN(auto env,
                              Setup(cfg, PoolPath(cfg, "untraced"), false,
                                    &off));
    PrintHostAndConfig(cfg, *env);
    const std::vector<OpStream> streams = Streams(cfg, *env);
    out->Check(CheckModesAgree(env.get(), spec), "modes disagree");
    POSEIDON_ASSIGN_OR_RETURN(Pass pass,
                              RunWindow(env.get(), spec, streams, false));
    CheckWindow(pass, out);
    untraced_ops_per_s =
        static_cast<double>(pass.tally.committed) / pass.wall_s;
    SetLatency(&r, "write", &pass.write_ns);
    std::printf("untraced pass: ops_per_s = %s\n",
                FormatDouble(untraced_ops_per_s).c_str());
  }

  // Pass B: traced, emulated PMem.
  SpanLog main_log(0, true);
  POSEIDON_ASSIGN_OR_RETURN(
      auto env, Setup(cfg, PoolPath(cfg, "traced"), false, &main_log));
  const std::vector<OpStream> streams = Streams(cfg, *env);
  POSEIDON_ASSIGN_OR_RETURN(Pass pass,
                            RunWindow(env.get(), spec, streams, true));
  CheckWindow(pass, out);
  out->attempted = pass.tally.attempted;
  out->failed = pass.tally.failed;
  const double traced_ops_per_s =
      static_cast<double>(pass.tally.committed) / pass.probe_free_s;
  r.Set("trace.overhead", untraced_ops_per_s / traced_ops_per_s);
  std::printf("traced pass: ops_per_s = %s (probe time excluded)\n",
              FormatDouble(traced_ops_per_s).c_str());

  r.Set("core.create_ms", env->create_ms);
  r.Set("ldbc.generate_s", env->generate_s);
  r.Set("index.build_ms", spec.indexed ? env->index_ms : NAN);
  r.Set("jit.compile_ms", env->compile_ms, env->reads.size());
  r.Set("jit.memo_hit_ratio", Per(pass.memo_hits, pass.jit_reads),
        pass.jit_reads);
  r.Set("jit.compiled_morsel_ratio",
        Per(pass.jit_morsels, pass.jit_morsels + pass.interpreted_morsels),
        pass.jit_morsels + pass.interpreted_morsels);

  SetSpanMetrics(pass.logs, &r);
  SetCounterMetrics(pass, env->db->pool()->latency(), &r);

  auto reopened = CloseAndReopen(env.get(), pass.created, kReopens, &main_log);
  out->Check(reopened.status(), "reopen check");
  if (reopened.ok()) {
    r.Set("core.reopen_ms", Median(reopened->reopen_ms),
          reopened->reopen_ms.size());
    r.Set("jit.cache_link_ms", reopened->cache_link_ms, reopened->cache_hits);
    r.Set("storage.nodes", static_cast<double>(reopened->nodes));
    r.Set("storage.rels", static_cast<double>(reopened->rels));
    if (reopened->cache_hits != env->reads.size()) {
      std::printf("note: %llu of %zu plans linked from the query cache\n",
                  static_cast<unsigned long long>(reopened->cache_hits),
                  env->reads.size());
    }
  }
  env.reset();
  WriteTrace(cfg, "pmem", std::move(main_log), &pass.logs, out);

  // Pass C: the same traced workload with LatencyModel::Dram().
  SpanLog zero_log(0, true);
  POSEIDON_ASSIGN_OR_RETURN(
      auto zero_env, Setup(cfg, PoolPath(cfg, "zero_media"), true, &zero_log));
  POSEIDON_ASSIGN_OR_RETURN(Pass zero,
                            RunWindow(zero_env.get(), spec, streams, true));
  CheckWindow(zero, out);
  zero_env.reset();
  const Summary pr = Summarize(&pass.read_ns);
  const Summary zr = Summarize(&zero.read_ns);
  const Summary pw = Summarize(&pass.write_ns);
  const Summary zw = Summarize(&zero.write_ns);
  r.Set("pmem.media_share_read", 1.0 - zr.p50 / pr.p50, zr.n);
  r.Set("pmem.media_share_write", 1.0 - zw.p50 / pw.p50, zw.n);
  std::printf(
      "zero-media pass: read_p50_us = %s vs %s traced, write_p50_us = %s vs "
      "%s traced, ops_per_s = %s\n",
      FormatDouble(zr.p50 / 1e3).c_str(), FormatDouble(pr.p50 / 1e3).c_str(),
      std::isnan(zw.p50) ? "n/a" : FormatDouble(zw.p50 / 1e3).c_str(),
      std::isnan(pw.p50) ? "n/a" : FormatDouble(pw.p50 / 1e3).c_str(),
      FormatDouble(static_cast<double>(zero.tally.committed) /
                   zero.probe_free_s)
          .c_str());

  WriteTrace(cfg, "zero_media", std::move(zero_log), &zero.logs, out);
  CheckPsan(out);
  return Status::Ok();
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --pool-dir <dir> [--trace-dir <dir>] "
               "[--git-sha <sha>]\n       perfbench --list-metrics\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig cfg;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      std::vector<std::string> names;
      for (const WorkloadSpec& w : Workloads()) names.push_back(w.name);
      std::printf("%s\n", CatalogJson(names).c_str());
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const char* v = argv[++i];
    if (arg == "--workload") {
      workload = v;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtoull(v, nullptr, 10);
    } else if (arg == "--trace") {
      cfg.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--pool-dir") {
      cfg.pool_dir = v;
    } else if (arg == "--trace-dir") {
      cfg.trace_dir = v;
    } else if (arg == "--git-sha") {
      cfg.git_sha = v;
    } else {
      return Usage();
    }
  }
  cfg.spec = FindWorkload(workload);
  if (cfg.spec == nullptr || cfg.pool_dir.empty() || cfg.seconds == 0) {
    return Usage();
  }

  Outcome out;
  const Status s = cfg.trace ? RunTraced(cfg, &out) : RunMeasured(cfg, &out);
  if (!s.ok()) {
    std::fflush(stdout);
    std::fprintf(stderr, "FAIL: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("%s metrics:\n%s", cfg.trace ? "per-layer" : "end-to-end",
              out.report.Text(cfg.trace).c_str());
  std::string missing;
  const std::string json =
      out.report.Json(cfg.trace, out.failures.empty(), out.attempted,
                      out.failed, &missing);
  if (json.empty()) {
    std::fflush(stdout);
    std::fprintf(stderr, "FAIL: metric %s has no value\n", missing.c_str());
    return 1;
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  if (!out.failures.empty()) {
    std::fprintf(stderr, "FAIL: %s\n", out.failures.front().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
