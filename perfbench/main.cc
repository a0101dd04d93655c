// Repository benchmark program: builds one workload from a seed, runs its
// statement stream for a fixed time and reports the end-to-end metrics, or
// with --trace 1 the per-layer metrics of a traced run. See README.md.
//
// Usage:
//   qopt_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --spill-dir DIR --out FILE [--trace-out FILE]
// Prints the metrics; writes them, the host and one result digest per pool
// statement to --out as JSON (run.py turns that into the result line) and,
// with --trace 1, every span to --trace-out.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "staged.h"

namespace qopt::perfbench {
namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Traced open-loop statements run the drain probe once in this many, so
/// that the probe's second execution does not overload the fixed rate.
constexpr uint64_t kOpenLoopProbeEvery = 4;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spill_dir;
  std::string out;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      a->trace = val == "1";
    } else if (key == "--spill-dir") {
      a->spill_dir = val;
    } else if (key == "--out") {
      a->out = val;
    } else if (key == "--trace-out") {
      a->trace_out = val;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 && !a->spill_dir.empty() &&
         !a->out.empty();
}

/// Result agreement per pool entry: how often each digest was seen, to be
/// compared with the oracle's digest once the run is over.
class Checker {
 public:
  explicit Checker(size_t n) : seen_(n) {}

  void Observe(size_t entry, const ResultDigest& d) {
    std::lock_guard<std::mutex> lock(mu_);
    ++seen_[entry][{d.rows, d.checksum}];
  }
  uint64_t Observations(size_t entry) const {
    uint64_t n = 0;
    for (const auto& [digest, count] : seen_[entry]) n += count;
    return n;
  }
  /// Observations of `entry` whose digest differs from `oracle`.
  uint64_t Wrong(size_t entry, const ResultDigest& oracle) const {
    uint64_t wrong = 0;
    for (const auto& [digest, count] : seen_[entry]) {
      if (digest != std::make_pair(oracle.rows, oracle.checksum)) {
        wrong += count;
      }
    }
    return wrong;
  }

 private:
  std::mutex mu_;
  std::vector<std::map<std::pair<uint64_t, uint64_t>, uint64_t>> seen_;
};

/// One executed stream position.
struct Record {
  StreamItem::Kind kind = StreamItem::Kind::kQuery;
  /// From the position's due time (open loop) or its start (closed loop)
  /// to completion.
  double latency_ms = 0;
  double service_ms = 0;  ///< From start to completion.
  double late_ms = 0;     ///< Start minus due time (open loop).
  bool ok = true;
  bool shed = false;
  size_t query = 0;  ///< Pool index (kQuery).
  uint64_t result_rows = 0;
  StagedResult staged;  ///< Traced reads only; rows dropped after checking.
};

struct PhaseResult {
  std::vector<Record> records;
  double wall_s = 0;
  double check_ms = 0;  ///< Result checking done between statements.
  uint64_t acked_inserts = 0;
  std::vector<Span> spans;
};

/// Runs the stream from position `*next` for `seconds`: through Session
/// calls, or with `staged` through the staged path with spans.
PhaseResult RunPhase(const Workload& w, double seconds,
                     std::atomic<uint64_t>* next, Checker* checker,
                     StagedRunner* staged, Clock::time_point epoch) {
  const bool open = w.rate_per_s > 0;
  const uint64_t probe_every = open ? kOpenLoopProbeEvery : 1;
  const uint64_t first = next->load();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  struct ClientLog {
    std::vector<Record> records;
    double check_ms = 0;
    uint64_t acked_inserts = 0;
  };
  std::vector<ClientLog> logs(static_cast<size_t>(w.clients));
  std::vector<Tracer> tracers;
  for (int c = 0; c < w.clients; ++c) {
    tracers.emplace_back(epoch, static_cast<uint64_t>(c) + 1);
  }
  auto client = [&](size_t c) {
    Session session = w.db->OpenSession();
    ClientLog& log = logs[c];
    Tracer& tracer = tracers[c];
    for (;;) {
      const uint64_t k = next->fetch_add(1);
      Clock::time_point due = Clock::now();
      if (open) {
        due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              static_cast<double>(k - first) / w.rate_per_s));
        if (due >= end) break;
        std::this_thread::sleep_until(due);
      } else if (due >= end) {
        break;
      }
      const Clock::time_point begin = Clock::now();
      const StreamItem item = w.At(k);
      Record rec;
      rec.kind = item.kind;
      rec.query = item.query;
      rec.late_ms = open ? Ms(begin - due) : 0;
      Status status;
      if (item.kind == StreamItem::Kind::kQuery) {
        const PoolQuery& q = w.pool[item.query];
        std::vector<Row> rows;
        if (staged != nullptr) {
          rec.staged = staged->Run(q, k, k % probe_every == 0, &tracer);
          status = rec.staged.status;
          rows = std::move(rec.staged.rows);
          rec.staged.rows = {};
        } else {
          Result<QueryResult> res = session.Query(q.sql, q.options);
          status = res.status();
          if (res.ok()) rows = std::move(res->rows);
        }
        const Clock::time_point done = Clock::now();
        rec.latency_ms = Ms(done - due);
        rec.service_ms = Ms(done - begin);
        if (staged != nullptr) {
          // The probes ran after the statement's root span; they are the
          // benchmark's work, not the statement's.
          rec.service_ms = rec.staged.statement_ms;
          rec.latency_ms = Ms(begin - due) + rec.service_ms;
        }
        if (status.ok()) {
          rec.result_rows = rows.size();
          checker->Observe(item.query, Digest(rows));
          log.check_ms += Ms(Clock::now() - done);
        }
      } else {
        const bool insert = item.kind == StreamItem::Kind::kInsert;
        const size_t s =
            staged != nullptr
                ? tracer.Start(insert ? "session.Execute" : "session.Analyze",
                               0, k)
                : 0;
        status = insert ? session.Execute(item.sql)
                        : session.Analyze(item.sql);
        if (staged != nullptr) tracer.End(s);
        const Clock::time_point done = Clock::now();
        rec.latency_ms = Ms(done - due);
        rec.service_ms = Ms(done - begin);
        if (insert && status.ok()) ++log.acked_inserts;
      }
      rec.ok = status.ok();
      rec.shed = status.code() == StatusCode::kUnavailable;
      if (!status.ok()) {
        std::fprintf(stderr, "statement %llu failed: %s\n",
                     static_cast<unsigned long long>(k),
                     status.ToString().c_str());
      }
      log.records.push_back(std::move(rec));
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < logs.size(); ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();

  PhaseResult r;
  r.wall_s = Ms(Clock::now() - start) / 1e3;
  for (size_t c = 0; c < logs.size(); ++c) {
    for (Record& rec : logs[c].records) r.records.push_back(std::move(rec));
    r.check_ms += logs[c].check_ms;
    r.acked_inserts += logs[c].acked_inserts;
    const std::vector<Span>& spans = tracers[c].spans();
    r.spans.insert(r.spans.end(), spans.begin(), spans.end());
  }
  return r;
}

/// Runs every pool statement once through a session: fills the plan cache
/// (parametric plans included), creates the thread pool, touches the data.
Status WarmUp(const Workload& w, Checker* checker) {
  Session session = w.db->OpenSession();
  for (size_t i = 0; i < w.pool.size(); ++i) {
    Result<QueryResult> r = session.Query(w.pool[i].sql, w.pool[i].options);
    if (!r.ok()) return r.status();
    checker->Observe(i, Digest(r->rows));
  }
  return Status::OK();
}

/// Linear-interpolated percentile (p in [0, 100]); 0 for no samples.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// The oracle: row engine, no plan cache, no feedback, no compiled
/// expressions, no spill, no governor, Selinger.
QueryOptions OracleOptions() {
  QueryOptions o;
  o.execution_mode = exec::ExecMode::kRow;
  o.use_plan_cache = false;
  o.use_feedback = false;
  o.compile_expressions = false;
  o.spill.enabled = false;
  return o;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<double> Latencies(const PhaseResult& p) {
  std::vector<double> v;
  for (const Record& r : p.records) {
    if (r.ok) v.push_back(r.latency_ms);
  }
  return v;
}

void EndToEndMetrics(const Workload& w, const PhaseResult& p,
                     std::vector<Metric>* m) {
  std::vector<double> writes;
  std::vector<double> late;
  uint64_t ok = 0;
  for (const Record& r : p.records) {
    late.push_back(r.late_ms);
    if (!r.ok) continue;
    ++ok;
    if (r.kind == StreamItem::Kind::kInsert) writes.push_back(r.latency_ms);
  }
  const std::vector<double> lat = Latencies(p);
  // A closed loop's client also checks each result before sending the
  // next statement; that time is the benchmark's, not the system's.
  const double busy_s =
      w.rate_per_s > 0 ? p.wall_s
                       : p.wall_s - p.check_ms / 1e3 / std::max(1, w.clients);
  m->push_back({"latency_p50_ms", Percentile(lat, 50), "ms"});
  m->push_back({"latency_p90_ms", Percentile(lat, 90), "ms"});
  m->push_back({"latency_p99_ms", Percentile(lat, 99), "ms"});
  m->push_back({"throughput_qps", Ratio(static_cast<double>(ok), busy_s),
                "stmt/s"});
  m->push_back({"write_latency_p50_ms", Percentile(writes, 50), "ms"});
  m->push_back({"generator_late_p99_ms", Percentile(late, 99), "ms"});
  m->push_back({"samples", static_cast<double>(lat.size()), "count"});
}

/// Engine counters read before and after the traced phase.
struct Counters {
  PlanCacheStats cache;
  uint64_t admitted = 0;
  uint64_t queued = 0;
  uint64_t expr_compiled = 0;
  uint64_t expr_fallback = 0;
};

Counters ReadCounters(Database* db) {
  Counters c;
  c.cache = db->plan_cache().stats();
  c.admitted = db->serving()->admission.admitted();
  c.queued = db->serving()->admission.queued();
  c.expr_compiled = db->metrics().GetCounter("expr.compiled")->Value();
  c.expr_fallback = db->metrics().GetCounter("expr.fallback")->Value();
  return c;
}

void LayerMetrics(const PhaseResult& traced, const PhaseResult& plain,
                  const Counters& before, const Counters& after,
                  std::vector<Metric>* m) {
  std::vector<double> parse, fingerprint, bind, rewrite, enumerate, costed,
      applications, degraded, admit, build, drain, materialize, critical,
      scanned, touches, spill_runs, spill_bytes, unattributed, analyze,
      plan_share, exec_share;
  double trips = 0;
  for (const Record& rec : traced.records) {
    if (rec.kind == StreamItem::Kind::kAnalyze && rec.ok) {
      analyze.push_back(rec.service_ms);
    }
    if (rec.kind != StreamItem::Kind::kQuery || !rec.ok) continue;
    const StagedResult& s = rec.staged;
    parse.push_back(s.parse_us);
    fingerprint.push_back(s.fingerprint_us);
    bind.push_back(s.bind_us);
    rewrite.push_back(s.rewrite_us);
    enumerate.push_back(s.compiled ? std::max(0.0, s.optimize_us - s.rewrite_us)
                                   : 0.0);
    costed.push_back(static_cast<double>(s.plans_costed));
    applications.push_back(static_cast<double>(s.rewrite_applications));
    if (s.compiled) degraded.push_back(s.degraded ? 1 : 0);
    admit.push_back(s.admit_ms);
    if (s.probed) {
      build.push_back(s.build_us);
      drain.push_back(s.drain_ms);
      materialize.push_back(
          std::max(0.0, s.execute_all_ms - s.build_us / 1e3 - s.drain_ms));
      critical.push_back(Ratio(s.critical_cpu_ms, s.drain_ms));
    }
    scanned.push_back(static_cast<double>(s.exec_stats.rows_scanned) /
                      static_cast<double>(std::max<uint64_t>(1, rec.result_rows)));
    touches.push_back(static_cast<double>(s.exec_stats.page_touches));
    spill_runs.push_back(static_cast<double>(s.exec_stats.spill_runs));
    spill_bytes.push_back(static_cast<double>(s.exec_stats.spill_bytes_written));
    unattributed.push_back(1.0 - Ratio(s.attributed_ms, s.statement_ms));
    plan_share.push_back(
        Ratio((s.bind_us + s.optimize_us) / 1e3, s.statement_ms));
    exec_share.push_back(Ratio(s.execute_all_ms, s.statement_ms));
    trips += static_cast<double>(s.governor_trips);
  }
  const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const double lookups =
      hits + static_cast<double>(after.cache.misses - before.cache.misses) +
      static_cast<double>(after.cache.invalidations -
                          before.cache.invalidations);
  const double plain_p50 = Percentile(Latencies(plain), 50);
  const double traced_p50 = Percentile(Latencies(traced), 50);
  m->push_back({"parser.parse_us", Percentile(parse, 50), "us"});
  m->push_back({"plan.fingerprint_us", Percentile(fingerprint, 50), "us"});
  m->push_back({"engine.plan_cache.hit_ratio", Ratio(hits, lookups), "ratio"});
  m->push_back({"engine.admission.wait_ms", Mean(admit), "ms"});
  m->push_back({"engine.admission.queued_share",
                Ratio(static_cast<double>(after.queued - before.queued),
                      static_cast<double>(after.admitted - before.admitted)),
                "ratio"});
  m->push_back({"engine.plan_cache.invalidations",
                static_cast<double>(after.cache.invalidations -
                                    before.cache.invalidations),
                "count"});
  m->push_back({"stats.analyze_ms", Percentile(analyze, 50), "ms"});
  m->push_back({"plan.bind_us", Percentile(bind, 50), "us"});
  m->push_back({"optimizer.rewrite_us", Percentile(rewrite, 50), "us"});
  m->push_back({"optimizer.rewrite_applications",
                Percentile(applications, 50), "count"});
  m->push_back({"optimizer.enumerate_us", Percentile(enumerate, 50), "us"});
  m->push_back({"optimizer.plans_costed", Percentile(costed, 50), "count"});
  m->push_back({"optimizer.degraded_share", Mean(degraded), "ratio"});
  m->push_back({"exec.build_us", Percentile(build, 50), "us"});
  m->push_back({"exec.drain_ms", Percentile(drain, 50), "ms"});
  m->push_back({"exec.materialize_ms", Percentile(materialize, 50), "ms"});
  m->push_back({"exec.parallel.critical_share", Percentile(critical, 50),
                "ratio"});
  m->push_back(
      {"exec.expr.compiled_share",
       Ratio(static_cast<double>(after.expr_compiled - before.expr_compiled),
             static_cast<double>(after.expr_compiled - before.expr_compiled +
                                 after.expr_fallback - before.expr_fallback)),
       "ratio"});
  m->push_back({"storage.rows_scanned_per_row_out", Percentile(scanned, 50),
                "ratio"});
  m->push_back({"storage.page_touches", Percentile(touches, 50), "count"});
  m->push_back({"storage.spill.runs", Percentile(spill_runs, 50), "count"});
  m->push_back({"storage.spill.bytes", Percentile(spill_bytes, 50), "B"});
  m->push_back({"engine.governor.trips", trips, "count"});
  m->push_back({"trace.unattributed_share", Percentile(unattributed, 50),
                "ratio"});
  m->push_back({"trace.overhead_share",
                plain_p50 > 0 ? traced_p50 / plain_p50 - 1 : 0, "ratio"});
  // Shares of statement time: bind + rewrite + enumerate (compile) and
  // ExecuteAll (drain + materialize), as medians over statements.
  m->push_back({"trace.compile_share", Percentile(plan_share, 50), "ratio"});
  m->push_back({"trace.execute_share", Percentile(exec_share, 50), "ratio"});
  m->push_back({"trace.statements", static_cast<double>(parse.size()),
                "count"});
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

bool WriteSpans(const std::string& path, const Args& a,
                const std::vector<Span>& spans) {
  std::ofstream f(path);
  f << "{\"workload\": " << Quote(a.workload) << ", \"seed\": " << a.seed
    << ", \"spans\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << (i ? ",\n" : "\n") << "{\"name\": " << Quote(s.name)
      << ", \"id\": " << s.id << ", \"parent\": " << s.parent
      << ", \"stmt\": " << s.stmt << ", \"start_us\": " << Num(s.start_ns / 1e3)
      << ", \"end_us\": " << Num(s.end_ns / 1e3) << "}";
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: qopt_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --spill-dir DIR --out FILE [--trace-out FILE]\n");
    return 2;
  }
  Workload w;
  std::unique_ptr<Checker> checker;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    w = Workload();  // Frees the previous repetition's database first.
    const Clock::time_point t0 = Clock::now();
    Result<Workload> built =
        BuildWorkload(args.workload, args.seed, args.spill_dir);
    if (!built.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    w = std::move(*built);
    checker = std::make_unique<Checker>(w.pool.size());
    const Status warm = WarmUp(w, checker.get());
    if (!warm.ok()) {
      std::fprintf(stderr, "warm-up failed: %s\n", warm.ToString().c_str());
      return 1;
    }
    setup_s.push_back(Ms(Clock::now() - t0) / 1e3);
  }

  std::atomic<uint64_t> next{0};
  const Clock::time_point epoch = Clock::now();
  const double plain_seconds = args.trace ? args.seconds / 2 : args.seconds;
  PhaseResult plain =
      RunPhase(w, plain_seconds, &next, checker.get(), nullptr, epoch);
  PhaseResult traced;
  Counters before, after;
  if (args.trace) {
    StagedRunner staged(w.db.get());
    before = ReadCounters(w.db.get());
    traced = RunPhase(w, args.seconds - plain_seconds, &next, checker.get(),
                      &staged, epoch);
    after = ReadCounters(w.db.get());
  }
  const double peak_rss_mb = PeakRssMb();

  // Verification: each pool entry's observed results against the oracle,
  // and every acknowledged INSERT visible.
  const QueryOptions oracle = OracleOptions();
  std::vector<ResultDigest> expected(w.pool.size());
  uint64_t wrong = 0;
  for (size_t i = 0; i < w.pool.size(); ++i) {
    Result<QueryResult> res = w.db->Query(w.pool[i].sql, oracle);
    if (!res.ok()) {
      std::fprintf(stderr, "oracle failed on %s: %s\n", w.pool[i].sql.c_str(),
                   res.status().ToString().c_str());
      wrong += std::max<uint64_t>(1, checker->Observations(i));
      continue;
    }
    expected[i] = Digest(res->rows);
    const uint64_t bad = checker->Wrong(i, expected[i]);
    if (bad > 0) {
      std::fprintf(stderr, "result mismatch (%llu of %llu runs): %s\n",
                   static_cast<unsigned long long>(bad),
                   static_cast<unsigned long long>(checker->Observations(i)),
                   w.pool[i].sql.c_str());
    }
    wrong += bad;
  }
  const uint64_t acked = plain.acked_inserts + traced.acked_inserts;
  if (w.insert_every > 0) {
    Result<QueryResult> res = w.db->Query("SELECT COUNT(*) FROM fact", oracle);
    const int64_t want = w.fact_rows + static_cast<int64_t>(acked);
    if (!res.ok() || res->rows.size() != 1 || res->rows[0][0].AsInt() != want) {
      std::fprintf(stderr, "acknowledged INSERTs missing: want %lld rows\n",
                   static_cast<long long>(want));
      ++wrong;
    }
  }

  // The final set-up's warm-up ran (and checked) every pool statement once.
  uint64_t attempted = w.pool.size(), failed = 0, shed = 0;
  for (const PhaseResult* p : {&plain, &traced}) {
    for (const Record& r : p->records) {
      ++attempted;
      if (r.shed) {
        ++shed;
      } else if (!r.ok) {
        ++failed;
      }
    }
  }

  std::vector<Metric> metrics;
  metrics.push_back({"setup_s", Percentile(setup_s, 50), "s"});
  EndToEndMetrics(w, plain, &metrics);
  metrics.push_back({"error_share",
                     Ratio(static_cast<double>(failed + shed + wrong),
                           static_cast<double>(attempted)),
                     "ratio"});
  metrics.push_back({"peak_rss_mb", peak_rss_mb, "MiB"});
  if (args.trace) LayerMetrics(traced, plain, before, after, &metrics);

  const unsigned threads = std::thread::hardware_concurrency();
  std::printf("perfbench %s seed=%llu trace=%d hardware_threads=%u build=%s "
              "compiler=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, threads, QOPT_PERFBENCH_BUILD_TYPE,
              Compiler().c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  attempted=%llu failed=%llu shed=%llu wrong=%llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(wrong));
  std::fflush(stdout);

  std::ofstream out(args.out);
  out << "{\"workload\": " << Quote(args.workload) << ", \"seed\": "
      << args.seed << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"host\": {\"hardware_threads\": " << threads
      << ", \"build_type\": " << Quote(QOPT_PERFBENCH_BUILD_TYPE)
      << ", \"compiler\": " << Quote(Compiler()) << "}"
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"shed\": " << shed << ", \"wrong\": " << wrong
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << Quote(metrics[i].name) << ": {\"value\": "
        << Num(metrics[i].value) << ", \"unit\": " << Quote(metrics[i].unit)
        << "}";
  }
  std::vector<std::vector<double>> service(w.pool.size());
  for (const Record& r : plain.records) {
    if (r.kind == StreamItem::Kind::kQuery && r.ok) {
      service[r.query].push_back(r.service_ms);
    }
  }
  out << "}, \"statements\": [";
  for (size_t i = 0; i < w.pool.size(); ++i) {
    out << (i ? ",\n" : "\n") << "{\"sql\": " << Quote(w.pool[i].sql)
        << ", \"rows\": " << expected[i].rows << ", \"checksum\": "
        << Quote(Hex(expected[i].checksum))
        << ", \"observed\": " << checker->Observations(i)
        << ", \"service_p50_ms\": " << Num(Percentile(service[i], 50)) << "}";
  }
  out << "]}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  if (args.trace && !args.trace_out.empty() &&
      !WriteSpans(args.trace_out, args, traced.spans)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace qopt::perfbench

int main(int argc, char** argv) { return qopt::perfbench::Main(argc, argv); }
