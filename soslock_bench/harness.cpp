// Measurement harness of the soslock benchmark. It drives the library's
// public API for one workload and prints one JSON object per line on stdout:
// the machine fingerprint, set-up times, timed operations, correctness
// checks and (with --trace 1) per-layer values. run.py turns these records
// into metrics; all statistics live there.
//
//   soslock_bench --workload table2|sweep|clock-tree-admm --seed N
//                 --seconds S --trace 0|1 --threads T --out DIR
//   soslock_bench --workload sweep --reference-offset K   (cold verdict map)
//
// Workloads (see README.md for why each was chosen):
//   table2           paper pipeline, order 3 then order 4 (IPM-bound)
//   sweep            certification sweep across zero pump polarity
//   clock-tree-admm  clustered clock tree, chordal lowering, first-order ADMM
//
// With --trace 1 the harness records spans (name, start, end, parent span,
// operation id) in memory around its calls into each layer and writes them
// as Chrome trace-event JSON into --out at exit. Spans are taken from
// outside the library only: around public stage calls, and around every
// SDP solve through a pass-through backend registered under the names
// "trace.auto" / "trace.ipm".
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/kernels.hpp"
#include "pll/models.hpp"
#include "pll/params.hpp"
#include "sdp/admm.hpp"
#include "sdp/ipm.hpp"
#include "sdp/lowering.hpp"
#include "sdp/solver.hpp"
#include "sos/checker.hpp"
#include "sos/program.hpp"
#include "sweep/grid.hpp"
#include "sweep/query.hpp"
#include "sweep/service.hpp"
#include "util/cpu.hpp"
#include "util/rng.hpp"

using namespace soslock;

namespace {

using Clock = std::chrono::steady_clock;

double now_s() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

/// CPU seconds of the whole process, all threads (excludes hypervisor
/// steal time on guests with paravirtual steal accounting).
double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Wall and process-CPU seconds since construction. The benchmark's
/// end-to-end times are CPU seconds: on a shared host the wall clock also
/// counts the time other tenants hold the processor.
struct Stopwatch {
  double wall0 = now_s();
  double cpu0 = cpu_s();
  double wall() const { return now_s() - wall0; }
  double cpu() const { return cpu_s() - cpu0; }
};

/// Peak resident set of this process image in MB. VmHWM, not ru_maxrss:
/// ru_maxrss survives exec, so it would report the launching process's
/// peak when that was larger (run.py's, for instance).
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  double kb = 0.0;
  if (f != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::strtod(line + 6, nullptr);
    }
    std::fclose(f);
  }
  return kb / 1024.0;
}

// ------------------------------------------------------------ JSON output ---

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// One flat JSON object, built field by field and printed as one line.
class Record {
 public:
  explicit Record(const char* type) { body_ = std::string("{\"type\":\"") + type + "\""; }
  Record& num(const char* key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    body_ += std::string(",\"") + key + "\":" + buf;
    return *this;
  }
  Record& str(const char* key, const std::string& v) {
    body_ += std::string(",\"") + key + "\":\"" + json_escape(v) + "\"";
    return *this;
  }
  Record& flag(const char* key, bool v) {
    body_ += std::string(",\"") + key + "\":" + (v ? "true" : "false");
    return *this;
  }
  Record& nums(const char* key, const std::vector<double>& vs) {
    body_ += std::string(",\"") + key + "\":[";
    char buf[64];
    for (std::size_t i = 0; i < vs.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.9g", i ? "," : "", vs[i]);
      body_ += buf;
    }
    body_ += "]";
    return *this;
  }
  void emit() {
    std::printf("%s}\n", body_.c_str());
    std::fflush(stdout);
  }

 private:
  std::string body_;
};

void emit_check(const std::string& name, bool ok, const std::string& detail) {
  Record("check").str("name", name).flag("ok", ok).str("detail", detail).emit();
}

void emit_layer(const std::string& name, double value) {
  Record("layer").str("name", name).num("value", value).emit();
}

// ------------------------------------------------------------------ trace ---

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::size_t tid = 0;
};

/// In-memory span store. Spans nest on a thread-local stack; a span opened
/// on a thread with an empty stack (a solver worker inside a batched stage)
/// takes the innermost stage span open on the main thread as its parent.
/// SDP solve spans never become that parent: the main thread may run a
/// sweep lane itself, concurrently with the other lanes' solves.
class Tracer {
 public:
  /// Off during the untraced half of a traced run's operations.
  std::atomic<bool> enabled{false};

  std::uint64_t begin() { return next_id_.fetch_add(1) + 1; }

  void push(std::uint64_t id, bool stage) {
    stack().push_back(id);
    if (stage && main_thread()) ambient_.store(id);
  }
  void pop(std::uint64_t parent, bool stage) {
    stack().pop_back();
    if (stage && main_thread()) ambient_.store(parent);
  }
  std::uint64_t parent() {
    const std::vector<std::uint64_t>& s = stack();
    return s.empty() ? ambient_.load() : s.back();
  }
  void add(SpanRecord rec) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(rec));
  }
  void set_op(std::uint64_t op) { op_.store(op); }
  std::uint64_t op() const { return op_.load(); }

  std::size_t thread_index() {
    thread_local std::size_t index = next_tid_.fetch_add(1);
    return index;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool write(const std::string& path, const std::string& metadata) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"metadata\":%s,\"traceEvents\":[\n", metadata.c_str());
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      const std::size_t dot = s.name.find('.');
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                   "\"op\":%llu}}",
                   i ? ",\n" : "", json_escape(s.name).c_str(),
                   json_escape(s.name.substr(0, dot)).c_str(), s.tid, s.start * 1e6,
                   (s.end - s.start) * 1e6, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.op));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static std::vector<std::uint64_t>& stack() {
    thread_local std::vector<std::uint64_t> s;
    return s;
  }
  bool main_thread() { return thread_index() == 0; }

  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> ambient_{0};
  std::atomic<std::uint64_t> op_{0};
  std::atomic<std::size_t> next_tid_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

Tracer g_tracer;

/// RAII span; recording is a no-op when tracing is off, but `close()` always
/// returns the elapsed seconds, so untraced code can use it as a stopwatch.
class Span {
 public:
  explicit Span(std::string name, bool stage = true) : start_(now_s()), stage_(stage) {
    recording_ = g_tracer.enabled.load();
    if (!recording_) return;
    rec_.name = std::move(name);
    rec_.id = g_tracer.begin();
    rec_.parent = g_tracer.parent();
    rec_.op = g_tracer.op();
    rec_.tid = g_tracer.thread_index();
    rec_.start = start_;
    g_tracer.push(rec_.id, stage_);
  }
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double close() {
    if (!closed_) {
      closed_ = true;
      end_ = now_s();
      if (recording_) {
        g_tracer.pop(rec_.parent, stage_);
        rec_.end = end_;
        g_tracer.add(std::move(rec_));
      }
    }
    return end_ - start_;
  }
  std::uint64_t id() const { return rec_.id; }

 private:
  double start_ = 0.0;
  double end_ = 0.0;
  bool stage_ = true;
  bool recording_ = false;
  bool closed_ = false;
  SpanRecord rec_;
};

/// Suspends span recording for an untraced measurement inside a traced run.
class Untraced {
 public:
  Untraced() : was_(g_tracer.enabled.exchange(false)) {}
  ~Untraced() { g_tracer.enabled.store(was_); }
  Untraced(const Untraced&) = delete;
  Untraced& operator=(const Untraced&) = delete;

 private:
  bool was_;
};

/// Root span of one timed operation: every span opened inside it carries
/// its id as the operation id.
class OpSpan {
 public:
  explicit OpSpan(std::string name) : span_(std::move(name)) { g_tracer.set_op(span_.id()); }
  ~OpSpan() { g_tracer.set_op(0); }
  double close() {
    g_tracer.set_op(0);
    return span_.close();
  }

 private:
  Span span_;
};

// ------------------------------------------------- pass-through backend ---

/// Per-solve SDP telemetry summed over the solves of one operation.
struct SolveTally {
  int ipm_iterations = 0;
  double ipm_seconds = 0.0;
  double ipm_schur = 0.0, ipm_factor = 0.0, ipm_eig = 0.0, ipm_recover = 0.0;
  std::size_t ipm_schur_rows_max = 0;
  int recoveries = 0;
};

std::mutex g_tally_mutex;
SolveTally g_tally;

SolveTally take_tally() {
  const std::lock_guard<std::mutex> lock(g_tally_mutex);
  SolveTally out = g_tally;
  g_tally = SolveTally{};
  return out;
}

/// Delegates every solve to the backend it wraps and records a span plus
/// the returned telemetry. Name and capabilities are the wrapped backend's,
/// so callers cannot tell the two apart.
class TracedBackend : public sdp::SolverBackend {
 public:
  explicit TracedBackend(std::unique_ptr<sdp::SolverBackend> inner) : inner_(std::move(inner)) {}
  using sdp::SolverBackend::solve;
  sdp::Solution solve(const sdp::Problem& problem, sdp::SolveContext& context) const override {
    Span span("sdp.solve", /*stage=*/false);
    sdp::Solution sol = inner_->solve(problem, context);
    span.close();
    const std::lock_guard<std::mutex> lock(g_tally_mutex);
    g_tally.recoveries += static_cast<int>(sol.recoveries.size());
    if (sol.backend == "ipm") {
      g_tally.ipm_iterations += sol.iterations;
      g_tally.ipm_seconds += sol.solve_seconds;
      g_tally.ipm_schur += sol.phase.schur;
      g_tally.ipm_factor += sol.phase.factor;
      g_tally.ipm_eig += sol.phase.eig;
      g_tally.ipm_recover += sol.phase.recover;
      g_tally.ipm_schur_rows_max = std::max(g_tally.ipm_schur_rows_max, sol.schur_rows);
    }
    return sol;
  }
  std::string name() const override { return inner_->name(); }
  sdp::Capabilities capabilities() const override { return inner_->capabilities(); }

 private:
  std::unique_ptr<sdp::SolverBackend> inner_;
};

void register_traced_backends() {
  for (const std::string inner : {"auto", "ipm"}) {
    sdp::register_backend("trace." + inner, [inner](const sdp::SolverConfig& config) {
      sdp::SolverConfig inner_config = config;
      inner_config.backend = inner;
      return std::unique_ptr<sdp::SolverBackend>(
          new TracedBackend(sdp::make_solver(inner, inner_config)));
    });
  }
}

void emit_tally(const SolveTally& t) {
  emit_layer("sdp.ipm.schur_s", t.ipm_schur);
  emit_layer("sdp.ipm.factor_s", t.ipm_factor);
  emit_layer("sdp.ipm.eig_s", t.ipm_eig);
  emit_layer("sdp.ipm.recover_s", t.ipm_recover);
  emit_layer("sdp.ipm.iterations", t.ipm_iterations);
  emit_layer("sdp.ipm.s_per_iter",
             t.ipm_iterations > 0 ? t.ipm_seconds / t.ipm_iterations : 0.0);
  emit_layer("sdp.ipm.schur_rows_max", static_cast<double>(t.ipm_schur_rows_max));
  emit_layer("sdp.recoveries", t.recoveries);
}

// ---------------------------------------------------------- fingerprint ---

struct BuildInfo {
  bool release = false;
  bool faults = false;
  bool sdp_verify = false;
  bool sanitizer = false;
  bool assertions = false;
};

#ifndef SOSLOCK_BENCH_BUILD_TYPE
#define SOSLOCK_BENCH_BUILD_TYPE "unknown"
#endif

BuildInfo build_info() {
  BuildInfo info;
  info.release = std::strcmp(SOSLOCK_BENCH_BUILD_TYPE, "Release") == 0;
#ifdef SOSLOCK_FAULTS
  info.faults = true;
#endif
#ifdef SOSLOCK_SDP_VERIFY
  info.sdp_verify = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  info.sanitizer = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  info.sanitizer = true;
#endif
#endif
#ifndef NDEBUG
  info.assertions = true;
#endif
  return info;
}

std::string compiler_name() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string fingerprint_json(std::size_t threads) {
  const BuildInfo b = build_info();
  util::SimdIsa requested = util::SimdIsa::Scalar;
  const bool overridden = util::simd_override(requested);
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\":%u,\"threads\":%zu,\"simd_active\":\"%s\",\"simd_detected\":\"%s\","
                "\"simd_override\":\"%s\",\"compiler\":\"%s\",\"build_type\":\"%s\","
                "\"faults\":%s,\"sdp_verify\":%s,\"sanitizer\":%s,\"assertions\":%s}",
                std::thread::hardware_concurrency(), threads,
                util::isa_name(linalg::active_isa()), util::isa_name(util::detected_isa()),
                overridden ? util::isa_name(requested) : "", json_escape(compiler_name()).c_str(),
                SOSLOCK_BENCH_BUILD_TYPE, b.faults ? "true" : "false", b.sdp_verify ? "true" : "false",
                b.sanitizer ? "true" : "false", b.assertions ? "true" : "false");
  return buf;
}

// --------------------------------------------------------------- options ---

struct Args {
  std::string workload;
  unsigned long seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 1;
  std::string out = ".";
  int reference_offset = -1;
};

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One set-up batch: rebuilds the workload's inputs until the batch has
/// used kSetupBatchCpu CPU seconds and records the CPU time per build, so a
/// build of microseconds is still timed over a span far above the clock's
/// noise.
constexpr int kSetupBatches = 7;
constexpr double kSetupBatchCpu = 0.05;

void setup_batch(const std::function<void()>& build) {
  const Stopwatch sw;
  long builds = 0;
  do {
    build();
    ++builds;
  } while (sw.cpu() < kSetupBatchCpu);
  Record("setup")
      .num("cpu_seconds", sw.cpu() / builds)
      .num("builds", builds)
      .emit();
}

// ---------------------------------------------------------- table2 ---------

/// The bench_table2_timing configuration of one order (degree-2
/// certificates unless `paper_degree`), with batch workers capped at
/// `threads`.
struct Table2Input {
  int order = 3;
  pll::ReducedModel model;
  poly::Polynomial b_init;
  core::PipelineOptions options;
};

poly::Polynomial ellipsoid(std::size_t nvars, const std::vector<double>& semiaxes) {
  poly::Polynomial b(nvars);
  for (std::size_t i = 0; i < semiaxes.size(); ++i) {
    const poly::Polynomial x = poly::Polynomial::variable(nvars, i);
    b += (1.0 / (semiaxes[i] * semiaxes[i])) * x * x;
  }
  b -= poly::Polynomial::constant(nvars, 1.0);
  b *= 0.5;
  return b;
}

Table2Input make_table2_input(int order, bool paper_degree, std::size_t threads) {
  Table2Input in;
  in.order = order;
  const pll::Params params =
      order == 3 ? pll::Params::paper_third_order() : pll::Params::paper_fourth_order();
  in.model = pll::make_averaged(params);
  core::PipelineOptions& opt = in.options;
  opt.lyapunov.certificate_degree = paper_degree ? (order == 3 ? 6u : 4u) : 2u;
  opt.lyapunov.flow_decrease = core::FlowDecrease::Strict;
  opt.lyapunov.strict_margin = order == 3 ? 1e-4 : 1e-5;
  opt.lyapunov.maximize_region = true;
  if (order == 3) {
    opt.advection.h = 0.01;
    opt.advection.gamma = 0.008;
  } else {
    opt.advection.h = 0.004;
    opt.advection.gamma = 0.01;
  }
  opt.advection.eps = 0.3;
  opt.max_advection_iterations = order == 3 ? 14 : 7;
  opt.escape.certificate_degree = order == 3 ? 2 : 4;
  opt.use_threads(threads);
  const std::size_t n = in.model.system.nvars();
  in.b_init = order == 3 ? ellipsoid(n, {5.0, 4.2, 0.9}) : ellipsoid(n, {6.0, 6.0, 6.0, 0.9});
  return in;
}

/// Verdict plus the audit facts the pipeline report exposes.
struct Table2Outcome {
  core::Verdict verdict = core::Verdict::Failed;
  int advection_iterations = 0;
  int escape_certs = 0;
  bool audits_ok = false;
  std::string message;
};

Table2Outcome outcome_of(const core::PipelineReport& r) {
  Table2Outcome o;
  o.verdict = r.verdict;
  o.advection_iterations = r.advection_iterations;
  o.escape_certs = r.escape.num_certificates;
  o.message = r.message;
  // Level maximisation fails its own audit internally; every accepted
  // advection step and the final immersion check passed theirs.
  o.audits_ok = r.lyapunov.audit.ok && r.levels.success;
  if (r.verdict == core::Verdict::VerifiedWithEscape) o.audits_ok = o.audits_ok && r.escape.audit.ok;
  if (r.verdict == core::Verdict::VerifiedByAdvection)
    o.audits_ok = o.audits_ok && r.advection_included;
  return o;
}

/// Per-stage wall seconds and counts of one staged verification.
struct StageTimes {
  double lyapunov = 0, level = 0, advection = 0, inclusion = 0, escape = 0;
  int advection_steps = 0, escape_certs = 0, solves = 0;
};

/// InevitabilityVerifier::verify's stage sequence, driven through the
/// public stage classes with one span per stage call.
Table2Outcome staged_verify(const Table2Input& in, StageTimes& t) {
  const std::string tag = "core.pll" + std::to_string(in.order);
  const core::PipelineOptions& opt = in.options;
  const hybrid::HybridSystem& system = in.model.system;
  Table2Outcome o;

  core::LyapunovResult lyap;
  {
    Span s(tag + ".lyapunov");
    lyap = core::LyapunovSynthesizer(opt.lyapunov).synthesize(system);
    t.lyapunov += s.close();
  }
  t.solves += lyap.solver.solves;
  o.audits_ok = lyap.audit.ok;
  if (!lyap.success) return o;

  core::LevelSetResult lev;
  {
    Span s(tag + ".level");
    lev = core::LevelSetMaximizer(opt.level).maximize(system, lyap.certificates);
    t.level += s.close();
  }
  t.solves += lev.solver.solves;
  o.audits_ok = o.audits_ok && lev.success;
  if (!lev.success) return o;

  const core::AdvectionEngine advect(system, opt.advection);
  const core::InclusionChecker inclusion(opt.inclusion);
  poly::Polynomial current = in.b_init;
  core::InclusionResult incl;
  auto check_inclusion = [&] {
    Span s(tag + ".inclusion");
    incl = inclusion.subset_of_invariant(current, system, lyap.certificates,
                                         lev.consistent_level);
    t.inclusion += s.close();
    t.solves += incl.solver.solves;
  };
  check_inclusion();
  while (!incl.included && o.advection_iterations < opt.max_advection_iterations) {
    core::AdvectionStepResult step;
    {
      Span s(tag + ".advection");
      step = advect.step(current);
      t.advection += s.close();
    }
    t.solves += step.solver.solves;
    if (!step.success) break;
    current = step.next;
    ++o.advection_iterations;
    check_inclusion();
  }
  t.advection_steps += o.advection_iterations;
  if (incl.included) {
    o.verdict = core::Verdict::VerifiedByAdvection;
    return o;
  }
  if (opt.escape_fallback && !incl.failed_modes.empty()) {
    core::EscapeResult esc;
    {
      Span s(tag + ".escape");
      esc = core::EscapeCertifier(opt.escape)
                .certify(system, incl.failed_modes, current, lyap.certificates,
                         lev.consistent_level);
      t.escape += s.close();
    }
    t.solves += esc.solver.solves;
    o.escape_certs = esc.num_certificates;
    t.escape_certs += esc.num_certificates;
    if (esc.success) {
      o.verdict = core::Verdict::VerifiedWithEscape;
      o.audits_ok = o.audits_ok && esc.audit.ok;
      return o;
    }
  }
  o.verdict = core::Verdict::AttractiveInvariantOnly;
  return o;
}

std::string describe(const Table2Outcome& o) {
  return core::to_string(o.verdict) + ", " + std::to_string(o.advection_iterations) +
         " advection steps, " + std::to_string(o.escape_certs) + " escape certs, audits " +
         (o.audits_ok ? "ok" : "FAILED") + (o.message.empty() ? "" : ", note: " + o.message);
}

bool table2_expected(const Table2Outcome& o, int order) {
  const core::Verdict want =
      order == 3 ? core::Verdict::VerifiedByAdvection : core::Verdict::VerifiedWithEscape;
  return o.verdict == want && o.audits_ok;
}

/// The SOS layer of the order-`order` Lyapunov program, driven stage by
/// stage: build, compile, full lowering, solve, audit.
void sos_replay(const Table2Input& in) {
  const std::string order = std::to_string(in.order);
  const core::LyapunovOptions& lopt = in.options.lyapunov;
  std::unique_ptr<core::LyapunovProgram> built;
  {
    Span s("sos.build");
    built = std::make_unique<core::LyapunovProgram>(
        core::build_lyapunov_program(in.model.system, lopt));
    emit_layer("sos.build_ms", 1e3 * s.close());
  }
  sdp::Problem problem;
  {
    Span s("sos.compile");
    problem = built->program.compile();
    emit_layer("sos.compile_ms", 1e3 * s.close());
  }
  {
    Span s("sdp.lower");
    const sdp::Lowering lowering = sdp::lower(std::move(problem), sdp::LoweringOptions{});
    emit_layer("sdp.lower_full_ms", 1e3 * s.close());
  }
  sos::SolveResult solved;
  {
    Span s("sos.solve");
    solved = built->program.solve(lopt.solver);
  }
  {
    Span s("sos.audit");
    const sos::AuditReport audit = sos::audit(built->program, solved);
    emit_layer("sos.audit_ms", 1e3 * s.close());
    emit_check("sos_replay_audit_pll" + order, audit.ok,
               std::to_string(audit.checked) + " identities audited");
  }
}

// --------------------------------------------------------------- linalg ---

/// Replay of the dense kernels at the sizes the IPM and ADMM run: Cholesky
/// factor (n^3/3 flops over the n(n+1)/2 lower triangle), the two
/// triangular solves of Cholesky::solve (2n^2 flops, L read twice) and the
/// symmetric eigendecomposition behind every ADMM PSD projection.
void linalg_replay() {
  util::Rng rng(20150607);
  auto spd = [&rng](std::size_t n) {
    linalg::Matrix g(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) g(i, j) = rng.uniform(-1.0, 1.0);
    linalg::Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j <= i; ++j) {
        double s = 0.0;
        for (std::size_t k = 0; k < n; ++k) s += g(i, k) * g(j, k);
        a(i, j) = a(j, i) = s / static_cast<double>(n) + (i == j ? 1.0 : 0.0);
      }
    return a;
  };
  auto rate = [](const std::function<void()>& fn, double budget) {
    std::vector<double> times;
    const double start = now_s();
    while (times.size() < 5 || (now_s() - start < budget && times.size() < 2000)) {
      const double t0 = now_s();
      fn();
      times.push_back(now_s() - t0);
    }
    return median_of(times);
  };
  for (const std::size_t n : {std::size_t{254}, std::size_t{450}}) {
    const linalg::Matrix a = spd(n);
    const double flop = static_cast<double>(n) * n * n / 3.0;
    const double bytes = 8.0 * static_cast<double>(n) * (n + 1);
    Span s("linalg.cholesky");
    const double sec = rate([&] { (void)linalg::Cholesky::factor(a); }, 0.25);
    s.close();
    const std::string tag = ".n" + std::to_string(n);
    emit_layer("linalg.chol_gflops" + tag, flop / sec * 1e-9);
    emit_layer("linalg.chol_flop" + tag, flop);
    emit_layer("linalg.chol_bytes" + tag, bytes);
    if (n == 450) {
      const auto chol = linalg::Cholesky::factor(a);
      linalg::Vector b(n);
      for (double& v : b) v = rng.uniform(-1.0, 1.0);
      Span t("linalg.trsv");
      const double tsec = rate([&] { (void)chol->solve(b); }, 0.25);
      t.close();
      const double tbytes = 8.0 * static_cast<double>(n) * (n + 1);  // L read twice
      emit_layer("linalg.trsv_gbs" + tag, tbytes / tsec * 1e-9);
      emit_layer("linalg.trsv_flop" + tag, 2.0 * n * n);
      emit_layer("linalg.trsv_bytes" + tag, tbytes);
    }
  }
  {
    const std::size_t n = 25;
    const linalg::Matrix a = spd(n);
    Span s("linalg.eigen_sym");
    const double sec = rate([&] { (void)linalg::eigen_sym(a); }, 0.25);
    s.close();
    emit_layer("linalg.eig_ms.n25", 1e3 * sec);
    // Householder tridiagonalisation + QL with vectors: ~9 n^3 flops.
    emit_layer("linalg.eig_flop.n25", 9.0 * n * n * n);
    emit_layer("linalg.eig_bytes.n25", 8.0 * 2.0 * n * n);
  }
}

// ------------------------------------------------------------ workloads ---

/// Runs `op` until `seconds` have elapsed (at least once), with set-up
/// batches of `build`: kSetupBatches after the first operation and one
/// before each later operation. The peak resident set is read right after
/// the first operation, before any set-up batch has churned the heap: set-up
/// plus one operation is a fixed amount of work, so the figure does not
/// depend on how many operations or builds fit into the run.
void timed_loop(double seconds, const std::function<void()>& build,
                const std::function<void()>& op) {
  const double start = now_s();
  op();
  Record("rss").num("peak_mb", peak_rss_mb()).emit();
  for (int batch = 0; batch < kSetupBatches; ++batch) setup_batch(build);
  while (now_s() - start < seconds) {
    setup_batch(build);
    op();
  }
}

void run_table2(const Args& args) {
  std::vector<Table2Input> inputs;
  const auto build = [&] {
    inputs.clear();
    inputs.push_back(make_table2_input(3, false, args.threads));
    inputs.push_back(make_table2_input(4, false, args.threads));
  };
  build();
  // Traced passes route every SDP solve through the pass-through backend.
  std::vector<Table2Input> traced_inputs = inputs;
  for (Table2Input& in : traced_inputs) in.options.use_backend("trace.auto");

  timed_loop(args.seconds, build, [&] {
    // Untraced pass: the end-to-end measurement.
    std::optional<Untraced> untraced(std::in_place);
    const Stopwatch sw;
    const core::PipelineReport r3 = core::InevitabilityVerifier(inputs[0].options)
                                        .verify(inputs[0].model.system, inputs[0].b_init);
    const double t1 = sw.wall(), c1 = sw.cpu();
    const core::PipelineReport r4 = core::InevitabilityVerifier(inputs[1].options)
                                        .verify(inputs[1].model.system, inputs[1].b_init);
    const double t2 = sw.wall(), c2 = sw.cpu();
    untraced.reset();
    const Table2Outcome o3 = outcome_of(r3), o4 = outcome_of(r4);
    Record("op")
        .str("name", "table2.pass")
        .num("seconds", t2)
        .num("cpu_seconds", c2)
        .num("pll3_s", t1)
        .num("pll4_s", t2 - t1)
        .num("pll3_cpu_s", c1)
        .num("pll4_cpu_s", c2 - c1)
        .flag("ok", table2_expected(o3, 3) && table2_expected(o4, 4))
        .str("detail", "pll3: " + describe(o3) + "; pll4: " + describe(o4))
        .emit();
    if (!args.trace) return;

    // Traced pass: the same two verifications, stage by stage.
    (void)take_tally();
    StageTimes t3, t4;
    const Stopwatch traced_sw;
    OpSpan op("op.table2");
    const double s0 = now_s();
    const Table2Outcome s3 = staged_verify(traced_inputs[0], t3);
    const double s1 = now_s();
    const Table2Outcome s4 = staged_verify(traced_inputs[1], t4);
    const double s2 = now_s();
    op.close();
    const double traced_cpu = traced_sw.cpu();
    const bool same = s3.verdict == o3.verdict && s4.verdict == o4.verdict &&
                      s3.advection_iterations == o3.advection_iterations &&
                      s4.advection_iterations == o4.advection_iterations &&
                      s4.escape_certs == o4.escape_certs;
    emit_check("traced_verdict_equals_untimed", same,
               "traced pll3: " + describe(s3) + "; traced pll4: " + describe(s4));
    for (const auto& [tag, st] : {std::pair<std::string, const StageTimes*>{"pll3", &t3},
                                  std::pair<std::string, const StageTimes*>{"pll4", &t4}}) {
      emit_layer("core." + tag + ".lyapunov_s", st->lyapunov);
      emit_layer("core." + tag + ".level_s", st->level);
      emit_layer("core." + tag + ".advection_s", st->advection);
      emit_layer("core." + tag + ".inclusion_s", st->inclusion);
      emit_layer("core." + tag + ".escape_s", st->escape);
    }
    emit_layer("core.pll3.verify_s", s1 - s0);
    emit_layer("core.pll4.verify_s", s2 - s1);
    emit_layer("core.pll4.stage_coverage",
               (t4.lyapunov + t4.level + t4.advection + t4.inclusion + t4.escape) / (s2 - s1));
    emit_layer("core.advection_steps", t3.advection_steps + t4.advection_steps);
    emit_layer("core.escape_certs", t3.escape_certs + t4.escape_certs);
    emit_layer("sos.solves", t3.solves + t4.solves);
    emit_tally(take_tally());
    emit_layer("trace.overhead_frac", traced_cpu / c2 - 1.0);
  });

  // The paper's certificate degree for the third order, run once untimed.
  // It is a known defect (it ends Failed), so it is reported on its own
  // record rather than as an operation of the workload.
  const Table2Input paper = make_table2_input(3, true, args.threads);
  const Table2Outcome p3 = outcome_of(
      core::InevitabilityVerifier(paper.options).verify(paper.model.system, paper.b_init));
  Record("known_defect")
      .str("name", "pll3_paper_degree6")
      .flag("ok", table2_expected(p3, 3))
      .str("detail", describe(p3))
      .emit();

  if (args.trace) {
    Span root("replay.sos");
    for (const Table2Input& in : traced_inputs) sos_replay(in);
    (void)take_tally();
  }
}

/// The boundary-crossing sweep grid. The seed picks one of kSweepOffsets
/// sub-step shifts of the ip axis; offset 0 is the reference configuration.
constexpr int kSweepOffsets = 8;

sweep::Grid make_sweep_grid(int offset) {
  const double lo = -500e-6, hi = 700e-6;
  const std::size_t n_ip = 40;
  const double step = (hi - lo) / static_cast<double>(n_ip - 1);
  const double shift = step * static_cast<double>(offset) / kSweepOffsets;
  return sweep::Grid(pll::Params::paper_third_order(),
                     {{sweep::Axis::Ip, n_ip, lo + shift, hi + shift, 5e-6},
                      {sweep::Axis::Kv, 10, 120.0, 280.0, 2.0}});
}

std::string verdict_map(const sweep::SweepReport& report) {
  std::string map;
  for (const sweep::PointRecord& p : report.points)
    map += p.skipped ? '?' : (p.certified ? '1' : '0');
  return map;
}

void run_sweep(const Args& args) {
  const int offset = static_cast<int>(args.seed % kSweepOffsets);
  std::unique_ptr<sweep::Grid> grid;
  std::unique_ptr<sweep::CertificationQuery> query;
  std::size_t first_rows = 0;
  const auto build = [&] {
    grid = std::make_unique<sweep::Grid>(make_sweep_grid(offset));
    query = std::make_unique<sweep::CertificationQuery>(sweep::lyapunov_query());
    // The first design point's program, built so the request's program
    // shape is known to be valid before anything is timed.
    first_rows = query->build(grid->params(0)).compile().num_rows();
  };
  build();
  sweep::SweepOptions options;
  options.solver.backend = "ipm";
  options.threads = args.threads;
  Record("sweep_grid")
      .num("offset", offset)
      .num("points", grid->size())
      .num("rows", first_rows)
      .emit();

  sweep::SweepOptions traced_options = options;
  traced_options.solver.backend = "trace.ipm";

  auto emit_request = [&](const sweep::SweepReport& r, double wall, double cpu) {
    std::vector<double> point_s;
    for (const sweep::PointRecord& p : r.points) point_s.push_back(p.solve_seconds);
    Record("op")
        .str("name", "sweep.request")
        .num("seconds", wall)
        .num("cpu_seconds", cpu)
        .num("certified", r.certified)
        .num("uncertified", r.uncertified)
        .num("skipped", r.skipped)
        .str("verdicts", verdict_map(r))
        .nums("point_s", point_s)
        .flag("ok", r.skipped == 0 && !r.interrupted)
        .emit();
  };

  timed_loop(args.seconds, build, [&] {
    std::optional<Untraced> untraced(std::in_place);
    const Stopwatch sw;
    const sweep::SweepReport r = sweep::run_sweep(*grid, *query, options);
    const double wall = sw.wall(), cpu = sw.cpu();
    emit_request(r, wall, cpu);
    untraced.reset();
    if (!args.trace) return;

    (void)take_tally();
    const Stopwatch traced_sw;
    OpSpan op("op.sweep");
    const sweep::SweepReport tr = sweep::run_sweep(*grid, *query, traced_options);
    const double traced = op.close();
    const double traced_cpu = traced_sw.cpu();
    const std::size_t lanes = std::min<std::size_t>(args.threads, grid->axes()[1].count);
    double busy = 0.0;
    for (const sweep::PointRecord& p : tr.points) busy += p.solve_seconds;
    const std::size_t solved = tr.points.size() - tr.skipped;
    emit_check("traced_verdicts_equal_untimed", verdict_map(tr) == verdict_map(r),
               "traced sweep verdict map vs untraced");
    emit_layer("sweep.warm_hit_rate",
               solved > 0 ? static_cast<double>(tr.warm_hits) / solved : 0.0);
    emit_layer("sweep.cold_restarts", static_cast<double>(tr.cold_restarts));
    emit_layer("sweep.full_lowerings", static_cast<double>(tr.full_lowerings));
    emit_layer("sweep.updates", static_cast<double>(tr.updates));
    emit_layer("sweep.iterations", tr.total_iterations);
    emit_layer("sweep.orchestration_frac",
               1.0 - busy / (traced * static_cast<double>(lanes)));
    emit_layer("sos.solves", static_cast<double>(solved + tr.cold_restarts));
    emit_tally(take_tally());
    emit_layer("trace.overhead_frac", traced_cpu / cpu - 1.0);
  });

  if (args.trace) {
    // One lane's walk over the first axis-0 row, driven layer by layer:
    // build, compile, lowering through a LoweringCache (full once, in-place
    // updates after), solve through the same cache, audit.
    Span root("replay.sweep");
    const std::unique_ptr<sdp::SolverBackend> backend = sdp::make_solver("trace.ipm");
    sdp::LoweringCache probe, cache;
    const std::size_t row = grid->axes()[0].count;
    for (std::size_t i = 0; i < row; ++i) {
      std::unique_ptr<sos::SosProgram> program;
      {
        Span s("sos.build");
        program = std::make_unique<sos::SosProgram>(query->build(grid->params(i)));
        emit_layer("sos.build_ms", 1e3 * s.close());
      }
      sdp::Problem problem;
      {
        Span s("sos.compile");
        problem = program->compile();
        emit_layer("sos.compile_ms", 1e3 * s.close());
      }
      {
        Span s("sdp.lower");
        const std::size_t updates_before = probe.updates();
        (void)probe.lower(std::move(problem), sdp::LoweringOptions{});
        const double ms = 1e3 * s.close();
        emit_layer(probe.updates() > updates_before ? "sdp.lower_update_ms" : "sdp.lower_full_ms",
                   ms);
      }
      sos::SolveResult solved;
      {
        Span s("sos.solve");
        sdp::SolveContext context;
        solved = program->solve(*backend, context, cache);
      }
      {
        Span s("sos.audit");
        (void)sos::audit(*program, solved);
        emit_layer("sos.audit_ms", 1e3 * s.close());
      }
    }
    (void)take_tally();
  }
}

/// The sweep grid solved cold and unchained: the reference verdict map.
void run_sweep_reference(const Args& args) {
  const sweep::Grid grid = make_sweep_grid(args.reference_offset);
  sweep::SweepOptions options;
  options.solver.backend = "ipm";
  options.solver.warm_start = false;
  options.warm_chaining = false;
  options.threads = args.threads;
  const sweep::SweepReport r = sweep::run_sweep(grid, sweep::lyapunov_query(), options);
  Record("reference")
      .num("offset", args.reference_offset)
      .str("verdicts", verdict_map(r))
      .flag("ok", r.skipped == 0 && !r.interrupted)
      .emit();
}

/// The clustered clock tree of the ADMM clique-parallel study: 192 loops in
/// clusters of 24, a 200-block chordal lowering with native decomposed
/// cones. Solved with the synchronous first-order backend on purpose: the
/// IPM solves this lowered problem ~20x faster, so "auto" would route it
/// there and the ADMM path would go unmeasured.
void run_clock_tree(const Args& args) {
  pll::ClockTreeOptions tree;
  tree.loops = 192;
  tree.cluster = 24;
  tree.neighbor_hops = 23;
  tree.neighbor_coupling = 0.05;
  std::unique_ptr<sdp::Problem> problem;
  const auto build = [&] {
    const pll::ClockTreeModel model =
        pll::make_clock_tree(pll::Params::paper_third_order(), tree);
    problem = std::make_unique<sdp::Problem>(pll::clock_tree_coupling_sdp(model.constants, tree));
  };
  build();
  sdp::LoweringOptions lowering_options;
  lowering_options.sparsity = sdp::SparsityOptions::Chordal;
  lowering_options.chordal.min_block_size = 4;
  sdp::AdmmOptions admm;
  admm.tolerance = 1e-5;
  admm.threads = args.threads;

  // Reference objective: the IPM on the same lowered problem (untimed).
  const sdp::Lowering ref_lowering = sdp::lower(*problem, lowering_options);
  const double ipm_t0 = now_s();
  sdp::SolveContext ref_context;
  const sdp::Solution ref =
      sdp::recover(sdp::IpmSolver().solve(ref_lowering.problem, ref_context), ref_lowering);
  char ref_detail[160];
  std::snprintf(ref_detail, sizeof(ref_detail),
                "IPM on the %zu-block lowering: status %s, objective %.6f, %.3f s",
                ref_lowering.problem.num_blocks(), sdp::to_string(ref.status).c_str(),
                ref.primal_objective, now_s() - ipm_t0);
  emit_check("ipm_reference", ref.status == sdp::SolveStatus::Optimal, ref_detail);

  constexpr double kObjectiveTolerance = 1e-4;  // relative, vs the IPM
  auto one = [&](bool traced) {
    std::optional<Untraced> untraced;
    if (!traced) untraced.emplace();
    OpSpan op("op.admm");
    double lower_s = 0.0;
    std::unique_ptr<sdp::Lowering> lowering;
    {
      Span s("sdp.lower");
      lowering = std::make_unique<sdp::Lowering>(sdp::lower(*problem, lowering_options));
      lower_s = s.close();
    }
    sdp::Solution sol;
    {
      Span s("sdp.admm.solve");
      sdp::SolveContext context;
      sol = sdp::AdmmSolver(admm).solve(lowering->problem, context);
    }
    sdp::Solution rec;
    double recover_s = 0.0;
    {
      Span s("sdp.recover");
      rec = sdp::recover(sol, *lowering);
      recover_s = s.close();
    }
    const double wall = op.close();
    const double rel = std::fabs(rec.primal_objective - ref.primal_objective) /
                       std::max(1.0, std::fabs(ref.primal_objective));
    const bool ok = rec.status == sdp::SolveStatus::Optimal && rel <= kObjectiveTolerance;
    char detail[256];
    std::snprintf(detail, sizeof(detail),
                  "status %s, %d iterations, objective %.6f vs IPM %.6f (rel %.2e, tol %.0e)",
                  sdp::to_string(rec.status).c_str(), sol.iterations, rec.primal_objective,
                  ref.primal_objective, rel, kObjectiveTolerance);
    struct Result {
      double wall, lower_s, recover_s;
      bool ok;
      std::string detail;
      sdp::Solution sol;
    };
    return Result{wall, lower_s, recover_s, ok, detail, std::move(sol)};
  };

  timed_loop(args.seconds, build, [&] {
    const Stopwatch sw;
    const auto r = one(false);
    const double cpu = sw.cpu();
    Record("op")
        .str("name", "admm.solve")
        .num("seconds", r.wall)
        .num("cpu_seconds", cpu)
        .num("iterations", r.sol.iterations)
        .flag("ok", r.ok)
        .str("detail", r.detail)
        .emit();
    if (!args.trace) return;
    const Stopwatch traced_sw;
    const auto t = one(true);
    const double traced_cpu = traced_sw.cpu();
    emit_check("traced_admm_ok", t.ok, t.detail);
    emit_layer("sdp.lower_full_ms", 1e3 * t.lower_s);
    emit_layer("sdp.admm.eig_s", t.sol.phase.eig);
    emit_layer("sdp.admm.normal_s", t.sol.phase.schur);
    emit_layer("sdp.admm.recover_s", t.sol.phase.recover + t.recover_s);
    emit_layer("sdp.admm.iterations", t.sol.iterations);
    emit_layer("sdp.recoveries", static_cast<double>(t.sol.recoveries.size()));
    emit_layer("trace.overhead_frac", traced_cpu / cpu - 1.0);
  });
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoul(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(a.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      a.trace = value == "1";
    } else if (key == "--threads") {
      const long t = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || t < 1 || t > 256) return false;
      a.threads = static_cast<std::size_t>(t);
    } else if (key == "--out") {
      a.out = value;
    } else if (key == "--reference-offset") {
      const long k = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || k < 0 || k >= kSweepOffsets) return false;
      a.reference_offset = static_cast<int>(k);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: soslock_bench --workload table2|sweep|clock-tree-admm --seed N "
                 "--seconds S --trace 0|1 --threads T --out DIR\n");
    return 2;
  }
  const BuildInfo build = build_info();
  const std::string fingerprint = fingerprint_json(args.threads);
  std::printf("{\"type\":\"fingerprint\",\"machine\":%s}\n", fingerprint.c_str());
  if (!build.release || build.faults || build.sdp_verify || build.sanitizer || build.assertions) {
    std::fprintf(stderr,
                 "soslock_bench: refusing to time a non-Release or instrumented build %s\n",
                 fingerprint.c_str());
    return 3;
  }
  register_traced_backends();
  g_tracer.enabled = args.trace;
  (void)g_tracer.thread_index();  // the main thread is thread 0

  if (args.workload == "sweep" && args.reference_offset >= 0) {
    run_sweep_reference(args);
  } else if (args.workload == "table2") {
    run_table2(args);
  } else if (args.workload == "sweep") {
    run_sweep(args);
  } else if (args.workload == "clock-tree-admm") {
    run_clock_tree(args);
  } else {
    std::fprintf(stderr, "soslock_bench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  if (args.trace) {
    {
      Span replay("replay.linalg");
      linalg_replay();
    }
    const std::string path =
        args.out + "/" + args.workload + "-seed" + std::to_string(args.seed) + ".trace.json";
    if (!g_tracer.write(path, fingerprint)) {
      std::fprintf(stderr, "soslock_bench: cannot write %s\n", path.c_str());
      return 4;
    }
    Record("trace_file").str("path", path).emit();
  }
  return 0;
}
