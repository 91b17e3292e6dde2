// Driver-step benchmark: runs one workload through the real Driver::run()
// and reports what a user sees (set-up time, step wall time, throughput,
// memory, correctness against brute force) or, traced, where each step's
// time went by layer. README.md beside this file defines every workload
// and metric; run.py builds this binary and is the benchmark's command.
//
// Usage: stepbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//                  [--work-dir=<dir>] [--trace-out=<file>]
//
// Every timing is taken by this file around its own calls: the
// traversal()/postTraversal() hooks, the Forest calls made inside them,
// and the gaps between steps. The traced run additionally attaches a
// MetricsRegistry + TraceBuffer and reads the Forest/Runtime getters.
// The last line of stdout is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "decomp/runtime_parallel.hpp"
#include "observability/report.hpp"
#include "oracles.hpp"
#include "workloads.hpp"

using namespace stepbench;

namespace {

// ---------------------------------------------------------------------------
// Statistics and output

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The highest percentile with at least ten samples beyond it: the
/// 11th-largest sample. Returns {value, percentile}; {max, 100} when
/// there are fewer than 11 samples.
std::pair<double, double> tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return {0.0, 0.0};
  if (v.size() < 11) return {v.back(), 100.0};
  const std::size_t i = v.size() - 11;
  return {v[i], 100.0 * static_cast<double>(i) /
                    static_cast<double>(v.size() - 1)};
}

/// Reset the kernel's peak-RSS mark (VmHWM) of this process, so the
/// next peakRssMb() covers only what ran since; false where /proc does
/// not allow it.
bool resetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << '5';
  f.flush();
  return static_cast<bool>(f);
}

/// Peak resident set in MiB: VmHWM (since the last resetPeakRss()), or
/// getrusage's whole-process peak where /proc has no VmHWM.
double peakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metricsJson(const std::vector<Metric>& ms) {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", ms[i].value);
    out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string trace_out;
};

bool parseArgs(int argc, char** argv, Options& o) {
  bench::ArgParser args(argc, argv);
  std::string seed, seconds, trace;
  if (!args.flag("--workload=", o.workload) || !args.flag("--seed=", seed) ||
      !args.flag("--seconds=", seconds) || !args.flag("--trace=", trace)) {
    std::fprintf(stderr, "stepbench: --workload, --seed, --seconds and "
                         "--trace are required\n");
    return false;
  }
  args.flag("--work-dir=", o.work_dir);
  args.flag("--trace-out=", o.trace_out);
  if (argc > 1) {
    std::fprintf(stderr, "stepbench: unknown argument '%s'\n", argv[1]);
    return false;
  }
  char* end = nullptr;
  o.seed = std::strtoull(seed.c_str(), &end, 10);
  if (seed.empty() || *end != '\0' || seed[0] == '-') {
    std::fprintf(stderr, "stepbench: bad --seed '%s'\n", seed.c_str());
    return false;
  }
  o.seconds = std::strtod(seconds.c_str(), &end);
  if (seconds.empty() || *end != '\0' || !(o.seconds > 0.0)) {
    std::fprintf(stderr, "stepbench: bad --seconds '%s'\n", seconds.c_str());
    return false;
  }
  if (trace != "0" && trace != "1") {
    std::fprintf(stderr, "stepbench: bad --trace '%s'\n", trace.c_str());
    return false;
  }
  o.trace = trace == "1";
  return true;
}

// ---------------------------------------------------------------------------
// One pass: Driver::run() repeatedly until the time is up

struct PassResult {
  std::vector<StepRecord> steps;
  std::vector<double> setup_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t samples = 0;          ///< oracle samples checked
  std::uint64_t samples_matched = 0;  ///< ... that matched the reference
  std::vector<double> force_errors;  ///< relative, per sampled particle
  double force_gated_max = 0.0;      ///< worst gatedForceErrors() value
  double force_median_max = 0.0;     ///< worst per-call median of those
  double step_time_total = 0.0;
  /// The largest peak RSS of a Driver::run() call: the mark is reset
  /// before each call and read when it returns, so the oracles and the
  /// benchmark's bookkeeping between calls are not counted.
  double peak_rss_mb = 0.0;
  /// Every reset of the mark worked (else peak_rss_mb is the process's
  /// whole-run peak, oracles included).
  bool peak_rss_per_call = true;
};

/// Seed of the initial conditions (and oracle sample) of a pass's
/// `call`-th Driver::run(), set-up-only calls included: every call
/// measures another realization of the workload, so a run's medians
/// average over realizations instead of riding on one. The sequence is
/// a pure function of --seed.
std::uint64_t callSeed(std::uint64_t seed, int call) {
  return seed * 1000003u + static_cast<std::uint64_t>(call);
}

/// Driver::run() calls an untraced pass makes at least, whatever
/// --seconds says (each traced half makes one at least).
constexpr int kMinCalls = 3;
/// Set-up-only calls before each full call of an untraced pass: set-up
/// is ~5% of a call, so a run would otherwise hold only one set-up
/// sample (and realization) per ~8 steps and its median would ride on a
/// handful.
constexpr int kSetupOnlyCalls = 3;

/// One Driver::run() call of `app`; false (after a diagnostic) when it
/// threw, or when a set-up-only call did not stop at its first
/// traversal().
template <typename AppT>
bool callRun(AppT& app, Probe& probe, rts::Runtime& rt,
             std::vector<Particle> particles, Instrumentation instr,
             bool setup_only, PassResult& res) {
  res.peak_rss_per_call = resetPeakRss() && res.peak_rss_per_call;
  bool ok = false;
  try {
    probe.runEntry(setup_only);
    app.run(rt, std::move(particles), instr);
    probe.runReturn(app.forest());
    ok = !setup_only;
  } catch (const SetupOnly&) {
    ok = setup_only;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stepbench: Driver::run() failed: %s\n", e.what());
    probe.abandonRun();
    if (instr.metrics != nullptr) rt.attachMetrics(nullptr);
    if (instr.trace != nullptr) rt.attachTrace(nullptr);
  }
  res.peak_rss_mb = std::max(res.peak_rss_mb, peakRssMb());
  return ok;
}

std::vector<int> allProcs(const rts::Runtime& rt) {
  std::vector<int> procs(static_cast<std::size_t>(rt.numProcs()));
  for (int p = 0; p < rt.numProcs(); ++p) procs[static_cast<std::size_t>(p)] = p;
  return procs;
}

/// Driver::run() again and again until `seconds` have passed (at least
/// `min_calls` times), each full call preceded by `setup_only_calls`
/// set-up-only calls. Each call generates its own initial conditions, so
/// the benchmark holds no particles of its own while a call runs.
PassResult runPass(const Workload& w, const Options& o, rts::Runtime& rt,
                   Instrumentation instr, double seconds, int min_calls,
                   int setup_only_calls) {
  PassResult res;
  Probe probe(rt, instr);
  RuntimeParallelFor par(rt, allProcs(rt));
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  int realization = 0;
  for (int call = 0; call < min_calls || Clock::now() < deadline; ++call) {
    const std::string ckpt_dir =
        o.work_dir + "/ckpt_" + w.name + "_" + std::to_string(call);

    // Every set-up-only call is one operation.
    for (int s = 0; s < setup_only_calls; ++s) {
      std::filesystem::remove_all(ckpt_dir);
      const std::uint64_t ic_seed = callSeed(o.seed, realization++);
      bool ok;
      if (w.app == App::kGravity) {
        GravityApp app(w, probe, ckpt_dir);
        ok = callRun(app, probe, rt, initialConditions(w, ic_seed), instr,
                     true, res);
      } else {
        KnnApp app(w, probe);
        ok = callRun(app, probe, rt, initialConditions(w, ic_seed), instr,
                     true, res);
      }
      ++res.attempted;
      if (!ok) ++res.failed;
    }

    std::filesystem::remove_all(ckpt_dir);
    const std::uint64_t ic_seed = callSeed(o.seed, realization++);
    const std::size_t first_step = probe.steps().size();
    std::unique_ptr<GravityApp> gravity;
    std::unique_ptr<KnnApp> knn;
    bool ok;
    if (w.app == App::kGravity) {
      gravity = std::make_unique<GravityApp>(w, probe, ckpt_dir);
      ok = callRun(*gravity, probe, rt, initialConditions(w, ic_seed), instr,
                   false, res);
    } else {
      knn = std::make_unique<KnnApp>(w, probe);
      ok = callRun(*knn, probe, rt, initialConditions(w, ic_seed), instr,
                   false, res);
    }
    const std::size_t done = probe.steps().size() - first_step;
    res.attempted += static_cast<std::uint64_t>(w.steps);
    res.failed += static_cast<std::uint64_t>(w.steps) - done;

    // Oracles, outside every timed region. One check per oracle per call.
    const auto sample =
        sampleIndices(w.n, w.oracle_samples, ic_seed + 1);
    if (w.app == App::kGravity) {
      ++res.attempted;
      bool pass = ok;
      if (ok) {
        const auto forces = forceSamples(gravity->forest().collect(), sample,
                                         gravity->params(), par);
        const std::size_t matched =
            forceMatches(forces, forceTolerance(w.theta));
        for (const auto& f : forces) res.force_errors.push_back(f.relative());
        const auto gated = gatedForceErrors(forces);
        for (const double g : gated) {
          res.force_gated_max = std::max(res.force_gated_max, g);
        }
        res.force_median_max =
            std::max(res.force_median_max, quantile(gated, 0.5));
        res.samples += forces.size();
        res.samples_matched += matched;
        pass = matched == forces.size();
      }
      if (!pass) {
        ++res.failed;
        std::fprintf(stderr, "stepbench: %s call %d: force oracle failed\n",
                     w.name.c_str(), call);
      }
      if (w.checkpoint) {
        ++res.attempted;
        // The Driver checkpoints every completed iteration but the last.
        const auto v =
            ok ? verifyCheckpoint(
                     ckpt_dir, kCheckpointKeep,
                     gravity->forest().config().compatibilityHash(w.n),
                     w.steps - 2, w.n)
               : CheckpointVerdict{false, "run failed"};
        if (!v.ok) {
          ++res.failed;
          std::fprintf(stderr, "stepbench: %s call %d: checkpoint oracle: %s\n",
                       w.name.c_str(), call, v.why.c_str());
        }
      }
    } else {
      ++res.attempted;
      const std::size_t matched =
          ok ? knnMatches(knn->forest().collect(), sample, knn->store(), par)
             : 0;
      res.samples += sample.size();
      res.samples_matched += matched;
      if (matched != sample.size()) {
        ++res.failed;
        std::fprintf(stderr,
                     "stepbench: %s call %d: knn oracle: %zu/%zu match\n",
                     w.name.c_str(), call, matched, sample.size());
      }
    }
    std::filesystem::remove_all(ckpt_dir);
  }
  res.steps = std::move(probe.steps());
  res.setup_s = probe.setupSeconds();
  for (const auto& s : res.steps) res.step_time_total += s.wall();
  return res;
}

std::vector<double> stepWalls(const std::vector<StepRecord>& steps) {
  std::vector<double> v;
  v.reserve(steps.size());
  for (const auto& s : steps) v.push_back(s.wall());
  return v;
}

/// Sum the durations of the program's flush.gather spans into the step
/// whose interval holds their start.
void attributeFlushSpans(std::vector<StepRecord>& steps,
                         const obs::TraceBuffer& trace) {
  auto events = trace.snapshot();
  std::vector<std::pair<std::int64_t, std::int64_t>> gathers;
  for (const auto& ev : events) {
    if (std::string(ev.name) == "flush.gather") {
      gathers.emplace_back(ev.start_us, ev.duration_us);
    }
  }
  for (auto& s : steps) {
    const auto lo = trace.sinceOriginUs(s.start);
    const auto hi = trace.sinceOriginUs(s.end);
    double gather = 0.0;
    for (const auto& [start, dur] : gathers) {
      if (start >= lo && start < hi) gather += static_cast<double>(dur) * 1e-6;
    }
    s.layers["flush.s"] = gather + s.layers["decompose.s"];
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parseArgs(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: stepbench --workload=<gravity_bh|knn_clustered|"
                 "gravity_ckpt> --seed=<n> --seconds=<s> --trace=<0|1> "
                 "[--work-dir=<dir>] [--trace-out=<file>]\n");
    return 2;
  }
  Workload w = findWorkload(o.workload);
  if (w.name.empty()) {
    std::fprintf(stderr, "stepbench: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }

  rts::Runtime::Config rc;
  rc.n_procs = w.procs;
  rc.workers_per_proc = w.workers;
  if (w.comm_model) rc.comm = bench::defaultInterconnect();
  rts::Runtime rt(rc);

  std::vector<Metric> out;
  PassResult main_pass;
  double tail_pct = 0.0;
  if (!o.trace) {
    main_pass = runPass(w, o, rt, {}, o.seconds, kMinCalls, kSetupOnlyCalls);
    const auto walls = stepWalls(main_pass.steps);
    const auto [tail_s, pct] = tail(walls);
    tail_pct = pct;
    const double steps_done = static_cast<double>(walls.size());
    out.push_back({"setup_s", median(main_pass.setup_s), "s"});
    out.push_back({"step_s_p50", median(walls), "s"});
    out.push_back({"step_s_tail", tail_s, "s"});
    out.push_back({"particle_steps_per_s",
                   main_pass.step_time_total > 0.0
                       ? static_cast<double>(w.n) * steps_done /
                             main_pass.step_time_total
                       : 0.0,
                   "1/s"});
    out.push_back({"peak_rss_mb", main_pass.peak_rss_mb, "MB"});
    out.push_back({"exact_frac",
                   main_pass.samples > 0
                       ? static_cast<double>(main_pass.samples_matched) /
                             static_cast<double>(main_pass.samples)
                       : 0.0,
                   "1"});
    std::printf("stepbench %s: %zu steps, %zu set-up samples; step_s_tail "
                "is p%.1f of %zu samples (10 beyond it); peak RSS %s\n",
                w.name.c_str(), walls.size(), main_pass.setup_s.size(),
                tail_pct, walls.size(),
                main_pass.peak_rss_per_call
                    ? "per Driver::run() call (VmHWM)"
                    : "of the whole process (no VmHWM reset)");
    if (w.app == App::kGravity) {
      std::printf("stepbench %s: force_err_p99 %.4g over %zu sampled "
                  "particles; worst gated error %.4g (tolerance %.3g), worst "
                  "call median %.4g (tolerance %.3g)\n",
                  w.name.c_str(), quantile(main_pass.force_errors, 0.99),
                  main_pass.force_errors.size(), main_pass.force_gated_max,
                  forceTolerance(w.theta).each, main_pass.force_median_max,
                  forceTolerance(w.theta).typical);
    }
  } else {
    // Untraced first half: the baseline trace.overhead_frac compares with.
    const PassResult base = runPass(w, o, rt, {}, o.seconds / 2, 1, 0);
    obs::MetricsRegistry registry;
    obs::TraceBuffer trace(std::size_t{1} << 20);
    Instrumentation instr{nullptr, &registry, &trace};
    main_pass = runPass(w, o, rt, instr, o.seconds / 2, 1, 0);
    main_pass.attempted += base.attempted;
    main_pass.failed += base.failed;
    attributeFlushSpans(main_pass.steps, trace);

    std::map<std::string, std::vector<double>> per_step;
    for (const auto& s : main_pass.steps) {
      auto l = s.layers;
      l["traverse.s"] = s.traverse_s;
      l["integrate.s"] = s.integrate_s;
      l["step.between_s"] = s.between();
      l["kernel.gpairs_per_s"] =
          s.traverse_s > 0.0
              ? (l["traverse.pp"] + l["traverse.pn"]) * 1e-9 / s.traverse_s
              : 0.0;
      l["step.unattributed_s"] = s.wall() - (s.traverse_s + s.integrate_s +
                                             l["checkpoint.s"] + l["flush.s"] +
                                             l["build.s"]);
      l["step.s"] = s.wall();
      for (const auto& [k, v] : l) per_step[k].push_back(v);
    }
    auto med = [&](const char* k) { return median(per_step[k]); };
    const double traced_p50 = med("step.s");
    const double base_p50 = median(stepWalls(base.steps));
    const std::vector<std::pair<const char*, const char*>> layer_units = {
        {"traverse.s", "s"},          {"traverse.pp", "count"},
        {"traverse.pn", "count"},     {"kernel.gpairs_per_s", "Gpair/s"},
        {"traverse.load_imbalance", "ratio"},
        {"cache.requests", "count"},  {"cache.fills", "count"},
        {"cache.nodes_inserted", "count"},
        {"cache.bytes_received", "B"}, {"cache.pauses", "count"},
        {"cache.lock_wait_s", "s"},   {"cache.cached_nodes", "count"},
        {"cache.fetch_retries", "count"},
        {"cache.degraded_reads", "count"},
        {"rts.messages", "count"},    {"rts.bytes", "B"},
        {"decompose.s", "s"},         {"flush.s", "s"},
        {"build.s", "s"},             {"build.leaf_share_s", "s"},
        {"build.split_buckets", "count"},
        {"checkpoint.s", "s"},        {"checkpoint.persist_s", "s"},
        {"checkpoint.bytes", "B"},    {"checkpoint.disk_bytes", "B"},
        {"lb.imbalance", "ratio"},    {"integrate.s", "s"},
        {"step.between_s", "s"},      {"step.unattributed_s", "s"},
    };
    for (const auto& [k, unit] : layer_units) out.push_back({k, med(k), unit});
    out.push_back({"force_err_p99",
                   quantile(main_pass.force_errors, 0.99), "1"});
    out.push_back({"trace.overhead_frac",
                   base_p50 > 0.0 ? traced_p50 / base_p50 - 1.0 : 0.0, "1"});

    std::printf("stepbench %s traced: %zu steps, step p50 %.4f s traced, "
                "%.4f s untraced\n",
                w.name.c_str(), main_pass.steps.size(), traced_p50, base_p50);
    std::printf("  %-26s %14s %-8s %7s\n", "layer metric (median/step)",
                "value", "unit", "%step");
    for (const auto& m : out) {
      const bool seconds = m.unit == "s";
      std::printf("  %-26s %14.6g %-8s", m.name.c_str(), m.value,
                  m.unit.c_str());
      if (seconds && traced_p50 > 0.0) {
        std::printf(" %6.1f%%", 100.0 * m.value / traced_p50);
      }
      std::printf("\n");
    }
    if (trace.dropped() > 0) {
      std::printf("  (trace buffer full: %llu spans dropped)\n",
                  static_cast<unsigned long long>(trace.dropped()));
    }
    if (!o.trace_out.empty()) {
      obs::Reporter(instr).writeChromeTrace(o.trace_out);
      std::printf("  chrome trace: %s\n", o.trace_out.c_str());
    }
  }

#ifndef STEPBENCH_BUILD_TYPE
#define STEPBENCH_BUILD_TYPE "unknown"
#endif
  std::printf("{\"facts\": {\"workload\": \"%s\", \"n\": %zu, \"procs\": %d, "
              "\"workers\": %d, \"comm_model\": %s, \"theta\": %.3g, "
              "\"kernel\": \"%s\", \"k\": %d, \"steps_per_run\": %d, "
              "\"seed\": %llu, \"build_type\": \"%s\", "
              "\"setup_samples\": %zu, \"step_samples\": %zu, "
              "\"step_s_tail_percentile\": %.1f, \"oracle_samples\": %llu, "
              "\"force_err_p99\": %.6g, \"force_gated_max\": %.6g, "
              "\"force_median_max\": %.6g, "
              "\"peak_rss_per_call\": %s}}\n",
              w.name.c_str(), w.n, w.procs, w.workers,
              w.comm_model ? "true" : "false",
              w.app == App::kGravity ? w.theta : 0.0, kernelName(w.kernel),
              w.app == App::kKnn ? w.k : 0, w.steps,
              static_cast<unsigned long long>(o.seed), STEPBENCH_BUILD_TYPE,
              main_pass.setup_s.size(),
              main_pass.steps.size(), tail_pct,
              static_cast<unsigned long long>(main_pass.samples),
              quantile(main_pass.force_errors, 0.99),
              main_pass.force_gated_max, main_pass.force_median_max,
              main_pass.peak_rss_per_call ? "true" : "false");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              main_pass.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(main_pass.attempted),
              static_cast<unsigned long long>(main_pass.failed),
              metricsJson(out).c_str());
  return 0;
}
