#pragma once

// The workloads of the step benchmark: each is a Driver subclass whose
// hooks stamp the step clock (Probe) and time every Forest call they make.
// stepbench.cpp runs them; stepbench_selftest.cpp runs them small to prove
// the oracles can fail.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "apps/gravity/gravity.hpp"
#include "apps/sph/knn.hpp"
#include "apps/sph/sph.hpp"
#include "core/driver.hpp"
#include "oracles.hpp"
#include "util/distributions.hpp"

namespace stepbench {

using namespace paratreet;
using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads

enum class App { kGravity, kKnn };

/// One workload: the problem, the machine shape and the app settings.
/// Why each exists is recorded in README.md.
struct Workload {
  std::string name;
  App app = App::kGravity;
  std::size_t n = 0;
  int procs = 1;
  int workers = 1;
  /// bench::defaultInterconnect() on cross-rank sends
  bool comm_model = false;
  int steps = 8;            ///< iterations per Driver::run()
  // gravity
  double theta = 0.7;
  bool quadrupole = true;   ///< false only in the oracle self-test
  EvalKernel kernel = EvalKernel::kVisitor;
  bool checkpoint = false;  ///< checkpoint_every = 1 with durable persist
  bool load_balance = false;
  // knn
  int k = 32;
  // oracle samples per Driver::run()
  std::size_t oracle_samples = 0;
};

/// The benchmark's workloads by name; an empty name when unknown.
///
/// Sizes are chosen so a step takes about 0.4 s on a 4-core host: a run
/// of --seconds 25 then yields ~50 step samples, enough for a tail
/// percentile with ten samples beyond it, and the benchmark's full
/// schedule of runs fits its time budget.
inline Workload findWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "gravity_bh") {
    w.app = App::kGravity;
    w.n = 50000;
    w.procs = 2;
    w.workers = 2;
    w.steps = 8;
    w.theta = 0.7;
    w.kernel = EvalKernel::kBatched;
    w.oracle_samples = 1024;
  } else if (name == "knn_clustered") {
    w.app = App::kKnn;
    w.n = 100000;
    w.procs = 4;
    w.workers = 1;
    w.comm_model = true;
    w.steps = 8;
    w.k = 32;
    w.oracle_samples = 128;
  } else if (name == "gravity_ckpt") {
    w.app = App::kGravity;
    w.n = 50000;
    w.procs = 2;
    w.workers = 2;
    w.steps = 8;
    w.theta = 1.0;
    w.kernel = EvalKernel::kVisitor;
    w.checkpoint = true;
    w.load_balance = true;
    w.oracle_samples = 1024;
  } else {
    w.name.clear();
  }
  return w;
}

/// The workload's initial conditions, generated from `seed` alone.
inline std::vector<Particle> initialConditions(const Workload& w,
                                               std::uint64_t seed) {
  if (w.app == App::kKnn) return makeParticles(clustered(w.n, seed));
  return makeParticles(plummer(w.n, seed, 0.25));
}

inline const char* kernelName(EvalKernel k) {
  return k == EvalKernel::kBatched ? "batched" : "visitor";
}

/// Checkpoint retention of gravity_ckpt (on-disk generations kept).
constexpr int kCheckpointKeep = 2;
/// Timestep of the gravity workloads (gravity_sim's).
constexpr double kDt = 1e-3;
/// Per-step displacement scale of the kNN drift: small against the
/// clusters' 0.02 scale, so the field keeps its shape while every flush
/// re-decomposes moved particles.
constexpr double kDrift = 1e-4;

// ---------------------------------------------------------------------------
// Step clock and layer probe

/// Layer readings taken in a traced run (cumulative getters snapshotted
/// at each traversal() entry; per-step values are differences).
struct Snapshot {
  PhaseTimes phase;
  double checkpoint_s = 0.0;
  double persist_s = 0.0;
  double checkpoint_bytes = 0.0;
  double disk_bytes = 0.0;
  double pp = 0.0;
  double pn = 0.0;
  double messages = 0.0;
  double bytes = 0.0;
};

/// One step: traversal(i) entry to traversal(i+1) entry, or to run()
/// return for the last step of a run.
struct StepRecord {
  Clock::time_point start{};
  Clock::time_point end{};
  Clock::time_point post_exit{};
  double traverse_s = 0.0;   ///< Forest::traverse / traverseUpAndDown calls
  double integrate_s = 0.0;  ///< Forest::forEachParticle calls
  std::map<std::string, double> layers;  ///< traced runs only

  double wall() const { return secondsBetween(start, end); }
  double between() const { return secondsBetween(post_exit, end); }
};

/// Collects bench-side timestamps for every step of every Driver::run()
/// and, when traced, the layer readings between them.
class Probe {
 public:
  Probe(rts::Runtime& rt, Instrumentation instr) : rt_(rt), instr_(instr) {}

  bool traced() const { return instr_.metrics != nullptr; }
  obs::TraceBuffer* trace() const { return instr_.trace; }

  /// A Driver::run() call starts. A `setup_only` call gives one set-up
  /// sample and is stopped at its first traversal() (see SetupOnly).
  void runEntry(bool setup_only = false) {
    run_entry_ = Clock::now();
    in_setup_ = true;
    setup_only_ = setup_only;
  }

  bool setupOnly() const { return setup_only_; }

  template <typename ForestT>
  void traversalEntry(const ForestT& forest) {
    const auto now = Clock::now();
    if (in_setup_) {
      setup_s_.push_back(secondsBetween(run_entry_, now));
      in_setup_ = false;
      if (setup_only_) return;
      if (traced()) prev_ = snapshot(forest);
    } else if (open_) {
      closeStep(now, forest);
    }
    StepRecord r;
    r.start = now;
    steps_.push_back(std::move(r));
    open_ = true;
  }

  /// After the walk, before the app's post-processing: per-traversal
  /// getters (caches are rebuilt every build, so these are this step's).
  template <typename ForestT>
  void afterWalk(const ForestT& forest) {
    if (!traced() || steps_.empty()) return;
    auto& l = steps_.back().layers;
    const auto c = forest.cacheStatsTotal();
    l["cache.requests"] = static_cast<double>(c.requests_sent);
    l["cache.fills"] = static_cast<double>(c.fills);
    l["cache.nodes_inserted"] = static_cast<double>(c.nodes_inserted);
    l["cache.bytes_received"] = static_cast<double>(c.bytes_received);
    l["cache.pauses"] = static_cast<double>(c.pauses);
    l["cache.lock_wait_s"] = static_cast<double>(c.lock_wait_ns) * 1e-9;
    l["cache.fetch_retries"] = static_cast<double>(c.fetch_retries);
    l["cache.degraded_reads"] = static_cast<double>(c.degraded_reads);
    l["cache.cached_nodes"] = static_cast<double>(forest.cachedNodeCount());
    l["build.split_buckets"] = static_cast<double>(forest.splitBucketCount());
    const auto loads = forest.partitionLoads();
    double max_load = 0.0, sum_load = 0.0;
    for (const double x : loads) {
      max_load = std::max(max_load, x);
      sum_load += x;
    }
    l["traverse.load_imbalance"] =
        sum_load > 0.0 ? max_load * static_cast<double>(loads.size()) / sum_load
                       : 1.0;
    l["lb.imbalance"] = forest.measuredImbalance();
  }

  void postExit() {
    if (open_) steps_.back().post_exit = Clock::now();
  }

  template <typename ForestT>
  void runReturn(const ForestT& forest) {
    if (open_) closeStep(Clock::now(), forest);
  }

  /// The run threw: drop the half-open step.
  void abandonRun() {
    if (open_) steps_.pop_back();
    open_ = false;
    in_setup_ = false;
  }

  void addTraverse(double s) {
    if (open_) steps_.back().traverse_s += s;
  }
  void addIntegrate(double s) {
    if (open_) steps_.back().integrate_s += s;
  }

  std::vector<StepRecord>& steps() { return steps_; }
  const std::vector<double>& setupSeconds() const { return setup_s_; }

 private:
  template <typename ForestT>
  Snapshot snapshot(const ForestT& forest) const {
    Snapshot s;
    s.phase = forest.phaseTimes();
    const auto* m = instr_.metrics;
    auto gauge = [m](const char* name) {
      const auto* g = m->findGauge(name);
      return g != nullptr ? g->value() : 0.0;
    };
    auto counter = [m](const char* name) {
      const auto* c = m->findCounter(name);
      return c != nullptr ? static_cast<double>(c->value()) : 0.0;
    };
    s.checkpoint_s = gauge("checkpoint.seconds");
    s.persist_s = gauge("checkpoint.disk_seconds");
    s.checkpoint_bytes = counter("checkpoint.bytes");
    s.disk_bytes = counter("checkpoint.disk_bytes");
    s.pp = counter("traversal.interactions.pp");
    s.pn = counter("traversal.interactions.pn");
    const auto comm = rt_.stats();
    s.messages = static_cast<double>(comm.messages);
    s.bytes = static_cast<double>(comm.bytes);
    return s;
  }

  template <typename ForestT>
  void closeStep(Clock::time_point now, const ForestT& forest) {
    auto& r = steps_.back();
    r.end = now;
    if (r.post_exit == Clock::time_point{}) r.post_exit = now;
    open_ = false;
    if (!traced()) return;
    const Snapshot cur = snapshot(forest);
    auto& l = r.layers;
    l["decompose.s"] = cur.phase.decompose - prev_.phase.decompose;
    l["build.s"] = cur.phase.build - prev_.phase.build;
    l["build.leaf_share_s"] = cur.phase.leaf_share - prev_.phase.leaf_share;
    l["checkpoint.s"] = cur.checkpoint_s - prev_.checkpoint_s;
    l["checkpoint.persist_s"] = cur.persist_s - prev_.persist_s;
    l["checkpoint.bytes"] = cur.checkpoint_bytes - prev_.checkpoint_bytes;
    l["checkpoint.disk_bytes"] = cur.disk_bytes - prev_.disk_bytes;
    l["traverse.pp"] = cur.pp - prev_.pp;
    l["traverse.pn"] = cur.pn - prev_.pn;
    l["rts.messages"] = cur.messages - prev_.messages;
    l["rts.bytes"] = cur.bytes - prev_.bytes;
    prev_ = cur;
  }

  rts::Runtime& rt_;
  Instrumentation instr_;
  Clock::time_point run_entry_{};
  bool in_setup_ = false;
  bool setup_only_ = false;
  bool open_ = false;
  Snapshot prev_;
  std::vector<StepRecord> steps_;
  std::vector<double> setup_s_;
};

// ---------------------------------------------------------------------------
// Drivers

/// Thrown from traversal() to stop a set-up-only Driver::run() call once
/// its set-up is timed: the runtime is quiescent there (the first build
/// has drained), so the call unwinds with no task in flight.
struct SetupOnly {};

/// Driver base of every workload: stamps the hook boundaries and times
/// (and, traced, spans) each Forest call the app makes inside them.
template <typename Data>
class BenchDriver : public Driver<Data, OctTreeType> {
 public:
  BenchDriver(const Workload& w, Probe& probe) : w_(w), probe_(probe) {}

  void traversal(int iter) final {
    probe_.traversalEntry(this->forest());
    if (probe_.setupOnly()) throw SetupOnly{};
    obs::TraceSpan span(probe_.trace(), "bench.traversal", "bench");
    walk(iter);
  }

  void postTraversal(int iter) final {
    {
      obs::TraceSpan span(probe_.trace(), "bench.post_traversal", "bench");
      probe_.afterWalk(this->forest());
      // The last iteration is followed by no step, so the app leaves its
      // particles where the traversal saw them: the oracles then check
      // the outputs against exactly the inputs that produced them.
      if (iter + 1 < w_.steps) advance(iter);
    }
    probe_.postExit();
  }

 protected:
  virtual void walk(int iter) = 0;
  virtual void advance(int iter) = 0;

  void shape(Configuration& conf) const {
    conf.num_iterations = w_.steps;
    conf.tree_type = TreeType::eOct;
    conf.decomp_type = DecompType::eSfc;
  }

  template <typename V>
  void timedDown(V visitor, EvalKernel kernel) {
    obs::TraceSpan span(probe_.trace(), "bench.forest.traverse", "bench");
    const auto t0 = Clock::now();
    this->template startDown<V>(std::move(visitor), TraversalStyle::kTransposed,
                                kernel);
    probe_.addTraverse(secondsBetween(t0, Clock::now()));
  }

  template <typename V>
  void timedUpAndDown(V visitor, EvalKernel kernel) {
    obs::TraceSpan span(probe_.trace(), "bench.forest.traverse_up_and_down",
                        "bench");
    const auto t0 = Clock::now();
    this->template startUpAndDown<V>(std::move(visitor), kernel);
    probe_.addTraverse(secondsBetween(t0, Clock::now()));
  }

  template <typename Fn>
  void timedForEach(Fn fn) {
    obs::TraceSpan span(probe_.trace(), "bench.forest.for_each_particle",
                        "bench");
    const auto t0 = Clock::now();
    this->forest().forEachParticle(std::move(fn));
    probe_.addIntegrate(secondsBetween(t0, Clock::now()));
  }

  const Workload& w_;
  Probe& probe_;
};

/// Barnes-Hut gravity in gravity_sim's shape: Plummer sphere, SFC
/// partitions over an octree, kick-drift integration.
class GravityApp final : public BenchDriver<CentroidData> {
 public:
  GravityApp(const Workload& w, Probe& probe, std::string checkpoint_dir)
      : BenchDriver(w, probe), checkpoint_dir_(std::move(checkpoint_dir)) {}

  GravityParams params() const {
    return {w_.theta, 1e-3, 1.0, w_.quadrupole};
  }

  void configure(Configuration& conf) override {
    shape(conf);
    conf.min_partitions = 16;
    conf.min_subtrees = 8;
    conf.bucket_size = 12;
    if (w_.load_balance) {
      conf.lb_period = 1;
      conf.lb_scheme = LbScheme::kSfc;
    }
    if (w_.checkpoint) {
      conf.checkpoint_every = 1;
      conf.checkpoint_dir = checkpoint_dir_;
      conf.checkpoint_keep = kCheckpointKeep;
    }
  }

 protected:
  void walk(int) override {
    timedDown(GravityVisitor{params()}, w_.kernel);
  }

  void advance(int) override {
    const double dt = kDt;
    timedForEach([dt](Particle& p) {
      p.velocity += p.acceleration * dt;
      p.position += p.velocity * dt;
    });
  }

 private:
  std::string checkpoint_dir_;
};

/// k-nearest neighbours with the up-and-down walk over a clustered
/// field, drifting every particle a little between steps.
class KnnApp final : public BenchDriver<SphData> {
 public:
  KnnApp(const Workload& w, Probe& probe)
      : BenchDriver(w, probe), store_(w.n, w.k) {}

  const NeighborStore& store() const { return store_; }

  void configure(Configuration& conf) override {
    shape(conf);
    conf.min_partitions = 4 * w_.procs * w_.workers;
    conf.min_subtrees = 2 * w_.procs;
    conf.bucket_size = 16;
  }

 protected:
  void walk(int) override {
    NeighborStore* store = &store_;
    timedForEach([store](Particle& p) {
      store->neighbors(p.order).clear();
      p.ball2 = kInfiniteBall;
    });
    timedUpAndDown(KNearestVisitor<SphData>{&store_}, EvalKernel::kVisitor);
  }

  void advance(int iter) override {
    const double phase = static_cast<double>(iter);
    timedForEach([phase](Particle& p) {
      const double a = 0.618034 * static_cast<double>(p.order) + phase;
      p.position += Vec3(std::cos(a), std::sin(a), std::cos(1.7 * a)) * kDrift;
    });
  }

 private:
  NeighborStore store_;
};

}  // namespace stepbench
