// Self-test of the step benchmark's oracles: each must pass on a correct
// run of its workload (at a small size) and fail on damaged output.
//
// Usage: stepbench_selftest [--work-dir=<dir>]
// Exits 0 when every case behaves, 1 otherwise.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "decomp/runtime_parallel.hpp"
#include "oracles.hpp"
#include "workloads.hpp"

using namespace stepbench;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

Workload small(const char* name, std::size_t n, int steps) {
  Workload w = findWorkload(name);
  w.n = n;
  w.steps = steps;
  return w;
}

rts::Runtime::Config shapeOf(const Workload& w) {
  rts::Runtime::Config rc;
  rc.n_procs = w.procs;
  rc.workers_per_proc = w.workers;
  return rc;
}

RuntimeParallelFor oracleFor(rts::Runtime& rt) {
  std::vector<int> procs;
  for (int p = 0; p < rt.numProcs(); ++p) procs.push_back(p);
  return RuntimeParallelFor(rt, std::move(procs));
}

/// How the gravity oracle's input is damaged.
enum class Damage { kNone, kZeroed, kMonopole, kWiderAngle };

/// Run gravity workload `name` at 20k particles (damaged as asked) and
/// return how many of 1024 sampled particles match the direct sum.
std::size_t gravityMatches(const char* name, Damage damage) {
  Workload w = small(name, 20000, 2);
  const ForceTolerance tol = forceTolerance(w.theta);
  // A less accurate evaluation: no quadrupole term, or the tree opened
  // at a 0.4 wider angle than the tolerance is for.
  if (damage == Damage::kMonopole) w.quadrupole = false;
  if (damage == Damage::kWiderAngle) w.theta += 0.4;
  rts::Runtime rt(shapeOf(w));
  Probe probe(rt, {});
  GravityApp app(w, probe, "");
  probe.runEntry();
  app.run(rt, initialConditions(w, 5));
  auto particles = app.forest().collect();
  if (damage == Damage::kZeroed) {
    for (auto& p : particles) p.acceleration = Vec3{};
  }
  auto par = oracleFor(rt);
  const auto sample = sampleIndices(w.n, 1024, 11);
  const auto forces = forceSamples(particles, sample, app.params(), par);
  const auto gated = gatedForceErrors(forces);
  std::printf("      (gated error median %.3g, worst %.3g; tolerance %.3g, "
              "%.3g)\n",
              quantile(gated, 0.5), quantile(gated, 1.0), tol.typical,
              tol.each);
  return forceMatches(forces, tol);
}

void forceOracle() {
  for (const char* name : {"gravity_bh", "gravity_ckpt"}) {
    const std::string what = std::string("force oracle (") + name + "): ";
    expect(gravityMatches(name, Damage::kNone) == 1024,
           (what + "tree accelerations match the direct sum").c_str());
    expect(gravityMatches(name, Damage::kZeroed) == 0,
           (what + "zeroed accelerations fail").c_str());
    expect(gravityMatches(name, Damage::kWiderAngle) == 0,
           (what + "opening the tree 0.4 wider fails").c_str());
  }
  // At theta 1.0 the opening angle dominates the error and the monopole
  // stays within gravity_ckpt's tolerance (see ForceTolerance).
  expect(gravityMatches("gravity_bh", Damage::kMonopole) == 0,
         "force oracle (gravity_bh): dropping the quadrupole term fails");
}

void knnOracle() {
  const Workload w = small("knn_clustered", 5000, 2);
  rts::Runtime rt(shapeOf(w));
  Probe probe(rt, {});
  KnnApp app(w, probe);
  probe.runEntry();
  app.run(rt, initialConditions(w, 5));
  const auto particles = app.forest().collect();
  const auto sample = sampleIndices(w.n, 64, 11);
  auto par = oracleFor(rt);
  expect(knnMatches(particles, sample, app.store(), par) == sample.size(),
         "knn oracle: neighbour lists match brute force");

  const auto victim = static_cast<std::int32_t>(sample.front());
  NeighborStore farther = app.store();
  auto& far_list = farther.neighbors(victim);
  std::pop_heap(far_list.begin(), far_list.end());
  far_list.back().d2 *= 1.5;  // a farther particle kept in place of the k-th
  std::push_heap(far_list.begin(), far_list.end());
  expect(knnMatches(particles, sample, farther, par) < sample.size(),
         "knn oracle: a wrong k-th neighbour fails its query");

  NeighborStore shorter = app.store();
  shorter.neighbors(victim).pop_back();
  expect(knnMatches(particles, sample, shorter, par) < sample.size(),
         "knn oracle: a list missing a neighbour fails its query");
}

void checkpointOracle(const std::string& work_dir) {
  const Workload w = small("gravity_ckpt", 3000, 4);
  const std::string dir = work_dir + "/selftest_ckpt";
  std::filesystem::remove_all(dir);
  rts::Runtime rt(shapeOf(w));
  Probe probe(rt, {});
  GravityApp app(w, probe, dir);
  probe.runEntry();
  app.run(rt, initialConditions(w, 5));
  const auto hash = app.forest().config().compatibilityHash(w.n);
  const int last = w.steps - 2;  // the Driver skips the final iteration
  expect(verifyCheckpoint(dir, kCheckpointKeep, hash, last, w.n).ok,
         "checkpoint oracle: the last generation verifies");
  expect(!verifyCheckpoint(dir, kCheckpointKeep, hash, last, w.n + 1).ok,
         "checkpoint oracle: a particle-count mismatch fails");

  // Tear the newest generation: cut its chunk file in half. The store
  // falls back to the older generation, which is not the last step.
  const std::string chunks =
      dir + "/ckpt_" + std::to_string(last) + "/chunks.bin";
  const auto size = std::filesystem::file_size(chunks);
  std::filesystem::resize_file(chunks, size / 2);
  const auto torn = verifyCheckpoint(dir, kCheckpointKeep, hash, last, w.n);
  expect(!torn.ok, "checkpoint oracle: a torn newest generation fails");
  std::printf("      (%s)\n", torn.why.c_str());
  std::filesystem::remove_all(dir);
}

}  // namespace

int main(int argc, char** argv) {
  std::string work_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--work-dir=", 0) == 0) {
      work_dir = a.substr(11);
    } else {
      std::fprintf(stderr, "usage: stepbench_selftest [--work-dir=<dir>]\n");
      return 2;
    }
  }
  std::filesystem::create_directories(work_dir);
  forceOracle();
  knnOracle();
  checkpointOracle(work_dir);
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
