#pragma once

// Correctness oracles of the step benchmark. Each runs outside the timed
// regions, on the state a Driver::run() leaves behind, and returns a
// verdict the benchmark counts as one operation. stepbench_selftest.cpp
// proves each one can fail.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "apps/gravity/gravity.hpp"
#include "apps/sph/knn.hpp"
#include "core/serialization.hpp"
#include "decomp/decomposition.hpp"
#include "rts/checkpoint.hpp"
#include "tree/particle.hpp"
#include "util/rng.hpp"

namespace stepbench {

using paratreet::Particle;

/// `count` distinct particle indices in [0, n), drawn from `seed`, sorted.
inline std::vector<std::size_t> sampleIndices(std::size_t n, std::size_t count,
                                              std::uint64_t seed) {
  count = std::min(count, n);
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  paratreet::Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.below(n - i));
    std::swap(all[i], all[j]);
  }
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

/// Run fn(i) for i in [0, n) as tasks of `par` (the oracles are
/// O(sample * N) and would otherwise dominate a run's untimed time).
template <typename Fn>
void forEachSample(paratreet::ParallelFor& par, std::size_t n, Fn fn) {
  const std::size_t tasks =
      std::min(n, static_cast<std::size_t>(4 * std::max(1, par.ways())));
  par.run(static_cast<int>(tasks), [&](int t) {
    for (std::size_t i = static_cast<std::size_t>(t); i < n; i += tasks) {
      fn(i);
    }
  });
}

/// The q-quantile (0..1) of `values` by linear interpolation; 0 if empty.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// One sampled particle of the force oracle.
struct ForceSample {
  double error = 0.0;      ///< |a_tree - a_direct|
  double reference = 0.0;  ///< |a_direct|

  /// The relative acceleration error force_err_p99 is taken over.
  double relative() const {
    return reference > 0.0 ? error / reference : error;
  }
};

/// Compare each sampled particle's acceleration with an O(sample * N)
/// direct sum over every particle. `particles` must be indexed by
/// `order` and hold the accelerations the traversal computed at exactly
/// these positions.
inline std::vector<ForceSample> forceSamples(
    const std::vector<Particle>& particles,
    const std::vector<std::size_t>& sample,
    const paratreet::GravityParams& params, paratreet::ParallelFor& par) {
  std::vector<ForceSample> out(sample.size());
  forEachSample(par, sample.size(), [&](std::size_t s) {
    const Particle& target = particles[sample[s]];
    paratreet::Vec3 direct{};
    double potential = 0.0;
    for (const Particle& source : particles) {
      paratreet::gravExact(source, target.position, params, direct, potential);
    }
    out[s].error = (target.acceleration - direct).length();
    out[s].reference = direct.length();
  });
  return out;
}

/// Each sample's error as a share of max(|a_direct|, median |a_direct|
/// of the sample). A particle near the centre of mass feels almost no
/// net force, so its relative error is unbounded even for a correct
/// walk; against the sample's typical acceleration it is not.
inline std::vector<double> gatedForceErrors(
    const std::vector<ForceSample>& samples) {
  std::vector<double> refs;
  refs.reserve(samples.size());
  for (const auto& s : samples) refs.push_back(s.reference);
  const auto mid = refs.begin() + static_cast<std::ptrdiff_t>(refs.size() / 2);
  std::nth_element(refs.begin(), mid, refs.end());
  const double typical = refs.empty() ? 0.0 : *mid;
  std::vector<double> out;
  out.reserve(samples.size());
  for (const auto& s : samples) {
    const double scale = std::max(s.reference, typical);
    out.push_back(scale > 0.0 ? s.error / scale : s.error);
  }
  return out;
}

/// How close to the direct sum a correct walk is, in gated errors (see
/// gatedForceErrors). Barnes-Hut is approximate by design. Measured on
/// the gravity workloads (50k Plummer particles, 1024 samples per
/// realization): over ~100 realizations the sample median reached
/// 0.00071 at theta 0.7 and 0.0032 at theta 1.0; over ~250 the worst
/// sample reached 0.0086 and 0.048. Each bound is 1.4-1.5x the highest
/// figure seen. Dropping the quadrupole term doubles the median at theta
/// 0.7 (0.0013-0.0014); at theta 1.0 it moves the median only ~1.4x,
/// within the bound, since there the opening angle dominates the error.
struct ForceTolerance {
  double each;     ///< every sample's gated error at most this
  double typical;  ///< the sample's median gated error at most this
};

/// The tolerance of the workloads' opening angles, 0.7 and 1.0.
inline ForceTolerance forceTolerance(double theta) {
  return theta <= 0.7 ? ForceTolerance{0.013, 0.001}
                      : ForceTolerance{0.072, 0.0045};
}

/// How many samples match the direct sum: those whose gated error is at
/// most `tol.each`, or none when the sample's median gated error is
/// above `tol.typical` (an evaluation less accurate than the kernel's
/// across the board fails as a whole even when no single particle
/// stands out).
inline std::size_t forceMatches(const std::vector<ForceSample>& samples,
                                ForceTolerance tol) {
  const auto gated = gatedForceErrors(samples);
  if (quantile(gated, 0.5) > tol.typical) return 0;
  return static_cast<std::size_t>(
      std::count_if(gated.begin(), gated.end(),
                    [&tol](double e) { return e <= tol.each; }));
}

/// Does the neighbour list's k-th distance match brute force over every
/// particle? Equality is to 1e-12 relative: both sides evaluate the same
/// distance expression on the same coordinates.
inline bool knnQueryMatches(const std::vector<Particle>& particles,
                            std::size_t query,
                            const std::vector<paratreet::Neighbor>& found,
                            int k) {
  if (k < 1 || static_cast<int>(found.size()) != k) return false;
  // The k smallest squared distances, as a max-heap: memory O(k), so the
  // oracle adds next to nothing to the process's resident set.
  std::vector<double> nearest;
  nearest.reserve(static_cast<std::size_t>(k));
  const paratreet::Vec3 q = particles[query].position;
  for (const Particle& p : particles) {
    const double d2 = paratreet::distanceSquared(q, p.position);
    if (static_cast<int>(nearest.size()) < k) {
      nearest.push_back(d2);
      std::push_heap(nearest.begin(), nearest.end());
    } else if (d2 < nearest.front()) {
      std::pop_heap(nearest.begin(), nearest.end());
      nearest.back() = d2;
      std::push_heap(nearest.begin(), nearest.end());
    }
  }
  const double kth = nearest.front();
  double got = 0.0;
  for (const auto& nb : found) got = std::max(got, nb.d2);
  return std::abs(got - kth) <= 1e-12 * std::max(kth, 1e-300);
}

/// How many sampled queries' k-th neighbour distance matches brute force.
inline std::size_t knnMatches(const std::vector<Particle>& particles,
                              const std::vector<std::size_t>& sample,
                              const paratreet::NeighborStore& store,
                              paratreet::ParallelFor& par) {
  std::vector<char> ok(sample.size(), 0);
  forEachSample(par, sample.size(), [&](std::size_t s) {
    const auto order = static_cast<std::int32_t>(sample[s]);
    ok[s] = knnQueryMatches(particles, sample[s], store.neighbors(order),
                            store.k()) ? 1 : 0;
  });
  return static_cast<std::size_t>(std::count(ok.begin(), ok.end(), 1));
}

/// Verdict of the durable-checkpoint oracle.
struct CheckpointVerdict {
  bool ok = false;
  std::string why;  ///< empty when ok
};

/// Reopen `dir` and check that the newest generation that verifies is
/// `expect_step`, that nothing newer was skipped as damaged, and that
/// its chunks hold exactly the particle orders 0..n-1 at finite
/// positions. The CRC chain (manifest, file, chunk, header) is checked
/// by DurableStore::loadNewestVerified itself.
inline CheckpointVerdict verifyCheckpoint(const std::string& dir, int keep,
                                          std::uint64_t config_hash,
                                          int expect_step, std::size_t n) {
  CheckpointVerdict v;
  try {
    paratreet::rts::DurableStore store;
    paratreet::rts::DurableStore::Options opts;
    opts.dir = dir;
    opts.keep = keep;
    opts.config_hash = config_hash;
    store.open(std::move(opts));
    const auto rec = store.loadNewestVerified();
    if (!rec.has_value()) {
      v.why = "no generation on disk";
      return v;
    }
    if (rec->step != expect_step || rec->generations_skipped != 0) {
      v.why = "newest verified generation is step " +
              std::to_string(rec->step) + ", expected " +
              std::to_string(expect_step) + " (" +
              std::to_string(rec->generations_skipped) +
              " skipped: " + rec->diagnostic + ")";
      return v;
    }
    if (rec->particle_count != n) {
      v.why = "manifest holds " + std::to_string(rec->particle_count) +
              " particles, expected " + std::to_string(n);
      return v;
    }
    std::vector<char> seen(n, 0);
    std::size_t total = 0;
    for (const auto& chunk : rec->chunks) {
      const auto decoded = paratreet::deserializeCheckpointChunk(chunk);
      for (const Particle& p : decoded.second) {
        ++total;
        const auto i = static_cast<std::size_t>(p.order);
        if (p.order < 0 || i >= n || seen[i] != 0 ||
            !std::isfinite(p.position.x) || !std::isfinite(p.position.y) ||
            !std::isfinite(p.position.z)) {
          v.why = "chunk particle with bad or duplicate order " +
                  std::to_string(p.order);
          return v;
        }
        seen[i] = 1;
      }
    }
    if (total != n) {
      v.why = "chunks hold " + std::to_string(total) + " particles, expected " +
              std::to_string(n);
      return v;
    }
    v.ok = true;
  } catch (const std::exception& e) {
    v.why = e.what();
  }
  return v;
}

}  // namespace stepbench
