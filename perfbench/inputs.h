// Seeded inputs for the dqbench workloads: the object population, the
// dead-reckoning update stream, and the pool of client session specs. All
// of it is generated from the workload seed before any timing starts; the
// program under test only ever receives these generated values.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/check.h"
#include "motion/motion_segment.h"
#include "motion/tracker.h"
#include "server/executor.h"
#include "workload/data_generator.h"

namespace perfbench {

/// The paper's Sect. 5 population: `objects` objects in a 100x100 space,
/// updating about once per time unit over [0, horizon].
inline std::vector<dqmo::MotionSegment> MakePopulation(uint64_t seed,
                                                       int objects,
                                                       double horizon) {
  dqmo::DataGeneratorOptions o;
  o.num_objects = objects;
  o.horizon = horizon;
  o.seed = seed;
  auto data = dqmo::GenerateMotionData(o);
  DQMO_CHECK(data.ok());
  return std::move(data).value();
}

/// Segments reported by DeadReckoningTracker for a simulated fleet, split at
/// `t_split` into history (closed at or before it) and the live update
/// stream (closed after it, in report order).
struct TrackedStream {
  std::vector<dqmo::MotionSegment> history;
  std::vector<dqmo::MotionSegment> updates;
};

/// Simulates `objects` objects whose true motion turns about once per time
/// unit at about unit speed, reflecting off the walls of the 100x100 space,
/// observed every 0.1 time units. Each observation goes to the object's
/// tracker (threshold 0.5); a report closes the previous segment. Stops
/// once `min_updates` reports after `t_split` have been collected.
inline TrackedStream MakeTrackedStream(uint64_t seed, int objects,
                                       double t_split, size_t min_updates) {
  using dqmo::Vec;
  constexpr double kThreshold = 0.5;
  constexpr double kObsDt = 0.1;
  constexpr double kSpace = 100.0;
  struct Truth {
    Vec pos;
    Vec vel;
    double next_turn = 0.0;
  };
  dqmo::Rng rng(seed);
  auto turn = [&rng](Truth* o, double t) {
    const double angle = rng.Uniform(0.0, 2.0 * M_PI);
    const double speed = std::max(0.0, rng.Normal(1.0, 0.25));
    o->vel = Vec(speed * std::cos(angle), speed * std::sin(angle));
    o->next_turn = t + std::max(0.05, rng.Normal(1.0, 0.25));
  };
  std::vector<Truth> truth(static_cast<size_t>(objects));
  std::vector<dqmo::DeadReckoningTracker> trackers;
  trackers.reserve(truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    truth[i].pos = Vec(rng.Uniform(0.0, kSpace), rng.Uniform(0.0, kSpace));
    turn(&truth[i], 0.0);
    trackers.emplace_back(static_cast<dqmo::ObjectId>(i), kThreshold, 0.0,
                          truth[i].pos, truth[i].vel);
  }
  TrackedStream out;
  for (int step = 1; out.updates.size() < min_updates; ++step) {
    const double t = step * kObsDt;
    for (size_t i = 0; i < truth.size(); ++i) {
      Truth& o = truth[i];
      for (int d = 0; d < 2; ++d) {
        o.pos[d] += o.vel[d] * kObsDt;
        if (o.pos[d] < 0.0 || o.pos[d] > kSpace) {
          o.vel[d] = -o.vel[d];
          o.pos[d] = std::clamp(o.pos[d], 0.0, kSpace);
        }
      }
      if (t >= o.next_turn) turn(&o, t);
      auto closed = trackers[i].Observe(t, o.pos, o.vel);
      if (closed.has_value()) {
        (t <= t_split ? out.history : out.updates).push_back(*closed);
      }
    }
  }
  return out;
}

/// Every workload's observers: frame step, query window side and kNN k.
constexpr double kFrameDt = 0.1;
constexpr double kWindow = 8.0;
constexpr int kK = 8;

/// How the clients of one workload fly.
struct SpecShape {
  std::vector<dqmo::SessionKind> kinds;  // Rotated through the pool.
  int frames = 50;
  double mean_leg = 4.0;
  double t0_lo = 1.0;
  double t0_hi = 80.0;
};

/// `count` deterministic session specs (observer seed, start time, kind).
/// Clients draw from this pool round robin, so every spec's checksum can be
/// replayed serially after the run.
inline std::vector<dqmo::SessionSpec> MakeSpecPool(uint64_t seed, int count,
                                                   const SpecShape& shape) {
  dqmo::Rng rng(seed);
  std::vector<dqmo::SessionSpec> specs;
  for (int i = 0; i < count; ++i) {
    dqmo::SessionSpec s;
    s.kind = shape.kinds[static_cast<size_t>(i) % shape.kinds.size()];
    s.seed = rng.NextU64();
    s.frames = shape.frames;
    s.frame_dt = kFrameDt;
    s.t0 = rng.Uniform(shape.t0_lo, shape.t0_hi);
    s.window = kWindow;
    s.k = kK;
    s.mean_leg = shape.mean_leg;
    specs.push_back(s);
  }
  return specs;
}

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
