// Update handling (paper Section 5 + 6.2.5): a moving-object style stream
// of insertions and deletions against the learned index, with RSMIr-style
// periodic rebuilds keeping query performance healthy.
//
//   ./examples/update_stream [initial_points] [stream_length]
#include <cstdio>
#include <cstdlib>

#include "common/rng.h"
#include "common/timer.h"
#include "core/rsmi_index.h"
#include "data/generators.h"
#include "data/workloads.h"

int main(int argc, char** argv) {
  using namespace rsmi;
  const size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 50000;
  const size_t stream = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 25000;

  std::vector<Point> live = GenerateNormal(n, /*seed=*/11);
  RsmiIndex index(live, RsmiConfig{});
  Rng rng(123);

  std::printf("initial: %zu points; streaming %zu updates "
              "(70%% inserts / 30%% deletes)\n\n",
              n, stream);
  std::printf("%8s %12s %14s %14s %10s\n", "updates", "live", "insert(us)",
              "pq(us)", "rebuilds");

  const size_t report_every = stream / 5;
  double insert_us = 0.0;
  size_t inserts = 0;
  int rebuilds = 0;
  for (size_t i = 1; i <= stream; ++i) {
    if (rng.Uniform() < 0.7 || live.empty()) {
      // A new object appears near the existing distribution.
      const Point base = live[rng.UniformInt(0, live.size() - 1)];
      const Point p{std::min(1.0, std::max(0.0, base.x + rng.Normal(0, 0.01))),
                    std::min(1.0, std::max(0.0, base.y + rng.Normal(0, 0.01)))};
      WallTimer t;
      index.Insert(p);
      insert_us += t.ElapsedMicros();
      ++inserts;
      live.push_back(p);
    } else {
      // An object disappears.
      const size_t victim = rng.UniformInt(0, live.size() - 1);
      index.Delete(live[victim]);
      live[victim] = live.back();
      live.pop_back();
    }

    // RSMIr: periodic rebuild (paper: every 10% n insertions).
    if (i % (n / 10) == 0) {
      rebuilds += index.RebuildOverflowingSubtrees();
    }

    if (i % report_every == 0) {
      // Probe query health: 1000 point queries over live objects, their
      // costs folded into one per-batch QueryContext.
      const auto probes = GenerateQueryPoints(live, 1000, 17 + i);
      QueryContext probe_ctx;
      WallTimer t;
      size_t found = 0;
      for (const auto& q : probes) {
        if (index.PointQuery(q, probe_ctx).has_value()) ++found;
      }
      std::printf("%8zu %12zu %14.2f %14.2f %10d\n", i, live.size(),
                  inserts == 0 ? 0.0 : insert_us / inserts,
                  t.ElapsedMicros() / probes.size(), rebuilds);
      if (found != probes.size()) {
        std::printf("  !! lost %zu of %zu probes\n", probes.size() - found,
                    probes.size());
      }
    }
  }
  std::printf("\nfinal index: %zu live points, height %d, %.1f MB\n",
              live.size(), index.Stats().height,
              index.Stats().size_bytes / 1048576.0);
  return 0;
}
