// "Dinner near me" (paper Fig. 1b): k-nearest-neighbor search over a
// point-of-interest data set, comparing RSMI's fast approximate kNN with
// the exact RSMIa answer.
//
//   ./examples/poi_search [num_pois] [k]
#include <cstdio>
#include <cstdlib>

#include "common/timer.h"
#include "core/rsmi_index.h"
#include "data/generators.h"
#include "data/ground_truth.h"
#include "data/workloads.h"

int main(int argc, char** argv) {
  using namespace rsmi;
  const size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100000;
  const size_t k = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 10;

  // POIs cluster around cities — the OSM-like generator reproduces that.
  const std::vector<Point> pois = GenerateOsmLike(n, /*seed=*/7);
  RsmiIndex index(pois, RsmiConfig{});

  // A few "users" located near POIs (as app users usually are).
  const auto users = GenerateQueryPoints(pois, 5, /*seed=*/99,
                                         /*perturb=*/0.002);

  std::printf("%zu POIs indexed; %zu-NN searches:\n\n", n, k);
  for (size_t u = 0; u < users.size(); ++u) {
    const Point& me = users[u];
    QueryContext ctx;
    WallTimer t_approx;
    const auto nearby = index.KnnQuery(me, k, ctx);
    const double us_approx = t_approx.ElapsedMicros();

    WallTimer t_exact;
    const auto truth = index.KnnQueryExact(me, k, ctx);
    const double us_exact = t_exact.ElapsedMicros();

    const double recall = RecallOf(nearby, truth);
    std::printf("user %zu at (%.4f, %.4f):\n", u, me.x, me.y);
    std::printf("  approximate kNN: %7.1f us, recall %.2f\n", us_approx,
                recall);
    std::printf("  exact kNN:       %7.1f us\n", us_exact);
    for (size_t i = 0; i < std::min<size_t>(3, nearby.size()); ++i) {
      std::printf("    #%zu  (%.4f, %.4f)  %.1f m away (unit space x 100km)\n",
                  i + 1, nearby[i].x, nearby[i].y,
                  Dist(nearby[i], me) * 100000.0);
    }
  }
  return 0;
}
