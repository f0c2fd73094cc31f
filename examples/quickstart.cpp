// Quickstart: build an RSMI over synthetic points and run the three query
// types of the paper (point, window, kNN).
//
//   ./examples/quickstart [num_points]
#include <cstdio>
#include <cstdlib>

#include "core/rsmi_index.h"
#include "data/generators.h"
#include "data/workloads.h"

int main(int argc, char** argv) {
  using namespace rsmi;
  const size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 50000;

  // 1. Some spatial data: points in the unit square.
  std::printf("Generating %zu OSM-like points...\n", n);
  const std::vector<Point> points = GenerateOsmLike(n, /*seed=*/1);

  // 2. Build the learned index. RsmiConfig's defaults follow the paper
  //    (block capacity B=100, partition threshold N=10000, Hilbert curve).
  RsmiConfig config;
  std::printf("Building RSMI (this trains one MLP per sub-model)...\n");
  RsmiIndex index(points, config);

  const IndexStats stats = index.Stats();
  std::printf("  height=%d  sub-models=%zu  size=%.1f MB\n", stats.height,
              stats.num_models, stats.size_bytes / 1048576.0);

  // 3. Point query: exact-match lookup of an indexed point. Every query
  //    charges its costs (block accesses, sub-model invocations) to the
  //    QueryContext it is given.
  const Point p = points[n / 2];
  QueryContext ctx;
  const auto found = index.PointQuery(p, ctx);
  std::printf("\nPointQuery(%.4f, %.4f): %s (%llu block accesses)\n", p.x,
              p.y, found.has_value() ? "found" : "missing",
              static_cast<unsigned long long>(ctx.block_accesses));

  // 4. Window query ("search this area"). The plain call is approximate
  //    with no false positives; WindowQueryExact gives the full answer.
  const Rect window{{p.x - 0.01, p.y - 0.01}, {p.x + 0.01, p.y + 0.01}};
  const auto approx = index.WindowQuery(window, ctx);
  const auto exact = index.WindowQueryExact(window, ctx);
  std::printf("WindowQuery(+-0.01 around it): %zu points (exact: %zu, recall %.3f)\n",
              approx.size(), exact.size(),
              exact.empty() ? 1.0
                            : static_cast<double>(approx.size()) / exact.size());

  // 5. kNN query ("dinner near me").
  const auto knn = index.KnnQuery(p, 5, ctx);
  std::printf("KnnQuery(k=5):\n");
  for (const auto& nb : knn) {
    std::printf("  (%.4f, %.4f)  dist=%.5f\n", nb.x, nb.y, Dist(nb, p));
  }

  // 6. Updates.
  const Point fresh{p.x + 1e-4, p.y + 1e-4};
  index.Insert(fresh);
  std::printf("\nInserted a point: %s\n",
              index.PointQuery(fresh, ctx).has_value() ? "findable" : "LOST");
  index.Delete(fresh);
  std::printf("Deleted it again: %s\n",
              index.PointQuery(fresh, ctx).has_value() ? "STILL THERE"
                                                       : "gone");
  return 0;
}
