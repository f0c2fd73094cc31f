// "Search this area" (paper Fig. 1a): window queries over a Tiger-like
// geographic feature set while a user pans a map viewport, comparing RSMI
// against the strongest traditional competitor (HRR).
//
//   ./examples/map_window [num_features]
#include <cstdio>
#include <cstdlib>

#include "baselines/hrr_tree.h"
#include "common/timer.h"
#include "core/rsmi_index.h"
#include "data/generators.h"

int main(int argc, char** argv) {
  using namespace rsmi;
  const size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100000;

  const std::vector<Point> features = GenerateTigerLike(n, /*seed=*/3);
  RsmiIndex rsmi(features, RsmiConfig{});
  HrrTree hrr(features, HrrConfig{});

  // Pan a 0.02 x 0.015 viewport across the map in 12 steps, starting from
  // a populated area (a random feature) — like a user exploring a city.
  const double w = 0.02;
  const double h = 0.015;
  double x = features[n / 3].x - w / 2;
  double y = features[n / 3].y - h / 2;
  std::printf("panning a %.3f x %.3f viewport over %zu map features\n\n", w,
              h, n);
  std::printf("%-28s %10s %12s %10s %10s\n", "viewport", "RSMI(us)",
              "RSMI hits", "HRR(us)", "HRR hits");
  for (int step = 0; step < 12; ++step) {
    const Rect view{{x, y}, {x + w, y + h}};
    QueryContext ctx;
    WallTimer t1;
    const auto got_rsmi = rsmi.WindowQuery(view, ctx);
    const double us_rsmi = t1.ElapsedMicros();
    WallTimer t2;
    const auto got_hrr = hrr.WindowQuery(view, ctx);
    const double us_hrr = t2.ElapsedMicros();

    char label[64];
    std::snprintf(label, sizeof(label), "[%.3f,%.3f]x[%.3f,%.3f]", x, x + w,
                  y, y + h);
    std::printf("%-28s %10.1f %12zu %10.1f %10zu\n", label, us_rsmi,
                got_rsmi.size(), us_hrr, got_hrr.size());

    // Drift towards the next populated area.
    const Point& next = features[(n / 3 + (step + 1) * 997) % n];
    x += (next.x - x) * 0.25;
    y += (next.y - y) * 0.25;
  }
  std::printf(
      "\nRSMI returns a subset of HRR's exact answer (no false positives);\n"
      "use WindowQueryExact for the full result.\n");
  return 0;
}
