// Spatial objects with non-zero extent — the extension named in the
// paper's conclusion ("Our learned indices may be applied to spatial
// objects with non-zero extent using query expansion"). Indexes synthetic
// building footprints (rectangles) by their centers with an RSMI and
// answers intersection and stabbing queries via query-window expansion,
// comparing the approximate and exact variants.
//
// Run:  ./building_footprints [num_buildings]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "core/extent_index.h"
#include "data/generators.h"

namespace {

/// Synthetic city: block-aligned rectangular footprints whose sizes
/// follow a power law (a few big halls, many small houses).
std::vector<rsmi::Rect> MakeFootprints(size_t n, uint64_t seed) {
  rsmi::Rng rng(seed);
  const auto centers =
      rsmi::GenerateDataset(rsmi::Distribution::kOsm, n, seed);
  std::vector<rsmi::Rect> footprints;
  footprints.reserve(n);
  for (const auto& c : centers) {
    const double size = 0.0005 / (0.05 + rng.Uniform());  // power-law-ish
    const double aspect = 0.5 + rng.Uniform();
    const double hw = size * aspect / 2;
    const double hh = size / aspect / 2;
    footprints.push_back(
        rsmi::Rect{{c.x - hw, c.y - hh}, {c.x + hw, c.y + hh}});
  }
  return footprints;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rsmi;

  const size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 50000;
  std::printf("Generating %zu building footprints...\n", n);
  const auto footprints = MakeFootprints(n, 42);

  RsmiConfig cfg;
  cfg.build_threads = 4;
  WallTimer build_timer;
  RsmiExtentIndex index(footprints, cfg);
  std::printf("Indexed centers with an RSMI in %.2fs\n\n",
              build_timer.ElapsedSeconds());

  // Intersection query: "all buildings touching this map tile".
  const Rect tile{{0.40, 0.40}, {0.45, 0.45}};
  QueryContext approx_ctx;
  WallTimer wq_timer;
  const auto approx = index.WindowQuery(tile, approx_ctx);
  const double approx_ms = wq_timer.ElapsedMicros() / 1000.0;
  const auto approx_accesses = approx_ctx.block_accesses;

  QueryContext exact_ctx;
  WallTimer exact_timer;
  const auto exact = index.WindowQueryExact(tile, exact_ctx);
  const double exact_ms = exact_timer.ElapsedMicros() / 1000.0;

  std::printf("Tile [0.40,0.45]^2 intersection query:\n");
  std::printf("  approximate: %4zu buildings  %.3f ms  %llu block accesses\n",
              approx.size(), approx_ms,
              static_cast<unsigned long long>(approx_accesses));
  std::printf("  exact:       %4zu buildings  %.3f ms  %llu block accesses\n",
              exact.size(), exact_ms,
              static_cast<unsigned long long>(exact_ctx.block_accesses));
  if (!exact.empty()) {
    std::printf("  recall: %.1f%%\n",
                100.0 * approx.size() / exact.size());
  }

  // Stabbing query: "which building am I standing in?"
  std::printf("\nStabbing queries (point-in-footprint):\n");
  Rng rng(7);
  size_t hits = 0;
  QueryContext stab_ctx;
  WallTimer stab_timer;
  const int stabs = 1000;
  for (int i = 0; i < stabs; ++i) {
    const Point p{rng.Uniform(), rng.Uniform()};
    hits += index.StabQuery(p, stab_ctx).empty() ? 0 : 1;
  }
  std::printf("  %d random positions, %zu inside a building, %.1f us each\n",
              stabs, hits, stab_timer.ElapsedMicros() / stabs);

  std::printf(
      "\nExpansion adds the maximum half-extent to every query window,\n"
      "so wide extent variance costs extra candidates — the trade-off the\n"
      "paper's conclusion points out for future work.\n");
  return 0;
}
