// External-memory deployment: the paper's storage model (Section 3) keeps
// data points in blocks of capacity B on disk. This example builds an RSMI
// over a synthetic POI set, saves it as an index container, and serves
// window queries straight off the memory-mapped file through
// xmem::ExternalIndex under RSS budgets of different sizes — showing how
// the logical "# block accesses" metric translates into page faults once
// only part of the index may stay resident.
//
// Run:  ./external_memory [num_points]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/timer.h"
#include "core/rsmi_index.h"
#include "data/generators.h"
#include "data/workloads.h"
#include "io/index_container.h"
#include "io/mapped_file.h"
#include "xmem/external_index.h"

int main(int argc, char** argv) {
  using namespace rsmi;

  const size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 50000;
  std::printf("Generating %zu OSM-like points...\n", n);
  const auto data = GenerateDataset(Distribution::kOsm, n, /*seed=*/42);

  RsmiConfig cfg;  // paper defaults: B = 100, N = 10,000
  WallTimer build_timer;
  RsmiIndex index(data, cfg);
  std::printf("Built RSMI in %.2fs: %zu blocks, height %d\n",
              build_timer.ElapsedSeconds(), index.block_store().NumBlocks(),
              index.Stats().height);

  const std::string path =
      (std::filesystem::temp_directory_path() / "rsmi_example_external.idx")
          .string();
  std::string err;
  if (!SaveIndex(index, path, &err)) {
    std::fprintf(stderr, "save failed: %s\n", err.c_str());
    return 1;
  }
  const size_t file_bytes = std::filesystem::file_size(path);
  std::printf("Saved the index container: %.2f MB\n", file_bytes / 1048576.0);

  const auto windows =
      GenerateWindowQueries(data, 200, /*area_fraction=*/0.0001,
                            /*aspect_ratio=*/1.0, /*seed=*/7);

  // Sweep the RSS budget from 1% of the container (nearly every query
  // faults its blocks back in) up to 100% (pages fault only on first
  // touch). Page-sized chunks make the budget page-granular; enforcing it
  // after every query keeps each query within it.
  std::printf("\n%-8s %14s %14s %10s %12s\n", "budget", "blocks/query",
              "faults/query", "evictions", "ms/query");
  for (const double fraction : {0.01, 0.05, 0.25, 1.00}) {
    xmem::XmemOptions opts;
    opts.apply_env_overrides = false;
    opts.governor_interval_ms = 0;
    opts.write_behind = false;
    opts.prefetch = false;
    opts.chunk_bytes = MappedFile::PageSize();
    opts.rss_budget_bytes = std::max<size_t>(
        static_cast<size_t>(fraction * file_bytes), opts.chunk_bytes);
    auto ext = xmem::ExternalIndex::Open(path, opts, &err);
    if (ext == nullptr) {
      std::fprintf(stderr, "open failed: %s\n", err.c_str());
      return 1;
    }
    QueryContext ctx;
    WallTimer timer;
    size_t results = 0;
    for (const Rect& w : windows) {
      results += ext->WindowQuery(w, ctx).size();
      ext->EnforceBudget();
    }
    const double ms = timer.ElapsedMicros() / 1000.0 / windows.size();
    std::printf("%7.0f%% %14.2f %14.2f %10llu %12.3f\n", fraction * 100,
                static_cast<double>(ctx.block_accesses) / windows.size(),
                static_cast<double>(ext->governor().first_touches()) /
                    windows.size(),
                static_cast<unsigned long long>(ext->governor().evictions()),
                ms);
    (void)results;
  }

  std::printf(
      "\nAnswers and block accesses are identical at every budget: the\n"
      "mapped index only moves bytes (see tests/xmem_test.cc).\n");
  std::filesystem::remove(path);
  return 0;
}
