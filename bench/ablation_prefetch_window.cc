// Ablation: prefetch window depth (paper App. A.2): "If prefetching
// proceeds too quickly, pages may get flushed before the redo scan requests
// them. If it proceeds too slowly, redo may need to wait."
//
// We sweep the outstanding-pages window for Log2 and SQL2 at a mid-size
// cache and report redo time, stall behaviour, wasted prefetches, and the
// device reads: I/Os against pages, which DPT-run read-ahead batches.
#include <cstdio>

#include "bench_common.h"

using namespace deutero;        // NOLINT
using namespace deutero::bench; // NOLINT

int main(int argc, char** argv) {
  const BenchScale scale = ScaleFromArgs(argc, argv);
  const uint64_t cache =
      scale.cache_sweep[scale.cache_sweep.size() >= 4 ? 3 : 0];

  std::printf(
      "=== Ablation: prefetch window (cache %llu pages) ===\n\n",
      (unsigned long long)cache);
  std::printf("%-8s | %10s %8s %8s %9s %7s %7s | %10s %8s %8s %9s %7s %7s\n",
              "window", "Log2(ms)", "stalls", "wasted", "pfIssued", "readIO",
              "pages", "Sql2(ms)", "stalls", "wasted", "pfIssued", "readIO",
              "pages");

  for (uint32_t window : {4u, 16u, 32u, 128u}) {
    SideBySideConfig cfg = MakeConfig(scale, cache);
    cfg.engine.prefetch_window = window;
    cfg.methods = {RecoveryMethod::kLog2, RecoveryMethod::kSql2};
    SideBySideResult r;
    const Status st = RunSideBySide(cfg, &r);
    if (!st.ok()) {
      std::fprintf(stderr, "failed: %s\n", st.ToString().c_str());
      return 1;
    }
    const RecoveryStats* l2 = FindMethod(r, RecoveryMethod::kLog2);
    const RecoveryStats* s2 = FindMethod(r, RecoveryMethod::kSql2);
    std::printf(
        "%-8u | %10.0f %8llu %8llu %9llu %7llu %7llu | %10.0f %8llu %8llu "
        "%9llu %7llu %7llu%s\n",
        window, l2->redo.ms, (unsigned long long)l2->stall_count,
        (unsigned long long)l2->prefetch_wasted,
        (unsigned long long)l2->prefetch_issued,
        (unsigned long long)l2->read_ios, (unsigned long long)l2->read_pages,
        s2->redo.ms, (unsigned long long)s2->stall_count,
        (unsigned long long)s2->prefetch_wasted,
        (unsigned long long)s2->prefetch_issued,
        (unsigned long long)s2->read_ios, (unsigned long long)s2->read_pages,
        AllVerified(r) ? "" : "  [VERIFY FAILED]");
    std::fflush(stdout);
  }
  std::printf("\ndeeper windows shorten stalls until cache pressure turns "
              "extra read-ahead into wasted I/O.\n");
  return 0;
}
