// Example: one crash, five recovery methods, side by side (paper §5).
//
// Runs the paper's crash protocol at a configurable scale, then recovers the
// identical crash image under Log0/Log1/Log2/SQL1/SQL2 and prints a table of
// redo time and I/O behaviour — a miniature of Figure 2(a) — and a second one
// of each method's device reads: demand reads (synchronous misses), read
// I/Os and the pages they transferred (a prefetch span counts one I/O and
// reads its gap pages through), and the redo records of the log's tail.
//
// Usage: recovery_comparison [cache_pages] [rows] [ckpt_interval]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workload/experiment.h"

using namespace deutero;  // NOLINT

int main(int argc, char** argv) {
  SideBySideConfig cfg;
  cfg.engine.page_size = 8192;
  cfg.engine.value_size = 26;
  cfg.engine.num_rows = 500'000;  // ~2,300 leaves
  cfg.engine.cache_pages = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 512;
  cfg.engine.num_rows = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                 : cfg.engine.num_rows;
  cfg.engine.checkpoint_interval_updates =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 2000;
  cfg.engine.lazy_writer_reference_cache_pages = 512;
  cfg.scenario.checkpoints = 5;
  cfg.verify_sample = 0;

  std::printf("deutero recovery comparison\n");
  std::printf("  rows=%llu cache=%llu pages  ckpt-interval=%llu updates\n\n",
              (unsigned long long)cfg.engine.num_rows,
              (unsigned long long)cfg.engine.cache_pages,
              (unsigned long long)cfg.engine.checkpoint_interval_updates);

  SideBySideResult result;
  const Status st = RunSideBySide(cfg, &result);
  if (!st.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n", st.ToString().c_str());
    return 1;
  }

  std::printf("crash state: %llu resident pages, %llu dirty (%.1f%%)\n\n",
              (unsigned long long)result.scenario.resident_at_crash,
              (unsigned long long)result.scenario.dirty_pages_at_crash,
              100.0 * result.scenario.dirty_pages_at_crash /
                  cfg.engine.cache_pages);

  std::printf(
      "%-5s %10s %9s %8s %8s %8s %8s %8s %8s %8s %6s\n", "meth",
      "redo(ms)", "total", "dpt", "dataIO", "idxIO", "applied", "skipDPT",
      "skipLSN", "stalls", "ok");
  for (const MethodOutcome& m : result.methods) {
    std::printf(
        "%-5s %10.1f %9.1f %8llu %8llu %8llu %8llu %8llu %8llu %8llu %6s\n",
        RecoveryMethodName(m.method), m.stats.redo.ms, m.stats.total_ms,
        (unsigned long long)m.stats.dpt_size,
        (unsigned long long)m.stats.data_page_fetches,
        (unsigned long long)m.stats.index_page_fetches,
        (unsigned long long)m.stats.redo_applied,
        (unsigned long long)m.stats.redo_skipped_dpt,
        (unsigned long long)m.stats.redo_skipped_rlsn,
        (unsigned long long)m.stats.stall_count, m.verified ? "yes" : "-");
  }
  std::printf("\n%-5s %8s %8s %9s %8s %8s\n", "meth", "demand", "readIO",
              "readPg", "gapPg", "tailOps");
  for (const MethodOutcome& m : result.methods) {
    std::printf("%-5s %8llu %8llu %9llu %8llu %8llu\n",
                RecoveryMethodName(m.method),
                (unsigned long long)m.stats.demand_reads,
                (unsigned long long)m.stats.read_ios,
                (unsigned long long)m.stats.read_pages,
                (unsigned long long)m.stats.gap_pages,
                (unsigned long long)m.stats.redo_tail_ops);
  }
  std::printf("\nΔ-records seen by analysis: %llu, BW-records: %llu\n",
              (unsigned long long)result.methods[1].stats.delta_records_seen,
              (unsigned long long)result.methods[1].stats.bw_records_seen);
  return 0;
}
