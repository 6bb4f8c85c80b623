// Reproduces paper Figure 2(a): redo recovery time (simulated msecs) as the
// database cache size varies, for Log0, Log1, SQL1, Log2, SQL2 — all five
// replaying the SAME crash image per cache size (§5.1 methodology).
//
// Also prints the §5.3 headline statistics: the I/O reduction from the DPT,
// the index-wait share of logical redo, and the stall reduction from
// prefetching.
#include <cstdio>

#include "bench_common.h"

using namespace deutero;        // NOLINT
using namespace deutero::bench; // NOLINT

int main(int argc, char** argv) {
  const BenchScale scale = ScaleFromArgs(argc, argv);
  std::printf("=== Figure 2(a): redo time vs cache size ===\n");
  std::printf("(update-only uniform workload; crash after %llu checkpoints; "
              "~%llu redone log records)\n\n",
              (unsigned long long)scale.checkpoints,
              (unsigned long long)scale.checkpoint_interval);
  std::printf("%-8s %12s %12s %12s %12s %12s\n", "cache", "Log0", "Log1",
              "Sql1", "Log2", "Sql2");

  struct Row {
    SideBySideResult result;
  };
  std::vector<Row> rows;

  for (size_t i = 0; i < scale.cache_sweep.size(); i++) {
    SideBySideConfig cfg = MakeConfig(scale, scale.cache_sweep[i]);
    SideBySideResult r;
    const Status st = RunSideBySide(cfg, &r);
    if (!st.ok()) {
      std::fprintf(stderr, "FAILED at %s: %s\n", scale.cache_labels[i].c_str(),
                   st.ToString().c_str());
      return 1;
    }
    std::printf("%-8s %12.0f %12.0f %12.0f %12.0f %12.0f%s\n",
                scale.cache_labels[i].c_str(),
                FindMethod(r, RecoveryMethod::kLog0)->redo.ms,
                FindMethod(r, RecoveryMethod::kLog1)->redo.ms,
                FindMethod(r, RecoveryMethod::kSql1)->redo.ms,
                FindMethod(r, RecoveryMethod::kLog2)->redo.ms,
                FindMethod(r, RecoveryMethod::kSql2)->redo.ms,
                AllVerified(r) ? "" : "  [VERIFY FAILED]");
    std::fflush(stdout);
    rows.push_back({std::move(r)});
  }

  // §5.3 headline statistics.
  std::printf("\n--- paper Section 5.3 claims, measured ---\n");
  std::printf("%-8s %9s %9s %9s %9s %11s %11s\n", "cache", "dpt/L0IO",
              "L0->L1", "L1->L2", "idxWait", "L1stalls", "L2stalls");
  for (size_t i = 0; i < rows.size(); i++) {
    const RecoveryStats* l0 = FindMethod(rows[i].result, RecoveryMethod::kLog0);
    const RecoveryStats* l1 = FindMethod(rows[i].result, RecoveryMethod::kLog1);
    const RecoveryStats* l2 = FindMethod(rows[i].result, RecoveryMethod::kLog2);
    const double io_cut = 100.0 * (1.0 - static_cast<double>(
                                             l1->data_page_fetches) /
                                             l0->data_page_fetches);
    const double t_l1 = 100.0 * (1.0 - l1->redo.ms / l0->redo.ms);
    const double t_l2 = 100.0 * (1.0 - l2->redo.ms / l1->redo.ms);
    const double idx_wait = 100.0 * l1->index_stall_ms / l1->redo.ms;
    std::printf("%-8s %8.0f%% %8.0f%% %8.0f%% %8.1f%% %11llu %11llu\n",
                scale.cache_labels[i].c_str(), io_cut, t_l1, t_l2, idx_wait,
                (unsigned long long)l1->stall_count,
                (unsigned long long)l2->stall_count);
  }
  std::printf("\ncolumns: dpt/L0IO = data-page I/O cut by the DPT (Log0 vs "
              "Log1); L0->L1, L1->L2 = redo-time reductions;\n"
              "idxWait = index-page wait share of Log1 redo; stalls = demand "
              "waits during redo (Log1 vs Log2).\n");

  // End-to-end parallel recovery variant: the same crash protocol at one
  // cache point over an 8-channel simulated disk, recovered at one
  // partition and at eight (recovery_threads = 8 partitions redo; DPT
  // construction and undo are one pass at every count). Simulated time
  // folds I/O (per-channel elevators overlap concurrent reads) with redo's
  // CPU critical path — dispatcher scan plus the slowest partition —
  // instead of the serial CPU sum. The speedup column compares the two
  // partition counts on the same disk; the channels column shows what the
  // 8-channel disk alone gives one partition against the sweep's
  // one-channel row. The per-phase breakdown shows where each method's
  // recovery time goes at eight partitions.
  {
    const size_t mid = scale.cache_sweep.size() / 2;
    SideBySideConfig ocfg = MakeConfig(scale, scale.cache_sweep[mid]);
    ocfg.engine.io.io_channels = 8;
    SideBySideConfig pcfg = ocfg;
    pcfg.engine.recovery_threads = 8;
    SideBySideResult one;
    SideBySideResult pr;
    Status pst = RunSideBySide(ocfg, &one);
    if (pst.ok()) pst = RunSideBySide(pcfg, &pr);
    if (!pst.ok()) {
      std::fprintf(stderr, "parallel variant FAILED: %s\n",
                   pst.ToString().c_str());
      return 1;
    }
    std::printf("\n--- parallel recovery end to end (recovery_threads=8, "
                "io_channels=8, cache %s, simulated ms) ---\n",
                scale.cache_labels[mid].c_str());
    std::printf("%-8s %10s %10s %10s %10s | %10s %9s | %10s %9s\n", "method",
                "analysis", "redo", "undo", "total", "1 part", "speedup",
                "1 chan", "channels");
    const RecoveryMethod methods[] = {RecoveryMethod::kLog0,
                                      RecoveryMethod::kLog1,
                                      RecoveryMethod::kSql1,
                                      RecoveryMethod::kLog2,
                                      RecoveryMethod::kSql2};
    for (RecoveryMethod m : methods) {
      const RecoveryStats* serial = FindMethod(rows[mid].result, m);
      const RecoveryStats* single = FindMethod(one, m);
      const RecoveryStats* par = FindMethod(pr, m);
      // The DPT-construction phase is the DC pass for logical methods and
      // the SQL analysis pass otherwise; exactly one is nonzero.
      const double par_analysis = par->dc_pass.ms + par->analysis.ms;
      std::printf(
          "%-8s %10.1f %10.1f %10.1f %10.1f | %10.1f %8.2fx | %10.1f %8.2fx\n",
          RecoveryMethodName(m), par_analysis, par->redo.ms, par->undo.ms,
          par->total_ms, single->total_ms,
          par->total_ms > 0 ? single->total_ms / par->total_ms : 0.0,
          serial->total_ms,
          single->total_ms > 0 ? serial->total_ms / single->total_ms : 0.0);
    }
    std::printf("(analysis/redo/undo/total: the 8-partition run; 1 part: "
                "one partition on the same disk,\n speedup = 1 part / total;"
                " 1 chan: the sweep's row, one partition on one channel,\n"
                " channels = 1 chan / 1 part; every column but the first "
                "three is TOTAL recovery time)\n");
    std::printf("%s\n", AllVerified(one) && AllVerified(pr)
                            ? "all methods verified against the oracle"
                            : "[VERIFY FAILED]");
  }

  // Delete-mix variant: the same crash protocol on a compacted table with
  // a DRAINING 90%-delete mix (no updates — an update of a deleted key
  // re-inserts it, and under update-reinsert churn a 229-row leaf's live
  // fraction equilibrates ABOVE the 25% merge threshold, so a steady-state
  // mix at this page size almost never merges). The horizon is sized so
  // the drain crosses the merge threshold INSIDE the final checkpoint
  // window: two checkpoints of 2/3-of-the-table operations each put the
  // crash window right where leaves empty and kSmoMerge records flow. An
  // update-only baseline runs on the identical geometry. Logical methods
  // replay the merges in the DC pass; the SQL family replays them in LSN
  // order — the delta between the columns is the cost of delete-side
  // reorganization under each scheme.
  {
    const size_t mid = scale.cache_sweep.size() / 2;
    const uint64_t compact_rows = scale.num_rows / 20;
    SideBySideConfig base_cfg = MakeConfig(scale, scale.cache_sweep[mid]);
    base_cfg.engine.num_rows = compact_rows;
    base_cfg.engine.checkpoint_interval_updates =
        std::max<uint64_t>(1, 2 * compact_rows / 3);
    base_cfg.scenario.checkpoints = 2;
    SideBySideConfig del_cfg = base_cfg;
    del_cfg.workload.delete_fraction = 0.90;
    del_cfg.workload.insert_fraction = 0.05;
    del_cfg.workload.scan_fraction = 0.05;  // remainder: no re-inserts
    SideBySideResult base_r;
    SideBySideResult del_r;
    Status dst = RunSideBySide(base_cfg, &base_r);
    if (dst.ok()) dst = RunSideBySide(del_cfg, &del_r);
    if (!dst.ok()) {
      std::fprintf(stderr, "delete-mix variant FAILED: %s\n",
                   dst.ToString().c_str());
      return 1;
    }
    std::printf("\n--- delete-mix variant (90%% draining deletes, %llu-row compact "
                "table, cache %s, simulated redo ms) ---\n",
                (unsigned long long)compact_rows,
                scale.cache_labels[mid].c_str());
    std::printf("%-8s %12s %12s %12s\n", "method", "update-only",
                "delete-mix", "smoRedo");
    const RecoveryMethod methods[] = {RecoveryMethod::kLog0,
                                      RecoveryMethod::kLog1,
                                      RecoveryMethod::kSql1,
                                      RecoveryMethod::kLog2,
                                      RecoveryMethod::kSql2};
    for (RecoveryMethod m : methods) {
      const RecoveryStats* base = FindMethod(base_r, m);
      const RecoveryStats* del = FindMethod(del_r, m);
      std::printf("%-8s %12.0f %12.0f %12llu\n", RecoveryMethodName(m),
                  base->redo.ms, del->redo.ms,
                  (unsigned long long)del->smo_redone);
    }
    std::printf("%s\n", AllVerified(del_r) && AllVerified(base_r)
                            ? "all methods verified against the oracle"
                            : "[VERIFY FAILED]");
  }
  return 0;
}
