// deutero_sim — flexible crash/recovery experiment CLI. Runs the paper's
// §5.2 protocol under user-chosen parameters and prints the full recovery
// statistics for any subset of methods.
//
// Usage:
//   deutero_sim [--rows N] [--cache PAGES] [--interval UPDATES]
//               [--checkpoints N] [--methods Log0,Log1,Log2,Sql1,Sql2]
//               [--zipf THETA] [--dpt standard|perfect|reduced]
//               [--scheme penultimate|aries] [--seed N]
//
// A 100-operation transaction is left open at every crash, so the undo
// pass has a loser to roll back and its columns (undo, uStall, uIOs)
// carry data.
//
// Examples:
//   deutero_sim --rows 500000 --cache 2048 --methods Log1,Sql1
//   deutero_sim --zipf 0.99 --interval 8000
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "workload/experiment.h"

using namespace deutero;  // NOLINT

namespace {

bool ParseMethods(const char* arg, std::vector<RecoveryMethod>* out) {
  out->clear();
  std::string s(arg);
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::string name = s.substr(pos, comma - pos);
    bool found = false;
    for (RecoveryMethod m :
         {RecoveryMethod::kLog0, RecoveryMethod::kLog1, RecoveryMethod::kLog2,
          RecoveryMethod::kSql1, RecoveryMethod::kSql2}) {
      if (name == RecoveryMethodName(m)) {
        out->push_back(m);
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr, "unknown method: %s\n", name.c_str());
      return false;
    }
    pos = comma + 1;
  }
  return !out->empty();
}

}  // namespace

int main(int argc, char** argv) {
  SideBySideConfig cfg;
  cfg.engine.num_rows = 200'000;
  cfg.engine.cache_pages = 512;
  cfg.engine.lazy_writer_reference_cache_pages = 512;
  cfg.engine.checkpoint_interval_updates = 2000;
  cfg.scenario.checkpoints = 5;
  cfg.scenario.uncommitted_tail_ops = 100;
  cfg.verify_sample = 0;

  for (int i = 1; i < argc; i++) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--rows")) {
      cfg.engine.num_rows = std::strtoull(next("--rows"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--cache")) {
      cfg.engine.cache_pages = std::strtoull(next("--cache"), nullptr, 10);
      cfg.engine.lazy_writer_reference_cache_pages = cfg.engine.cache_pages;
    } else if (!std::strcmp(argv[i], "--interval")) {
      cfg.engine.checkpoint_interval_updates =
          std::strtoull(next("--interval"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--checkpoints")) {
      cfg.scenario.checkpoints =
          std::strtoull(next("--checkpoints"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--methods")) {
      if (!ParseMethods(next("--methods"), &cfg.methods)) return 2;
    } else if (!std::strcmp(argv[i], "--zipf")) {
      cfg.workload.distribution = WorkloadConfig::Distribution::kZipfian;
      cfg.workload.zipf_theta = std::strtod(next("--zipf"), nullptr);
    } else if (!std::strcmp(argv[i], "--dpt")) {
      const std::string mode = next("--dpt");
      cfg.engine.dpt_mode = mode == "perfect" ? DptMode::kPerfect
                            : mode == "reduced" ? DptMode::kReduced
                                                : DptMode::kStandard;
    } else if (!std::strcmp(argv[i], "--scheme")) {
      cfg.engine.checkpoint_scheme = std::strcmp(next("--scheme"), "aries")
                                         ? CheckpointScheme::kPenultimate
                                         : CheckpointScheme::kAries;
    } else if (!std::strcmp(argv[i], "--seed")) {
      cfg.engine.seed = std::strtoull(next("--seed"), nullptr, 10);
      cfg.workload.seed = cfg.engine.seed * 31 + 7;
    } else {
      std::fprintf(stderr, "unknown flag %s (see header comment)\n", argv[i]);
      return 2;
    }
  }

  std::printf("deutero_sim: rows=%llu cache=%llu interval=%llu ckpts=%llu\n\n",
              (unsigned long long)cfg.engine.num_rows,
              (unsigned long long)cfg.engine.cache_pages,
              (unsigned long long)cfg.engine.checkpoint_interval_updates,
              (unsigned long long)cfg.scenario.checkpoints);

  SideBySideResult r;
  const Status st = RunSideBySide(cfg, &r);
  if (!st.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("crash: %llu resident, %llu dirty (%.1f%% of cache)\n\n",
              (unsigned long long)r.scenario.resident_at_crash,
              (unsigned long long)r.scenario.dirty_pages_at_crash,
              100.0 * r.scenario.dirty_pages_at_crash /
                  cfg.engine.cache_pages);
  // uStall and uIOs: the undo pass's share of the pool stall (ms) and of
  // the device's read I/Os.
  std::printf("%-5s %9s %9s %9s %9s %7s %9s %7s %8s %8s %8s %8s %6s\n",
              "meth", "dc/ana", "redo", "undo", "uStall", "uIOs", "total",
              "dpt", "dataIO", "idxIO", "applied", "stalls", "ok");
  for (const MethodOutcome& m : r.methods) {
    std::printf(
        "%-5s %9.1f %9.1f %9.1f %9.1f %7llu %9.1f %7llu %8llu %8llu %8llu "
        "%8llu %6s\n",
        RecoveryMethodName(m.method),
        m.stats.dc_pass.ms + m.stats.analysis.ms, m.stats.redo.ms,
        m.stats.undo.ms, m.stats.undo_stall_ms,
        (unsigned long long)m.stats.undo_read_ios, m.stats.total_ms,
        (unsigned long long)m.stats.dpt_size,
        (unsigned long long)m.stats.data_page_fetches,
        (unsigned long long)m.stats.index_page_fetches,
        (unsigned long long)m.stats.redo_applied,
        (unsigned long long)m.stats.stall_count, m.verified ? "yes" : "-");
  }
  return 0;
}
