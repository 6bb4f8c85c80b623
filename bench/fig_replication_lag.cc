// Hot-standby replication lag/throughput sweep (paper §1.1: logical log
// shipping to a replica with different physical geometry).
//
// A primary (1 KB pages) leads a fixed update/insert/delete workload and
// publishes its stable log; a standby (2 KB pages) then drains the backlog
// through the continuous-replay applier. The sweep varies the ship chunk
// size and reports wall-clock drain time and apply throughput. Replay
// applies on one thread, so the sweep has no thread axis.
//
// Expected shape: larger chunks amortize per-pull costs until the chunk no
// longer bounds the drain.
#include <chrono>
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "core/replica.h"
#include "workload/driver.h"

using namespace deutero;         // NOLINT
using namespace deutero::bench;  // NOLINT

namespace {

struct Cell {
  double wall_ms = 0;
  double ops_per_sec = 0;
  uint64_t chunks = 0;
  uint64_t bytes = 0;
  bool verified = false;
};

Status RunCell(const BenchScale& scale, size_t chunk_bytes, Cell* out) {
  EngineOptions popts;
  popts.page_size = 1024;
  popts.value_size = 26;
  popts.num_rows = scale.num_rows;
  popts.cache_pages = scale.cache_sweep.back();
  popts.lazy_writer_reference_cache_pages = scale.reference_cache;
  popts.checkpoint_interval_updates = scale.checkpoint_interval;
  std::unique_ptr<Engine> primary;
  DEUTERO_RETURN_NOT_OK(Engine::Open(popts, &primary));

  EngineOptions sopts = popts;
  sopts.page_size = 2048;  // the paper's point: disparate geometry applies
  std::unique_ptr<LogicalReplica> standby;
  DEUTERO_RETURN_NOT_OK(LogicalReplica::Open(sopts, &standby));

  // The primary leads the whole backlog up front: the cell then measures a
  // pure standby drain, so chunk size is the only lever.
  WorkloadConfig wc;
  wc.insert_fraction = 0.10;
  wc.delete_fraction = 0.10;
  WorkloadDriver driver(primary.get(), wc);
  const uint64_t ops = std::min<uint64_t>(scale.num_rows / 4, 100'000);
  DEUTERO_RETURN_NOT_OK(driver.RunOps(ops));
  DEUTERO_RETURN_NOT_OK(driver.CommitOpen());

  ReplicationChannel channel;
  channel.Publish(*primary);

  const auto t0 = std::chrono::steady_clock::now();
  DEUTERO_RETURN_NOT_OK(standby->Pump(&channel, chunk_bytes));
  const auto t1 = std::chrono::steady_clock::now();

  const ReplicationStats st = standby->stats();
  out->wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  out->chunks = st.chunks_shipped;
  out->bytes = st.bytes_shipped;
  out->ops_per_sec =
      out->wall_ms > 0 ? st.ops_applied / (out->wall_ms / 1000.0) : 0;
  uint64_t checked = 0;
  out->verified = st.applied_boundary == channel.published_end() &&
                  st.lsn_lag == 0 && st.txn_lag == 0 &&
                  driver.AttachEngine(&standby->engine()).ok() &&
                  driver.Verify(/*sample_count=*/500, &checked).ok();
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  const BenchScale scale = ScaleFromArgs(argc, argv);

  const size_t chunks[] = {4 * 1024, 16 * 1024, 64 * 1024, 256 * 1024};

  std::printf("=== Replication lag: standby drain vs chunk size "
              "(%llu rows) ===\n\n",
              (unsigned long long)scale.num_rows);
  std::printf("%-10s %10s %10s %12s %14s\n", "chunk", "chunks", "MB",
              "drain ms", "apply ops/s");

  bool all_verified = true;
  for (size_t c : chunks) {
    Cell cell;
    const Status st = RunCell(scale, c, &cell);
    if (!st.ok()) {
      std::fprintf(stderr, "FAILED chunk=%zu: %s\n", c,
                   st.ToString().c_str());
      return 1;
    }
    all_verified = all_verified && cell.verified;
    std::printf("%-10zu %10llu %10.2f %12.2f %14.0f%s\n", c,
                (unsigned long long)cell.chunks, cell.bytes / (1024.0 * 1024),
                cell.wall_ms, cell.ops_per_sec,
                cell.verified ? "" : "  [VERIFY FAILED]");
    std::fflush(stdout);
  }
  if (!all_verified) {
    std::fprintf(stderr, "\nVERIFY FAILED: standby diverged from primary\n");
    return 1;
  }
  return 0;
}
