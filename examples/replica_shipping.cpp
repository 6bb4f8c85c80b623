// Logical log shipping to a physically different replica — the paper's §1.1
// replication motivation: "the data can be replicated in a database using a
// different kind of stable storage, e.g. a disk with different page size...
// Because the log records shipped to the replica are logical, they can be
// applied to disparate physical system configurations."
//
// The primary uses 8 KB pages; the replica 2 KB pages. Committed
// transactions stream across a ReplicationChannel; the replica converges to
// the same logical table content, then survives a crash of its own using
// logical recovery and resumes from its durable replication cursor.
// Exits 0 only if both content comparisons match.
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/replica.h"
#include "workload/driver.h"

using namespace deutero;  // NOLINT

namespace {

/// Compare the full logical content of the default table on both engines.
bool SameContent(Engine& primary, Engine& replica, uint64_t* rows) {
  std::vector<std::pair<Key, std::string>> a, b;
  const Status sa = primary.dc().btree().ScanAll(
      [&](Key k, Slice v) { a.emplace_back(k, v.ToString()); });
  const Status sb = replica.dc().btree().ScanAll(
      [&](Key k, Slice v) { b.emplace_back(k, v.ToString()); });
  *rows = a.size();
  return sa.ok() && sb.ok() && a == b;
}

}  // namespace

int main() {
  EngineOptions primary_opts;
  primary_opts.num_rows = 50'000;
  primary_opts.page_size = 8192;
  primary_opts.cache_pages = 256;
  primary_opts.lazy_writer_reference_cache_pages = 256;

  EngineOptions replica_opts = primary_opts;
  replica_opts.page_size = 2048;  // different physical geometry
  replica_opts.cache_pages = 512;

  std::unique_ptr<Engine> primary;
  if (!Engine::Open(primary_opts, &primary).ok()) return 1;
  std::unique_ptr<LogicalReplica> replica;
  if (!LogicalReplica::Open(replica_opts, &replica).ok()) return 1;

  std::printf("primary: %u KB pages, B-tree height %u\n",
              primary_opts.page_size / 1024, primary->dc().btree().height());
  std::printf("replica: %u KB pages, B-tree height %u\n",
              replica_opts.page_size / 1024,
              replica->engine().dc().btree().height());

  // Stream five batches of transactions: the primary publishes its stable
  // log on the channel, the replica pumps it to catch-up.
  WorkloadDriver driver(primary.get(), WorkloadConfig{});
  ReplicationChannel channel;
  for (int batch = 0; batch < 5; batch++) {
    if (!driver.RunOps(500).ok()) return 1;
    channel.Publish(*primary);
    if (!replica->Pump(&channel).ok()) return 1;
    std::printf("batch %d: replica applied %llu txns / %llu ops total\n",
                batch + 1, (unsigned long long)replica->txns_applied(),
                (unsigned long long)replica->ops_applied());
  }

  // Compare full logical content across the two geometries.
  uint64_t rows = 0;
  const bool identical = SameContent(*primary, replica->engine(), &rows);
  std::printf("content comparison over %llu rows: %s\n",
              (unsigned long long)rows,
              identical ? "IDENTICAL" : "DIVERGED (bug!)");

  // The replica is a full engine: crash and logically recover it, then
  // ship one more batch — replay resumes where its durable cursor says.
  replica->CrashStandby();
  RecoveryStats st;
  if (!replica->RecoverStandby(RecoveryMethod::kLog2, &st).ok()) return 1;
  std::printf("replica crash-recovered (Log2) in %.1f simulated ms\n",
              st.total_ms);
  if (!driver.RunOps(500).ok()) return 1;
  channel.Publish(*primary);
  if (!replica->Pump(&channel).ok()) return 1;
  const bool resumed = SameContent(*primary, replica->engine(), &rows);
  std::printf("after one more batch: %s\n",
              resumed ? "IDENTICAL" : "DIVERGED (bug!)");
  return identical && resumed ? 0 : 1;
}
