// One workload of the end-to-end crash-to-available benchmark (README.md).
//
// The process opens and bulk-loads an engine a fixed number of times to
// time the set-up, warms the cache of the last one, and then takes a fixed
// number of crash images. For each image it runs a forward segment from
// its own seeded generator while an oracle tracks every committed row:
// checkpoint intervals, then the redo window, then the crash. It snapshots
// the stable image and recovers it with all five methods, round-robin, a
// fixed number of rounds. Every recovered state is checked against the
// oracle: the whole table on the first round of the first image (an
// untimed warm-up), the last written keys, the crash's losers and a seeded
// sample on every other rep. The engine the last rep of an image leaves
// running carries the next segment.
//
// Simulated time comes from the engine's SimClock and RecoveryStats; wall
// time from the benchmark's own calls into the public API. The last line
// of stdout is one JSON object (see run.py, which wraps this binary). An
// untraced run reports the end-to-end metrics and the wall-clock per-layer
// ones; a traced run (--trace-file) the per-layer metrics taken from spans
// and component counters.
//
//   e2e_bench --workload W [--seed N] [--seconds S] [--smoke]
//             [--trace-file F] [--corrupt-oracle] [--fail-client-after N]
//
// Exit codes: 0 ok, 1 engine error, 2 usage, 3 a check against the oracle
// failed.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "trace.h"
#include "workload.h"

namespace e2e {
namespace {

using deutero::Engine;
using deutero::EngineOptions;
using deutero::RecoveryMethod;
using deutero::RecoveryStats;
using deutero::ScanCursor;
using deutero::Slice;
using deutero::Status;
using deutero::Table;
using deutero::Txn;

constexpr Key kMaxKey = std::numeric_limits<Key>::max();
constexpr uint32_t kScanRows = 16;

// ---- workloads ----

struct Spec {
  const char* name;
  uint32_t page_size;
  uint64_t rows;
  uint64_t cache_pages;
  double zipf_theta;  ///< 0 = uniform keys.
  /// Operation mix in percent: update, insert, delete, read; the rest scans.
  uint32_t pct_update, pct_insert, pct_delete, pct_read;
  uint32_t ops_per_txn;
  uint32_t clients;  ///< >1: each client owns a disjoint key slice.
  bool group_commit;
  /// Checkpoint cadence: operations with one client, acknowledged commits
  /// with several. Each crash image's segment runs `checkpoints` intervals,
  /// each ended by a checkpoint, then one more, the redo window.
  uint64_t checkpoint_every;
  uint64_t checkpoints;
  /// Last operations of the window, run after a forced Δ/BW emission.
  uint64_t tail_ops;
  /// Operations of the transaction each client leaves open at the crash.
  uint32_t loser_ops;
  /// EngineOptions::lazy_writer_reference_interval (0 = not scaled).
  uint64_t lazy_ref_interval;
  /// Crash images per run. The simulated recovery time of one image varies
  /// with the seed by up to several percent; the run reports the mean over
  /// its images.
  uint32_t images;
  uint32_t setup_reps;
};

// Why each workload exists is in README.md; the shapes follow it. The
// number of crash images is set so that the mean simulated recovery time
// spreads by less than 1.5 % across 10 seeds. Each run takes 10-25 s on a
// 4-vCPU machine.
constexpr Spec kSpecs[] = {
    {"fig2a_uniform", 8192, 10'000'000, 819, 0, 100, 0, 0, 0, 10, 1, false,
     40'000, 1, 10, 0, 4'000, 6, 3},
    {"zipf_resident", 8192, 1'000'000, 8'192, 0.99, 100, 0, 0, 0, 10, 1,
     false, 40'000, 1, 0, 0, 0, 12, 9},
    {"mixed_churn", 1024, 1'000'000, 4'096, 0, 40, 20, 20, 10, 10, 1, false,
     30'000, 2, 0, 400, 0, 16, 9},
    {"oltp_concurrent", 8192, 1'000'000, 8'192, 0, 100, 0, 0, 0, 4, 4, true,
     4'000, 1, 0, 4, 0, 10, 9},
};

// The same shapes at a size that runs all four in a few seconds.
constexpr Spec kSmokeSpecs[] = {
    {"fig2a_uniform", 8192, 200'000, 64, 0, 100, 0, 0, 0, 10, 1, false, 2'000,
     3, 10, 0, 200, 2, 1},
    {"zipf_resident", 8192, 100'000, 1'024, 0.99, 100, 0, 0, 0, 10, 1, false,
     10'000, 1, 0, 0, 0, 2, 1},
    {"mixed_churn", 1024, 50'000, 256, 0, 40, 20, 20, 10, 10, 1, false, 5'000,
     2, 0, 40, 0, 2, 1},
    {"oltp_concurrent", 8192, 50'000, 512, 0, 100, 0, 0, 0, 4, 4, true, 1'000,
     1, 0, 4, 0, 2, 1},
};

EngineOptions MakeOptions(const Spec& s, uint32_t recovery_threads) {
  EngineOptions o;
  o.page_size = s.page_size;
  o.num_rows = s.rows;
  o.cache_pages = s.cache_pages;
  o.updates_per_txn = s.ops_per_txn;
  o.checkpoint_interval_updates = s.checkpoint_every;
  o.lazy_writer_reference_interval = s.lazy_ref_interval;
  o.recovery_threads = recovery_threads;
  o.io.io_channels = 1;
  if (s.group_commit) {
    o.group_commit_window_us = 200;
    o.group_commit_max_batch = 64;
  }
  return o;
}

constexpr RecoveryMethod kMethods[] = {
    RecoveryMethod::kLog0, RecoveryMethod::kLog1, RecoveryMethod::kLog2,
    RecoveryMethod::kSql1, RecoveryMethod::kSql2};
constexpr const char* kMethodKeys[] = {"log0", "log1", "log2", "sql1",
                                       "sql2"};
constexpr size_t kNumMethods = std::size(kMethods);

// ---- small helpers ----

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// A failed check against the oracle, as opposed to an engine error.
Status Mismatch(const char* what, Key key) {
  return Status::Corruption(std::string("oracle mismatch: ") + what +
                            " at key " + std::to_string(key));
}

/// Component counters, read before and after each forward segment. A
/// recovery resets some of them, so only in-segment differences count.
enum Counter {
  kWalBytes,
  kWalRecords,
  kWalDeltaBwBytes,
  kWalFlushes,
  kDeltaRecords,
  kBwRecords,
  kTraversals,
  kSplits,
  kMerges,
  kPoolGets,
  kPoolHits,
  kEvictions,
  kLazyFlushes,
  kCheckpointFlushes,
  kReadIos,
  kWriteIos,
  kDiskBusyMs,
  kCommitsEnqueued,
  kCommitBatches,
  kShardCollisions,
  kNumCounters
};
using Counters = std::array<double, kNumCounters>;

Counters ReadCounters(Engine* db) {
  const auto wal = db->wal().StatsSnapshot();
  const auto& pool = db->dc().pool().stats();
  const auto& disk = db->dc().disk().stats();
  const auto& monitor = db->dc().monitor().stats();
  const auto& bt = db->dc().btree().stats();
  const deutero::EngineStats engine = db->Stats();
  Counters c{};
  c[kWalBytes] = static_cast<double>(wal.bytes_appended);
  c[kWalRecords] = static_cast<double>(wal.records_appended);
  c[kWalDeltaBwBytes] = static_cast<double>(wal.delta_bytes + wal.bw_bytes);
  c[kWalFlushes] = static_cast<double>(wal.flushes);
  c[kDeltaRecords] = static_cast<double>(monitor.delta_records);
  c[kBwRecords] = static_cast<double>(monitor.bw_records);
  c[kTraversals] =
      static_cast<double>(bt.traversals.load(std::memory_order_relaxed));
  c[kSplits] = static_cast<double>(bt.splits);
  c[kMerges] = static_cast<double>(bt.merges);
  c[kPoolGets] = static_cast<double>(pool.gets);
  c[kPoolHits] = static_cast<double>(pool.hits);
  c[kEvictions] = static_cast<double>(pool.evictions);
  c[kLazyFlushes] = static_cast<double>(pool.lazy_flushes);
  c[kCheckpointFlushes] = static_cast<double>(pool.checkpoint_flushes);
  c[kReadIos] = static_cast<double>(disk.read_ios);
  c[kWriteIos] = static_cast<double>(disk.write_ios);
  c[kDiskBusyMs] = disk.read_service_ms + disk.write_service_ms;
  c[kCommitsEnqueued] = static_cast<double>(engine.commits_enqueued);
  c[kCommitBatches] = static_cast<double>(engine.commit_batches);
  c[kShardCollisions] = static_cast<double>(engine.lock_shard_collisions);
  return c;
}

// ---- forward phase ----

enum class Op : uint8_t { kUpdate, kInsert, kDelete, kRead, kScan };

/// Per-client generator state, oracle undo list and samples.
struct Client {
  Client(uint32_t id, uint64_t seed, Key lo, Key n)
      : rng(seed), slice_lo(lo), slice_n(n), spans(id) {}

  Rng rng;
  Key slice_lo, slice_n;
  uint32_t write_seq = 0;  ///< Versions this client writes: 1, 2, ...
  Oracle::UndoList undo;
  std::vector<double> txn_us;  ///< Latency of every committed txn.
  SpanLog spans;
  std::vector<Key> recent;  ///< Ring of keys written by committed txns.
  size_t recent_next = 0;
  uint64_t ops = 0, failed_txns = 0, committed = 0;
  Txn loser;
};

struct Shared {
  Engine* db = nullptr;
  Table table;
  const Spec* spec = nullptr;
  Oracle* oracle = nullptr;
  const ScrambledZipf* zipf = nullptr;  ///< null = uniform
  KeySet* live = nullptr;  ///< Workloads that insert and delete: live keys.
  Key next_fresh = 0;
  bool trace = false;
  uint64_t fail_client_after = 0;  ///< Test hook: client 0 stops with an error.
  SpanLog* main_spans = nullptr;   ///< Checkpoint and Recover spans.
  std::vector<uint8_t> scratch;    ///< Single-client value buffer.
};

constexpr size_t kRecentKeys = 1024;

Key PickKey(Shared* sh, Client* c) {
  if (sh->live != nullptr) return sh->live->Pick(&c->rng);
  if (sh->zipf != nullptr) return c->slice_lo + sh->zipf->Next(&c->rng);
  return c->slice_lo + c->rng.Below(c->slice_n);
}

Op PickOp(const Spec& s, Rng* rng) {
  if (s.pct_update == 100) return Op::kUpdate;
  uint32_t r = static_cast<uint32_t>(rng->Below(100));
  if (r < s.pct_update) return Op::kUpdate;
  r -= s.pct_update;
  if (r < s.pct_insert) return Op::kInsert;
  r -= s.pct_insert;
  if (r < s.pct_delete) return Op::kDelete;
  r -= s.pct_delete;
  return r < s.pct_read ? Op::kRead : Op::kScan;
}

/// Times `fn` as a span when tracing. Statuses pass through untouched.
template <class Fn>
Status Traced(Shared* sh, Client* c, const char* name, uint64_t txn, Fn&& fn) {
  if (!sh->trace) return fn();
  const int64_t t0 = NowNs();
  Status st = fn();
  c->spans.Add(name, txn, t0, NowNs());
  return st;
}

/// Run one operation inside `txn`, keeping the oracle and live keys in step.
Status RunOp(Shared* sh, Client* c, Txn* txn, uint8_t* buf) {
  const Spec& s = *sh->spec;
  const uint32_t vsize = sh->table.value_size();
  Oracle& o = *sh->oracle;
  const uint64_t id = txn->id();
  c->ops++;
  switch (PickOp(s, &c->rng)) {
    case Op::kUpdate: {
      const Key key = PickKey(sh, c);
      const uint32_t v = ++c->write_seq;
      FillValue(key, v, vsize, buf);
      DEUTERO_RETURN_NOT_OK(Traced(sh, c, "Update", id, [&] {
        return txn->Update(sh->table, key, Slice(reinterpret_cast<const char*>(buf), vsize));
      }));
      o.Set(key, v, &c->undo);
      return Status::OK();
    }
    case Op::kInsert: {
      // A fresh key past every key so far: the table grows at its right
      // edge while deletes thin it out everywhere.
      const Key key = sh->next_fresh++;
      o.Grow(key);
      const uint32_t v = ++c->write_seq;
      FillValue(key, v, vsize, buf);
      DEUTERO_RETURN_NOT_OK(Traced(sh, c, "Insert", id, [&] {
        return txn->Insert(sh->table, key, Slice(reinterpret_cast<const char*>(buf), vsize));
      }));
      o.Set(key, v, &c->undo);
      sh->live->Add(key);
      return Status::OK();
    }
    case Op::kDelete: {
      const Key key = sh->live->Pick(&c->rng);
      DEUTERO_RETURN_NOT_OK(Traced(sh, c, "Delete", id, [&] {
        return txn->Delete(sh->table, key);
      }));
      o.Set(key, Oracle::kAbsent, &c->undo);
      sh->live->Erase(key);
      return Status::OK();
    }
    case Op::kRead: {
      const Key key = PickKey(sh, c);
      std::string value;
      DEUTERO_RETURN_NOT_OK(Traced(sh, c, "Read", id, [&] {
        return txn->Read(sh->table, key, &value);
      }));
      FillValue(key, o.Get(key), vsize, buf);
      if (value.size() != vsize || std::memcmp(value.data(), buf, vsize) != 0) {
        return Mismatch("forward read", key);
      }
      return Status::OK();
    }
    case Op::kScan: {
      const Key lo = PickKey(sh, c);
      Key expect = lo;  // next oracle key the cursor must return
      return Traced(sh, c, "Scan", id, [&]() -> Status {
        ScanCursor cur;
        DEUTERO_RETURN_NOT_OK(sh->table.Scan(lo, kMaxKey, &cur));
        for (uint32_t n = 0; n < kScanRows && cur.Valid(); n++) {
          while (expect < o.domain() && o.Get(expect) == Oracle::kAbsent) {
            expect++;
          }
          if (cur.key() != expect) return Mismatch("forward scan", expect);
          FillValue(expect, o.Get(expect), vsize, buf);
          if (std::memcmp(cur.value().data(), buf, vsize) != 0) {
            return Mismatch("forward scan value", expect);
          }
          expect++;
          DEUTERO_RETURN_NOT_OK(cur.Next());
        }
        return Status::OK();
      });
    }
  }
  return Status::OK();
}

/// Roll the client's unfinished transaction back in the oracle; the live
/// keys follow the oracle's verdict for every key it touched. Returns the
/// keys.
std::vector<Key> RollBack(Shared* sh, Client* c) {
  std::vector<Key> touched;
  for (const auto& [key, old] : c->undo) touched.push_back(key);
  sh->oracle->Rollback(&c->undo);
  if (sh->live != nullptr) {
    for (Key key : touched) {
      const bool live = sh->oracle->Get(key) != Oracle::kAbsent;
      if (live && !sh->live->Contains(key)) sh->live->Add(key);
      if (!live && sh->live->Contains(key)) sh->live->Erase(key);
    }
  }
  return touched;
}

/// One closed-loop transaction: Begin, ops_per_txn operations, Commit.
/// Latency runs from Begin until Commit returns. A check against the
/// oracle that fails is returned; an engine refusal counts as a failed
/// transaction and is rolled back.
Status RunTxn(Shared* sh, Client* c, uint8_t* buf) {
  const int64_t t0 = NowNs();
  Txn txn;
  const int64_t b0 = NowNs();
  Status st = sh->db->Begin(&txn);
  if (sh->trace) c->spans.Add("Begin", txn.id(), b0, NowNs());
  for (uint32_t i = 0; st.ok() && i < sh->spec->ops_per_txn; i++) {
    st = RunOp(sh, c, &txn, buf);
  }
  if (st.ok()) {
    st = Traced(sh, c, "Commit", txn.id(), [&] { return txn.Commit(); });
  }
  if (!st.ok()) {
    if (st.IsCorruption()) return st;
    if (txn.active()) (void)txn.Abort();
    RollBack(sh, c);
    c->failed_txns++;
    return Status::OK();
  }
  c->txn_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  c->committed++;
  for (const auto& [key, old] : c->undo) {
    if (c->recent.size() < kRecentKeys) {
      c->recent.push_back(key);
    } else {
      c->recent[c->recent_next++ % kRecentKeys] = key;
    }
  }
  c->undo.clear();
  return Status::OK();
}

/// Open the transaction this client leaves unfinished at the crash.
Status OpenLoser(Shared* sh, Client* c, uint8_t* buf) {
  if (sh->spec->loser_ops == 0) return Status::OK();
  DEUTERO_RETURN_NOT_OK(sh->db->Begin(&c->loser));
  for (uint32_t i = 0; i < sh->spec->loser_ops; i++) {
    DEUTERO_RETURN_NOT_OK(RunOp(sh, c, &c->loser, buf));
  }
  return Status::OK();
}

/// Everything the forward segments measured, summed over segments.
struct ForwardResult {
  /// Wall and simulated time the checkpoint intervals took, checkpoints
  /// included.
  double wall_s = 0;
  double sim_ms = 0;
  uint64_t committed = 0, ops = 0, checkpoints = 0;
  std::vector<double> checkpoint_ms;
  std::vector<double> dirty_pages_at_crash;  ///< One per crash image.
  Counters counters{};

  /// Close the interval that began at `start`; returns the next one's start.
  int64_t EndSlice(int64_t start) {
    const int64_t now = NowNs();
    wall_s += static_cast<double>(now - start) / 1e9;
    return now;
  }
};

Status Checkpoint(Shared* sh, ForwardResult* out) {
  const int64_t t0 = NowNs();
  DEUTERO_RETURN_NOT_OK(sh->db->Checkpoint());
  const int64_t t1 = NowNs();
  if (sh->trace) sh->main_spans->Add("Checkpoint", 0, t0, t1);
  out->checkpoint_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  out->checkpoints++;
  return Status::OK();
}

Status RunSingleClient(Shared* sh, Client* c, ForwardResult* out) {
  const Spec& s = *sh->spec;
  uint8_t* buf = sh->scratch.data();
  auto run_ops = [&](uint64_t n) -> Status {
    for (uint64_t done = 0; done < n; done += s.ops_per_txn) {
      DEUTERO_RETURN_NOT_OK(RunTxn(sh, c, buf));
    }
    return Status::OK();
  };
  int64_t start = NowNs();
  for (uint64_t i = 0; i < s.checkpoints; i++) {
    DEUTERO_RETURN_NOT_OK(run_ops(s.checkpoint_every));
    DEUTERO_RETURN_NOT_OK(Checkpoint(sh, out));
    start = out->EndSlice(start);
  }
  DEUTERO_RETURN_NOT_OK(run_ops(s.checkpoint_every - s.tail_ops));
  if (s.tail_ops > 0) {
    sh->db->dc().monitor().ForceEmit();
    DEUTERO_RETURN_NOT_OK(run_ops(s.tail_ops));
  }
  out->EndSlice(start);
  return OpenLoser(sh, c, buf);
}

Status RunConcurrent(Shared* sh, std::vector<std::unique_ptr<Client>>* clients,
                     ForwardResult* out) {
  const Spec& s = *sh->spec;
  const uint64_t per_client =
      s.checkpoint_every * (s.checkpoints + 1) / s.clients;
  std::atomic<uint64_t> acked{0};
  std::atomic<uint32_t> running{s.clients};
  // Set by the first client that stops on an error, and by a failed
  // checkpoint: every thread then winds down instead of waiting for
  // commits that will never come.
  std::atomic<bool> stop{false};
  std::vector<Status> results(s.clients);
  std::vector<std::thread> threads;
  int64_t start = NowNs();
  for (uint32_t i = 0; i < s.clients; i++) {
    threads.emplace_back([&, i] {
      Client* c = (*clients)[i].get();
      std::vector<uint8_t> buf(sh->table.value_size());
      Status st;
      for (uint64_t t = 0; st.ok() && t < per_client && !stop.load(); t++) {
        if (i == 0 && sh->fail_client_after > 0 &&
            c->committed == sh->fail_client_after) {
          st = Status::Aborted("client 0 stopped (--fail-client-after)");
          break;
        }
        st = RunTxn(sh, c, buf.data());
        acked.fetch_add(1, std::memory_order_relaxed);
      }
      if (st.ok() && !stop.load()) st = OpenLoser(sh, c, buf.data());
      if (!st.ok()) stop.store(true);
      results[i] = std::move(st);
      running.fetch_sub(1);
    });
  }
  Status st;
  for (uint64_t i = 1; i <= s.checkpoints && !stop.load(); i++) {
    while (acked.load(std::memory_order_relaxed) < i * s.checkpoint_every &&
           !stop.load() && running.load() > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    if (stop.load()) break;
    st = Checkpoint(sh, out);
    if (!st.ok()) {
      stop.store(true);
      break;
    }
    start = out->EndSlice(start);
  }
  for (std::thread& t : threads) t.join();
  out->EndSlice(start);
  DEUTERO_RETURN_NOT_OK(st);
  for (const Status& r : results) DEUTERO_RETURN_NOT_OK(r);
  return Status::OK();
}

/// One crash image's forward segment, then the crash. Leaves the engine
/// crashed and the oracle holding exactly the committed state; returns the
/// keys the crash's open transactions wrote in `loser_keys`.
Status RunSegment(Shared* sh, std::vector<std::unique_ptr<Client>>* clients,
                  ForwardResult* out, std::vector<Key>* loser_keys) {
  Engine* db = sh->db;
  const Counters before = ReadCounters(db);
  const double sim0 = db->clock().NowMs();
  if (sh->spec->clients == 1) {
    DEUTERO_RETURN_NOT_OK(RunSingleClient(sh, (*clients)[0].get(), out));
  } else {
    DEUTERO_RETURN_NOT_OK(RunConcurrent(sh, clients, out));
  }
  out->sim_ms += db->clock().NowMs() - sim0;
  if (sh->spec->loser_ops > 0) db->tc().ForceLog();  // losers reach the log
  const Counters after = ReadCounters(db);
  for (size_t i = 0; i < kNumCounters; i++) {
    out->counters[i] += after[i] - before[i];
  }
  out->dirty_pages_at_crash.push_back(
      static_cast<double>(db->dc().pool().dirty_pages()));
  db->SimulateCrash();
  loser_keys->clear();
  for (auto& c : *clients) {
    c->loser.Release();
    const std::vector<Key> touched = RollBack(sh, c.get());
    loser_keys->insert(loser_keys->end(), touched.begin(), touched.end());
  }
  return Status::OK();
}

// ---- set-up ----

/// Engine::Open (bulk load + initial checkpoint), then one full scan so the
/// cache holds min(cache, table) pages before the forward phase.
Status Setup(const EngineOptions& options, std::unique_ptr<Engine>* db,
             Table* table) {
  DEUTERO_RETURN_NOT_OK(Engine::Open(options, db));
  DEUTERO_RETURN_NOT_OK((*db)->OpenDefaultTable(table));
  ScanCursor cur;
  DEUTERO_RETURN_NOT_OK(table->Scan(0, kMaxKey, &cur));
  while (cur.Valid()) DEUTERO_RETURN_NOT_OK(cur.Next());
  return Status::OK();
}

// ---- recovery ----

/// Whole-table check: the scan must return exactly the oracle's live keys,
/// in order, with the expected payloads.
Status VerifyFull(const Table& t, const Oracle& o) {
  const uint32_t vsize = t.value_size();
  std::vector<uint8_t> want(vsize);
  ScanCursor cur;
  DEUTERO_RETURN_NOT_OK(t.Scan(0, kMaxKey, &cur));
  Key next = 0;
  while (cur.Valid()) {
    const Key k = cur.key();
    for (; next < k; next++) {
      if (o.Get(next) != Oracle::kAbsent) return Mismatch("row missing", next);
    }
    if (o.Get(k) == Oracle::kAbsent) return Mismatch("row not expected", k);
    FillValue(k, o.Get(k), vsize, want.data());
    if (std::memcmp(cur.value().data(), want.data(), vsize) != 0) {
      return Mismatch("payload", k);
    }
    next = k + 1;
    DEUTERO_RETURN_NOT_OK(cur.Next());
  }
  for (; next < o.domain(); next++) {
    if (o.Get(next) != Oracle::kAbsent) return Mismatch("row missing", next);
  }
  return Status::OK();
}

/// Point checks of `keys` (present with the expected payload, or absent).
Status VerifySample(const Table& t, const Oracle& o,
                    const std::vector<Key>& keys) {
  const uint32_t vsize = t.value_size();
  std::vector<uint8_t> want(vsize);
  std::string got;
  for (Key k : keys) {
    const Status st = t.Read(k, &got);
    if (o.Get(k) == Oracle::kAbsent) {
      if (!st.IsNotFound()) return Mismatch("deleted row present", k);
      continue;
    }
    if (st.IsNotFound()) return Mismatch("row missing", k);
    DEUTERO_RETURN_NOT_OK(st);
    FillValue(k, o.Get(k), vsize, want.data());
    if (got.size() != vsize || std::memcmp(got.data(), want.data(), vsize)) {
      return Mismatch("payload", k);
    }
  }
  return Status::OK();
}

struct MethodResult {
  std::vector<double> wall_ms;        ///< Every timed rep, all images.
  std::vector<double> rep_sim_ms;     ///< Every rep, all images.
  std::vector<RecoveryStats> images;  ///< First rep of each crash image.
  bool sim_repeats = true;  ///< Every rep of an image read the same sim time.

  /// The mean over images of `field`.
  template <class F>
  double Mean(F field) const {
    double sum = 0;
    for (const RecoveryStats& s : images) sum += static_cast<double>(field(s));
    return images.empty() ? 0 : sum / static_cast<double>(images.size());
  }
};

/// Recover `snap` with every method, round-robin, on `db` (crashed). With
/// `warm_up` one extra, untimed round comes first and checks the whole
/// table; every other rep is timed and checks `sample`. With
/// `keep_running` the engine the last rep recovered stays up.
Status RecoverImage(Engine* db, const Engine::StableSnapshot& snap,
                    const Oracle& oracle, const std::vector<Key>& sample,
                    uint32_t rounds, bool warm_up, bool keep_running,
                    SpanLog* spans, MethodResult* out) {
  const uint32_t total = rounds + (warm_up ? 1 : 0);
  for (uint32_t round = 0; round < total; round++) {
    const bool timed = !warm_up || round > 0;
    for (size_t m = 0; m < kNumMethods; m++) {
      DEUTERO_RETURN_NOT_OK(db->RestoreStableSnapshot(snap));
      RecoveryStats st;
      const int64_t t0 = NowNs();
      const Status rs = db->Recover(kMethods[m], &st);
      const int64_t t1 = NowNs();
      DEUTERO_RETURN_NOT_OK(rs);
      if (spans != nullptr) spans->Add("Recover", 0, t0, t1);
      Table t;
      DEUTERO_RETURN_NOT_OK(db->OpenDefaultTable(&t));
      DEUTERO_RETURN_NOT_OK(timed ? VerifySample(t, oracle, sample)
                                  : VerifyFull(t, oracle));
      if (timed) out[m].wall_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      out[m].rep_sim_ms.push_back(st.total_ms);
      if (round == 0) {
        out[m].images.push_back(st);
      } else {
        out[m].sim_repeats &= st.total_ms == out[m].images.back().total_ms;
      }
      if (!keep_running || round + 1 < total || m + 1 < kNumMethods) {
        db->SimulateCrash();
      }
    }
  }
  return Status::OK();
}

// ---- output ----

class Json {
 public:
  void Metric(const std::string& name, double value, const char* unit) {
    Sep(&metrics_);
    metrics_ += "\"" + name + "\":{\"value\":" + Num(value) + ",\"unit\":\"" +
                unit + "\"}";
  }
  void Info(const std::string& name, double value) {
    Sep(&info_);
    info_ += "\"" + name + "\":" + Num(value);
  }
  /// The values a metric was taken from, for a reader who wants the spread.
  void Samples(const std::string& name, const std::vector<double>& values) {
    Sep(&samples_);
    samples_ += "\"" + name + "\":[";
    for (size_t i = 0; i < values.size(); i++) {
      if (i > 0) samples_ += ",";
      samples_ += Num(values[i]);
    }
    samples_ += "]";
  }
  std::string Render(const std::string& head) const {
    return "{" + head + ",\"metrics\":{" + metrics_ + "},\"info\":{" + info_ +
           "},\"samples\":{" + samples_ + "}}";
  }

 private:
  static void Sep(std::string* s) {
    if (!s->empty()) *s += ",";
  }
  static std::string Num(double v) {
    char b[40];
    std::snprintf(b, sizeof(b), "%.10g", v);
    return b;
  }
  std::string metrics_, info_, samples_;
};

/// Records the recovery passes touched, all passes of one crash image.
double RecordsScanned(const RecoveryStats& s) {
  return static_cast<double>(s.dc_pass.records + s.analysis.records +
                             s.redo.records + s.undo.records);
}

/// Untraced run: the end-to-end metrics, in the engine's simulated time,
/// and the per-layer metrics a wall clock gives, which tracing would skew.
void UntracedMetrics(const ForwardResult& fwd,
                     const std::vector<std::unique_ptr<Client>>& clients,
                     const std::vector<double>& setup, const MethodResult* rec,
                     Json* j) {
  const double txns = static_cast<double>(fwd.committed);
  j->Metric("setup_s", Median(setup), "s");
  j->Metric("fwd_sim_txn_per_s", Ratio(txns, fwd.sim_ms / 1e3), "txn/sim_s");
  for (size_t m = 0; m < kNumMethods; m++) {
    j->Metric(std::string("recovery_sim_ms.") + kMethodKeys[m],
              rec[m].Mean([](const RecoveryStats& s) { return s.total_ms; }),
              "sim_ms");
  }
  j->Metric("peak_rss_mb", PeakRssMb(), "MB");

  std::vector<double> us;
  for (const auto& c : clients) {
    us.insert(us.end(), c->txn_us.begin(), c->txn_us.end());
  }
  j->Metric("core.txn_per_s", Ratio(txns, fwd.wall_s), "txn/s");
  j->Metric("core.txn_us.p50", Median(us), "us");
  j->Metric("core.txn_us.p99", Quantile(us, 0.99), "us");
  for (size_t m = 0; m < kNumMethods; m++) {
    const std::string k = std::string(".") + kMethodKeys[m];
    j->Metric("recovery.wall_ms" + k, Median(rec[m].wall_ms), "ms");
    j->Metric("recovery.wall_ns_per_record" + k,
              Ratio(Median(rec[m].wall_ms) * 1e6, rec[m].Mean(RecordsScanned)),
              "ns/record");
  }
}

std::vector<double> SpanDurations(const std::vector<const SpanLog*>& logs,
                                  const char* name, double scale) {
  std::vector<double> out;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (std::strcmp(s.name, name) == 0) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / scale);
      }
    }
  }
  return out;
}

/// Traced run: the per-layer metrics taken from spans and counters.
void TracedMetrics(const Spec& spec, const ForwardResult& fwd,
                   const std::vector<const SpanLog*>& logs,
                   const MethodResult* rec, const MethodResult* par, Json* j) {
  const double us = 1e3;
  j->Metric("core.update_us.p50", Median(SpanDurations(logs, "Update", us)), "us");
  j->Metric("core.insert_us.p50", Median(SpanDurations(logs, "Insert", us)), "us");
  j->Metric("core.delete_us.p50", Median(SpanDurations(logs, "Delete", us)), "us");
  j->Metric("core.read_us.p50", Median(SpanDurations(logs, "Read", us)), "us");
  j->Metric("core.scan_us.p50", Median(SpanDurations(logs, "Scan", us)), "us");
  const std::vector<double> commit = SpanDurations(logs, "Commit", us);
  j->Metric("core.commit_us.p50", Median(commit), "us");
  j->Metric("core.commit_us.p99", Quantile(commit, 0.99), "us");
  j->Metric("core.checkpoint_ms.p50", Median(fwd.checkpoint_ms), "ms");

  const Counters& d = fwd.counters;
  const double txns = static_cast<double>(fwd.committed);
  const double k_txns = txns / 1000.0;

  j->Metric("concurrency.commits_per_batch",
            spec.group_commit ? Ratio(d[kCommitsEnqueued], d[kCommitBatches])
                              : 1.0,
            "commits");
  j->Metric("concurrency.shard_collisions_per_1k_txn",
            Ratio(d[kShardCollisions], k_txns), "1/1k_txn");

  j->Metric("wal.bytes_per_txn", Ratio(d[kWalBytes], txns), "B/txn");
  j->Metric("wal.records_per_txn", Ratio(d[kWalRecords], txns), "1/txn");
  j->Metric("wal.delta_bw_bytes_frac", Ratio(d[kWalDeltaBwBytes], d[kWalBytes]),
            "frac");
  j->Metric("wal.flushes_per_txn", Ratio(d[kWalFlushes], txns), "1/txn");
  for (size_t m = 0; m < kNumMethods; m++) {
    j->Metric(std::string("wal.log_pages_scanned.") + kMethodKeys[m],
              rec[m].Mean([](const RecoveryStats& s) {
                return s.dc_pass.log_pages + s.analysis.log_pages +
                       s.redo.log_pages + s.undo.log_pages;
              }),
              "pages");
  }

  j->Metric("dc.delta_records_per_1k_txn", Ratio(d[kDeltaRecords], k_txns),
            "1/1k_txn");
  j->Metric("dc.bw_records_per_1k_txn", Ratio(d[kBwRecords], k_txns),
            "1/1k_txn");

  j->Metric("btree.traversals_per_op",
            Ratio(d[kTraversals], static_cast<double>(fwd.ops)), "1/op");
  j->Metric("btree.splits_per_1k_txn", Ratio(d[kSplits], k_txns), "1/1k_txn");
  j->Metric("btree.merges_per_1k_txn", Ratio(d[kMerges], k_txns), "1/1k_txn");

  j->Metric("pool.hit_ratio", Ratio(d[kPoolHits], d[kPoolGets]), "frac");
  j->Metric("pool.evictions_per_txn", Ratio(d[kEvictions], txns), "1/txn");
  j->Metric("pool.lazy_flushes_per_txn", Ratio(d[kLazyFlushes], txns), "1/txn");
  j->Metric("pool.checkpoint_flushes_per_ckpt",
            Ratio(d[kCheckpointFlushes], static_cast<double>(fwd.checkpoints)),
            "pages");
  double dirty = 0;
  for (double v : fwd.dirty_pages_at_crash) dirty += v;
  j->Metric("pool.dirty_pages_at_crash",
            Ratio(dirty, static_cast<double>(fwd.dirty_pages_at_crash.size())),
            "pages");

  j->Metric("disk.read_ios_per_txn", Ratio(d[kReadIos], txns), "1/txn");
  j->Metric("disk.write_ios_per_txn", Ratio(d[kWriteIos], txns), "1/txn");
  j->Metric("disk.busy_sim_ms_per_txn", Ratio(d[kDiskBusyMs], txns),
            "sim_ms/txn");

  // Recovery counters are means over the crash images; ratios are taken
  // between means, which weighs every record alike.
  const std::string r = "recovery.";
  for (size_t m = 0; m < kNumMethods; m++) {
    const MethodResult& x = rec[m];
    const std::string k = std::string(".") + kMethodKeys[m];
    j->Metric(r + "analysis_sim_ms" + k,
              x.Mean([](const RecoveryStats& s) { return s.dc_pass.ms + s.analysis.ms; }),
              "sim_ms");
    j->Metric(r + "redo_sim_ms" + k,
              x.Mean([](const RecoveryStats& s) { return s.redo.ms; }), "sim_ms");
    j->Metric(r + "undo_sim_ms" + k,
              x.Mean([](const RecoveryStats& s) { return s.undo.ms; }), "sim_ms");
    j->Metric(r + "stall_sim_ms" + k,
              x.Mean([](const RecoveryStats& s) { return s.stall_ms; }), "sim_ms");
    j->Metric(r + "data_fetches" + k,
              x.Mean([](const RecoveryStats& s) { return s.data_page_fetches; }),
              "pages");
    j->Metric(r + "index_fetches" + k,
              x.Mean([](const RecoveryStats& s) { return s.index_page_fetches; }),
              "pages");
    const double examined =
        x.Mean([](const RecoveryStats& s) { return s.redo_examined; });
    j->Metric(r + "redo_applied_ratio" + k,
              Ratio(x.Mean([](const RecoveryStats& s) { return s.redo_applied; }),
                    examined),
              "frac");
  }
  for (size_t m : {1, 2, 3, 4}) {
    j->Metric(r + "dpt_size." + kMethodKeys[m],
              rec[m].Mean([](const RecoveryStats& s) { return s.dpt_size; }),
              "pages");
  }
  for (size_t m : {2, 4}) {
    j->Metric(r + "prefetch_used_ratio." + kMethodKeys[m],
              Ratio(rec[m].Mean([](const RecoveryStats& s) { return s.prefetch_used; }),
                    rec[m].Mean([](const RecoveryStats& s) { return s.prefetch_issued; })),
              "frac");
  }
  for (size_t m : {0, 1, 2}) {
    j->Metric(r + "leaf_memo_hit_ratio." + kMethodKeys[m],
              Ratio(rec[m].Mean([](const RecoveryStats& s) { return s.redo_leaf_memo_hits; }),
                    rec[m].Mean([](const RecoveryStats& s) { return s.redo_examined; })),
              "frac");
  }
  for (size_t m = 0; m < kNumMethods; m++) {
    const std::string k = std::string(".") + kMethodKeys[m];
    // par3 recovers one crash image several times, and its simulated time
    // does not repeat: each rep is a sample of its own.
    const std::vector<double>& sim = par[m].rep_sim_ms;
    const double lo = sim.empty() ? 0 : *std::min_element(sim.begin(), sim.end());
    const double hi = sim.empty() ? 0 : *std::max_element(sim.begin(), sim.end());
    j->Metric(r + "par3_wall_ms" + k, Median(par[m].wall_ms), "ms");
    j->Metric(r + "par3_sim_ms" + k, Median(sim), "sim_ms");
    j->Metric(r + "par3_sim_spread" + k, Ratio(hi, lo), "x");
    j->Metric(r + "par3_speedup" + k,
              Ratio(Median(rec[m].wall_ms), Median(par[m].wall_ms)), "x");
  }
}

// ---- main ----

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool smoke = false;
  std::string trace_file;
  bool corrupt_oracle = false;
  uint64_t fail_client_after = 0;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      a->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      a->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace-file" && has_value) {
      a->trace_file = argv[++i];
    } else if (arg == "--fail-client-after" && has_value) {
      a->fail_client_after = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--smoke") {
      a->smoke = true;
    } else if (arg == "--corrupt-oracle") {
      a->corrupt_oracle = true;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds >= 0 && a->seconds <= 3600;
}

const Spec* FindSpec(const Args& a) {
  const Spec* specs = a.smoke ? kSmokeSpecs : kSpecs;
  for (size_t i = 0; i < std::size(kSpecs); i++) {
    if (a.workload == specs[i].name) return &specs[i];
  }
  return nullptr;
}

int Fail(const Status& st) {
  std::fprintf(stderr, "e2e_bench: %s\n", st.ToString().c_str());
  return st.IsCorruption() ? 3 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload W [--seed N] [--seconds S] "
                 "[--smoke] [--trace-file F] [--corrupt-oracle] "
                 "[--fail-client-after N]\n");
    return 2;
  }
  const Spec* spec = FindSpec(args);
  if (spec == nullptr) {
    std::fprintf(stderr, "e2e_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const bool trace = !args.trace_file.empty();
  const int64_t origin = NowNs();
  // Recovery rounds per crash image: one per 10 s of --seconds. The count
  // depends on --seconds alone, never on how fast the machine runs, so two
  // builds compared at the same --seconds are measured over the same reps.
  const uint32_t rounds = std::max<uint32_t>(
      1, static_cast<uint32_t>(std::lround(args.seconds / 10)));

  // Inputs that do not depend on the engine are built before any timing.
  std::unique_ptr<ScrambledZipf> zipf;
  if (spec->zipf_theta > 0) {
    zipf = std::make_unique<ScrambledZipf>(spec->rows / spec->clients,
                                           spec->zipf_theta);
  }

  // Set-up: timed setup_reps times (once for the traced run); setup_s is
  // the median, and the engine of the last repetition runs the workload.
  const EngineOptions options = MakeOptions(*spec, 1);
  const uint32_t setup_reps = trace ? 1 : spec->setup_reps;
  std::vector<double> setup_s;
  std::unique_ptr<Engine> db;
  Table table;
  for (uint32_t rep = 0; rep < setup_reps; rep++) {
    db.reset();
    const int64_t t0 = NowNs();
    const Status st = Setup(options, &db, &table);
    if (!st.ok()) return Fail(st);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  Oracle oracle(spec->rows);
  KeySet live;
  Shared sh;
  sh.db = db.get();
  sh.table = table;
  sh.spec = spec;
  sh.oracle = &oracle;
  sh.zipf = zipf.get();
  sh.next_fresh = spec->rows;
  sh.trace = trace;
  sh.fail_client_after = args.fail_client_after;
  SpanLog main_spans(spec->clients);
  sh.main_spans = &main_spans;
  sh.scratch.resize(table.value_size());
  if (spec->pct_insert + spec->pct_delete > 0) {
    for (Key k = 0; k < spec->rows; k++) live.Add(k);
    sh.live = &live;
  }
  std::vector<std::unique_ptr<Client>> clients;
  const Key slice = spec->rows / spec->clients;
  for (uint32_t i = 0; i < spec->clients; i++) {
    clients.push_back(std::make_unique<Client>(
        i, args.seed * 0x100000001b3ULL + i, i * slice, slice));
  }

  // The crash images. Each forward segment runs on the engine the previous
  // image's last recovery left running.
  ForwardResult fwd;
  MethodResult rec[kNumMethods];
  Engine::StableSnapshot last_snap;  // kept for the traced run's twin
  std::vector<Key> loser_keys, sample;
  Rng sample_rng(args.seed ^ 0x5eed);
  uint64_t recoveries = 0;
  double recovery_phase_s = 0;
  for (uint32_t image = 0; image < spec->images; image++) {
    Status st = RunSegment(&sh, &clients, &fwd, &loser_keys);
    if (!st.ok()) return Fail(st);
    const bool last = image + 1 == spec->images;
    // Verification keys: what the last committed transactions wrote, what
    // the crash's losers wrote (must be rolled back), and a seeded sample.
    sample.clear();
    for (const auto& c : clients) {
      sample.insert(sample.end(), c->recent.begin(), c->recent.end());
    }
    sample.insert(sample.end(), loser_keys.begin(), loser_keys.end());
    for (int i = 0; i < 1024; i++) {
      sample.push_back(sample_rng.Below(oracle.domain()));
    }
    if (args.corrupt_oracle && image == 0) {
      oracle.Corrupt(clients[0]->recent.back());
    }
    const int64_t r0 = NowNs();
    Engine::StableSnapshot snap;
    st = db->TakeStableSnapshot(&snap);
    if (!st.ok()) return Fail(st);
    st = RecoverImage(db.get(), snap, oracle, sample, rounds,
                      /*warm_up=*/image == 0, /*keep_running=*/!last,
                      trace ? &main_spans : nullptr, rec);
    if (!st.ok()) return Fail(st);
    recovery_phase_s += static_cast<double>(NowNs() - r0) / 1e9;
    recoveries += (rounds + (image == 0 ? 1 : 0)) * kNumMethods;
    if (last) last_snap = std::move(snap);
    if (!last) {
      st = db->OpenDefaultTable(&sh.table);
      if (!st.ok()) return Fail(st);
    }
  }

  uint64_t failed = 0;
  for (const auto& c : clients) {
    fwd.committed += c->committed;
    fwd.ops += c->ops;
    failed += c->failed_txns;
  }
  const uint64_t committed = fwd.committed;

  Json j;
  j.Info("run_s", static_cast<double>(NowNs() - origin) / 1e9);
  j.Info("recovery_phase_s", recovery_phase_s);
  j.Info("fwd_wall_s", fwd.wall_s);
  j.Info("fwd_sim_s", fwd.sim_ms / 1e3);
  j.Info("fwd_txn_samples", static_cast<double>(committed));
  j.Info("fwd_ops", static_cast<double>(fwd.ops));
  j.Info("setup_reps", static_cast<double>(setup_reps));
  j.Info("crash_images", spec->images);
  j.Info("recovery_rounds_per_image", rounds);
  bool sim_repeats = true;
  for (const MethodResult& r : rec) sim_repeats &= r.sim_repeats;
  j.Info("recovery_sim_repeats", sim_repeats ? 1 : 0);
  uint64_t attempted = committed + failed + recoveries;
  // A result is printed only when every check against the oracle passed; a
  // failed check exits 3 first. Refused transactions count as `failed`.
  const auto head = [&]() {
    return "\"workload\":\"" + args.workload + "\",\"seed\":" +
           std::to_string(args.seed) + ",\"smoke\":" +
           (args.smoke ? "true" : "false") + ",\"correct\":true" +
           ",\"attempted\":" + std::to_string(attempted) + ",\"failed\":" +
           std::to_string(failed) + ",\"compiler\":\"" + E2E_COMPILER +
           "\",\"build_type\":\"" + E2E_BUILD_TYPE + "\"";
  };
  j.Samples("setup_s", setup_s);
  for (size_t m = 0; m < kNumMethods; m++) {
    std::vector<double> sim;
    for (const RecoveryStats& s : rec[m].images) sim.push_back(s.total_ms);
    j.Samples(std::string("recovery_sim_ms.") + kMethodKeys[m], sim);
    j.Samples(std::string("recovery.wall_ms.") + kMethodKeys[m],
              rec[m].wall_ms);
  }

  if (!trace) {
    UntracedMetrics(fwd, clients, setup_s, rec, &j);
    std::printf("%s\n", j.Render(head()).c_str());
    return 0;
  }

  // Traced run: the last crash image again, on a twin engine that recovers
  // with three threads. The first engine goes first so two images never
  // share memory.
  db.reset();
  std::unique_ptr<Engine> twin;
  Status st = Engine::Open(MakeOptions(*spec, 3), &twin);
  if (!st.ok()) return Fail(st);
  twin->SimulateCrash();
  const uint32_t par_rounds = args.smoke ? 1 : 5;
  MethodResult par[kNumMethods];
  st = RecoverImage(twin.get(), last_snap, oracle, sample, par_rounds,
                    /*warm_up=*/false, /*keep_running=*/false, nullptr, par);
  if (!st.ok()) return Fail(st);
  attempted += par_rounds * kNumMethods;

  std::vector<const SpanLog*> logs{&main_spans};
  for (const auto& c : clients) logs.push_back(&c->spans);
  TracedMetrics(*spec, fwd, logs, rec, par, &j);
  if (!WriteChromeTrace(args.trace_file, logs, committed, 5'000, origin)) {
    std::fprintf(stderr, "e2e_bench: cannot write %s\n",
                 args.trace_file.c_str());
    return 1;
  }
  std::printf("%s\n", j.Render(head()).c_str());
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
