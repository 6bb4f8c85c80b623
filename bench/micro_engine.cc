// google-benchmark microbenchmarks for the engine's hot paths: B-tree
// traversal, buffer pool access, log append, DPT operations, and the
// analysis passes. These measure real wall-clock cost of the implementation
// (not simulated time) — useful for tracking implementation regressions.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>

#include "common/crc32.h"
#include "core/engine.h"
#include "recovery/analysis.h"
#include "recovery/dpt.h"
#include "recovery/redo.h"
#include "recovery/undo.h"
#include "sim/clock.h"
#include "sim/sim_disk.h"
#include "storage/buffer_pool.h"
#include "storage/page_table.h"
#include "workload/concurrent_driver.h"
#include "workload/driver.h"

namespace deutero {
namespace {

EngineOptions MicroOptions() {
  EngineOptions o;
  o.page_size = 8192;
  o.value_size = 26;
  o.num_rows = 200'000;
  o.cache_pages = 2048;
  o.lazy_writer_reference_cache_pages = 2048;
  return o;
}

void BM_BTreeFind(benchmark::State& state) {
  std::unique_ptr<Engine> e;
  (void)Engine::Open(MicroOptions(), &e);
  Random rng(1);
  for (auto _ : state) {
    PageId pid;
    benchmark::DoNotOptimize(
        e->dc().btree().Find(rng.Uniform(200'000), &pid));
    benchmark::DoNotOptimize(pid);
  }
}
BENCHMARK(BM_BTreeFind);

void BM_BTreeRead(benchmark::State& state) {
  std::unique_ptr<Engine> e;
  (void)Engine::Open(MicroOptions(), &e);
  Random rng(2);
  std::string v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(e->Read(rng.Uniform(200'000), &v));
  }
}
BENCHMARK(BM_BTreeRead);

void BM_TxnUpdate(benchmark::State& state) {
  std::unique_ptr<Engine> e;
  (void)Engine::Open(MicroOptions(), &e);
  Random rng(3);
  const std::string value(26, 'x');
  Table table;
  (void)e->OpenDefaultTable(&table);
  Txn t;
  (void)e->Begin(&t);
  uint64_t in_txn = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.Update(table, rng.Uniform(200'000), value));
    if (++in_txn % 10 == 0) {
      (void)t.Commit();
      (void)e->Begin(&t);
    }
  }
  (void)t.Abort();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TxnUpdate);

// One atomic WriteBatch per iteration: batch build (arena reuse) + apply +
// single commit flush. Compare with BM_TxnUpdate x batch size.
void BM_WriteBatchApply(benchmark::State& state) {
  std::unique_ptr<Engine> e;
  (void)Engine::Open(MicroOptions(), &e);
  Random rng(23);
  const std::string value(26, 'y');
  Table table;
  (void)e->OpenDefaultTable(&table);
  WriteBatch batch;
  for (auto _ : state) {
    batch.Clear();
    for (int i = 0; i < 10; i++) batch.Update(rng.Uniform(200'000), value);
    benchmark::DoNotOptimize(e->Apply(table, batch));
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_WriteBatchApply);

// Full snapshot scan throughput through the cursor (allocation-free rows).
void BM_ScanCursor(benchmark::State& state) {
  EngineOptions o = MicroOptions();
  o.num_rows = 50'000;
  o.cache_pages = 4096;  // whole tree resident: measures cursor CPU
  std::unique_ptr<Engine> e;
  (void)Engine::Open(o, &e);
  Table table;
  (void)e->OpenDefaultTable(&table);
  uint64_t rows = 0;
  for (auto _ : state) {
    ScanCursor c;
    (void)table.Scan(0, o.num_rows, &c);
    while (c.Valid()) {
      benchmark::DoNotOptimize(c.key());
      rows++;
      (void)c.Next();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows));
}
BENCHMARK(BM_ScanCursor);

void BM_BufferPoolHit(benchmark::State& state) {
  std::unique_ptr<Engine> e;
  (void)Engine::Open(MicroOptions(), &e);
  PageHandle warm;
  (void)e->dc().pool().Get(kRootPageId + 1, PageClass::kData, &warm);
  warm.Release();
  for (auto _ : state) {
    PageHandle h;
    benchmark::DoNotOptimize(
        e->dc().pool().Get(kRootPageId + 1, PageClass::kData, &h));
  }
}
BENCHMARK(BM_BufferPoolHit);

void BM_LogAppendUpdate(benchmark::State& state) {
  SimClock clock;
  LogManager log(&clock, 8192, 0.25);
  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  rec.txn_id = 1;
  rec.table_id = 1;
  rec.key = 42;
  rec.before.assign(26, 'a');
  rec.after.assign(26, 'b');
  rec.pid = 7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.Append(rec));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          (rec.before.size() + rec.after.size()));
}
BENCHMARK(BM_LogAppendUpdate);

// The recovery-scan hot path: decode every stable record, touching the
// fields redo reads. Measures per-record CPU cost of frame verify + payload
// decode (the zero-copy target); charge_io=false keeps the sim clock out.
void BM_LogScanDecode(benchmark::State& state) {
  SimClock clock;
  LogManager log(&clock, 8192, 0.0);
  Random rng(11);
  const int kRecords = 10'000;
  for (int i = 0; i < kRecords; i++) {
    LogRecord r;
    r.type = LogRecordType::kUpdate;
    r.txn_id = 1 + i / 10;
    r.table_id = 1;
    r.key = rng.Uniform(1'000'000);
    r.before.assign(26, 'a');
    r.after.assign(26, 'b');
    r.pid = static_cast<PageId>(rng.Uniform(40'000));
    log.Append(r);
  }
  log.Flush();
  for (auto _ : state) {
    uint64_t sum = 0;
    for (auto it = log.NewIterator(kFirstLsn, /*charge_io=*/false);
         it.Valid(); it.Next()) {
      const auto& rec = it.record();
      sum += rec.key + rec.pid + rec.after.size();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kRecords);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(log.stable_end()));
}
BENCHMARK(BM_LogScanDecode);

// Same scan over SMO records carrying full 8 KB page images — the DC-pass
// shape, where the owned decode used to copy every image per record.
void BM_LogScanSmoImages(benchmark::State& state) {
  SimClock clock;
  LogManager log(&clock, 8192, 0.0);
  const int kRecords = 200;
  for (int i = 0; i < kRecords; i++) {
    LogRecord r;
    r.type = LogRecordType::kSmo;
    r.alloc_hwm = static_cast<PageId>(3 * i + 3);
    for (int p = 0; p < 3; p++) {
      r.smo_pages.push_back({static_cast<PageId>(3 * i + p),
                             std::string(8192, static_cast<char>('a' + p))});
    }
    log.Append(r);
  }
  log.Flush();
  for (auto _ : state) {
    uint64_t sum = 0;
    for (auto it = log.NewIterator(kFirstLsn, /*charge_io=*/false);
         it.Valid(); it.Next()) {
      const auto& rec = it.record();
      for (const auto& p : rec.smo_pages) {
        sum += p.pid + static_cast<uint8_t>(p.image[0]);
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kRecords);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(log.stable_end()));
}
BENCHMARK(BM_LogScanSmoImages);

void BM_Crc32c(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::string buf(n, '\0');
  Random rng(13);
  for (char& c : buf) c = static_cast<char>(rng.Uniform(256));
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = Crc32c(buf.data(), buf.size(), crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096);

// Buffer-pool page-table pressure: hits spread over every resident page, so
// each Get exercises a fresh table lookup instead of one hot bucket.
void BM_BufferPoolGetSpread(benchmark::State& state) {
  std::unique_ptr<Engine> e;
  (void)Engine::Open(MicroOptions(), &e);
  BufferPool& pool = e->dc().pool();
  // Warm the pool with a window of data pages.
  std::vector<PageId> pids;
  for (PageId pid = kRootPageId + 1; pids.size() < 512; pid++) {
    PageHandle h;
    if (!pool.Get(pid, PageClass::kData, &h).ok()) break;
    pids.push_back(pid);
  }
  Random rng(17);
  size_t i = 0;
  for (auto _ : state) {
    PageHandle h;
    benchmark::DoNotOptimize(
        pool.Get(pids[i++ & 511], PageClass::kData, &h));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPoolGetSpread);

// One demand miss in a pool the lazy writer holds 95 % dirty, with more
// hot clean pages than the watermark leaves clean frames (fig2a_uniform's
// index at App. C's ci10): 64 index pages, each re-referenced every 8
// misses. Each step reads a cold page and dirties it, as an update's leaf
// write does. A clock that hunts for clean victims walks the frames,
// taking a shard latch at each, and evicts hot pages that later steps
// read back; `hot_rereads` counts them per step.
void BM_BufferPoolMissMostlyDirty(benchmark::State& state) {
  constexpr uint32_t kPageSize = 1024;
  constexpr uint64_t kFrames = 1024;
  constexpr PageId kHot = 64;
  constexpr PageId kHotPerStep = 8;
  constexpr PageId kPages = 16 * kFrames;
  SimClock clock;
  SimDisk disk(&clock, kPageSize, IoModelOptions{});
  disk.EnsurePages(kPages);
  BufferPool pool(&clock, &disk, kFrames, kPageSize);
  pool.set_dirty_watermark(kFrames * 95 / 100);
  Lsn lsn = 1;
  PageId hot = 0;
  PageId next = kHot;
  auto step = [&] {
    for (PageId i = 0; i < kHotPerStep; i++, hot = (hot + 1) % kHot) {
      PageHandle h;
      benchmark::DoNotOptimize(pool.Get(hot, PageClass::kIndex, &h));
    }
    PageHandle h;
    if (pool.Get(next, PageClass::kData, &h).ok()) h.MarkDirty(lsn++);
    h.Release();
    benchmark::DoNotOptimize(pool.LazyWriterTick());
    next = next + 1 < kPages ? next + 1 : kHot;
  };
  for (uint64_t i = 0; i < 4 * kFrames; i++) step();  // fill, then evict
  pool.ResetStats();
  for (auto _ : state) step();
  state.SetItemsProcessed(state.iterations());
  state.counters["hot_rereads"] =
      benchmark::Counter(static_cast<double>(pool.stats().index_fetches),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_BufferPoolMissMostlyDirty);

// The pool's pid -> frame table in isolation: the probe cost under the
// find/put/erase churn that eviction produces.
void BM_PageTableChurn(benchmark::State& state) {
  PageTable table(2048);
  for (PageId pid = 0; pid < 2048; pid++) table.Put(pid, pid);
  Random rng(19);
  PageId next = 2048;
  for (auto _ : state) {
    const PageId lookup = static_cast<PageId>(rng.Uniform(2048));
    benchmark::DoNotOptimize(table.Find(lookup));
    if ((lookup & 7) == 0) {  // eviction: swap one mapping out
      table.Erase(next - 2048);
      table.Put(next, lookup);
      next++;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageTableChurn);

void BM_DptAddFindRemove(benchmark::State& state) {
  DirtyPageTable dpt;
  Random rng(5);
  for (auto _ : state) {
    const PageId pid = static_cast<PageId>(rng.Uniform(100'000));
    dpt.AddOrUpdate(pid, pid + 1);
    benchmark::DoNotOptimize(dpt.Find(pid));
    if (pid % 3 == 0) dpt.Remove(pid);
  }
}
BENCHMARK(BM_DptAddFindRemove);

void BM_SqlAnalysisPass(benchmark::State& state) {
  SimClock clock;
  LogManager log(&clock, 8192, 0.0);
  LogRecord b;
  b.type = LogRecordType::kBeginCheckpoint;
  const Lsn start = log.Append(b);
  Random rng(6);
  for (int i = 0; i < 10'000; i++) {
    LogRecord r;
    r.type = LogRecordType::kUpdate;
    r.txn_id = 1 + i / 10;
    r.table_id = 1;
    r.key = rng.Uniform(1'000'000);
    r.after.assign(26, 'x');
    r.pid = static_cast<PageId>(rng.Uniform(40'000));
    log.Append(r);
    if (i % 500 == 499) {
      LogRecord bw;
      bw.type = LogRecordType::kBwRecord;
      bw.fw_lsn = log.next_lsn() / 2;
      for (int j = 0; j < 100; j++) {
        bw.written_set.push_back(static_cast<PageId>(rng.Uniform(40'000)));
      }
      log.Append(bw);
    }
  }
  log.Flush();
  for (auto _ : state) {
    SqlAnalysisResult out;
    benchmark::DoNotOptimize(RunSqlAnalysis(&log, start, &out));
    benchmark::DoNotOptimize(out.dpt.size());
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SqlAnalysisPass);

// Wall-clock cost of a whole logical recovery (Log1) over one crash image:
// FindLeaf memoization off (arg0 == 0) vs on (arg0 == 1), under the
// paper's uniform workload (arg1 == 0, worst case: random keys rarely
// repeat a leaf), a Zipfian-0.99 workload (arg1 == 1, popularity skew),
// and an append-heavy workload (arg1 == 2, sequential fresh keys — the
// locality the memo exploits hardest). The /0 vs /1 pairs per workload are
// the before/after for the per-record index re-traversal — the top
// remaining CPU term of logical redo. memo_hit_pct reports the fraction of
// examined ops whose traversal the memo absorbed.
void BM_LogicalRedo(benchmark::State& state) {
  EngineOptions o;
  o.page_size = 8192;
  o.value_size = 26;
  o.num_rows = 100'000;
  o.cache_pages = 2048;
  o.lazy_writer_reference_cache_pages = 2048;
  o.checkpoint_interval_updates = 4000;
  o.redo_leaf_memo = state.range(0) != 0;
  std::unique_ptr<Engine> e;
  (void)Engine::Open(o, &e);
  {
    WorkloadConfig wc;
    if (state.range(1) == 1) {
      wc.distribution = WorkloadConfig::Distribution::kZipfian;
    } else if (state.range(1) == 2) {
      wc.insert_fraction = 0.8;  // mostly appends of sequential fresh keys
    }
    WorkloadDriver driver(e.get(), wc);
    (void)driver.RunOps(2000);  // warm
    (void)e->Checkpoint();
    (void)driver.RunOps(8000);  // the redone window
    driver.OnCrash();
  }
  e->SimulateCrash();
  // One DC pass builds the DPT and replays SMOs; the benchmark loop then
  // re-runs the TC redo pass over the same window. After the first run all
  // operations are skipped by the pLSN/rLSN tests, but the per-record work
  // the memo targets — scan, decode, index traversal — repeats identically,
  // so the measurement isolates exactly the redo-pass CPU (no
  // snapshot-restore memcpy noise in the loop).
  (void)e->dc().OpenDatabase();
  const Lsn start = e->wal().master().bckpt_lsn;
  DcRecoveryResult dcr;
  (void)RunDcRecovery(&e->wal(), &e->dc(), start, o.dpt_mode,
                      /*build_dpt=*/true, /*preload=*/false, &dcr);
  uint64_t records = 0;
  uint64_t hits = 0;
  uint64_t examined = 0;
  for (auto _ : state) {
    RedoResult redo;
    benchmark::DoNotOptimize(
        RunLogicalRedo(&e->wal(), &e->dc(), start, /*use_dpt=*/true,
                       &dcr.dpt, dcr.last_delta_tc_lsn,
                       /*prefetch=*/false, o, 1, &redo));
    records += redo.records_scanned;
    hits += redo.leaf_memo_hits;
    examined += redo.examined;
  }
  state.SetItemsProcessed(static_cast<int64_t>(records));
  state.counters["memo_hit_pct"] =
      examined == 0 ? 0.0 : 100.0 * static_cast<double>(hits) /
                                static_cast<double>(examined);
}
BENCHMARK(BM_LogicalRedo)->ArgsProduct({{0, 1}, {0, 1, 2}});

// Wall-clock thread-scaling curve of the partitioned parallel redo
// pipeline (recovery_threads in {1, 2, 4}) over one crash image, under
// the two workloads whose apply work the pipeline spreads best: an
// append-heavy stream (arg1 == 0: sequential fresh keys, long same-leaf
// runs the worker pin caches absorb) and a Zipfian-0.99 mix (arg1 == 1:
// popularity skew, hot leaves spread across partitions by the pid hash).
// Unlike BM_LogicalRedo, every iteration RESTORES the crash image so the
// redo pass re-applies every operation — the measurement includes the
// parallelizable leaf work, not just scan + traversal. Timing is manual
// and covers exactly the redo pass (restore/DC-pass setup is untimed).
// /1 is the one-partition pipeline (inline apply, no thread); speedup at
// /2 and /4 is real_time(/1) / real_time(/N) in BENCH_micro.json — note
// the JSON context records num_cpus: scaling needs physical cores.
// sim_redo_ms reports the SIMULATED redo time (I/O + dispatcher CPU +
// slowest partition's CPU), the cost model's view of the same pipeline.
void BM_ParallelRedo(benchmark::State& state) {
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  EngineOptions o;
  o.page_size = 8192;
  o.value_size = 26;
  // The merge-churn variant (arg 2) needs delete pressure dense enough to
  // drain whole 229-row leaves: a compact table where every leaf sees
  // hundreds of deletes over the redone window.
  o.num_rows = state.range(1) == 2 ? 4000 : 100'000;
  o.cache_pages = 4096;  // tree resident: isolates CPU scaling
  o.lazy_writer_reference_cache_pages = 4096;
  o.checkpoint_interval_updates = 100'000;  // explicit checkpoint only
  std::unique_ptr<Engine> e;
  (void)Engine::Open(o, &e);
  {
    WorkloadConfig wc;
    if (state.range(1) == 1) {
      wc.distribution = WorkloadConfig::Distribution::kZipfian;
    } else if (state.range(1) == 2) {
      // Merge churn: a DRAINING 90%-delete mix over a compact table (under
      // update-reinsert churn a 229-row leaf's live fraction equilibrates
      // above the merge threshold, so steady-state mixes never merge at
      // this page size). The drain crosses the threshold mid-window, so
      // the redone log is dense with kSmoMerge (and split) SMOs — the SQL
      // pipeline takes its drain barriers, the logical DC pass replays the
      // merges, and the dispatcher's row accounting runs at full tilt.
      wc.delete_fraction = 0.9;
      wc.insert_fraction = 0.05;
    } else {
      wc.insert_fraction = 0.8;  // append-heavy
    }
    WorkloadDriver driver(e.get(), wc);
    (void)driver.RunOps(2000);  // warm
    (void)e->Checkpoint();
    (void)driver.RunOps(12000);  // the redone window
    driver.OnCrash();
  }
  e->SimulateCrash();
  Engine::StableSnapshot snap;
  (void)e->TakeStableSnapshot(&snap);

  uint64_t records = 0;
  uint64_t applied = 0;
  double sim_ms = 0;
  uint64_t iters = 0;
  const Lsn start = e->wal().master().bckpt_lsn;
  for (auto _ : state) {
    // Untimed: reinstall the crash image and rebuild the DPT so the timed
    // pass has real apply work to do every iteration.
    (void)e->RestoreStableSnapshot(snap);
    (void)e->dc().OpenDatabase();
    DcRecoveryResult dcr;
    (void)RunDcRecovery(&e->wal(), &e->dc(), start, o.dpt_mode,
                        /*build_dpt=*/true, /*preload=*/false, &dcr);
    RedoResult redo;
    const double sim_t0 = e->clock().NowMs();
    const auto t0 = std::chrono::steady_clock::now();
    (void)RunLogicalRedo(&e->wal(), &e->dc(), start, /*use_dpt=*/true,
                         &dcr.dpt, dcr.last_delta_tc_lsn,
                         /*prefetch=*/false, o, threads, &redo);
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(
        std::chrono::duration<double>(t1 - t0).count());
    sim_ms += e->clock().NowMs() - sim_t0;
    records += redo.records_scanned;
    applied += redo.applied;
    iters++;
    e->SimulateCrash();
  }
  state.SetItemsProcessed(static_cast<int64_t>(records));
  state.counters["threads"] = threads;
  state.counters["applied_per_iter"] =
      iters == 0 ? 0.0 : static_cast<double>(applied) /
                             static_cast<double>(iters);
  state.counters["sim_redo_ms"] =
      iters == 0 ? 0.0 : sim_ms / static_cast<double>(iters);
}
BENCHMARK(BM_ParallelRedo)
    ->ArgsProduct({{1, 2, 4}, {0, 1, 2}})  // append / zipf / merge churn
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// DPT construction: the logical DC pass over one crash image (one pass at
// every recovery_threads). Manual timing covers exactly the pass;
// restore/reopen is untimed. sim_ms reports the SIMULATED pass time (log
// I/O + DPT CPU + the structure replay's reads), the cost model's view.
void BM_Analysis(benchmark::State& state) {
  EngineOptions o;
  o.page_size = 8192;
  o.value_size = 26;
  o.num_rows = 100'000;
  o.cache_pages = 4096;
  o.lazy_writer_reference_cache_pages = 4096;
  o.checkpoint_interval_updates = 100'000;  // explicit checkpoint only
  std::unique_ptr<Engine> e;
  (void)Engine::Open(o, &e);
  {
    WorkloadConfig wc;
    wc.insert_fraction = 0.2;
    wc.delete_fraction = 0.1;
    WorkloadDriver driver(e.get(), wc);
    (void)driver.RunOps(2000);  // warm
    (void)e->Checkpoint();
    (void)driver.RunOps(12000);  // the analyzed window
    driver.OnCrash();
  }
  e->SimulateCrash();
  Engine::StableSnapshot snap;
  (void)e->TakeStableSnapshot(&snap);

  uint64_t records = 0;
  uint64_t updates = 0;
  double sim_ms = 0;
  uint64_t iters = 0;
  const Lsn start = e->wal().master().bckpt_lsn;
  for (auto _ : state) {
    (void)e->RestoreStableSnapshot(snap);
    (void)e->dc().OpenDatabase();
    DcRecoveryResult dcr;
    const double sim_t0 = e->clock().NowMs();
    const auto t0 = std::chrono::steady_clock::now();
    (void)RunDcRecovery(&e->wal(), &e->dc(), start, o.dpt_mode,
                        /*build_dpt=*/true, /*preload=*/false, &dcr);
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    sim_ms += e->clock().NowMs() - sim_t0;
    records += dcr.records_scanned;
    updates += dcr.dpt_updates;
    iters++;
    e->SimulateCrash();
  }
  state.SetItemsProcessed(static_cast<int64_t>(records));
  state.counters["dpt_updates_per_iter"] =
      iters == 0 ? 0.0
                 : static_cast<double>(updates) / static_cast<double>(iters);
  state.counters["sim_ms"] =
      iters == 0 ? 0.0 : sim_ms / static_cast<double>(iters);
}
BENCHMARK(BM_Analysis)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// Log2's DC pass, whose index preload descends the stable tree under the
// log scan and the structure replay. The crash image has 1 KB pages, a
// 3-level tree and a window of updates and fresh-key inserts, so the
// replay installs split images. Manual timing covers exactly the pass;
// restore/reopen is untimed. sim_ms reports the SIMULATED pass time (log
// I/O, DPT CPU and whatever preload or install read the pass still waits
// for).
void BM_DcPassPreload(benchmark::State& state) {
  EngineOptions o;
  o.page_size = 1024;
  o.value_size = 26;
  o.num_rows = 60'000;
  o.cache_pages = 4096;
  o.lazy_writer_reference_cache_pages = 4096;
  o.checkpoint_interval_updates = 100'000;  // explicit checkpoint only
  std::unique_ptr<Engine> e;
  (void)Engine::Open(o, &e);
  {
    WorkloadConfig wc;
    wc.insert_fraction = 0.3;
    WorkloadDriver driver(e.get(), wc);
    (void)driver.RunOps(2000);  // warm
    (void)e->Checkpoint();
    (void)driver.RunOps(8000);  // the window
    driver.OnCrash();
  }
  e->SimulateCrash();
  Engine::StableSnapshot snap;
  (void)e->TakeStableSnapshot(&snap);

  uint64_t records = 0;
  double sim_ms = 0;
  uint64_t iters = 0;
  const Lsn start = e->wal().master().bckpt_lsn;
  for (auto _ : state) {
    (void)e->RestoreStableSnapshot(snap);
    (void)e->dc().OpenDatabase();
    DcRecoveryResult dcr;
    const double sim_t0 = e->clock().NowMs();
    const auto t0 = std::chrono::steady_clock::now();
    const Status s =
        RunDcRecovery(&e->wal(), &e->dc(), start, o.dpt_mode,
                      /*build_dpt=*/true, /*preload=*/true, &dcr);
    benchmark::DoNotOptimize(s);
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    sim_ms += e->clock().NowMs() - sim_t0;
    records += dcr.records_scanned;
    iters++;
    e->SimulateCrash();
  }
  state.SetItemsProcessed(static_cast<int64_t>(records));
  state.counters["sim_ms"] =
      iters == 0 ? 0.0 : sim_ms / static_cast<double>(iters);
}
BENCHMARK(BM_DcPassPreload)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// The undo pass: one crash image with a fat in-flight loser tail. Each
// iteration restores the image and replays the one-partition DC pass + redo
// (untimed) to rebuild the ATT, then times undo alone. Undo is one pass at
// every recovery_threads, so the bench takes no partition count.
void BM_Undo(benchmark::State& state) {
  EngineOptions o;
  o.page_size = 8192;
  o.value_size = 26;
  o.num_rows = 100'000;
  o.cache_pages = 4096;
  o.lazy_writer_reference_cache_pages = 4096;
  o.checkpoint_interval_updates = 100'000;  // explicit checkpoint only
  std::unique_ptr<Engine> e;
  (void)Engine::Open(o, &e);
  {
    WorkloadConfig wc;
    wc.insert_fraction = 0.05;
    wc.delete_fraction = 0.05;
    WorkloadDriver driver(e.get(), wc);
    (void)driver.RunOps(2000);  // warm
    (void)e->Checkpoint();
    (void)driver.RunOps(4000);
    driver.OnCrash();
  }
  // The undo workload: 16 fat in-flight losers whose rollback is the timed
  // region — updates spread across a dedicated committed key range (the
  // range sits above anything the driver churns, so every op lands) plus
  // one insert and one delete each (the undos that change tree structure).
  {
    Table table;
    (void)e->OpenDefaultTable(&table);
    const Key base = 300'000;
    const std::string v0(o.value_size, 's');
    const std::string v(o.value_size, 'u');
    {
      Txn setup;
      (void)e->Begin(&setup);
      for (uint32_t i = 0; i < 16; i++) {
        for (uint32_t j = 0; j <= 50; j++) {
          (void)setup.Insert(table, base + static_cast<Key>(i * 6000 + j * 113),
                             v0);
        }
      }
      (void)setup.Commit();
    }
    Txn losers[16];
    for (uint32_t i = 0; i < 16; i++) {
      (void)e->Begin(&losers[i]);
      for (uint32_t j = 0; j < 50; j++) {
        (void)losers[i].Update(table,
                               base + static_cast<Key>(i * 6000 + j * 113), v);
      }
      (void)losers[i].Insert(table, base + static_cast<Key>(100'000 + i), v);
      (void)losers[i].Delete(table,
                             base + static_cast<Key>(i * 6000 + 50 * 113));
    }
    e->tc().ForceLog();
    for (Txn& t : losers) t.Release();  // in flight at the crash
  }
  e->SimulateCrash();
  Engine::StableSnapshot snap;
  (void)e->TakeStableSnapshot(&snap);

  uint64_t ops = 0;
  double sim_ms = 0;
  uint64_t iters = 0;
  const Lsn start = e->wal().master().bckpt_lsn;
  for (auto _ : state) {
    (void)e->RestoreStableSnapshot(snap);
    (void)e->dc().OpenDatabase();
    // As under the RecoveryManager: undo runs with monitoring quiesced.
    e->dc().monitor().set_enabled(false);
    e->dc().pool().set_callbacks_enabled(false);
    DcRecoveryResult dcr;
    (void)RunDcRecovery(&e->wal(), &e->dc(), start, o.dpt_mode,
                        /*build_dpt=*/true, /*preload=*/false, &dcr);
    RedoResult redo;
    (void)RunLogicalRedo(&e->wal(), &e->dc(), start, /*use_dpt=*/true,
                         &dcr.dpt, dcr.last_delta_tc_lsn,
                         /*prefetch=*/false, o, 1, &redo);
    UndoResult ur;
    const double sim_t0 = e->clock().NowMs();
    const auto t0 = std::chrono::steady_clock::now();
    (void)RunUndo(&e->wal(), &e->dc(), redo.att, &ur);
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    sim_ms += e->clock().NowMs() - sim_t0;
    ops += ur.ops_undone;
    iters++;
    e->SimulateCrash();
  }
  state.SetItemsProcessed(static_cast<int64_t>(ops));
  state.counters["ops_per_iter"] =
      iters == 0 ? 0.0 : static_cast<double>(ops) / static_cast<double>(iters);
  state.counters["sim_undo_ms"] =
      iters == 0 ? 0.0 : sim_ms / static_cast<double>(iters);
}
BENCHMARK(BM_Undo)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// Commit throughput through the concurrent front end: N real client
// threads, 4 updates per txn, durability acknowledged via group commit.
// Args: {client threads, batcher on}. The `flushes_per_commit` counter is
// the group-commit win (batcher off: ~1; on, multi-threaded: ~1/batch) —
// this is the number fig_group_commit sweeps in full.
void BM_ConcurrentCommit(benchmark::State& state) {
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  const bool batcher = state.range(1) != 0;
  EngineOptions o = MicroOptions();
  o.lock_shards = 16;
  if (batcher) {
    o.group_commit_window_us = 200;
    o.group_commit_max_batch = 64;
  } else {
    o.group_commit_max_batch = 1;  // one log force per commit
  }
  std::unique_ptr<Engine> e;
  (void)Engine::Open(o, &e);
  const uint64_t flushes_before = e->Stats().log_flushes;

  ConcurrentWorkloadConfig wc;
  wc.threads = threads;
  wc.ops_per_txn = 4;
  wc.read_fraction = 0.0;
  wc.seed = 11 + threads;
  ConcurrentDriver driver(e.get(), wc);
  driver.Start();
  constexpr uint64_t kCommitsPerIter = 100;
  for (auto _ : state) {
    const uint64_t target = driver.acked_commits() + kCommitsPerIter;
    const auto t0 = std::chrono::steady_clock::now();
    driver.WaitForAcked(target);
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(
        std::chrono::duration<double>(t1 - t0).count());
  }
  driver.StopAndJoin();
  const EngineStats s = e->Stats();
  const uint64_t commits = driver.acked_commits();
  state.counters["flushes_per_commit"] = benchmark::Counter(
      commits > 0
          ? static_cast<double>(s.log_flushes - flushes_before) / commits
          : 0);
  state.counters["commit_batches"] =
      benchmark::Counter(static_cast<double>(s.commit_batches));
  state.SetItemsProcessed(state.iterations() * kCommitsPerIter);
}
BENCHMARK(BM_ConcurrentCommit)
    ->ArgsProduct({{1, 4}, {0, 1}})  // client threads / batcher off-on
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// One crash image snapshotted and restored, as side-by-side recovery does
// once per image and once per method. Disk pages are shared, not copied
// (sim_disk.h); the log is copied both ways.
void BM_StableSnapshotRestore(benchmark::State& state) {
  std::unique_ptr<Engine> e;
  (void)Engine::Open(MicroOptions(), &e);
  {
    WorkloadDriver driver(e.get(), WorkloadConfig{});
    (void)driver.RunOps(5000);
    driver.OnCrash();
  }
  e->SimulateCrash();
  for (auto _ : state) {
    Engine::StableSnapshot snap;
    benchmark::DoNotOptimize(e->TakeStableSnapshot(&snap));
    benchmark::DoNotOptimize(e->RestoreStableSnapshot(snap));
  }
  state.counters["disk_pages"] =
      static_cast<double>(e->dc().disk().num_pages());
  state.counters["log_bytes"] = static_cast<double>(e->wal().stable_end());
}
BENCHMARK(BM_StableSnapshotRestore)->Unit(benchmark::kMicrosecond);

void BM_ValueSynthesis(benchmark::State& state) {
  uint8_t buf[26];
  Random rng(7);
  for (auto _ : state) {
    SynthesizeValue(rng.Uniform(1'000'000), 3, sizeof(buf), buf);
    benchmark::DoNotOptimize(buf);
  }
}
BENCHMARK(BM_ValueSynthesis);

}  // namespace
}  // namespace deutero

BENCHMARK_MAIN();
