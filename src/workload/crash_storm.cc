#include "workload/crash_storm.h"

#include <chrono>
#include <thread>
#include <utility>

#include "btree/btree.h"

namespace deutero {

CrashStormDriver::CrashStormDriver(const EngineOptions& primary_opts,
                                   const EngineOptions& standby_opts,
                                   const CrashStormConfig& config)
    : opts_a_(primary_opts), opts_b_(standby_opts), config_(config) {
  // The log stream extends one shared base snapshot: both geometries must
  // describe the same initial load and schema.
  opts_b_.num_rows = opts_a_.num_rows;
  opts_b_.value_size = opts_a_.value_size;
  opts_b_.table_id = opts_a_.table_id;
  config_.workload.seed = config_.seed;
  if (config_.cycles == 0) config_.cycles = 1;
}

Status CrashStormDriver::Bootstrap() {
  DEUTERO_RETURN_NOT_OK(Engine::Open(opts_a_, &seed_primary_));
  primary_ = seed_primary_.get();
  channel_ = std::make_unique<ReplicationChannel>();
  DEUTERO_RETURN_NOT_OK(LogicalReplica::Open(opts_b_, &standby_));
  driver_ = std::make_unique<WorkloadDriver>(primary_, config_.workload);
  return Status::OK();
}

Status CrashStormDriver::Run() {
  DEUTERO_RETURN_NOT_OK(Bootstrap());
  for (uint32_t cycle = 0; cycle < config_.cycles; cycle++) {
    DEUTERO_RETURN_NOT_OK(RunCycle(cycle));
    cycles_run_++;
  }
  return Status::OK();
}

Status CrashStormDriver::AwaitCatchUp() {
  // The replay thread owns the pumping; we only watch the applied boundary
  // march to the published end. A stall (replay error, wedged applier)
  // surfaces as the thread's own status after the deadline.
  const Lsn target = channel_->published_end();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (standby_->stats().applied_boundary < target) {
    if (std::chrono::steady_clock::now() > deadline) {
      DEUTERO_RETURN_NOT_OK(standby_->StopContinuousReplay());
      return Status::IOError("standby never caught up to the published end");
    }
    std::this_thread::yield();
  }
  return Status::OK();
}

Status CrashStormDriver::RunCycle(uint32_t cycle) {
  const bool under_load = config_.promote_under_load;
  if (under_load) {
    DEUTERO_RETURN_NOT_OK(
        standby_->StartContinuousReplay(channel_.get(), config_.chunk_bytes));
  }

  // Committed load, shipped in slices so the standby chews many chunks
  // per generation (and, under load, races snapshot readers against the
  // live applier at every ship boundary).
  const uint64_t slices = 4;
  const uint64_t per_slice = config_.ops_per_cycle / slices;
  for (uint64_t s = 0; s < slices; s++) {
    DEUTERO_RETURN_NOT_OK(driver_->RunOps(per_slice));
    channel_->Publish(*primary_);
    if (under_load) {
      const Key lo = (cycle * 131 + s * 37) % opts_a_.num_rows;
      Key prev = 0;
      bool first = true;
      bool ordered = true;
      bool sized = true;
      DEUTERO_RETURN_NOT_OK(standby_->SnapshotScan(
          opts_a_.table_id, lo, lo + 24, [&](Key k, Slice v) {
            if (!first && k <= prev) ordered = false;
            if (v.size() != opts_a_.value_size) sized = false;
            prev = k;
            first = false;
          }));
      if (!ordered) {
        return Status::Corruption("standby snapshot scan keys out of order");
      }
      if (!sized) {
        return Status::Corruption("standby snapshot scan torn value");
      }
    }
  }
  DEUTERO_RETURN_NOT_OK(driver_->CommitOpen());
  channel_->Publish(*primary_);
  // The doomed tail: an open transaction the crash will orphan. Recovery
  // appends its abort/CLR records, and the standby drops it when those
  // records ship.
  if (config_.tail_ops > 0) {
    DEUTERO_RETURN_NOT_OK(driver_->RunOpsNoCommit(config_.tail_ops));
    primary_->tc().ForceLog();  // make the loser's records ship-visible
  }

  primary_->SimulateCrash();
  driver_->OnCrash();
  channel_->Publish(*primary_);  // published bytes = the surviving stable log

  if (config_.double_crash) {
    // The standby dies too — mid-chunk, mid-transaction — while its
    // publisher is already down. Injection needs the manual pump path.
    if (under_load) DEUTERO_RETURN_NOT_OK(standby_->StopContinuousReplay());
    standby_->InjectApplyStopForTest(3 + (config_.seed + cycle) % 5);
    DEUTERO_RETURN_NOT_OK(standby_->Pump(channel_.get(), config_.chunk_bytes));
    standby_->CrashStandby();
    DEUTERO_RETURN_NOT_OK(standby_->RecoverStandby(config_.method));
    standby_recoveries_++;
    if (under_load) {
      DEUTERO_RETURN_NOT_OK(standby_->StartContinuousReplay(
          channel_.get(), config_.chunk_bytes));
    }
  }

  RecoveryStats rstats;
  DEUTERO_RETURN_NOT_OK(primary_->Recover(config_.method, &rstats));
  channel_->Publish(*primary_);  // ships the loser transaction's aborts

  // The recovered primary keeps leading before failover: the standby must
  // follow its publisher across the crash, not just up to it.
  DEUTERO_RETURN_NOT_OK(driver_->RunOps(config_.ops_per_cycle / 8));
  DEUTERO_RETURN_NOT_OK(driver_->CommitOpen());
  channel_->Publish(*primary_);

  if (under_load) {
    DEUTERO_RETURN_NOT_OK(AwaitCatchUp());
  } else {
    DEUTERO_RETURN_NOT_OK(standby_->Pump(channel_.get(), config_.chunk_bytes));
  }

  // Alternate both failover paths: even generations promote at a clean
  // ship boundary, odd generations crash the standby first so Promote()
  // runs local recovery for the tail. (Under load, Promote() itself stops
  // the live replay thread — that IS the path under test.)
  if (!under_load && cycle % 2 == 1) {
    standby_->CrashStandby();
    standby_recoveries_++;
  }
  DEUTERO_RETURN_NOT_OK(standby_->Promote(config_.method));
  promotions_++;

  DEUTERO_RETURN_NOT_OK(VerifyFailover(primary_, &standby_->engine()));
  return SwapRoles();
}

Status CrashStormDriver::VerifyFailover(Engine* old_primary,
                                        Engine* promoted) {
  const Key hi = driver_->fresh_key_bound();
  // Failures name their side: a recovery bug shows up against the old
  // primary, a replication bug against the promoted standby.
  auto tagged = [](const char* who, const Status& st) {
    return st.ok() ? st
                   : Status::Corruption(std::string(who) + ": " +
                                        st.ToString());
  };
  uint64_t checked = 0;
  DEUTERO_RETURN_NOT_OK(
      tagged("recovered primary", driver_->Verify(0, &checked)));
  uint64_t rows_old = 0;
  DEUTERO_RETURN_NOT_OK(
      tagged("recovered primary", driver_->VerifyScan(0, hi, &rows_old)));

  DEUTERO_RETURN_NOT_OK(driver_->AttachEngine(promoted));
  DEUTERO_RETURN_NOT_OK(
      tagged("promoted standby", driver_->Verify(0, &checked)));
  uint64_t rows_new = 0;
  DEUTERO_RETURN_NOT_OK(
      tagged("promoted standby", driver_->VerifyScan(0, hi, &rows_new)));
  if (rows_old != rows_new) {
    return Status::Corruption("promoted standby row count diverged: primary " +
                              std::to_string(rows_old) + " vs standby " +
                              std::to_string(rows_new));
  }

  const struct {
    Engine* engine;
    const char* who;
  } sides[2] = {{old_primary, "recovered primary"},
                {promoted, "promoted standby"}};
  for (const auto& side : sides) {
    BTree& tree = side.engine->dc().btree();
    if (tree.row_count() != rows_old) {
      return Status::Corruption(std::string(side.who) +
                                ": num_rows counter drifted from scan truth");
    }
    uint64_t wf_rows = 0;
    DEUTERO_RETURN_NOT_OK(tree.CheckWellFormed(&wf_rows));
    if (wf_rows != rows_old) {
      return Status::Corruption(std::string(side.who) +
                                ": CheckWellFormed row count mismatch");
    }
    uint64_t empty = 0;
    DEUTERO_RETURN_NOT_OK(tree.CountEmptyLeaves(&empty));
    if (empty != 0) {
      return Status::Corruption(std::string(side.who) +
                                " kept empty leaves after the storm");
    }
  }
  last_verified_rows_ = rows_old;
  return Status::OK();
}

Status CrashStormDriver::SwapRoles() {
  // The promoted standby IS the next primary; the retiring engine (and the
  // whole previous generation's channel) is discarded. A fresh standby on
  // the opposite geometry bootstraps from the new primary's complete WAL —
  // which a promoted engine has by construction (every applied transaction
  // was re-logged locally). Its predecessor's cursor rows ride that WAL
  // but never replicate (node-private system table).
  primary_holder_ = std::move(standby_);
  seed_primary_.reset();
  primary_ = &primary_holder_->engine();
  generation_++;
  DEUTERO_RETURN_NOT_OK(driver_->AttachEngine(primary_));
  channel_ = std::make_unique<ReplicationChannel>();
  DEUTERO_RETURN_NOT_OK(LogicalReplica::Open(standby_opts(), &standby_));
  channel_->Publish(*primary_);
  return standby_->Pump(channel_.get(), config_.chunk_bytes);
}

// ---- Concurrent crash storm (PR 8) ----

Status RunConcurrentCrashStorm(const EngineOptions& options,
                               const ConcurrentStormConfig& config,
                               ConcurrentStormResult* result) {
  static constexpr RecoveryMethod kAllMethods[] = {
      RecoveryMethod::kLog0, RecoveryMethod::kLog1, RecoveryMethod::kLog2,
      RecoveryMethod::kSql1, RecoveryMethod::kSql2};

  std::unique_ptr<Engine> e;
  DEUTERO_RETURN_NOT_OK(Engine::Open(options, &e));
  ConcurrentDriver driver(e.get(), config.workload);
  ConcurrentStormResult res;

  for (uint32_t gen = 0; gen < config.generations; gen++) {
    // Let the clients build up acknowledged commits, then crash the engine
    // UNDER them: whoever is mid-op fails, whoever is inside the
    // durability wait comes back unacknowledged (uncertain).
    const uint64_t target =
        driver.acked_commits() + config.acked_per_generation;
    driver.Start();
    driver.WaitForAcked(target);
    e->SimulateCrash();
    driver.StopAndJoin();
    DEUTERO_RETURN_NOT_OK(driver.client_error());
    res.uncertain_commits += driver.uncertain_txns();

    // Cumulative front-end counters (they survive the crash: volatile
    // state died, the stats did not).
    const EngineStats es = e->Stats();
    res.commit_batches = es.commit_batches;
    res.commits_enqueued = es.commits_enqueued;
    res.lock_acquires = es.lock_acquires;

    Engine::StableSnapshot snap;
    DEUTERO_RETURN_NOT_OK(e->TakeStableSnapshot(&snap));

    // The same crash image, recovered 15 ways. The first recovery settles
    // which in-flight commits made the stable prefix; every later one must
    // agree exactly — same oracle, same row count, same destaged bytes.
    std::vector<DiskImage> images;
    std::vector<std::string> labels;
    bool resolved = false;
    for (RecoveryMethod m : kAllMethods) {
      for (uint32_t threads : {1u, 2u, 4u}) {
        const std::string label =
            "gen " + std::to_string(gen) + " " +
            std::string(RecoveryMethodName(m)) +
            " threads=" + std::to_string(threads);
        EngineOptions ot = options;
        ot.recovery_threads = threads;
        std::unique_ptr<Engine> et;
        DEUTERO_RETURN_NOT_OK(Engine::Open(ot, &et));
        et->SimulateCrash();
        DEUTERO_RETURN_NOT_OK(et->RestoreStableSnapshot(snap));
        RecoveryStats st;
        DEUTERO_RETURN_NOT_OK(et->Recover(m, &st));
        if (!resolved) {
          resolved = true;
          DEUTERO_RETURN_NOT_OK(driver.ResolveUncertain(et.get()));
        }
        uint64_t checked = 0;
        DEUTERO_RETURN_NOT_OK(driver.Verify(et.get(), &checked));
        uint64_t seen = 0;
        DEUTERO_RETURN_NOT_OK(driver.VerifyScan(et.get(), &seen));
        if (seen != driver.ExpectedRows()) {
          return Status::Corruption(
              label + ": scan saw " + std::to_string(seen) + " rows, oracle " +
              std::to_string(driver.ExpectedRows()));
        }
        uint64_t rows = 0;
        DEUTERO_RETURN_NOT_OK(et->dc().btree().CheckWellFormed(&rows));
        if (rows != driver.ExpectedRows() ||
            et->dc().btree().row_count() != rows) {
          return Status::Corruption(
              label + ": num_rows " +
              std::to_string(et->dc().btree().row_count()) + " / walked " +
              std::to_string(rows) + " disagree with oracle " +
              std::to_string(driver.ExpectedRows()));
        }
        DEUTERO_RETURN_NOT_OK(et->dc().pool().FlushAllDirty());
        images.push_back(et->dc().disk().SnapshotImage());
        labels.push_back(label);
        res.recoveries++;
        res.verified_rows = rows;
      }
    }
    for (size_t i = 1; i < images.size(); i++) {
      if (images[i] != images[0]) {
        return Status::Corruption(labels[i] + " destaged a different image than " +
                                  labels[0]);
      }
    }

    // The canonical engine recovers its own crash (rotating through the
    // methods) and the next generation extends the same log and oracle.
    DEUTERO_RETURN_NOT_OK(e->RestoreStableSnapshot(snap));
    RecoveryStats st;
    DEUTERO_RETURN_NOT_OK(
        e->Recover(kAllMethods[(config.method_rotation + gen) % 5], &st));
    driver.AttachEngine(e.get());
  }

  res.acked_commits = driver.acked_commits();
  res.attempted_txns = driver.attempted_txns();
  if (result != nullptr) *result = res;
  return Status::OK();
}

}  // namespace deutero
