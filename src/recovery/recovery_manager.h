// Orchestrates crash recovery for all five methods under test (paper §5.2):
//
//   Log0 : DC pass (SMO redo only)           -> basic logical redo -> undo
//   Log1 : DC pass (SMO redo + Δ-DPT)        -> Alg. 5 redo        -> undo
//   Log2 : DC pass (+ index preload)         -> Alg. 5 + PF-list   -> undo
//   SQL1 : analysis (Alg. 3: DPT + ATT)      -> Alg. 1 redo        -> undo
//   SQL2 : analysis                          -> Alg. 1 + prefetch  -> undo
//
// Log2's PF-list is built by its redo pass, from the DC pass's final DPT
// in claim order (prefetch.h); the DC pass only stamps the DPT entries.
//
// Pass boundaries are timed on the simulated clock; buffer-pool and disk
// statistics are reset at entry so every counter in RecoveryStats covers the
// recovery epoch only. RecoveryStats::demand_reads counts the pool's
// demand misses: with a prefetcher, the pages it had not issued by the
// time redo asked for them.
#pragma once

#include "common/options.h"
#include "common/status.h"
#include "dc/data_component.h"
#include "recovery/stats.h"
#include "tc/transaction_component.h"
#include "wal/log_manager.h"

namespace deutero {

class RecoveryManager {
 public:
  RecoveryManager(SimClock* clock, LogManager* log, DataComponent* dc,
                  TransactionComponent* tc, const EngineOptions& options)
      : clock_(clock), log_(log), dc_(dc), tc_(tc), options_(options) {}

  /// Run full recovery with the given method. The engine must be in the
  /// crashed state (volatile state dropped, log truncated to stable).
  Status Recover(RecoveryMethod method, RecoveryStats* stats);

 private:
  SimClock* clock_;
  LogManager* log_;
  DataComponent* dc_;
  TransactionComponent* tc_;
  EngineOptions options_;
};

}  // namespace deutero
