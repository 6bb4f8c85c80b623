// Cross-family equivalence of loser detection: the SQL analysis pass and
// the logical family's redo-scan ATT tracking must identify exactly the
// same loser transactions with the same chain tails, from any crash image.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "recovery/analysis.h"
#include "recovery/redo.h"
#include "test_util.h"
#include "workload/driver.h"

namespace deutero {
namespace {

using testing_util::SmallOptions;

class AttEquivalenceTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, AttEquivalenceTest, ::testing::Range(1, 6),
                         [](const auto& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

TEST_P(AttEquivalenceTest, SqlAnalysisAndLogicalScanAgreeOnLosers) {
  const int seed = GetParam();
  EngineOptions o = SmallOptions();
  o.seed = seed;
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  WorkloadConfig wc;
  wc.seed = seed * 17;
  WorkloadDriver driver(e.get(), wc);
  Random rng(seed * 31);

  // Random mixture of commits, runtime aborts, idle losers across
  // checkpoints, and in-flight tail losers.
  ASSERT_OK(driver.RunOps(100 + rng.Uniform(200)));
  Table table;
  ASSERT_OK(e->OpenDefaultTable(&table));
  std::vector<Txn> idle_losers;
  for (int i = 0; i < static_cast<int>(1 + rng.Uniform(3)); i++) {
    Txn t;
    ASSERT_OK(e->Begin(&t));
    ASSERT_OK(t.Update(table, 1000 + i,
                       SynthesizeValueString(1000 + i, 5, o.value_size)));
    idle_losers.push_back(std::move(t));
  }
  e->tc().ForceLog();
  ASSERT_OK(e->Checkpoint());
  ASSERT_OK(driver.RunOps(100 + rng.Uniform(200)));
  if (rng.Bernoulli(0.7)) {
    Txn t;
    ASSERT_OK(e->Begin(&t));
    ASSERT_OK(t.Update(table, 7, SynthesizeValueString(7, 9, o.value_size)));
    ASSERT_OK(t.Abort());  // runtime abort: NOT a loser
  }
  ASSERT_OK(driver.RunOpsNoCommit(1 + rng.Uniform(8)));
  e->tc().ForceLog();

  driver.OnCrash();
  e->SimulateCrash();
  ASSERT_OK(e->dc().OpenDatabase());
  e->dc().monitor().set_enabled(false);
  e->dc().pool().set_callbacks_enabled(false);
  const Lsn start = e->wal().master().bckpt_lsn;

  // SQL family: losers from the analysis pass.
  SqlAnalysisResult ar;
  ASSERT_OK(RunSqlAnalysis(&e->wal(), start, &ar));

  // Logical family: losers from the redo-scan's ATT tracking.
  Engine::StableSnapshot snap;
  ASSERT_OK(e->TakeStableSnapshot(&snap));
  DcRecoveryResult dcr;
  ASSERT_OK(RunDcRecovery(&e->wal(), &e->dc(), start, DptMode::kStandard,
                          true, false, &dcr));
  RedoResult rr;
  ASSERT_OK(RunLogicalRedo(&e->wal(), &e->dc(), start, true, &dcr.dpt,
                           dcr.last_delta_tc_lsn, /*prefetch=*/false,
                           e->options(), 1, &rr));

  EXPECT_EQ(ar.att.size(), rr.att.size());
  for (const auto& [txn, last_lsn] : ar.att) {
    auto it = rr.att.find(txn);
    ASSERT_NE(it, rr.att.end()) << "txn " << txn << " missed by logical scan";
    EXPECT_EQ(it->second, last_lsn) << "chain tail differs for txn " << txn;
  }
  // Every idle loser is present in both.
  for (const Txn& t : idle_losers) {
    EXPECT_TRUE(ar.att.count(t.id())) << "idle loser " << t.id();
  }
  EXPECT_EQ(ar.max_txn_id, rr.max_txn_id);
}

// The flat small-vector ActiveTxnTable must behave exactly like the
// unordered_map it replaced under the full operation mix recovery uses:
// operator[] upserts, erase, try_emplace (checkpoint ATT seeding, which
// must NOT overwrite newer entries), find, count, iteration. A randomized
// trace is applied to both containers and their contents compared at
// every step.
TEST(AttFlatMapEquivalence, MatchesReferenceMapUnderRandomTrace) {
  for (int seed = 1; seed <= 5; seed++) {
    Random rng(seed * 131);
    ActiveTxnTable flat;
    std::unordered_map<TxnId, Lsn> ref;
    Lsn next_lsn = 100;
    for (int step = 0; step < 3000; step++) {
      const TxnId txn = 1 + rng.Uniform(40);  // small id space: collisions
      const Lsn lsn = next_lsn++;
      switch (rng.Uniform(10)) {
        case 0:
        case 1: {  // commit/abort observation
          EXPECT_EQ(flat.erase(txn), ref.erase(txn));
          break;
        }
        case 2: {  // checkpoint ATT seeding (keep-newer semantics)
          auto [fit, finserted] = flat.try_emplace(txn, lsn);
          auto [rit, rinserted] = ref.try_emplace(txn, lsn);
          EXPECT_EQ(finserted, rinserted);
          if (!finserted && fit->second < lsn) fit->second = lsn;
          if (!rinserted && rit->second < lsn) rit->second = lsn;
          break;
        }
        default: {  // data-op observation
          flat[txn] = lsn;
          ref[txn] = lsn;
          break;
        }
      }
      ASSERT_EQ(flat.size(), ref.size()) << "seed " << seed << " step "
                                         << step;
    }
    // Final content comparison, order-insensitively.
    std::vector<std::pair<TxnId, Lsn>> a(flat.begin(), flat.end());
    std::vector<std::pair<TxnId, Lsn>> b(ref.begin(), ref.end());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a, b) << "seed " << seed;
    for (const auto& [txn, lsn] : ref) {
      EXPECT_EQ(flat.count(txn), 1u);
      EXPECT_EQ(flat.at(txn), lsn);
      EXPECT_EQ(flat.find(txn)->second, lsn);
    }
  }
}

}  // namespace
}  // namespace deutero
