// Parameterized geometry sweeps: the engine must behave identically across
// page sizes and value sizes (the replication story of §1.1 depends on it),
// and recovery must be correct under every geometry.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "core/engine.h"
#include "test_util.h"
#include "workload/driver.h"

namespace deutero {
namespace {

class GeometrySweep
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {
 protected:
  EngineOptions Opts() {
    EngineOptions o = testing_util::SmallOptions();
    o.page_size = std::get<0>(GetParam());
    o.value_size = std::get<1>(GetParam());
    o.num_rows = 3000;
    return o;
  }
};

INSTANTIATE_TEST_SUITE_P(
    PageByValue, GeometrySweep,
    ::testing::Combine(::testing::Values(512u, 1024u, 4096u, 8192u),
                       ::testing::Values(8u, 26u, 100u)),
    [](const auto& param_info) {
      return "page" + std::to_string(std::get<0>(param_info.param)) + "_val" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST_P(GeometrySweep, BulkLoadIsWellFormedAndReadable) {
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(Opts(), &e));
  uint64_t rows = 0;
  ASSERT_OK(e->dc().btree().CheckWellFormed(&rows));
  EXPECT_EQ(rows, 3000u);
  std::string v;
  for (Key k : {0ull, 1499ull, 2999ull}) {
    ASSERT_OK(e->Read(k, &v));
    EXPECT_EQ(v, SynthesizeValueString(k, 0, Opts().value_size));
  }
}

TEST_P(GeometrySweep, CrashRecoveryHoldsUnderEveryGeometry) {
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(Opts(), &e));
  WorkloadDriver driver(e.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(200));
  ASSERT_OK(e->Checkpoint());
  ASSERT_OK(driver.RunOps(300));
  ASSERT_OK(driver.RunOpsNoCommit(4));
  e->tc().ForceLog();
  driver.OnCrash();
  e->SimulateCrash();
  RecoveryStats st;
  // Alternate families across the sweep for breadth.
  const RecoveryMethod m = std::get<0>(GetParam()) % 1024 == 0
                               ? RecoveryMethod::kLog2
                               : RecoveryMethod::kSql2;
  ASSERT_OK(e->Recover(m, &st));
  uint64_t checked = 0;
  ASSERT_OK(driver.Verify(0, &checked));
  uint64_t rows = 0;
  ASSERT_OK(e->dc().btree().CheckWellFormed(&rows));
}

TEST(GeometryLimits, RowsPerLeafMatchesLayout) {
  EngineOptions o;
  o.page_size = 8192;
  o.value_size = 26;
  EXPECT_EQ(o.RowsPerLeaf(), (8192u - 32u) / 34u);  // 240 slots - header
  o.leaf_fill_fraction = 1.0;
  EXPECT_EQ(o.ExpectedLeafPages(),
            (o.num_rows + o.RowsPerLeaf() - 1) / o.RowsPerLeaf());
}

TEST(GeometryLimits, ExpectedLeafPagesRespectsFillFraction) {
  EngineOptions o;
  o.page_size = 1024;
  o.value_size = 26;
  o.num_rows = 10000;
  o.leaf_fill_fraction = 0.5;
  const uint64_t half_fill = o.ExpectedLeafPages();
  o.leaf_fill_fraction = 1.0;
  EXPECT_LT(o.ExpectedLeafPages(), half_fill);
}

// Long-running soak: repeated crash/recover cycles with rotating methods,
// workloads and mid-cycle DDL; state must verify after every cycle. Two
// geometries: the default one, where the cache holds a fraction of the
// table, and one whose table fits in the cache (2 KB pages, 256 frames,
// the lazy writer scaled to that cache), so the pages recovery leaves
// dirty are still dirty when the next cycle's ops re-dirty them — and,
// when no checkpoint follows, when it crashes.
void RunSoak(const EngineOptions& o) {
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(o, &e));
  WorkloadConfig wc;
  wc.insert_fraction = 0.1;
  wc.read_fraction = 0.1;
  WorkloadDriver driver(e.get(), wc);

  const RecoveryMethod methods[] = {
      RecoveryMethod::kLog0, RecoveryMethod::kLog1, RecoveryMethod::kLog2,
      RecoveryMethod::kSql1, RecoveryMethod::kSql2};
  Random rng(2026);
  for (int cycle = 0; cycle < 10; cycle++) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    ASSERT_OK(driver.RunOps(100 + rng.Uniform(300)));
    if (rng.Bernoulli(0.6)) ASSERT_OK(e->Checkpoint());
    ASSERT_OK(driver.RunOps(rng.Uniform(200)));
    if (rng.Bernoulli(0.5)) {
      ASSERT_OK(driver.RunOpsNoCommit(1 + rng.Uniform(8)));
      e->tc().ForceLog();
    }
    driver.OnCrash();
    e->SimulateCrash();
    RecoveryStats st;
    ASSERT_OK(e->Recover(methods[cycle % 5], &st));
    uint64_t checked = 0;
    ASSERT_OK(driver.Verify(0, &checked));
    uint64_t rows = 0;
    ASSERT_OK(e->dc().btree().CheckWellFormed(&rows));
  }
  // The log now holds records from ten generations of recovery (CLRs,
  // aborts, checkpoints); one final full verification.
  uint64_t checked = 0;
  ASSERT_OK(driver.Verify(0, &checked));
  EXPECT_GT(checked, 0u);
}

TEST(SoakTest, TenCrashRecoverCyclesWithRotatingMethods) {
  {
    SCOPED_TRACE("cache smaller than the table");
    RunSoak(testing_util::SmallOptions());
  }
  if (::testing::Test::HasFatalFailure()) return;
  SCOPED_TRACE("table fits in the cache");
  EngineOptions fits = testing_util::SmallOptions();
  fits.page_size = 2048;
  fits.cache_pages = 256;
  fits.lazy_writer_reference_cache_pages = 256;
  RunSoak(fits);
}

TEST(SoakTest, BackToBackCrashesWithoutInterveningWork) {
  std::unique_ptr<Engine> e;
  ASSERT_OK(Engine::Open(testing_util::SmallOptions(), &e));
  WorkloadDriver driver(e.get(), WorkloadConfig{});
  ASSERT_OK(driver.RunOps(300));
  driver.OnCrash();
  for (int i = 0; i < 5; i++) {
    e->SimulateCrash();
    RecoveryStats st;
    ASSERT_OK(e->Recover(RecoveryMethod::kLog1, &st));
  }
  uint64_t checked = 0;
  ASSERT_OK(driver.Verify(0, &checked));
}

}  // namespace
}  // namespace deutero
