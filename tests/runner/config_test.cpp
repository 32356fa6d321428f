#include "runner/config.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace mstc::runner {
namespace {

class ConfigEnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const char* name :
         {"MSTC_PAPER_SCALE", "MSTC_SIM_TIME", "MSTC_NODES", "MSTC_FLOOD_RATE",
          "MSTC_SNAPSHOT_RATE", "MSTC_WARMUP", "MSTC_REPEATS",
          "MSTC_SHARDS"}) {
      ::unsetenv(name);
    }
  }
};

TEST_F(ConfigEnvTest, DefaultsMatchPaperSection51) {
  const ScenarioConfig cfg;
  EXPECT_EQ(cfg.node_count, 100u);
  EXPECT_DOUBLE_EQ(cfg.area.width, 900.0);
  EXPECT_DOUBLE_EQ(cfg.area.height, 900.0);
  EXPECT_DOUBLE_EQ(cfg.normal_range, 250.0);
  EXPECT_EQ(cfg.mobility_model, "waypoint");
  EXPECT_DOUBLE_EQ(cfg.hello_interval, 1.0);
  EXPECT_DOUBLE_EQ(cfg.hello_jitter, 0.25);
}

TEST_F(ConfigEnvTest, PaperScaleRestoresFullParameters) {
  const ScenarioConfig cfg = paper_scale({});
  EXPECT_DOUBLE_EQ(cfg.duration, 100.0);
  EXPECT_DOUBLE_EQ(cfg.flood_rate, 10.0);
  EXPECT_DOUBLE_EQ(cfg.snapshot_rate, 10.0);
}

TEST_F(ConfigEnvTest, EnvOverridesApply) {
  ::setenv("MSTC_SIM_TIME", "55", 1);
  ::setenv("MSTC_NODES", "42", 1);
  ::setenv("MSTC_SHARDS", "3", 1);
  const ScenarioConfig cfg = apply_env_overrides({});
  EXPECT_DOUBLE_EQ(cfg.duration, 55.0);
  EXPECT_EQ(cfg.node_count, 42u);
  EXPECT_EQ(cfg.shards, 3u);
}

/// Expects `call` to throw std::invalid_argument naming `variable`.
template <typename Call>
void expect_rejects(const char* variable, Call call) {
  try {
    call();
    ADD_FAILURE() << variable << " < 0 was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(variable), std::string::npos)
        << error.what();
  }
}

TEST_F(ConfigEnvTest, NegativeCountsAreRejected) {
  // A negative count used to wrap to a huge size_t (MSTC_NODES=-5 became
  // 18446744073709551611 nodes and died in vector::reserve).
  ::setenv("MSTC_NODES", "-5", 1);
  expect_rejects("MSTC_NODES", [] { (void)apply_env_overrides({}); });
  ::unsetenv("MSTC_NODES");
  ::setenv("MSTC_SHARDS", "-1", 1);
  expect_rejects("MSTC_SHARDS", [] { (void)apply_env_overrides({}); });
  ::setenv("MSTC_REPEATS", "-2", 1);
  expect_rejects("MSTC_REPEATS", [] { (void)sweep_repeats(5); });

  // Zero is the boundary and stays valid.
  ::unsetenv("MSTC_SHARDS");
  ::setenv("MSTC_NODES", "0", 1);
  ::setenv("MSTC_REPEATS", "0", 1);
  EXPECT_EQ(apply_env_overrides({}).node_count, 0u);
  EXPECT_EQ(sweep_repeats(5), 0u);
}

TEST_F(ConfigEnvTest, PaperScaleFlagAppliesBeforeOverrides) {
  ::setenv("MSTC_PAPER_SCALE", "1", 1);
  ::setenv("MSTC_FLOOD_RATE", "2", 1);
  const ScenarioConfig cfg = apply_env_overrides({});
  EXPECT_DOUBLE_EQ(cfg.duration, 100.0);   // from paper scale
  EXPECT_DOUBLE_EQ(cfg.flood_rate, 2.0);   // env wins over paper scale
}

TEST_F(ConfigEnvTest, SweepRepeatsDefaultAndEnv) {
  EXPECT_EQ(sweep_repeats(5), 5u);
  ::setenv("MSTC_REPEATS", "9", 1);
  EXPECT_EQ(sweep_repeats(5), 9u);
}

TEST_F(ConfigEnvTest, PaperScaleImpliesTwentyRepeats) {
  ::setenv("MSTC_PAPER_SCALE", "1", 1);
  EXPECT_EQ(sweep_repeats(5), 20u);
  ::setenv("MSTC_REPEATS", "7", 1);
  EXPECT_EQ(sweep_repeats(5), 7u);
}

TEST(EffectiveHistory, ModeDefaults) {
  ScenarioConfig cfg;
  cfg.mode = core::ConsistencyMode::kLatest;
  EXPECT_EQ(cfg.effective_history(), 1u);
  cfg.mode = core::ConsistencyMode::kWeak;
  EXPECT_EQ(cfg.effective_history(), 2u);
  cfg.mode = core::ConsistencyMode::kProactive;
  EXPECT_EQ(cfg.effective_history(), 3u);
  cfg.history_limit = 5;
  EXPECT_EQ(cfg.effective_history(), 5u) << "explicit value wins";
}

}  // namespace
}  // namespace mstc::runner
