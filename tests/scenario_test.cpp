// The scenario engine: real fair-exchange / sharing / mixed protocol runs
// over the live concurrent runtime. These suites (with the protocol-layer
// suites) are what the TSan CI job races — the mixed 8-party scenario is
// the acceptance gate for the un-raced protocol layer.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common.hpp"
#include "scenario/scenario.hpp"

namespace nonrep::scenario {
namespace {

TEST(ScenarioEngineTest, FairExchangeWaveAllRunsAccountedFor) {
  ScenarioConfig config;
  config.parties = 4;
  config.threads = 3;
  config.ops_per_party = 3;
  config.loss = 0.10;
  config.ttp_ratio = 0.5;  // half the runs go through TTP recovery
  config.seed = 11;

  ScenarioEngine engine(config);
  ASSERT_TRUE(engine.setup().ok()) << engine.setup().error().code;
  const auto result = engine.run_wave(WaveKind::kFairExchange);

  EXPECT_EQ(result.attempted, config.parties * config.ops_per_party);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.completed + result.aborted + result.recovered, result.attempted);
  // ttp_ratio 0.5 over 12 runs: recovery must actually have happened.
  EXPECT_GT(result.aborted + result.recovered, 0u);
  EXPECT_TRUE(result.audit.ok()) << result.audit.error().code << ": "
                                 << result.audit.error().detail;
  EXPECT_GT(result.ops_per_second, 0.0);
}

TEST(ScenarioEngineTest, SharingWaveConvergesUnderContention) {
  ScenarioConfig config;
  config.parties = 8;
  config.threads = 4;
  config.ops_per_party = 2;
  config.seed = 12;
  config.propose_retries = 8;  // 4 concurrent proposers contend hard

  ScenarioEngine engine(config);
  ASSERT_TRUE(engine.setup().ok());
  const auto result = engine.run_wave(WaveKind::kSharing);

  EXPECT_EQ(result.rounds_committed + result.rounds_rejected,
            config.parties * config.ops_per_party);
  EXPECT_GT(result.rounds_committed, 0u);
  EXPECT_GE(result.rounds_attempted, result.rounds_committed);
  // The audit checks replica convergence + exactly one version bump per
  // committed round + every evidence chain.
  EXPECT_TRUE(result.audit.ok()) << result.audit.error().code << ": "
                                 << result.audit.error().detail;
}

TEST(ScenarioEngineTest, MixedEightPartyWaveOverLiveRuntime) {
  // The acceptance scenario: 8+ parties, fair exchange racing sharing
  // rounds, injected loss, TTP recovery racing normal completion — clean
  // under TSan, evidence-clean under the audit.
  ScenarioConfig config;
  config.parties = 8;
  config.threads = 4;
  config.ops_per_party = 2;
  config.loss = 0.05;
  config.ttp_ratio = 0.4;
  config.seed = 13;

  ScenarioEngine engine(config);
  ASSERT_TRUE(engine.setup().ok());
  const auto result = engine.run_wave(WaveKind::kMixed);

  EXPECT_EQ(result.failed, 0u);
  // 4 exchangers x 2 ops + 4 sharers x 2 ops.
  EXPECT_EQ(result.attempted, 8u);
  EXPECT_EQ(result.rounds_committed + result.rounds_rejected, 8u);
  EXPECT_TRUE(result.audit.ok()) << result.audit.error().code << ": "
                                 << result.audit.error().detail;
}

TEST(ScenarioEngineTest, RepeatedWavesAccumulateConsistently) {
  // Bench shape: several waves over one fleet. The audit reconciles the
  // cumulative TTP verdict table and replica versions every time.
  ScenarioConfig config;
  config.parties = 4;
  config.threads = 2;
  config.ops_per_party = 2;
  config.ttp_ratio = 0.3;
  config.seed = 14;

  ScenarioEngine engine(config);
  ASSERT_TRUE(engine.setup().ok());
  for (int wave = 0; wave < 3; ++wave) {
    const auto result = engine.run_wave(WaveKind::kMixed);
    EXPECT_EQ(result.failed, 0u) << "wave " << wave;
    EXPECT_TRUE(result.audit.ok())
        << "wave " << wave << ": " << result.audit.error().code;
  }
}

TEST(ScenarioEngineTest, JournalBackedPartiesPersistTheWave) {
  ScenarioConfig config;
  config.parties = 3;
  config.threads = 2;
  config.ops_per_party = 2;
  config.seed = 15;
  config.journal_backed = true;
  config.journal_dir = test::temp_dir("scenario_journal");

  {
    ScenarioEngine engine(config);
    ASSERT_TRUE(engine.setup().ok()) << engine.setup().error().code;
    const auto result = engine.run_wave(WaveKind::kSharing);
    EXPECT_GT(result.rounds_committed, 0u);
    // The audit includes every backend's persistence status.
    EXPECT_TRUE(result.audit.ok()) << result.audit.error().code;
  }

  // Every member's journal directory holds real evidence segments. The
  // server/TTP stayed idle in a pure sharing wave — their journals are
  // opened but lazily empty.
  std::size_t journals = 0;
  for (const auto& entry : std::filesystem::directory_iterator(config.journal_dir)) {
    if (!entry.is_directory()) continue;
    ++journals;
    if (entry.path().filename().string().front() == 'p') {
      EXPECT_FALSE(std::filesystem::is_empty(entry.path())) << entry.path();
    }
  }
  EXPECT_EQ(journals, config.parties + 2);  // members + server + ttp
  std::filesystem::remove_all(config.journal_dir);
}

TEST(ScenarioEngineTest, OneShotRunnersCoverAllKinds) {
  ScenarioConfig config;
  config.parties = 2;
  config.threads = 2;
  config.ops_per_party = 1;
  config.seed = 16;

  const auto fair = run_fair_exchange(config);
  EXPECT_EQ(fair.attempted, 2u);
  EXPECT_TRUE(fair.audit.ok());

  const auto sharing = run_sharing(config);
  EXPECT_EQ(sharing.rounds_committed + sharing.rounds_rejected, 2u);
  EXPECT_TRUE(sharing.audit.ok());

  const auto mixed = run_mixed(config);
  EXPECT_EQ(mixed.ops(), 2u);
  EXPECT_TRUE(mixed.audit.ok());
}

}  // namespace
}  // namespace nonrep::scenario
