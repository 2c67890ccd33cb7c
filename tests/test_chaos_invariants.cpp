// Chaos invariants under seeded fault plans (the acceptance gate of the
// fault-injection engine): threats survive partitions, every partition
// elects one primary per object, replicas converge after reconciliation,
// and the whole run is deterministic per seed.
#include <gtest/gtest.h>

#include "scenarios/chaos.h"

namespace dedisys {
namespace {

using scenarios::ChaosOptions;
using scenarios::ChaosResult;
using scenarios::run_chaos;

ChaosOptions options_for(std::uint64_t seed) {
  ChaosOptions options;
  options.seed = seed;
  options.nodes = 3;
  options.objects = 4;
  options.ops = 48;
  options.fault_events = 10;
  options.horizon = sim_ms(300);
  return options;
}

void expect_invariants(const ChaosResult& result, std::uint64_t seed) {
  EXPECT_EQ(result.lost_threats, 0u) << "seed " << seed;
  EXPECT_EQ(result.threats_remaining, 0u) << "seed " << seed;
  EXPECT_EQ(result.primary_violations, 0u) << "seed " << seed;
  EXPECT_EQ(result.divergent_objects, 0u) << "seed " << seed;
  EXPECT_EQ(result.model_mismatches, 0u) << "seed " << seed;
  EXPECT_TRUE(result.invariants_ok());
}

TEST(ChaosInvariants, Seed1) {
  const ChaosResult result = run_chaos(options_for(1));
  expect_invariants(result, 1);
  EXPECT_GT(result.faults_applied, 0u);
  EXPECT_GT(result.committed, 0u);
  EXPECT_GE(result.reconciles, 1u);
}

TEST(ChaosInvariants, Seed2) {
  const ChaosResult result = run_chaos(options_for(2));
  expect_invariants(result, 2);
  EXPECT_GT(result.faults_applied, 0u);
  EXPECT_GT(result.committed, 0u);
  EXPECT_GE(result.reconciles, 1u);
}

TEST(ChaosInvariants, Seed3) {
  const ChaosResult result = run_chaos(options_for(3));
  expect_invariants(result, 3);
  EXPECT_GT(result.faults_applied, 0u);
  EXPECT_GT(result.committed, 0u);
  EXPECT_GE(result.reconciles, 1u);
}

TEST(ChaosInvariants, PrimaryBackupProtocolHoldsToo) {
  ChaosOptions options = options_for(4);
  options.protocol = ReplicationProtocol::PrimaryBackup;
  const ChaosResult result = run_chaos(options);
  expect_invariants(result, 4);
}

TEST(ChaosInvariants, SameSeedIsByteIdentical) {
  const ChaosResult first = run_chaos(options_for(5));
  const ChaosResult second = run_chaos(options_for(5));
  EXPECT_EQ(first.committed, second.committed);
  EXPECT_EQ(first.aborted, second.aborted);
  EXPECT_EQ(first.faults_applied, second.faults_applied);
  EXPECT_EQ(first.conflicts, second.conflicts);
  // The rendered trace is the strongest oracle: every event, timestamp and
  // detail string must match byte for byte.
  EXPECT_EQ(first.timeline, second.timeline);
  EXPECT_EQ(first.metrics_json, second.metrics_json);
}

TEST(ChaosInvariants, DifferentSeedsDiverge) {
  const ChaosResult a = run_chaos(options_for(6));
  const ChaosResult b = run_chaos(options_for(7));
  EXPECT_NE(a.timeline, b.timeline);
}

}  // namespace
}  // namespace dedisys
