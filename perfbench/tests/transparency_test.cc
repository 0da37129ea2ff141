// The benchmark's timing wrappers must be invisible to the simulator:
// a traced run (TimedController, ProbedRouter, TimedPlacement) and an
// untraced run (ProbedRouter forwarding only) give bit-identical
// simulated results to a run handed the bare objects, on a short run of
// every workload. ProbedRouter must also forward reads_device_state():
// the fleet engine picks its dispatch path from it, so a wrapper that
// dropped it would make fleet-256 measure per-dispatch barriers instead
// of coalesced windows, and would let a state-reading router driven by
// FleetSim::run route on stale device state.
#include <gtest/gtest.h>

#include "baselines/registry.h"
#include "core/harness.h"
#include "fleet/router.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {
namespace {

sgdrc::TimeNs short_duration(Workload w) {
  return w == Workload::kFleet256 ? 10 * sgdrc::kNsPerMs
                                  : 150 * sgdrc::kNsPerMs;
}

class Transparency : public ::testing::TestWithParam<Workload> {};

TEST_P(Transparency, WrappersLeaveSimulatedResultsBitIdentical) {
  const Workload w = GetParam();
  const sgdrc::TimeNs d = short_duration(w);
  const RunResult bare =
      run_workload(w, {.seed = 7, .duration = d, .bare = true});
  const RunResult untraced = run_workload(w, {.seed = 7, .duration = d});
  Probes probes(Clock::now());
  const RunResult traced =
      run_workload(w, {.seed = 7, .duration = d, .probes = &probes});

  EXPECT_EQ(untraced.sim.fingerprint, bare.sim.fingerprint);
  EXPECT_EQ(traced.sim.fingerprint, bare.sim.fingerprint);
  EXPECT_EQ(traced.sim.latency_ns.raw(), bare.sim.latency_ns.raw());
  EXPECT_GT(bare.sim.ls_served, 0u);
  // The traced run really went through the wrappers.
  EXPECT_GT(probes.control.plan.count(), 0u);
  if (is_fleet(w)) {
    EXPECT_EQ(probes.route.route.count(), bare.sim.ls_arrived);
    EXPECT_GT(probes.place.place.count(), 0u);
  }
}

TEST_P(Transparency, SeedChangesTheInputs) {
  const Workload w = GetParam();
  const sgdrc::TimeNs d = short_duration(w);
  const RunResult a = run_workload(w, {.seed = 7, .duration = d});
  const RunResult b = run_workload(w, {.seed = 8, .duration = d});
  EXPECT_NE(a.sim.fingerprint, b.sim.fingerprint);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, Transparency, ::testing::ValuesIn(all_workloads()),
    [](const ::testing::TestParamInfo<Workload>& info) {
      std::string n = workload_name(info.param);
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

// The device workloads build their ServingSim themselves (so the
// executor's counters stay reachable); it must be the sim
// ServingHarness::run builds.
TEST(DeviceWorkload, MatchesServingHarnessRun) {
  const std::pair<Workload, const char*> cases[] = {
      {Workload::kDeviceSgdrc, "SGDRC"},
      {Workload::kDeviceMultistream, "Multi-streaming"}};
  for (const auto& [w, system] : cases) {
    const RunOptions opt{.seed = 7, .duration = 150 * sgdrc::kNsPerMs,
                         .bare = true};
    const RunResult ours = run_workload(w, opt);
    const sgdrc::core::ServingHarness h(device_harness_options(opt));
    const auto& sys = sgdrc::baselines::system(system);
    const auto controller = sys.make(h.options().spec);
    const auto m = h.run(*controller, sys.uses_spt);
    sgdrc::Samples pooled;
    for (const auto* t : m.of_class(sgdrc::workload::QosClass::kLatencySensitive)) {
      pooled.add_all(t->latency);
    }
    EXPECT_EQ(pooled.raw(), ours.sim.latency_ns.raw()) << system;
    EXPECT_EQ(m.be_throughput(), ours.sim.be_samples_per_s) << system;
  }
}

TEST(ProbedRouter, ForwardsReadsDeviceState) {
  sgdrc::fleet::RoundRobinRouter blind;
  sgdrc::fleet::QosLoadAwareRouter reading;
  RouteProbe probe;
  EXPECT_FALSE(ProbedRouter(blind, &probe).reads_device_state());
  EXPECT_FALSE(ProbedRouter(blind, nullptr).reads_device_state());
  EXPECT_TRUE(ProbedRouter(reading, &probe).reads_device_state());
  EXPECT_TRUE(ProbedRouter(reading, nullptr).reads_device_state());
  EXPECT_EQ(ProbedRouter(reading, nullptr).name(), reading.name());
}

TEST(DurationHistogram, QuantilesWithinBucketError) {
  DurationHistogram h;
  for (int64_t ns = 1; ns <= 10000; ++ns) h.add(ns);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_NEAR(h.total_s(), 10000.0 * 10001.0 / 2.0 * 1e-9, 1e-12);
  EXPECT_NEAR(h.quantile_ns(0.50), 5000.0, 5000.0 * 0.04);
  EXPECT_NEAR(h.quantile_ns(0.99), 9900.0, 9900.0 * 0.04);
}

}  // namespace
}  // namespace perfbench
