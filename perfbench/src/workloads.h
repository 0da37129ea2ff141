// The benchmark's workloads. Each one builds its inputs from the seed
// alone, sets up the simulator, runs it for a fixed simulated duration
// and returns host timings plus the simulated results the correctness
// gate and the end-to-end metrics read. Why each workload exists, which
// layer it loads, and why BENCHMARK.json lists three of the four, is in
// ../METRICS.md.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/stats.h"
#include "core/harness.h"
#include "probes.h"

namespace perfbench {

enum class Workload { kDeviceSgdrc, kDeviceMultistream, kFleet256, kFleetZoo };

const std::vector<Workload>& all_workloads();
const char* workload_name(Workload w);
std::optional<Workload> parse_workload(const std::string& name);
bool is_fleet(Workload w);
/// How many independent simulations one benchmark run pools: part i
/// draws its inputs from (seed, i). Pooling short simulations keeps the
/// simulated figures steady from seed to seed at a bounded host cost.
unsigned workload_parts(Workload w);

struct RunOptions {
  /// The benchmark's --seed; with `part` it derives every input.
  uint64_t seed = 1;
  unsigned part = 0;
  /// Simulated duration; 0 = the workload's default.
  sgdrc::TimeNs duration = 0;
  /// Non-null: a traced run — every wrapper times its calls into here.
  Probes* probes = nullptr;
  /// Hand the simulator the bare objects, with no wrapper at all (the
  /// transparency tests' reference). On fleet-zoo the setup/run split
  /// then falls back to the whole run_scenario() call.
  bool bare = false;
  /// fleet-256 only: > 0 runs the sharded engine on this many threads.
  unsigned threads = 0;
};

/// Simulated outcome of one run: host-independent, so any two runs of
/// one workload and seed must agree on every field.
struct SimResult {
  uint64_t ls_arrived = 0;   // LS requests in the generated input window
  uint64_t ls_admitted = 0;  // reached a device (Σ per-tenant arrived)
  uint64_t ls_served = 0;
  uint64_t ls_attained = 0;  // served within SLO
  uint64_t ls_shed = 0;      // turned away by the front door
  uint64_t routed = 0;       // fleets: Σ router decisions that landed
  sgdrc::Samples latency_ns;  // every served LS request, pooled
  double be_samples_per_s = 0.0;
  uint64_t guarantee_violations = 0;
  // gpusim counters (device workloads; out of reach inside fleets)
  uint64_t launches = 0;
  uint64_t completions = 0;
  uint64_t evictions = 0;
  // fleet engine
  uint64_t events = 0;
  double imbalance_cv = 0.0;
  // memory residency (fleet-zoo)
  uint64_t weight_loads = 0;
  uint64_t weight_evictions = 0;
  uint64_t paged_requests = 0;
  uint64_t cold_requests = 0;
  sgdrc::Samples cold_latency_ns;  // LS requests gated on a cold start
  /// FNV-1a over every counter and raw latency sample above.
  uint64_t fingerprint = 0;
};

struct RunResult {
  SimResult sim;
  double setup_s = 0.0;  // workload start → first simulated event
  double run_s = 0.0;    // first simulated event → end of the run
};

RunResult run_workload(Workload w, const RunOptions& opt);

/// The harness options both device workloads build one part from, so
/// the tests can hold the benchmark's own sim to ServingHarness::run.
sgdrc::core::HarnessOptions device_harness_options(const RunOptions& opt);

}  // namespace perfbench
