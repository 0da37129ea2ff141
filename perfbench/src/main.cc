// The repo benchmark's driver: runs one workload, single-process, for a
// fixed host-time window, checks the simulator's outputs, and prints
// every metric by name and unit. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans PATH]
//
// A workload is a fixed set of parts, independent simulations whose
// inputs derive from (seed, part). --trace 0 runs whole rounds of parts
// while the next round still fits in --seconds and reports the
// end-to-end metrics: host times are medians, simulated metrics pool the
// parts. --trace 1 runs each part once untraced and once traced
// (fleet-256 adds a parallel-engine run) and reports the per-layer
// metrics summed over the traced runs; --spans writes their spans.
// ../METRICS.md defines every metric and workload.
// sgdrc-lint: allow-file(wall-clock) — the benchmark measures the host.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "probes.h"
#include "workloads.h"

using namespace perfbench;

namespace {

// An untraced run repeats whole rounds (every part once, set-up
// included) while the next round still fits in --seconds, and never
// starts one that could pass kHardCapS.
constexpr double kHardCapS = 150.0;
// Fewer served requests leave p99 with under ten samples beyond it.
constexpr uint64_t kMinServedForP99 = 1000;

struct Args {
  Workload workload = Workload::kDeviceSgdrc;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void usage(const char* argv0, const char* why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload "
               "{device-sgdrc|device-multistream|fleet-256|fleet-zoo} "
               "--seed N --seconds S --trace 0|1 [--spans PATH]\n",
               argv0, why, argv0);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(argv[0], "flag without a value");
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto w = parse_workload(v);
      if (!w) usage(argv[0], "unknown workload");
      a.workload = *w;
      have[0] = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage(argv[0], "bad --seed");
      have[1] = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0.0)) {
        usage(argv[0], "bad --seconds");
      }
      have[2] = true;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage(argv[0], "--trace takes 0 or 1");
      a.trace = v == "1";
      have[3] = true;
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else {
      usage(argv[0], "unknown flag");
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    usage(argv[0], "missing a required flag");
  }
  return a;
}

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// Peak resident set of this process image (VmHWM). getrusage's
/// ru_maxrss would also count the launcher's peak from before exec().
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  return kib / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Traced {
  RunResult result;
  uint64_t route_calls = 0;
};

class Gate {
 public:
  void check(bool ok, const std::string& what) {
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
    ok_ = ok_ && ok;
  }
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

std::string u64(uint64_t v) { return std::to_string(v); }

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Workload w = args.workload;
  const char* name = workload_name(w);
  const unsigned threads = std::min(usable_cpus(), 4u);
  std::printf("perfbench: workload=%s seed=%llu trace=%d seconds=%g\n", name,
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              args.seconds);

  const unsigned parts = workload_parts(w);
  // plain[i]: every untraced run of part i (the first also feeds the
  // simulated metrics); traced/parallel: one run per part.
  std::vector<std::vector<RunResult>> plain(parts);
  std::vector<Traced> traced;
  std::vector<RunResult> parallel;
  Probes probes(Clock::now());  // shared by every traced run
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> round_s;
  const auto start = Clock::now();
  try {
    while (true) {
      const auto t0 = Clock::now();
      for (unsigned part = 0; part < parts; ++part) {
        ++attempted;
        plain[part].push_back(
            run_workload(w, {.seed = args.seed, .part = part}));
        if (!args.trace) continue;
        ++attempted;
        const uint64_t calls_before = probes.route.route.count();
        RunResult r = run_workload(
            w, {.seed = args.seed, .part = part, .probes = &probes});
        traced.push_back(
            {std::move(r), probes.route.route.count() - calls_before});
        if (w == Workload::kFleet256) {
          ++attempted;
          parallel.push_back(run_workload(
              w, {.seed = args.seed, .part = part, .threads = threads}));
        }
      }
      // A traced run measures each part once; an untraced one repeats
      // whole rounds while the next still fits in --seconds.
      if (args.trace) break;
      const auto t1 = Clock::now();
      round_s.push_back(seconds_between(t0, t1));
      const double next = seconds_between(start, t1) + median(round_s);
      if (next > args.seconds || next > kHardCapS) break;
    }
    // One untraced round leaves nothing to compare; rerun a part so
    // determinism is always checked (a traced run compares against its
    // untraced twin instead).
    if (!args.trace && plain.front().size() == 1) {
      ++attempted;
      plain.front().push_back(run_workload(w, {.seed = args.seed}));
    }
  } catch (const std::exception& e) {
    ++failed;
    std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
  }

  Gate gate;
  size_t plain_runs = 0;
  for (const auto& runs : plain) plain_runs += runs.size();
  std::printf("correctness gate (%u parts; %zu untraced, %zu traced, %zu "
              "parallel runs):\n",
              parts, plain_runs, traced.size(), parallel.size());
  gate.check(failed == 0, "every run completed");
  if (failed) {
    std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {}}\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    return 1;
  }

  bool repeat = true, same_traced = true, same_parallel = true;
  for (unsigned part = 0; part < parts; ++part) {
    const uint64_t fp = plain[part].front().sim.fingerprint;
    for (const auto& r : plain[part]) repeat = repeat && r.sim.fingerprint == fp;
    if (args.trace) {
      same_traced = same_traced && traced[part].result.sim.fingerprint == fp;
    }
    if (!parallel.empty()) {
      same_parallel = same_parallel && parallel[part].sim.fingerprint == fp;
    }
  }
  gate.check(repeat, "untraced runs of a part repeat bit-for-bit");
  if (args.trace) {
    gate.check(same_traced, "traced runs give the untraced simulated results");
  }
  if (!parallel.empty()) {
    gate.check(same_parallel, "parallel engine (" + std::to_string(threads) +
                                  " threads) reproduces the serial "
                                  "fingerprint");
  }

  // Conservation holds part by part; the simulated metrics pool parts.
  SimResult sim;
  bool served_ok = true, reached_ok = true, routed_ok = true, calls_ok = true;
  uint64_t route_calls = 0;
  for (unsigned part = 0; part < parts; ++part) {
    const SimResult& s = plain[part].front().sim;
    served_ok = served_ok && s.ls_served <= s.ls_admitted;
    // Device: every input arrival reaches the GPU. Fleet: the rest of
    // the arrivals are still in a dispatch hop at the cut-off.
    reached_ok = reached_ok && (is_fleet(w)
                                    ? s.ls_admitted + s.ls_shed <= s.ls_arrived
                                    : s.ls_admitted == s.ls_arrived);
    routed_ok = routed_ok && s.routed == s.ls_admitted;
    if (args.trace) {
      const uint64_t calls = traced[part].route_calls;
      calls_ok = calls_ok && calls + s.ls_shed == s.ls_arrived &&
                 calls >= s.routed;
      route_calls += calls;
    }
    sim.ls_arrived += s.ls_arrived;
    sim.ls_admitted += s.ls_admitted;
    sim.ls_served += s.ls_served;
    sim.ls_attained += s.ls_attained;
    sim.ls_shed += s.ls_shed;
    sim.routed += s.routed;
    sim.latency_ns.add_all(s.latency_ns);
    sim.be_samples_per_s += s.be_samples_per_s / parts;  // equal durations
    sim.guarantee_violations += s.guarantee_violations;
    sim.launches += s.launches;
    sim.completions += s.completions;
    sim.evictions += s.evictions;
    sim.events += s.events;
    sim.imbalance_cv += s.imbalance_cv / parts;
    sim.weight_loads += s.weight_loads;
    sim.weight_evictions += s.weight_evictions;
    sim.paged_requests += s.paged_requests;
    sim.cold_requests += s.cold_requests;
    sim.cold_latency_ns.add_all(s.cold_latency_ns);
  }
  gate.check(served_ok, "served " + u64(sim.ls_served) +
                            " <= admitted at devices " +
                            u64(sim.ls_admitted) + ", in every part");
  gate.check(reached_ok,
             is_fleet(w) ? "admitted + shed <= arrived " +
                               u64(sim.ls_arrived) + ", in every part"
                         : "every input arrival reached the device, in "
                           "every part");
  if (is_fleet(w)) {
    gate.check(routed_ok, "router decisions that landed " + u64(sim.routed) +
                              " == admitted, in every part");
    if (args.trace) {
      gate.check(calls_ok, "route() calls " + u64(route_calls) +
                               " + shed == arrived, in every part (" +
                               u64(route_calls - sim.routed) +
                               " dispatch hops expired past the window)");
    }
  }
  const uint64_t unfinished = sim.ls_arrived - sim.ls_served - sim.ls_shed;
  std::printf("  LS arrived %llu = served %llu + unfinished %llu + shed "
              "%llu\n",
              static_cast<unsigned long long>(sim.ls_arrived),
              static_cast<unsigned long long>(sim.ls_served),
              static_cast<unsigned long long>(unfinished),
              static_cast<unsigned long long>(sim.ls_shed));
  gate.check(sim.guarantee_violations == 0,
             "guarantee_violations == 0 (got " +
                 u64(sim.guarantee_violations) + ")");
  gate.check(sim.ls_served >= kMinServedForP99,
             "p99 rests on " + u64(sim.ls_served) + " served requests (>= " +
                 u64(kMinServedForP99) + ")");

  // setup_s: median over every simulation's set-up. run_s: median over
  // whole rounds of the round's summed simulation time (all parts).
  size_t rounds = plain.front().size();
  for (const auto& runs : plain) rounds = std::min(rounds, runs.size());
  std::vector<double> plain_setup, round_run(rounds, 0.0);
  for (const auto& runs : plain) {
    for (size_t i = 0; i < runs.size(); ++i) {
      plain_setup.push_back(runs[i].setup_s);
      if (i < rounds) round_run[i] += runs[i].run_s;
    }
  }
  const double run_s = median(round_run);
  const double plain_run_total = round_run.front();  // pairs the traced

  std::vector<Metric> metrics;
  const double served = static_cast<double>(std::max<uint64_t>(1, sim.ls_served));
  if (!args.trace) {
    const double arrived =
        static_cast<double>(std::max<uint64_t>(1, sim.ls_arrived));
    const bool have_lat = !sim.latency_ns.empty();
    metrics = {
        {"setup_s", median(plain_setup), "s"},
        {"run_s", run_s, "s"},
        {"peak_rss_mb", peak_rss_mib(), "MiB"},
        {"ls_p50_ms", have_lat ? sim.latency_ns.p50() / 1e6 : 0.0, "ms"},
        {"ls_p99_ms", have_lat ? sim.latency_ns.p99() / 1e6 : 0.0, "ms"},
        {"slo_attainment", static_cast<double>(sim.ls_attained) / arrived,
         "fraction"},
        {"be_samples_per_s", sim.be_samples_per_s, "samples/s"},
    };
  } else {
    // Per-layer figures total every part's traced run, so the layer
    // times add up to the traced runs' summed run_s.
    double traced_run_total = 0.0;
    for (const auto& t : traced) traced_run_total += t.result.run_s;
    double serial_total = 0.0, parallel_total = 0.0;
    for (unsigned part = 0; part < parallel.size(); ++part) {
      serial_total += plain[part].front().run_s;
      parallel_total += parallel[part].run_s;
    }
    const Probes& p = probes;
    const double plans = static_cast<double>(p.control.plan.count());
    const double per_plan = plans > 0 ? 1.0 / plans : 0.0;
    const double events = static_cast<double>(sim.events);
    metrics = {
        {"control.plan_calls", plans, "count"},
        {"control.plans_per_served", plans / served, "count"},
        {"control.plan_s", p.control.plan.total_s(), "s"},
        {"control.plan_ns_p99", p.control.plan.quantile_ns(0.99), "ns"},
        {"control.directives_per_plan",
         static_cast<double>(p.control.directives) * per_plan, "count"},
        {"gpusim.launches", static_cast<double>(sim.launches), "count"},
        {"gpusim.evictions", static_cast<double>(sim.evictions), "count"},
        {"gpusim.completed_frac",
         sim.launches ? static_cast<double>(sim.completions) /
                            static_cast<double>(sim.launches)
                      : 0.0,
         "fraction"},
        {"gpusim.co_running_mean",
         static_cast<double>(p.control.running_sampled) * per_plan, "count"},
        {"engine.self_s",
         traced_run_total - p.control.plan.total_s() - p.route.route.total_s(),
         "s"},
        {"engine.events", events, "count"},
        {"engine.events_per_s", events / plain_run_total, "1/s"},
        {"engine.events_per_served", events / served, "count"},
        {"fleet.route_calls", static_cast<double>(p.route.route.count()),
         "count"},
        {"fleet.route_s", p.route.route.total_s(), "s"},
        {"fleet.place_s", p.place.place.total_s(), "s"},
        {"fleet.imbalance_cv", sim.imbalance_cv, "fraction"},
        {"fleet.parallel_speedup",
         parallel.empty() ? 0.0 : serial_total / parallel_total, "x"},
        {"memory.weight_loads", static_cast<double>(sim.weight_loads),
         "count"},
        {"memory.weight_evictions", static_cast<double>(sim.weight_evictions),
         "count"},
        {"memory.paged_requests", static_cast<double>(sim.paged_requests),
         "count"},
        {"memory.cold_requests", static_cast<double>(sim.cold_requests),
         "count"},
        {"memory.cold_start_p99_ms",
         sim.cold_latency_ns.empty() ? 0.0 : sim.cold_latency_ns.p99() / 1e6,
         "ms"},
        {"workload.ls_arrived", static_cast<double>(sim.ls_arrived), "count"},
        {"workload.ls_served", static_cast<double>(sim.ls_served), "count"},
        {"workload.ls_failed_frac",
         static_cast<double>(unfinished + sim.ls_shed) /
             static_cast<double>(std::max<uint64_t>(1, sim.ls_arrived)),
         "fraction"},
        {"workload.trace_s", p.spans.total_s("workload.trace"), "s"},
        {"core.harness_s", p.spans.total_s("core.harness"), "s"},
        {"fleet.construct_s", p.spans.total_s("fleet.construct"), "s"},
        {"trace.overhead_frac",
         (traced_run_total - plain_run_total) / plain_run_total, "fraction"},
    };
    if (!args.spans_path.empty()) {
      p.spans.write_json(args.spans_path,
                         {{"control.plan", &p.control.plan},
                          {"fleet.route", &p.route.route},
                          {"fleet.place", &p.place.place}});
      std::printf("spans of the traced runs: %s\n",
                  args.spans_path.c_str());
    }
    if (w == Workload::kDeviceMultistream) {
      std::printf("note: control.plan_s includes executor work here — "
                  "Multi-streaming runs through LegacyPolicyAdapter, whose "
                  "plan() launches kernels into the executor itself.\n");
    }
  }

  bool finite = true;
  for (const Metric& m : metrics) {
    finite = finite && std::isfinite(m.value);
    if (m.name == "ls_p99_ms") {
      std::printf("  %-28s %.6g %s (n=%llu served)\n", m.name.c_str(),
                  m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(sim.ls_served));
    } else {
      std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  gate.check(finite, "every metric is a finite number");

  const bool correct = gate.ok();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + u64(attempted);
  json += ", \"failed\": " + u64(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
