// sgdrc-lint: allow-file(wall-clock) — setup/run host timings only.
#include "workloads.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "baselines/registry.h"
#include "fleet/fleet.h"
#include "models/zoo.h"
#include "workload/scenario.h"

namespace perfbench {

using namespace sgdrc;

namespace {

// Simulated duration of one part (one simulation). A benchmark run
// pools workload_parts() parts; see workload_parts() for why.
constexpr TimeNs kDeviceDuration = 1 * kNsPerSec;
constexpr TimeNs kFleet256Duration = 20 * kNsPerMs;
constexpr TimeNs kFleetZooDuration = 1 * kNsPerSec;
constexpr unsigned kFleet256Devices = 256;
constexpr unsigned kFleetZooDevices = 2;

/// The benchmark seed reaches the simulator only through the generated
/// inputs: every RNG stream below is derived from this value.
uint64_t input_seed(const RunOptions& opt) {
  return splitmix64(splitmix64(opt.seed) + opt.part);
}

class Fnv {
 public:
  void add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  }
  void add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Pool the LS tenants' counters and latencies; hash everything the
/// metrics list carries (raw samples in recording order).
void absorb_tenants(const std::vector<workload::TenantMetrics>& tenants,
                    SimResult& r, Fnv& fp) {
  for (const auto& t : tenants) {
    fp.add(t.arrived);
    fp.add(t.served);
    fp.add(t.attained);
    fp.add(t.kernels_done);
    fp.add(t.batches_completed);
    fp.add(t.evictions);
    fp.add(t.weight_loads);
    fp.add(t.weight_evictions);
    fp.add(t.paged_requests);
    for (const double s : t.latency.raw()) fp.add(s);
    for (const double s : t.cold_latency.raw()) fp.add(s);
    if (t.qos != workload::QosClass::kLatencySensitive) continue;
    r.ls_admitted += t.arrived;
    r.ls_served += t.served;
    r.ls_attained += t.attained;
    r.latency_ns.add_all(t.latency);
    r.cold_latency_ns.add_all(t.cold_latency);
  }
}

uint64_t arrivals_before(const std::vector<workload::Request>& trace,
                         TimeNs end) {
  return static_cast<uint64_t>(
      std::count_if(trace.begin(), trace.end(),
                    [end](const workload::Request& q) {
                      return q.arrival < end;
                    }));
}

/// Set a simulation up kSetupRepeats times (once when traced, so every
/// span and probe count covers exactly one set-up), keep the last copy,
/// and report the median set-up time: a single few-millisecond set-up
/// is at the mercy of the host's scheduler.
constexpr int kSetupRepeats = 3;

template <typename Setup>
auto repeated_setup(const RunOptions& opt, Setup&& setup, double& setup_s) {
  std::optional<decltype(setup())> kept;
  std::vector<double> times;
  for (int i = 0; i < (opt.probes ? 1 : kSetupRepeats); ++i) {
    kept.reset();  // tear the previous copy down outside the timing
    const auto t0 = Clock::now();
    kept.emplace(setup());
    times.push_back(seconds_between(t0, Clock::now()));
  }
  setup_s = median(times);
  return std::move(*kept);
}

std::unique_ptr<core::ServingHarness> timed_harness(
    const core::HarnessOptions& o, SpanLog* log) {
  ScopedSpan span(log, "core.harness");
  return std::make_unique<core::ServingHarness>(o);
}

// ------------------------------------------------ device workloads ----

/// ServingHarness::run's sim, built here so the executor stays
/// reachable after the run (tests/transparency_test.cc checks the two
/// agree).
core::ServingSimBuilder device_builder(const core::ServingHarness& h,
                                       bool spt) {
  const auto& o = h.options();
  core::ServingSimBuilder b;
  b.gpu(o.spec)
      .executor_params(o.exec_params)
      .default_ls_instances(o.ls_instances)
      .duration(o.duration)
      .best_effort_mode(o.be_mode)
      .slo_multiplier(static_cast<double>(
          h.ls_count() +
          (o.be_mode == core::BeMode::kRoundRobin ? 1 : h.be_count())));
  for (size_t i = 0; i < h.ls_count(); ++i) {
    b.add_latency_sensitive(spt ? h.ls_model_spt(i) : h.ls_model(i),
                            h.isolated_latency(i));
  }
  for (size_t i = 0; i < h.be_count(); ++i) {
    b.add_best_effort(spt ? h.be_model_spt(i) : h.be_model(i));
  }
  return b;
}

/// The harness generates its trace inside its constructor; a traced run
/// regenerates it with the same options so trace generation can be
/// timed on its own, and checks the copy is identical.
void time_device_trace(const core::ServingHarness& h, SpanLog& log) {
  const auto& o = h.options();
  workload::TraceOptions topt;
  topt.services = static_cast<unsigned>(h.ls_count());
  topt.duration = o.duration;
  topt.scale = o.load_scale;
  topt.burstiness = o.burstiness;
  topt.seed = o.seed;
  for (size_t i = 0; i < h.ls_count(); ++i) {
    topt.per_service_rates.push_back(h.rate_for(i));
  }
  std::vector<workload::Request> again;
  {
    ScopedSpan span(&log, "workload.trace");
    again = workload::generate_apollo_like_trace(topt);
  }
  SGDRC_CHECK(again.size() == h.trace().size() &&
                  std::equal(again.begin(), again.end(), h.trace().begin(),
                             [](const auto& a, const auto& b) {
                               return a.arrival == b.arrival &&
                                      a.service == b.service;
                             }),
              "regenerated trace differs from the harness trace");
}

RunResult run_device(const std::string& system, const RunOptions& opt) {
  SpanLog* log = opt.probes ? &opt.probes->spans : nullptr;
  const core::HarnessOptions options = device_harness_options(opt);
  const auto& sys = baselines::system(system);

  struct Prepared {
    std::unique_ptr<core::ServingHarness> h;
    std::unique_ptr<control::Controller> controller;
    std::unique_ptr<core::ServingSim> sim;  // last: torn down first
  };
  RunResult out;
  Prepared p = repeated_setup(
      opt,
      [&] {
        Prepared s;
        s.h = timed_harness(options, log);
        if (log) time_device_trace(*s.h, *log);
        s.controller = sys.make(s.h->options().spec);
        if (opt.probes && !opt.bare) {
          s.controller = std::make_unique<TimedController>(
              std::move(s.controller), opt.probes->control);
        }
        ScopedSpan span(log, "core.build");
        s.sim = device_builder(*s.h, sys.uses_spt).build(*s.controller);
        return s;
      },
      out.setup_s);

  const auto begin = Clock::now();
  workload::ServingMetrics m;
  {
    ScopedSpan span(log, "run");
    m = p.sim->run(p.h->trace());
  }
  out.run_s = seconds_between(begin, Clock::now());

  SimResult& r = out.sim;
  Fnv fp;
  absorb_tenants(m.tenants, r, fp);
  r.ls_arrived = arrivals_before(p.h->trace(), options.duration);
  r.be_samples_per_s = m.be_throughput();
  r.guarantee_violations = m.guarantee_violations;
  r.launches = p.sim->exec().launches();
  r.completions = p.sim->exec().completions();
  r.evictions = p.sim->exec().evictions();
  for (const uint64_t v :
       {r.ls_arrived, r.guarantee_violations, r.launches, r.completions,
        r.evictions, m.ls_busy_ns, m.be_busy_ns}) {
    fp.add(v);
  }
  r.fingerprint = fp.value();
  return out;
}

// ------------------------------------------------- fleet workloads ----

/// What a fleet run hands the simulator: the bare placement, router and
/// SGDRC factory, or the wrappers around them (RunOptions::bare and
/// RunOptions::probes decide).
class FleetHooks {
 public:
  FleetHooks(const fleet::PlacementPolicy& placement, fleet::Router& router,
             const RunOptions& opt)
      : placement_(&placement),
        router_(&router),
        wrap_(!opt.bare),
        probed_(router, opt.probes ? &opt.probes->route : nullptr) {
    const auto& make = baselines::system("SGDRC").make;
    if (opt.probes && wrap_) {
      timed_place_.emplace(placement, opt.probes->place);
      factory_ = timed_factory(make, opt.probes->control);
    } else {
      factory_ = make;
    }
  }
  FleetHooks(const FleetHooks&) = delete;
  FleetHooks& operator=(const FleetHooks&) = delete;

  const fleet::PlacementPolicy& placement() const {
    if (timed_place_) return *timed_place_;
    return *placement_;
  }
  fleet::Router& router() {
    if (wrap_) return probed_;
    return *router_;
  }
  const control::ControllerFactory& factory() const { return factory_; }
  /// When FleetSim::begin first reset the router: the first simulated
  /// event. Unknown when the router went in bare.
  std::optional<Clock::time_point> begun() const {
    return wrap_ ? probed_.first_reset() : std::nullopt;
  }

 private:
  const fleet::PlacementPolicy* placement_;
  fleet::Router* router_;
  bool wrap_;
  ProbedRouter probed_;
  std::optional<TimedPlacement> timed_place_;
  control::ControllerFactory factory_;
};

/// Shared by both fleet workloads: the metrics FleetSim aggregates.
void absorb_fleet(const fleet::FleetMetrics& m, SimResult& r, Fnv& fp) {
  absorb_tenants(m.tenants, r, fp);
  for (const uint64_t d : m.routed) {
    r.routed += d;
    fp.add(d);
  }
  r.ls_shed = m.front_door.shed;
  r.be_samples_per_s = m.be_throughput();
  r.guarantee_violations = m.guarantee_violations();
  r.events = m.events;
  r.imbalance_cv = m.imbalance_cv();
  r.weight_loads = m.weight_loads();
  r.weight_evictions = m.weight_evictions();
  r.paged_requests = m.paged_requests();
  r.cold_requests = m.cold_requests();
  for (const uint64_t v :
       {r.ls_arrived, r.ls_shed, r.guarantee_violations, r.events,
        r.cold_requests, m.memory_trespasses()}) {
    fp.add(v);
  }
  fp.add(r.imbalance_cv);
}

/// fleet_scaling's 256-GPU throughput cell: spread placement, the blind
/// round-robin router, SGDRC per device, per-device utilisation 0.8.
RunResult run_fleet256(const RunOptions& opt) {
  SpanLog* log = opt.probes ? &opt.probes->spans : nullptr;
  const TimeNs duration = opt.duration ? opt.duration : kFleet256Duration;
  const unsigned devices = kFleet256Devices;
  const fleet::SpreadPlacement spread;
  fleet::RoundRobinRouter round_robin;
  FleetHooks hooks(spread, round_robin, opt);

  struct Prepared {
    std::vector<workload::Request> trace;
    std::unique_ptr<fleet::FleetSim> sim;
  };
  RunResult out;
  Prepared p = repeated_setup(
      opt,
      [&] {
        core::HarnessOptions o;
        o.spec = gpusim::rtx_a2000();
        o.ls_letters = "ABC";
        o.be_letters = "IJ";
        o.utilization = 0.8;
        o.burstiness = 0.35;
        o.duration = duration;
        o.seed = input_seed(opt);
        const auto h = timed_harness(o, log);

        Prepared s;
        {
          ScopedSpan span(log, "workload.trace");
          workload::TraceOptions topt;
          topt.services = static_cast<unsigned>(h->ls_count());
          topt.duration = duration;
          topt.burstiness = o.burstiness;
          topt.seed = o.seed + devices;
          for (size_t i = 0; i < h->ls_count(); ++i) {
            topt.per_service_rates.push_back(h->rate_for(i) *
                                             static_cast<double>(devices));
          }
          s.trace = workload::generate_apollo_like_trace(topt);
        }

        // LS and BE tenants alike get half the fleet as replicas.
        const unsigned replicas = std::max(2u, (devices + 1) / 2);
        std::vector<fleet::FleetTenantSpec> tenants;
        for (size_t i = 0; i < h->ls_count(); ++i) {
          tenants.push_back(fleet::replicated(
              core::latency_sensitive_tenant(h->ls_model_spt(i),
                                             h->isolated_latency(i)),
              replicas));
        }
        for (size_t i = 0; i < h->be_count(); ++i) {
          tenants.push_back(fleet::replicated(
              core::best_effort_tenant(h->be_model_spt(i)), replicas));
        }

        fleet::FleetConfig cfg;
        cfg.spec = o.spec;
        cfg.exec_params = o.exec_params;
        cfg.devices = devices;
        cfg.duration = duration;
        cfg.slo_multiplier = static_cast<double>(h->ls_count() + 1);
        cfg.seed = o.seed;
        cfg.dispatch_latency = 2 * kNsPerUs;
        cfg.dispatch_jitter = 3 * kNsPerUs;
        cfg.engine.parallel = opt.threads > 0;
        cfg.engine.threads = opt.threads;
        ScopedSpan span(log, "fleet.construct");
        s.sim = std::make_unique<fleet::FleetSim>(
            cfg, std::move(tenants), hooks.placement(), hooks.router(),
            hooks.factory());
        return s;
      },
      out.setup_s);

  const auto begin = Clock::now();
  fleet::FleetMetrics m;
  {
    ScopedSpan span(log, "run");
    m = p.sim->run(p.trace);
  }
  out.run_s = seconds_between(begin, Clock::now());

  Fnv fp;
  out.sim.ls_arrived = arrivals_before(p.trace, duration);
  absorb_fleet(m, out.sim, fp);
  out.sim.fingerprint = fp.value();
  return out;
}

/// scenario_sweep's model-zoo cell for SGDRC: services arrive, cool and
/// depart on a 2-GPU fleet whose 256 MiB of modelled VRAM the model set
/// oversubscribes, so weights load, evict and page. QoS-aware placement
/// and the state-reading QoS-load-aware router.
RunResult run_fleet_zoo(const RunOptions& opt) {
  SpanLog* log = opt.probes ? &opt.probes->spans : nullptr;
  const TimeNs duration = opt.duration ? opt.duration : kFleetZooDuration;
  const unsigned devices = kFleetZooDevices;

  // Everything up to run_scenario(); FleetSim itself is built inside it.
  struct Prepared {
    workload::ScenarioEngineConfig ecfg;
    std::vector<workload::ScenarioTenant> initial;
    std::optional<workload::Scenario> zoo;
    uint64_t arrived = 0;
  };
  RunResult out;
  Prepared p = repeated_setup(
      opt,
      [&] {
        core::HarnessOptions ho;
        ho.spec = gpusim::rtx_a2000();
        ho.ls_letters = "ABC";
        ho.be_letters = "IJ";
        ho.utilization = 0.4;
        ho.burstiness = 0.35;
        ho.duration = duration;
        ho.seed = input_seed(opt);
        const auto h = timed_harness(ho, log);

        // The services that arrive mid-run are Tab. 3's model D.
        models::ModelDesc arrival_spt;
        TimeNs arrival_iso = 0;
        {
          ScopedSpan span(log, "core.harness");
          core::OfflineProfiler prof(ho.spec, ho.exec_params);
          models::ModelDesc d = models::make_model('D');
          prof.profile(d);
          arrival_iso = prof.isolated_latency(d);
          arrival_spt = core::ServingHarness::transform_for_spt(d, prof);
        }

        Prepared s;
        s.ecfg.spec = ho.spec;
        s.ecfg.exec_params = ho.exec_params;
        s.ecfg.ls_instances = ho.ls_instances;
        s.ecfg.slo_multiplier = static_cast<double>(h->ls_count() + 1);
        s.ecfg.seed = ho.seed;
        s.ecfg.dispatch_latency = 2 * kNsPerUs;
        s.ecfg.dispatch_jitter = 3 * kNsPerUs;
        s.ecfg.burstiness = ho.burstiness;

        workload::ScenarioCatalogOptions copt;
        copt.duration = duration;
        copt.devices = devices;
        copt.initial_tenants =
            static_cast<unsigned>(h->ls_count() + h->be_count());
        const double arrival_rate = ho.utilization /
                                    (static_cast<double>(h->ls_count()) *
                                     to_sec(arrival_iso)) *
                                    static_cast<double>(devices);
        copt.make_ls_arrival = [arrival_spt, arrival_iso,
                                arrival_rate](unsigned) {
          return workload::ScenarioTenant{
              core::latency_sensitive_tenant(arrival_spt, arrival_iso),
              arrival_rate, 2};
        };
        copt.model_zoo_memory.enabled = true;
        copt.model_zoo_memory.vram_bytes_override = 256ull << 20;
        copt.model_zoo_memory.oversubscribe = true;
        for (auto& sc : workload::scenario_catalog(copt)) {
          if (sc.name() == "model-zoo") s.zoo.emplace(std::move(sc));
        }
        SGDRC_CHECK(s.zoo.has_value(), "stock catalog lost model-zoo");

        for (size_t i = 0; i < h->ls_count(); ++i) {
          s.initial.push_back(
              {core::latency_sensitive_tenant(h->ls_model_spt(i),
                                              h->isolated_latency(i)),
               h->rate_for(i) * static_cast<double>(devices), 2});
        }
        for (size_t i = 0; i < h->be_count(); ++i) {
          s.initial.push_back(
              {core::best_effort_tenant(h->be_model_spt(i)), 0.0, 2});
        }

        // run_scenario compiles the same stream internally; this copy
        // counts the arrivals the conservation check holds the run to.
        ScopedSpan span(log, "workload.trace");
        s.arrived = arrivals_before(
            workload::build_scenario_trace(*s.zoo, s.initial, s.ecfg),
            duration);
        return s;
      },
      out.setup_s);

  const fleet::QosAwarePlacement qos_aware;
  fleet::QosLoadAwareRouter qos_router;
  FleetHooks hooks(qos_aware, qos_router, opt);

  // FleetSim is built inside run_scenario(); the time up to its first
  // simulated event counts as set-up.
  const auto entry = Clock::now();
  workload::ScenarioOutcome outcome;
  {
    ScopedSpan span(log, "workload.run_scenario");
    outcome = workload::run_scenario(*p.zoo, p.initial, p.ecfg,
                                     hooks.placement(), hooks.router(),
                                     hooks.factory());
    if (log && hooks.begun()) log->add("fleet.construct", entry, *hooks.begun());
  }
  const auto end = Clock::now();
  const auto begin = hooks.begun().value_or(entry);
  out.setup_s += seconds_between(entry, begin);
  out.run_s = seconds_between(begin, end);

  Fnv fp;
  out.sim.ls_arrived = p.arrived;
  absorb_fleet(outcome.metrics, out.sim, fp);
  out.sim.fingerprint = fp.value();
  return out;
}

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> all = {
      Workload::kDeviceSgdrc, Workload::kDeviceMultistream,
      Workload::kFleet256, Workload::kFleetZoo};
  return all;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kDeviceSgdrc: return "device-sgdrc";
    case Workload::kDeviceMultistream: return "device-multistream";
    case Workload::kFleet256: return "fleet-256";
    case Workload::kFleetZoo: return "fleet-zoo";
  }
  return "?";
}

std::optional<Workload> parse_workload(const std::string& name) {
  for (const Workload w : all_workloads()) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

unsigned workload_parts(Workload w) {
  // Every figure of these workloads swings from one arrival trace to the
  // next: the frame-aligned bursts of a handful of services either
  // cluster or interleave, and that decides how often LS bursts evict BE
  // work. Pooling independent parts is what steadies them; the counts
  // below keep one round of parts near 22 s of host time (4-core host).
  switch (w) {
    case Workload::kDeviceSgdrc: return 20;
    // 7x slower per simulated second than SGDRC (the O(k^2) executor
    // under the legacy adapter); 4 parts already take ~30 s.
    case Workload::kDeviceMultistream: return 4;
    case Workload::kFleet256: return 20;
    case Workload::kFleetZoo: return 24;
  }
  return 1;
}

bool is_fleet(Workload w) {
  return w == Workload::kFleet256 || w == Workload::kFleetZoo;
}

/// The Fig. 17 heavy A2000 cell: Tab. 3's 8 LS + 3 BE models at LS
/// utilisation 1.45.
core::HarnessOptions device_harness_options(const RunOptions& opt) {
  core::HarnessOptions o;
  o.spec = gpusim::rtx_a2000();
  o.utilization = 1.45;
  o.load_scale = 1.0;
  o.burstiness = 0.35;
  o.duration = opt.duration ? opt.duration : kDeviceDuration;
  o.seed = input_seed(opt);
  return o;
}

RunResult run_workload(Workload w, const RunOptions& opt) {
  SGDRC_REQUIRE(opt.threads == 0 || w == Workload::kFleet256,
                "only fleet-256 runs the parallel engine");
  ScopedSpan span(opt.probes ? &opt.probes->spans : nullptr,
                  workload_name(w));
  switch (w) {
    case Workload::kDeviceSgdrc: return run_device("SGDRC", opt);
    case Workload::kDeviceMultistream:
      return run_device("Multi-streaming", opt);
    case Workload::kFleet256: return run_fleet256(opt);
    case Workload::kFleetZoo: return run_fleet_zoo(opt);
  }
  SGDRC_REQUIRE(false, "unknown workload");
  return {};
}

}  // namespace perfbench
