// Host-side instrumentation for the repo benchmark: timing wrappers
// around the public interfaces the benchmark hands to the simulator
// (Controller, Router, PlacementPolicy), an in-memory span log for the
// low-rate boundaries, and a log-bucketed duration histogram for the
// high-rate ones (plan() fires ~100k times per simulated second, so it
// is aggregated instead of kept span by span).
//
// Every wrapper forwards to the wrapped object and changes nothing it
// returns; tests/transparency_test.cc holds the benchmark to that.
// sgdrc-lint: allow-file(wall-clock) — this file measures the machine
// the simulator runs on; no simulated result ever reads these clocks.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "control/controller.h"
#include "fleet/placement.h"
#include "fleet/router.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of a sample (0 when empty); averages the middle pair.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Count, total and quantiles of many short durations, without keeping
/// them: 16 buckets per power of two, so a quantile is exact to ~3%.
class DurationHistogram {
 public:
  void add(int64_t ns);
  uint64_t count() const { return count_; }
  double total_s() const { return static_cast<double>(total_ns_) * 1e-9; }
  /// Bucket-midpoint estimate of quantile q in [0, 1]; 0 when empty.
  double quantile_ns(double q) const;

 private:
  static constexpr int kSub = 16;
  std::array<uint64_t, 64 * kSub> buckets_{};
  uint64_t count_ = 0;
  int64_t total_ns_ = 0;
};

/// One timed interval at a layer boundary. `parent` indexes the span
/// that was open when this one started (-1 for a root).
struct Span {
  std::string name;
  int64_t start_ns = 0;  // since the log's origin
  int64_t end_ns = 0;
  int parent = -1;
};

/// Spans kept in memory and written out once, after the run.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}
  int open(std::string name);
  void close(int index);
  /// Record an interval measured elsewhere, under the open span.
  void add(std::string name, Clock::time_point start, Clock::time_point end);
  /// Sum of the durations of every span called `name`.
  double total_s(const std::string& name) const;
  /// Chrome trace-event JSON (loadable in Perfetto), plus the aggregated
  /// high-rate boundaries as counter-style metadata.
  void write_json(const std::string& path,
                  const std::vector<std::pair<std::string,
                                              const DurationHistogram*>>&
                      aggregates) const;

 private:
  int64_t since_origin(Clock::time_point t) const;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null log makes it a no-op so untraced code paths share
/// the same source.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name)
      : log_(log), index_(log ? log->open(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

struct ControlProbe {
  DurationHistogram plan;
  uint64_t directives = 0;
  /// Σ running kernels seen at each plan() entry (co-running mean).
  uint64_t running_sampled = 0;
};

struct RouteProbe {
  DurationHistogram route;
};

struct PlaceProbe {
  DurationHistogram place;
};

/// Everything one traced run records.
struct Probes {
  explicit Probes(Clock::time_point origin) : spans(origin) {}
  SpanLog spans;
  ControlProbe control;
  RouteProbe route;
  PlaceProbe place;
};

/// Times every plan() and samples the co-running kernel count first.
class TimedController final : public sgdrc::control::Controller {
 public:
  TimedController(std::unique_ptr<sgdrc::control::Controller> inner,
                  ControlProbe& probe)
      : inner_(std::move(inner)), probe_(&probe) {}
  std::string name() const override { return inner_->name(); }
  sgdrc::control::ResourcePlan plan(
      const sgdrc::control::SimView& view) override;

 private:
  std::unique_ptr<sgdrc::control::Controller> inner_;
  ControlProbe* probe_;
};

/// Wrap every controller a factory builds (fleets build one per device).
sgdrc::control::ControllerFactory timed_factory(
    sgdrc::control::ControllerFactory inner, ControlProbe& probe);

/// Forwards every Router call, including reads_device_state(): the
/// sharded engine coalesces dispatch windows only for blind routers, so
/// dropping it would change the engine path a fleet run measures (and,
/// for a state-reading router, what it routes on). Stamps the first reset()
/// (FleetSim::begin, just before the first simulated event); times
/// route() only when given a probe.
class ProbedRouter final : public sgdrc::fleet::Router {
 public:
  ProbedRouter(sgdrc::fleet::Router& inner, RouteProbe* probe)
      : inner_(&inner), probe_(probe) {}
  std::string name() const override { return inner_->name(); }
  void reset(size_t fleet_tenants) override;
  size_t route(const sgdrc::fleet::FleetSim& fleet, unsigned tenant,
               const std::vector<sgdrc::fleet::Replica>& replicas) override;
  bool reads_device_state() const override {
    return inner_->reads_device_state();
  }
  std::optional<Clock::time_point> first_reset() const {
    return first_reset_;
  }

 private:
  sgdrc::fleet::Router* inner_;
  RouteProbe* probe_;
  std::optional<Clock::time_point> first_reset_;
};

class TimedPlacement final : public sgdrc::fleet::PlacementPolicy {
 public:
  TimedPlacement(const sgdrc::fleet::PlacementPolicy& inner,
                 PlaceProbe& probe)
      : inner_(&inner), probe_(&probe) {}
  std::string name() const override { return inner_->name(); }
  sgdrc::fleet::Assignment place(
      const std::vector<sgdrc::fleet::FleetTenantSpec>& tenants,
      unsigned devices) const override;

 private:
  const sgdrc::fleet::PlacementPolicy* inner_;
  PlaceProbe* probe_;
};

}  // namespace perfbench
