// sgdrc-lint: allow-file(wall-clock) — host-time instrumentation only.
#include "probes.h"

#include <bit>
#include <cmath>
#include <fstream>

#include "common/error.h"
#include "common/json.h"

namespace perfbench {

void DurationHistogram::add(int64_t ns) {
  const uint64_t v = ns > 0 ? static_cast<uint64_t>(ns) : 1;
  const int e = std::bit_width(v) - 1;  // floor(log2 v)
  const uint64_t sub = e >= 4 ? (v >> (e - 4)) & (kSub - 1)
                              : (v << (4 - e)) & (kSub - 1);
  ++buckets_[static_cast<size_t>(e) * kSub + sub];
  ++count_;
  total_ns_ += ns;
}

double DurationHistogram::quantile_ns(double q) const {
  if (count_ == 0) return 0.0;
  // Nearest rank, as common/stats.h's Samples::percentile.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      const int e = static_cast<int>(i / kSub);
      const double sub = static_cast<double>(i % kSub);
      return std::ldexp(1.0 + (sub + 0.5) / kSub, e);
    }
  }
  return 0.0;
}

int SpanLog::open(std::string name) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  const int64_t now = since_origin(Clock::now());
  spans_.push_back({std::move(name), now, now, parent});
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanLog::close(int index) {
  SGDRC_REQUIRE(!stack_.empty() && stack_.back() == index,
                "spans must close innermost first");
  stack_.pop_back();
  spans_[static_cast<size_t>(index)].end_ns = since_origin(Clock::now());
}

void SpanLog::add(std::string name, Clock::time_point start,
                  Clock::time_point end) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(
      {std::move(name), since_origin(start), since_origin(end), parent});
}

double SpanLog::total_s(const std::string& name) const {
  int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

int64_t SpanLog::since_origin(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

void SpanLog::write_json(
    const std::string& path,
    const std::vector<std::pair<std::string, const DurationHistogram*>>&
        aggregates) const {
  std::ofstream os(path);
  SGDRC_REQUIRE(os.good(), "cannot open span output path");
  sgdrc::JsonWriter j(os);
  j.begin_object();
  j.key("traceEvents").begin_array();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    j.begin_object();
    j.kv("name", s.name);
    j.kv("ph", "X");
    j.kv("pid", 1);
    j.kv("tid", 1);
    j.kv("ts", static_cast<double>(s.start_ns) / 1e3);  // microseconds
    j.kv("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    j.key("args").begin_object();
    j.kv("id", static_cast<uint64_t>(i));
    j.kv("parent", s.parent);
    j.end_object();
    j.end_object();
  }
  j.end_array();
  j.key("aggregates").begin_object();
  for (const auto& [name, h] : aggregates) {
    j.key(name).begin_object();
    j.kv("count", h->count());
    j.kv("total_s", h->total_s());
    j.kv("p50_ns", h->quantile_ns(0.50));
    j.kv("p99_ns", h->quantile_ns(0.99));
    j.end_object();
  }
  j.end_object();
  j.end_object();
  os << '\n';
}

sgdrc::control::ResourcePlan TimedController::plan(
    const sgdrc::control::SimView& view) {
  probe_->running_sampled += view.running_infos().size();
  const auto t0 = Clock::now();
  sgdrc::control::ResourcePlan p = inner_->plan(view);
  const auto t1 = Clock::now();
  probe_->plan.add(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  probe_->directives += p.directives.size();
  return p;
}

sgdrc::control::ControllerFactory timed_factory(
    sgdrc::control::ControllerFactory inner, ControlProbe& probe) {
  return [inner = std::move(inner),
          &probe](const sgdrc::gpusim::GpuSpec& spec)
             -> std::unique_ptr<sgdrc::control::Controller> {
    return std::make_unique<TimedController>(inner(spec), probe);
  };
}

void ProbedRouter::reset(size_t fleet_tenants) {
  if (!first_reset_) first_reset_ = Clock::now();
  inner_->reset(fleet_tenants);
}

size_t ProbedRouter::route(
    const sgdrc::fleet::FleetSim& fleet, unsigned tenant,
    const std::vector<sgdrc::fleet::Replica>& replicas) {
  if (!probe_) return inner_->route(fleet, tenant, replicas);
  const auto t0 = Clock::now();
  const size_t pick = inner_->route(fleet, tenant, replicas);
  const auto t1 = Clock::now();
  probe_->route.add(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  return pick;
}

sgdrc::fleet::Assignment TimedPlacement::place(
    const std::vector<sgdrc::fleet::FleetTenantSpec>& tenants,
    unsigned devices) const {
  const auto t0 = Clock::now();
  sgdrc::fleet::Assignment a = inner_->place(tenants, devices);
  const auto t1 = Clock::now();
  probe_->place.add(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  return a;
}

}  // namespace perfbench
