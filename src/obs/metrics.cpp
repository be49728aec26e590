#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace archex::obs {

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Timer& MetricsRegistry::timer(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = timers_[name];
  if (!slot) slot = std::make_unique<Timer>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

namespace {
// First bucket upper bound and the sqrt(2) bucket ratio, as log2 steps: the
// index is ceil(2 * log2(s / 100us)), clamped into range.
constexpr double kHistFloorSeconds = 1e-4;
}  // namespace

std::size_t Histogram::bucket_index(double seconds) {
  if (!(seconds > kHistFloorSeconds)) return 0;  // NaN and tiny land in [0, 100us]
  const double steps = std::ceil(2.0 * std::log2(seconds / kHistFloorSeconds));
  if (steps >= static_cast<double>(kBuckets - 1)) return kBuckets - 1;
  return static_cast<std::size_t>(steps);
}

double Histogram::bucket_upper(std::size_t i) {
  if (i >= kBuckets - 1) return std::numeric_limits<double>::infinity();
  return kHistFloorSeconds * std::exp2(0.5 * static_cast<double>(i));
}

double Histogram::quantile(double q) const {
  const std::int64_t n = count();
  // No samples -> no quantile. NaN, not 0.0: a zero here read as "p99 was
  // instant" in dashboards and diffs. Every export path carries it through
  // consistently — snapshot() stores the NaN, write_json maps non-finite to
  // null, write_prometheus prints the literal "NaN" (valid Prometheus text).
  if (n <= 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::min(std::max(q, 0.0), 1.0);
  // Rank of the target sample, 1-based; walk the buckets until the running
  // total covers it, then interpolate within the landing bucket.
  const auto rank = static_cast<std::int64_t>(std::ceil(q * static_cast<double>(n)));
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::int64_t in_bucket = buckets_[i].load(std::memory_order_relaxed);
    if (in_bucket <= 0) continue;
    if (seen + in_bucket >= rank) {
      const double lo = i == 0 ? 0.0 : bucket_upper(i - 1);
      const double hi = bucket_upper(i);
      if (!std::isfinite(hi)) return lo;  // overflow bucket: report its floor
      const double frac =
          static_cast<double>(rank - seen) / static_cast<double>(in_bucket);
      return lo + (hi - lo) * frac;
    }
    seen += in_bucket;
  }
  return bucket_upper(kBuckets - 2);  // count says samples exist; be safe
}

std::map<std::string, double> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, c] : counters_) out[name] = static_cast<double>(c->value());
  for (const auto& [name, g] : gauges_) out[name] = g->value();
  for (const auto& [name, t] : timers_) {
    out[name + ".seconds"] = t->seconds();
    out[name + ".count"] = static_cast<double>(t->count());
    out[name + ".max"] = t->max_seconds();
  }
  for (const auto& [name, h] : histograms_) {
    out[name + ".count"] = static_cast<double>(h->count());
    out[name + ".sum"] = h->sum_seconds();
    out[name + ".p50"] = h->quantile(0.50);
    out[name + ".p99"] = h->quantile(0.99);
  }
  return out;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  const auto snap = snapshot();
  os << '{';
  bool first = true;
  for (const auto& [name, value] : snap) {
    if (!first) os << ',';
    first = false;
    os << json_quote(name) << ':' << json_number(value);
  }
  os << '}';
}

namespace {

/// Prometheus metric names admit [a-zA-Z0-9_:]; everything else (the dots in
/// our dotted names, dashes, parens from pattern labels) becomes '_'.
std::string mangle(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 7);
  out += "archex_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

void write_value(std::ostream& os, double v) {
  if (std::isnan(v)) {
    os << "NaN";
  } else if (std::isinf(v)) {
    os << (v > 0 ? "+Inf" : "-Inf");
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
  }
}

void write_sample(std::ostream& os, const std::string& name, const char* type,
                  double v) {
  os << "# TYPE " << name << ' ' << type << '\n' << name << ' ';
  write_value(os, v);
  os << '\n';
}

}  // namespace

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) {
    write_sample(os, mangle(name) + "_total", "counter",
                 static_cast<double>(c->value()));
  }
  for (const auto& [name, g] : gauges_) {
    write_sample(os, mangle(name), "gauge", g->value());
  }
  for (const auto& [name, t] : timers_) {
    const std::string base = mangle(name);
    write_sample(os, base + "_seconds_total", "counter", t->seconds());
    write_sample(os, base + "_count", "counter",
                 static_cast<double>(t->count()));
    write_sample(os, base + "_max_seconds", "gauge", t->max_seconds());
  }
  for (const auto& [name, h] : histograms_) {
    const std::string base = mangle(name);
    write_sample(os, base + "_seconds_sum", "counter", h->sum_seconds());
    write_sample(os, base + "_seconds_count", "counter",
                 static_cast<double>(h->count()));
    write_sample(os, base + "_p50_seconds", "gauge", h->quantile(0.50));
    write_sample(os, base + "_p99_seconds", "gauge", h->quantile(0.99));
  }
}

std::string prometheus_text(const MetricsRegistry& reg) {
  std::ostringstream os;
  reg.write_prometheus(os);
  return os.str();
}

}  // namespace archex::obs
