// Process-wide registry of named counters, gauges and histograms.
//
// Instrumented components (artifact cache, task pool, monitors, AS-RTM,
// pipeline stages) count what they do through the global registry;
// benches print the registry next to their existing output so a figure
// run always carries its own accounting (cache hits vs. misses,
// quarantine events, monitor rejections, operating-point switches).
// docs/OBSERVABILITY.md lists every metric name the library emits.
//
// Cost model: looking a metric up creates it once under a mutex; call
// sites keep the returned reference (references stay valid for the
// registry's lifetime, across reset()).  A Counter increment is one
// relaxed atomic add — cheap enough to stay always-on in hot paths.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace socrates {

/// Monotonic event count (relaxed atomic; safe from any thread).
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Distribution summary: count/sum/min/max (and their mean).
class Histogram {
 public:
  void observe(double value);

  struct Snapshot {
    std::size_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
  };
  Snapshot snapshot() const;
  void reset();

 private:
  mutable std::mutex mu_;
  Snapshot data_;
};

class MetricsRegistry {
 public:
  /// Process-wide registry; the instrumented library code uses this one.
  static MetricsRegistry& global();

  /// Finds or creates the named metric.  The reference stays valid for
  /// the registry's lifetime; hot call sites should cache it.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Human-readable dump, one metric per line, names sorted.
  void write_text(std::ostream& out) const;
  /// CSV dump: header `metric,value`; histograms expand to
  /// name.count / name.sum / name.min / name.max / name.mean rows.
  void write_csv(std::ostream& out) const;

  /// Zeroes every metric in place (references stay valid).
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace socrates
