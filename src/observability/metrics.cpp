#include "observability/metrics.hpp"

#include <algorithm>
#include <ostream>

namespace socrates {

void Histogram::observe(double value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (data_.count == 0) {
    data_.min = data_.max = value;
  } else {
    data_.min = std::min(data_.min, value);
    data_.max = std::max(data_.max, value);
  }
  ++data_.count;
  data_.sum += value;
}

Histogram::Snapshot Histogram::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return data_;
}

void Histogram::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  data_ = Snapshot{};
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry kRegistry;
  return kRegistry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.try_emplace(std::string(name)).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.try_emplace(std::string(name)).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.try_emplace(std::string(name)).first->second;
}

void MetricsRegistry::write_text(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_)
    out << "counter " << name << " = " << c.value() << '\n';
  for (const auto& [name, g] : gauges_)
    out << "gauge   " << name << " = " << g.value() << '\n';
  for (const auto& [name, h] : histograms_) {
    const auto s = h.snapshot();
    out << "hist    " << name << " count=" << s.count << " sum=" << s.sum
        << " min=" << s.min << " max=" << s.max << " mean=" << s.mean() << '\n';
  }
}

void MetricsRegistry::write_csv(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "metric,value\n";
  for (const auto& [name, c] : counters_) out << name << ',' << c.value() << '\n';
  for (const auto& [name, g] : gauges_) out << name << ',' << g.value() << '\n';
  for (const auto& [name, h] : histograms_) {
    const auto s = h.snapshot();
    out << name << ".count," << s.count << '\n';
    out << name << ".sum," << s.sum << '\n';
    out << name << ".min," << s.min << '\n';
    out << name << ".max," << s.max << '\n';
    out << name << ".mean," << s.mean() << '\n';
  }
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

}  // namespace socrates
