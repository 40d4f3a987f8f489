#include "obs/metrics.h"

#include <cmath>
#include <sstream>

namespace vdep::obs {

std::atomic<bool> MetricsRegistry::g_enabled{false};

Histogram::Histogram(std::vector<i64> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<i64>[bounds_.size() + 1]) {
  for (std::size_t k = 0; k <= bounds_.size(); ++k)
    buckets_[k].store(0, std::memory_order_relaxed);
}

void Histogram::reset() {
  for (std::size_t k = 0; k <= bounds_.size(); ++k)
    buckets_[k].store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
}

std::vector<i64> exp_buckets(i64 first, double factor, int n) {
  std::vector<i64> out;
  out.reserve(static_cast<std::size_t>(n));
  double v = static_cast<double>(first);
  i64 prev = 0;
  for (int k = 0; k < n; ++k) {
    i64 b = static_cast<i64>(std::llround(v));
    if (b <= prev) b = prev + 1;  // keep strictly ascending on tiny factors
    out.push_back(b);
    prev = b;
    v *= factor;
  }
  return out;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* r = new MetricsRegistry();  // never destroyed
  return *r;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& e : counters_) e->c.reset();
  for (auto& e : hists_) e->h->reset();
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help,
                                  const Label& label) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& e : counters_)
    if (e->name == name && e->label == label) return e->c;
  counters_.push_back(std::make_unique<CounterEntry>());
  counters_.back()->name = name;
  counters_.back()->help = help;
  counters_.back()->label = label;
  return counters_.back()->c;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<i64> bounds,
                                      const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& e : hists_)
    if (e->name == name) return *e->h;
  hists_.push_back(std::make_unique<HistEntry>());
  hists_.back()->name = name;
  hists_.back()->help = help;
  hists_.back()->h = std::make_unique<Histogram>(std::move(bounds));
  return *hists_.back()->h;
}

std::string MetricsRegistry::prometheus_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  // A family's header comes once, before its first member; the members
  // follow it whatever their registration order.
  for (std::size_t k = 0; k < counters_.size(); ++k) {
    const CounterEntry& first = *counters_[k];
    bool seen = false;
    for (std::size_t j = 0; j < k && !seen; ++j)
      seen = counters_[j]->name == first.name;
    if (seen) continue;
    if (!first.help.empty())
      os << "# HELP " << first.name << " " << first.help << "\n";
    os << "# TYPE " << first.name << " counter\n";
    for (std::size_t j = k; j < counters_.size(); ++j) {
      const CounterEntry& e = *counters_[j];
      if (e.name != first.name) continue;
      os << e.name;
      if (!e.label.key.empty())
        os << "{" << e.label.key << "=\"" << e.label.value << "\"}";
      os << " " << e.c.value() << "\n";
    }
  }
  for (const auto& e : hists_) {
    if (!e->help.empty()) os << "# HELP " << e->name << " " << e->help << "\n";
    os << "# TYPE " << e->name << " histogram\n";
    const Histogram& h = *e->h;
    i64 cum = 0;
    for (std::size_t k = 0; k < h.bounds().size(); ++k) {
      cum += h.bucket(k);
      os << e->name << "_bucket{le=\"" << h.bounds()[k] << "\"} " << cum
         << "\n";
    }
    cum += h.bucket(h.bounds().size());
    os << e->name << "_bucket{le=\"+Inf\"} " << cum << "\n";
    os << e->name << "_sum " << h.sum() << "\n";
    os << e->name << "_count " << h.count() << "\n";
  }
  return os.str();
}

std::string MetricsRegistry::json_lines() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const auto& e : counters_) {
    os << "{\"metric\":\"" << e->name << "\",\"type\":\"counter\",";
    if (!e->label.key.empty())
      os << "\"labels\":{\"" << e->label.key << "\":\"" << e->label.value
         << "\"},";
    os << "\"value\":" << e->c.value() << "}\n";
  }
  for (const auto& e : hists_) {
    const Histogram& h = *e->h;
    os << "{\"metric\":\"" << e->name << "\",\"type\":\"histogram\",\"le\":[";
    for (std::size_t k = 0; k < h.bounds().size(); ++k)
      os << (k ? "," : "") << h.bounds()[k];
    os << "],\"buckets\":[";
    for (std::size_t k = 0; k <= h.bounds().size(); ++k)
      os << (k ? "," : "") << h.bucket(k);
    os << "],\"sum\":" << h.sum() << ",\"count\":" << h.count() << "}\n";
  }
  return os.str();
}

}  // namespace vdep::obs
