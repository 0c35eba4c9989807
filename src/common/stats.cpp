#include "common/stats.h"

#include <cmath>
#include <stdexcept>

namespace tamper::common {

double RunningMoments::stddev() const noexcept { return std::sqrt(variance()); }

void EmpiricalCdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double EmpiricalCdf::cdf(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(std::distance(samples_.begin(), it)) /
         static_cast<double>(samples_.size());
}

double EmpiricalCdf::quantile(double q) const {
  if (samples_.empty()) throw std::out_of_range("EmpiricalCdf::quantile on empty set");
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(samples_.size() - 1) + 0.5);
  return samples_[std::min(idx, samples_.size() - 1)];
}

std::vector<std::pair<double, double>> EmpiricalCdf::curve(std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (samples_.empty() || points == 0) return out;
  ensure_sorted();
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double q = static_cast<double>(i) / static_cast<double>(points - 1 == 0 ? 1 : points - 1);
    out.emplace_back(quantile(q), q);
  }
  return out;
}

const std::vector<double>& EmpiricalCdf::sorted_samples() const {
  ensure_sorted();
  return samples_;
}

double EmpiricalCdf::min() const {
  if (samples_.empty()) throw std::out_of_range("EmpiricalCdf::min on empty set");
  ensure_sorted();
  return samples_.front();
}

double EmpiricalCdf::max() const {
  if (samples_.empty()) throw std::out_of_range("EmpiricalCdf::max on empty set");
  ensure_sorted();
  return samples_.back();
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
  if (bins == 0 || !(hi > lo)) throw std::invalid_argument("Histogram: bad range/bins");
}

void Histogram::add(double x, std::uint64_t weight) noexcept {
  std::size_t idx;
  if (x < lo_) {
    idx = 0;
  } else if (x >= hi_) {
    idx = counts_.size() - 1;
  } else {
    idx = static_cast<std::size_t>((x - lo_) / width_);
    idx = std::min(idx, counts_.size() - 1);
  }
  counts_[idx] += weight;
  total_ += weight;
}

double Histogram::bin_low(std::size_t i) const noexcept {
  return lo_ + width_ * static_cast<double>(i);
}
double Histogram::bin_high(std::size_t i) const noexcept {
  return lo_ + width_ * static_cast<double>(i + 1);
}

Regression linear_regression(const std::vector<double>& x, const std::vector<double>& y) {
  Regression r;
  r.n = std::min(x.size(), y.size());
  if (r.n < 2) return r;
  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < r.n; ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / static_cast<double>(r.n);
  const double my = sy / static_cast<double>(r.n);
  double sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < r.n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx <= 0.0) return r;
  r.slope = sxy / sxx;
  r.intercept = my - r.slope * mx;
  r.r2 = syy <= 0.0 ? 1.0 : (sxy * sxy) / (sxx * syy);
  return r;
}

std::vector<std::pair<std::string, std::uint64_t>> LabelCounter::top(std::size_t k) const {
  std::vector<std::pair<std::string, std::uint64_t>> v(counts_.begin(), counts_.end());
  std::stable_sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (v.size() > k) v.resize(k);
  return v;
}

}  // namespace tamper::common
