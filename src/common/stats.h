// Streaming statistics used by the analysis layer: running moments,
// empirical CDFs, fixed-bin histograms, counters keyed by label, and
// ordinary least squares for the Fig. 7 regression slopes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tamper::common {

/// Welford running mean / variance.
class RunningMoments {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }
  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double variance() const noexcept {
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
  }
  [[nodiscard]] double stddev() const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Collects samples and answers quantile / CDF queries (exact, sorts lazily).
class EmpiricalCdf {
 public:
  void add(double x) { samples_.push_back(x); sorted_ = false; }
  void reserve(std::size_t n) { samples_.reserve(n); }
  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }

  /// Fraction of samples <= x.
  [[nodiscard]] double cdf(double x) const;
  /// Value at quantile q in [0, 1].
  [[nodiscard]] double quantile(double q) const;
  /// (x, F(x)) pairs at `points` evenly spaced quantiles, for plotting.
  [[nodiscard]] std::vector<std::pair<double, double>> curve(std::size_t points) const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Samples in ascending order — for serialization; order is not semantic.
  [[nodiscard]] const std::vector<double>& sorted_samples() const;
  /// Replace contents (restore path; pair of sorted_samples()).
  void assign(std::vector<double> samples) {
    samples_ = std::move(samples);
    sorted_ = false;
  }
  /// Add `other`'s samples: the multiset union.
  void merge(const EmpiricalCdf& other) {
    samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
    sorted_ = sorted_ && other.samples_.empty();
  }

 private:
  void ensure_sorted() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Fixed-width-bin histogram over [lo, hi); out-of-range values clamp to
/// the edge bins so totals are preserved.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x, std::uint64_t weight = 1) noexcept;
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t bin_count() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t bin(std::size_t i) const noexcept { return counts_[i]; }
  [[nodiscard]] double bin_low(std::size_t i) const noexcept;
  [[nodiscard]] double bin_high(std::size_t i) const noexcept;

 private:
  double lo_, hi_, width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Ordinary least squares y = slope * x + intercept.
struct Regression {
  double slope = 0.0;
  double intercept = 0.0;
  double r2 = 0.0;
  std::size_t n = 0;
};
[[nodiscard]] Regression linear_regression(const std::vector<double>& x,
                                           const std::vector<double>& y);

/// Counter over string labels with stable iteration order.
class LabelCounter {
 public:
  void add(const std::string& label, std::uint64_t count = 1) {
    counts_[label] += count;
    total_ += count;
  }
  [[nodiscard]] std::uint64_t get(const std::string& label) const {
    const auto it = counts_.find(label);
    return it == counts_.end() ? 0 : it->second;
  }
  [[nodiscard]] double fraction(const std::string& label) const {
    return total_ == 0 ? 0.0 : static_cast<double>(get(label)) / static_cast<double>(total_);
  }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& items() const noexcept {
    return counts_;
  }
  /// Labels sorted by descending count (ties broken lexicographically).
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> top(std::size_t k) const;

 private:
  std::map<std::string, std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Percentage helper with divide-by-zero guard.
[[nodiscard]] inline double percent(std::uint64_t part, std::uint64_t whole) noexcept {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace tamper::common
