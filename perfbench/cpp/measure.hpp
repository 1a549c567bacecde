// Measuring helpers of the repository benchmark: the percentile rule,
// ratios that carry their base, open-loop request timing, the choice among
// repeated set-ups, and the round count. Header-only and free of library dependencies so
// perfbench/test/measure_test.cpp can pin their arithmetic directly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// ---- percentiles ----

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the tail is one or two outliers, not a measure.
inline constexpr std::uint64_t kMinTailSamples = 10;

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
inline std::uint64_t samples_beyond(std::uint64_t n, double p) {
  if (n == 0) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const auto r = static_cast<std::uint64_t>(rank < 1.0 ? 1.0 : rank);
  return r >= n ? 0 : n - r;
}

inline bool percentile_supported(std::uint64_t n, double p) {
  return samples_beyond(n, p) >= kMinTailSamples;
}

/// Nearest-rank p-th percentile of `samples` (reordered in place), or
/// nothing when fewer than kMinTailSamples samples lie beyond it.
template <typename T>
std::optional<double> percentile(std::vector<T>& samples, double p) {
  const std::uint64_t n = samples.size();
  if (!percentile_supported(n, p)) return std::nullopt;
  const std::uint64_t idx = n - samples_beyond(n, p) - 1;
  std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
  return static_cast<double>(samples[idx]);
}

/// Same rule for a histogram-like source that knows its own sample count
/// and computes percentiles itself (svc::LatencyHistogram).
template <typename Hist>
std::optional<double> histogram_percentile(const Hist& h, double p) {
  if (!percentile_supported(h.total(), p)) return std::nullopt;
  return h.percentile(p);
}

/// Median of a small set of per-slice or per-repetition values (copied).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Index of the representative among repeated set-ups: the last one whose
/// signature (its learned plan) is the most common. 0 for an empty list.
inline std::size_t modal_index(const std::vector<std::string>& signatures) {
  std::size_t best = 0, best_count = 0;
  for (std::size_t i = 0; i < signatures.size(); ++i) {
    const auto n = static_cast<std::size_t>(
        std::count(signatures.begin(), signatures.end(), signatures[i]));
    if (n >= best_count) {
      best = i;
      best_count = n;
    }
  }
  return best;
}

/// Measured rounds in a run of `seconds`: about two seconds each, at least
/// three. Each round runs every kind of window of the workload, so a slow
/// stretch of a shared host lands in all metrics alike.
inline unsigned rounds_for(double seconds) {
  const auto n = static_cast<unsigned>(seconds / 2.0 + 0.5);
  return n < 3 ? 3 : n;
}

// ---- ratios ----

/// A ratio never travels without the count it was taken over: `num` events
/// per `base` units (executions, ops, batches). value() is 0 over an empty
/// base; describe() renders "value (num/base)" for the run report.
struct Ratio {
  double num = 0.0;
  std::uint64_t base = 0;
  double scale = 1.0;  ///< e.g. 1000 for per-k ratios

  double value() const {
    return base == 0 ? 0.0 : scale * num / static_cast<double>(base);
  }
  std::string describe() const {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.6g (%.6g/%llu)", value(), num,
                  static_cast<unsigned long long>(base));
    return buf;
  }
};

// ---- open-loop timing ----

/// Schedule of one open-loop generator. Requests are *due* at fixed times
/// that do not depend on how fast the system answers; a request's latency
/// runs from its due time, so a stall delays (and is charged to) every
/// request scheduled behind it — no coordinated omission. The generator's
/// own lateness (send time minus due time) is recorded separately.
class OpenLoop {
 public:
  explicit OpenLoop(std::uint64_t start_ticks) : next_due_(start_ticks) {}

  std::uint64_t next_due() const { return next_due_; }
  bool is_due(std::uint64_t now) const { return now >= next_due_; }

  /// Take the request that is due, sent at `now`; the next one falls due
  /// `gap_ticks` after this one's due time, however late `now` is. Returns
  /// the due time, the value latency is measured from.
  std::uint64_t take(std::uint64_t now, std::uint64_t gap_ticks) {
    const std::uint64_t due = next_due_;
    lateness_.push_back(now > due ? now - due : 0);
    next_due_ = due + gap_ticks;
    return due;
  }

  /// Send-time lateness of every request taken, in ticks.
  std::vector<std::uint64_t>& lateness() { return lateness_; }

 private:
  std::uint64_t next_due_;
  std::vector<std::uint64_t> lateness_;
};

/// Latency of one open-loop request: completion minus due time.
inline std::uint64_t open_loop_latency(std::uint64_t due,
                                       std::uint64_t done) {
  return done > due ? done - due : 0;
}

}  // namespace perfbench
