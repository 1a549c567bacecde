// Per-layer metrics read from outside the library: telemetry snapshots
// taken before and after a measured window, differenced per granule family,
// plus the fixed metric catalogue the benchmark reports.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/mode.hpp"
#include "htm/abort.hpp"
#include "telemetry/snapshot.hpp"
#include "trace.hpp"

namespace perfbench {

/// Counters of a set of granules, summed (BFP estimates, ~6 % error each).
struct Family {
  double execs = 0.0;
  std::array<double, ale::kNumExecModes> attempts{};
  std::array<double, ale::kNumExecModes> successes{};
  std::array<double, ale::htm::kNumAbortCauses> aborts{};
  double swopt_failures = 0.0;
  double wait_ns_sum = 0.0;  ///< lock-wait mean x samples
  double wait_samples = 0.0;

  void add(const ale::telemetry::GranuleSnapshot& g);
  /// Counter growth from `before` to this snapshot.
  Family minus(const Family& before) const;
  double attempts_total() const;
  /// The mode with the most successes (the mode the family ran in).
  ale::ExecMode dominant_mode() const;
  Ratio share(ale::ExecMode m) const;
};

using GranulePred = std::function<bool(const ale::telemetry::LockSnapshot&,
                                       const ale::telemetry::GranuleSnapshot&)>;

Family sum_family(const ale::telemetry::Snapshot& snap,
                  const GranulePred& pred);

/// Snapshot of every lock without the event trace.
ale::telemetry::Snapshot snapshot_now();

/// True when `s` ends with `suffix`.
bool ends_with(const std::string& s, const std::string& suffix);
bool starts_with(const std::string& s, const std::string& prefix);

/// core.* and htm.* metrics of the window's family (all benchmark locks).
void put_core_htm(RunResult& r, const Family& w);

/// sync.* metrics: lock-wait mean of the window, park/wake deltas per k ops.
void put_sync(RunResult& r, const Family& w, std::uint64_t parks,
              std::uint64_t wakes, std::uint64_t ops);

/// Sets `name` to the p-th percentile of `ticks` in ticks_per_unit units;
/// fails the run when fewer than kMinTailSamples samples lie beyond it.
bool put_percentile(RunResult& r, const char* name,
                    std::vector<std::uint64_t>& ticks, double p,
                    double ticks_per_unit, const char* unit);

/// A latency percentile taken once per measured window; the metric is the
/// median over windows, so one window disturbed by another process on the
/// host moves it little. A window with too short a tail fails the run.
class WindowPercentile {
 public:
  WindowPercentile(std::string name, double p)
      : name_(std::move(name)), p_(p) {}

  void add(std::vector<std::uint64_t>& ticks) {
    record(percentile(ticks, p_), ticks.size());
  }
  template <typename Hist>
  void add_histogram(const Hist& h) {
    record(histogram_percentile(h, p_), h.total());
  }
  void put(RunResult& r, double ticks_per_unit, const char* unit) const;

 private:
  void record(std::optional<double> v, std::uint64_t n) {
    samples_ += n;
    if (v) {
      values_.push_back(*v);
    } else {
      ++refused_;
    }
  }

  std::string name_;
  double p_;
  std::vector<double> values_;
  std::uint64_t samples_ = 0;
  unsigned refused_ = 0;
};

/// trace.overhead_frac: 1 - traced / untraced closed-loop throughput.
void put_overhead(RunResult& r, double untraced, double traced);

/// Sets each listed metric to the median self time (ns) of its span name
/// and notes the span counts and drops; a listed name without spans fails
/// the run. Returns every name's samples.
std::map<SpanName, std::vector<double>> put_span_medians(
    RunResult& r, const std::vector<const SpanBuffer*>& buffers,
    std::span<const std::pair<SpanName, const char*>> metrics);

/// Writes the traced run's Chrome trace file (at most 50 000 spans) when a
/// path was given, and notes the outcome.
void write_trace(RunResult& r, const std::string& path,
                 const std::vector<const SpanBuffer*>& buffers,
                 std::uint64_t origin_ticks);

/// Name and unit of every metric the benchmark reports, in output order.
const std::vector<std::pair<std::string, std::string>>& end_to_end_catalogue();
const std::vector<std::pair<std::string, std::string>>& per_layer_catalogue();

/// Sets to 0 every per-layer metric of the layers a workload bypasses,
/// named by module prefix (e.g. "svc."). Every other per-layer metric must
/// be measured: a traced run that leaves one unset fails.
void bypass_layers(RunResult& r, std::initializer_list<const char*> layers);

}  // namespace perfbench
