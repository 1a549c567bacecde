// The run structure every workload shares: the repeated set-up and the
// choice among its repetitions, the untraced rounds that measure the
// end-to-end metrics, the traced rounds, and helpers over per-thread workers
// that carry a span buffer and an open-loop schedule. A workload supplies
// only its set-up and how to run one closed-loop or open-loop window.
#pragma once

#include <algorithm>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cycles.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

// ---- set-up ----

/// Set-ups per run; the run keeps one whose learned plan is the most common.
inline constexpr unsigned kSetupReps = 5;

/// What one set-up repetition learned.
struct SetupRep {
  std::string signature;    ///< the part of the plan repetitions compare
  std::string plan;         ///< the whole learned plan, as printed
  std::uint64_t execs = 0;  ///< executions of the benchmark locks
};

/// The repetition a run keeps.
struct SetupChoice {
  std::size_t keep = 0;
  std::uint64_t converge_execs = 0;
  unsigned plan_flips = 0;  ///< repetitions that learned another signature
  std::string plan;
};

/// Runs `one(rep)` kSetupReps times, timing each call. A call builds a fresh
/// candidate (the caller keeps it by `rep`) and returns what it learned, or
/// nothing when its locks did not converge within the bound; the run has
/// then failed and nothing is returned. Otherwise sets setup_s to the median
/// set-up time and returns the last repetition with the most common
/// signature.
template <typename One>
std::optional<SetupChoice> choose_setup(RunResult& r, One&& one) {
  std::vector<double> times;
  std::vector<SetupRep> reps;
  for (unsigned rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    std::optional<SetupRep> s = one(rep);
    times.push_back(seconds_since(t0));
    if (!s) return std::nullopt;
    r.note("setup rep " + std::to_string(rep) + ": " +
           std::to_string(times.back()) + " s, plan " + s->plan);
    reps.push_back(std::move(*s));
  }
  std::vector<std::string> signatures;
  for (const SetupRep& s : reps) signatures.push_back(s.signature);
  SetupChoice c;
  c.keep = modal_index(signatures);
  c.converge_execs = reps[c.keep].execs;
  c.plan = reps[c.keep].plan;
  for (const std::string& s : signatures) {
    c.plan_flips += s != signatures[c.keep] ? 1 : 0;
  }
  r.note("kept setup rep " + std::to_string(c.keep) + " (modal plan " +
         signatures[c.keep] + ", " + std::to_string(c.plan_flips) + " of " +
         std::to_string(kSetupReps) +
         " repetitions learned another plan)");
  r.set("setup_s", median(times), "s");
  return c;
}

/// policy.converge_execs and policy.plan_flips of the kept set-up.
inline void put_setup_choice(RunResult& r, const SetupChoice& c) {
  r.set("policy.converge_execs", static_cast<double>(c.converge_execs),
        "count");
  r.set("policy.plan_flips", c.plan_flips, "count");
}

// ---- workers ----

/// What every workload's per-thread worker carries besides its own state.
struct WorkerBase {
  std::unique_ptr<SpanBuffer> spans;  ///< traced run only
  std::unique_ptr<OpenLoop> open;     ///< schedule of the last open window
};

template <typename Workers>
void enable_spans(Workers& workers, std::size_t capacity) {
  unsigned t = 0;
  for (auto& w : workers) w.spans = std::make_unique<SpanBuffer>(t++, capacity);
}

template <typename Workers>
std::vector<const SpanBuffer*> span_buffers(const Workers& workers) {
  std::vector<const SpanBuffer*> out;
  for (const auto& w : workers) {
    if (w.spans) out.push_back(w.spans.get());
  }
  return out;
}

/// Send-time lateness (ticks) of every request of the workers' last open
/// window; clears it.
template <typename Workers>
std::vector<std::uint64_t> take_lateness(Workers& workers) {
  std::vector<std::uint64_t> all;
  for (auto& w : workers) {
    if (!w.open) continue;
    auto& l = w.open->lateness();
    all.insert(all.end(), l.begin(), l.end());
    l.clear();
  }
  return all;
}

// ---- windows and rounds ----

/// Percentiles of one latency, each taken once per window (WindowPercentile),
/// named prefix + p + suffix, e.g. "op_p" 50 "_ns".
class WindowLatency {
 public:
  WindowLatency(const std::string& prefix, std::initializer_list<int> ps,
                const std::string& suffix) {
    for (const int p : ps) {
      pcts_.emplace_back(prefix + std::to_string(p) + suffix, p);
    }
  }
  void add(std::vector<std::uint64_t>& ticks) {
    for (WindowPercentile& p : pcts_) p.add(ticks);
  }
  template <typename Hist>
  void add_histogram(const Hist& h) {
    for (WindowPercentile& p : pcts_) p.add_histogram(h);
  }
  void put(RunResult& r, double ticks_per_unit, const char* unit) const {
    for (const WindowPercentile& p : pcts_) p.put(r, ticks_per_unit, unit);
  }

 private:
  std::vector<WindowPercentile> pcts_;
};

/// One measured window, as the run structure asks a workload for it.
struct Window {
  unsigned threads = 1;
  double seconds = 0.0;
  int cpu = -1;         ///< >= 0: the window's threads run on this CPU only
  bool sample = false;  ///< record latencies (closed loop: a sample of ops)
  bool trace = false;   ///< wrap a sample of the calls in spans
  WindowLatency* latency = nullptr;  ///< gets the recorded latencies (ticks)
};

/// Closed-loop and open-loop windows per round. Each window gives one value
/// of every latency percentile, and the metric is their median: a
/// percentile of one window swings by a tenth or more from the next with
/// the host, so many short windows pin it better than a few long ones.
inline constexpr unsigned kLatencyWindows = 5;

/// The untraced run. rounds_for(seconds) rounds, each of kLatencyWindows
/// pairs of a closed-loop window at `threads` threads and an open-loop
/// window offering `open_rate` requests/s on `open_threads` threads (45 %
/// and 35 % of the round), then, on each CPU in turn, a 1-thread
/// closed-loop window and a window of the workload's plain reference
/// (20 %): interleaving puts a slow stretch of a shared host into every
/// metric alike. `closed(window)` and `plain(window)` return the window's
/// slice rates; `open(window)` returns nothing. The closed and open windows
/// feed their latencies to window.latency when it is set. Sets
/// throughput_ops_s, throughput_1t_vs_plain and the op_p*_ns and req_p*_us
/// percentiles, and notes how well the open-loop generator kept its
/// schedule.
template <typename Workers, typename Closed, typename Open, typename Plain>
void run_end_to_end(RunResult& r, double seconds, unsigned threads,
                    unsigned open_threads, double open_rate, Workers& workers,
                    Closed&& closed, Open&& open, Plain&& plain) {
  const unsigned rounds = rounds_for(seconds);
  const double round_s = seconds / rounds;
  const std::vector<int> cpus = allowed_cpus();
  std::vector<double> tn, t1, vs_plain;
  std::vector<std::vector<double>> t1_by_cpu(cpus.size());
  // The end-to-end tails are p95 (closed loop) and p75 (open loop): the
  // higher ones swing with host preemption and lock parking from one window
  // or run to the next, and the open loop's p90 with the host's speed from
  // one run to the next; they appear in the report lines only.
  WindowLatency op("op_p", {50, 95, 99}, "_ns");
  WindowLatency req("req_p", {50, 75, 90, 95, 99}, "_us");
  std::vector<std::uint64_t> late;
  std::vector<double> end_lag;  // lateness of each thread's last request
  for (unsigned i = 0; i < rounds; ++i) {
    for (unsigned k = 0; k < kLatencyWindows; ++k) {
      append(tn, closed(Window{threads, 0.45 * round_s / kLatencyWindows, -1,
                               true, false, &op}));
      open(Window{open_threads, 0.35 * round_s / kLatencyWindows, -1, true,
                  false, &req});
      for (auto& w : workers) {
        if (w.open && !w.open->lateness().empty()) {
          end_lag.push_back(static_cast<double>(w.open->lateness().back()));
        }
      }
      const std::vector<std::uint64_t> l = take_lateness(workers);
      late.insert(late.end(), l.begin(), l.end());
    }
    // On each CPU, the library and the plain reference back to back (in
    // turn first): a shared host can run one CPU, or all of them, at half
    // speed for minutes, and both sides of a pair see the same speed.
    const Window one{1, 0.1 * round_s / cpus.size()};
    for (std::size_t c = 0; c < cpus.size(); ++c) {
      Window w = one;
      w.cpu = cpus[c];
      std::vector<double> lib, ref;
      if (i % 2 == 0) {
        lib = closed(w);
        ref = plain(w);
      } else {
        ref = plain(w);
        lib = closed(w);
      }
      append(t1_by_cpu[c], lib);
      vs_plain.push_back(median(lib) / median(ref));
    }
  }

  std::string by_cpu;
  for (std::size_t c = 0; c < cpus.size(); ++c) {
    append(t1, t1_by_cpu[c]);
    by_cpu += " cpu" + std::to_string(cpus[c]) + " " +
              std::to_string(median(t1_by_cpu[c]));
  }
  r.note("1-thread throughput, median per CPU:" + by_cpu + "; median " +
         std::to_string(median(t1)) + " ops/s over " +
         std::to_string(t1.size()) + " slices");
  const double tpns = ale::ticks_per_ns();
  r.set("throughput_ops_s", median(tn), "ops/s");
  // The 1-thread figure is a ratio to the plain reference measured beside
  // it: the host's speed cancels, the library's own cost does not.
  r.set("throughput_1t_vs_plain", median(vs_plain), "ratio");
  r.note("throughput: median of " + std::to_string(tn.size()) +
         " slices at " + std::to_string(threads) +
         " threads; 1 thread vs plain: median of " +
         std::to_string(vs_plain.size()) + " window pairs; over " +
         std::to_string(rounds) + " rounds");
  op.put(r, tpns, "ns");
  req.put(r, tpns * 1e3, "us");
  // The offered rate holds only while the generator keeps its schedule: a
  // thread that falls behind sends its last request of a window late by
  // the backlog it leaves, so that lateness must stay near 0.
  const double us = tpns * 1e3;
  const std::optional<double> late99 = percentile(late, 99);
  const double lag_max =
      end_lag.empty() ? 0.0 : *std::max_element(end_lag.begin(), end_lag.end());
  r.note("open loop: offered " + std::to_string(open_rate) + " req/s (" +
         std::to_string(open_rate / median(tn)) +
         " of the closed-loop throughput), " + std::to_string(late.size()) +
         " sent; mean gap " + std::to_string(1e6 * open_threads / open_rate) +
         " us per thread; generator lateness p99 " +
         (late99 ? std::to_string(*late99 / us) : std::string("n/a")) +
         " us; backlog at a window's end (lateness of a thread's last "
         "request) median " + std::to_string(median(end_lag) / us) +
         " us, max " + std::to_string(lag_max / us) + " us over " +
         std::to_string(end_lag.size()) + " thread-windows");
}

/// The traced run's measured windows: rounds_for(seconds) rounds of an
/// untraced and a traced closed-loop window at `threads` threads, filling
/// 75 % of the run. Sets trace.overhead_frac from their throughputs.
template <typename Closed>
void run_traced_pairs(RunResult& r, double seconds, unsigned threads,
                      Closed&& closed) {
  const unsigned rounds = rounds_for(seconds);
  const double window_s = 0.75 * seconds / rounds / 2;
  std::vector<double> untraced, traced;
  for (unsigned i = 0; i < rounds; ++i) {
    append(untraced, closed(Window{threads, window_s, -1, true, false}));
    append(traced, closed(Window{threads, window_s, -1, true, true}));
  }
  put_overhead(r, median(untraced), median(traced));
}

/// The traced run's last steps: an open-loop window on `open_threads`
/// threads over the last quarter of the run for loadgen.late_p99_us, then `check()` (the output checks,
/// which also see the open window's operations), the cost ladder, and the
/// Chrome trace of every span since `origin_ticks`.
template <typename Workers, typename Open, typename Check>
void finish_traced(RunResult& r, const Options& opt, unsigned open_threads,
                   Workers& workers, std::uint64_t origin_ticks, Open&& open,
                   Check&& check) {
  open(Window{open_threads, 0.25 * opt.seconds});
  std::vector<std::uint64_t> late = take_lateness(workers);
  put_percentile(r, "loadgen.late_p99_us", late, 99,
                 ale::ticks_per_ns() * 1e3, "us");
  check();
  SpanBuffer ladder_spans(static_cast<unsigned>(std::size(workers)), 1024);
  run_ladder(r, &ladder_spans);
  std::vector<const SpanBuffer*> all = span_buffers(workers);
  all.push_back(&ladder_spans);
  write_trace(r, opt.trace_path, all, origin_ticks);
}

}  // namespace perfbench
