// Shared plumbing of the benchmark binary: options, the metric sink, and
// the sliced closed-loop runner every workload measures throughput with.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/cacheline.hpp"
#include "measure.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  ///< Chrome trace output of the traced run
};

struct MetricValue {
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the correctness verdict, the attempted/failed
/// operation counts, every metric by name, and human-readable report lines
/// (printed before the result line; ratios appear there with their base).
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, MetricValue> metrics;
  std::vector<std::string> report;

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = MetricValue{value, unit};
  }
  void note(const std::string& line) { report.push_back(line); }
  void fail(const std::string& why) {
    correct = false;
    report.push_back("FAIL: " + why);
  }
};

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The CPUs this process may run on ({-1}, meaning unpinned, if unknown).
inline std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);
  return cpus;
}

/// Runs `chunk(thread)` repeatedly on `threads` threads for `slices` slices
/// of `slice_s` seconds. `chunk` does a small fixed batch of operations and
/// returns how many it completed. Returns ops/s of each slice, measured by
/// the controlling thread from the workers' published counts. With
/// `pin_cpu` >= 0 the workers run on that CPU only.
template <typename Chunk>
std::vector<double> run_sliced(unsigned threads, unsigned slices,
                               double slice_s, Chunk&& chunk,
                               int pin_cpu = -1) {
  std::atomic<bool> stop{false};
  std::vector<ale::CacheAligned<std::atomic<std::uint64_t>>> done(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      if (pin_cpu >= 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(pin_cpu, &one);
        // Best effort: an unpinned window measures the same thing.
        (void)pthread_setaffinity_np(pthread_self(), sizeof one, &one);
      }
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        n += chunk(t);
        done[t].value.store(n, std::memory_order_relaxed);
      }
    });
  }
  auto total = [&] {
    std::uint64_t s = 0;
    for (auto& d : done) s += d.value.load(std::memory_order_relaxed);
    return s;
  };
  std::vector<double> rates;
  auto t0 = std::chrono::steady_clock::now();
  std::uint64_t n0 = total();
  for (unsigned i = 0; i < slices; ++i) {
    std::this_thread::sleep_for(std::chrono::duration<double>(slice_s));
    const auto t1 = std::chrono::steady_clock::now();
    const std::uint64_t n1 = total();
    rates.push_back(static_cast<double>(n1 - n0) /
                    std::chrono::duration<double>(t1 - t0).count());
    t0 = t1;
    n0 = n1;
  }
  stop.store(true);
  for (auto& th : pool) th.join();
  return rates;
}

/// Runs `chunk(thread)` on `threads` threads until `done()` holds, polled
/// every 100 microseconds, or `bound_s` seconds pass. Returns whether
/// `done()` held.
template <typename Done, typename Chunk>
bool run_until(unsigned threads, double bound_s, Done&& done, Chunk&& chunk) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) chunk(t);
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  bool ok = false;
  while (!(ok = done()) && seconds_since(t0) < bound_s) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  stop.store(true);
  for (auto& th : pool) th.join();
  return ok;
}

inline void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

/// Slices per measured window: enough that a median of them shrugs off a
/// slice disturbed by another process, and that a run's short 1-thread
/// windows give at least ten slices beyond their 90th percentile at
/// --seconds 10; each slice still holds thousands of operations.
inline unsigned slices_for(double window_s) {
  const unsigned n = static_cast<unsigned>(window_s / 0.2);
  return n < 5 ? 5 : n;
}

}  // namespace perfbench
