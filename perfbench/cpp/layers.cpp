#include "layers.hpp"

#include <cstdio>

#include "common/cycles.hpp"

namespace perfbench {

using ale::ExecMode;
using ale::htm::AbortCause;

void Family::add(const ale::telemetry::GranuleSnapshot& g) {
  execs += static_cast<double>(g.executions);
  for (std::size_t m = 0; m < ale::kNumExecModes; ++m) {
    attempts[m] += static_cast<double>(g.modes[m].attempts);
    successes[m] += static_cast<double>(g.modes[m].successes);
  }
  for (std::size_t c = 0; c < ale::htm::kNumAbortCauses; ++c) {
    aborts[c] += static_cast<double>(g.abort_causes[c]);
  }
  swopt_failures += static_cast<double>(g.swopt_failures);
  wait_ns_sum +=
      g.lock_wait_mean_ns * static_cast<double>(g.lock_wait_samples);
  wait_samples += static_cast<double>(g.lock_wait_samples);
}

Family Family::minus(const Family& before) const {
  // BFP estimates can step back by a few percent between two reads; a
  // negative growth is clamped to 0.
  auto d = [](double a, double b) { return a > b ? a - b : 0.0; };
  Family out;
  out.execs = d(execs, before.execs);
  for (std::size_t m = 0; m < ale::kNumExecModes; ++m) {
    out.attempts[m] = d(attempts[m], before.attempts[m]);
    out.successes[m] = d(successes[m], before.successes[m]);
  }
  for (std::size_t c = 0; c < ale::htm::kNumAbortCauses; ++c) {
    out.aborts[c] = d(aborts[c], before.aborts[c]);
  }
  out.swopt_failures = d(swopt_failures, before.swopt_failures);
  out.wait_ns_sum = d(wait_ns_sum, before.wait_ns_sum);
  out.wait_samples = d(wait_samples, before.wait_samples);
  return out;
}

double Family::attempts_total() const {
  double s = 0.0;
  for (const double a : attempts) s += a;
  return s;
}

ExecMode Family::dominant_mode() const {
  std::size_t best = 0;
  for (std::size_t m = 1; m < ale::kNumExecModes; ++m) {
    if (successes[m] > successes[best]) best = m;
  }
  return static_cast<ExecMode>(best);
}

Ratio Family::share(ExecMode m) const {
  return Ratio{successes[static_cast<std::size_t>(m)],
               static_cast<std::uint64_t>(execs)};
}

Family sum_family(const ale::telemetry::Snapshot& snap,
                  const GranulePred& pred) {
  Family f;
  for (const auto& lock : snap.locks) {
    for (const auto& g : lock.granules) {
      if (pred(lock, g)) f.add(g);
    }
  }
  return f;
}

ale::telemetry::Snapshot snapshot_now() {
  ale::telemetry::SnapshotOptions opts;
  opts.include_events = false;
  return ale::telemetry::capture_snapshot(opts);
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

namespace {

void put_ratio(RunResult& r, const std::string& name, const Ratio& q,
               const char* unit) {
  r.set(name, q.value(), unit);
  r.note(name + " = " + q.describe());
}

}  // namespace

void put_core_htm(RunResult& r, const Family& w) {
  const auto execs = static_cast<std::uint64_t>(w.execs);
  put_ratio(r, "core.share.lock", w.share(ExecMode::kLock), "frac");
  put_ratio(r, "core.share.htm", w.share(ExecMode::kHtm), "frac");
  put_ratio(r, "core.share.htm_lazy", w.share(ExecMode::kHtmLazy), "frac");
  put_ratio(r, "core.share.swopt", w.share(ExecMode::kSwOpt), "frac");
  put_ratio(r, "core.attempts_per_exec", Ratio{w.attempts_total(), execs},
            "attempts/exec");
  put_ratio(r, "core.swopt_fail_per_exec", Ratio{w.swopt_failures, execs},
            "1/exec");
  r.set("core.execs", w.execs, "count");

  const auto htm = static_cast<std::size_t>(ExecMode::kHtm);
  const auto lazy = static_cast<std::size_t>(ExecMode::kHtmLazy);
  put_ratio(r, "htm.commit_ratio",
            Ratio{w.successes[htm] + w.successes[lazy],
                  static_cast<std::uint64_t>(w.attempts[htm] +
                                             w.attempts[lazy])},
            "frac");
  const std::pair<const char*, AbortCause> causes[] = {
      {"htm.abort.conflict_per_kexec", AbortCause::kConflict},
      {"htm.abort.capacity_per_kexec", AbortCause::kCapacity},
      {"htm.abort.locked_per_kexec", AbortCause::kLockedByOther},
      {"htm.abort.environmental_per_kexec", AbortCause::kEnvironmental},
  };
  for (const auto& [name, cause] : causes) {
    put_ratio(r, name,
              Ratio{w.aborts[static_cast<std::size_t>(cause)], execs, 1000.0},
              "1/kexec");
  }
}

void put_sync(RunResult& r, const Family& w, std::uint64_t parks,
              std::uint64_t wakes, std::uint64_t ops) {
  put_ratio(r, "sync.lock_wait_ns",
            Ratio{w.wait_ns_sum, static_cast<std::uint64_t>(w.wait_samples)},
            "ns");
  put_ratio(r, "sync.parks_per_kop",
            Ratio{static_cast<double>(parks), ops, 1000.0}, "1/kop");
  put_ratio(r, "sync.wakes_per_kop",
            Ratio{static_cast<double>(wakes), ops, 1000.0}, "1/kop");
}

bool put_percentile(RunResult& r, const char* name,
                    std::vector<std::uint64_t>& ticks, double p,
                    double ticks_per_unit, const char* unit) {
  const std::optional<double> v = percentile(ticks, p);
  if (!v) {
    r.fail(std::string(name) + ": too few samples beyond the percentile (" +
           std::to_string(ticks.size()) + " samples)");
    return false;
  }
  r.set(name, *v / ticks_per_unit, unit);
  r.note(std::string(name) + " over " + std::to_string(ticks.size()) +
         " samples");
  return true;
}

void WindowPercentile::put(RunResult& r, double ticks_per_unit,
                           const char* unit) const {
  if (refused_ != 0 || values_.empty()) {
    r.fail(name_ + ": too few samples beyond the percentile in " +
           std::to_string(refused_) + " window(s)");
    return;
  }
  r.set(name_, median(values_) / ticks_per_unit, unit);
  std::string windows;
  for (const double v : values_) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " %.4g", v / ticks_per_unit);
    windows += buf;
  }
  r.note(name_ + ": median over " + std::to_string(values_.size()) +
         " windows of " + std::to_string(samples_) + " samples; windows:" +
         windows);
}

void put_overhead(RunResult& r, double untraced, double traced) {
  const double v = untraced > 0 ? 1.0 - traced / untraced : 0.0;
  r.set("trace.overhead_frac", v, "frac");
  r.note("trace.overhead_frac = " + std::to_string(v) + " (traced " +
         std::to_string(traced) + " / untraced " + std::to_string(untraced) +
         " ops/s)");
}

std::map<SpanName, std::vector<double>> put_span_medians(
    RunResult& r, const std::vector<const SpanBuffer*>& buffers,
    std::span<const std::pair<SpanName, const char*>> metrics) {
  auto summary = summarize(buffers);
  std::uint64_t dropped = 0;
  for (const SpanBuffer* b : buffers) dropped += b->dropped();
  r.note("spans dropped beyond buffer capacity: " + std::to_string(dropped));
  for (const auto& [name, metric] : metrics) {
    const auto it = summary.find(name);
    if (it == summary.end()) {
      r.fail(std::string(metric) + ": no " + to_string(name) +
             " spans were recorded");
      continue;
    }
    r.set(metric, median(it->second) / ale::ticks_per_ns(), "ns");
    r.note(std::string(metric) + " over " + std::to_string(it->second.size()) +
           " spans");
  }
  return summary;
}

void write_trace(RunResult& r, const std::string& path,
                 const std::vector<const SpanBuffer*>& buffers,
                 std::uint64_t origin_ticks) {
  if (path.empty()) return;
  if (write_chrome_trace(path, buffers, origin_ticks,
                         ale::ticks_per_ns() * 1e3, 50000)) {
    r.note("chrome trace: " + path);
  } else {
    r.note("chrome trace: cannot write " + path);
  }
}

const std::vector<std::pair<std::string, std::string>>&
end_to_end_catalogue() {
  static const std::vector<std::pair<std::string, std::string>> k = {
      {"throughput_ops_s", "ops/s"}, {"throughput_1t_vs_plain", "ratio"},
      {"op_p50_ns", "ns"},           {"op_p95_ns", "ns"},
      {"req_p50_us", "us"},          {"req_p75_us", "us"},
      {"ok_frac", "frac"},           {"setup_s", "s"},
  };
  return k;
}

const std::vector<std::pair<std::string, std::string>>&
per_layer_catalogue() {
  static const std::vector<std::pair<std::string, std::string>> k = {
      {"core.share.lock", "frac"},
      {"core.share.htm", "frac"},
      {"core.share.htm_lazy", "frac"},
      {"core.share.swopt", "frac"},
      {"core.attempts_per_exec", "attempts/exec"},
      {"core.swopt_fail_per_exec", "1/exec"},
      {"core.execs", "count"},
      {"htm.commit_ratio", "frac"},
      {"htm.abort.conflict_per_kexec", "1/kexec"},
      {"htm.abort.capacity_per_kexec", "1/kexec"},
      {"htm.abort.locked_per_kexec", "1/kexec"},
      {"htm.abort.environmental_per_kexec", "1/kexec"},
      {"sync.lock_wait_ns", "ns"},
      {"sync.parks_per_kop", "1/kop"},
      {"sync.wakes_per_kop", "1/kop"},
      {"policy.converge_execs", "count"},
      {"policy.relearns", "count"},
      {"policy.plan_flips", "count"},
      {"policy.get.mode", "mode"},
      {"policy.insert.mode", "mode"},
      {"policy.remove.mode", "mode"},
      {"policy.get.x", "attempts"},
      {"policy.insert.x", "attempts"},
      {"policy.remove.x", "attempts"},
      {"hashmap.get_ns", "ns"},
      {"hashmap.insert_ns", "ns"},
      {"hashmap.remove_ns", "ns"},
      {"ladder.sync.tatas_ns", "ns"},
      {"ladder.htm.begin_commit_ns", "ns"},
      {"ladder.htm.rw1_ns", "ns"},
      {"ladder.stats.bfp_inc_ns", "ns"},
      {"ladder.core.elide_lock_ns", "ns"},
      {"ladder.core.elide_converged_ns", "ns"},
      {"kvdb.outer.share.lock", "frac"},
      {"kvdb.outer.share.htm", "frac"},
      {"kvdb.outer.share.swopt", "frac"},
      {"kvdb.inner.share.lock", "frac"},
      {"kvdb.inner.share.htm", "frac"},
      {"kvdb.inner.share.swopt", "frac"},
      {"kvdb.outer.attempts_per_exec", "attempts/exec"},
      {"kvdb.inner.attempts_per_exec", "attempts/exec"},
      {"kvdb.inner.lock_wait_ns", "ns"},
      {"svc.enqueue_ns", "ns"},
      {"svc.drain_ns", "ns"},
      {"svc.batch_fill", "ops/batch"},
      {"svc.shed", "count"},
      {"svc.storm_requests", "count"},
      {"loadgen.late_p99_us", "us"},
      {"trace.overhead_frac", "frac"},
  };
  return k;
}

void bypass_layers(RunResult& r, std::initializer_list<const char*> layers) {
  for (const char* layer : layers) {
    bool known = false;
    for (const auto& [name, unit] : per_layer_catalogue()) {
      if (!starts_with(name, layer)) continue;
      r.set(name, 0.0, unit.c_str());
      known = true;
    }
    if (!known) r.fail(std::string("no per-layer metric of layer ") + layer);
  }
}

}  // namespace perfbench
