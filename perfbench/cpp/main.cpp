// ale_perfbench — the repository benchmark binary (see perfbench/README.md).
//
//   ale_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <chrome-trace.json>]
//
// Prints a human-readable report, then as its last line one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// The untraced run (--trace 0) reports the end-to-end metrics, the traced
// run (--trace 1) the per-layer metrics. Exits 1 when an output check
// fails, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/cycles.hpp"
#include "common/prng.hpp"
#include "htm/config.hpp"
#include "inject/inject.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

ale::AdaptivePolicy& install_adaptive() {
  ale::htm::Config c;
  c.backend = ale::htm::BackendKind::kEmulated;
  c.profile = *ale::htm::profile_by_name("haswell");
  ale::htm::configure(c);
  auto policy = std::make_unique<ale::AdaptivePolicy>();
  ale::AdaptivePolicy& ref = *policy;
  ale::set_global_policy(std::move(policy));
  return ref;
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "ale_perfbench: %s\nusage: ale_perfbench --workload "
               "<hashmap-read-mostly|hashmap-write-heavy|kv-service> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string trace_flag;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") opt.workload = v;
    else if (a == "--seed") opt.seed = std::strtoull(v.c_str(), nullptr, 0);
    else if (a == "--seconds") opt.seconds = std::atof(v.c_str());
    else if (a == "--trace") trace_flag = v;
    else if (a == "--trace-out") opt.trace_path = v;
    else return usage(("unknown flag " + a).c_str());
  }
  if (trace_flag != "0" && trace_flag != "1") return usage("--trace is 0 or 1");
  opt.trace = trace_flag == "1";
  if (!(opt.seconds >= 1.0 && opt.seconds <= 600.0)) {
    return usage("--seconds must be in [1, 600]");
  }

  // Every generated stream (keys, ops, arrival gaps, storm schedules, the
  // library's own per-thread PRNGs) derives from the run seed.
  ale::set_run_seed(opt.seed);
  ale::inject::reset();  // storms are the kv workload's to configure
  (void)ale::ticks_per_ns();
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);

  RunResult r;
  if (opt.workload == "hashmap-read-mostly") {
    r = run_hashmap(opt, MapMix{0.98, 0.01});
  } else if (opt.workload == "hashmap-write-heavy") {
    r = run_hashmap(opt, MapMix{0.40, 0.30});
  } else if (opt.workload == "kv-service") {
    r = run_kv(opt);
  } else {
    return usage(("unknown workload " + opt.workload).c_str());
  }

  const auto& catalogue =
      opt.trace ? per_layer_catalogue() : end_to_end_catalogue();
  std::string metrics;
  for (const auto& [name, unit] : catalogue) {
    const auto it = r.metrics.find(name);
    if (it == r.metrics.end() || !std::isfinite(it->second.value)) {
      r.fail("metric " + name + " was not measured");
      continue;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", it->second.value);
    if (!metrics.empty()) metrics += ",";
    // Names and units are fixed identifiers: nothing to escape.
    metrics += "\"" + name + "\":{\"value\":" + buf + ",\"unit\":\"" +
               unit + "\"}";
  }
  if (r.attempted == 0) r.fail("no operation was attempted");
  for (const std::string& line : r.report) std::printf("  %s\n", line.c_str());
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
      r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
