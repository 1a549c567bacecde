// The benchmark's workloads and its single-thread cost ladder.
#pragma once

#include "common.hpp"
#include "policy/adaptive_policy.hpp"
#include "trace.hpp"

namespace perfbench {

/// Operation mix of the hashmap workloads (remove gets the remainder).
struct MapMix {
  double get = 0.98;
  double insert = 0.01;
};

/// hashmap-read-mostly / hashmap-write-heavy: the §5 single-lock AleHashMap.
RunResult run_hashmap(const Options& opt, const MapMix& mix);

/// kv-service: KvService over ShardedDb with nested readers-writer elision.
RunResult run_kv(const Options& opt);

/// Single-thread min-of-batches TSC timings of public entry points; fills
/// the ladder.* metrics. `spans` (traced run) gets one span per batch.
void run_ladder(RunResult& r, SpanBuffer* spans);

/// Installs the emulated haswell HTM profile and a fresh adaptive policy
/// as the global policy; returns that policy (owned by the library).
ale::AdaptivePolicy& install_adaptive();

}  // namespace perfbench
