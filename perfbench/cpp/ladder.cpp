// The cost ladder: one public entry point per rung, timed single-threaded
// as the minimum over batches of TSC deltas (the minimum filters out
// interrupts and preemption on a shared machine). perf_event_open is not
// relied on, so the unit is TSC ticks converted to ns, not instructions.
#include <limits>

#include "common/cycles.hpp"
#include "core/ale.hpp"
#include "htm/htm.hpp"
#include "policy/static_policy.hpp"
#include "stats/bfp_counter.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kBatch = 4096;
constexpr int kBatches = 48;

alignas(64) std::uint64_t g_cell = 0;

template <typename Op>
double min_batch_ns(SpanName name, SpanBuffer* spans, Op&& op) {
  for (int i = 0; i < kBatch; ++i) op();
  double best = std::numeric_limits<double>::max();
  for (int b = 0; b < kBatches; ++b) {
    const std::uint64_t t0 = ale::raw_ticks();
    for (int i = 0; i < kBatch; ++i) op();
    const std::uint64_t t1 = ale::raw_ticks();
    const double per = static_cast<double>(t1 - t0) / kBatch;
    if (per < best) best = per;
    if (spans != nullptr) {
      const std::uint64_t id = spans->next_id();
      spans->add(Span{t0, t1, id, 0, id, name});
    }
  }
  return best / ale::ticks_per_ns();
}

void tx_begin_commit(bool rw) {
  if (ale::htm::tx_begin().state != ale::htm::BeginState::kStarted) return;
  try {
    if (rw) ale::tx_store(g_cell, ale::tx_load(g_cell) + 1);
    ale::htm::tx_commit();
  } catch (const ale::htm::TxAbortException&) {
    // A best-effort abort (profile quirk); the next iteration begins anew.
  }
}

// The critical section the two elide rungs run: a SWOpt-capable read on
// most calls, an increment on every 16th.
void elide_once(ale::ElidableLock<>& lk, const ale::ComposedCsRequest& req,
                std::uint64_t i) {
  lk.elide(req, [i](ale::CsExec& cs) -> ale::CsBody {
    if (cs.in_swopt() || (i & 15) != 0) {
      (void)ale::tx_load(g_cell);
      return ale::CsBody::kDone;
    }
    ale::tx_store(g_cell, ale::tx_load(g_cell) + 1);
    return ale::CsBody::kDone;
  });
}

}  // namespace

void run_ladder(RunResult& r, SpanBuffer* spans) {
  {
    ale::TatasLock lk;
    r.set("ladder.sync.tatas_ns",
          min_batch_ns(SpanName::kLadderTatas, spans,
                       [&] {
                         lk.lock();
                         lk.unlock();
                       }),
          "ns");
  }
  r.set("ladder.htm.begin_commit_ns",
        min_batch_ns(SpanName::kLadderBeginCommit, spans,
                     [] { tx_begin_commit(false); }),
        "ns");
  r.set("ladder.htm.rw1_ns",
        min_batch_ns(SpanName::kLadderRw1, spans,
                     [] { tx_begin_commit(true); }),
        "ns");
  {
    ale::BfpCounter c;
    r.set("ladder.stats.bfp_inc_ns",
          min_batch_ns(SpanName::kLadderBfpInc, spans, [&] { c.inc(); }),
          "ns");
  }

  static ale::ScopeInfo scope("ladder.cs", /*has_swopt=*/true);
  {
    ale::StaticPolicy lock_only(
        ale::StaticPolicyConfig{.use_htm = false, .use_swopt = false});
    ale::ElidableLock<> lk("ladder.lockonly");
    lk.md().set_policy(&lock_only);
    const ale::ComposedCsRequest req = lk.compose(scope);
    std::uint64_t i = 0;
    r.set("ladder.core.elide_lock_ns",
          min_batch_ns(SpanName::kLadderElideLock, spans,
                       [&] { elide_once(lk, req, ++i); }),
          "ns");
  }
  {
    ale::AdaptivePolicy adaptive;
    ale::ElidableLock<> lk("ladder.adaptive");
    lk.md().set_policy(&adaptive);
    const ale::ComposedCsRequest req = lk.compose(scope);
    std::uint64_t i = 0;
    for (int round = 0; round < 400 && !adaptive.converged(lk.md());
         ++round) {
      for (int k = 0; k < 256; ++k) elide_once(lk, req, ++i);
    }
    if (!adaptive.converged(lk.md())) {
      r.fail("ladder lock did not converge");
    }
    r.set("ladder.core.elide_converged_ns",
          min_batch_ns(SpanName::kLadderElideConverged, spans,
                       [&] { elide_once(lk, req, ++i); }),
          "ns");
  }
}

}  // namespace perfbench
