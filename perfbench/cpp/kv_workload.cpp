// kv-service: KvService with 8 shards x 8 slots over ShardedDb (72 locks:
// one readers-writer method lock and eight slot locks per shard). The outer
// method lock allows SWOpt, the inner slot lock HTM plus SWOpt for gets.
// 16384 Zipf(0.99) keys, half prefilled; 75 % get, 20 % set, 4 % scan,
// 1 % remove; hot-key storms and arrival bursts from the svc.hotkey
// and svc.arrival inject points. Three workers each generate requests and
// drain their own shards (three, not four, so the poller threads do not
// fight the rest of a 4-core host for cores).
//
// The run structure is rounds.hpp's. Phase A is the closed-loop window
// (kInflightCap requests outstanding, latency from enqueue to completion),
// phase B the open-loop window at kOpenRate req/s (latency from each
// request's scheduled arrival); the 1-thread window is one worker draining
// every shard.
#include <immintrin.h>

#include <array>
#include <memory>
#include <mutex>
#include <tuple>
#include <unordered_map>

#include "common/cycles.hpp"
#include "inject/inject.hpp"
#include "rounds.hpp"
#include "svc/kv_service.hpp"
#include "svc/traffic.hpp"
#include "sync/parking.hpp"

namespace perfbench {

namespace {

using ale::svc::KvService;
using ale::svc::LatencyRecorder;
using ale::svc::ReqKind;
using ale::svc::Request;
using ale::svc::RequestStream;
using ale::svc::TrafficItem;

constexpr unsigned kWorkers = 3;
constexpr std::size_t kShards = 8;
constexpr std::size_t kSlots = 8;
constexpr std::uint64_t kKeys = 16384;
constexpr double kConvergeBoundS = 15.0;
constexpr std::uint64_t kWave = 16;         // requests generated per turn
constexpr std::int64_t kInflightCap = 48;   // closed loop: outstanding
constexpr double kOpenRate = 100000.0;      // phase B offered req/s
constexpr std::uint64_t kSpanEvery = 32;    // traced: 1 request/drain in 32
constexpr std::size_t kSpanCapacity = 1u << 19;
constexpr const char* kStorms =
    "svc.hotkey:every=4096,x=256;svc.arrival:every=8192,x=64";

// Granule families (scope-name suffixes) of the learned plan.
constexpr const char* kFamilies[] = {".get.outer",   ".get.slot",
                                     ".batch.outer", ".batch.slot",
                                     ".scan.outer",  ".scan.slot"};

ale::svc::TrafficConfig traffic(double mean_gap_ticks) {
  ale::svc::TrafficConfig c;
  c.key_range = kKeys;
  c.zipf_theta = 0.99;
  c.read_frac = 0.75;
  c.update_frac = 0.20;
  c.scan_frac = 0.04;
  c.mean_gap_ticks = mean_gap_ticks;
  return c;
}

// The plain store the 1-thread window is measured against: the same kind
// of request stream applied straight to one std::unordered_map per shard
// behind a std::mutex, with no queue, batching, elision or policy. A scan
// copies the first 16 records of the key's shard.
class PlainKv {
 public:
  PlainKv() : stream_(traffic(1.0), kPlainStream) {
    for (std::uint64_t k = 0; k < kKeys; k += 2) {
      RequestStream::format_key(k, key_);
      stream_.format_value(k, value_);
      shard(key_).map.emplace(key_, value_);
    }
  }

  // The next kWave requests of the plain stream; returns how many.
  std::uint64_t chunk() {
    for (std::uint64_t i = 0; i < kWave; ++i) {
      const TrafficItem item = stream_.next();
      RequestStream::format_key(item.key, key_);
      Shard& s = shard(key_);
      const std::lock_guard<std::mutex> g(s.mu);
      switch (item.kind) {
        case ReqKind::kGet:
          if (const auto it = s.map.find(key_); it != s.map.end()) {
            out_ = it->second;
          }
          break;
        case ReqKind::kSet:
          stream_.format_value(item.key, value_);
          s.map.insert_or_assign(key_, value_);
          break;
        case ReqKind::kRemove:
          s.map.erase(key_);
          break;
        case ReqKind::kScan:
          scan_.clear();
          for (auto it = s.map.begin(); it != s.map.end() && scan_.size() < 16;
               ++it) {
            scan_.emplace_back(it->first, it->second);
          }
          break;
      }
    }
    return kWave;
  }

 private:
  // A stream id above those of the measured windows' streams.
  static constexpr std::uint64_t kPlainStream = 1u << 20;
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::string, std::string> map;
  };
  Shard& shard(const std::string& key) {
    return shards_[std::hash<std::string>{}(key) % kShards];
  }

  RequestStream stream_;
  std::array<Shard, kShards> shards_;
  std::string key_, value_, out_;
  std::vector<std::pair<std::string, std::string>> scan_;
};

struct alignas(64) Worker : WorkerBase {
  std::unique_ptr<RequestStream> stream;
  std::string key, value;  // formatting scratch
  std::uint64_t generated = 0, shed = 0, served = 0;
  std::uint64_t drains = 0;
  TrafficItem pending;  // open loop: the next request, drawn ahead
};

class KvBench {
 public:
  explicit KvBench(RunResult& r) : r_(r) {}

  // Set-up (construct, prefill, warm until all 72 locks converge),
  // repeated on a fresh service each time; keeps the service whose outer
  // plan is the most common. False when a set-up did not converge.
  bool setup(ale::AdaptivePolicy& policy) {
    std::vector<std::unique_ptr<KvService>> built;
    const auto choice =
        choose_setup(r_, [&](unsigned) -> std::optional<SetupRep> {
          ale::svc::SvcConfig cfg;
          cfg.num_shards = kShards;
          cfg.slots_per_shard = kSlots;
          cfg.name = "bench.kv";
          cfg.db.outer_swopt = true;
          cfg.db.inner_htm = true;
          cfg.db.inner_get_swopt = true;
          // No HTM on the outer method lock: a method section that commits
          // in HTM flattens its nested slot sections, so the slot locks see
          // too few executions to finish learning and set-up time doubled
          // at random. Elided reads that find their record complete
          // optimistically. All three are library options; see README.
          cfg.db.outer_htm = false;
          cfg.db.outer_swopt_hit_requires_lock = false;
          cfg.db.swopt_get_copies = true;
          svc_ = std::make_unique<KvService>(cfg);
          RequestStream fmt(traffic(1.0), 0);
          for (std::uint64_t k = 0; k < kKeys; k += 2) {
            RequestStream::format_key(k, key_);
            fmt.format_value(k, value_);
            svc_->set(key_, value_);
          }
          start_streams(kWorkers, 0, 1.0);
          const bool ok = run_until(
              kWorkers, kConvergeBoundS, [&] { return converged(policy); },
              [&](unsigned t) {
                return closed_chunk(t, kWorkers, nullptr, false);
              });
          drain_all();
          if (!ok) {
            r_.fail("kv-service locks did not all converge within the bound");
            return std::nullopt;
          }
          SetupRep rep;
          for_each_lock([&](ale::LockMd& md) {
            rep.execs += md.total_executions();
          });
          std::tie(rep.signature, rep.plan) = plan_text(policy);
          built.push_back(std::move(svc_));
          return rep;
        });
    if (!choice) return false;
    choice_ = *choice;
    svc_ = std::move(built[choice_.keep]);
    return true;
  }

  // Fresh per-worker streams for a phase; `salt` keeps phases' streams
  // distinct, `mean_gap` is the open-loop mean inter-arrival in ticks.
  void start_streams(unsigned workers, std::uint64_t salt, double mean_gap) {
    for (unsigned t = 0; t < workers; ++t) {
      if (workers_[t].stream) {
        storms_retired_ += workers_[t].stream->storm_requests();
      }
      workers_[t].stream = std::make_unique<RequestStream>(
          traffic(mean_gap), salt * 16 + t);
    }
  }

  bool converged(ale::AdaptivePolicy& policy) {
    bool all = true;
    for_each_lock([&](ale::LockMd& md) { all = all && policy.converged(md); });
    return all;
  }

  template <typename F>
  void for_each_lock(F&& f) {
    for (std::size_t s = 0; s < kShards; ++s) {
      f(svc_->db(s).method_lock_md());
      for (std::size_t i = 0; i < kSlots; ++i) f(svc_->db(s).slot_lock_md(i));
    }
  }

  // Per family, the progression most of its granules learned, with its
  // vote count; the signature is that progression for the outer get family
  // (the lock every request passes first).
  std::pair<std::string, std::string> plan_text(ale::AdaptivePolicy& policy) {
    std::string out, signature;
    for (const char* fam : kFamilies) {
      std::map<std::string, int> votes;
      for_each_lock([&](ale::LockMd& md) {
        md.for_each_granule([&](ale::GranuleMd& g) {
          if (!ends_with(g.context()->path(), fam)) return;
          std::string p = ale::to_string(policy.final_progression_of(md, g));
          if (policy.lazy_of(md, g)) p += "+lazy";
          ++votes[p];
        });
      });
      std::string best;
      int n = 0, total = 0;
      for (const auto& [p, c] : votes) {
        total += c;
        if (c > n) {
          best = p;
          n = c;
        }
      }
      out += std::string(fam + 1) + "=" + best + "(" + std::to_string(n) +
             "/" + std::to_string(total) + ") ";
      if (signature.empty()) signature = best;
    }
    return {signature, out};
  }

  // Median learned X over the granules of one family.
  double family_x(ale::AdaptivePolicy& policy, const char* fam) {
    std::vector<double> xs;
    for_each_lock([&](ale::LockMd& md) {
      md.for_each_granule([&](ale::GranuleMd& g) {
        if (ends_with(g.context()->path(), fam)) {
          xs.push_back(policy.effective_x_of(md, g));
        }
      });
    });
    return median(xs);
  }

  Request make_request(Worker& w, const TrafficItem& item) {
    Request req;
    req.kind = item.kind;
    RequestStream::format_key(item.key, w.key);
    req.key = w.key;
    if (item.kind == ReqKind::kSet) {
      w.stream->format_value(item.key, w.value);
      req.value = w.value;
    }
    if (item.kind == ReqKind::kScan) req.scan_limit = 16;
    return req;
  }

  // Drains worker t's shards until they are empty; returns served.
  std::uint64_t drain_own(unsigned t, unsigned workers, LatencyRecorder* rec,
                          bool trace) {
    Worker& w = workers_[t];
    const std::size_t lo = kShards * t / workers;
    const std::size_t hi = kShards * (t + 1) / workers;
    std::uint64_t served = 0;
    for (std::size_t s = lo; s < hi; ++s) {
      for (;;) {
        const std::uint64_t t0 = ale::raw_ticks();
        const std::size_t n = svc_->drain_shard(s, rec, t);
        if (n == 0) break;
        if (trace && ++w.drains % kSpanEvery == 0) {
          const std::uint64_t id = w.spans->next_id();
          w.spans->add(
              Span{t0, ale::raw_ticks(), id, 0, id, SpanName::kSvcDrain});
        }
        served += n;
      }
    }
    if (served != 0) {
      inflight_.fetch_sub(static_cast<std::int64_t>(served),
                          std::memory_order_relaxed);
      w.served += served;
    }
    return served;
  }

  // Closed loop: generate a wave while fewer than kInflightCap requests are
  // outstanding, then drain this worker's shards.
  std::uint64_t closed_chunk(unsigned t, unsigned workers, LatencyRecorder* rec,
                             bool trace) {
    Worker& w = workers_[t];
    if (inflight_.load(std::memory_order_relaxed) < kInflightCap) {
      std::int64_t accepted = 0;
      for (std::uint64_t i = 0; i < kWave; ++i) {
        const bool span = trace && w.generated % kSpanEvery == 0;
        const std::uint64_t t0 = span ? ale::raw_ticks() : 0;
        Request req = make_request(w, w.stream->next());
        const std::uint64_t sent = ale::raw_ticks();
        req.arrival_ticks = sent;
        const bool ok = svc_->enqueue(std::move(req));
        if (span) {
          // loadgen.request (generate + enqueue) is the parent of the
          // svc.enqueue span; both carry the request's id.
          const std::uint64_t enqueued = ale::raw_ticks();
          const std::uint64_t id = w.spans->next_id();
          w.spans->add(Span{sent, enqueued, w.spans->next_id(), id, id,
                            SpanName::kSvcEnqueue});
          w.spans->add(Span{t0, enqueued, id, 0, id, SpanName::kSvcRequest});
        }
        ++w.generated;
        if (ok) {
          ++accepted;
        } else {
          ++w.shed;
        }
      }
      inflight_.fetch_add(accepted, std::memory_order_relaxed);
    }
    return drain_own(t, workers, rec, trace);
  }

  // Open loop: every request whose scheduled arrival has passed is sent
  // with that arrival time; then this worker's shards are drained.
  std::uint64_t open_chunk(unsigned t, LatencyRecorder* rec) {
    Worker& w = workers_[t];
    std::int64_t accepted = 0;
    for (std::uint64_t now = ale::raw_ticks(); w.open->is_due(now);
         now = ale::raw_ticks()) {
      const TrafficItem item = w.pending;
      w.pending = w.stream->next();
      Request req = make_request(w, item);
      req.arrival_ticks = w.open->take(now, w.pending.gap_ticks);
      ++w.generated;
      if (svc_->enqueue(std::move(req))) {
        ++accepted;
      } else {
        ++w.shed;
      }
    }
    inflight_.fetch_add(accepted, std::memory_order_relaxed);
    const std::uint64_t served = drain_own(t, kWorkers, rec, false);
    if (served == 0) _mm_pause();
    return served;
  }

  // A phase-A window (closed loop) on a fresh stream per worker.
  std::vector<double> closed(const Window& win) {
    LatencyRecorder rec(kWorkers);
    LatencyRecorder* sample = win.sample ? &rec : nullptr;
    start_streams(win.threads, ++windows_, 1.0);
    const unsigned slices = slices_for(win.seconds);
    const auto rates = run_sliced(
        win.threads, slices, win.seconds / slices,
        [&](unsigned t) {
          return closed_chunk(t, win.threads, sample, win.trace);
        },
        win.cpu);
    drain_all();
    if (win.latency != nullptr) win.latency->add_histogram(rec.merged());
    return rates;
  }

  // A phase-B window (open loop at kOpenRate req/s over all workers).
  void open(const Window& win) {
    LatencyRecorder rec(kWorkers);
    const double mean_gap = ale::ticks_per_ns() * 1e9 * kWorkers / kOpenRate;
    start_streams(kWorkers, ++windows_, mean_gap);
    const std::uint64_t start =
        ale::raw_ticks() + static_cast<std::uint64_t>(ale::ticks_per_ns() * 2e6);
    for (unsigned t = 0; t < kWorkers; ++t) {
      Worker& w = workers_[t];
      w.pending = w.stream->next();
      w.open = std::make_unique<OpenLoop>(start + w.pending.gap_ticks);
    }
    const unsigned slices = slices_for(win.seconds);
    run_sliced(kWorkers, slices, win.seconds / slices, [&](unsigned t) {
      return open_chunk(t, win.sample ? &rec : nullptr);
    });
    drain_all();
    if (win.latency != nullptr) win.latency->add_histogram(rec.merged());
  }

  // A 1-thread window of the plain reference store.
  std::vector<double> plain(const Window& win) {
    const unsigned slices = slices_for(win.seconds);
    return run_sliced(
        win.threads, slices, win.seconds / slices,
        [&](unsigned) { return plain_.chunk(); }, win.cpu);
  }

  // Serves whatever is still queued (requests enqueued onto a shard after
  // its owner's last drain of a phase), so phases never leak into each
  // other. Not timed.
  void drain_all() {
    std::int64_t n = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      while (const std::size_t k = svc_->drain_shard(s, nullptr, 0)) {
        n += static_cast<std::int64_t>(k);
      }
    }
    inflight_.fetch_sub(n, std::memory_order_relaxed);
  }

  // Output checks: every present key holds its canonical value, and every
  // accepted request was served.
  void check(std::uint64_t attempted, std::uint64_t shed) {
    RequestStream fmt(traffic(1.0), 0);
    std::uint64_t present = 0, mismatches = 0;
    std::string out;
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      RequestStream::format_key(k, key_);
      if (!svc_->get(key_, out)) continue;
      ++present;
      fmt.format_value(k, value_);
      if (out != value_) ++mismatches;
    }
    const ale::svc::SvcStats st = svc_->stats();
    r_.note("checks: " + std::to_string(present) + " keys present, " +
            std::to_string(mismatches) + " value mismatches, " +
            std::to_string(st.enqueued) + " enqueued, " +
            std::to_string(st.drained) + " drained, " + std::to_string(shed) +
            " shed in measured phases");
    if (mismatches != 0) r_.fail("kv-service key holds a non-canonical value");
    if (st.enqueued != st.drained) {
      r_.fail("kv-service lost accepted requests");
    }
    r_.attempted = attempted;
    r_.failed = mismatches + shed;
    r_.set("ok_frac",
           1.0 - static_cast<double>(r_.failed) / static_cast<double>(attempted),
           "frac");
  }

  std::uint64_t generated() const {
    std::uint64_t n = 0;
    for (const auto& w : workers_) n += w.generated;
    return n;
  }
  std::uint64_t shed() const {
    std::uint64_t n = 0;
    for (const auto& w : workers_) n += w.shed;
    return n;
  }
  std::uint64_t served() const {
    std::uint64_t n = 0;
    for (const auto& w : workers_) n += w.served;
    return n;
  }
  // Storm requests generated so far, by current and replaced streams.
  std::uint64_t storm_requests() const {
    std::uint64_t n = storms_retired_;
    for (const auto& w : workers_) n += w.stream ? w.stream->storm_requests() : 0;
    return n;
  }
  KvService& svc() { return *svc_; }
  Worker (&workers())[kWorkers] { return workers_; }
  const SetupChoice& choice() const { return choice_; }

 private:
  RunResult& r_;
  std::unique_ptr<KvService> svc_;
  std::atomic<std::int64_t> inflight_{0};
  Worker workers_[kWorkers];
  std::string key_, value_;
  SetupChoice choice_;
  std::uint64_t windows_ = 0;  // measured windows so far: each a stream salt
  std::uint64_t storms_retired_ = 0;
  PlainKv plain_;
};

void run_untraced(KvBench& b, const Options& opt, RunResult& r) {
  const std::uint64_t gen0 = b.generated(), shed0 = b.shed();
  run_end_to_end(
      r, opt.seconds, kWorkers, kWorkers, kOpenRate, b.workers(),
      [&](const Window& w) { return b.closed(w); },
      [&](const Window& w) { b.open(w); },
      [&](const Window& w) { return b.plain(w); });
  b.check(b.generated() - gen0, b.shed() - shed0);
}

// Telemetry snapshots, parking counters and the service's own counters
// around the traced run's window pairs give the layer metrics; the spans
// give svc.enqueue_ns and svc.drain_ns.
void run_traced(KvBench& b, ale::AdaptivePolicy& policy, const Options& opt,
                RunResult& r) {
  const std::uint64_t gen0 = b.generated(), shed0 = b.shed();
  enable_spans(b.workers(), kSpanCapacity);
  auto in_kv = [](const ale::telemetry::LockSnapshot& l,
                  const ale::telemetry::GranuleSnapshot&) {
    return starts_with(l.name, "bench.kv");
  };
  auto lock_family = [](const ale::telemetry::Snapshot& snap,
                        const char* suffix) {
    return sum_family(snap, [&](const auto& l, const auto&) {
      return starts_with(l.name, "bench.kv") && ends_with(l.name, suffix);
    });
  };
  auto granule_family = [](const ale::telemetry::Snapshot& snap,
                           const char* suffix) {
    return sum_family(snap, [&](const auto& l, const auto& g) {
      return starts_with(l.name, "bench.kv") && ends_with(g.context, suffix);
    });
  };
  const ale::telemetry::Snapshot s0 = snapshot_now();
  const ale::svc::SvcStats st0 = b.svc().stats();
  const std::uint64_t parks0 = ale::parking::park_count();
  const std::uint64_t wakes0 = ale::parking::wake_count();
  const std::uint64_t served0 = b.served();
  const std::uint64_t storms0 = b.storm_requests();
  const std::uint64_t origin = ale::raw_ticks();
  run_traced_pairs(r, opt.seconds, kWorkers,
                   [&](const Window& w) { return b.closed(w); });
  const std::uint64_t storms = b.storm_requests() - storms0;
  const std::uint64_t ops = b.served() - served0;
  const std::uint64_t parks = ale::parking::park_count() - parks0;
  const std::uint64_t wakes = ale::parking::wake_count() - wakes0;
  const ale::svc::SvcStats st1 = b.svc().stats();
  const ale::telemetry::Snapshot s1 = snapshot_now();

  const Family w = sum_family(s1, in_kv).minus(sum_family(s0, in_kv));
  put_core_htm(r, w);
  put_sync(r, w, parks, wakes, ops);

  const struct {
    const char* name;
    const char* suffix;
  } levels[] = {{"kvdb.outer", ".methodLock"}, {"kvdb.inner", ".slotLock"}};
  for (const auto& lv : levels) {
    const Family f =
        lock_family(s1, lv.suffix).minus(lock_family(s0, lv.suffix));
    const std::string base = lv.name;
    const auto execs = static_cast<std::uint64_t>(f.execs);
    const Ratio htm{
        f.successes[static_cast<std::size_t>(ale::ExecMode::kHtm)] +
            f.successes[static_cast<std::size_t>(ale::ExecMode::kHtmLazy)],
        execs};
    const std::pair<std::string, Ratio> shares[] = {
        {base + ".share.lock", f.share(ale::ExecMode::kLock)},
        {base + ".share.htm", htm},
        {base + ".share.swopt", f.share(ale::ExecMode::kSwOpt)},
        {base + ".attempts_per_exec", Ratio{f.attempts_total(), execs}},
    };
    for (const auto& [name, q] : shares) {
      r.set(name, q.value(), ends_with(name, "exec") ? "attempts/exec" : "frac");
      r.note(name + " = " + q.describe());
    }
    if (base == "kvdb.inner") {
      const Ratio wait{f.wait_ns_sum, static_cast<std::uint64_t>(f.wait_samples)};
      r.set("kvdb.inner.lock_wait_ns", wait.value(), "ns");
      r.note("kvdb.inner.lock_wait_ns = " + wait.describe());
    }
  }

  put_setup_choice(r, b.choice());
  std::uint64_t relearns = 0;
  b.for_each_lock(
      [&](ale::LockMd& md) { relearns += policy.relearn_count_of(md); });
  r.set("policy.relearns", static_cast<double>(relearns), "count");
  // Gets run in the inner get granule; the service's inserts and removes
  // both ride the inner batch granule (apply_batch).
  const std::pair<const char*, const char*> ops_map[] = {
      {"get", ".get.slot"}, {"insert", ".batch.slot"}, {"remove", ".batch.slot"}};
  for (const auto& [op, suffix] : ops_map) {
    const Family f =
        granule_family(s1, suffix).minus(granule_family(s0, suffix));
    const std::string base = std::string("policy.") + op;
    r.set(base + ".mode", static_cast<double>(f.dominant_mode()), "mode");
    r.note(base + ".mode = " + ale::to_string(f.dominant_mode()) + " (" +
           (suffix + 1) + " granules)");
    r.set(base + ".x", b.family_x(policy, suffix), "attempts");
  }

  const std::pair<SpanName, const char*> spans[] = {
      {SpanName::kSvcEnqueue, "svc.enqueue_ns"},
      {SpanName::kSvcDrain, "svc.drain_ns"},
  };
  const auto summary = put_span_medians(r, span_buffers(b.workers()), spans);
  const double tpns = ale::ticks_per_ns();
  if (const auto it = summary.find(SpanName::kSvcRequest); it != summary.end()) {
    r.note("loadgen.request self time (generate + format) median " +
           std::to_string(median(it->second) / tpns) + " ns");
  }
  const Ratio fill{static_cast<double>(st1.batch_ops - st0.batch_ops),
                   st1.batches - st0.batches};
  r.set("svc.batch_fill", fill.value(), "ops/batch");
  r.note("svc.batch_fill = " + fill.describe());
  r.set("svc.storm_requests", static_cast<double>(storms), "count");

  finish_traced(
      r, opt, kWorkers, b.workers(), origin,
      [&](const Window& win) { b.open(win); },
      [&] {
        r.set("svc.shed", static_cast<double>(b.shed() - shed0), "count");
        b.check(b.generated() - gen0, b.shed() - shed0);
      });
}

}  // namespace

RunResult run_kv(const Options& opt) {
  RunResult r;
  ale::AdaptivePolicy& policy = install_adaptive();
  // Storm schedules derive from the run seed (set before this call).
  if (!ale::inject::configure(kStorms)) r.fail("storm spec rejected");
  r.note(std::string("storms: ") + kStorms);
  KvBench b(r);
  if (!b.setup(policy)) return r;
  r.note("learned plan: " + b.choice().plan);
  if (opt.trace) {
    bypass_layers(r, {"hashmap."});
    run_traced(b, policy, opt, r);
  } else {
    run_untraced(b, opt, r);
  }
  return r;
}

}  // namespace perfbench
