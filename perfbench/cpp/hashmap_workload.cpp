// hashmap-read-mostly / hashmap-write-heavy: the §3/§5 single-lock
// AleHashMap (1024 buckets, 4096 uniform keys, half prefilled) under the
// adaptive policy on the emulated haswell profile. The run structure
// (repeated set-up, rounds of windows, traced window pairs) is rounds.hpp's;
// this file supplies the map's set-up, its closed- and open-loop windows
// and its output checks.
#include <immintrin.h>

#include <bit>
#include <cmath>
#include <memory>
#include <mutex>
#include <utility>

#include "common/cycles.hpp"
#include "common/prng.hpp"
#include "hashmap/hashmap.hpp"
#include "rounds.hpp"
#include "sync/parking.hpp"

namespace perfbench {

namespace {

constexpr unsigned kThreads = 4;
constexpr std::size_t kBuckets = 1024;
constexpr std::uint64_t kKeys = 4096;
constexpr std::size_t kRing = std::size_t{1} << 16;  // ops per thread stream
constexpr double kConvergeBoundS = 10.0;
constexpr std::uint64_t kChunk = 64;
constexpr std::uint64_t kSampleEvery = 8;  // latency sample: 1 op in 8
constexpr std::uint64_t kSpanEvery = 16;   // traced: 1 op in 16 gets a span
constexpr double kOpenRate = 400000.0;     // open-loop ops/s, all threads
// The open loop runs on one thread fewer than the host has cores: with a
// generator on every core, any other runnable task (one busy process was
// enough) timeslices one generator, and every request queued behind it
// waits milliseconds, which moved the p90 latency from 1 us to 2.4 ms.
constexpr unsigned kOpenThreads = kThreads - 1;
constexpr std::size_t kSpanCapacity = 1u << 19;

enum OpKind : std::uint64_t { kGet = 0, kInsert = 1, kRemove = 2 };

// Per-thread operation stream: key << 2 | kind, derived from the run seed.
std::vector<std::uint64_t> make_ring(unsigned thread, const MapMix& mix) {
  ale::Xoshiro256 rng(ale::derive_seed(0x6d6170u /*"map"*/, thread));
  std::vector<std::uint64_t> ring(kRing);
  for (auto& op : ring) {
    const std::uint64_t key = rng.next_below(kKeys);
    const double u = rng.next_double();
    const OpKind kind = u < mix.get                ? kGet
                        : u < mix.get + mix.insert ? kInsert
                                                   : kRemove;
    op = key << 2 | kind;
  }
  return ring;
}

struct Tally {
  std::uint64_t ops = 0, hits = 0, inserted = 0, removed = 0;
  std::uint64_t mismatches = 0;  // a hit whose value is not its key

  void add(const Tally& o) {
    ops += o.ops;
    hits += o.hits;
    inserted += o.inserted;
    removed += o.removed;
    mismatches += o.mismatches;
  }
};

struct alignas(64) Worker : WorkerBase {
  std::vector<std::uint64_t> ring;
  std::uint64_t pos = 0;
  Tally tally;
  std::vector<std::uint64_t> op_lat;   // sampled closed-loop op ticks
  std::vector<std::uint64_t> req_lat;  // open-loop due-to-done ticks
  ale::Xoshiro256 gap_rng{0};
  std::uint64_t plain_pos = 0;  // the plain reference's place in the ring
  Tally plain_tally;            // never checked: the reference's own ops
};

SpanName span_of(std::uint64_t op) {
  switch (op & 3) {
    case kGet: return SpanName::kHashGet;
    case kInsert: return SpanName::kHashInsert;
    default: return SpanName::kHashRemove;
  }
}

// The plain map the 1-thread windows are measured against: the same
// buckets, bucket hash and operations behind one std::mutex, with no
// elision, statistics or policy. A removed node is freed at once.
class PlainMap {
 public:
  explicit PlainMap(std::size_t buckets)
      : heads_(buckets, nullptr),
        shift_(64 - static_cast<unsigned>(std::countr_zero(buckets))) {}
  PlainMap(const PlainMap&) = delete;
  PlainMap& operator=(const PlainMap&) = delete;
  ~PlainMap() {
    for (Node* n : heads_) {
      while (n != nullptr) delete std::exchange(n, n->next);
    }
  }

  bool get(std::uint64_t key, std::uint64_t& value) {
    const std::lock_guard<std::mutex> g(mu_);
    for (const Node* n = heads_[index(key)]; n != nullptr; n = n->next) {
      if (n->key == key) {
        value = n->value;
        return true;
      }
    }
    return false;
  }
  bool insert(std::uint64_t key, std::uint64_t value) {
    const std::lock_guard<std::mutex> g(mu_);
    Node*& head = heads_[index(key)];
    for (const Node* n = head; n != nullptr; n = n->next) {
      if (n->key == key) return false;
    }
    head = new Node{key, value, head};
    return true;
  }
  bool remove(std::uint64_t key) {
    const std::lock_guard<std::mutex> g(mu_);
    for (Node** cell = &heads_[index(key)]; *cell != nullptr;
         cell = &(*cell)->next) {
      if ((*cell)->key == key) {
        delete std::exchange(*cell, (*cell)->next);
        return true;
      }
    }
    return false;
  }

 private:
  struct Node {
    std::uint64_t key, value;
    Node* next;
  };
  std::size_t index(std::uint64_t key) const {
    return (key * 0x9e3779b97f4a7c15ULL) >> shift_;
  }

  std::mutex mu_;
  std::vector<Node*> heads_;
  unsigned shift_;
};

template <typename Map>
void do_op(Map& m, std::uint64_t op, Tally& t) {
  const std::uint64_t key = op >> 2;
  switch (op & 3) {
    case kGet: {
      std::uint64_t v = 0;
      if (m.get(key, v)) {
        ++t.hits;
        if (v != key) ++t.mismatches;
      }
      break;
    }
    case kInsert:
      if (m.insert(key, key)) ++t.inserted;
      break;
    default:
      if (m.remove(key)) ++t.removed;
      break;
  }
  ++t.ops;
}

// One closed-loop chunk. kSample times 1 op in kSampleEvery; kTrace also
// wraps 1 op in kSpanEvery in a span.
template <bool kSample, bool kTrace>
std::uint64_t closed_chunk(ale::AleHashMap& m, Worker& w) {
  for (std::uint64_t k = 0; k < kChunk; ++k) {
    const std::uint64_t i = w.pos++;
    const std::uint64_t op = w.ring[i & (kRing - 1)];
    if (kTrace && i % kSpanEvery == 0) {
      const std::uint64_t t0 = ale::raw_ticks();
      do_op(m, op, w.tally);
      const std::uint64_t t1 = ale::raw_ticks();
      const std::uint64_t id = w.spans->next_id();
      w.spans->add(Span{t0, t1, id, 0, id, span_of(op)});
      w.op_lat.push_back(t1 - t0);
    } else if (kSample && i % kSampleEvery == 0) {
      const std::uint64_t t0 = ale::raw_ticks();
      do_op(m, op, w.tally);
      w.op_lat.push_back(ale::raw_ticks() - t0);
    } else {
      do_op(m, op, w.tally);
    }
  }
  return kChunk;
}

// One open-loop chunk: up to kChunk polls of the schedule; every due
// request runs at once and is timed from its due time.
std::uint64_t open_chunk(ale::AleHashMap& m, Worker& w, double mean_gap) {
  std::uint64_t n = 0;
  for (std::uint64_t k = 0; k < kChunk; ++k) {
    const std::uint64_t now = ale::raw_ticks();
    if (!w.open->is_due(now)) {
      _mm_pause();
      continue;
    }
    // Exponential gaps: Poisson arrivals at the configured mean rate.
    const double u = w.gap_rng.next_double();
    const auto gap = static_cast<std::uint64_t>(-std::log1p(-u) * mean_gap);
    const std::uint64_t due = w.open->take(now, gap);
    do_op(m, w.ring[w.pos++ & (kRing - 1)], w.tally);
    w.req_lat.push_back(open_loop_latency(due, ale::raw_ticks()));
    ++n;
  }
  return n;
}

// One chunk of the plain reference: the next kChunk ops of the ring.
std::uint64_t plain_chunk(PlainMap& m, Worker& w) {
  for (std::uint64_t k = 0; k < kChunk; ++k) {
    do_op(m, w.ring[w.plain_pos++ & (kRing - 1)], w.plain_tally);
  }
  return kChunk;
}

const char* kOps[] = {"Get", "Insert", "Remove"};

// The learned plan of the map's three granules, e.g.
// "Get=SWOpt+Lock/x0 Insert=SWOpt+Lock/x0 Remove=SWOpt+Lock/x0".
std::string learned_plan(ale::AdaptivePolicy& policy, ale::LockMd& md) {
  std::string parts[3];
  md.for_each_granule([&](ale::GranuleMd& g) {
    const std::string path = g.context()->path();
    for (int i = 0; i < 3; ++i) {
      if (ends_with(path, std::string("HashMap.") + kOps[i])) {
        parts[i] = std::string(kOps[i]) + "=" +
                   ale::to_string(policy.final_progression_of(md, g)) +
                   (policy.lazy_of(md, g) ? "+lazy" : "") + "/x" +
                   std::to_string(policy.effective_x_of(md, g));
      }
    }
  });
  return parts[0] + " " + parts[1] + " " + parts[2];
}

class MapBench {
 public:
  MapBench(const MapMix& mix, RunResult& r) : r_(r) {
    for (unsigned t = 0; t < kThreads; ++t) {
      workers_[t].ring = make_ring(t, mix);
      workers_[t].gap_rng = ale::Xoshiro256(ale::derive_seed(0x676170u, t));
    }
    for (std::uint64_t k = 0; k < kKeys; k += 2) plain_.insert(k, k);
  }

  // Set-up (construct, prefill, warm at 4 threads until the lock
  // converges), repeated on a fresh map each time; keeps the map whose
  // learned plan is the most common (see README). False when a set-up did
  // not converge.
  bool setup(ale::AdaptivePolicy& policy) {
    std::vector<std::unique_ptr<ale::AleHashMap>> maps;
    std::vector<Tally> tallies;
    const auto choice =
        choose_setup(r_, [&](unsigned) -> std::optional<SetupRep> {
          auto map = std::make_unique<ale::AleHashMap>(kBuckets, "bench.map");
          Tally base;
          for (std::uint64_t k = 0; k < kKeys; k += 2) {
            if (map->insert(k, k)) ++base.inserted;
          }
          for (auto& w : workers_) w.tally = Tally{};
          ale::LockMd& md = map->lock_md();
          if (!run_until(
                  kThreads, kConvergeBoundS,
                  [&] { return policy.converged(md); },
                  [&](unsigned t) {
                    return closed_chunk<false, false>(*map, workers_[t]);
                  })) {
            r_.fail("hashmap lock did not converge within the bound");
            return std::nullopt;
          }
          for (const auto& w : workers_) base.add(w.tally);
          const std::string plan = learned_plan(policy, md);
          const SetupRep rep{plan, plan, md.total_executions()};
          maps.push_back(std::move(map));
          tallies.push_back(base);
          return rep;
        });
    if (!choice) return false;
    choice_ = *choice;
    map_ = std::move(maps[choice_.keep]);
    base_ = tallies[choice_.keep];
    for (auto& w : workers_) w.tally = Tally{};
    return true;
  }

  // A closed-loop window. Sampling times 1 op in kSampleEvery; the
  // unsampled windows (1 thread) time nothing.
  std::vector<double> closed(const Window& win) {
    auto body = [&](unsigned t) {
      return win.trace    ? closed_chunk<true, true>(*map_, workers_[t])
             : win.sample ? closed_chunk<true, false>(*map_, workers_[t])
                          : closed_chunk<false, false>(*map_, workers_[t]);
    };
    const unsigned slices = slices_for(win.seconds);
    std::vector<double> rates =
        run_sliced(win.threads, slices, win.seconds / slices, body, win.cpu);
    std::vector<std::uint64_t> lat = take(&Worker::op_lat);
    if (win.latency != nullptr) win.latency->add(lat);
    return rates;
  }

  // An open-loop window at kOpenRate ops/s over the window's threads.
  void open(const Window& win) {
    const double mean_gap = ale::ticks_per_ns() * 1e9 * win.threads / kOpenRate;
    const std::uint64_t start =
        ale::raw_ticks() +
        static_cast<std::uint64_t>(ale::ticks_per_ns() * 2e6);  // +2 ms
    for (unsigned t = 0; t < win.threads; ++t) {
      workers_[t].open = std::make_unique<OpenLoop>(start);
    }
    const unsigned slices = slices_for(win.seconds);
    run_sliced(win.threads, slices, win.seconds / slices, [&](unsigned t) {
      return open_chunk(*map_, workers_[t], mean_gap);
    });
    std::vector<std::uint64_t> lat = take(&Worker::req_lat);
    if (win.latency != nullptr) win.latency->add(lat);
  }

  // A closed-loop window of the plain reference map.
  std::vector<double> plain(const Window& win) {
    const unsigned slices = slices_for(win.seconds);
    return run_sliced(
        win.threads, slices, win.seconds / slices,
        [&](unsigned t) { return plain_chunk(plain_, workers_[t]); }, win.cpu);
  }

  // Output checks: every hit returned value == key (counted per op), and
  // the final size equals prefill + inserts - removes.
  void check(std::uint64_t attempted) {
    Tally all = base_;
    for (auto& w : workers_) all.add(w.tally);
    const std::int64_t expect = static_cast<std::int64_t>(all.inserted) -
                                static_cast<std::int64_t>(all.removed);
    const auto size = static_cast<std::int64_t>(map_->size());
    r_.note("checks: " + std::to_string(all.ops) + " ops, " +
            std::to_string(all.hits) + " hits, " +
            std::to_string(all.mismatches) + " value mismatches, size " +
            std::to_string(size) + " (expected " + std::to_string(expect) +
            ")");
    std::uint64_t failed = all.mismatches;
    if (all.mismatches != 0) r_.fail("hashmap get returned a wrong value");
    if (size != expect) {
      r_.fail("hashmap size differs from prefill + inserts - removes");
      ++failed;
    }
    r_.attempted = attempted;
    r_.failed = failed;
    r_.set("ok_frac",
           1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
           "frac");
  }

  std::uint64_t ops_so_far() const {
    std::uint64_t n = 0;
    for (const auto& w : workers_) n += w.tally.ops;
    return n;
  }

  ale::AleHashMap& map() { return *map_; }
  Worker (&workers())[kThreads] { return workers_; }
  const SetupChoice& choice() const { return choice_; }

 private:
  // One latency vector of all workers, ticks; clears them.
  std::vector<std::uint64_t> take(std::vector<std::uint64_t> Worker::*lat) {
    std::vector<std::uint64_t> all;
    for (auto& w : workers_) {
      all.insert(all.end(), (w.*lat).begin(), (w.*lat).end());
      (w.*lat).clear();
    }
    return all;
  }

  RunResult& r_;
  std::unique_ptr<ale::AleHashMap> map_;
  Tally base_;  // prefill and set-up ops of the kept map
  SetupChoice choice_;
  Worker workers_[kThreads];
  PlainMap plain_{kBuckets};
};

void run_untraced(MapBench& b, const Options& opt, RunResult& r) {
  const std::uint64_t before = b.ops_so_far();
  run_end_to_end(
      r, opt.seconds, kThreads, kOpenThreads, kOpenRate, b.workers(),
      [&](const Window& w) { return b.closed(w); },
      [&](const Window& w) { b.open(w); },
      [&](const Window& w) { return b.plain(w); });
  b.check(b.ops_so_far() - before);
}

// Telemetry snapshots around the traced run's window pairs give the core,
// htm, sync and policy metrics; the spans give the hashmap.* self times.
void run_traced(MapBench& b, ale::AdaptivePolicy& policy, const Options& opt,
                RunResult& r) {
  const std::uint64_t before = b.ops_so_far();
  enable_spans(b.workers(), kSpanCapacity);
  ale::LockMd& md = b.map().lock_md();
  auto is_map = [](const ale::telemetry::LockSnapshot& l,
                   const ale::telemetry::GranuleSnapshot&) {
    return l.name == "bench.map";
  };
  auto op_family = [&](const ale::telemetry::Snapshot& snap, const char* op) {
    return sum_family(snap, [&](const auto& l, const auto& g) {
      return l.name == "bench.map" &&
             ends_with(g.context, std::string("HashMap.") + op);
    });
  };
  const ale::telemetry::Snapshot s0 = snapshot_now();
  const std::uint64_t parks0 = ale::parking::park_count();
  const std::uint64_t wakes0 = ale::parking::wake_count();
  const std::uint64_t ops0 = b.ops_so_far();
  const std::uint64_t origin = ale::raw_ticks();
  run_traced_pairs(r, opt.seconds, kThreads,
                   [&](const Window& w) { return b.closed(w); });
  const std::uint64_t ops = b.ops_so_far() - ops0;
  const std::uint64_t parks = ale::parking::park_count() - parks0;
  const std::uint64_t wakes = ale::parking::wake_count() - wakes0;
  const ale::telemetry::Snapshot s1 = snapshot_now();

  const Family w = sum_family(s1, is_map).minus(sum_family(s0, is_map));
  put_core_htm(r, w);
  put_sync(r, w, parks, wakes, ops);

  put_setup_choice(r, b.choice());
  r.set("policy.relearns", static_cast<double>(policy.relearn_count_of(md)),
        "count");
  const char* ops_lc[] = {"get", "insert", "remove"};
  for (int i = 0; i < 3; ++i) {
    const Family f = op_family(s1, kOps[i]).minus(op_family(s0, kOps[i]));
    const std::string base = std::string("policy.") + ops_lc[i];
    r.set(base + ".mode", static_cast<double>(f.dominant_mode()), "mode");
    r.note(base + ".mode = " + ale::to_string(f.dominant_mode()));
    std::uint32_t x = 0;
    md.for_each_granule([&](ale::GranuleMd& g) {
      if (ends_with(g.context()->path(), std::string("HashMap.") + kOps[i])) {
        x = policy.effective_x_of(md, g);
      }
    });
    r.set(base + ".x", x, "attempts");
  }

  const std::pair<SpanName, const char*> spans[] = {
      {SpanName::kHashGet, "hashmap.get_ns"},
      {SpanName::kHashInsert, "hashmap.insert_ns"},
      {SpanName::kHashRemove, "hashmap.remove_ns"},
  };
  put_span_medians(r, span_buffers(b.workers()), spans);

  finish_traced(
      r, opt, kOpenThreads, b.workers(), origin,
      [&](const Window& win) { b.open(win); },
      [&] { b.check(b.ops_so_far() - before); });
}

}  // namespace

RunResult run_hashmap(const Options& opt, const MapMix& mix) {
  RunResult r;
  ale::AdaptivePolicy& policy = install_adaptive();
  MapBench b(mix, r);
  if (!b.setup(policy)) return r;
  r.note("learned plan: " + b.choice().plan);
  if (opt.trace) {
    bypass_layers(r, {"kvdb.", "svc."});
    run_traced(b, policy, opt, r);
  } else {
    run_untraced(b, opt, r);
  }
  return r;
}

}  // namespace perfbench
