// Tests of the benchmark's own measuring helpers: the percentile rule, span
// self-time arithmetic, open-loop timing from the scheduled send time,
// ratios that carry their base count, the choice among repeated set-ups,
// and the bypassed-layer rule of the traced run.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"
#include "rounds.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NeedsTenSamplesBeyondIt) {
  // p99 of n samples has n - ceil(0.99 n) samples beyond it.
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(999, 99), 9u);
  EXPECT_TRUE(percentile_supported(1000, 99));
  EXPECT_FALSE(percentile_supported(999, 99));
  EXPECT_TRUE(percentile_supported(20, 50));
  EXPECT_FALSE(percentile_supported(19, 50));
  EXPECT_FALSE(percentile_supported(0, 50));
}

TEST(Percentile, RefusesShortTail) {
  std::vector<std::uint64_t> v(999);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = i;
  EXPECT_FALSE(percentile(v, 99).has_value());
  v.push_back(999);
  const auto p99 = percentile(v, 99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(*p99, 989.0);  // rank 990 of 1..1000, ten samples above it
}

TEST(Percentile, NearestRankMedian) {
  std::vector<double> v;
  for (int i = 100; i > 0; --i) v.push_back(i);  // 1..100, reversed
  const auto p50 = percentile(v, 50);
  ASSERT_TRUE(p50.has_value());
  EXPECT_EQ(*p50, 50.0);
}

TEST(Percentile, HistogramSourceFollowsTheSameRule) {
  struct FakeHist {
    std::uint64_t n;
    std::uint64_t total() const { return n; }
    double percentile(double p) const { return p; }
  };
  EXPECT_FALSE(histogram_percentile(FakeHist{999}, 99).has_value());
  EXPECT_EQ(histogram_percentile(FakeHist{1000}, 99).value(), 99.0);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(ModalIndex, KeepsTheLastOfTheMostCommonPlan) {
  EXPECT_EQ(modal_index({"a", "b", "a", "c"}), 2u);
  EXPECT_EQ(modal_index({"b", "a", "a", "b", "a"}), 4u);
  EXPECT_EQ(modal_index({"x"}), 0u);
  EXPECT_EQ(modal_index({}), 0u);
  // A tie goes to the signature seen last.
  EXPECT_EQ(modal_index({"a", "b"}), 1u);
}

TEST(ChooseSetup, KeepsTheModalPlanAndCountsFlips) {
  static_assert(kSetupReps == 5);
  const char* plans[] = {"a", "b", "a", "c", "a"};
  RunResult r;
  const auto c = choose_setup(r, [&](unsigned rep) -> std::optional<SetupRep> {
    return SetupRep{plans[rep], std::string("plan ") + plans[rep], 100 + rep};
  });
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->keep, 4u);
  EXPECT_EQ(c->plan_flips, 2u);
  EXPECT_EQ(c->converge_execs, 104u);
  EXPECT_EQ(c->plan, "plan a");
  EXPECT_EQ(r.metrics.count("setup_s"), 1u);
}

TEST(ChooseSetup, StopsAtAnUnconvergedSetup) {
  RunResult r;
  unsigned calls = 0;
  const auto c = choose_setup(r, [&](unsigned rep) -> std::optional<SetupRep> {
    ++calls;
    if (rep == 1) return std::nullopt;
    return SetupRep{"a", "a", 1};
  });
  EXPECT_FALSE(c.has_value());
  EXPECT_EQ(calls, 2u);
  EXPECT_EQ(r.metrics.count("setup_s"), 0u);
}

TEST(BypassLayers, ZeroesOnlyTheNamedLayers) {
  RunResult r;
  bypass_layers(r, {"svc."});
  EXPECT_TRUE(r.correct);
  EXPECT_EQ(r.metrics.at("svc.shed").value, 0.0);
  EXPECT_EQ(r.metrics.at("svc.enqueue_ns").unit, "ns");
  // Layers the workload uses stay unset, so an unmeasured one fails the run.
  EXPECT_EQ(r.metrics.count("hashmap.get_ns"), 0u);
  EXPECT_EQ(r.metrics.count("kvdb.inner.share.htm"), 0u);
  bypass_layers(r, {"nosuch."});
  EXPECT_FALSE(r.correct);
}

TEST(Rounds, AboutTwoSecondsEachAtLeastThree) {
  EXPECT_EQ(rounds_for(1), 3u);
  EXPECT_EQ(rounds_for(10), 5u);
  EXPECT_EQ(rounds_for(20), 10u);
}

Span span(std::uint64_t start, std::uint64_t end) {
  return Span{start, end, 1, 0, 1, SpanName::kSvcRequest};
}

TEST(SelfTime, NoChildrenIsTheWholeSpan) {
  EXPECT_EQ(self_ticks(span(100, 250), {}), 150u);
}

TEST(SelfTime, SubtractsDisjointChildren) {
  EXPECT_EQ(self_ticks(span(0, 100), {span(10, 20), span(50, 80)}), 60u);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // [10,40) and [30,60) cover [10,60): 50 ticks.
  EXPECT_EQ(self_ticks(span(0, 100), {span(30, 60), span(10, 40)}), 50u);
  // A child nested in another adds nothing.
  EXPECT_EQ(self_ticks(span(0, 100), {span(10, 90), span(20, 30)}), 20u);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  EXPECT_EQ(self_ticks(span(100, 200), {span(50, 120), span(190, 300)}), 70u);
  EXPECT_EQ(self_ticks(span(100, 200), {span(0, 300)}), 0u);
}

TEST(SelfTime, SummaryUsesParentLinks) {
  SpanBuffer b(0, 16);
  const std::uint64_t parent = b.next_id();
  const std::uint64_t child = b.next_id();
  b.add(Span{0, 100, parent, 0, parent, SpanName::kSvcRequest});
  b.add(Span{40, 70, child, parent, parent, SpanName::kSvcEnqueue});
  const auto sum = summarize({&b});
  EXPECT_EQ(sum.at(SpanName::kSvcRequest).front(), 70.0);
  EXPECT_EQ(sum.at(SpanName::kSvcEnqueue).front(), 30.0);
}

TEST(SpanBuffer, CountsDropsBeyondCapacity) {
  SpanBuffer b(2, 1);
  b.add(span(0, 1));
  b.add(span(1, 2));
  EXPECT_EQ(b.spans().size(), 1u);
  EXPECT_EQ(b.dropped(), 1u);
  EXPECT_NE(b.next_id(), SpanBuffer(3, 1).next_id());  // ids differ by thread
}

TEST(OpenLoop, LatencyRunsFromTheScheduledTime) {
  OpenLoop ol(1000);
  EXPECT_FALSE(ol.is_due(999));
  EXPECT_TRUE(ol.is_due(1000));
  const std::uint64_t due = ol.take(1000, 10);
  EXPECT_EQ(due, 1000u);
  EXPECT_EQ(ol.next_due(), 1010u);
  EXPECT_EQ(open_loop_latency(due, 1004), 4u);
}

TEST(OpenLoop, AStallIsChargedToEveryRequestBehindIt) {
  // Requests due every 10 ticks from 0; the generator stalls until 100 and
  // then sends the backlog at once. Timing from the send time would report
  // ~1 tick each (coordinated omission); timing from the due time charges
  // each request the wait the stall imposed on it.
  OpenLoop ol(0);
  std::vector<std::uint64_t> lat;
  const std::uint64_t now = 100;
  while (ol.is_due(now)) lat.push_back(open_loop_latency(ol.take(now, 10), now + 1));
  ASSERT_EQ(lat.size(), 11u);  // due at 0, 10, ..., 100
  for (std::size_t i = 0; i < lat.size(); ++i) {
    EXPECT_EQ(lat[i], 101 - 10 * i);
  }
  // The generator's own lateness is recorded per request as well.
  EXPECT_EQ(ol.lateness().front(), 100u);
  EXPECT_EQ(ol.lateness().back(), 0u);
  // The schedule does not drift with the stall.
  EXPECT_EQ(ol.next_due(), 110u);
}

TEST(Ratio, CarriesItsBase) {
  const Ratio r{3, 4};
  EXPECT_DOUBLE_EQ(r.value(), 0.75);
  EXPECT_EQ(r.describe(), "0.75 (3/4)");
  const Ratio per_k{5, 2000, 1000.0};
  EXPECT_DOUBLE_EQ(per_k.value(), 2.5);
  EXPECT_NE(per_k.describe().find("/2000)"), std::string::npos);
}

TEST(Ratio, EmptyBaseIsZeroAndSaysSo) {
  const Ratio r{0, 0};
  EXPECT_EQ(r.value(), 0.0);
  EXPECT_EQ(r.describe(), "0 (0/0)");
}

}  // namespace
}  // namespace perfbench
