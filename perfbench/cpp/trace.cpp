#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace perfbench {

const char* to_string(SpanName n) {
  switch (n) {
    case SpanName::kHashGet: return "hashmap.get";
    case SpanName::kHashInsert: return "hashmap.insert";
    case SpanName::kHashRemove: return "hashmap.remove";
    case SpanName::kSvcRequest: return "loadgen.request";
    case SpanName::kSvcEnqueue: return "svc.enqueue";
    case SpanName::kSvcDrain: return "svc.drain_shard";
    case SpanName::kLadderTatas: return "ladder.sync.tatas";
    case SpanName::kLadderBeginCommit: return "ladder.htm.begin_commit";
    case SpanName::kLadderRw1: return "ladder.htm.rw1";
    case SpanName::kLadderBfpInc: return "ladder.stats.bfp_inc";
    case SpanName::kLadderElideLock: return "ladder.core.elide_lock";
    case SpanName::kLadderElideConverged: return "ladder.core.elide_converged";
  }
  return "?";
}

SpanBuffer::SpanBuffer(unsigned thread, std::size_t capacity)
    : thread_(thread), capacity_(capacity) {
  spans_.reserve(capacity);
}

std::uint64_t self_ticks(const Span& span, std::vector<Span> children) {
  const std::uint64_t dur = span.end > span.start ? span.end - span.start : 0;
  std::sort(children.begin(), children.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  // Sweep the children in start order, merging overlaps, and add up the
  // covered length inside [span.start, span.end).
  std::uint64_t covered = 0;
  std::uint64_t cursor = span.start;
  for (const Span& c : children) {
    const std::uint64_t lo = std::max(c.start, cursor);
    const std::uint64_t hi = std::min(c.end, span.end);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return dur > covered ? dur - covered : 0;
}

std::map<SpanName, std::vector<double>> summarize(
    const std::vector<const SpanBuffer*>& buffers) {
  std::map<SpanName, std::vector<double>> out;
  for (const SpanBuffer* b : buffers) {
    // Children of a span are recorded by the same thread; index them by
    // parent id once per buffer.
    std::unordered_map<std::uint64_t, std::vector<Span>> children;
    for (const Span& s : b->spans()) {
      if (s.parent != 0) children[s.parent].push_back(s);
    }
    for (const Span& s : b->spans()) {
      const auto it = children.find(s.id);
      out[s.name].push_back(static_cast<double>(
          it == children.end() ? s.end - s.start : self_ticks(s, it->second)));
    }
  }
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanBuffer*>& buffers,
                        std::uint64_t origin_ticks, double ticks_per_us,
                        std::size_t max_spans) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  std::size_t written = 0;
  // Round-robin over threads so a capped file still shows every thread.
  std::vector<std::size_t> next(buffers.size(), 0);
  for (bool any = true; any && written < max_spans;) {
    any = false;
    for (std::size_t i = 0; i < buffers.size() && written < max_spans; ++i) {
      const std::vector<Span>& spans = buffers[i]->spans();
      if (next[i] >= spans.size()) continue;
      any = true;
      const Span& s = spans[next[i]++];
      const double ts =
          static_cast<double>(s.start - origin_ticks) / ticks_per_us;
      const double dur = static_cast<double>(s.end - s.start) / ticks_per_us;
      char buf[320];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                    "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"span\":%llu,\"parent\":%llu,"
                    "\"request\":%llu}}",
                    first ? "" : ",\n", to_string(s.name),
                    static_cast<int>(std::string(to_string(s.name)).find('.')),
                    to_string(s.name), buffers[i]->thread(), ts, dur,
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent),
                    static_cast<unsigned long long>(s.request));
      f << buf;
      first = false;
      ++written;
    }
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
