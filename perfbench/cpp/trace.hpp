// Spans of the traced benchmark run.
//
// The benchmark wraps a sample of the public library calls it makes in
// spans (name, start, end, parent span, request id). Spans stay in per-thread memory
// while the run measures and are written out once at the end as Chrome
// trace-event JSON, which chrome://tracing and Perfetto load directly.
// Nothing here reaches inside the library: layers are timed from outside.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Span names; the prefix before the first '.' is the layer (module).
enum class SpanName : std::uint8_t {
  kHashGet,
  kHashInsert,
  kHashRemove,
  kSvcRequest,      ///< generate + enqueue one service request
  kSvcEnqueue,
  kSvcDrain,
  kLadderTatas,
  kLadderBeginCommit,
  kLadderRw1,
  kLadderBfpInc,
  kLadderElideLock,
  kLadderElideConverged,
};

const char* to_string(SpanName n);

struct Span {
  std::uint64_t start = 0;   ///< ticks
  std::uint64_t end = 0;     ///< ticks
  std::uint64_t id = 0;      ///< unique span id (never 0)
  std::uint64_t parent = 0;  ///< enclosing span id, 0 at the root
  std::uint64_t request = 0; ///< spans of one request share this id
  SpanName name = SpanName::kHashGet;
};

/// One thread's span buffer. Single writer; read after the writer joined.
class SpanBuffer {
 public:
  SpanBuffer(unsigned thread, std::size_t capacity);

  /// A fresh span/request id, unique across threads.
  std::uint64_t next_id() { return (std::uint64_t{thread_ + 1} << 48) | ++seq_; }

  /// Records a finished span; beyond capacity the span is counted as
  /// dropped instead.
  void add(const Span& s) {
    if (spans_.size() < capacity_) {
      spans_.push_back(s);
    } else {
      ++dropped_;
    }
  }

  unsigned thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  unsigned thread_;
  std::size_t capacity_;
  std::uint64_t seq_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// Self time of `span`: its duration minus the part of its interval that
/// the union of `children` covers (children are clipped to the span).
std::uint64_t self_ticks(const Span& span, std::vector<Span> children);

/// Per-name self-time samples (ticks) over every buffer.
std::map<SpanName, std::vector<double>> summarize(
    const std::vector<const SpanBuffer*>& buffers);

/// Writes up to `max_spans` spans as Chrome trace-event JSON (complete "X"
/// events, microsecond timestamps relative to `origin_ticks`). Returns
/// false when the file cannot be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanBuffer*>& buffers,
                        std::uint64_t origin_ticks, double ticks_per_us,
                        std::size_t max_spans);

}  // namespace perfbench
