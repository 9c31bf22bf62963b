// In-memory span recording for the benchmark's traced runs.
//
// Spans are recorded by the benchmark around its own calls into each
// module's public functions; nothing inside src/ is instrumented. Each work
// unit records into its own UnitTrace on whatever thread runs it, so
// recording takes no lock; the unit traces are concatenated in index order
// and written out once the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

// Nanoseconds since the process-wide trace epoch.
std::int64_t now_ns();

struct Span {
  const char* name = "";  // "<layer>.<call>", a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the owning span list, -1 = root
  std::uint64_t unit = 0;    // work unit (batch) or job (serve) the span belongs to
  std::uint32_t lane = 0;    // recording thread, numbered in order of first use
  // Side probes are extra calls the benchmark makes to split one stage into
  // its parts (parse, elaborate, bytecode compile). They are not on the
  // pipeline path: they run after the timed replay, as root spans, and
  // coverage() leaves them out.
  bool probe = false;

  double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

// The spans of one work unit. Not thread-safe: one thread records a unit.
class UnitTrace {
 public:
  explicit UnitTrace(std::uint64_t unit);

  // Opens a span as a child of the innermost open one; returns its index.
  int begin(const char* name, bool probe = false);
  void end(int index);

  std::vector<Span>& spans() { return spans_; }

 private:
  std::uint64_t unit_;
  std::uint32_t lane_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span over one call.
class Scope {
 public:
  Scope(UnitTrace& trace, const char* name, bool probe = false)
      : trace_(trace), index_(trace.begin(name, probe)) {}
  ~Scope() { trace_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  UnitTrace& trace_;
  int index_;
};

// Append `unit` to `all`, rebasing parent indices.
void append_spans(std::vector<Span>& all, const std::vector<Span>& unit);

// Per-layer self time (span duration minus the time its children cover),
// summed by span name, in seconds.
struct LayerSelf {
  std::string name;
  double self_s = 0.0;
  std::int64_t calls = 0;
};
std::vector<LayerSelf> self_times(const std::vector<Span>& spans);

// Lane time of one traced stretch, lanes x [first span start, last span
// end], and the part of it no root span covers, in seconds. Probe spans are
// left out.
struct Coverage {
  double total_s = 0.0;
  double uncovered_s = 0.0;
};
Coverage coverage(const std::vector<Span>& spans, std::uint32_t lanes);

// Chrome trace-event JSON (viewable in chrome://tracing or Perfetto).
bool write_trace(const std::string& path, const std::vector<Span>& spans);

}  // namespace e2ebench
