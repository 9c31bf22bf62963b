#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>

namespace e2ebench {

namespace {

const Clock::time_point kEpoch = Clock::now();

std::uint32_t this_lane() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t lane = next.fetch_add(1);
  return lane;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - kEpoch).count();
}

UnitTrace::UnitTrace(std::uint64_t unit) : unit_(unit), lane_(this_lane()) {
  spans_.reserve(16);
}

int UnitTrace::begin(const char* name, bool probe) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.unit = unit_;
  s.lane = lane_;
  s.probe = probe;
  s.start_ns = now_ns();
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void UnitTrace::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void append_spans(std::vector<Span>& all, const std::vector<Span>& unit) {
  const auto base = static_cast<std::int32_t>(all.size());
  for (Span s : unit) {
    if (s.parent >= 0) s.parent += base;
    all.push_back(s);
  }
}

std::vector<LayerSelf> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, LayerSelf> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerSelf& layer = by_name[spans[i].name];
    layer.name = spans[i].name;
    const std::int64_t self_ns = spans[i].end_ns - spans[i].start_ns - child_ns[i];
    layer.self_s += static_cast<double>(self_ns) / 1e9;
    ++layer.calls;
  }
  std::vector<LayerSelf> out;
  for (auto& [name, layer] : by_name) out.push_back(layer);
  return out;
}

Coverage coverage(const std::vector<Span>& spans, std::uint32_t lanes) {
  std::map<std::uint32_t, std::vector<std::pair<std::int64_t, std::int64_t>>> roots;
  std::int64_t first = INT64_MAX, last = INT64_MIN;
  for (const Span& s : spans) {
    if (s.parent >= 0 || s.probe) continue;
    roots[s.lane].emplace_back(s.start_ns, s.end_ns);
    first = std::min(first, s.start_ns);
    last = std::max(last, s.end_ns);
  }
  if (roots.empty() || last <= first) return {};
  std::int64_t covered = 0;
  for (auto& [lane, intervals] : roots) {
    std::sort(intervals.begin(), intervals.end());
    std::int64_t cur_start = intervals.front().first, cur_end = intervals.front().second;
    for (const auto& [start, end] : intervals) {
      if (start > cur_end) {
        covered += cur_end - cur_start;
        cur_start = start;
      }
      cur_end = std::max(cur_end, end);
    }
    covered += cur_end - cur_start;
  }
  Coverage c;
  c.total_s = static_cast<double>(last - first) * static_cast<double>(lanes) / 1e9;
  c.uncovered_s = std::max(0.0, c.total_s - static_cast<double>(covered) / 1e9);
  return c;
}

bool write_trace(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"unit\":%llu,"
                 "\"probe\":%s}}\n",
                 i == 0 ? "" : ",", s.name, s.lane, static_cast<double>(s.start_ns) / 1e3,
                 s.us(), i, s.parent, static_cast<unsigned long long>(s.unit),
                 s.probe ? "true" : "false");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace e2ebench
