// In-memory spans and lane-window accounting for the benchmark's traced run.
//
// Spans are kept in memory and written once, as Chrome trace JSON (open it in
// chrome://tracing or Perfetto), when the run ends. Host-time spans go on
// process 1: lanes on rows 0..N-1, the merge on row N, set-up, run and
// migration on row kMainTrack. Simulated-time spans go on process 2.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

class SpanLog {
 public:
  static constexpr int kMainTrack = 100;

  // `name` and `parent` must be string literals (they are stored as pointers).
  void Host(const char* name, const char* parent, int track, Clock::time_point begin,
            Clock::time_point end) {
    spans_.push_back({name, parent, 1, track, Seconds(origin_, begin) * 1e6, Seconds(begin, end) * 1e6});
  }
  void Sim(const char* name, const char* parent, rocksteady::Tick begin, rocksteady::Tick end) {
    spans_.push_back({name, parent, 2, 0, static_cast<double>(begin) / 1e3,
                      static_cast<double>(end - begin) / 1e3});
  }

  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); i++) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"parent\":\"%s\"}}\n",
                   i == 0 ? "" : ",", s.name, s.pid, s.track, s.ts_us, s.dur_us, s.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    const char* parent;
    int pid;
    int track;
    double ts_us;
    double dur_us;
  };

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// Times every lane's slice of each conservative window, and the sequential
// merge after it, through LaneSet::PhaseHooks. The hooks fire only when the
// lanes run unthreaded. The first kMaxWindowSpans windows also become spans.
class LaneWindowClock {
 public:
  static constexpr uint64_t kMaxWindowSpans = 2'000;

  LaneWindowClock() = default;
  LaneWindowClock(const LaneWindowClock&) = delete;
  LaneWindowClock& operator=(const LaneWindowClock&) = delete;

  // Returns false if the engine has no phase hooks (every figure stays 0).
  template <typename Lanes>
  bool Install(Lanes* lanes, SpanLog* spans) {
    if constexpr (requires { typename Lanes::PhaseHooks; }) {
      lanes_ = lanes->lanes();
      spans_ = spans;
      typename Lanes::PhaseHooks hooks;
      hooks.lane_begin = [this](int) { mark_ = Clock::now(); };
      hooks.lane_end = [this](int lane) { LaneEnd(lane); };
      hooks.merge_begin = [this] { mark_ = Clock::now(); };
      hooks.merge_end = [this] { MergeEnd(); };
      lanes->set_phase_hooks(std::move(hooks));
      return true;
    } else {
      (void)lanes;
      (void)spans;
      return false;
    }
  }

  uint64_t windows() const { return windows_; }
  double lane_busy_s() const { return lane_busy_s_; }
  double merge_s() const { return merge_s_; }
  // Sum over windows of the slowest lane's time over the mean lane's time:
  // 1 when every window is evenly spread, `lanes` when one lane does it all.
  double imbalance() const { return sum_mean_s_ > 0 ? sum_max_s_ / sum_mean_s_ : 1; }

 private:
  void LaneEnd(int lane) {
    const Clock::time_point now = Clock::now();
    const double s = Seconds(mark_, now);
    lane_busy_s_ += s;
    window_sum_s_ += s;
    window_max_s_ = std::max(window_max_s_, s);
    if (spans_ != nullptr && windows_ < kMaxWindowSpans) {
      spans_->Host("lane.window", "run", lane, mark_, now);
    }
  }

  void MergeEnd() {
    const Clock::time_point now = Clock::now();
    merge_s_ += Seconds(mark_, now);
    sum_max_s_ += window_max_s_;
    sum_mean_s_ += window_sum_s_ / lanes_;
    if (spans_ != nullptr && windows_ < kMaxWindowSpans) {
      spans_->Host("lane.merge", "run", lanes_, mark_, now);
    }
    window_max_s_ = 0;
    window_sum_s_ = 0;
    windows_++;
  }

  int lanes_ = 1;
  SpanLog* spans_ = nullptr;
  Clock::time_point mark_;
  uint64_t windows_ = 0;
  double lane_busy_s_ = 0;
  double merge_s_ = 0;
  double window_max_s_ = 0;
  double window_sum_s_ = 0;
  double sum_max_s_ = 0;
  double sum_mean_s_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
