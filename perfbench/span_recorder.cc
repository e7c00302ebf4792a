#include "perfbench/span_recorder.h"

namespace perfbench {

LayerTimes SpanRecorder::Summarize() const {
  constexpr size_t kLayers = static_cast<size_t>(Layer::kCount);
  double self[kLayers] = {};
  uint64_t count[kLayers] = {};
  LayerTimes t;
  for (const Span& s : spans_) {
    double dur = static_cast<double>(s.end_ns - s.start_ns);
    self[static_cast<size_t>(s.layer)] += dur;
    count[static_cast<size_t>(s.layer)]++;
    if (s.parent >= 0) {
      self[static_cast<size_t>(spans_[s.parent].layer)] -= dur;
    } else {
      t.steps_ns += dur;
    }
  }
  const size_t loop = static_cast<size_t>(Layer::kLoopStep);
  const size_t other = static_cast<size_t>(Layer::kOtherStep);
  t.loop_ns_per_event =
      count[loop] > 0 ? self[loop] / static_cast<double>(count[loop]) : 0;
  t.server_exec_ns =
      self[other] - t.loop_ns_per_event * static_cast<double>(count[other]);
  t.server_recv_ns = self[static_cast<size_t>(Layer::kServerRecv)];
  t.client_recv_ns = self[static_cast<size_t>(Layer::kClientRecv)];
  t.client_api_ns = self[static_cast<size_t>(Layer::kClientApi)];
  t.driver_ns = self[static_cast<size_t>(Layer::kDriver)];
  return t;
}

}  // namespace perfbench
