// Host-time spans recorded from the benchmark's own code, around its calls
// into each layer's public functions (no hook inside src/).
//
// The traced run drives the event loop one Simulation::Step() at a time.
// Each step is a span; spans opened while it runs nest under it:
//   server.recv  a server's OnMessage, timed by a TimedSink the benchmark
//                registers in the node's place,
//   client.recv  a client's OnMessage, likewise,
//   client.api   the driver's calls into TxnClient Begin/Read/Write/Commit,
//   driver       the driver's own code, the YCSB generator included.
// A span's self time is its duration minus its direct children's. Spans are
// kept in memory and summarised after the run (Summarize).

#ifndef PERFBENCH_SPAN_RECORDER_H_
#define PERFBENCH_SPAN_RECORDER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "hat/net/network.h"

namespace perfbench {

enum class Layer : uint8_t {
  // Step kinds, fixed when the step closes.
  kLoopStep = 0,   ///< delivered an envelope or ran driver code
  kOtherStep = 1,  ///< executor completion or timer: no envelope, no driver
  // Spans nested in a step.
  kServerRecv = 2,
  kClientRecv = 3,
  kClientApi = 4,
  kDriver = 5,
  kCount = 6,
};

/// Self time per layer over a recorded window, in nanoseconds. Each step's
/// time lands in one layer; steps_ns minus the other layers is the loop's.
struct LayerTimes {
  double steps_ns = 0;  ///< sum of all step durations
  double loop_ns_per_event = 0;
  double server_recv_ns = 0;
  double server_exec_ns = 0;  ///< other steps minus their per-event loop cost
  double client_recv_ns = 0;
  double client_api_ns = 0;
  double driver_ns = 0;
};

class SpanRecorder {
 public:
  static uint64_t NowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  bool recording() const { return recording_; }
  void Start(size_t expected_spans) {
    spans_.clear();
    spans_.reserve(expected_spans);
    recording_ = true;
  }
  void Stop() { recording_ = false; }

  /// Opens the span of one Simulation::Step().
  void OpenStep() {
    step_ran_code_ = false;
    spans_.push_back(Span{NowNs(), 0, -1, Layer::kOtherStep});
    stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
  }
  /// Closes the step span, tagging it by what ran inside.
  void CloseStep() {
    Span& s = spans_[stack_.back()];
    s.end_ns = NowNs();
    s.layer = step_ran_code_ ? Layer::kLoopStep : Layer::kOtherStep;
    stack_.pop_back();
  }
  /// Drops the open step span (the window-end sentinel's step).
  void DiscardStep() {
    spans_.resize(static_cast<size_t>(stack_.back()));
    stack_.pop_back();
  }

  void Open(Layer layer) {
    if (layer != Layer::kClientApi) step_ran_code_ = true;
    spans_.push_back(Span{NowNs(), 0, stack_.empty() ? -1 : stack_.back(),
                          layer});
    stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
  }
  void Close() {
    spans_[stack_.back()].end_ns = NowNs();
    stack_.pop_back();
  }

  size_t span_count() const { return spans_.size(); }

  /// Self time per layer. Steps that delivered an envelope or ran driver
  /// code give the loop's per-event cost (heap pop, cancel-tombstone lookup,
  /// std::function dispatch, the network's delivery closure); every other
  /// step is charged to server execution after subtracting that cost.
  LayerTimes Summarize() const;

 private:
  struct Span {
    uint64_t start_ns;
    uint64_t end_ns;
    int32_t parent;  ///< index of the enclosing span, -1 for a step
    Layer layer;
  };
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
  bool recording_ = false;
  bool step_ran_code_ = false;
};

/// Times a span of `layer` over its scope when `recorder` is recording.
class Scope {
 public:
  Scope(SpanRecorder* recorder, Layer layer)
      : recorder_(recorder != nullptr && recorder->recording() ? recorder
                                                               : nullptr) {
    if (recorder_ != nullptr) recorder_->Open(layer);
  }
  ~Scope() {
    if (recorder_ != nullptr) recorder_->Close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* recorder_;
};

/// Stands in for a node on the network: times the node's public OnMessage
/// as `layer` and hands each envelope to the observer (when set) first.
class TimedSink : public hat::net::MessageSink {
 public:
  using Observer = std::function<void(const hat::net::Envelope&)>;

  TimedSink(hat::net::MessageSink* node, Layer layer, SpanRecorder* recorder)
      : node_(node), layer_(layer), recorder_(recorder) {}

  void set_observer(Observer observer) { observer_ = std::move(observer); }

  void OnMessage(hat::net::Envelope env) override {
    if (observer_) observer_(env);
    Scope scope(recorder_, layer_);
    node_->OnMessage(std::move(env));
  }

 private:
  hat::net::MessageSink* node_;
  Layer layer_;
  SpanRecorder* recorder_;
  Observer observer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_RECORDER_H_
