// The benchmark's closed-loop YCSB driver. It makes exactly the calls
// harness::YcsbDriver makes (same client creation order, RNG forks, start
// stagger, values and window rule), so for one seed both drive identical
// simulations; the benchmark checks that. Unlike the harness driver it keeps
// every window latency sample (exact percentiles), counts whole-run user
// bytes, and times its calls into TxnClient when given a SpanRecorder.

#ifndef PERFBENCH_CLOSED_LOOP_H_
#define PERFBENCH_CLOSED_LOOP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "hat/client/txn_client.h"
#include "hat/cluster/deployment.h"
#include "hat/common/histogram.h"
#include "hat/workload/ycsb.h"
#include "perfbench/span_recorder.h"

namespace perfbench {

/// Timestamp of the preloaded version of every key.
constexpr hat::Timestamp kPreloadTs{1, 0xfffffffeu};

/// The preloaded version of key `index`, as harness::YcsbDriver::Preload
/// installs it.
hat::WriteRecord PreloadRecord(const hat::workload::YcsbGenerator& gen,
                               uint64_t index);

/// Outcomes of the transactions that finished inside the window.
struct WindowTally {
  uint64_t committed = 0;
  uint64_t unavailable = 0;
  uint64_t aborted = 0;
  uint64_t ops_committed = 0;
  /// Distinct keys written by committed transactions.
  uint64_t writes_committed = 0;
  /// Latency of each committed transaction, simulated microseconds.
  std::vector<uint64_t> latency_us;
  /// The same latencies recorded exactly as harness::YcsbDriver does.
  hat::Histogram latency_ms;
};

class ClosedLoop {
 public:
  ClosedLoop(hat::cluster::Deployment& deployment,
             const hat::workload::YcsbOptions& ycsb,
             const hat::client::ClientOptions& client_options,
             int num_clients, uint64_t seed, SpanRecorder* recorder);
  ~ClosedLoop();

  /// Installs the initial version of every key at each replica, as
  /// harness::YcsbDriver::Preload does.
  void Preload();

  /// Schedules every client's first transaction. Transactions finishing in
  /// [window_start, window_end) are tallied; none starts at or after
  /// window_end, so the clients stop by themselves.
  void Start(hat::sim::SimTime window_start, hat::sim::SimTime window_end);

  const WindowTally& tally() const { return tally_; }
  /// Key + value bytes of every write committed so far, window or not.
  uint64_t user_bytes_committed() const { return user_bytes_committed_; }
  const std::vector<hat::client::TxnClient*>& clients() const {
    return clients_;
  }

 private:
  struct Loop;
  hat::cluster::Deployment& deployment_;
  hat::workload::YcsbGenerator generator_;
  SpanRecorder* recorder_;
  hat::sim::SimTime window_start_ = 0;
  hat::sim::SimTime window_end_ = 0;
  WindowTally tally_;
  uint64_t user_bytes_committed_ = 0;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::vector<hat::client::TxnClient*> clients_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CLOSED_LOOP_H_
