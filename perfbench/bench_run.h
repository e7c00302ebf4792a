// One run of one workload: build the deployment, preload, warm up, measure
// the window (untraced with RunUntil, or traced one Step() at a time), drain,
// and apply the correctness gate.

#ifndef PERFBENCH_BENCH_RUN_H_
#define PERFBENCH_BENCH_RUN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hat/net/message.h"
#include "hat/version/sharded_store.h"
#include "perfbench/span_recorder.h"
#include "perfbench/workloads.h"

namespace perfbench {

/// Named numbers in insertion order, printed as one JSON object.
class Fields {
 public:
  void Add(std::string name, double value) {
    items_.emplace_back(std::move(name), value);
  }
  const std::vector<std::pair<std::string, double>>& items() const {
    return items_;
  }
  bool operator==(const Fields& other) const { return items_ == other.items_; }
  /// {"name": value, ...} with every digit a double carries.
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, double>> items_;
};

/// Records and reads one server received during warmup, replayed later
/// through the version and storage layers' public functions.
struct ReplaySample {
  static constexpr size_t kCap = 8192;
  /// Options of the sampled server's store, so the replay store matches it.
  hat::version::ShardedStore::Options store_options;
  std::vector<hat::WriteRecord> writes;
  /// [begin, end) ranges of `writes` that arrived in one envelope, and
  /// whether the server installed that envelope under one group commit.
  struct Group {
    size_t begin;
    size_t end;
    bool group_commit;
  };
  std::vector<Group> groups;
  std::vector<hat::net::GetRequest> reads;
};

struct RunOutput {
  /// Deterministic per seed: modeled outcomes and window counter deltas.
  Fields modeled;
  double setup_s = 0;
  /// Host wall time of the measured window, and of the phases around it.
  double window_wall_s = 0;
  double warmup_wall_s = 0;
  double drain_wall_s = 0;
  double gate_wall_s = 0;
  /// Traced runs only.
  LayerTimes layers;
  size_t spans = 0;
  /// Failed correctness checks; empty when the run is correct.
  std::vector<std::string> errors;
};

struct RunOptions {
  uint64_t seed = 1;
  bool traced = false;
  /// Parent of the fresh directory a persistent workload stores into.
  std::string tmp_root;
  /// When set, filled with server 0's warmup traffic.
  ReplaySample* capture = nullptr;
  /// Times the set-up this many times (>= 1) and reports the median.
  int setups = 1;
};

RunOutput RunWorkload(const Workload& workload, const RunOptions& options);

/// harness::YcsbDriver on the same deployment, options, seed and window:
/// the reference the benchmark's own driver must match.
Fields RunHarnessReference(const Workload& workload, uint64_t seed,
                           const std::string& tmp_root);

/// Per-operation replay costs of a captured sample, medians of a few passes.
struct ReplayCosts {
  double apply_ns = 0;
  double read_ns = 0;
  double persist_ns = 0;  ///< 0 unless `scratch_root` is given
};
ReplayCosts Replay(const Workload& workload, const ReplaySample& sample,
                   const std::string& scratch_root);

/// Name of the filesystem holding `path` (e.g. "ext4", "tmpfs").
std::string FilesystemName(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_RUN_H_
