// The benchmark's workloads: closed-loop YCSB against a simulated hatkv
// deployment, with the window fixed in simulated time so that one seed always
// does bit-identical simulated work and only host cost varies.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <string_view>
#include <vector>

#include "hat/client/options.h"
#include "hat/cluster/deployment.h"
#include "hat/sim/simulation.h"
#include "hat/workload/ycsb.h"

namespace perfbench {

struct Workload {
  std::string name;
  hat::cluster::DeploymentOptions deployment;
  hat::client::ClientOptions client;
  hat::workload::YcsbOptions ycsb;
  /// Real persistence: each run sets deployment.server.storage_dir to a
  /// fresh temporary directory and removes it afterwards.
  bool persistent = false;
  int num_clients = 64;
  hat::sim::Duration warmup = 1 * hat::sim::kSecond;
  hat::sim::Duration window = 1 * hat::sim::kSecond;
  /// Simulated time after the window in which clients finish their last
  /// transaction and anti-entropy settles, before the correctness gate.
  hat::sim::Duration drain = 250 * hat::sim::kMillisecond;
};

/// Every workload, in the order the benchmark documents them.
const std::vector<Workload>& AllWorkloads();

/// The workload called `name`, or nullptr.
const Workload* FindWorkload(std::string_view name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
