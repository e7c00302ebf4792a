#include "perfbench/workloads.h"

#include "bench/bench_util.h"

namespace perfbench {
namespace {

using hat::client::IsolationLevel;
using hat::cluster::DeploymentOptions;

// Workloads set only isolation, system mode, batch_max, storage_dir, the
// YCSB shape and a deployment preset. Every other option keeps its default,
// so a change that deletes an option is measured on the surviving default
// instead of failing to build.
Workload Base(std::string name, DeploymentOptions deployment,
              IsolationLevel isolation) {
  Workload w;
  w.name = std::move(name);
  w.deployment = std::move(deployment);
  w.client.isolation = isolation;
  w.ycsb = hat::bench::PaperYcsb();
  return w;
}

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> all;

  // The fig3a deployment (2 clusters x 5 servers, one region) at RC with
  // 50% reads: the paper's headline HAT point and the cheapest run. The
  // event loop and the client path have their largest shares of host time
  // here.
  all.push_back(Base("lan-rc", DeploymentOptions::SingleDatacenter(),
                     IsolationLevel::kReadCommitted));

  // lan-rc with MAV isolation. Appendix B's notify fan-out makes ~45
  // notifies and ~116 sim events per committed txn at small bytes per txn,
  // so the MAV coordinator and the per-event loop cost dominate and a
  // byte-copy change should barely move it.
  all.push_back(Base("lan-mav", DeploymentOptions::SingleDatacenter(),
                     IsolationLevel::kMonotonicAtomicView));

  // The fig3c deployment (5 regions x 5 servers) at RC. Anti-entropy ships
  // ~63 records per committed txn where 16 would reach each replica once;
  // envelope copies on server receive, anti-entropy apply and memory
  // dominate, and the loop's share is small.
  {
    Workload w = Base("wan5-rc", DeploymentOptions::FiveRegions(),
                      IsolationLevel::kReadCommitted);
    w.drain = 1500 * hat::sim::kMillisecond;  // several inter-region RTTs
    all.push_back(std::move(w));
  }

  // The lan-rc deployment at RC with client batching (batch_max = 8), 10%
  // reads, zipfian theta = 0.99 and real persistence. It writes beside few
  // reads and has hot keys. It is the only workload where storage runs
  // (LocalStore, WAL, CRC32C, record encoding) and where the client batcher
  // runs; every other workload bypasses both, so a storage change must
  // leave them unchanged.
  {
    Workload w = Base("lan-batch-durable",
                      DeploymentOptions::SingleDatacenter(),
                      IsolationLevel::kReadCommitted);
    w.client.batch_max = 8;
    w.ycsb.read_fraction = 0.1;
    w.ycsb.distribution = hat::workload::KeyDistribution::kZipfian;
    w.ycsb.zipfian_theta = 0.99;
    w.persistent = true;
    all.push_back(std::move(w));
  }
  return all;
}

}  // namespace

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> all = MakeWorkloads();
  return all;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
