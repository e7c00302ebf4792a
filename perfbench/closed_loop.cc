#include "perfbench/closed_loop.h"

#include <algorithm>
#include <iterator>
#include <string_view>

namespace perfbench {

using hat::Status;
using hat::sim::SimTime;

struct ClosedLoop::Loop {
  ClosedLoop* owner = nullptr;
  hat::client::TxnClient* client = nullptr;
  hat::Rng rng{0};
  hat::workload::YcsbTxn txn;
  size_t op_index = 0;
  SimTime txn_start = 0;
  uint64_t tag = 0;

  SpanRecorder* rec() const { return owner->recorder_; }
  SimTime Now() const { return owner->deployment_.simulation().Now(); }

  void StartTxn() {
    if (Now() >= owner->window_end_) return;
    txn = owner->generator_.NextTxn(rng);
    op_index = 0;
    txn_start = Now();
    {
      Scope api(rec(), Layer::kClientApi);
      client->Begin();
    }
    NextOp();
  }

  void NextOp() {
    if (op_index >= txn.ops.size()) {
      Scope api(rec(), Layer::kClientApi);
      client->Commit([this](Status s) {
        Scope driver(rec(), Layer::kDriver);
        OnDone(std::move(s));
      });
      return;
    }
    const hat::workload::YcsbOp& op = txn.ops[op_index++];
    if (op.is_read) {
      Scope api(rec(), Layer::kClientApi);
      client->Read(op.key, [this](Status s, hat::ReadVersion) {
        Scope driver(rec(), Layer::kDriver);
        if (!s.ok()) {
          {
            Scope abort(rec(), Layer::kClientApi);
            client->Abort();
          }
          OnDone(std::move(s));
          return;
        }
        NextOp();
      });
      return;
    }
    hat::Value value = owner->generator_.MakeValue(tag++);
    {
      Scope api(rec(), Layer::kClientApi);
      client->Write(op.key, std::move(value));
    }
    NextOp();
  }

  void OnDone(Status s) {
    SimTime now = Now();
    WindowTally& t = owner->tally_;
    bool in_window = now >= owner->window_start_ && now < owner->window_end_;
    if (s.ok()) {
      // The client buffers one write per key, so a key written twice in a
      // transaction installs once.
      std::string_view keys[16];
      size_t n = 0;
      for (const auto& op : txn.ops) {
        if (!op.is_read && n < std::size(keys)) keys[n++] = op.key;
      }
      std::sort(keys, keys + n);
      size_t distinct = static_cast<size_t>(std::unique(keys, keys + n) - keys);
      for (size_t i = 0; i < distinct; i++) {
        owner->user_bytes_committed_ +=
            keys[i].size() + owner->generator_.options().value_size;
      }
      if (in_window) {
        t.committed++;
        t.ops_committed += txn.ops.size();
        t.writes_committed += distinct;
        t.latency_us.push_back(now - txn_start);
        t.latency_ms.Record(static_cast<double>(now - txn_start) / 1000.0);
      }
    } else if (in_window) {
      if (s.IsAborted()) {
        t.aborted++;
      } else {
        t.unavailable++;
      }
    }
    StartTxn();
  }
};

ClosedLoop::ClosedLoop(hat::cluster::Deployment& deployment,
                       const hat::workload::YcsbOptions& ycsb,
                       const hat::client::ClientOptions& client_options,
                       int num_clients, uint64_t seed, SpanRecorder* recorder)
    : deployment_(deployment), generator_(ycsb), recorder_(recorder) {
  hat::Rng seeder(seed);
  for (int i = 0; i < num_clients; i++) {
    hat::client::ClientOptions opts = client_options;
    opts.home_cluster = i % deployment.NumClusters();
    auto loop = std::make_unique<Loop>();
    loop->owner = this;
    loop->client = &deployment.AddClient(opts);
    loop->rng = seeder.Fork(i);
    clients_.push_back(loop->client);
    loops_.push_back(std::move(loop));
  }
}

ClosedLoop::~ClosedLoop() = default;

hat::WriteRecord PreloadRecord(const hat::workload::YcsbGenerator& gen,
                               uint64_t index) {
  hat::WriteRecord w;
  w.key = hat::workload::YcsbGenerator::KeyFor(index);
  w.value = gen.MakeValue(index);
  w.ts = kPreloadTs;
  return w;
}

void ClosedLoop::Preload() {
  for (uint64_t i = 0; i < generator_.options().num_keys; i++) {
    hat::WriteRecord w = PreloadRecord(generator_, i);
    for (hat::net::NodeId r : deployment_.ReplicasOf(w.key)) {
      deployment_.server(r).InstallForTest(w);
    }
  }
}

void ClosedLoop::Start(SimTime window_start, SimTime window_end) {
  window_start_ = window_start;
  window_end_ = window_end;
  auto& sim = deployment_.simulation();
  for (size_t i = 0; i < loops_.size(); i++) {
    Loop* loop = loops_[i].get();
    // The harness driver's start stagger, so both drivers stay in lockstep.
    sim.After(1 + i % 997, [loop]() {
      Scope driver(loop->rec(), Layer::kDriver);
      loop->StartTxn();
    });
  }
}

}  // namespace perfbench
