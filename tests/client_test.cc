// Tests for TxnClient: isolation-level mechanics (buffering, cut caches,
// MAV required vectors), delta increments, abort semantics, history
// observation, and the non-HAT modes.

#include <gtest/gtest.h>

#include "hat/adya/phenomena.h"
#include "hat/adya/recorder.h"
#include "hat/client/sync_client.h"
#include "hat/cluster/deployment.h"
#include "hat/common/codec.h"

namespace hat::client {
namespace {

using cluster::Deployment;
using cluster::DeploymentOptions;

class ClientTest : public ::testing::Test {
 protected:
  void Build(DeploymentOptions opts = DeploymentOptions::SingleDatacenter(),
             uint64_t seed = 11) {
    sim_ = std::make_unique<sim::Simulation>(seed);
    opts.server.durable = false;
    deployment_ = std::make_unique<Deployment>(*sim_, opts);
  }
  SyncClient Client(ClientOptions opts = {}) {
    return SyncClient(*sim_, deployment_->AddClient(opts));
  }
  void Settle(sim::Duration d = 2 * sim::kSecond) {
    sim_->RunUntil(sim_->Now() + d);
  }
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<Deployment> deployment_;
};

TEST_F(ClientTest, BufferedWritesInvisibleUntilCommit) {
  Build();
  auto writer = Client();
  auto reader = Client();
  writer.Begin();
  writer.Write("k", "dirty");
  // Reader sees nothing while the writer's txn is open (Read Committed).
  reader.Begin();
  EXPECT_FALSE(reader.Read("k")->found);
  ASSERT_TRUE(reader.Commit().ok());
  ASSERT_TRUE(writer.Commit().ok());
  Settle();
  reader.Begin();
  EXPECT_EQ(reader.Read("k")->value, "dirty");
  ASSERT_TRUE(reader.Commit().ok());
}

TEST_F(ClientTest, ReadUncommittedExposesDirtyWrites) {
  Build();
  ClientOptions ru;
  ru.isolation = IsolationLevel::kReadUncommitted;
  auto writer = Client(ru);
  auto reader = Client();
  writer.Begin();
  writer.Write("k", "dirty");
  Settle();  // dirty write propagates before commit
  reader.Begin();
  auto rv = reader.Read("k");
  EXPECT_TRUE(rv->found);
  EXPECT_EQ(rv->value, "dirty");
  ASSERT_TRUE(reader.Commit().ok());
  writer.Abort();  // the dirty write stays — G1a in action
  reader.Begin();
  EXPECT_TRUE(reader.Read("k")->found);
  ASSERT_TRUE(reader.Commit().ok());
}

TEST_F(ClientTest, AbortDiscardsBufferedWrites) {
  Build();
  auto c = Client();
  c.Begin();
  c.Write("k", "never");
  c.Abort();
  Settle();
  c.Begin();
  EXPECT_FALSE(c.Read("k")->found);
  ASSERT_TRUE(c.Commit().ok());
}

TEST_F(ClientTest, TransactionReadsItsOwnBufferedPut) {
  Build();
  auto c = Client();
  c.Begin();
  c.Write("k", "mine");
  EXPECT_EQ(c.Read("k")->value, "mine");
  ASSERT_TRUE(c.Commit().ok());
}

TEST_F(ClientTest, TransactionReadsItsOwnBufferedIncrement) {
  Build();
  auto c = Client();
  c.Begin();
  c.Write("ctr", EncodeInt64Value(10));
  ASSERT_TRUE(c.Commit().ok());
  Settle();
  c.Begin();
  c.Increment("ctr", 5);
  EXPECT_EQ(*c.ReadInt("ctr"), 15);
  ASSERT_TRUE(c.Commit().ok());
  Settle();
  c.Begin();
  EXPECT_EQ(*c.ReadInt("ctr"), 15);
  ASSERT_TRUE(c.Commit().ok());
}

TEST_F(ClientTest, PutThenIncrementFoldsIntoOnePut) {
  Build();
  auto c = Client();
  c.Begin();
  c.Write("ctr", EncodeInt64Value(100));
  c.Increment("ctr", 7);
  ASSERT_TRUE(c.Commit().ok());
  Settle();
  c.Begin();
  EXPECT_EQ(*c.ReadInt("ctr"), 107);
  ASSERT_TRUE(c.Commit().ok());
}

TEST_F(ClientTest, ItemCutRereadsAreStable) {
  Build();
  ClientOptions ici;
  ici.isolation = IsolationLevel::kItemCut;
  auto c = Client(ici);
  auto other = Client();

  other.Begin();
  other.Write("k", "v1");
  ASSERT_TRUE(other.Commit().ok());
  Settle();

  c.Begin();
  EXPECT_EQ(c.Read("k")->value, "v1");
  // Concurrent overwrite lands...
  other.Begin();
  other.Write("k", "v2");
  ASSERT_TRUE(other.Commit().ok());
  Settle();
  // ...but the cut holds.
  EXPECT_EQ(c.Read("k")->value, "v1");
  ASSERT_TRUE(c.Commit().ok());
  EXPECT_GT(c.underlying().stats().cache_hits, 0u);

  // Read Committed (no cut) observes the change.
  ClientOptions rc;
  auto c2 = Client(rc);
  c2.Begin();
  EXPECT_EQ(c2.Read("k")->value, "v2");
  ASSERT_TRUE(c2.Commit().ok());
}

TEST_F(ClientTest, PredicateCutOverlappingScansAgree) {
  Build();
  ClientOptions pci;
  pci.predicate_cut = true;
  auto c = Client(pci);
  auto other = Client();

  other.Begin();
  other.Write("item1", "a");
  ASSERT_TRUE(other.Commit().ok());
  Settle();

  c.Begin();
  auto first = c.Scan("item0", "item9");
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->size(), 1u);

  // A phantom appears...
  other.Begin();
  other.Write("item2", "b");
  ASSERT_TRUE(other.Commit().ok());
  Settle();

  // ...but the predicate cut hides it.
  auto second = c.Scan("item0", "item9");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->size(), 1u);
  ASSERT_TRUE(c.Commit().ok());

  // Without predicate-cut the phantom is visible.
  auto c2 = Client();
  c2.Begin();
  auto plain = c2.Scan("item0", "item9");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->size(), 2u);
  ASSERT_TRUE(c2.Commit().ok());
}

TEST_F(ClientTest, MavMetadataBytesGrowWithTxnSize) {
  Build();
  ClientOptions mav;
  mav.isolation = IsolationLevel::kMonotonicAtomicView;
  auto c = Client(mav);
  c.Begin();
  c.Write("a", "1");
  ASSERT_TRUE(c.Commit().ok());
  uint64_t small = c.underlying().stats().metadata_bytes;
  c.Begin();
  for (int i = 0; i < 16; i++) c.Write("key" + std::to_string(i), "v");
  ASSERT_TRUE(c.Commit().ok());
  uint64_t large = c.underlying().stats().metadata_bytes - small;
  EXPECT_GT(large, 16 * small);
}

TEST_F(ClientTest, MasterModeReadsLatestWrite) {
  Build();
  ClientOptions master;
  master.mode = SystemMode::kMaster;
  auto a = Client(master);
  auto b = Client(master);
  a.Begin();
  a.Write("k", "v1");
  ASSERT_TRUE(a.Commit().ok());
  // No settle needed: the master serializes — reads see the latest
  // immediately (single-key linearizability).
  b.Begin();
  EXPECT_EQ(b.Read("k")->value, "v1");
  ASSERT_TRUE(b.Commit().ok());
}

TEST_F(ClientTest, QuorumModeReadsOwnQuorumWrite) {
  Build();
  ClientOptions quorum;
  quorum.mode = SystemMode::kQuorum;
  auto a = Client(quorum);
  auto b = Client(quorum);
  a.Begin();
  a.Write("k", "v1");
  ASSERT_TRUE(a.Commit().ok());
  // Regular register semantics: overlapping quorums see the write.
  b.Begin();
  EXPECT_EQ(b.Read("k")->value, "v1");
  ASSERT_TRUE(b.Commit().ok());
}

TEST_F(ClientTest, EmptyCommitSucceeds) {
  Build();
  auto c = Client();
  c.Begin();
  EXPECT_TRUE(c.Commit().ok());
  EXPECT_EQ(c.underlying().stats().txns_committed, 1u);
}

TEST_F(ClientTest, StatsCountOutcomes) {
  Build();
  auto c = Client();
  c.Begin();
  c.Write("a", "1");
  ASSERT_TRUE(c.Commit().ok());
  c.Begin();
  c.Abort();
  const auto& stats = c.underlying().stats();
  EXPECT_EQ(stats.txns_committed, 1u);
  EXPECT_EQ(stats.txns_aborted_internal, 1u);
  EXPECT_EQ(stats.writes, 1u);
}

TEST_F(ClientTest, ObserverRecordsCommittedHistory) {
  Build();
  adya::HistoryRecorder recorder;
  auto c = Client();
  c.underlying().set_observer(&recorder);
  c.Begin();
  c.Write("x", "1");
  ASSERT_TRUE(c.Commit().ok());
  Settle();
  c.Begin();
  EXPECT_TRUE(c.Read("x")->found);
  ASSERT_TRUE(c.Commit().ok());
  auto history = recorder.Finish();
  ASSERT_EQ(history.size(), 2u);
  auto report = adya::Analyze(history);
  EXPECT_TRUE(report.ReadCommitted());
  EXPECT_EQ(report.Summary(), "(none)");
}

TEST_F(ClientTest, ObserverMarksAbortedTransactions) {
  Build();
  adya::HistoryRecorder recorder;
  ClientOptions ru;
  ru.isolation = IsolationLevel::kReadUncommitted;
  auto writer = Client(ru);
  writer.underlying().set_observer(&recorder);
  auto reader = Client();
  reader.underlying().set_observer(&recorder);

  writer.Begin();
  writer.Write("x", "doomed");
  Settle();
  reader.Begin();
  EXPECT_TRUE(reader.Read("x")->found);
  ASSERT_TRUE(reader.Commit().ok());
  writer.Abort();

  auto report = adya::Analyze(recorder.Finish());
  EXPECT_TRUE(report.g1a) << "reader observed an aborted write";
}

TEST_F(ClientTest, LockingModeSerializesConcurrentRmw) {
  Build();
  ClientOptions lk;
  lk.mode = SystemMode::kLocking;
  auto a = Client(lk);
  auto b = Client(lk);
  a.Begin();
  a.Write("x", EncodeInt64Value(0));
  ASSERT_TRUE(a.Commit().ok());
  Settle();

  int committed = 0;
  for (int i = 0; i < 10; i++) {
    SyncClient& c = (i % 2 == 0) ? a : b;
    Status s;
    do {
      c.Begin();
      auto v = c.ReadInt("x");
      if (!v.ok()) {
        s = v.status();
        continue;
      }
      c.Write("x", EncodeInt64Value(*v + 1));
      s = c.Commit();
    } while (!s.ok());
    committed++;
  }
  Settle();
  a.Begin();
  EXPECT_EQ(*a.ReadInt("x"), committed);
  ASSERT_TRUE(a.Commit().ok());
}

TEST_F(ClientTest, NonStickyReadsRotateAcrossClusters) {
  Build(DeploymentOptions::TwoRegions());
  ClientOptions opts;
  opts.sticky = false;
  opts.home_cluster = 0;
  auto c = Client(opts);
  // Write via cluster 0, then partition cluster 0 away; a non-sticky read
  // falls over to cluster 1 and still completes (with possibly stale data).
  c.Begin();
  c.Write("k", "v");
  ASSERT_TRUE(c.Commit().ok());
  Settle();
  // Cut only the link from the client to its home replica: the non-sticky
  // client retries elsewhere.
  deployment_->network().CutLink(c.underlying().id(),
                                 deployment_->ReplicaInCluster("k", 0));
  c.Begin();
  auto rv = c.Read("k");
  ASSERT_TRUE(rv.ok());
  EXPECT_TRUE(rv->found);
  ASSERT_TRUE(c.Commit().ok());
  EXPECT_GT(c.underlying().stats().read_retries, 0u);
}

TEST_F(ClientTest, StickyClientBlocksRatherThanFailOver) {
  Build(DeploymentOptions::TwoRegions());
  ClientOptions opts;
  opts.sticky = true;
  opts.home_cluster = 0;
  opts.op_timeout = 1 * sim::kSecond;
  opts.rpc_timeout = 200 * sim::kMillisecond;
  auto c = Client(opts);
  deployment_->network().CutLink(c.underlying().id(),
                                 deployment_->ReplicaInCluster("k", 0));
  c.Begin();
  auto rv = c.Read("k");
  EXPECT_FALSE(rv.ok()) << "sticky client must not silently fail over";
  c.Abort();
}

TEST_F(ClientTest, BatchedCommitCoalescesPutsAndPreservesReplies) {
  Build();
  ClientOptions opts;
  opts.batch_max = 8;
  auto writer = Client(opts);
  auto reader = Client();
  writer.Begin();
  // 16 keys across 5 servers: the commit's parallel puts must coalesce at
  // least one multi-op envelope per server.
  for (int i = 0; i < 16; i++) {
    writer.Write("bk" + std::to_string(i), "v" + std::to_string(i));
  }
  ASSERT_TRUE(writer.Commit().ok());
  const auto& cs = writer.underlying().stats();
  EXPECT_GT(cs.batches_sent, 0u);
  EXPECT_GT(cs.batched_ops, cs.batches_sent)
      << "a batch is only counted when it carries more than one op";
  EXPECT_GT(deployment_->TotalServerStats().client_batches, 0u);
  Settle();
  // Per-op reply semantics survived the demux: every write is durable and
  // readable with its own value.
  reader.Begin();
  for (int i = 0; i < 16; i++) {
    auto rv = reader.Read("bk" + std::to_string(i));
    ASSERT_TRUE(rv.ok());
    ASSERT_TRUE(rv->found) << "bk" << i;
    EXPECT_EQ(rv->value, "v" + std::to_string(i));
  }
  ASSERT_TRUE(reader.Commit().ok());
}

TEST_F(ClientTest, BatchingDisabledByDefaultSendsPlainOps) {
  Build();
  auto c = Client();  // batch_max = 1
  c.Begin();
  for (int i = 0; i < 8; i++) {
    c.Write("k" + std::to_string(i), "v");
  }
  ASSERT_TRUE(c.Commit().ok());
  EXPECT_EQ(c.underlying().stats().batches_sent, 0u);
  EXPECT_EQ(deployment_->TotalServerStats().client_batches, 0u);
}

TEST_F(ClientTest, AdaptiveBatchWaitClosesEnvelopeWhenLaneIdle) {
  Build();
  const sim::Duration kWait = 50 * sim::kMillisecond;
  // Nothing in flight to the target, so the envelope closes at instant-end
  // and the read costs only the round trip, not the wait window.
  ClientOptions opts;
  opts.batch_max = 8;
  opts.batch_max_wait_us = kWait;
  auto fast = Client(opts);
  fast.Begin();
  sim::SimTime t0 = sim_->Now();
  ASSERT_TRUE(fast.Read("k").ok());
  EXPECT_LT(sim_->Now() - t0, kWait / 2) << "idle lane must not wait";
  EXPECT_GT(fast.underlying().stats().adaptive_early_closes, 0u);
  fast.Abort();
}

TEST_F(ClientTest, AdaptiveBatchWaitPreservesBatchedCommitSemantics) {
  Build();
  ClientOptions opts;
  opts.batch_max = 8;
  opts.batch_max_wait_us = 200;
  auto writer = Client(opts);
  writer.Begin();
  for (int i = 0; i < 16; i++) {
    writer.Write("ak" + std::to_string(i), "av" + std::to_string(i));
  }
  ASSERT_TRUE(writer.Commit().ok());
  // A commit's parallel puts are issued in one simulation instant, so the
  // instant-end early close still coalesces them into multi-op envelopes.
  const auto& cs = writer.underlying().stats();
  EXPECT_GT(cs.batches_sent, 0u);
  EXPECT_GT(cs.batched_ops, cs.batches_sent);
  Settle();
  auto reader = Client();
  reader.Begin();
  for (int i = 0; i < 16; i++) {
    auto rv = reader.Read("ak" + std::to_string(i));
    ASSERT_TRUE(rv.ok());
    ASSERT_TRUE(rv->found) << "ak" << i;
    EXPECT_EQ(rv->value, "av" + std::to_string(i));
  }
  ASSERT_TRUE(reader.Commit().ok());
}

TEST_F(ClientTest, BatchedQuorumCommitStillReachesAllReplicas) {
  Build();
  ClientOptions opts;
  opts.mode = SystemMode::kQuorum;
  opts.batch_max = 8;
  auto writer = Client(opts);
  writer.Begin();
  for (int i = 0; i < 8; i++) {
    writer.Write("qk" + std::to_string(i), "qv" + std::to_string(i));
  }
  ASSERT_TRUE(writer.Commit().ok());
  auto reader = Client(opts);
  reader.Begin();
  for (int i = 0; i < 8; i++) {
    auto rv = reader.Read("qk" + std::to_string(i));
    ASSERT_TRUE(rv.ok());
    ASSERT_TRUE(rv->found) << "qk" << i;
    EXPECT_EQ(rv->value, "qv" + std::to_string(i));
  }
  ASSERT_TRUE(reader.Commit().ok());
}

}  // namespace
}  // namespace hat::client
