// Direct unit tests for server::MavCoordinator, constructed without a
// ReplicaServer: NOTIFY traffic is captured by the SendFn and gossip by the
// GossipFn, so the Appendix B pending/good protocol is driven by hand.

#include "hat/server/mav_coordinator.h"

#include <gtest/gtest.h>

#include <vector>

#include "tests/test_util.h"

namespace hat::server {
namespace {

class MavCoordinatorTest : public ::testing::Test {
 protected:
  static constexpr net::NodeId kSelf = 1;
  static constexpr net::NodeId kPeer = 2;

  void MakeCoordinator(std::vector<net::NodeId> replicas = {kSelf, kPeer},
                       MavCoordinator::Options opts = {}) {
    partitioner_ = std::make_unique<FixedPartitioner>(std::move(replicas));
    mav_ = std::make_unique<MavCoordinator>(
        sim_, kSelf, partitioner_.get(), good_, persistence_, opts,
        [this](net::NodeId to, net::Message m, obs::TraceContext) {
          notifies_.emplace_back(to, std::get<net::NotifyRequest>(m));
        },
        [this](const WriteRecord& w, net::NodeId, obs::TraceContext) {
          gossiped_.push_back(w);
        },
        [](const Key&) {});
  }

  WriteRecord MakeWrite(const Key& key, uint64_t logical,
                        std::vector<Key> sibs) {
    WriteRecord w;
    w.key = key;
    w.value = "v";
    w.ts = {logical, 7};
    w.sibs = std::move(sibs);
    return w;
  }

  sim::Simulation sim_{1};
  std::unique_ptr<FixedPartitioner> partitioner_;
  version::ShardedStore good_;
  PersistenceManager persistence_{""};  // disabled: pure in-memory protocol
  std::unique_ptr<MavCoordinator> mav_;
  std::vector<std::pair<net::NodeId, net::NotifyRequest>> notifies_;
  std::vector<WriteRecord> gossiped_;
};

TEST_F(MavCoordinatorTest, SelfOnlyReplicaPromotesImmediately) {
  MakeCoordinator({kSelf});
  mav_->Install(MakeWrite("k", 10, {"k"}), /*gossip=*/true);
  EXPECT_TRUE(good_.Contains("k", {10, 7}));
  EXPECT_EQ(mav_->stats().promotions, 1u);
  EXPECT_EQ(mav_->PendingWriteCount(), 0u);
}

TEST_F(MavCoordinatorTest, PendingUntilPeerAcks) {
  MakeCoordinator();
  mav_->Install(MakeWrite("k", 10, {"k"}), /*gossip=*/true);
  // Our own ack went out to the peer; the write stays hidden.
  ASSERT_EQ(notifies_.size(), 1u);
  EXPECT_EQ(notifies_[0].first, kPeer);
  EXPECT_FALSE(good_.Contains("k", {10, 7}));
  EXPECT_EQ(mav_->PendingWriteCount(), 1u);
  EXPECT_NE(mav_->PendingVersion("k", {10, 7}), nullptr);
  // Peer's ack arrives: pending-stable -> promoted.
  mav_->HandleNotify(net::NotifyRequest{{10, 7}, kPeer});
  EXPECT_TRUE(good_.Contains("k", {10, 7}));
  EXPECT_EQ(mav_->PendingWriteCount(), 0u);
  EXPECT_EQ(mav_->PendingVersion("k", {10, 7}), nullptr);
}

TEST_F(MavCoordinatorTest, AcksOnlyAfterAllLocalSiblingsArrive) {
  MakeCoordinator();
  mav_->Install(MakeWrite("a", 10, {"a", "b"}), /*gossip=*/true);
  // "b" is also replicated here (FixedPartitioner replicates every key
  // everywhere) and has not arrived: no ack may be broadcast yet.
  EXPECT_TRUE(notifies_.empty());
  mav_->Install(MakeWrite("b", 10, {"a", "b"}), /*gossip=*/true);
  ASSERT_EQ(notifies_.size(), 1u);
  mav_->HandleNotify(net::NotifyRequest{{10, 7}, kPeer});
  EXPECT_TRUE(good_.Contains("a", {10, 7}));
  EXPECT_TRUE(good_.Contains("b", {10, 7}));
  EXPECT_EQ(mav_->stats().promotions, 1u);
}

TEST_F(MavCoordinatorTest, EarlyAckCountsTowardPromotion) {
  MakeCoordinator();
  // The peer's NOTIFY races ahead of the write itself.
  mav_->HandleNotify(net::NotifyRequest{{10, 7}, kPeer});
  EXPECT_EQ(mav_->PendingWriteCount(), 0u);
  mav_->Install(MakeWrite("k", 10, {"k"}), /*gossip=*/true);
  // Install finds the early ack and, with our own, promotes at once.
  EXPECT_TRUE(good_.Contains("k", {10, 7}));
}

TEST_F(MavCoordinatorTest, LateAckForPromotedTxnIsAnswered) {
  MakeCoordinator();
  mav_->Install(MakeWrite("k", 10, {"k"}), /*gossip=*/true);
  mav_->HandleNotify(net::NotifyRequest{{10, 7}, kPeer});
  ASSERT_TRUE(good_.Contains("k", {10, 7}));
  notifies_.clear();
  // A healed replica re-notifies after we dropped ack state: answer it so it
  // can promote too.
  mav_->HandleNotify(net::NotifyRequest{{10, 7}, kPeer});
  ASSERT_EQ(notifies_.size(), 1u);
  EXPECT_EQ(notifies_[0].first, kPeer);
  EXPECT_EQ(notifies_[0].second.sender, kSelf);
  EXPECT_TRUE(notifies_[0].second.answer);
}

TEST(MavNotifyExchangeTest, PromotedPeersStopAfterOneAnswer) {
  // Two replicas that both promoted a transaction: one late notify from B
  // reaches A. A answers once; B, promoted too, must not answer the answer,
  // or the pair would bounce notifies until the timestamp left promoted
  // memory.
  constexpr net::NodeId kA = 1, kB = 2;
  sim::Simulation sim{1};
  FixedPartitioner partitioner{{kA, kB}};
  struct Replica {
    version::ShardedStore good;
    PersistenceManager persistence{""};
    std::unique_ptr<MavCoordinator> mav;
  };
  Replica a, b;
  std::vector<std::pair<net::NodeId, net::NotifyRequest>> wire;
  auto make = [&](Replica& r, net::NodeId id) {
    r.mav = std::make_unique<MavCoordinator>(
        sim, id, &partitioner, r.good, r.persistence,
        MavCoordinator::Options{},
        [&wire](net::NodeId to, net::Message m, obs::TraceContext) {
          wire.emplace_back(to, std::get<net::NotifyRequest>(m));
        },
        [](const WriteRecord&, net::NodeId, obs::TraceContext) {},
        [](const Key&) {});
  };
  make(a, kA);
  make(b, kB);
  auto deliver_all = [&]() {
    size_t delivered = 0;
    while (!wire.empty() && delivered < 100) {
      auto [to, req] = wire.front();
      wire.erase(wire.begin());
      (to == kA ? a : b).mav->HandleNotify(req);
      delivered++;
    }
    return delivered;
  };
  WriteRecord w;
  w.key = "k";
  w.value = "v";
  w.ts = {10, 7};
  w.sibs = {"k"};
  a.mav->Install(w, /*gossip=*/false);
  b.mav->Install(w, /*gossip=*/false);
  deliver_all();  // the two pending-stable acks
  ASSERT_TRUE(a.good.Contains("k", w.ts));
  ASSERT_TRUE(b.good.Contains("k", w.ts));

  // B's renotify, sent before B promoted, arrives late at A.
  a.mav->HandleNotify(net::NotifyRequest{w.ts, kB});
  ASSERT_EQ(wire.size(), 1u);
  EXPECT_EQ(wire[0].first, kB);
  EXPECT_TRUE(wire[0].second.answer);
  EXPECT_EQ(deliver_all(), 1u) << "the answer must not be answered";
  EXPECT_TRUE(wire.empty());
}

TEST_F(MavCoordinatorTest, StalePendingDroppedButStillAcked) {
  MakeCoordinator();
  good_.Apply(MakeWrite("k", 50, {}));  // newer good version exists
  mav_->Install(MakeWrite("k", 40, {"k"}), /*gossip=*/true);
  EXPECT_EQ(mav_->stats().stale_pending_dropped, 1u);
  EXPECT_EQ(mav_->PendingVersion("k", {40, 7}), nullptr);
  // The ack still went out so siblings elsewhere can promote.
  ASSERT_EQ(notifies_.size(), 1u);
}

TEST_F(MavCoordinatorTest, RenotifyRebroadcastsUntilAcked) {
  MavCoordinator::Options opts;
  opts.renotify_interval = 100 * sim::kMillisecond;
  MakeCoordinator({kSelf, kPeer}, opts);
  mav_->Start();
  mav_->Install(MakeWrite("k", 10, {"k"}), /*gossip=*/true);
  size_t initial = notifies_.size();
  sim_.RunUntil(sim::kSecond);
  EXPECT_GT(notifies_.size(), initial) << "renotify must re-broadcast";
  for (const auto& [to, req] : notifies_) {
    EXPECT_EQ(to, kPeer);
    EXPECT_EQ(req.ts, (Timestamp{10, 7}));
  }
  // Once acked, the rebroadcast stops.
  mav_->HandleNotify(net::NotifyRequest{{10, 7}, kPeer});
  size_t settled = notifies_.size();
  sim_.RunUntil(2 * sim::kSecond);
  EXPECT_EQ(notifies_.size(), settled);
}

TEST_F(MavCoordinatorTest, DuplicateInstallIsIdempotent) {
  MakeCoordinator();
  WriteRecord w = MakeWrite("k", 10, {"k"});
  mav_->Install(w, /*gossip=*/true);
  mav_->Install(w, /*gossip=*/true);  // anti-entropy redundancy
  EXPECT_EQ(mav_->PendingWriteCount(), 1u);
  EXPECT_EQ(gossiped_.size(), 1u);
}

TEST_F(MavCoordinatorTest, ClearDropsPendingState) {
  MakeCoordinator();
  mav_->Install(MakeWrite("k", 10, {"k"}), /*gossip=*/true);
  mav_->Clear();
  EXPECT_EQ(mav_->PendingWriteCount(), 0u);
  EXPECT_EQ(mav_->PendingVersion("k", {10, 7}), nullptr);
}

}  // namespace
}  // namespace hat::server
