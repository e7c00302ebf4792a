// Client-side configuration: which point in the HAT taxonomy a session runs
// at (Table 3 / Figure 2), and which system architecture serves it.

#ifndef HAT_CLIENT_OPTIONS_H_
#define HAT_CLIENT_OPTIONS_H_

#include <cstdint>
#include <string_view>

#include "hat/sim/simulation.h"

namespace hat::client {

/// ACID isolation levels achievable (or used as building blocks) in a HAT
/// system (Section 5.1). Stronger session guarantees layer on top via
/// ClientOptions flags.
enum class IsolationLevel : uint8_t {
  /// PL-1: writes go out immediately with the transaction's timestamp;
  /// last-writer-wins total order per item prevents G0 (Dirty Write) but
  /// aborted/intermediate data is visible (G1a/G1b possible).
  kReadUncommitted = 0,
  /// PL-2: the client buffers writes until commit, so no transaction ever
  /// reads uncommitted data (prevents G1a, G1b, G1c).
  kReadCommitted = 1,
  /// ANSI Repeatable Read ("Item Cut Isolation"): Read Committed plus a
  /// client-side read cache, so re-reads return the same value (no IMP).
  kItemCut = 2,
  /// Monotonic Atomic View: Item Cut plus the Appendix B two-phase commit
  /// visibility algorithm — once any of a transaction's effects are
  /// observed, all are (no OTV). Writes carry sibling metadata.
  kMonotonicAtomicView = 3,
};

std::string_view IsolationLevelName(IsolationLevel level);

/// System architecture serving the client (Section 6.3).
enum class SystemMode : uint8_t {
  /// Highly available: any replica serves any operation.
  kHat = 0,
  /// All operations for a key go to its designated master replica
  /// (single-key linearizability; unavailable under partitions).
  kMaster = 1,
  /// Dynamo-style: operations go to all replicas, complete on a majority
  /// (regular register semantics; unavailable under majority loss).
  kQuorum = 2,
  /// Distributed strict two-phase locking at key masters (one-copy
  /// serializability; unavailable under partitions, external aborts under
  /// contention via wait-die).
  kLocking = 3,
};

std::string_view SystemModeName(SystemMode mode);

struct ClientOptions {
  IsolationLevel isolation = IsolationLevel::kReadCommitted;
  SystemMode mode = SystemMode::kHat;

  /// Sticky availability (Section 4.1): pin every operation to the home
  /// cluster's replicas. When false, attempts rotate across clusters
  /// starting from home — modelling clients that fail over when re-routed
  /// (and demonstrating why Read Your Writes requires stickiness).
  bool sticky = true;
  /// The cluster this client lives next to (and sticks to).
  int home_cluster = 0;
  /// With sticky=false: start each operation at a uniformly random cluster
  /// instead of home — a location-oblivious load balancer. Used by the
  /// routing ablation to price stickiness in WAN hops.
  bool randomize_routing = false;

  // --- session guarantees (Section 5.1.3) --------------------------------
  /// Reads never observe older versions than previously read (per item).
  bool monotonic_reads = false;
  /// Reads observe the session's own committed writes. Requires stickiness
  /// to be guaranteed under partitions (Section 5.1.3's impossibility).
  bool read_your_writes = false;
  /// Writes Follow Reads: committed writes carry the session's observed
  /// floors as causal dependencies; readers adopt them transitively.
  bool writes_follow_reads = false;
  // Monotonic Writes holds by construction: per-session timestamps are
  // monotonic and the version order is the timestamp order.

  /// Predicate Cut Isolation: cache predicate (range) reads for the
  /// transaction duration so overlapping re-scans agree (no PMP/phantoms).
  bool predicate_cut = false;

  // --- envelope batching --------------------------------------------------
  /// Coalesce up to this many consecutive same-server get/put operations
  /// into one ClientBatchRequest envelope: one wire header and (at the
  /// server) one WAL group commit for the whole batch, with per-op reply
  /// semantics preserved by demultiplexing. 1 (the default) disables
  /// batching — every operation is its own envelope, byte-identical to the
  /// unbatched client.
  size_t batch_max = 1;
  /// How long an operation may wait in the batcher for companions before
  /// its envelope flushes. 0 still coalesces operations issued in the same
  /// simulation instant (a commit's parallel puts, a Read Uncommitted write
  /// burst): the flush fires after the current event's synchronous burst,
  /// adding no latency. A nonzero window applies only while the client has
  /// an envelope in flight to the target server; when nothing is in flight
  /// (the server's lane is idle as far as this client can observe) the
  /// envelope closes at the end of the current instant instead, so the
  /// window adds no latency at low load and still coalesces under
  /// pipelined load.
  sim::Duration batch_max_wait_us = 0;

  // --- timeouts / retries -------------------------------------------------
  sim::Duration rpc_timeout = 2 * sim::kSecond;
  sim::Duration op_timeout = 10 * sim::kSecond;
  sim::Duration retry_backoff = 10 * sim::kMillisecond;

  /// Convenience: PRAM = monotonic reads + monotonic writes + read your
  /// writes; causal = PRAM + writes follow reads (both require stickiness).
  void EnablePram() {
    monotonic_reads = true;
    read_your_writes = true;
    sticky = true;
  }
  void EnableCausal() {
    EnablePram();
    writes_follow_reads = true;
  }
};

/// Per-client operation counters.
struct ClientStats {
  uint64_t txns_committed = 0;
  uint64_t txns_aborted_internal = 0;  ///< client/application chose to abort
  uint64_t txns_aborted_external = 0;  ///< system-induced (wait-die, ...)
  uint64_t txns_unavailable = 0;       ///< ops timed out (partition/master)
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t scans = 0;
  uint64_t read_retries = 0;     ///< replica fail-overs and kNotYet retries
  /// Operations answered kWrongShard by a server whose shard migrated away
  /// (stale placement epoch); each refreshed its routing and retried.
  uint64_t wrong_shard_retries = 0;
  uint64_t cache_hits = 0;       ///< cut-isolation reads served locally
  uint64_t metadata_bytes = 0;   ///< sibling/dependency bytes shipped
  /// Envelope batching: multi-op ClientBatchRequests sent, and the ops they
  /// carried (batched_ops / batches_sent = achieved amortization factor).
  /// Singleton flushes go out as plain ops and count in neither.
  uint64_t batches_sent = 0;
  uint64_t batched_ops = 0;
  /// Envelopes the batcher closed at instant-end instead of holding its
  /// wait window, because nothing was in flight to the target (idle-lane
  /// early closes).
  uint64_t adaptive_early_closes = 0;

  /// Field manifest for generic merging and metric registration (see
  /// obs::MergeStats / obs::Registry::AddStats). Keep in declaration order;
  /// the static_assert below fails compilation when a field is added
  /// without updating this list.
  template <typename V>
  static void VisitFields(V&& v) {
    v("txns_committed", &ClientStats::txns_committed);
    v("txns_aborted_internal", &ClientStats::txns_aborted_internal);
    v("txns_aborted_external", &ClientStats::txns_aborted_external);
    v("txns_unavailable", &ClientStats::txns_unavailable);
    v("reads", &ClientStats::reads);
    v("writes", &ClientStats::writes);
    v("scans", &ClientStats::scans);
    v("read_retries", &ClientStats::read_retries);
    v("wrong_shard_retries", &ClientStats::wrong_shard_retries);
    v("cache_hits", &ClientStats::cache_hits);
    v("metadata_bytes", &ClientStats::metadata_bytes);
    v("batches_sent", &ClientStats::batches_sent);
    v("batched_ops", &ClientStats::batched_ops);
    v("adaptive_early_closes", &ClientStats::adaptive_early_closes);
  }
};

static_assert(sizeof(ClientStats) == 14 * sizeof(uint64_t),
              "ClientStats changed: update ClientStats::VisitFields and this "
              "assert so generic merge/registration stays complete");

}  // namespace hat::client

#endif  // HAT_CLIENT_OPTIONS_H_
