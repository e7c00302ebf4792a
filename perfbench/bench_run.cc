#include "perfbench/bench_run.h"

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <unordered_map>

#include "hat/harness/driver.h"
#include "hat/server/persistence_manager.h"
#include "perfbench/closed_loop.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using hat::sim::SimTime;

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(SpanRecorder::NowNs() - start_ns) / 1e9;
}

/// A fresh directory under `root`, removed with everything in it when the
/// object goes out of scope.
class TempDir {
 public:
  TempDir(const std::string& root, const std::string& name) {
    static int counter = 0;
    path_ = root + "/" + name + "-" + std::to_string(getpid()) + "-" +
            std::to_string(counter++);
    std::error_code ec;
    fs::remove_all(path_, ec);
    fs::create_directories(path_, ec);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

/// Cumulative counters at one instant; the window's figures are the
/// difference of two snapshots.
struct Counters {
  uint64_t events = 0;
  hat::net::NetworkStats net;
  hat::server::ServerStats servers;
  hat::client::ClientStats clients;
};

Counters Snapshot(hat::sim::Simulation& sim, hat::cluster::Deployment& dep) {
  return Counters{sim.events_processed(), dep.network().stats(),
                  dep.TotalServerStats(), dep.TotalClientStats()};
}

/// Nearest-rank percentile of sorted samples.
uint64_t Percentile(const std::vector<uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  if (static_cast<double>(rank) < q * static_cast<double>(sorted.size())) {
    rank++;
  }
  return sorted[std::max<size_t>(rank, 1) - 1];
}

void CaptureEnvelope(ReplaySample* s, const hat::net::Envelope& env) {
  auto add_write = [s](const hat::WriteRecord& w) {
    if (s->writes.size() < ReplaySample::kCap) s->writes.push_back(w);
  };
  auto add_read = [s](const hat::net::GetRequest& g) {
    if (s->reads.size() < ReplaySample::kCap) s->reads.push_back(g);
  };
  size_t begin = s->writes.size();
  bool group_commit = false;
  if (const auto* put = std::get_if<hat::net::PutRequest>(&env.msg)) {
    add_write(put->write);
  } else if (const auto* get = std::get_if<hat::net::GetRequest>(&env.msg)) {
    add_read(*get);
  } else if (const auto* batch =
                 std::get_if<hat::net::ClientBatchRequest>(&env.msg)) {
    group_commit = true;
    for (const auto& op : batch->ops) {
      if (const auto* p = std::get_if<hat::net::PutRequest>(&op)) {
        add_write(p->write);
      } else {
        add_read(std::get<hat::net::GetRequest>(op));
      }
    }
  } else if (const auto* ae =
                 std::get_if<hat::net::AntiEntropyBatch>(&env.msg)) {
    group_commit = true;
    for (const auto& w : ae->writes) add_write(w);
  }
  if (s->writes.size() > begin) {
    s->groups.push_back({begin, s->writes.size(), group_commit});
  }
}

/// Every preloaded key's replicas must serve the same folded version.
uint64_t DivergentKeys(const Workload& wl, hat::cluster::Deployment& dep) {
  uint64_t divergent = 0;
  for (uint64_t i = 0; i < wl.ycsb.num_keys; i++) {
    hat::Key key = hat::workload::YcsbGenerator::KeyFor(i);
    auto replicas = dep.ReplicasOf(key);
    hat::ReadVersion first = dep.server(replicas[0]).good().Read(key);
    bool ok = first.found;
    for (size_t r = 1; r < replicas.size() && ok; r++) {
      hat::ReadVersion other = dep.server(replicas[r]).good().Read(key);
      ok = other.found && other.ts == first.ts && other.value == first.value;
    }
    if (!ok) divergent++;
  }
  return divergent;
}

struct Served {
  hat::Timestamp ts;
  uint64_t value_hash = 0;
};

/// What each server serves for each key it replicates, keyed by server id.
std::vector<std::unordered_map<hat::Key, Served>> ServedVersions(
    const Workload& wl, hat::cluster::Deployment& dep) {
  std::vector<std::unordered_map<hat::Key, Served>> served(dep.ServerCount());
  for (uint64_t i = 0; i < wl.ycsb.num_keys; i++) {
    hat::Key key = hat::workload::YcsbGenerator::KeyFor(i);
    for (hat::net::NodeId r : dep.ReplicasOf(key)) {
      hat::ReadVersion rv = dep.server(r).good().Read(key);
      served[r][key] =
          Served{rv.ts, hat::Fnv1a64(rv.value.data(), rv.value.size())};
    }
  }
  return served;
}

/// Reopens every server's directory through PersistenceManager::Recover and
/// compares each key's newest recovered version with what was served.
/// Preloaded versions bypass persistence, so a key never overwritten must
/// recover nothing. Returns the number of mismatching keys.
uint64_t RecoveryMismatches(
    const std::string& storage_root,
    const std::vector<std::unordered_map<hat::Key, Served>>& served,
    uint64_t* recovered_records, std::vector<std::string>* errors) {
  uint64_t mismatches = 0;
  for (size_t id = 0; id < served.size(); id++) {
    hat::server::PersistenceManager pm(storage_root + "/server-" +
                                       std::to_string(id));
    auto manifest = pm.ReadManifest();
    if (!manifest.ok()) {
      errors->push_back("server " + std::to_string(id) +
                        ": no layout manifest: " +
                        manifest.status().ToString());
      return mismatches + 1;
    }
    std::unordered_map<hat::Key, Served> newest;
    uint64_t pending = 0;
    hat::Status st = pm.Recover(
        manifest->owned,
        [&](size_t, const hat::WriteRecord& w) {
          (*recovered_records)++;
          auto [it, fresh] = newest.try_emplace(w.key);
          if (fresh || it->second.ts < w.ts) {
            it->second = Served{
                w.ts, hat::Fnv1a64(w.value.data(), w.value.size())};
          }
        },
        [&](size_t, const hat::WriteRecord&) { pending++; });
    if (!st.ok()) {
      errors->push_back("server " + std::to_string(id) +
                        ": recovery failed: " + st.ToString());
      return mismatches + 1;
    }
    mismatches += pending;
    for (const auto& [key, want] : served[id]) {
      auto it = newest.find(key);
      if (want.ts == kPreloadTs) {
        if (it != newest.end()) mismatches++;
      } else if (it == newest.end() || it->second.ts != want.ts ||
                 it->second.value_hash != want.value_hash) {
        mismatches++;
      }
    }
    for (const auto& [key, got] : newest) {
      if (served[id].count(key) == 0) mismatches++;
    }
  }
  return mismatches;
}

/// A deployment with its clients, preloaded: what setup_s times.
struct Setup {
  std::unique_ptr<hat::sim::Simulation> sim;
  std::unique_ptr<hat::cluster::Deployment> dep;
  std::unique_ptr<ClosedLoop> loop;
};

Setup BuildSetup(const Workload& wl, const hat::cluster::DeploymentOptions& o,
                 uint64_t seed, SpanRecorder* rec) {
  Setup s;
  s.sim = std::make_unique<hat::sim::Simulation>(seed);
  s.dep = std::make_unique<hat::cluster::Deployment>(*s.sim, o);
  s.loop = std::make_unique<ClosedLoop>(*s.dep, wl.ycsb, wl.client,
                                        wl.num_clients, seed ^ 0x9e37, rec);
  s.loop->Preload();
  return s;
}

}  // namespace

std::string Fields::Json() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < items_.size(); i++) {
    std::snprintf(buf, sizeof(buf), "%.17g", items_[i].second);
    out += (i ? ", \"" : "\"") + items_[i].first + "\": " + buf;
  }
  return out + "}";
}

RunOutput RunWorkload(const Workload& wl, const RunOptions& opts) {
  RunOutput out;
  std::unique_ptr<TempDir> dir;
  hat::cluster::DeploymentOptions dopts = wl.deployment;
  if (wl.persistent) {
    dir = std::make_unique<TempDir>(opts.tmp_root, wl.name);
    dopts.server.storage_dir = dir->path() + "/store";
  }
  SpanRecorder recorder;
  SpanRecorder* rec = opts.traced ? &recorder : nullptr;

  // Set-up is timed `opts.setups` times and the median reported; all but
  // the last deployment are thrown away (with their own directories).
  std::vector<double> setup_times;
  for (int i = 1; i < opts.setups; i++) {
    std::unique_ptr<TempDir> scratch;
    hat::cluster::DeploymentOptions o = wl.deployment;
    if (wl.persistent) {
      scratch = std::make_unique<TempDir>(opts.tmp_root, wl.name + "-setup");
      o.server.storage_dir = scratch->path() + "/store";
    }
    uint64_t start = SpanRecorder::NowNs();
    Setup throwaway = BuildSetup(wl, o, opts.seed, nullptr);
    setup_times.push_back(SecondsSince(start));
  }
  uint64_t setup_start = SpanRecorder::NowNs();
  Setup setup = BuildSetup(wl, dopts, opts.seed, rec);
  setup_times.push_back(SecondsSince(setup_start));
  std::sort(setup_times.begin(), setup_times.end());
  out.setup_s = setup_times[setup_times.size() / 2];
  auto& sim = setup.sim;
  auto& dep = setup.dep;
  auto& loop = setup.loop;

  // The traced run puts a TimedSink in every node's place. Delivery looks
  // the sink up when the envelope arrives, so nothing else changes.
  std::vector<std::unique_ptr<TimedSink>> sinks;
  if (opts.traced || opts.capture != nullptr) {
    for (hat::net::NodeId id = 0; id < dep->ServerCount(); id++) {
      sinks.push_back(std::make_unique<TimedSink>(&dep->server(id),
                                                  Layer::kServerRecv, rec));
      dep->network().Register(id, sinks.back().get());
    }
    for (hat::client::TxnClient* c : loop->clients()) {
      sinks.push_back(
          std::make_unique<TimedSink>(c, Layer::kClientRecv, rec));
      dep->network().Register(c->id(), sinks.back().get());
    }
  }
  if (opts.capture != nullptr) {
    hat::version::ShardedStore::Options& so = opts.capture->store_options;
    so.shards = dopts.server.shards_per_server;
    so.digest_buckets = dopts.server.digest_buckets;
    so.stride = static_cast<size_t>(dopts.servers_per_cluster);
    so.num_logical_shards = so.shards * so.stride;
    so.logical_shards = dep->placement().OwnedBy(0, 0);
    sinks[0]->set_observer([sample = opts.capture](const auto& env) {
      CaptureEnvelope(sample, env);
    });
  }

  const SimTime window_start = wl.warmup;
  const SimTime window_end = window_start + wl.window;
  loop->Start(window_start, window_end);
  uint64_t phase_start = SpanRecorder::NowNs();
  sim->RunUntil(window_start);
  out.warmup_wall_s = SecondsSince(phase_start);
  if (opts.capture != nullptr) sinks[0]->set_observer(nullptr);
  const uint64_t warmup_events = sim->events_processed();

  // Window boundaries split RunUntil, which schedules no event. The traced
  // run steps instead and needs one sentinel event at window_end; events at
  // window_end queued after it run untraced, and the sentinel is not counted.
  const Counters c0 = Snapshot(*sim, *dep);
  uint64_t sentinel_events = 0;
  if (!opts.traced) {
    uint64_t t0 = SpanRecorder::NowNs();
    sim->RunUntil(window_end);
    out.window_wall_s = SecondsSince(t0);
  } else {
    bool stop = false;
    sim->At(window_end, [&stop]() { stop = true; });
    sentinel_events = 1;
    recorder.Start(warmup_events * 3);
    uint64_t t0 = SpanRecorder::NowNs();
    while (true) {
      recorder.OpenStep();
      if (!sim->Step() || stop) {
        recorder.DiscardStep();
        break;
      }
      recorder.CloseStep();
    }
    out.window_wall_s = SecondsSince(t0);
    recorder.Stop();
    sim->RunUntil(window_end);
    out.layers = recorder.Summarize();
    out.spans = recorder.span_count();
  }
  const Counters c1 = Snapshot(*sim, *dep);

  uint64_t versions = 0;
  uint64_t keys = 0;
  for (hat::net::NodeId id = 0; id < dep->ServerCount(); id++) {
    versions += dep->server(id).good().VersionCount();
    keys += dep->server(id).good().KeyCount();
  }

  // Correctness gate: clients stop starting transactions at window_end;
  // drain, then every key's replicas must agree.
  phase_start = SpanRecorder::NowNs();
  sim->RunUntil(window_end + wl.drain);
  out.drain_wall_s = SecondsSince(phase_start);
  phase_start = SpanRecorder::NowNs();
  uint64_t divergent = DivergentKeys(wl, *dep);
  if (divergent > 0) {
    out.errors.push_back(std::to_string(divergent) +
                         " keys diverge across replicas after drain");
  }

  const WindowTally& t = loop->tally();
  std::vector<uint64_t> lat = t.latency_us;
  std::sort(lat.begin(), lat.end());
  const uint64_t p50 = Percentile(lat, 0.50);
  const uint64_t p99 = Percentile(lat, 0.99);
  const uint64_t beyond_p99 = static_cast<uint64_t>(
      lat.end() - std::upper_bound(lat.begin(), lat.end(), p99));
  const double window_s = static_cast<double>(wl.window) / 1e6;
  const hat::server::ServerStats& s0 = c0.servers;
  const hat::server::ServerStats& s1 = c1.servers;
  hat::Histogram queue_wait = s1.queue_wait_us.DeltaSince(s0.queue_wait_us);

  Fields& m = out.modeled;
  m.Add("committed", static_cast<double>(t.committed));
  m.Add("unavailable", static_cast<double>(t.unavailable));
  m.Add("aborted", static_cast<double>(t.aborted));
  m.Add("ops_committed", static_cast<double>(t.ops_committed));
  m.Add("writes_committed", static_cast<double>(t.writes_committed));
  m.Add("sim_ktps", static_cast<double>(t.committed) / window_s / 1000.0);
  m.Add("sim_p50_ms", static_cast<double>(p50) / 1000.0);
  m.Add("sim_p99_ms", static_cast<double>(p99) / 1000.0);
  m.Add("latency_samples", static_cast<double>(lat.size()));
  m.Add("samples_beyond_p99", static_cast<double>(beyond_p99));
  m.Add("hist_count", static_cast<double>(t.latency_ms.count()));
  m.Add("hist_sum_ms", t.latency_ms.sum());
  m.Add("hist_min_ms", t.latency_ms.min());
  m.Add("hist_max_ms", t.latency_ms.max());
  m.Add("events", static_cast<double>(c1.events - c0.events - sentinel_events));
  m.Add("msgs", static_cast<double>(c1.net.sent - c0.net.sent));
  m.Add("bytes", static_cast<double>(c1.net.bytes - c0.net.bytes));
  m.Add("gets", static_cast<double>(s1.gets - s0.gets));
  m.Add("puts", static_cast<double>(s1.puts - s0.puts));
  m.Add("client_batches",
        static_cast<double>(s1.client_batches - s0.client_batches));
  m.Add("client_batch_ops",
        static_cast<double>(s1.client_batch_ops - s0.client_batch_ops));
  m.Add("client_retries",
        static_cast<double>(
            (c1.clients.read_retries + c1.clients.wrong_shard_retries) -
            (c0.clients.read_retries + c0.clients.wrong_shard_retries)));
  m.Add("notifies", static_cast<double>(s1.notifies - s0.notifies));
  m.Add("ae_records_out",
        static_cast<double>(s1.ae_records_out - s0.ae_records_out));
  m.Add("ae_records_in",
        static_cast<double>(s1.ae_records_in - s0.ae_records_in));
  m.Add("wal_group_commits",
        static_cast<double>(s1.wal_group_commits - s0.wal_group_commits));
  m.Add("busy_us", s1.busy_us - s0.busy_us);
  m.Add("server_cores",
        static_cast<double>(dep->ServerCount() *
                            dopts.server.cores_per_server));
  m.Add("queue_wait_p99_us", queue_wait.Percentile(0.99));
  m.Add("replicas", static_cast<double>(dep->NumClusters()));
  m.Add("window_versions", static_cast<double>(versions));
  m.Add("window_keys", static_cast<double>(keys));
  m.Add("divergent_keys", static_cast<double>(divergent));
  m.Add("user_bytes", static_cast<double>(loop->user_bytes_committed()));

  if (wl.persistent) {
    auto served = ServedVersions(wl, *dep);
    sinks.clear();
    loop.reset();
    dep.reset();  // closes every LocalStore
    sim.reset();
    m.Add("storage_bytes",
          static_cast<double>(DirectoryBytes(dopts.server.storage_dir)));
    uint64_t recovered = 0;
    uint64_t mismatches = RecoveryMismatches(dopts.server.storage_dir, served,
                                             &recovered, &out.errors);
    m.Add("recovered_records", static_cast<double>(recovered));
    m.Add("recovery_mismatches", static_cast<double>(mismatches));
    if (mismatches > 0) {
      out.errors.push_back(std::to_string(mismatches) +
                           " keys recover a version other than the served one");
    }
  }
  out.gate_wall_s = SecondsSince(phase_start);
  return out;
}

Fields RunHarnessReference(const Workload& wl, uint64_t seed,
                           const std::string& tmp_root) {
  std::unique_ptr<TempDir> dir;
  hat::cluster::DeploymentOptions dopts = wl.deployment;
  if (wl.persistent) {
    dir = std::make_unique<TempDir>(tmp_root, wl.name + "-harness");
    dopts.server.storage_dir = dir->path() + "/store";
  }
  hat::sim::Simulation sim(seed);
  hat::harness::WorkloadResult r;
  {
    hat::cluster::Deployment dep(sim, dopts);
    hat::harness::YcsbDriver driver(dep, wl.ycsb, wl.client, wl.num_clients,
                                    seed ^ 0x9e37);
    driver.Preload();
    r = driver.Run(wl.warmup, wl.window);
  }
  Fields f;
  f.Add("committed", static_cast<double>(r.committed));
  f.Add("unavailable", static_cast<double>(r.unavailable));
  f.Add("aborted", static_cast<double>(r.aborted_external));
  f.Add("ops_committed", static_cast<double>(r.ops_committed));
  f.Add("hist_count", static_cast<double>(r.txn_latency_ms.count()));
  f.Add("hist_sum_ms", r.txn_latency_ms.sum());
  f.Add("hist_min_ms", r.txn_latency_ms.min());
  f.Add("hist_max_ms", r.txn_latency_ms.max());
  return f;
}

ReplayCosts Replay(const Workload& wl, const ReplaySample& sample,
                   const std::string& scratch_root) {
  constexpr int kPasses = 5;
  auto per_op = [](uint64_t start_ns, uint64_t end_ns, size_t ops) {
    return static_cast<double>(end_ns - start_ns) /
           static_cast<double>(std::max<size_t>(1, ops));
  };
  std::vector<double> apply, read, persist;
  uint64_t sink = 0;
  for (int pass = 0; pass < kPasses; pass++) {
    hat::version::ShardedStore store(sample.store_options);
    hat::workload::YcsbGenerator gen(wl.ycsb);
    for (uint64_t i = 0; i < wl.ycsb.num_keys; i++) {
      hat::WriteRecord w = PreloadRecord(gen, i);
      if (store.OwnsKey(w.key)) store.Apply(w);
    }
    uint64_t t0 = SpanRecorder::NowNs();
    for (const hat::WriteRecord& w : sample.writes) sink += store.Apply(w);
    uint64_t t1 = SpanRecorder::NowNs();
    for (const hat::net::GetRequest& g : sample.reads) {
      sink += store.Read(g.key, g.bound).ts.logical;
    }
    uint64_t t2 = SpanRecorder::NowNs();
    apply.push_back(per_op(t0, t1, sample.writes.size()));
    read.push_back(per_op(t1, t2, sample.reads.size()));

    if (scratch_root.empty()) continue;
    TempDir dir(scratch_root, wl.name + "-replay");
    hat::server::PersistenceManager pm(dir.path());
    uint64_t t3 = SpanRecorder::NowNs();
    for (const ReplaySample::Group& g : sample.groups) {
      auto persist_group = [&]() {
        for (size_t i = g.begin; i < g.end; i++) {
          const hat::WriteRecord& w = sample.writes[i];
          pm.PersistGood(store.LogicalShardOfKey(w.key), w);
        }
      };
      if (g.group_commit) {
        pm.GroupCommit(persist_group);
      } else {
        persist_group();
      }
    }
    persist.push_back(per_op(t3, SpanRecorder::NowNs(), sample.writes.size()));
  }
  volatile uint64_t observed = sink;  // keeps the timed reads from being elided
  (void)observed;
  auto median = [](std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  return ReplayCosts{median(apply), median(read), median(persist)};
}

std::string FilesystemName(const std::string& path) {
  struct statfs st;
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "fs-0x%" PRIx64,
                static_cast<uint64_t>(st.f_type));
  return buf;
}

}  // namespace perfbench
