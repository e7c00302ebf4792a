// hatbench: one process per measurement, driven by perfbench/run.py.
//
//   hatbench rep     --workload W --seed S --tmp-root D
//       One untraced run. Prints the end-to-end metrics of this process
//       alone (setup time, window wall time, peak RSS) and the modeled
//       outcome.
//   hatbench layers  --workload W --seed S --tmp-root D --seconds T
//       Alternates untraced and traced runs of one seed for about T host
//       seconds (at least one pair), requires every run's modeled outcome to
//       be identical, replays a captured sample through the version and
//       storage layers, and prints the per-layer metrics.
//   hatbench harness --workload W --seed S --tmp-root D
//       harness::YcsbDriver on the same workload: the reference outcome.
//
// Each prints one JSON object as its last stdout line and exits 0; a
// failed correctness check is reported in "errors" and exits 1.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/bench_run.h"

namespace {

using perfbench::Fields;
using perfbench::RunOutput;
using perfbench::Workload;

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  std::string tmp_root = ".";
  double seconds = 0;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--tmp-root") {
      a->tmp_root = v;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonErrors(const std::vector<std::string>& errors) {
  std::string out = "[";
  for (size_t i = 0; i < errors.size(); i++) {
    out += (i ? ", " : "") + JsonString(errors[i]);
  }
  return out + "]";
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

double Get(const Fields& f, const char* name) {
  for (const auto& [k, v] : f.items()) {
    if (k == name) return v;
  }
  std::fprintf(stderr, "hatbench: no modeled field %s\n", name);
  std::exit(2);
}

int Rep(const Workload& wl, const Args& a) {
  perfbench::RunOptions opts;
  opts.seed = a.seed;
  opts.tmp_root = a.tmp_root;
  opts.setups = 3;
  RunOutput r = perfbench::RunWorkload(wl, opts);
  const Fields& m = r.modeled;
  double committed = Get(m, "committed");
  double attempted =
      committed + Get(m, "unavailable") + Get(m, "aborted");
  Fields e2e;
  e2e.Add("wall_us_per_txn", r.window_wall_s * 1e6 / std::max(1.0, committed));
  e2e.Add("setup_s", r.setup_s);
  e2e.Add("peak_rss_mb", PeakRssMb());
  e2e.Add("sim_ktps", Get(m, "sim_ktps"));
  e2e.Add("sim_p50_ms", Get(m, "sim_p50_ms"));
  e2e.Add("sim_p99_ms", Get(m, "sim_p99_ms"));
  e2e.Add("committed_share", committed / std::max(1.0, attempted));
  e2e.Add("failed_share", (attempted - committed) / std::max(1.0, attempted));
  Fields host;
  host.Add("warmup_wall_s", r.warmup_wall_s);
  host.Add("window_wall_s", r.window_wall_s);
  host.Add("drain_wall_s", r.drain_wall_s);
  host.Add("gate_wall_s", r.gate_wall_s);
  std::printf(
      "{\"mode\": \"rep\", \"storage_fs\": %s, \"end_to_end\": %s, "
      "\"host\": %s, \"modeled\": %s, \"errors\": %s}\n",
      JsonString(perfbench::FilesystemName(a.tmp_root)).c_str(),
      e2e.Json().c_str(), host.Json().c_str(), m.Json().c_str(),
      JsonErrors(r.errors).c_str());
  return r.errors.empty() ? 0 : 1;
}

int Layers(const Workload& wl, const Args& a) {
  std::vector<std::string> errors;
  std::vector<double> untraced_wall, traced_wall;
  // Per traced run: layer self times per committed txn.
  std::vector<double> loop_ns_per_event, api, client_recv, server_recv, exec,
      gen, accounted;
  perfbench::ReplaySample sample;
  Fields modeled;
  uint64_t spans = 0;
  uint64_t start = perfbench::SpanRecorder::NowNs();
  for (int pair = 0;; pair++) {
    for (bool traced : {false, true}) {
      perfbench::RunOptions opts;
      opts.seed = a.seed;
      opts.tmp_root = a.tmp_root;
      opts.traced = traced;
      if (traced && pair == 0) opts.capture = &sample;
      RunOutput r = perfbench::RunWorkload(wl, opts);
      for (const std::string& e : r.errors) errors.push_back(e);
      if (pair == 0 && !traced) {
        modeled = r.modeled;
      } else if (!(r.modeled == modeled)) {
        errors.push_back(std::string(traced ? "traced" : "untraced") +
                         " run " + std::to_string(pair) +
                         " differs from the first untraced run: " +
                         r.modeled.Json());
      }
      if (!traced) {
        untraced_wall.push_back(r.window_wall_s);
        continue;
      }
      double n = std::max(1.0, Get(r.modeled, "committed"));
      const perfbench::LayerTimes& t = r.layers;
      traced_wall.push_back(r.window_wall_s);
      loop_ns_per_event.push_back(t.loop_ns_per_event);
      api.push_back(t.client_api_ns / n);
      client_recv.push_back(t.client_recv_ns / n);
      server_recv.push_back(t.server_recv_ns / n);
      exec.push_back(t.server_exec_ns / n);
      gen.push_back(t.driver_ns / n);
      accounted.push_back(t.steps_ns / (r.window_wall_s * 1e9));
      spans = r.spans;
    }
    double elapsed =
        static_cast<double>(perfbench::SpanRecorder::NowNs() - start) / 1e9;
    double per_pair = elapsed / (pair + 1);
    if (elapsed + per_pair > a.seconds) break;
  }

  perfbench::ReplayCosts replay =
      perfbench::Replay(wl, sample, wl.persistent ? a.tmp_root : "");

  const Fields& m = modeled;
  double n = std::max(1.0, Get(m, "committed"));
  double ops = Get(m, "gets") + Get(m, "puts");
  double envelopes =
      ops - Get(m, "client_batch_ops") + Get(m, "client_batches");
  double window_us = static_cast<double>(wl.window);
  double untraced = Median(untraced_wall);
  Fields f;
  f.Add("sim.events_per_txn", Get(m, "events") / n);
  f.Add("sim.loop_ns_per_event", Median(loop_ns_per_event));
  f.Add("net.msgs_per_txn", Get(m, "msgs") / n);
  f.Add("net.bytes_per_txn", Get(m, "bytes") / n);
  f.Add("client.api_ns_per_txn", Median(api));
  f.Add("client.recv_ns_per_txn", Median(client_recv));
  f.Add("client.retries_per_txn", Get(m, "client_retries") / n);
  f.Add("client.ops_per_envelope", envelopes > 0 ? ops / envelopes : 0);
  f.Add("server.recv_ns_per_txn", Median(server_recv));
  f.Add("server.exec_ns_per_txn", Median(exec));
  f.Add("server.busy_share",
        Get(m, "busy_us") / (Get(m, "server_cores") * window_us));
  f.Add("server.queue_wait_p99_us", Get(m, "queue_wait_p99_us"));
  f.Add("server.ae_records_per_txn", Get(m, "ae_records_out") / n);
  f.Add("server.ae_useful_share",
        Get(m, "ae_records_in") > 0
            ? Get(m, "writes_committed") * (Get(m, "replicas") - 1) /
                  Get(m, "ae_records_in")
            : 0);
  f.Add("server.mav_notifies_per_txn", Get(m, "notifies") / n);
  f.Add("server.wal_group_commits_per_txn", Get(m, "wal_group_commits") / n);
  f.Add("version.apply_ns", replay.apply_ns);
  f.Add("version.read_ns", replay.read_ns);
  f.Add("version.versions_per_key",
        Get(m, "window_versions") / std::max(1.0, Get(m, "window_keys")));
  f.Add("storage.persist_ns", replay.persist_ns);
  f.Add("storage.bytes_per_user_byte",
        wl.persistent ? Get(m, "storage_bytes") / Get(m, "user_bytes") : 0);
  f.Add("workload.gen_ns_per_txn", Median(gen));
  f.Add("trace.overhead_share", (Median(traced_wall) - untraced) / untraced);
  f.Add("trace.accounted_share", Median(accounted));

  Fields info;
  info.Add("pairs", static_cast<double>(untraced_wall.size()));
  info.Add("untraced_wall_s", untraced);
  info.Add("traced_wall_s", Median(traced_wall));
  info.Add("spans", static_cast<double>(spans));
  info.Add("replay_writes", static_cast<double>(sample.writes.size()));
  info.Add("replay_reads", static_cast<double>(sample.reads.size()));
  std::printf(
      "{\"mode\": \"layers\", \"storage_fs\": %s, \"per_layer\": %s, "
      "\"info\": %s, \"modeled\": %s, \"errors\": %s}\n",
      JsonString(perfbench::FilesystemName(a.tmp_root)).c_str(),
      f.Json().c_str(), info.Json().c_str(), m.Json().c_str(),
      JsonErrors(errors).c_str());
  return errors.empty() ? 0 : 1;
}

int Harness(const Workload& wl, const Args& a) {
  Fields f = perfbench::RunHarnessReference(wl, a.seed, a.tmp_root);
  std::printf("{\"mode\": \"harness\", \"modeled\": %s, \"errors\": []}\n",
              f.Json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: hatbench rep|layers|harness --workload W --seed S "
                 "--tmp-root D [--seconds T]\n");
    return 2;
  }
  const Workload* wl = perfbench::FindWorkload(a.workload);
  if (wl == nullptr) {
    std::fprintf(stderr, "hatbench: unknown workload %s\n",
                 a.workload.c_str());
    return 2;
  }
  if (a.mode == "rep") return Rep(*wl, a);
  if (a.mode == "layers") return Layers(*wl, a);
  if (a.mode == "harness") return Harness(*wl, a);
  std::fprintf(stderr, "hatbench: unknown mode %s\n", a.mode.c_str());
  return 2;
}
