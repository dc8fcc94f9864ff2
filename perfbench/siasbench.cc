// siasbench: the repository benchmark driver (see README.md).
//
//   siasbench --workload <tpcc-sias-v|tpcc-si|kv-resident> --seed <n>
//             --seconds <s> --trace <0|1> [--exact-out <file>]
//
// A round, run in a forked child process, builds fresh devices and a fresh
// database, loads it from one input stream derived from the seed, then runs
// a fixed amount of work on one worker thread. Virtual time is then a pure
// function of the inputs: every round of one stream must report the same
// virtual-time and count figures, bit for bit, and the run fails if they
// differ. An untraced run measures streams 0 and 1 and reports the mean of
// their virtual-time figures; a traced run repeats stream 0 untraced and
// traced (timing devices and per-call timers) and reports the per-layer
// figures and the ratio of their CPU cost as trace_overhead. Further rounds
// repeat stream 0 while time remains. Wall-clock figures (set-up time, CPU
// per transaction) are medians over rounds.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is non-zero when an output check failed.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics, printed by untraced runs.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"txn_per_vsec", "1/vs"},
    {"p50_ms", "ms"},
    {"p99_ms", "ms"},
    {"cpu_us_per_txn", "us"},
    {"write_kb_per_ktxn", "KB"},
    {"write_amplification", "ratio"},
    {"occupied_kb_per_ktxn", "KB"},
};

// Per-layer metrics, printed by traced runs. A layer a workload does not
// exercise reads 0 there (call.tpcc.* on kv-resident, call.begin etc. on
// the TPC-C workloads).
constexpr MetricDef kPerLayer[] = {
    {"call.tpcc.new_order.p50_us", "us"},
    {"call.tpcc.new_order.p99_us", "us"},
    {"call.tpcc.payment.p50_us", "us"},
    {"call.tpcc.payment.p99_us", "us"},
    {"call.tpcc.order_status.p50_us", "us"},
    {"call.tpcc.order_status.p99_us", "us"},
    {"call.tpcc.delivery.p50_us", "us"},
    {"call.tpcc.delivery.p99_us", "us"},
    {"call.tpcc.stock_level.p50_us", "us"},
    {"call.tpcc.stock_level.p99_us", "us"},
    {"call.begin.p50_us", "us"},
    {"call.begin.p99_us", "us"},
    {"call.lookup.p50_us", "us"},
    {"call.lookup.p99_us", "us"},
    {"call.update.p50_us", "us"},
    {"call.update.p99_us", "us"},
    {"call.commit.p50_us", "us"},
    {"call.commit.p99_us", "us"},
    {"tick.cpu_share", "ratio"},
    {"tick.vstall_ms_per_vsec", "ms/vs"},
    {"db.checkpoints", "count"},
    {"db.bgwriter_passes", "count"},
    {"phase.lock_wait_share", "ratio"},
    {"phase.io_wait_share", "ratio"},
    {"phase.wal_flush_share", "ratio"},
    {"phase.traversal_share", "ratio"},
    {"phase.gc_defer_share", "ratio"},
    {"phase.apply_share", "ratio"},
    {"buffer.hit_ratio", "ratio"},
    {"buffer.misses_per_txn", "count"},
    {"buffer.evictions_per_txn", "count"},
    {"buffer.writebacks_per_ktxn", "count"},
    {"mvcc.reads_per_txn", "count"},
    {"mvcc.version_hops_per_read", "count"},
    {"mvcc.traversal_depth_p99", "count"},
    {"mvcc.fetches_per_read", "count"},
    {"mvcc.gc.versions_discarded_per_ktxn", "count"},
    {"mvcc.gc.versions_relocated_per_ktxn", "count"},
    {"mvcc.epoch.pending", "count"},
    {"wal.flushes_per_txn", "count"},
    {"wal.written_kb_per_ktxn", "KB"},
    {"wal.fpi_per_ktxn", "count"},
    {"wal.follower_ratio", "ratio"},
    {"wal.flush_latency_p50_us", "us"},
    {"device.read_ops_per_txn", "count"},
    {"device.write_ops_per_txn", "count"},
    {"device.read_kb_per_ktxn", "KB"},
    {"flash.gc_page_moves_per_ktxn", "count"},
    {"flash.trims_per_ktxn", "count"},
    {"flash.block_erases", "count"},
    {"device.channel_busy_fraction", "ratio"},
    {"io.completion_lag_p99_us", "us"},
    {"device.cpu_share", "ratio"},
    {"trace_overhead", "ratio"},
};

// Per-layer entries measured in wall-clock time: they differ between rounds
// and are reported as the median over the traced rounds.
bool IsWallClockLayer(const std::string& name) {
  return name.rfind("call.", 0) == 0 || name == "tick.cpu_share" ||
         name == "device.cpu_share";
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string exact_out;  ///< optional: round 0/1 exact figures as JSON
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* endp = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &endp, 10);
      if (*endp != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, &endp);
      if (*endp != '\0' || !(a->seconds > 0)) return false;
    } else if (flag == "--exact-out") {
      a->exact_out = v;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->trace = v[0] == '1';
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

bool KnownWorkload(const std::string& w) {
  return w == "tpcc-sias-v" || w == "tpcc-si" || w == "kv-resident";
}

RoundResult RunRound(const std::string& workload, const RoundOptions& o) {
  if (workload == "tpcc-sias-v") {
    return RunTpccRound(sias::VersionScheme::kSiasV,
                        sias::FlushPolicy::kT2Checkpoint, o);
  }
  if (workload == "tpcc-si") {
    return RunTpccRound(sias::VersionScheme::kSi,
                        sias::FlushPolicy::kT1BackgroundWriter, o);
  }
  return RunKvRound(o);
}

// A round travels from the child to the parent as text lines:
// "<tag> <key> <value>" for scalars (S), exact (X) and layer (L) figures,
// and "E <message>" for failed checks. %.17g round-trips every double.
std::string Serialize(const RoundResult& r) {
  std::string out;
  char buf[320];
  auto put = [&](char tag, const std::string& key, double v) {
    snprintf(buf, sizeof(buf), "%c %s %.17g\n", tag, key.c_str(), v);
    out += buf;
  };
  put('S', "setup_s", r.setup_s);
  put('S', "cpu_us_per_txn", r.cpu_us_per_txn);
  put('S', "raw_cpu_us_per_txn", r.raw_cpu_us_per_txn);
  put('S', "work_wall_s", r.work_wall_s);
  put('S', "attempted", static_cast<double>(r.attempted));
  put('S', "failed", static_cast<double>(r.failed));
  for (const auto& [k, v] : r.exact) put('X', k, v);
  for (const auto& [k, v] : r.layer) put('L', k, v);
  for (std::string e : r.errors) {
    std::replace(e.begin(), e.end(), '\n', ' ');
    out += "E " + e + "\n";
  }
  return out;
}

RoundResult Deserialize(const std::string& text) {
  RoundResult r;
  std::map<std::string, double> scalars;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.size() < 2) continue;
    if (line[0] == 'E') {
      r.errors.push_back(line.substr(2));
      continue;
    }
    const size_t sp = line.find(' ', 2);
    if (sp == std::string::npos) continue;
    const std::string key = line.substr(2, sp - 2);
    const double v = std::strtod(line.c_str() + sp + 1, nullptr);
    if (line[0] == 'S') scalars[key] = v;
    if (line[0] == 'X') r.exact[key] = v;
    if (line[0] == 'L') r.layer[key] = v;
  }
  r.setup_s = scalars["setup_s"];
  r.cpu_us_per_txn = scalars["cpu_us_per_txn"];
  r.raw_cpu_us_per_txn = scalars["raw_cpu_us_per_txn"];
  r.work_wall_s = scalars["work_wall_s"];
  r.attempted = static_cast<uint64_t>(scalars["attempted"]);
  r.failed = static_cast<uint64_t>(scalars["failed"]);
  return r;
}

/// Runs one round in a forked child, so that every round starts from a
/// fresh process: the same allocator and page-table state each time. Rounds
/// run back to back in one process grew slower by 5-15% each.
RoundResult RunRoundInChild(const std::string& workload,
                            const RoundOptions& o) {
  RoundResult failed;
  int fds[2];
  if (pipe(fds) != 0) {
    failed.errors.push_back("pipe failed");
    return failed;
  }
  fflush(stdout);
  fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    failed.errors.push_back("fork failed");
    return failed;
  }
  if (pid == 0) {
    close(fds[0]);
    const std::string text = Serialize(RunRound(workload, o));
    size_t done = 0;
    while (done < text.size()) {
      const ssize_t n = write(fds[1], text.data() + done, text.size() - done);
      if (n <= 0) _exit(1);
      done += static_cast<size_t>(n);
    }
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) != 0;) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    text.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    failed.errors.push_back("round process ended abnormally (status " +
                            std::to_string(status) + ")");
    return failed;
  }
  return Deserialize(text);
}

/// Names of `exact` entries where `b` differs from `a` (up to `limit`).
std::vector<std::string> Differences(const std::map<std::string, double>& a,
                                     const std::map<std::string, double>& b,
                                     size_t limit) {
  std::vector<std::string> out;
  for (const auto& [k, v] : a) {
    auto it = b.find(k);
    if (it == b.end() || std::memcmp(&it->second, &v, sizeof(v)) != 0) {
      char buf[200];
      snprintf(buf, sizeof(buf), "%s: %.17g vs %.17g", k.c_str(), v,
               it == b.end() ? NAN : it->second);
      out.push_back(buf);
    }
    if (out.size() >= limit) return out;
  }
  for (const auto& [k, v] : b) {
    if (a.count(k) == 0 && out.size() < limit) out.push_back(k + ": extra");
  }
  return out;
}

void AppendMetric(std::string* out, const char* name, double value,
                  const char* unit) {
  char buf[256];
  snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
           out->empty() ? "" : ", ", name, std::isfinite(value) ? value : 0.0,
           unit);
  *out += buf;
}

/// The seed of input stream `stream` of a run with seed `seed`.
uint64_t InputSeed(uint64_t seed, int stream) {
  return seed * 1000003ull + static_cast<uint64_t>(stream);
}

/// Writes {"stream0": {...}[, "stream1": {...}]}: the first round of each
/// input stream's exact figures, for the determinism tests.
bool WriteExact(const std::string& path, const std::vector<RoundResult>& rounds,
                bool trace) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  fprintf(f, "{");
  for (size_t i = 0; i < rounds.size() && i < (trace ? 1u : 2u); ++i) {
    fprintf(f, "%s\"stream%zu\": {", i ? ", " : "", i);
    bool first = true;
    for (const auto& [k, v] : rounds[i].exact) {
      fprintf(f, "%s\"%s\": %.17g", first ? "" : ", ", k.c_str(),
              std::isfinite(v) ? v : 0.0);
      first = false;
    }
    fprintf(f, "}");
  }
  fprintf(f, "}\n");
  return fclose(f) == 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    fprintf(stderr,
            "usage: siasbench --workload <tpcc-sias-v|tpcc-si|kv-resident> "
            "--seed <n> --seconds <s> --trace <0|1> [--exact-out <file>]\n");
    return 2;
  }
  if (!KnownWorkload(args.workload)) {
    fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Round 1 of an untraced run takes input stream 1, every other round
  // stream 0; under --trace 1 odd rounds are traced. Rounds past the second
  // run while the next is expected to end within --seconds. Every round of
  // stream 0 must reproduce round 0's virtual-time and count figures exactly.
  const bool trace = args.trace;
  auto stream_of = [&](size_t i) { return !trace && i == 1 ? 1 : 0; };
  auto traced_at = [&](size_t i) { return trace && i % 2 == 1; };
  constexpr size_t kMinRounds = 2;
  constexpr size_t kMinSetups = 7;
  const double run_start = WallSeconds();
  std::vector<RoundResult> rounds;
  std::vector<double> setup;
  double last_round_s = 0;
  while (rounds.size() < kMinRounds ||
         WallSeconds() - run_start + last_round_s <= args.seconds) {
    const double round_start = WallSeconds();
    const size_t i = rounds.size();
    RoundOptions o;
    o.seed = InputSeed(args.seed, stream_of(i));
    o.traced = traced_at(i);
    RoundResult r = RunRoundInChild(args.workload, o);
    fprintf(stderr,
            "[round %zu, stream %d%s] setup %.3f s, loop %.3f s wall, "
            "%.3f cpu us/txn (%.3f before normalisation)\n",
            i, stream_of(i), o.traced ? ", traced" : "", r.setup_s,
            r.work_wall_s, r.cpu_us_per_txn, r.raw_cpu_us_per_txn);
    const bool failed = !r.errors.empty();
    setup.push_back(r.setup_s);
    rounds.push_back(std::move(r));
    last_round_s = WallSeconds() - round_start;
    if (failed) break;  // the output is wrong; more rounds add nothing
  }
  while (rounds.back().errors.empty() && setup.size() < kMinSetups) {
    RoundOptions o;
    o.seed = InputSeed(args.seed, 0);
    o.setup_only = true;
    setup.push_back(RunRoundInChild(args.workload, o).setup_s);
  }

  // ---- output checks ----
  std::vector<std::string> errors;
  for (size_t i = 0; i < rounds.size(); ++i) {
    for (const std::string& e : rounds[i].errors) {
      errors.push_back("round " + std::to_string(i) + ": " + e);
    }
  }
  if (errors.empty()) {
    for (size_t i = 1; i < rounds.size(); ++i) {
      if (stream_of(i) != 0) continue;
      for (const std::string& d :
           Differences(rounds[0].exact, rounds[i].exact, 8)) {
        errors.push_back("round " + std::to_string(i) +
                         (traced_at(i) ? " (traced)" : "") +
                         " differs from round 0 in " + d);
      }
    }
  }
  for (const std::string& e : errors) {
    fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  if (!args.exact_out.empty() && !WriteExact(args.exact_out, rounds, trace)) {
    errors.push_back("cannot write " + args.exact_out);
  }

  uint64_t attempted = 0, failed = 0;
  std::vector<double> cpu, cpu_traced;
  for (size_t i = 0; i < rounds.size(); ++i) {
    attempted += rounds[i].attempted;
    failed += rounds[i].failed;
    (traced_at(i) ? cpu_traced : cpu).push_back(rounds[i].cpu_us_per_txn);
  }
  // Virtual-time and count figures: the mean over the input streams run.
  const size_t streams = !trace && rounds.size() > 1 ? 2 : 1;
  auto exact = [&](const std::string& name) {
    double sum = 0;
    for (size_t i = 0; i < streams; ++i) {
      auto it = rounds[i].exact.find(name);
      sum += it == rounds[i].exact.end() ? 0.0 : it->second;
    }
    return sum / static_cast<double>(streams);
  };

  std::string metrics;
  if (!trace) {
    for (const MetricDef& m : kEndToEnd) {
      double v = 0;
      if (std::strcmp(m.name, "setup_s") == 0) {
        v = Median(setup);
      } else if (std::strcmp(m.name, "cpu_us_per_txn") == 0) {
        v = Median(cpu);
      } else {
        v = exact(m.name);
      }
      AppendMetric(&metrics, m.name, v, m.unit);
    }
  } else {
    std::map<std::string, std::vector<double>> wall;
    for (size_t i = 0; i < rounds.size(); ++i) {
      if (!traced_at(i)) continue;
      for (const auto& [k, v] : rounds[i].layer) {
        if (IsWallClockLayer(k)) wall[k].push_back(v);
      }
    }
    for (const MetricDef& m : kPerLayer) {
      double v = 0;
      if (std::strcmp(m.name, "trace_overhead") == 0) {
        v = Median(cpu_traced) / Median(cpu);
      } else if (IsWallClockLayer(m.name)) {
        v = Median(wall[m.name]);
      } else {
        auto it = rounds[0].layer.find(m.name);
        v = it == rounds[0].layer.end() ? 0 : it->second;
      }
      AppendMetric(&metrics, m.name, v, m.unit);
    }
  }

  printf("workload %s seed %llu: %zu rounds over %zu input streams; "
         "per stream %.0f committed, %.0f latency samples, notpm %.1f\n",
         args.workload.c_str(), static_cast<unsigned long long>(args.seed),
         rounds.size(), streams, exact("committed"), exact("latency_samples"),
         exact("notpm"));
  if (attempted == 0) {
    // Set-up failed before any transaction ran: nothing was measured.
    attempted = failed = 1;
  }
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": {%s}}\n",
         errors.empty() ? "true" : "false",
         static_cast<unsigned long long>(attempted),
         static_cast<unsigned long long>(failed), metrics.c_str());
  return errors.empty() ? 0 : 1;
}
