// Guardian repo benchmark: one load-generator process drives the unmodified
// stack (GrdLib -> ChannelTransport shm rings -> one forked grdManager
// worker) through one of three co-tenancy workloads.
//
//   guardian_perfbench --workload <launch_storm|train_step|infer_colocated>
//                      --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0: end-to-end metrics, tracing off. kRounds rounds, each a fresh
//   deployment (timed as setup_s) with its own seeded inputs, running the
//   workload for --seconds / kRounds. Of these, the rounds with the least
//   host CPU steal are reported: rates as medians over them, latency
//   percentiles over their samples pooled.
// --trace 1: per-layer metrics. An untraced run (stats counters, baseline
//   for the tracing overhead), a traced run (span ledger), the layer probes
//   and the native reference.
//
// A human-readable report goes to stdout first; the last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ledger.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "stack.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using grd::Result;
using grd::Status;

// An end-to-end run is kRounds rounds. It reports the kKeptRounds during
// which the hypervisor stole the least CPU from this VM, plus every round
// with no more steal than those. Steal is counted in 10 ms ticks, so on a
// quiet host most rounds read 0 and all of those are kept. Steal stalls the
// polling pump and the clients for whole milliseconds: on a shared 4-vCPU
// VM a round's steal correlated 0.86-0.96 with its infer_colocated p95, and
// 17% steal halved every rate. The choice rests on the steal figure only,
// never on a metric.
constexpr int kRounds = 15;
constexpr int kKeptRounds = 5;
constexpr double kNativeSeconds = 2.0;

// Host CPU ticks from the aggregate "cpu" line of /proc/stat.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuTicks ReadCpuTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  CpuTicks out;
  if (f == nullptr) return out;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    out.steal = v[7];
    for (unsigned long long x : v) out.total += x;
  }
  std::fclose(f);
  return out;
}

double StealShare(const CpuTicks& before, const CpuTicks& after) {
  const std::uint64_t total = after.total - before.total;
  return total > 0 ? static_cast<double>(after.steal - before.steal) / total
                   : 0.0;
}

// Inputs of round `round` of a run: every round gets its own payloads,
// arrival schedule and OOB target, all fixed by the run's seed.
std::uint64_t RoundSeed(std::uint64_t seed, int round) {
  return seed * kRounds + static_cast<std::uint64_t>(round);
}

struct Args {
  Workload workload = Workload::kLaunchStorm;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      auto w = ParseWorkload(value);
      if (!w) return false;
      args->workload = *w;
      have[0] = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
      have[1] = true;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0) || args->seconds > 600)
        return false;
      have[2] = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
      have[3] = true;
    } else {
      return false;
    }
  }
  return have[0] && have[1] && have[2] && have[3];
}

// What a stack's shared ManagerStats and its worker looked like after a run.
struct Snapshot {
  std::string stats_json;
  double hwm_mib = 0.0;
  MetricList counters;  // the stats.* per-layer metrics
};

Snapshot TakeSnapshot(Stack& stack) {
  const grd::guardian::ManagerStats& s = stack.stats();
  Snapshot out;
  out.stats_json = s.ToJson();
  out.hwm_mib = stack.WorkerHwmMiB();
  const std::pair<const char*, const std::atomic<std::uint64_t>*> counters[] =
      {{"stats.ring_messages_read", &s.ring_messages_read},
       {"stats.transfers_checked", &s.transfers_checked},
       {"stats.ptx_cache_hits", &s.ptx_cache_hits},
       {"stats.guards_elided", &s.guards_elided},
       {"stats.preemptions", &s.preemptions},
       {"stats.peak_queue_depth", &s.peak_queue_depth},
       {"stats.peak_resident_kernels", &s.peak_resident_kernels}};
  for (const auto& [name, cell] : counters)
    out.counters.Add(name, static_cast<double>(cell->load()), "count");
  double total = 0.0;
  for (const auto& t : s.tier_instructions) total += t.load();
  out.counters.Add("stats.tier2_instr_share",
                   total > 0 ? s.tier_instructions[2].load() / total : 0.0,
                   "share");
  return out;
}

void PrintRun(const char* label, const RunResult& run, const Snapshot& snap) {
  std::printf("[%s] elapsed %.3f s, launches %llu, steps %llu, latency "
              "samples %zu\n",
              label, run.elapsed_s,
              static_cast<unsigned long long>(run.launches),
              static_cast<unsigned long long>(run.steps),
              run.latency_us.size());
  std::printf("[%s] ops attempted %llu, succeeded %llu, failed %llu%s%s\n",
              label, static_cast<unsigned long long>(run.tally.attempted),
              static_cast<unsigned long long>(run.tally.attempted -
                                              run.tally.failed),
              static_cast<unsigned long long>(run.tally.failed),
              run.tally.first_error.empty() ? "" : "; first: ",
              run.tally.first_error.c_str());
  std::printf("[%s] latency p50 %.1f us, p90 %.1f us, p95 %.1f us, p99 %.1f "
              "us, p99.9 %.1f us, max %.1f us\n",
              label, Percentile(run.latency_us, 0.5),
              Percentile(run.latency_us, 0.9), Percentile(run.latency_us, 0.95),
              Percentile(run.latency_us, 0.99),
              Percentile(run.latency_us, 0.999),
              Percentile(run.latency_us, 1.0));
  if (!run.lateness_us.empty() || run.unsent > 0)
    std::printf("[%s] open-loop generator lateness p50 %.1f us, p99 %.1f us, "
                "max %.1f us over %zu sends; %llu unsent\n",
                label, Percentile(run.lateness_us, 0.5),
                Percentile(run.lateness_us, 0.99),
                Percentile(run.lateness_us, 1.0), run.lateness_us.size(),
                static_cast<unsigned long long>(run.unsent));
  std::printf("[%s] worker VmHWM %.1f MiB\n[%s] MANAGER_STATS %s\n", label,
              snap.hwm_mib, label, snap.stats_json.c_str());
}

// One end-to-end round: a fresh deployment and its share of the run.
struct Round {
  RunResult run;
  double setup_s = 0.0;
  double hwm_mib = 0.0;
  double steal = 0.0;
  int number = 0;  // 1-based, in run order
};

// Set-up time, rates and VmHWM are medians over the kept rounds, so one
// unlucky deployment does not move them. Latency percentiles and the SLO
// share are taken over the samples of the kept rounds together.
MetricList EndToEndMetrics(const std::vector<Round>& rounds) {
  auto median = [&](double (*value)(const Round&)) {
    std::vector<double> values;
    for (const Round& r : rounds) values.push_back(value(r));
    return Median(std::move(values));
  };
  RunResult all;
  for (const Round& r : rounds) {
    all.launches += r.run.launches;
    all.steps += r.run.steps;
    all.latency_us.insert(all.latency_us.end(), r.run.latency_us.begin(),
                          r.run.latency_us.end());
    all.slo_scheduled += r.run.slo_scheduled;
    all.slo_met += r.run.slo_met;
  }
  std::printf("[kept rounds] latency p50 %.1f us, p95 %.1f us, p99 %.1f us "
              "over %zu samples\n",
              Percentile(all.latency_us, 0.5), Percentile(all.latency_us, 0.95),
              Percentile(all.latency_us, 0.99), all.latency_us.size());
  MetricList m;
  m.Add("setup_s", median([](const Round& r) { return r.setup_s; }), "s",
        rounds.size());
  m.Add("launch_rate", median([](const Round& r) {
          return r.run.launches / r.run.elapsed_s;
        }),
        "launches/s", all.launches);
  m.Add("steps_per_s", median([](const Round& r) {
          return r.run.steps / r.run.elapsed_s;
        }),
        "steps/s", all.steps);
  m.Add("latency_p50_us", Percentile(all.latency_us, 0.5), "us",
        all.latency_us.size());
  m.Add("slo_met_share",
        all.slo_scheduled > 0
            ? static_cast<double>(all.slo_met) / all.slo_scheduled
            : 0.0,
        "share", all.slo_scheduled);
  m.Add("manager_rss_mb", median([](const Round& r) { return r.hwm_mib; }),
        "MiB", rounds.size());
  return m;
}

// Calls `visit` on every field of a Round that the parent needs from the
// process that ran it, in one fixed order for encoding and decoding alike.
template <typename Visit>
void ForEachField(Round& r, Visit&& visit) {
  visit(r.setup_s);
  visit(r.hwm_mib);
  visit(r.steal);
  visit(r.run.elapsed_s);
  visit(r.run.launches);
  visit(r.run.steps);
  visit(r.run.slo_scheduled);
  visit(r.run.slo_met);
  visit(r.run.tally.attempted);
  visit(r.run.tally.failed);
  visit(r.run.latency_us);
}

template <typename T>
constexpr bool kIsSamples = std::is_same_v<T, std::vector<double>>;

std::string EncodeRound(Round r) {
  std::string out;
  auto put = [&](const void* data, std::size_t n) {
    if (n > 0) out.append(static_cast<const char*>(data), n);
  };
  ForEachField(r, [&](auto& field) {
    if constexpr (kIsSamples<std::decay_t<decltype(field)>>) {
      const std::size_t n = field.size();
      put(&n, sizeof(n));
      put(field.data(), n * sizeof(double));
    } else {
      put(&field, sizeof(field));
    }
  });
  return out;
}

bool DecodeRound(const std::string& bytes, Round* r) {
  std::size_t pos = 0;
  bool ok = true;
  auto get = [&](void* data, std::size_t n) {
    if (!ok || n > bytes.size() - pos) {
      ok = false;
      return;
    }
    if (n > 0) std::memcpy(data, bytes.data() + pos, n);
    pos += n;
  };
  ForEachField(*r, [&](auto& field) {
    if constexpr (kIsSamples<std::decay_t<decltype(field)>>) {
      std::size_t n = 0;
      get(&n, sizeof(n));
      if (!ok || n > (bytes.size() - pos) / sizeof(double)) {
        ok = false;
        return;
      }
      field.resize(n);
      get(field.data(), n * sizeof(double));
    } else {
      get(&field, sizeof(field));
    }
  });
  return ok && pos == bytes.size();
}

void AddLedger(const Ledger& l, MetricList* m) {
  m->Add("trace.transit_p50_us", Percentile(l.transit_us, 0.5), "us",
         l.transit_us.size());
  m->Add("trace.transit_p99_us", Percentile(l.transit_us, 0.99), "us",
         l.transit_us.size());
  m->Add("trace.transit_launch_p50_us", Percentile(l.transit_launch_us, 0.5),
         "us", l.transit_launch_us.size());
  m->Add("trace.transit_launch_p99_us",
         Percentile(l.transit_launch_us, 0.99), "us",
         l.transit_launch_us.size());
  m->Add("trace.client_self_p50_us", Percentile(l.client_self_us, 0.5), "us",
         l.client_self_us.size());
  m->Add("trace.dispatch_self_p50_us", Percentile(l.dispatch_self_us, 0.5),
         "us", l.dispatch_self_us.size());
  m->Add("trace.queue_wait_p50_us", Percentile(l.queue_wait_us, 0.5), "us",
         l.queue_wait_us.size());
  m->Add("trace.queue_wait_p99_us", Percentile(l.queue_wait_us, 0.99), "us",
         l.queue_wait_us.size());
  m->Add("trace.exec_p50_us", Percentile(l.exec_us, 0.5), "us",
         l.exec_us.size());
  for (const char* layer :
       {"client", "transit", "dispatch", "queue_wait", "exec"}) {
    auto found = l.layer_total_us.find(layer);
    const double total = found == l.layer_total_us.end() ? 0 : found->second;
    m->Add(std::string("ledger.") + layer + "_share",
           l.bench_total_us > 0 ? total / l.bench_total_us : 0.0, "share");
  }
}

void PrintLedger(const Ledger& l) {
  std::printf("[ledger] %llu spans on the timed path; blocking time %.1f ms\n",
              static_cast<unsigned long long>(l.spans),
              l.bench_total_us / 1e3);
  for (const auto& [layer, us] : l.layer_total_us)
    std::printf("[ledger]   %-10s %10.1f ms  %5.1f%%\n", layer.c_str(),
                us / 1e3,
                l.bench_total_us > 0 ? 100.0 * us / l.bench_total_us : 0.0);
  for (const auto& [op, samples] : l.transit_by_op)
    std::printf("[ledger]   transit %-22s p50 %8.1f us  p99 %8.1f us  n=%zu\n",
                op.c_str(), Percentile(samples, 0.5),
                Percentile(samples, 0.99), samples.size());
}

void PrintJson(bool correct, const Tally& tally, const MetricList& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.all()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += first ? "" : ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void PrintMetrics(const MetricList& metrics) {
  for (const Metric& m : metrics.all())
    std::printf("  %-32s %14.4f %-11s n=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
}

// Deploys the workload and runs round `round` (0-based) of an end-to-end
// run, printing the round's report. False if set-up failed.
bool RunRound(const Args& args, int round, Round* out) {
  auto deployed = Deploy(args.workload, RoundSeed(args.seed, round),
                         /*tracing=*/false);
  if (!deployed.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 deployed.status().ToString().c_str());
    return false;
  }
  std::unique_ptr<Deployment> d = std::move(*deployed);
  const CpuTicks before = ReadCpuTicks();
  out->run = d->session->Run(args.seconds / kRounds, [] { return false; });
  out->steal = StealShare(before, ReadCpuTicks());
  const Snapshot snap = TakeSnapshot(*d->stack);
  out->hwm_mib = snap.hwm_mib;
  out->setup_s = d->setup_s;
  d.reset();
  const std::string label = std::string(WorkloadName(args.workload)) +
                            " round " + std::to_string(round + 1);
  std::printf("[%s] set-up %.2f ms, host CPU steal %.2f%%\n", label.c_str(),
              out->setup_s * 1e3, 100.0 * out->steal);
  PrintRun(label.c_str(), out->run, snap);
  return true;
}

// Runs round `round` in a child process forked from the benchmark before it
// deployed anything, so every round starts from the same process state. Run
// one after another in one process, rounds inherit each other's heap, and
// the manager worker forked from that process inherits it too: train_step
// then ran about 1.8x faster in rounds 3-6 of 15 than in the others.
bool RunRoundInChild(const Args& args, int round, Round* out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    Round r;
    bool ok = RunRound(args, round, &r);
    const std::string bytes = ok ? EncodeRound(std::move(r)) : std::string();
    for (std::size_t sent = 0; ok && sent < bytes.size();) {
      const ssize_t n =
          write(fds[1], bytes.data() + sent, bytes.size() - sent);
      if (n < 0 && errno == EINTR) continue;
      ok = n > 0;
      if (ok) sent += static_cast<std::size_t>(n);
    }
    std::fflush(stdout);
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  std::string bytes;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    bytes.append(buffer, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  out->number = round + 1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
         DecodeRound(bytes, out);
}

int RunEndToEnd(const Args& args) {
  // Each round deploys a fresh pool (a new fork, so new thread placement)
  // and runs the workload on its own inputs for an equal share of
  // --seconds. Ops and failures of every round count, kept or not.
  Tally tally;
  std::vector<Round> rounds(kRounds);
  bool sampled = true;
  for (int round = 0; round < kRounds; ++round) {
    if (!RunRoundInChild(args, round, &rounds[round])) {
      std::fprintf(stderr, "round %d failed\n", round + 1);
      return 1;
    }
    tally.Merge(rounds[round].run.tally);
    sampled = sampled && !rounds[round].run.latency_us.empty();
  }
  std::stable_sort(rounds.begin(), rounds.end(),
                   [](const Round& a, const Round& b) {
                     return a.steal < b.steal;
                   });
  const double steal_limit = rounds[kKeptRounds - 1].steal;
  rounds.erase(std::find_if(rounds.begin(), rounds.end(),
                            [&](const Round& r) {
                              return r.steal > steal_limit;
                            }),
               rounds.end());
  std::printf("[%s] kept rounds (least host CPU steal first):",
              WorkloadName(args.workload));
  for (const Round& r : rounds) std::printf(" %d", r.number);
  std::printf("\n");

  const MetricList metrics = EndToEndMetrics(rounds);
  PrintMetrics(metrics);
  PrintJson(tally.failed == 0 && sampled, tally, metrics);
  return 0;
}

int RunPerLayer(const Args& args) {
  Tally tally;
  MetricList metrics;

  // Untraced run: stats counters and the overhead baseline.
  auto plain = Deploy(args.workload, args.seed, /*tracing=*/false);
  if (!plain.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 plain.status().ToString().c_str());
    return 1;
  }
  const double window_s = args.seconds / 2.0;
  const RunResult base =
      (*plain)->session->Run(window_s, [] { return false; });
  const Snapshot snap = TakeSnapshot(*(*plain)->stack);
  plain->reset();
  PrintRun("untraced", base, snap);
  tally.Merge(base.tally);

  // Traced run, stopped before the span arena can overflow.
  auto traced = Deploy(args.workload, args.seed, /*tracing=*/true);
  if (!traced.ok()) {
    std::fprintf(stderr, "traced set-up failed: %s\n",
                 traced.status().ToString().c_str());
    return 1;
  }
  Stack& traced_stack = *(*traced)->stack;
  const RunResult run = (*traced)->session->Run(window_s, [&] {
    return traced_stack.TraceFill() > kTraceFillStop;
  });
  std::vector<grd::obs::SpanRecord> spans;
  grd::obs::TraceRecorder::Instance().Collect(&spans);
  const std::uint64_t dropped = traced_stack.SpansDropped();
  const Snapshot traced_snap = TakeSnapshot(traced_stack);
  traced->reset();
  PrintRun("traced", run, traced_snap);
  tally.Merge(run.tally);
  const Ledger ledger = BuildLedger(spans);
  PrintLedger(ledger);

  const Status probed = RunLayerProbes(&metrics, &tally);
  if (!probed.ok()) {
    std::fprintf(stderr, "layer probes failed: %s\n",
                 probed.ToString().c_str());
    return 1;
  }
  const Status native =
      RunNativeReference(args.seed, kNativeSeconds, &metrics, &tally);
  if (!native.ok()) {
    std::fprintf(stderr, "native reference failed: %s\n",
                 native.ToString().c_str());
    return 1;
  }
  metrics.Add("grdlib.batches_sent", base.batches_sent, "count");
  AddLedger(ledger, &metrics);
  for (const Metric& m : snap.counters.all())
    metrics.Add(m.name, m.value, m.unit);
  const double base_p50 = Percentile(base.latency_us, 0.5);
  const double traced_p50 = Percentile(run.latency_us, 0.5);
  metrics.Add("obs.trace_overhead_pct",
              base_p50 > 0 ? 100.0 * (traced_p50 / base_p50 - 1.0) : 0.0, "%",
              run.latency_us.size());
  metrics.Add("obs.spans_dropped", dropped, "count", spans.size());

  PrintMetrics(metrics);
  std::printf("[native] NativeCuda recompiles every launch and runs tier 0 "
              "only, so native.overhead_pct is not the paper's overhead "
              "figure\n");
  const bool correct = tally.failed == 0 && dropped == 0 &&
                       !base.latency_us.empty() && !run.latency_us.empty();
  PrintJson(correct, tally, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <launch_storm|train_step|"
                 "infer_colocated> --seed <n> --seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  return args.trace ? perfbench::RunPerLayer(args)
                    : perfbench::RunEndToEnd(args);
}
