// perfbench: one workload, one seed, one measurement run.
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             [--smoke] [--git_sha=<sha>] [--witness_dir=<dir>]
//             [--spans_dir=<dir>]
//
// Every run goes through RunExperiment under the deterministic simulator,
// timed from outside, each timed run in a fresh child process. --trace=0
// prints the end-to-end metrics; --trace=1 prints the per-layer metrics
// from a profiled pass and from spans recorded around each module's public
// calls. The last stdout line is the result object; the lines before it
// record the seed, host and exact outputs. NOTES.md explains the workloads
// and metrics.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/logging.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

using deco::MessageType;
using deco::RunReport;
using deco::Status;

constexpr size_t kTypes = deco::kNumMessageTypes;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Mid-distribution quantile (Ma, Genton and Parzen, 2011): interpolates `q`
// on F(x) = P(X < x) + P(X = x) / 2 over the distinct values. On distinct
// samples it is the Hazen percentile. Simulated window latencies are often
// whole sums of 1 ms link hops, so many windows tie; there it moves with the
// share of windows at each value instead of jumping a hop between inputs.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  std::vector<std::pair<double, double>> mid;  // (F at value, value)
  for (size_t i = 0; i < v.size();) {
    size_t j = i;
    while (j < v.size() && v[j] == v[i]) ++j;
    mid.emplace_back((static_cast<double>(i + j) / 2.0) / n, v[i]);
    i = j;
  }
  if (q <= mid.front().first) return mid.front().second;
  if (q >= mid.back().first) return mid.back().second;
  const auto hi = std::lower_bound(
      mid.begin(), mid.end(), q,
      [](const std::pair<double, double>& p, double x) { return p.first < x; });
  const auto lo = hi - 1;
  return lo->second + (hi->second - lo->second) * (q - lo->first) /
                          (hi->first - lo->first);
}

uint64_t BytesOfType(const RunReport& r, MessageType type) {
  uint64_t total = 0;
  for (const deco::NodeTrafficStats& n : r.network.per_node) {
    total += n.bytes_sent_by_type[static_cast<size_t>(type)];
  }
  return total;
}

uint64_t MessagesOfType(const RunReport& r, MessageType type) {
  uint64_t total = 0;
  for (const deco::NodeTrafficStats& n : r.network.per_node) {
    total += n.messages_sent_by_type[static_cast<size_t>(type)];
  }
  return total;
}

// Everything the simulated schedule determines: the canonical report
// rendering the determinism test diffs, without the profiler's timings,
// plus the per-type traffic the layer metrics read. Two runs of one input
// on one binary must agree on all of it.
std::string Fingerprint(RunReport report) {
  report.profile = deco::ProfileReport{};
  std::string text = deco::RunReportJson(report);
  for (size_t t = 0; t < kTypes; ++t) {
    const auto type = static_cast<MessageType>(t);
    text += " " + std::to_string(BytesOfType(report, type)) + "/" +
            std::to_string(MessagesOfType(report, type));
  }
  uint64_t digest = 1469598103934665603ull;  // FNV-1a
  for (const char c : text) {
    digest = (digest ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  char buf[80];
  std::snprintf(buf, sizeof(buf), "delivery_hash=%016llx report=%016llx",
                static_cast<unsigned long long>(report.delivery_hash),
                static_cast<unsigned long long>(digest));
  return buf;
}

// One timed run of one input: its costs and everything exact about it.
struct InputRun {
  double wall_s = 0, cpu_s = 0, peak_rss_mb = 0, root_busy_share = 0;
  double events = 0, virtual_s = 0, messages = 0, bytes = 0, windows = 0,
         corrections = 0, root_high_water = 0;
  double bytes_by_type[kTypes] = {};
  double messages_by_type[kTypes] = {};
  std::vector<double> latencies_ms;
  WindowCheck check;
  std::string fingerprint;
  uint64_t delivery_hash = 0;
};

// Runs input `i` once, timing the RunExperiment call from outside. With
// `check`, compares its windows with the reference afterwards.
deco::Result<InputRun> TimedRun(const Workload& w, int i, bool profile,
                                bool check) {
  deco::ExperimentConfig config = w.InputConfig(i);
  config.profile.enabled = profile;
  const double cpu0 = CpuSeconds();
  const auto t0 = std::chrono::steady_clock::now();
  DECO_ASSIGN_OR_RETURN(RunReport report, deco::RunExperiment(config));
  InputRun run;
  run.wall_s = SecondsSince(t0);
  run.cpu_s = CpuSeconds() - cpu0;
  run.peak_rss_mb = PeakRssMb();
  std::fprintf(stderr, "%s input %d: %.4f s wall, %.4f s cpu\n",
               profile ? "profiled" : "untraced", i, run.wall_s, run.cpu_s);
  if (profile) {
    uint64_t root = 0;
    for (const deco::ThreadProfile& t : report.profile.threads) {
      if (t.name == "root") root = t.cpu_nanos;
    }
    const uint64_t total = report.profile.TotalCpuNanos();
    run.root_busy_share =
        total == 0 ? 0.0
                   : static_cast<double>(root) / static_cast<double>(total);
  }
  run.events = static_cast<double>(report.events_processed);
  run.virtual_s = report.wall_seconds;
  run.messages = static_cast<double>(report.network.total_messages);
  run.bytes = static_cast<double>(report.network.total_bytes);
  run.windows = static_cast<double>(report.windows_emitted);
  run.corrections = static_cast<double>(report.correction_steps);
  run.root_high_water =
      static_cast<double>(report.network.per_node[0].queue_depth_high_water);
  for (size_t t = 0; t < kTypes; ++t) {
    const auto type = static_cast<MessageType>(t);
    run.bytes_by_type[t] = static_cast<double>(BytesOfType(report, type));
    run.messages_by_type[t] = static_cast<double>(MessagesOfType(report, type));
  }
  run.latencies_ms = WindowLatenciesMs(report);
  run.delivery_hash = report.delivery_hash;
  run.fingerprint = Fingerprint(report);
  if (check) DECO_RETURN_NOT_OK(CheckWindows(config, report, &run.check));
  return run;
}

// Text form of an InputRun, for the pipe from a child process. Doubles are
// printed round-trip exact.
std::string Serialize(const InputRun& r) {
  std::ostringstream out;
  out.precision(17);
  out << r.wall_s << ' ' << r.cpu_s << ' ' << r.peak_rss_mb << ' '
      << r.root_busy_share << ' ' << r.events << ' ' << r.virtual_s << ' '
      << r.messages << ' ' << r.bytes << ' ' << r.windows << ' '
      << r.corrections << ' ' << r.root_high_water;
  for (size_t t = 0; t < kTypes; ++t) {
    out << ' ' << r.bytes_by_type[t] << ' ' << r.messages_by_type[t];
  }
  out << ' ' << r.check.expected << ' ' << r.check.missing << ' '
      << r.check.wrong << ' ' << r.delivery_hash << ' '
      << r.latencies_ms.size();
  for (double ms : r.latencies_ms) out << ' ' << ms;
  out << '\n' << r.fingerprint << '\n' << r.check.first_failure << '\n';
  return out.str();
}

bool Parse(const std::string& text, InputRun* r) {
  std::istringstream in(text);
  in >> r->wall_s >> r->cpu_s >> r->peak_rss_mb >> r->root_busy_share >>
      r->events >> r->virtual_s >> r->messages >> r->bytes >> r->windows >>
      r->corrections >> r->root_high_water;
  for (size_t t = 0; t < kTypes; ++t) {
    in >> r->bytes_by_type[t] >> r->messages_by_type[t];
  }
  size_t n = 0;
  in >> r->check.expected >> r->check.missing >> r->check.wrong >>
      r->delivery_hash >> n;
  r->latencies_ms.resize(n);
  for (double& ms : r->latencies_ms) in >> ms;
  in.ignore(1);
  std::getline(in, r->fingerprint);
  std::getline(in, r->check.first_failure);
  return !in.fail() && !r->fingerprint.empty();
}

// Runs `body` in a fresh child process and returns what it produced. A
// long-lived process is a poor place to measure a run: its allocator keeps
// memory from earlier runs, which then decides the peak RSS.
template <typename Body>
deco::Result<std::string> InChild(Body&& body) {
  int fds[2];
  if (pipe(fds) != 0) return Status::IOError("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::IOError("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    deco::Result<std::string> out = body();
    if (!out.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", out.status().ToString().c_str());
      _exit(1);
    }
    for (size_t done = 0; done < out->size();) {
      const ssize_t n = write(fds[1], out->data() + done, out->size() - done);
      if (n <= 0) _exit(2);
      done += static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buf[1 << 16];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) > 0;) {
    text.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return Status::IOError("waitpid failed");
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("a measured run failed in its child process");
  }
  return text;
}

// TimedRun in a fresh child process. Every timed run goes through here.
deco::Result<InputRun> ChildRun(const Workload& w, int i, bool profile,
                                bool check) {
  auto body = [&]() -> deco::Result<std::string> {
    DECO_ASSIGN_OR_RETURN(InputRun run, TimedRun(w, i, profile, check));
    return Serialize(run);
  };
  DECO_ASSIGN_OR_RETURN(std::string text, InChild(body));
  InputRun run;
  if (!Parse(text, &run)) return Status::Internal("garbled run");
  return run;
}

// Wall seconds of one RunExperiment call on `setup`, made in a fresh child
// process so that every sample pays the same first-call costs.
deco::Result<double> SetupWall(const deco::ExperimentConfig& setup) {
  auto body = [&]() -> deco::Result<std::string> {
    const auto t0 = std::chrono::steady_clock::now();
    DECO_RETURN_NOT_OK(deco::RunExperiment(setup).status());
    std::ostringstream out;
    out.precision(17);
    out << SecondsSince(t0);
    return out.str();
  };
  DECO_ASSIGN_OR_RETURN(std::string text, InChild(body));
  double wall = 0.0;
  if (!(std::istringstream(text) >> wall)) {
    return Status::Internal("garbled set-up time");
  }
  return wall;
}

// One metric of the result line.
struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Timed runs of a workload's inputs, untraced and profiled. The first run
// of each input is untraced and kept; every later run of that input, in
// either mode, must reproduce its fingerprint.
struct Runs {
  std::vector<InputRun> first;  // index = input
  std::vector<double> throughput_meps;  // untraced runs
  std::vector<double> cpu_s_per_mevent;
  std::vector<double> profiled_throughput_meps;
  std::vector<double> root_busy_share;

  Status Add(const Workload& w, int i, bool profiled, InputRun run) {
    const double mevents = run.events / 1e6;
    if (profiled) {
      profiled_throughput_meps.push_back(mevents / run.wall_s);
      root_busy_share.push_back(run.root_busy_share);
    } else {
      throughput_meps.push_back(mevents / run.wall_s);
      cpu_s_per_mevent.push_back(run.cpu_s / mevents);
    }
    if (static_cast<size_t>(i) == first.size()) {
      first.push_back(std::move(run));
    } else if (run.fingerprint != first[i].fingerprint) {
      return Status::Internal("DETERMINISM VIOLATION: input " +
                              std::to_string(i) + " of " + w.name +
                              " ran differently\n  before: " +
                              first[i].fingerprint + "\n  now:    " +
                              run.fingerprint);
    }
    return Status::OK();
  }
};

// Compares each input's fingerprint with the one an earlier invocation of
// the same binary recorded for this workload, seed and input, and records
// those not seen yet. Untraced and traced invocations cover different
// numbers of inputs and share the records.
Status CheckWitness(const std::string& dir, const std::string& key,
                    const std::vector<InputRun>& runs) {
  if (dir.empty()) return Status::OK();
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + key + ".txt";
  std::map<size_t, std::string> recorded;  // input -> fingerprint
  {
    std::ifstream in(path);
    size_t input = 0;
    for (std::string fp; in >> input && std::getline(in >> std::ws, fp);) {
      recorded[input] = fp;
    }
  }
  std::ofstream out(path, std::ios::app);
  for (size_t i = 0; i < runs.size(); ++i) {
    const auto it = recorded.find(i);
    if (it == recorded.end()) {
      out << i << ' ' << runs[i].fingerprint << '\n';
    } else if (it->second != runs[i].fingerprint) {
      return Status::Internal(
          "DETERMINISM VIOLATION: input " + std::to_string(i) + " of " + key +
          " differs from the run recorded in " + path + "\n  recorded: " +
          it->second + "\n  now:      " + runs[i].fingerprint);
    }
  }
  return out ? Status::OK() : Status::IOError("cannot write " + path);
}

// Network and protocol totals summed over the inputs.
struct Totals {
  InputRun sum;
  WindowCheck check;

  explicit Totals(const std::vector<InputRun>& runs) {
    for (const InputRun& r : runs) {
      sum.events += r.events;
      sum.virtual_s += r.virtual_s;
      sum.messages += r.messages;
      sum.bytes += r.bytes;
      sum.windows += r.windows;
      sum.corrections += r.corrections;
      sum.root_high_water = std::max(sum.root_high_water, r.root_high_water);
      sum.peak_rss_mb = std::max(sum.peak_rss_mb, r.peak_rss_mb);
      for (size_t t = 0; t < kTypes; ++t) {
        sum.bytes_by_type[t] += r.bytes_by_type[t];
        sum.messages_by_type[t] += r.messages_by_type[t];
      }
      sum.latencies_ms.insert(sum.latencies_ms.end(), r.latencies_ms.begin(),
                              r.latencies_ms.end());
      check.expected += r.check.expected;
      check.missing += r.check.missing;
      check.wrong += r.check.wrong;
      if (check.first_failure.empty()) {
        check.first_failure = r.check.first_failure;
      }
    }
  }
  double Bytes(MessageType type) const {
    return sum.bytes_by_type[static_cast<size_t>(type)];
  }
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int Fail(const Status& status) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
  return 1;
}

// Layer cost x how often the runs paid it, against their measured CPU.
void PrintCrossCheck(const Workload& w, const Totals& run,
                     const LayerTimes& t, double cpu_s_per_mevent) {
  const deco::ExperimentConfig& c = w.config;
  const InputRun& s = run.sum;
  const double generated = static_cast<double>(
      c.events_per_local * c.num_locals *
      static_cast<uint64_t>(w.TracedInputs()));
  const double raw = run.Bytes(MessageType::kEventBatch) /
                     static_cast<double>(deco::kBinaryEventSize);
  std::vector<std::pair<const char*, double>> parts = {
      {"stream.pull", t.stream_pull_ns_per_event * generated},
      {"event.codec", (t.event_batch_encode_ns_per_event +
                       t.event_batch_decode_ns_per_event) * raw},
      {"net.send", t.net_send_ns_per_msg * s.messages},
  };
  if (c.scheme == deco::Scheme::kCentral) {
    parts.push_back({"baseline.merge", t.baseline_merge_ns_per_event * s.events});
    parts.push_back({"window.add", t.window_add_ns_per_event * s.events});
  } else {
    const double corrected = run.Bytes(MessageType::kCorrectionResult) /
                             static_cast<double>(deco::kBinaryEventSize);
    const double slices =
        s.messages_by_type[static_cast<size_t>(MessageType::kPartialResult)];
    parts.push_back({"agg.accumulate", t.agg_accumulate_ns_per_event * generated});
    parts.push_back({"node.slice_codec", t.node_slice_codec_ns_per_msg * slices});
    parts.push_back({"deco.assemble", t.deco_assemble_us_per_window * 1e3 * s.windows});
    parts.push_back({"deco.correct", t.deco_correct_us_per_window * 1e3 * s.corrections});
    parts.push_back({"node.correction_codec",
                     t.node_correction_codec_ns_per_event * corrected});
  }
  double explained = 0.0;
  for (const auto& p : parts) explained += p.second;
  const double mevents = s.events / 1e6;
  std::printf("cross-check: layer costs x run counts explain %.1f%% of "
              "cpu_s_per_mevent (%.4f of %.4f s/Mevent):",
              100.0 * explained / 1e9 / (cpu_s_per_mevent * mevents),
              explained / 1e9 / mevents, cpu_s_per_mevent);
  for (const auto& p : parts) {
    std::printf(" %s=%.4f", p.first, p.second / 1e9 / mevents);
  }
  std::printf("\n");
}

int Main(int argc, char** argv) {
  const deco::Flags flags = deco::Flags::Parse(argc, argv);
  const std::string name = flags.GetString("workload", "");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 10.0);
  const bool trace = flags.GetInt("trace", 0) != 0;
  const bool smoke = flags.GetBool("smoke", false);
  const std::string git_sha = flags.GetString("git_sha", "unknown");
  const std::string witness_dir = flags.GetString("witness_dir", "");
  const std::string spans_dir = flags.GetString("spans_dir", "");
  deco::SetLogLevel(deco::LogLevel::kError);

  auto workload = MakeWorkload(name, seed, smoke);
  if (!workload.ok()) return Fail(workload.status());
  const Workload& w = *workload;
  const int inputs = trace ? w.TracedInputs() : w.inputs;
  std::printf("{\"record\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"inputs\": %d, \"git_sha\": \"%s\", \"nproc\": %u, "
              "\"trace\": %d, \"smoke\": %s, \"seconds\": %g}}\n",
              name.c_str(), static_cast<unsigned long long>(seed), inputs,
              git_sha.c_str(), std::thread::hardware_concurrency(),
              trace ? 1 : 0, smoke ? "true" : "false", seconds);

  const auto start = std::chrono::steady_clock::now();
  Runs runs;
  LayerTimes layers;
  SpanLog spans;
  double setup_s = 0.0;
  if (!trace) {
    // Every input once, then more timed runs of them while time is left;
    // the first run of each input is checked in its child after its timing.
    // Set-up (bring-up, one window, teardown) is timed five times after
    // each run, so its median spans the whole run.
    const deco::ExperimentConfig setup = SetupConfig(w.InputConfig(0));
    std::vector<double> setup_walls;
    for (int i = 0; i < inputs || SecondsSince(start) < seconds; ++i) {
      const int input = i % inputs;
      auto run = ChildRun(w, input, false, i < inputs);
      if (!run.ok()) return Fail(run.status());
      auto added = runs.Add(w, input, false, std::move(*run));
      if (!added.ok()) return Fail(added);
      for (int k = 0; k < 5; ++k) {
        auto wall = SetupWall(setup);
        if (!wall.ok()) return Fail(wall.status());
        setup_walls.push_back(*wall);
      }
    }
    setup_s = Median(setup_walls);
  } else {
    // Each input untraced and checked, then again with the profiler on.
    // Alternating keeps both passes under the same host conditions and
    // process history, so their throughputs compare like for like.
    for (int i = 0; i < inputs; ++i) {
      for (const bool profile : {false, true}) {
        auto run = ChildRun(w, i, profile, !profile);
        if (!run.ok()) return Fail(run.status());
        auto added = runs.Add(w, i, profile, std::move(*run));
        if (!added.ok()) return Fail(added);
      }
    }
    // The obs layer renders this process's metric registry. A one-window
    // run leaves in it the series every run of the workload registers.
    auto warm = deco::RunExperiment(SetupConfig(w.InputConfig(0)));
    if (!warm.ok()) return Fail(warm.status());
    const InputRun& first = runs.first[0];
    const double left = std::max(2.0, seconds - SecondsSince(start));
    auto measured = MeasureLayers(w.InputConfig(0), first.bytes / first.messages,
                                  left, &spans);
    if (!measured.ok()) return Fail(measured.status());
    layers = *measured;
  }

  const Totals run(runs.first);
  const std::string key =
      name + (smoke ? ".smoke" : "") + ".seed" + std::to_string(seed);
  auto witnessed = CheckWitness(witness_dir, key, runs.first);
  if (!witnessed.ok()) return Fail(witnessed);
  const WindowCheck& check = run.check;
  const uint64_t failed = check.missing + check.wrong;
  const double failed_ratio =
      check.expected == 0 ? 1.0
                          : static_cast<double>(failed) /
                                static_cast<double>(check.expected);
  std::string hashes;
  for (const InputRun& r : runs.first) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%s\"%016llx\"", hashes.empty() ? "" : ", ",
                  static_cast<unsigned long long>(r.delivery_hash));
    hashes += buf;
  }
  std::printf("{\"record\": {\"delivery_hashes\": [%s], "
              "\"windows_expected\": %llu, \"windows_missing\": %llu, "
              "\"windows_wrong\": %llu, \"failed_window_ratio\": %.17g, "
              "\"timed_runs\": %zu}}\n",
              hashes.c_str(), static_cast<unsigned long long>(check.expected),
              static_cast<unsigned long long>(check.missing),
              static_cast<unsigned long long>(check.wrong), failed_ratio,
              runs.throughput_meps.size() +
                  runs.profiled_throughput_meps.size());
  if (!check.first_failure.empty()) {
    std::printf("first failure: %s\n", check.first_failure.c_str());
  }

  const InputRun& s = run.sum;
  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"throughput_meps", Median(runs.throughput_meps), "Mev/s"},
        {"cpu_s_per_mevent", Median(runs.cpu_s_per_mevent), "s/Mevent"},
        {"sustained_meps", s.events / 1e6 / s.virtual_s, "Mev/s"},
        {"latency_p50_ms", Quantile(s.latencies_ms, 0.5), "ms"},
        {"latency_p90_ms", Quantile(s.latencies_ms, 0.9), "ms"},
        {"bytes_per_event", s.bytes / s.events, "B/event"},
        {"peak_rss_mb", s.peak_rss_mb, "MB"},
        {"setup_s", setup_s, "s"},
    };
  } else {
    PrintCrossCheck(w, run, layers, Median(runs.cpu_s_per_mevent));
    const double raw = run.Bytes(MessageType::kEventBatch);
    const double slices = run.Bytes(MessageType::kPartialResult);
    const double corrections = run.Bytes(MessageType::kCorrectionResult);
    metrics = {
        {"net.msgs_per_kevent", s.messages / (s.events / 1e3), "msgs/kevent"},
        {"net.raw_bytes_per_event", raw / s.events, "B/event"},
        {"net.slice_bytes_per_event", slices / s.events, "B/event"},
        {"net.correction_bytes_per_event", corrections / s.events, "B/event"},
        {"net.control_bytes_per_event",
         (s.bytes - raw - slices - corrections) / s.events, "B/event"},
        {"net.root_queue_high_water", s.root_high_water, "msgs"},
        {"net.send_ns_per_msg", layers.net_send_ns_per_msg, "ns"},
        {"deco.corrections_per_window", s.corrections / s.windows, "count"},
        {"deco.assemble_us_per_window", layers.deco_assemble_us_per_window, "us"},
        {"deco.correct_us_per_window", layers.deco_correct_us_per_window, "us"},
        {"event.batch_encode_ns_per_event",
         layers.event_batch_encode_ns_per_event, "ns"},
        {"event.batch_decode_ns_per_event",
         layers.event_batch_decode_ns_per_event, "ns"},
        {"node.slice_codec_ns_per_msg", layers.node_slice_codec_ns_per_msg, "ns"},
        {"node.correction_codec_ns_per_event",
         layers.node_correction_codec_ns_per_event, "ns"},
        {"stream.pull_ns_per_event", layers.stream_pull_ns_per_event, "ns"},
        {"agg.accumulate_ns_per_event", layers.agg_accumulate_ns_per_event, "ns"},
        {"baseline.merge_ns_per_event", layers.baseline_merge_ns_per_event, "ns"},
        {"window.add_ns_per_event", layers.window_add_ns_per_event, "ns"},
        {"serve.accumulate_ns_per_event", layers.serve_accumulate_ns_per_event,
         "ns"},
        {"obs.sample_us", layers.obs_sample_us, "us"},
        {"obs.render_metrics_us", layers.obs_render_metrics_us, "us"},
        {"obs.exposition_bytes", static_cast<double>(layers.obs_exposition_bytes),
         "B"},
        {"root.busy_share", Median(runs.root_busy_share), "ratio"},
        {"trace.overhead",
         Median(runs.profiled_throughput_meps) / Median(runs.throughput_meps),
         "ratio"},
    };
    if (!spans_dir.empty()) {
      std::filesystem::create_directories(spans_dir);
      const std::string path = spans_dir + "/" + key + ".spans.jsonl";
      auto written = spans.WriteJsonl(path);
      if (!written.ok()) return Fail(written);
      std::printf("spans: %s\n", path.c_str());
    }
  }
  PrintResult(failed == 0, check.expected, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
