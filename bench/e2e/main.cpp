// End-to-end benchmark: one workload per process.
//
//   e2e_bench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//              [--out <record.json>]
//   e2e_bench --workload <name> --seed <n> --setup-only
//
// Workloads (see README.md for why each exists):
//   wire_unique  Registry + net::InferenceServer over loopback, distinct rows
//   edge_zipf    in-process Registry::serve, Zipf(1.1) keys, cache, hot swaps
//   bulk_int8    in-process Server over the int8-native plan, 256-row requests
//   ticket_draw  adversarial pretrain -> OMP 90% -> finetune -> compile -> eval
//
// With --trace 0 the last stdout line is the end-to-end result; with
// --trace 1 it is the per-layer table, measured by spans around the
// benchmark's calls and by the layer probes. Either way the full record goes
// to --out (default bench_out/e2e/<workload>-seed<n>-trace<t>.json) and a
// traced run also writes its spans as Chrome trace JSON next to it. Exit
// status: 0 when every output check passed, 1 when one failed (the result
// line says so), 2 on a usage error or an exception (no result line).
//
// setup_s is the median of kSetupProcesses cold set-ups: each is a fresh
// `--setup-only` process, timed from its spawn to its "ready" line, so it
// includes process start and every once-per-process cost (scheduler threads,
// allocator arenas, page faults) as well as the workload's own set-up.
//
// Every reported timing is scaled to a fixed host speed (reference.hpp);
// the run record and the readable report also give it as measured.

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "prune/omp.hpp"
#include "reference.hpp"
#include "workloads.hpp"

namespace e2e {

void fill_row(std::uint64_t seed, std::uint64_t stream, std::uint64_t index,
              float* out) {
  rt::Pcg32 g(seed * 0x9E3779B97F4A7C15ULL + stream, index);
  for (std::int64_t i = 0; i < kRowFloats; ++i) {
    out[i] = static_cast<float>(g.next_u32() >> 8) * 0x1p-24f;
  }
}

rt::Tensor make_rows(const std::function<void(std::uint64_t, float*)>& row,
                     std::uint64_t first, std::int64_t n) {
  rt::Tensor t({n, 3, 16, 16});
  for (std::int64_t i = 0; i < n; ++i) {
    row(first + static_cast<std::uint64_t>(i), t.data() + i * kRowFloats);
  }
  return t;
}

std::unique_ptr<rt::ResNet> make_r18_omp90(std::uint64_t model_seed) {
  rt::Rng rng(model_seed);
  auto model = rt::make_micro_resnet18(10, rng);
  {
    Span span("prune.omp");
    rt::omp_prune(*model, rt::OmpConfig{0.9f, rt::Granularity::kElement,
                                        /*include_head=*/false});
  }
  model->set_training(false);
  return model;
}

QueueSampler::QueueSampler(const rt::serving::Server* server, Samples* out) {
  if (server == nullptr || !trace::enabled()) return;
  thread_ = std::thread([this, server, out] {
    while (!stop_.load(std::memory_order_relaxed)) {
      out->add(static_cast<double>(server->stats().queued_rows));
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
}

QueueSampler::~QueueSampler() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

bool same_bits(const float* a, const float* b, std::int64_t n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(float)) == 0;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void exit_ready() {
  std::fputs("ready\n", stdout);
  std::fflush(stdout);
  std::_Exit(0);
}

namespace {

constexpr int kSetupProcesses = 9;

void usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload "
               "wire_unique|edge_zipf|bulk_int8|ticket_draw --seed <n> "
               "[--seconds <s>] [--trace 0|1] [--out <path>] "
               "[--setup-only]\n");
}

/// An interval on now_ns()'s clock.
struct Interval {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Spawns `exe --workload W --seed N --setup-only` and returns the interval
/// from the spawn to its "ready" line, after the process has ended.
Interval one_cold_setup(const char* exe, const Args& args) {
  const std::string seed = std::to_string(args.seed);
  const char* argv[] = {exe,         "--workload",   args.workload.c_str(),
                        "--seed",    seed.c_str(),   "--setup-only",
                        nullptr};
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  pid_t pid = 0;
  const std::int64_t t0 = now_ns();
  const int spawned = posix_spawn(&pid, exe, &actions, nullptr,
                                  const_cast<char* const*>(argv), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  std::string said;
  std::int64_t t1 = 0;
  if (spawned == 0) {
    char buf[64];
    ssize_t n = 0;
    while (said.find('\n') == std::string::npos &&
           ((n = ::read(fds[0], buf, sizeof(buf))) > 0 ||
            (n < 0 && errno == EINTR))) {
      if (n > 0) said.append(buf, static_cast<std::size_t>(n));
    }
    t1 = now_ns();
  }
  ::close(fds[0]);
  int status = 0;
  pid_t waited = -1;
  if (spawned == 0) {
    do {
      waited = ::waitpid(pid, &status, 0);
    } while (waited < 0 && errno == EINTR);
  }
  if (waited != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      said != "ready\n") {
    throw std::runtime_error("a --setup-only process failed");
  }
  return {t0, t1};
}

void print_metrics(std::FILE* f, const std::map<std::string, Metric>& metrics,
                   const char* indent) {
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::fprintf(f, "%s%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 first ? "" : ",", indent, name.c_str(), m.value,
                 m.unit.c_str());
    first = false;
  }
}

void print_series(std::FILE* f, const char* name,
                  const std::vector<double>& values, bool last) {
  std::fprintf(f, "  \"%s\": [", name);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::fprintf(f, "%s%.17g", i == 0 ? "" : ", ", values[i]);
  }
  std::fprintf(f, "]%s\n", last ? "" : ",");
}

/// Latency quantiles, as measured, kept in the run record.
constexpr double kRecordedQuantiles[] = {0.10, 0.50, 0.90, 0.99};

/// Samples as measured, and each scaled to the fixed host speed.
struct Scaled {
  Samples raw, scaled;
};

/// Request latencies in microseconds.
Scaled latencies(const Outcome& out, const SpeedProfile& speed) {
  Scaled s;
  for (const Timeline::Point& p :
       out.latency_us.points(out.latency_start_ns, out.latency_end_ns)) {
    const auto began = p.t_ns - static_cast<std::int64_t>(p.value * 1e3);
    s.raw.add(p.value);
    s.scaled.add(speed.scaled_s(began, p.t_ns) * 1e6);
  }
  return s;
}

/// Throughput windows in rows/s (see Outcome::completed_rows).
Scaled rates(const Outcome& out, const SpeedProfile& speed) {
  Scaled s;
  std::int64_t begin = out.rate_start_ns;
  double rows = 0.0;
  std::size_t n = 0;
  for (const Timeline::Point& p :
       out.completed_rows.points(out.rate_start_ns, out.rate_end_ns)) {
    rows += p.value;
    if (++n < out.rate_window) continue;
    if (p.t_ns > begin) {
      s.raw.add(rows * 1e9 / static_cast<double>(p.t_ns - begin));
      s.scaled.add(rows / speed.scaled_s(begin, p.t_ns));
    }
    begin = p.t_ns;
    rows = 0.0;
    n = 0;
  }
  return s;
}

/// What the run record keeps beside the reported metrics.
struct Evidence {
  std::map<std::string, Metric> raw;  ///< end-to-end timings as measured
  /// Each reference's median slowdown over the run, by name.
  std::map<std::string, double> slowdown;
  Samples latency;            ///< as measured
  std::vector<double> rates;  ///< as measured
};

void write_record(const std::string& path, const Args& args, bool correct,
                  const Outcome& out,
                  const std::map<std::string, Metric>& end_to_end,
                  Evidence& ev) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path());
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\"workload\": \"%s\", \"seed\": %" PRIu64
               ", \"seconds\": %.17g, \"trace\": %d, \"correct\": %s, "
               "\"attempted\": %" PRId64 ", \"failed\": %" PRId64
               ",\n \"metrics\": {",
               args.workload.c_str(), args.seed, args.seconds,
               args.trace ? 1 : 0, correct ? "true" : "false", out.attempted,
               out.failed);
  print_metrics(f, end_to_end, "\n  ");
  std::fprintf(f, "},\n \"per_layer\": {");
  print_metrics(f, out.per_layer, "\n  ");
  std::fprintf(f, "},\n \"raw\": {");
  print_metrics(f, ev.raw, "\n  ");
  std::fprintf(f, "},\n \"slowdown\": {");
  const char* sep = "";
  for (const auto& [name, s] : ev.slowdown) {
    std::fprintf(f, "%s\"%s\": %.17g", sep, name.c_str(), s);
    sep = ", ";
  }
  std::fprintf(f, "},\n \"latency_us\": {\"samples\": %zu",
               ev.latency.count());
  for (const double q : kRecordedQuantiles) {
    std::fprintf(f, ", \"p%02.0f\": %.17g", q * 100.0,
                 ev.latency.quantile(q));
  }
  std::fprintf(f, "},\n \"windows\": {\n");
  print_series(f, "throughput_rps", ev.rates, true);
  std::fprintf(f, " }}\n");
  std::fclose(f);
}

int run(const char* exe, const Args& args, const std::string& out_path) {
  Outcome (*workload)(const Args&) = nullptr;
  if (args.workload == "wire_unique") {
    workload = run_wire_unique;
  } else if (args.workload == "edge_zipf") {
    workload = run_edge_zipf;
  } else if (args.workload == "bulk_int8") {
    workload = run_bulk_int8;
  } else if (args.workload == "ticket_draw") {
    workload = run_ticket_draw;
  } else {
    usage();
    return 2;
  }
  if (args.setup_only) {
    workload(args);  // ends the process once set up
    return 2;
  }
  const HostSpeed host;
  std::vector<Interval> setups;
  for (int i = 0; i < kSetupProcesses; ++i) {
    setups.push_back(one_cold_setup(exe, args));
  }
  Outcome out = workload(args);

  // Timings scaled to the fixed host speed: see reference.hpp.
  const SpeedProfile vector = host.profile(Reference::kVector);
  const SpeedProfile scalar = host.profile(Reference::kScalar);
  const SpeedProfile& latency_speed =
      out.latency_reference == Reference::kScalar ? scalar : vector;
  std::vector<double> setup_raw, setup_scaled;
  for (const Interval& i : setups) {
    setup_raw.push_back(static_cast<double>(i.end_ns - i.start_ns) / 1e9);
    setup_scaled.push_back(vector.scaled_s(i.start_ns, i.end_ns));
  }
  Scaled lat = latencies(out, latency_speed);
  Scaled rate = rates(out, vector);

  Evidence ev;
  ev.latency = lat.raw;
  ev.rates = rate.raw.values();
  if (ev.latency.beyond(0.99) < 10) {
    out.notes.push_back("warning: fewer than 10 latency samples beyond p99; "
                        "run longer");
  }
  ev.raw["setup_s"] = {median(setup_raw), "s"};
  ev.raw["p50_us"] = {ev.latency.quantile(0.50), "us"};
  ev.raw["throughput_rps"] = {rate.raw.quantile(0.50), "rows/s"};
  ev.slowdown["vector"] = vector.overall();
  ev.slowdown["scalar"] = scalar.overall();

  std::map<std::string, Metric> e2e;
  e2e["setup_s"] = {median(setup_scaled), "s"};
  e2e["p50_us"] = {lat.scaled.quantile(0.5), "us"};
  e2e["throughput_rps"] = {rate.scaled.quantile(0.5), "rows/s"};
  e2e["peak_rss_mb"] = {out.peak_rss_mib, "MiB"};
  const bool correct = out.failed == 0 && out.attempted > 0;

  std::printf("workload %s  seed %" PRIu64 "  seconds %g  trace %d\n",
              args.workload.c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0);
  for (const auto& [name, m] : e2e) {
    const auto raw = ev.raw.find(name);
    std::printf("  %-16s %14.3f %-6s", name.c_str(), m.value, m.unit.c_str());
    if (raw != ev.raw.end()) {
      std::printf("  (as measured %.3f)", raw->second.value);
    }
    std::printf("\n");
  }
  std::printf("  latency as measured: %zu samples; p10 %.3f us, p99 %.3f us "
              "with %zu beyond; throughput: %zu windows\n",
              ev.latency.count(), ev.latency.quantile(0.10),
              ev.latency.quantile(0.99), ev.latency.beyond(0.99),
              ev.rates.size());
  std::printf("  host slowdown (median over the run): vector %.3f, scalar "
              "%.3f\n",
              ev.slowdown["vector"], ev.slowdown["scalar"]);
  std::printf("  attempted %" PRId64 ", failed %" PRId64 ", error_rate %g\n",
              out.attempted, out.failed,
              out.attempted > 0 ? static_cast<double>(out.failed) /
                                      static_cast<double>(out.attempted)
                                : 0.0);
  for (const std::string& note : out.notes) {
    std::printf("  %s\n", note.c_str());
  }
  if (args.trace) {
    std::printf("  per-layer:\n");
    for (const auto& [name, m] : out.per_layer) {
      std::printf("    %-24s %14.4f %s\n", name.c_str(), m.value,
                  m.unit.c_str());
    }
    const std::string trace_path = "bench_out/e2e/" + args.workload +
                                   "-seed" + std::to_string(args.seed) +
                                   ".trace.json";
    std::filesystem::create_directories("bench_out/e2e");
    if (trace::write_chrome(trace_path, 200000)) {
      std::printf("  spans written to %s\n", trace_path.c_str());
    }
  }

  write_record(out_path, args, correct, out, e2e, ev);

  const auto& reported = args.trace ? out.per_layer : e2e;
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              correct ? "true" : "false", out.attempted, out.failed);
  print_metrics(stdout, reported, " ");
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  std::string out_path;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      args.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      e2e::usage();
      return 2;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0 && args.seconds <= 600.0)) {
        e2e::usage();
        return 2;
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        e2e::usage();
        return 2;
      }
      args.trace = value[0] == '1';
    } else if (flag == "--out") {
      out_path = value;
    } else {
      e2e::usage();
      return 2;
    }
  }
  if (args.workload.empty() || !have_seed) {
    e2e::usage();
    return 2;
  }
  if (out_path.empty()) {
    out_path = "bench_out/e2e/" + args.workload + "-seed" +
               std::to_string(args.seed) + "-trace" +
               (args.trace ? "1" : "0") + ".json";
  }
  e2e::trace::enable(args.trace);
  e2e::pin_to_one_cpu();  // before any thread starts: see reference.hpp
  try {
    return e2e::run(argv[0], args, out_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 2;
  }
}
