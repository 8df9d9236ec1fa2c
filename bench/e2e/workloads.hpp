#pragma once
// Shared pieces of the end-to-end benchmark: arguments, what a
// workload reports, input generation, and the per-layer probe interface.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "models/resnet.hpp"
#include "reference.hpp"
#include "serving/serving.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace e2e {

/// Floats in one 3x16x16 input row, the geometry every workload serves.
inline constexpr std::int64_t kRowFloats = 3 * 16 * 16;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  // BENCHMARK.json run_seconds
  bool trace = false;
  /// Set the workload up, say "ready" on stdout and exit: one cold set-up,
  /// timed by the parent process that spawned this one.
  bool setup_only = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What the per-layer probes need from a workload: its artifact, its server
/// and compile settings, and its own inputs. Probes call each layer's public
/// entry point on these, so every workload reports every layer.
struct ProbeInputs {
  rt::ResNet* model = nullptr;     ///< the served ticket (version 1)
  rt::ResNet* model_v2 = nullptr;  ///< the version deploy flips alternate with
  rt::CompileOptions compile;
  rt::serving::ServerOptions server;
  std::shared_ptr<const rt::CompiledTicket> plan;
  int rows_per_request = 1;
  int depth = 1;  ///< requests in flight during the serving replay
  /// The workload's input row `index` (kRowFloats floats).
  std::function<void(std::uint64_t index, float* out)> row;
  /// The workload's row-index trace (what a cache in front of it would see).
  std::vector<std::uint64_t> keys;
  /// The workload's own server when the benchmark submits to it directly; its
  /// counters then describe the serving layer instead of a replay's.
  rt::serving::Server* served = nullptr;
  Samples queued_rows;  ///< stats().queued_rows sampled while `served` ran
};

/// A serving workload's throughput window is the time it takes to complete
/// this many rows.
inline constexpr std::int64_t kRateWindowRows = 256;
/// Load runs this long before the timed window opens, so caches, the
/// allocator and the server's threads have settled.
inline constexpr std::int64_t kWarmupNs = 1000000000;

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Request latencies in microseconds, at completion time; those completed
  /// in [latency_start_ns, latency_end_ns) count.
  Timeline latency_us;
  std::int64_t latency_start_ns = 0;
  std::int64_t latency_end_ns = 0;
  /// The reference whose bottleneck the median request shares: what its
  /// latency is scaled by (reference.hpp). Everything else is vector-bound.
  Reference latency_reference = Reference::kVector;
  /// Rows completed with a correct output, at completion time. Throughput
  /// windows are cut from those completed in [rate_start_ns, rate_end_ns):
  /// each is the next rate_window completions, timed from the end of the
  /// window before it (from rate_start_ns for the first).
  Timeline completed_rows;
  std::int64_t rate_start_ns = 0;
  std::int64_t rate_end_ns = 0;
  std::size_t rate_window = 1;
  /// peak_rss_mib() when the timed window closed, before the output checks,
  /// whose memory grows with the number of requests served.
  double peak_rss_mib = 0.0;
  std::vector<std::string> notes;  ///< workload-specific report lines
  std::map<std::string, Metric> per_layer;  ///< traced runs only
};

Outcome run_wire_unique(const Args& args);
Outcome run_edge_zipf(const Args& args);
Outcome run_bulk_int8(const Args& args);
Outcome run_ticket_draw(const Args& args);

/// Runs every layer probe on the workload's inputs and fills `out` with the
/// per-layer metrics. Call after the timed window, before teardown.
void probe_layers(ProbeInputs& in, std::map<std::string, Metric>& out);

/// Deterministic input row: kRowFloats values in [0, 1) that depend only on
/// (seed, stream, index), so a check can regenerate any request's row.
void fill_row(std::uint64_t seed, std::uint64_t stream, std::uint64_t index,
              float* out);
/// `n` consecutive rows starting at `first` as an (n, 3, 16, 16) batch.
rt::Tensor make_rows(const std::function<void(std::uint64_t, float*)>& row,
                     std::uint64_t first, std::int64_t n);

/// The paper's serving artifact: make_micro_resnet18(10, Rng(model_seed))
/// with a global one-shot magnitude ticket at 90% element sparsity.
std::unique_ptr<rt::ResNet> make_r18_omp90(std::uint64_t model_seed);

/// The process's peak resident set so far, in MiB (getrusage ru_maxrss).
double peak_rss_mib();

/// Prints "ready" on stdout and ends the process at once, without
/// destructors: a cold set-up is timed up to this line, not its teardown.
[[noreturn]] void exit_ready();

/// Sets a workload up: everything before its first timed operation. With
/// --setup-only the process ends here, right after saying it is ready.
template <typename Make>
auto setup(const Args& args, Make make) {
  decltype(make()) state;
  {
    Span span("setup");
    state = make();
  }
  if (args.setup_only) exit_ready();
  return state;
}

/// Samples a server's queued_rows every 10 ms while alive (traced runs).
class QueueSampler {
 public:
  QueueSampler(const rt::serving::Server* server, Samples* out);
  ~QueueSampler();

  QueueSampler(const QueueSampler&) = delete;
  QueueSampler& operator=(const QueueSampler&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Bitwise equality of two float ranges (NaN payloads included).
bool same_bits(const float* a, const float* b, std::int64_t n);

}  // namespace e2e
