#pragma once
// Host-speed normalisation.
//
// A core of the shared host the benchmark was calibrated on runs this
// program at speeds up to 2.5x apart from one minute to the next, as other
// tenants load the physical core under it, and each core of the VM does so
// on its own. A single run cannot outlast that. So the benchmark runs on one
// core (pin_to_one_cpu), and every timing it reports is scaled to a fixed
// host speed: a sampler thread on that core times fixed bursts of
// benchmark-owned work every few milliseconds; the slowdown of a quarter
// second is its median burst time over the burst's nominal time; and an
// interval's scaled time is the sum, over the quarter seconds it overlaps,
// of the overlap divided by that quarter second's slowdown.
//
// Contention slows code by what it is bound by, so there are two bursts.
// Over 150 s on one core of that host, vector multiply-add code (int8 and
// fp32 predicts, a training step) moved by 0.30-0.36 (relative IQR of 5 s
// medians) and by 0.06-0.13 when divided by the vector burst, while the
// scalar FNV-1a row hash behind a cache hit moved by only 0.06, and by 0.004
// when divided by the scalar burst (0.21 when divided by the vector one). A
// burst timed on another core of the VM tracked nothing.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace e2e {

enum class Reference {
  kVector,  ///< 64x64 float matrix products: multiply-add bound, in L1
  kScalar,  ///< FNV-1a over 3x16x16-float rows: a dependent multiply chain
};

inline constexpr int kVectorGemms = 2;  ///< matrix products per burst
inline constexpr int kScalarRows = 8;   ///< rows hashed per burst
/// Each burst's CPU time at the fixed host speed timings are scaled to:
/// about its median on the calibration host.
inline constexpr double kNominalUs[] = {60.0, 40.0};

/// One burst of each kind of reference work; the results only defeat the
/// optimiser.
float vector_burst();
std::uint64_t scalar_burst();

/// Restricts the calling thread, and every thread and process it starts
/// afterwards, to the highest-numbered CPU it may run on.
void pin_to_one_cpu();

/// The slowdown of every quarter second (from now_ns() = 0) for one kind of
/// reference work: 2 means the core ran that kind of work at half the fixed
/// speed.
class SpeedProfile {
 public:
  static constexpr std::int64_t kBucketNs = 250000000;

  SpeedProfile(std::vector<double> bucket_slowdown, double overall)
      : slowdown_(std::move(bucket_slowdown)), overall_(overall) {}

  /// Seconds [start_ns, end_ns) would have taken at the fixed host speed.
  double scaled_s(std::int64_t start_ns, std::int64_t end_ns) const;
  /// The run's median slowdown, which a quarter second with no burst gets.
  double overall() const { return overall_; }

 private:
  double slowdown_at(std::int64_t bucket) const;

  std::vector<double> slowdown_;
  double overall_;
};

/// Times reference bursts on its own thread for as long as it lives.
class HostSpeed {
 public:
  HostSpeed();
  ~HostSpeed();

  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// The profile of one kind of reference work over the bursts so far.
  SpeedProfile profile(Reference ref) const;

 private:
  struct Burst {
    std::int64_t end_ns;
    double us[2];  ///< CPU time, by Reference
  };

  mutable std::mutex mutex_;
  std::vector<Burst> bursts_;  // guarded by mutex_
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace e2e
