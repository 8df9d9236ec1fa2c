#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>

#include "reference.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace e2e {

namespace {

/// Pause between bursts: the sampler takes a few percent of the core.
constexpr auto kReferencePeriod = std::chrono::milliseconds(4);

std::int64_t thread_cpu_ns() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<std::int64_t>(t.tv_sec) * 1000000000 + t.tv_nsec;
}

}  // namespace

void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

HostSpeed::HostSpeed() {
  thread_ = std::thread([this] {
    volatile float vector_sink = 0.0f;
    volatile std::uint64_t scalar_sink = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      // CPU time: the bursts share their core with the workload, and time
      // spent preempted is the workload's, not a slower core.
      const std::int64_t c0 = thread_cpu_ns();
      vector_sink = vector_sink + vector_burst();
      const std::int64_t c1 = thread_cpu_ns();
      scalar_sink = scalar_sink + scalar_burst();
      const std::int64_t c2 = thread_cpu_ns();
      const std::int64_t t = now_ns();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        bursts_.push_back({t,
                           {static_cast<double>(c1 - c0) / 1e3,
                            static_cast<double>(c2 - c1) / 1e3}});
      }
      std::this_thread::sleep_for(kReferencePeriod);
    }
  });
}

HostSpeed::~HostSpeed() {
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
}

SpeedProfile HostSpeed::profile(Reference ref) const {
  const auto k = static_cast<std::size_t>(ref);
  std::vector<std::vector<double>> buckets;
  std::vector<double> all;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Burst& b : bursts_) {
      const auto i =
          static_cast<std::size_t>(b.end_ns / SpeedProfile::kBucketNs);
      if (buckets.size() <= i) buckets.resize(i + 1);
      buckets[i].push_back(b.us[k]);
      all.push_back(b.us[k]);
    }
  }
  const double overall = all.empty() ? 1.0 : median(all) / kNominalUs[k];
  std::vector<double> slowdown;
  for (std::vector<double>& us : buckets) {
    // 0 marks a quarter second without a burst.
    slowdown.push_back(us.empty() ? 0.0 : median(std::move(us)) / kNominalUs[k]);
  }
  return SpeedProfile(std::move(slowdown), overall);
}

double SpeedProfile::slowdown_at(std::int64_t bucket) const {
  const auto i = static_cast<std::size_t>(bucket);
  return i < slowdown_.size() && slowdown_[i] > 0.0 ? slowdown_[i] : overall_;
}

double SpeedProfile::scaled_s(std::int64_t start_ns,
                              std::int64_t end_ns) const {
  double ns = 0.0;
  for (std::int64_t t = start_ns; t < end_ns;) {
    const std::int64_t bucket = t / kBucketNs;
    const std::int64_t next = std::min(end_ns, (bucket + 1) * kBucketNs);
    ns += static_cast<double>(next - t) / slowdown_at(bucket);
    t = next;
  }
  return ns / 1e9;
}

}  // namespace e2e
