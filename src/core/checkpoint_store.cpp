#include "core/checkpoint_store.hpp"

#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <set>

#include "common/hash.hpp"

namespace rt {

CheckpointKey& CheckpointKey::add(const std::string& field,
                                  const std::string& value) {
  key_ += field;
  key_ += '=';
  key_ += value;
  key_ += ';';
  return *this;
}

CheckpointKey& CheckpointKey::add(const std::string& field,
                                  std::int64_t value) {
  return add(field, std::to_string(value));
}

CheckpointKey& CheckpointKey::add(const std::string& field, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return add(field, std::string(buf));
}

std::uint64_t CheckpointKey::hash() const {
  return hash64(key_.data(), key_.size());
}

std::string CheckpointKey::filename() const {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash()));
  // Readable slug: the leading key fields with filesystem-hostile characters
  // folded to '-'. Identity lives in the hash; the slug is for humans.
  std::string slug;
  for (const char c : key_) {
    if (slug.size() >= 48) break;
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '-';
    slug += keep ? c : '-';
  }
  return std::string(hex) + "_" + slug + ".rtk";
}

std::uint64_t state_dict_fingerprint(const StateDict& state) {
  std::uint64_t h = 0;
  for (const auto& [name, tensor] : state) {
    h = hash64(name.data(), name.size(), h);
    const std::size_t ndim = tensor.ndim();
    h = hash64(&ndim, sizeof(ndim), h);
    for (std::size_t d = 0; d < ndim; ++d) {
      const std::int64_t extent = tensor.dim(d);
      h = hash64(&extent, sizeof(extent), h);
    }
    h = hash64(tensor.data(),
               static_cast<std::size_t>(tensor.numel()) * sizeof(float), h);
  }
  return h;
}

std::uint64_t dataset_fingerprint(const Dataset& data) {
  std::uint64_t h = hash64(
      data.images.data(),
      static_cast<std::size_t>(data.images.numel()) * sizeof(float));
  h = hash64(data.labels.data(), data.labels.size() * sizeof(int), h);
  h = hash64(&data.num_classes, sizeof(data.num_classes), h);
  return h;
}

std::uint64_t row_fingerprint(const float* row, std::size_t floats) {
  return hash64(row, floats * sizeof(float));
}

CheckpointStore::CheckpointStore(std::string root) : root_(std::move(root)) {}

std::string CheckpointStore::default_root() {
  if (const char* env = std::getenv("RT_CACHE_DIR")) return env;
  return "/tmp/rticket_cache";
}

std::string CheckpointStore::path_for(const CheckpointKey& key) const {
  return root_ + "/" + key.filename();
}

std::optional<StateDict> CheckpointStore::load(
    const CheckpointKey& key) const {
  if (!enabled()) return std::nullopt;
  const std::string path = path_for(key);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return std::nullopt;
  try {
    return load_state_dict(path);
  } catch (const std::exception&) {
    return std::nullopt;  // corrupt entry: treat as a miss and retrain
  }
}

void CheckpointStore::store(const CheckpointKey& key,
                            const StateDict& state) const {
  if (!enabled()) return;
  std::error_code ec;
  std::filesystem::create_directories(root_, ec);
  // The store is shared across concurrently running processes (ctest -j
  // runs several suites against one root), so publication must be atomic:
  // write to a pid-unique temp file and rename it into place — a reader
  // either misses or sees a complete checkpoint, never a torn one.
  const std::string path = path_for(key);
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid());
  try {
    save_state_dict(tmp, state);
    std::filesystem::rename(tmp, path);
  } catch (const std::exception&) {
    // Cache write failure is non-fatal; the next run retrains.
    std::filesystem::remove(tmp, ec);
  }
}

namespace {

// Process-wide single-flight table for load_or_store: the set of checkpoint
// paths some thread is currently producing. Static (not per-store) because
// two CheckpointStore instances with the same root address the same files.
std::mutex& flight_mutex() {
  static std::mutex m;
  return m;
}
std::condition_variable& flight_cv() {
  static std::condition_variable cv;
  return cv;
}
std::set<std::string>& flights() {
  static std::set<std::string> s;
  return s;
}

}  // namespace

StateDict CheckpointStore::load_or_store(
    const CheckpointKey& key, FunctionRef<StateDict()> produce) const {
  if (!enabled()) return produce();
  const std::string path = path_for(key);
  for (;;) {
    if (std::optional<StateDict> hit = load(key)) return std::move(*hit);
    {
      std::unique_lock<std::mutex> lock(flight_mutex());
      if (flights().count(path) != 0) {
        // Another thread is producing this key: wait it out, then retry the
        // load (which sees its published bytes, or re-enters on the rare
        // store failure).
        flight_cv().wait(lock, [&] { return flights().count(path) == 0; });
        continue;
      }
      flights().insert(path);
    }
    break;  // this thread owns the flight
  }
  struct FlightGuard {
    const std::string& path;
    ~FlightGuard() {
      {
        std::lock_guard<std::mutex> lock(flight_mutex());
        flights().erase(path);
      }
      flight_cv().notify_all();
    }
  } guard{path};
  // Double-check under flight ownership: a waiter whose producer published
  // between our miss and our insert must not recompute.
  if (std::optional<StateDict> hit = load(key)) return std::move(*hit);
  StateDict produced = produce();
  store(key, produced);  // best-effort; waiters recompute on write failure
  return produced;
}

}  // namespace rt
