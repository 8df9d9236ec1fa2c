#include "registry/registry.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "common/audit.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/kernel_version.hpp"
#include "engine/engine.hpp"

namespace rt {
namespace registry {

namespace {

std::string hex16(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return std::string(buf);
}

/// The per-version stats label a model's fleets report under.
std::string version_label(const std::string& name, int version) {
  return name + "@" + std::to_string(version);
}

/// hash64 of a plan cache key string — the 64-bit handle the eviction policy
/// tracks (the full string stays stored next to the plan, so an
/// astronomically-unlikely hash alias degrades to a miss, never a mix-up).
std::uint64_t plan_key_hash(const std::string& key) {
  return hash64(key.data(), key.size());
}

}  // namespace

PlanCache::PlanCache(std::int64_t capacity) : capacity_(capacity) {
  if (capacity < 0) {
    throw std::invalid_argument(
        "registry::PlanCache: capacity must be >= 0, got " +
        std::to_string(capacity));
  }
  if (capacity > 0) {
    policy_ = serving::make_eviction_policy(serving::CachePolicy::kLru,
                                            capacity);
  }
}

PlanCache::~PlanCache() = default;

std::shared_ptr<const CompiledTicket> PlanCache::find(const std::string& key) {
  if (policy_ != nullptr) {
    const std::uint64_t hash = plan_key_hash(key);
    const auto it = retained_.find(hash);
    if (it != retained_.end() && it->second.key == key) {
      policy_->on_hit(hash);
      ++hits_;
      return it->second.plan;
    }
  }
  const auto weak = weak_.find(key);
  if (weak != weak_.end()) {
    if (std::shared_ptr<const CompiledTicket> live = weak->second.lock()) {
      ++hits_;
      return live;
    }
  }
  ++misses_;
  return nullptr;
}

void PlanCache::insert(const std::string& key,
                       const std::shared_ptr<const CompiledTicket>& plan) {
  // Weak layer: prune expired entries while inserting, so it stays
  // proportional to the set of live plans.
  for (auto dead = weak_.begin(); dead != weak_.end();) {
    dead = dead->second.expired() ? weak_.erase(dead) : std::next(dead);
  }
  weak_[key] = plan;
  if (policy_ == nullptr) return;
  const std::uint64_t hash = plan_key_hash(key);
  const auto it = retained_.find(hash);
  if (it != retained_.end()) {
    if (it->second.key != key) return;  // hash alias: keep the incumbent
    it->second.plan = plan;  // re-built same key (was evicted then re-found)
    policy_->on_hit(hash);
    return;
  }
  retained_[hash] = Retained{key, plan};
  std::vector<std::uint64_t> evicted;
  policy_->on_insert(hash, evicted);
  for (const std::uint64_t victim : evicted) {
    retained_.erase(victim);
    ++evictions_;
  }
}

PlanCache::Stats PlanCache::stats() const {
  Stats out;
  out.hits = hits_;
  out.misses = misses_;
  out.evictions = evictions_;
  out.retained = static_cast<std::int64_t>(retained_.size());
  out.capacity = capacity_;
  return out;
}

ModelRef parse_model_ref(const std::string& ref) {
  ModelRef out;
  const std::size_t at = ref.find('@');
  out.model = ref.substr(0, at);
  if (at != std::string::npos) out.selector = ref.substr(at + 1);
  if (out.model.empty()) {
    throw std::invalid_argument("registry: empty model name in '" + ref +
                                "'");
  }
  if (at != std::string::npos) {
    if (out.selector.empty()) {
      throw std::invalid_argument("registry: empty selector in '" + ref +
                                  "'");
    }
    if (out.selector != "latest" && out.selector != "stable") {
      for (const char c : out.selector) {
        if (c < '0' || c > '9') {
          throw std::invalid_argument(
              "registry: selector must be a version number, 'latest', or "
              "'stable' in '" +
              ref + "'");
        }
      }
    }
  }
  return out;
}

std::string compile_options_fingerprint(const CompileOptions& options) {
  // CheckpointKey gives the same canonical field=value; encoding (and %.6g
  // float folding) the checkpoint identities themselves use.
  CheckpointKey key;
  key.add("h", options.height)
      .add("w", options.width)
      .add("fmt", options.force_format.has_value()
                      ? static_cast<int>(*options.force_format)
                      : -1)
      .add("csr", static_cast<double>(options.csr_max_density))
      .add("compact", static_cast<double>(options.compact_max_row_fraction))
      .add("int8", options.int8_weights)
      .add("bits", options.int8_bits)
      // Native int8 execution and the simulated-PTQ reference produce
      // different logits bits; the compile cache must never alias them.
      .add("native", options.int8_native);
  return key.str();
}

Registry::Registry(RegistryOptions options)
    : options_(std::move(options)),
      store_(options_.cache_root),
      plans_(options_.plan_cache_capacity) {}

Registry::~Registry() = default;

Registry::Entry& Registry::find_entry_locked(const std::string& name) {
  auto it = catalog_.find(name);
  if (it == catalog_.end()) {
    throw std::out_of_range("registry: unknown model '" + name + "'");
  }
  return it->second;
}

const Registry::Entry& Registry::find_entry_locked(
    const std::string& name) const {
  auto it = catalog_.find(name);
  if (it == catalog_.end()) {
    throw std::out_of_range("registry: unknown model '" + name + "'");
  }
  return it->second;
}

int Registry::resolve_locked(const Entry& entry, const ModelRef& ref) const {
  if (entry.latest == 0) {
    throw std::out_of_range("registry: model '" + ref.model +
                            "' has no published versions");
  }
  if (ref.selector.empty()) {
    return entry.stable != 0 ? entry.stable : entry.latest;
  }
  if (ref.selector == "latest") return entry.latest;
  if (ref.selector == "stable") {
    if (entry.stable == 0) {
      throw std::logic_error("registry: model '" + ref.model +
                             "' has no stable version set");
    }
    return entry.stable;
  }
  const int version = std::stoi(ref.selector);
  if (entry.versions.find(version) == entry.versions.end()) {
    throw std::out_of_range("registry: model '" + ref.model +
                            "' has no version " + ref.selector);
  }
  return version;
}

int Registry::publish(const std::string& name, ResNet& model) {
  if (name.empty() || name.find('@') != std::string::npos) {
    throw std::invalid_argument(
        "registry: model name must be non-empty and '@'-free, got '" + name +
        "'");
  }
  VersionSlot slot;
  slot.config = model.config();
  slot.state = model.state_dict();
  slot.fingerprint = state_dict_fingerprint(slot.state);
  slot.key.add("kind", "registry-model")
      .add("model", name)
      .add("arch", slot.config.name)
      .add("classes", slot.config.num_classes)
      .add("fp", hex16(slot.fingerprint));
  // Disk publication (best-effort, atomic rename) happens before the
  // catalog lock: it is IO, and the in-memory copy is authoritative anyway.
  // rtlint: allow-next-line(R3) — CheckpointStore::store, not an atomic.
  store_.store(slot.key, slot.state);

  std::lock_guard<std::mutex> lock(catalog_mutex_);
  RT_AUDIT_LOCK(audit::LockRank::kRegistryCatalog);
  Entry& entry = catalog_[name];
  const int version = ++entry.latest;
  entry.versions.emplace(version, std::move(slot));
  return version;
}

std::vector<std::string> Registry::models() const {
  std::lock_guard<std::mutex> lock(catalog_mutex_);
  RT_AUDIT_LOCK(audit::LockRank::kRegistryCatalog);
  std::vector<std::string> out;
  out.reserve(catalog_.size());
  for (const auto& [name, entry] : catalog_) out.push_back(name);
  return out;
}

std::vector<VersionInfo> Registry::versions(const std::string& name) const {
  std::lock_guard<std::mutex> lock(catalog_mutex_);
  RT_AUDIT_LOCK(audit::LockRank::kRegistryCatalog);
  const Entry& entry = find_entry_locked(name);
  std::vector<VersionInfo> out;
  out.reserve(entry.versions.size());
  for (const auto& [version, slot] : entry.versions) {
    out.push_back({version, slot.key.str(), slot.fingerprint});
  }
  return out;
}

int Registry::latest(const std::string& name) const {
  std::lock_guard<std::mutex> lock(catalog_mutex_);
  RT_AUDIT_LOCK(audit::LockRank::kRegistryCatalog);
  return find_entry_locked(name).latest;
}

int Registry::stable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(catalog_mutex_);
  RT_AUDIT_LOCK(audit::LockRank::kRegistryCatalog);
  return find_entry_locked(name).stable;
}

void Registry::set_stable(const std::string& name, int version) {
  std::lock_guard<std::mutex> lock(catalog_mutex_);
  RT_AUDIT_LOCK(audit::LockRank::kRegistryCatalog);
  Entry& entry = find_entry_locked(name);
  if (entry.versions.find(version) == entry.versions.end()) {
    throw std::out_of_range("registry: model '" + name + "' has no version " +
                            std::to_string(version));
  }
  entry.stable = version;
}

int Registry::resolve(const std::string& ref) const {
  const ModelRef parsed = parse_model_ref(ref);
  std::lock_guard<std::mutex> lock(catalog_mutex_);
  RT_AUDIT_LOCK(audit::LockRank::kRegistryCatalog);
  return resolve_locked(find_entry_locked(parsed.model), parsed);
}

std::shared_ptr<const CompiledTicket> Registry::compiled(
    const std::string& ref, const CompileOptions& options) {
  const ModelRef parsed = parse_model_ref(ref);
  const VersionSlot* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(catalog_mutex_);
    RT_AUDIT_LOCK(audit::LockRank::kRegistryCatalog);
    const Entry& entry = find_entry_locked(parsed.model);
    const int version = resolve_locked(entry, parsed);
    slot = &entry.versions.at(version);
  }
  // Slots are immutable and address-stable (see VersionSlot), so the
  // pointer survives the catalog lock dropping; compilation must not hold
  // the catalog hostage.
  return compile_slot(*slot, options);
}

std::shared_ptr<const CompiledTicket> Registry::compile_slot(
    const VersionSlot& slot, const CompileOptions& options) {
  const std::string cache_key = slot.key.str() + "|" +
                                compile_options_fingerprint(options) +
                                "|kv=" + kKernelSourceHash;
  // One mutex single-flights all compilation: concurrent demands for the
  // same plan wait for one build instead of racing N, and the winner's
  // shared plan is what everyone receives.
  std::lock_guard<std::mutex> lock(compile_mutex_);
  RT_AUDIT_LOCK(audit::LockRank::kRegistryCompile);
  if (std::shared_ptr<const CompiledTicket> hit = plans_.find(cache_key)) {
    return hit;
  }
  // Rebuild an inference model from the snapshot. The Rng seed is
  // irrelevant: load_state overwrites every parameter it initialized, and
  // Engine::compile reads the ticket's sparsity from the weights' zeros.
  Rng rng(0x7e915c);
  ResNet model(slot.config, rng);
  model.load_state(slot.state);
  model.set_training(false);
  auto plan =
      std::make_shared<const CompiledTicket>(Engine::compile(model, options));
  plans_.insert(cache_key, plan);
  return plan;
}

PlanCache::Stats Registry::plan_cache_stats() {
  std::lock_guard<std::mutex> lock(compile_mutex_);
  RT_AUDIT_LOCK(audit::LockRank::kRegistryCompile);
  return plans_.stats();
}

serving::Server& Registry::serve(const std::string& ref,
                                 const serving::ServerOptions& server_options,
                                 const CompileOptions& compile_options) {
  const ModelRef parsed = parse_model_ref(ref);
  const VersionSlot* slot = nullptr;
  int version = 0;
  {
    std::lock_guard<std::mutex> lock(catalog_mutex_);
    RT_AUDIT_LOCK(audit::LockRank::kRegistryCatalog);
    Entry& entry = find_entry_locked(parsed.model);
    if (entry.server != nullptr) return *entry.server;
    version = resolve_locked(entry, parsed);
    slot = &entry.versions.at(version);
  }
  std::shared_ptr<const CompiledTicket> plan =
      compile_slot(*slot, compile_options);

  std::lock_guard<std::mutex> lock(catalog_mutex_);
  RT_AUDIT_LOCK(audit::LockRank::kRegistryCatalog);
  Entry& entry = find_entry_locked(parsed.model);
  if (entry.server != nullptr) return *entry.server;  // lost a creation race
  serving::ServerOptions opt = server_options;
  opt.version = version_label(parsed.model, version);
  entry.server = std::make_unique<serving::Server>(std::move(plan), opt);
  entry.live_version = version;
  return *entry.server;
}

serving::Server* Registry::find_server(const std::string& name) {
  std::lock_guard<std::mutex> lock(catalog_mutex_);
  RT_AUDIT_LOCK(audit::LockRank::kRegistryCatalog);
  auto it = catalog_.find(name);
  return it == catalog_.end() ? nullptr : it->second.server.get();
}

WireRoute Registry::route_for_wire(const std::string& ref,
                                   const serving::ServerOptions& server_options,
                                   const CompileOptions& compile_options) {
  // First use creates the endpoint serving the resolved version (so
  // version == live_version for the creating request by construction);
  // existing servers are returned unchanged, exactly like serve().
  serving::Server& server = serve(ref, server_options, compile_options);
  const ModelRef parsed = parse_model_ref(ref);
  std::lock_guard<std::mutex> lock(catalog_mutex_);
  RT_AUDIT_LOCK(audit::LockRank::kRegistryCatalog);
  const Entry& entry = find_entry_locked(parsed.model);
  WireRoute route;
  route.server = &server;
  route.version = resolve_locked(entry, parsed);
  route.live_version = entry.live_version;
  route.candidate_version = entry.candidate_version;
  return route;
}

void Registry::deploy(const std::string& ref, const CompileOptions& options) {
  const ModelRef parsed = parse_model_ref(ref);
  const VersionSlot* slot = nullptr;
  int version = 0;
  {
    std::lock_guard<std::mutex> lock(catalog_mutex_);
    RT_AUDIT_LOCK(audit::LockRank::kRegistryCatalog);
    Entry& entry = find_entry_locked(parsed.model);
    if (entry.server == nullptr) {
      throw std::logic_error("registry: deploy('" + ref +
                             "') before serve() created the server");
    }
    version = resolve_locked(entry, parsed);
    slot = &entry.versions.at(version);
  }
  // Compile (possibly seconds) runs outside the catalog lock; only the
  // pointer-swap rollout happens back under it.
  std::shared_ptr<const CompiledTicket> plan = compile_slot(*slot, options);

  std::lock_guard<std::mutex> lock(catalog_mutex_);
  RT_AUDIT_LOCK(audit::LockRank::kRegistryCatalog);
  Entry& entry = find_entry_locked(parsed.model);
  serving::FleetSpec spec;
  spec.version = version_label(parsed.model, version);
  spec.shard_plans.assign(static_cast<std::size_t>(entry.server->shards()),
                          plan);
  entry.server->swap_fleet(std::move(spec));  // catalog -> route nesting
  entry.live_version = version;
}

void Registry::start_ab(const std::string& name,
                        const std::string& candidate_ref, double fraction,
                        std::uint64_t seed, const CompileOptions& options) {
  const ModelRef parsed = parse_model_ref(candidate_ref);
  if (parsed.model != name) {
    throw std::invalid_argument("registry: A/B candidate '" + candidate_ref +
                                "' does not belong to model '" + name + "'");
  }
  const VersionSlot* slot = nullptr;
  int version = 0;
  {
    std::lock_guard<std::mutex> lock(catalog_mutex_);
    RT_AUDIT_LOCK(audit::LockRank::kRegistryCatalog);
    Entry& entry = find_entry_locked(name);
    if (entry.server == nullptr) {
      throw std::logic_error("registry: start_ab('" + name +
                             "') before serve() created the server");
    }
    version = resolve_locked(entry, parsed);
    slot = &entry.versions.at(version);
  }
  std::shared_ptr<const CompiledTicket> plan = compile_slot(*slot, options);

  std::lock_guard<std::mutex> lock(catalog_mutex_);
  RT_AUDIT_LOCK(audit::LockRank::kRegistryCatalog);
  Entry& entry = find_entry_locked(name);
  serving::FleetSpec spec;
  spec.version = version_label(name, version);
  spec.shard_plans.assign(static_cast<std::size_t>(entry.server->shards()),
                          plan);
  entry.server->set_candidate(std::move(spec), fraction, seed);
  entry.candidate_version = version;
}

void Registry::stop_ab(const std::string& name) {
  std::lock_guard<std::mutex> lock(catalog_mutex_);
  RT_AUDIT_LOCK(audit::LockRank::kRegistryCatalog);
  Entry& entry = find_entry_locked(name);
  if (entry.server != nullptr) entry.server->clear_candidate();
  entry.candidate_version = 0;
}

int Registry::promote(const std::string& name) {
  std::lock_guard<std::mutex> lock(catalog_mutex_);
  RT_AUDIT_LOCK(audit::LockRank::kRegistryCatalog);
  Entry& entry = find_entry_locked(name);
  if (entry.server == nullptr || entry.candidate_version == 0) {
    throw std::logic_error("registry: no A/B test running for '" + name +
                           "'");
  }
  entry.server->promote_candidate();
  entry.live_version = entry.candidate_version;
  entry.stable = entry.candidate_version;
  entry.candidate_version = 0;
  return entry.live_version;
}

int Registry::live_version(const std::string& name) const {
  std::lock_guard<std::mutex> lock(catalog_mutex_);
  RT_AUDIT_LOCK(audit::LockRank::kRegistryCatalog);
  return find_entry_locked(name).live_version;
}

int Registry::candidate_version(const std::string& name) const {
  std::lock_guard<std::mutex> lock(catalog_mutex_);
  RT_AUDIT_LOCK(audit::LockRank::kRegistryCatalog);
  return find_entry_locked(name).candidate_version;
}

}  // namespace registry
}  // namespace rt
