#include "engine/tenant_registry.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace pfp::engine {

namespace {

ShardedConfig sharded_config(const TenantConfig& config) {
  ShardedConfig sharded;
  sharded.engine = config.engine;
  sharded.shards = config.shards;
  sharded.queue_capacity = config.queue_capacity;
  return sharded;
}

}  // namespace

TenantStatus set_policy_by_name(TenantConfig& config, const std::string& name,
                                std::string* detail) {
  try {
    config.engine.policy.kind = core::policy::kind_from_name(name);
  } catch (const std::invalid_argument& err) {
    if (detail != nullptr) {
      *detail = err.what();
    }
    return TenantStatus::kBadConfig;
  }
  return TenantStatus::kOk;
}

Tenant::Tenant(TenantConfig config) : config_(std::move(config)) {
  if (config_.engine.policy.kind ==
      core::policy::PolicyKind::kPerfectSelector) {
    throw std::invalid_argument(
        "perfect-selector needs future knowledge and cannot serve a tenant");
  }
  if (config_.shards >= 2) {
    sharded_ = std::make_unique<ShardedEngine>(sharded_config(config_));
  } else {
    engine_ = std::make_unique<PrefetchEngine>(config_.engine);
  }
}

AccessResult Tenant::access(trace::BlockId block) {
  const BatchResult batch = access_many({&block, 1});
  AccessResult result;
  if (batch.demand_hits != 0) {
    result.outcome = Outcome::kDemandHit;
  } else if (batch.prefetch_hits != 0) {
    result.outcome = Outcome::kPrefetchHit;
  }
  result.latency_ms = batch.latency_ms;
  return result;
}

BatchResult Tenant::access_many(std::span<const trace::BlockId> blocks) {
  if (sharded_) {
    sharded_->access_many(blocks);
    return BatchResult{};
  }
  return engine_->access_many(blocks);
}

Metrics Tenant::metrics() {
  if (sharded_) {
    return sharded_->merged_metrics();
  }
  return engine_->metrics();
}

obs::EngineStats Tenant::stats() const {
  // Sharded engines are never replaced, so their cells can be read with
  // no lock at all.  A plain tenant's engine (and its cells) can be
  // swapped by restore(), so the pointer read holds mu_ — the cell reads
  // themselves stay lock-free, the lock only pins the backend alive.
  if (sharded_) {
    return sharded_->stats();
  }
  util::MutexLock lock(mu_);
  return engine_->stats();
}

double Tenant::queue_pressure() const {
  if (!sharded_) {
    return 0.0;
  }
  double worst = 0.0;
  for (std::uint32_t s = 0; s < sharded_->shards(); ++s) {
    const obs::EngineStats stats = sharded_->shard_stats(s);
    if (stats.queue_capacity == 0) {
      continue;
    }
    const double ratio = static_cast<double>(stats.queue_occupancy) /
                         static_cast<double>(stats.queue_capacity);
    if (ratio > worst) {
      worst = ratio;
    }
  }
  return worst;
}

TenantStatus Tenant::snapshot(std::vector<std::uint8_t>& out,
                              std::string* detail) {
  if (sharded_) {
    if (detail != nullptr) {
      *detail = "sharded tenants have per-shard predictor state; "
                "snapshot is unsupported";
    }
    return TenantStatus::kUnsupported;
  }
  engine_->snapshot(out);
  return TenantStatus::kOk;
}

TenantStatus Tenant::restore(std::span<const std::uint8_t> image,
                             std::string* detail) {
  if (sharded_) {
    if (detail != nullptr) {
      *detail = "sharded tenants cannot restore a single-engine snapshot";
    }
    return TenantStatus::kUnsupported;
  }
  // Swap-on-success: the blob restores into a FRESH engine first, so a
  // foreign/corrupt stream can never leave the serving engine in a
  // half-restored state.
  auto fresh = std::make_unique<PrefetchEngine>(config_.engine);
  try {
    fresh->restore(image);
  } catch (const std::exception& err) {
    if (detail != nullptr) {
      *detail = err.what();
    }
    return TenantStatus::kBadSnapshot;
  }
  engine_ = std::move(fresh);
  return TenantStatus::kOk;
}

TenantStatus Tenant::snapshot(std::ostream& out, std::string* detail) {
  std::vector<std::uint8_t> image;
  const TenantStatus status = snapshot(image, detail);
  if (status == TenantStatus::kOk) {
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
  }
  return status;
}

TenantStatus Tenant::restore(std::istream& in, std::string* detail) {
  std::vector<std::uint8_t> image;
  if (const std::streamsize buffered = in.rdbuf()->in_avail(); buffered > 0) {
    image.reserve(static_cast<std::size_t>(buffered));
  }
  constexpr std::size_t kChunk = 1 << 16;
  while (in) {
    const std::size_t at = image.size();
    image.resize(at + kChunk);
    in.read(reinterpret_cast<char*>(image.data() + at), kChunk);
    image.resize(at + static_cast<std::size_t>(in.gcount()));
  }
  return restore(std::span<const std::uint8_t>(image), detail);
}

void Tenant::flush() {
  if (sharded_) {
    sharded_->flush();
  }
}

TenantStatus TenantRegistry::open(std::uint16_t id, TenantConfig config,
                                  std::string* detail) {
  // Build outside the registry lock (engine construction allocates the
  // full buffer pool); insert only if the id is still free.
  std::shared_ptr<Tenant> tenant;
  try {
    tenant = std::make_shared<Tenant>(std::move(config));
  } catch (const std::invalid_argument& err) {
    if (detail != nullptr) {
      *detail = err.what();
    }
    return TenantStatus::kBadConfig;
  }
  util::MutexLock lock(mu_);
  const auto [it, inserted] = tenants_.emplace(id, std::move(tenant));
  (void)it;
  if (!inserted) {
    if (detail != nullptr) {
      *detail = "tenant id already open";
    }
    return TenantStatus::kExists;
  }
  return TenantStatus::kOk;
}

std::shared_ptr<Tenant> TenantRegistry::find(std::uint16_t id) const {
  util::MutexLock lock(mu_);
  const auto it = tenants_.find(id);
  return it == tenants_.end() ? nullptr : it->second;
}

TenantStatus TenantRegistry::close(std::uint16_t id) {
  std::shared_ptr<Tenant> tenant;
  {
    util::MutexLock lock(mu_);
    const auto it = tenants_.find(id);
    if (it == tenants_.end()) {
      return TenantStatus::kNoSuchTenant;
    }
    tenant = std::move(it->second);
    tenants_.erase(it);
  }
  // The id is unlinked — new requests get kNoSuchTenant.  Now wait out
  // any in-flight batch (it holds the tenant mutex) and drain sharded
  // rings, so teardown never races a running access.
  {
    util::MutexLock lock(tenant->mu());
    tenant->flush();
  }
  return TenantStatus::kOk;
}

std::vector<std::pair<std::uint16_t, std::shared_ptr<Tenant>>>
TenantRegistry::tenants() const {
  util::MutexLock lock(mu_);
  std::vector<std::pair<std::uint16_t, std::shared_ptr<Tenant>>> out;
  out.reserve(tenants_.size());
  for (const auto& [id, tenant] : tenants_) {
    out.emplace_back(id, tenant);
  }
  return out;
}

std::size_t TenantRegistry::size() const {
  util::MutexLock lock(mu_);
  return tenants_.size();
}

}  // namespace pfp::engine
