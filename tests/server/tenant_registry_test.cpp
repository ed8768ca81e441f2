// Lifecycle guarantees of the multi-tenant registry (the state machine
// documented in docs/server.md, "Tenant lifecycle").
#include "engine/tenant_registry.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "util/thread_annotations.hpp"

namespace pfp::engine {
namespace {

TenantConfig small_config(const std::string& name,
                          const std::string& policy = "tree") {
  TenantConfig config;
  config.name = name;
  config.engine.cache_blocks = 64;
  std::string detail;
  EXPECT_EQ(set_policy_by_name(config, policy, &detail), TenantStatus::kOk)
      << detail;
  return config;
}

TEST(TenantRegistry, OpenFindCloseLifecycle) {
  TenantRegistry registry;
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.open(1, small_config("alpha"), nullptr),
            TenantStatus::kOk);
  EXPECT_EQ(registry.size(), 1u);

  const auto tenant = registry.find(1);
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->name(), "alpha");
  EXPECT_EQ(registry.find(2), nullptr);

  EXPECT_EQ(registry.close(1), TenantStatus::kOk);
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.find(1), nullptr);
  EXPECT_EQ(registry.close(1), TenantStatus::kNoSuchTenant);
}

TEST(TenantRegistry, DuplicateOpenRejectedLiveTenantUntouched) {
  TenantRegistry registry;
  EXPECT_EQ(registry.open(5, small_config("original"), nullptr),
            TenantStatus::kOk);
  const auto before = registry.find(5);

  std::string detail;
  EXPECT_EQ(registry.open(5, small_config("usurper"), &detail),
            TenantStatus::kExists);
  EXPECT_EQ(registry.find(5), before);  // same object, not replaced
  EXPECT_EQ(registry.find(5)->name(), "original");
}

TEST(TenantRegistry, BadEngineConfigIsTypedNotThrown) {
  TenantRegistry registry;
  TenantConfig config = small_config("broken");
  config.engine.cache_blocks = 0;  // engine::validate rejects this
  std::string detail;
  EXPECT_EQ(registry.open(1, std::move(config), &detail),
            TenantStatus::kBadConfig);
  EXPECT_FALSE(detail.empty());
  EXPECT_EQ(registry.size(), 0u);
}

TEST(TenantRegistry, OracleOpenIsBadConfig) {
  // perfect-selector would never see the future through a tenant (or see
  // only as far as each batch reaches), so it is refused at open, for
  // plain and sharded tenants alike.
  TenantRegistry registry;
  for (const std::uint32_t shards : {0u, 2u}) {
    TenantConfig config = small_config("oracle", "perfect-selector");
    config.shards = shards;
    std::string detail;
    EXPECT_EQ(registry.open(1, std::move(config), &detail),
              TenantStatus::kBadConfig)
        << shards << " shards";
    EXPECT_NE(detail.find("perfect-selector"), std::string::npos) << detail;
    EXPECT_EQ(registry.size(), 0u);
  }
}

TEST(SetPolicyByName, ResolvesKnownAndRejectsUnknownNames) {
  TenantConfig config;
  std::string detail;
  EXPECT_EQ(set_policy_by_name(config, "markov", &detail), TenantStatus::kOk);
  EXPECT_EQ(set_policy_by_name(config, "tree-next-limit", &detail),
            TenantStatus::kOk);
  EXPECT_EQ(set_policy_by_name(config, "no-such-policy", &detail),
            TenantStatus::kBadConfig);
  EXPECT_NE(detail.find("no-such-policy"), std::string::npos)
      << "detail should name the junk: " << detail;
}

TEST(Tenant, RestoreSwapsOnlyOnSuccess) {
  TenantRegistry registry;
  EXPECT_EQ(registry.open(1, small_config("t"), nullptr), TenantStatus::kOk);
  const auto tenant = registry.find(1);
  ASSERT_NE(tenant, nullptr);

  // Train, then snapshot the learned state.
  std::vector<trace::BlockId> stream;
  for (int round = 0; round < 8; ++round) {
    for (trace::BlockId block = 0; block < 8; ++block) {
      stream.push_back(block);
    }
  }
  std::ostringstream blob;
  Metrics before;
  {
    util::MutexLock lock(tenant->mu());
    (void)tenant->access_many(stream);
    std::string detail;
    ASSERT_EQ(tenant->snapshot(blob, &detail), TenantStatus::kOk) << detail;
    before = tenant->metrics();
  }

  // A corrupt blob is rejected and the old engine keeps serving with its
  // counters intact.
  {
    util::MutexLock lock(tenant->mu());
    std::istringstream corrupt("definitely not a snapshot");
    std::string detail;
    EXPECT_EQ(tenant->restore(corrupt, &detail), TenantStatus::kBadSnapshot);
    const Metrics after = tenant->metrics();
    EXPECT_EQ(after.accesses, before.accesses);
    EXPECT_EQ(after.misses, before.misses);
  }

  // The good blob swaps in the restored engine; the snapshot carries
  // the accumulated metrics, so the counters pick up where they left off.
  {
    util::MutexLock lock(tenant->mu());
    std::istringstream good(blob.str());
    std::string detail;
    EXPECT_EQ(tenant->restore(good, &detail), TenantStatus::kOk) << detail;
    EXPECT_EQ(tenant->metrics().accesses, before.accesses);
  }
}

TEST(Tenant, PlainTenantHasNoQueuePressure) {
  TenantRegistry registry;
  EXPECT_EQ(registry.open(1, small_config("t"), nullptr), TenantStatus::kOk);
  const auto tenant = registry.find(1);
  ASSERT_NE(tenant, nullptr);
  EXPECT_FALSE(tenant->sharded());
  EXPECT_EQ(tenant->queue_pressure(), 0.0);
}

TEST(Tenant, ShardedTenantRefusesSnapshotAndCountsAllAccesses) {
  TenantRegistry registry;
  TenantConfig config = small_config("wide");
  config.shards = 2;
  EXPECT_EQ(registry.open(1, std::move(config), nullptr), TenantStatus::kOk);
  const auto tenant = registry.find(1);
  ASSERT_NE(tenant, nullptr);
  EXPECT_TRUE(tenant->sharded());

  const std::vector<trace::BlockId> blocks = {1, 2, 3, 4, 5, 6};
  {
    util::MutexLock lock(tenant->mu());
    (void)tenant->access_many(blocks);
    std::ostringstream out;
    std::string detail;
    EXPECT_EQ(tenant->snapshot(out, &detail), TenantStatus::kUnsupported);
    // metrics() flushes the rings first, so nothing is lost.
    EXPECT_EQ(tenant->metrics().accesses, blocks.size());
  }
  EXPECT_EQ(registry.close(1), TenantStatus::kOk);
}

TEST(TenantRegistry, TenantsSnapshotIsIdAscending) {
  TenantRegistry registry;
  EXPECT_EQ(registry.open(30, small_config("c"), nullptr), TenantStatus::kOk);
  EXPECT_EQ(registry.open(10, small_config("a"), nullptr), TenantStatus::kOk);
  EXPECT_EQ(registry.open(20, small_config("b"), nullptr), TenantStatus::kOk);

  const auto live = registry.tenants();
  ASSERT_EQ(live.size(), 3u);
  EXPECT_EQ(live[0].first, 10);
  EXPECT_EQ(live[1].first, 20);
  EXPECT_EQ(live[2].first, 30);
  EXPECT_EQ(live[0].second->name(), "a");
}

}  // namespace
}  // namespace pfp::engine
