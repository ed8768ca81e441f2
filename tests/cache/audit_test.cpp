// SIM_AUDIT detection tests: each test corrupts one piece of redundant
// cache state through a test-only friend and proves the matching audit
// sweep fires.  A sweep that stays silent on seeded corruption is a dead
// invariant — these tests are the audits' own regression suite.
//
// Compiled against SIM_AUDIT=0 the sweeps are no-ops, so every detection
// test skips; the sanitizer CI legs build with -DPFP_AUDIT=ON and run
// them for real.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "cache/buffer_cache.hpp"
#include "cache/demand_cache.hpp"
#include "cache/prefetch_cache.hpp"
#include "util/audit.hpp"

namespace pfp::cache {

// Friend of DemandCache/PrefetchCache: reaches private state to seed
// precise corruptions.  Lives in the test binary only.
struct AuditTestAccess {
  static void corrupt_slot_block(DemandCache& cache, BlockId resident,
                                 BlockId junk) {
    cache.slot_block_[cache.map_.find(resident)->second] = junk;
  }
  static void unlink_lru(DemandCache& cache, BlockId resident) {
    cache.lru_.erase(cache.map_.find(resident)->second);
  }
  static void drift_fenwick(DemandCache& cache) {
    cache.fenwick_[1] += 1;  // phantom stack-depth mark at time zero
  }
  static void flip_obl_flag(PrefetchCache& cache, BlockId resident) {
    cache.slots_[cache.map_.find(resident)->second].obl ^= true;
  }
  static void corrupt_entry_block(PrefetchCache& cache, BlockId resident,
                                  BlockId junk) {
    cache.slots_[cache.map_.find(resident)->second].block = junk;
  }
  static void corrupt_probability(PrefetchCache& cache, BlockId resident) {
    cache.slots_[cache.map_.find(resident)->second].probability = 1.5;
  }
};

namespace {

void throwing_handler(const char* component, const char* what, const char*,
                      int) {
  throw std::runtime_error(std::string(component) + ": " + what);
}

class AuditDetection : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!PFP_AUDIT_ENABLED) {
      GTEST_SKIP() << "built without SIM_AUDIT; sweeps are no-ops";
    }
    previous_ = util::set_audit_handler(&throwing_handler);
  }
  void TearDown() override {
    if (PFP_AUDIT_ENABLED) {
      util::set_audit_handler(previous_);
    }
  }

 private:
  util::AuditHandler previous_ = nullptr;
};

PrefetchEntry entry_for(BlockId block, bool obl = false) {
  PrefetchEntry entry;
  entry.block = block;
  entry.probability = 0.5;
  entry.depth = 1;
  entry.eject_cost = 1.0;
  entry.obl = obl;
  return entry;
}

TEST_F(AuditDetection, CleanDemandCachePasses) {
  DemandCache cache(8);
  for (BlockId b = 0; b < 8; ++b) {
    cache.insert(b);
  }
  for (BlockId b = 0; b < 8; b += 2) {
    (void)cache.lookup_touch(b);
  }
  cache.evict_lru();
  cache.erase(4);
  EXPECT_NO_THROW(cache.audit());
}

TEST_F(AuditDetection, DemandSlotBlockCorruptionFires) {
  DemandCache cache(8);
  cache.insert(1);
  cache.insert(2);
  AuditTestAccess::corrupt_slot_block(cache, 1, 99);
  EXPECT_THROW(cache.audit(), std::runtime_error);
}

TEST_F(AuditDetection, DemandLruUnlinkFires) {
  DemandCache cache(8);
  cache.insert(1);
  cache.insert(2);
  AuditTestAccess::unlink_lru(cache, 1);
  EXPECT_THROW(cache.audit(), std::runtime_error);
}

TEST_F(AuditDetection, DemandFenwickDriftFires) {
  DemandCache cache(8);
  cache.insert(1);
  AuditTestAccess::drift_fenwick(cache);
  EXPECT_THROW(cache.audit(), std::runtime_error);
}

TEST_F(AuditDetection, CleanPrefetchCachePasses) {
  PrefetchCache cache(8);
  cache.insert(entry_for(1));
  cache.insert(entry_for(2, /*obl=*/true));
  cache.insert(entry_for(3));
  // Re-admitting block 3 leaves its first heap item stale behind it.
  (void)cache.remove(3);
  cache.insert(entry_for(3));
  (void)cache.remove(1);
  EXPECT_NO_THROW(cache.audit());
}

TEST_F(AuditDetection, PrefetchOblFlagFlipFires) {
  PrefetchCache cache(8);
  cache.insert(entry_for(1, /*obl=*/true));
  cache.insert(entry_for(2));
  AuditTestAccess::flip_obl_flag(cache, 2);
  EXPECT_THROW(cache.audit(), std::runtime_error);
}

TEST_F(AuditDetection, PrefetchEntryBlockCorruptionFires) {
  PrefetchCache cache(8);
  cache.insert(entry_for(1));
  AuditTestAccess::corrupt_entry_block(cache, 1, 42);
  EXPECT_THROW(cache.audit(), std::runtime_error);
}

TEST_F(AuditDetection, PrefetchProbabilityOutOfRangeFires) {
  PrefetchCache cache(8);
  cache.insert(entry_for(1));
  AuditTestAccess::corrupt_probability(cache, 1);
  EXPECT_THROW(cache.audit(), std::runtime_error);
}

TEST_F(AuditDetection, CleanBufferCachePasses) {
  BufferCache cache(8);
  cache.admit_demand(1);
  cache.admit_prefetch(entry_for(2));
  (void)cache.access(2);  // migrates 2 into the demand partition
  EXPECT_NO_THROW(cache.audit());
}

TEST_F(AuditDetection, DualResidencyFires) {
  BufferCache cache(8);
  cache.admit_demand(1);
  // Bypass admit_prefetch's precondition via the raw partition handle:
  // the same block now sits on both sides of the Figure 2 partition.
  cache.prefetch().insert(entry_for(1));
  EXPECT_THROW(cache.audit(), std::runtime_error);
}

TEST_F(AuditDetection, PoolOverflowFires) {
  BufferCache cache(4);
  // Fill both partitions past the shared pool bound through the raw
  // handles (admit_* would refuse).
  cache.demand().insert(1);
  cache.demand().insert(2);
  cache.demand().insert(3);
  cache.prefetch().insert(entry_for(10));
  cache.prefetch().insert(entry_for(11));
  EXPECT_THROW(cache.audit(), std::runtime_error);
}

}  // namespace
}  // namespace pfp::cache
