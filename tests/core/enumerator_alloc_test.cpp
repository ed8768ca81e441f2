// Steady-state allocation discipline of candidate generation: after a
// warm-up, thousands of tree enumerations and delta-Markov predictions
// must perform zero heap allocations, because the policy hot path runs
// one of them per simulated access.
//
// The whole test binary's scalar operator new/delete are replaced with
// counting forwards to malloc/free; array and aligned forms fall through
// to these, so the counter sees every ordinary container allocation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <variant>
#include <vector>

#include "core/markov/markov_model.hpp"
#include "core/policy/markov_policy.hpp"
#include "core/tree/enumerator.hpp"
#include "core/tree/prefetch_tree.hpp"
#include "trace/workloads.hpp"
#include "policy_harness.hpp"

namespace {
std::atomic<std::uint64_t> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) {
    size = 1;
  }
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pfp::core::tree {
namespace {

TEST(EnumeratorAllocations, SteadyStateEnumerationIsAllocationFree) {
  // The policy hot path's shape: every iteration the parse advances one
  // reference and the enumerator walks from the new parse position, under
  // limits that alternate between calls.  Only the enumerations are
  // counted — the parse itself may still grow the tree.
  const trace::Trace t = trace::make_workload(trace::Workload::kCad, 20'000);
  costben::PredictLimits wide;
  wide.max_depth = 8;
  wide.min_probability = 0.0001;
  wide.max_candidates = 64;
  costben::PredictLimits narrow = wide;
  narrow.min_probability = 0.01;  // same max_candidates: one dedup table

  PrefetchTree tree;
  CandidateEnumerator enumerator;
  std::size_t i = 0;
  // Warm-up pass: the frontier heap, dedup table and output buffer reach
  // their steady-state sizes.
  for (const trace::TraceRecord& r : t) {
    tree.access(r.block);
    (void)enumerator.enumerate(tree, tree.current(), (i++ & 1) ? wide : narrow);
  }

  std::uint64_t allocations = 0;
  std::size_t candidates = 0;
  for (const trace::TraceRecord& r : t) {
    tree.access(r.block);
    const std::uint64_t before =
        g_allocation_count.load(std::memory_order_relaxed);
    candidates +=
        enumerator.enumerate(tree, tree.current(), (i++ & 1) ? wide : narrow)
            .size();
    allocations += g_allocation_count.load(std::memory_order_relaxed) - before;
  }
  EXPECT_EQ(allocations, 0u) << "post-warm-up enumerations touched the heap";
  EXPECT_GT(candidates, t.size());  // the walks really produced candidates
}

TEST(MarkovAllocations, SteadyStatePredictionIsAllocationFree) {
  const trace::Trace t = trace::make_workload(trace::Workload::kSnake, 20'000);
  markov::DeltaMarkov model;
  const costben::PredictLimits limits;
  std::vector<costben::PredictedBlock> out;
  // Warm-up pass: the model learns the trace and the staging buffers,
  // memo and dedup table reach their steady-state sizes.
  for (const trace::TraceRecord& r : t) {
    model.observe(r.block);
    out.clear();
    model.predict_into(limits, out);
  }

  // Second pass: only the predictions are counted (observe may still
  // mint rows for contexts the first pass evicted).
  std::uint64_t allocations = 0;
  std::size_t predicted = 0;
  for (const trace::TraceRecord& r : t) {
    model.observe(r.block);
    out.clear();
    const std::uint64_t before =
        g_allocation_count.load(std::memory_order_relaxed);
    predicted += model.predict_into(limits, out);
    allocations += g_allocation_count.load(std::memory_order_relaxed) - before;
  }
  EXPECT_EQ(allocations, 0u) << "post-warm-up predictions touched the heap";
  EXPECT_GT(predicted, t.size());  // the model really predicted
}

/// Runs `t` through `policy` much as the engine's per-access step does:
/// cache lookup, demand admission on a miss, then the policy's on_access.
/// One difference: a referenced prefetched block stays where it is.
/// Consuming it would leave a stale item in PrefetchCache's lazy-deletion
/// heap, which keeps such items until they surface, so the count would
/// include that heap's growth rather than the policy's own work.
/// Returns the heap allocations made inside on_access.
std::uint64_t drive_policy(policy::Prefetcher& policy,
                           policy::testing::Harness& h,
                           const trace::Trace& t) {
  std::uint64_t allocations = 0;
  for (const trace::TraceRecord& r : t) {
    ++h.ctx.period;
    h.ctx.now_ms += 50.0;
    policy::AccessOutcome outcome = policy::AccessOutcome::kPrefetchHit;
    if (!h.cache.prefetch().contains(r.block)) {
      outcome = policy::AccessOutcome::kDemandHit;
      if (std::holds_alternative<::pfp::cache::Miss>(
              h.cache.access(r.block))) {
        outcome = policy::AccessOutcome::kMiss;
        if (h.cache.free_buffers() == 0) {
          policy.reclaim_for_demand(h.ctx);
        }
        h.cache.admit_demand(r.block);
      }
    }
    const std::uint64_t before =
        g_allocation_count.load(std::memory_order_relaxed);
    policy.on_access(r.block, outcome, h.ctx);
    allocations += g_allocation_count.load(std::memory_order_relaxed) - before;
  }
  return allocations;
}

TEST(MarkovAllocations, SteadyStatePolicyAccessIsAllocationFree) {
  // The markov policy's whole on_access: observe, predict, price, rank
  // the positive-benefit entries, cap selection and issue.
  const trace::Trace t = trace::make_workload(trace::Workload::kSnake, 20'000);
  policy::testing::Harness h(512);
  policy::MarkovCostBenefit policy;
  (void)drive_policy(policy, h, t);  // warm-up: buffers reach their size
  const std::uint64_t issued_before = h.metrics.prefetches_issued;
  EXPECT_EQ(drive_policy(policy, h, t), 0u)
      << "post-warm-up on_access calls touched the heap";
  EXPECT_GT(h.metrics.prefetches_issued - issued_before, t.size() / 4)
      << "the policy really prefetched";
}

}  // namespace
}  // namespace pfp::core::tree
