// Contention stress for the observability read paths.
//
// The seqlock's happy path (reader sees a quiescent version) is covered
// in counters_test.cpp; these tests exercise the two unhappy contracts:
// EngineObs::stats() must *terminate* against a writer that never goes
// quiescent — taking the torn-but-well-defined cut and saying so via
// consistent=false — and PhaseTiming::sample() must stay well-defined
// when scraped mid-write.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>

#include <gtest/gtest.h>

#include "obs/counters.hpp"
#include "obs/engine_obs.hpp"
#include "obs/phase_timing.hpp"
#include "util/phase.hpp"

namespace pfp::obs {
namespace {

// The deterministic fallback case: a writer parked inside its write
// section pins the version odd, so every one of stats()' bounded retries
// loses and the snapshot must come back flagged inconsistent — proving
// the retry loop cannot hang on a stalled writer.
TEST(SnapshotGateStress, StalledWriterForcesInconsistentFallback) {
  EngineObs obs{ObsOptions{}};
  obs.gate().assert_writer();  // the test thread is the unique writer
  obs.gate().begin_write();

  const EngineStats mid = obs.stats();
  EXPECT_FALSE(mid.consistent)
      << "stats() claimed consistency while a write section was open";

  obs.gate().end_write();
  const EngineStats after = obs.stats();
  EXPECT_TRUE(after.consistent);
}

// Live contention: a writer hammers paired cells in lockstep under the
// gate while a reader scrapes.  Every snapshot the reader accepts as
// consistent must show the pairing; inconsistent snapshots are allowed
// (that is the documented fallback) but must still carry sane values.
TEST(SnapshotGateStress, ConsistentSnapshotsAreNeverTorn) {
  EngineObs obs{ObsOptions{}};
  std::atomic<bool> stop{false};
  // The last count the writer published; read after join, it bounds
  // every value the reader can have seen however many cores ran both.
  std::atomic<std::uint64_t> last_written{0};

  std::thread writer([&] {
    auto& gate = obs.gate();
    auto& counters = obs.counters();
    gate.assert_writer();
    counters.assert_writer();
    for (std::uint64_t i = 1; !stop.load(std::memory_order_relaxed); ++i) {
      gate.begin_write();
      counters.accesses.set(i);
      counters.misses.set(2 * i);
      gate.end_write();
      last_written.store(i, std::memory_order_relaxed);
      if ((i & 0xff) == 0) {
        std::this_thread::yield();  // let the reader through on 1 CPU
      }
    }
  });

  int consistent_reads = 0;
  int fallback_reads = 0;
  std::uint64_t max_fallback_accesses = 0;
  for (int i = 0; i < 20000 && consistent_reads < 500; ++i) {
    const EngineStats s = obs.stats();
    if (s.consistent) {
      EXPECT_EQ(s.misses, 2 * s.accesses)
          << "torn pair passed the gate as consistent";
      ++consistent_reads;
    } else {
      max_fallback_accesses = std::max(max_fallback_accesses, s.accesses);
      ++fallback_reads;
      std::this_thread::yield();
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  // The fallback cut may mix two periods but each cell is still a real
  // published value, never garbage: none exceeds what the writer reached.
  EXPECT_LE(max_fallback_accesses, last_written.load(std::memory_order_relaxed))
      << "a fallback snapshot showed a count the writer never published";
  EXPECT_GT(consistent_reads, 0)
      << "reader never won the seqlock race (fallbacks: "
      << fallback_reads << ")";
}

// PhaseTiming::sample against a live writer: per-cell relaxed atomics
// make each load well-defined, and the sampled totals must stay
// monotonic across scrapes because the writer only ever adds.
TEST(PhaseTimingStress, ConcurrentScrapeSeesMonotonicTotals) {
  util::PhaseCells cells;
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    cells.assert_writer();
    while (!stop.load(std::memory_order_relaxed)) {
      cells.add(util::EnginePhase::kLookup, 5);
      cells.add(util::EnginePhase::kIssue, 7);
      std::this_thread::yield();
    }
  });

  std::uint64_t last_total = 0;
  for (int i = 0; i < 2000; ++i) {
    const PhaseTiming t = PhaseTiming::sample(cells);
    const std::uint64_t total = t.total_count();
    ASSERT_GE(total, last_total) << "sampled counts went backwards";
    last_total = total;
  }
  // On one CPU the writer may not have run yet; yield until it makes
  // progress so the final assertion checks a real concurrent scrape.
  for (int i = 0; last_total == 0 && i < 100000; ++i) {
    std::this_thread::yield();
    last_total = PhaseTiming::sample(cells).total_count();
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  EXPECT_GT(last_total, 0u);
}

}  // namespace
}  // namespace pfp::obs
