// The paper's cost-benefit equations (Sections 5-7), as pure functions.
//
// Everything here is stateless: inputs are the timing constants, the
// dynamic prefetch rate s (blocks prefetched per access period, estimated
// online), and per-candidate quantities from the prefetch tree.  Keeping
// the algebra free of simulator state lets tests check each equation
// against hand-computed values.
//
//   Eq. 3  T_compute(d)   = d (T_cpu + T_hit + s T_driver)
//   Eq. 6  T_stall(d)     = max(T_disk/d - (T_hit + T_cpu + s T_driver), 0)
//                           with T_stall(0) = T_disk (demand fetch)
//   Eq. 2  dT_pf(d)       = T_disk - T_stall(d), dT_pf(0) = 0
//   Eq. 1  B(b)           = p_b dT_pf(d_b) - p_x dT_pf(d_b - 1)
//   Eq. 11 C_pr(b)        = p_b (T_driver + T_stall(x)) / (d_b - x)
//   Eq. 13 C_dc(n)        = (H(n) - H(n-1)) (T_driver + T_disk)
//   Eq. 14 T_oh           = (1 - p_b/p_x) T_driver
#pragma once

#include <cstdint>
#include <vector>

#include "core/costben/timing_model.hpp"
#include "util/assert.hpp"

namespace pfp::core::costben {

/// Eq. 3: computation overlapped during d access periods (d > 0).
double t_compute(const TimingParams& timing, double s, std::uint32_t d);

/// Eq. 6 (with the d = 0 demand-fetch boundary condition T_stall = T_disk):
/// average CPU stall for a block prefetched d accesses ahead.
double t_stall(const TimingParams& timing, double s, std::uint32_t d);

/// Eq. 2: time saved by prefetching at distance d vs. fetching on demand.
double delta_t_pf(const TimingParams& timing, double s, std::uint32_t d);

/// Eq. 1: benefit of allocating one buffer to prefetch block b at depth
/// d_b, whose path-parent x (at depth d_b - 1) has path probability p_x.
double benefit(const TimingParams& timing, double s, double p_b,
               double p_x, std::uint32_t d_b);

/// Eq. 1 through a per-period table.  dT_pf depends only on (timing, s,
/// d), and s is an EWMA refreshed once per access period — so a policy
/// pricing dozens of candidates per period precomputes dT_pf for
/// d = 0..max_depth and reduces every benefit to two multiplies.
/// Bit-identical to benefit(): the same delta_t_pf() values feed the same
/// expression in the same order.
///
/// The table also tells a predictor how deep to walk.  dT_pf grows with d
/// until the stall of Eq. 6 reaches zero (the prefetch horizon) and is
/// flat at T_disk after it, so past the payable depth D Eq. 1 is
/// (p_b - p_x) * dT_pf(D), which is <= 0 exactly in floating point for any
/// p_b <= p_x: no candidate deeper than D can ever be issued.
class BenefitTable {
 public:
  /// Fills `storage` with dT_pf(0..max_depth) for this period and keeps a
  /// view of it.  The buffer is caller-owned so policies reuse one vector
  /// across periods allocation-free; it must outlive the table.
  BenefitTable(const TimingParams& timing, double s, std::uint32_t max_depth,
               std::vector<double>& storage);

  [[nodiscard]] double operator()(double p_b, double p_x,
                                  std::uint32_t d_b) const {
    PFP_DASSERT(d_b >= 1 && d_b <= max_depth_);
    PFP_DASSERT(p_b >= 0.0 && p_b <= p_x + 1e-12);
    return p_b * dtpf_[d_b] - p_x * dtpf_[d_b - 1];
  }

  /// D: the deepest d <= max_depth with dT_pf(d) > dT_pf(d - 1), i.e.
  /// prefetch_horizon() capped at the table's size (0 for an empty
  /// table).  Every d in (D, max_depth] has dT_pf(d) == dT_pf(D) bit for
  /// bit, so a chained candidate deeper than D prices <= 0.
  [[nodiscard]] std::uint32_t payable_depth() const noexcept {
    return payable_depth_;
  }

  /// dT_pf(b, d) itself.  Eq. 1's second term assumes the candidate will
  /// be offered again at depth d-1 next period; single-offer predictors
  /// (see CostBenefitKnobs::single_offer) price against the demand fetch
  /// the block otherwise becomes, which is this value times p_b.
  [[nodiscard]] double dtpf(std::uint32_t d_b) const {
    PFP_DASSERT(d_b <= max_depth_);
    return dtpf_[d_b];
  }

 private:
  const double* dtpf_;
  std::uint32_t max_depth_;
  std::uint32_t payable_depth_ = 0;
};

/// Eq. 14: expected wasted driver time for prefetching b under parent x.
double prefetch_overhead(const TimingParams& timing, double p_b, double p_x);

/// Eq. 11: cost (per unit bufferage) of ejecting prefetched block b that
/// would be re-prefetched at distance x < d_b.
double cost_eject_prefetch(const TimingParams& timing, double s, double p_b,
                           std::uint32_t d_b, std::uint32_t x);

/// Eq. 13: cost of shrinking the demand cache by one buffer, given the
/// measured marginal hit rate H(n) - H(n-1).
double cost_eject_demand(const TimingParams& timing,
                         double marginal_hit_rate);

/// Prefetch horizon P-hat: smallest distance whose expected stall is zero,
/// ceil(T_disk / (T_hit + T_cpu + s T_driver)).  Used as the re-prefetch
/// distance x in Eq. 11 (a displaced block would be fetched again once it
/// comes within the horizon; see DESIGN.md).
std::uint32_t prefetch_horizon(const TimingParams& timing, double s);

}  // namespace pfp::core::costben
