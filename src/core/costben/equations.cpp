#include "core/costben/equations.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace pfp::core::costben {

double t_compute(const TimingParams& timing, double s, std::uint32_t d) {
  PFP_DASSERT(d > 0);
  return static_cast<double>(d) *
         (timing.t_cpu + timing.t_hit + s * timing.t_driver);
}

double t_stall(const TimingParams& timing, double s, std::uint32_t d) {
  if (d == 0) {
    return timing.t_disk;  // demand fetch stalls for the whole access
  }
  const double per_period = timing.t_hit + timing.t_cpu + s * timing.t_driver;
  return std::max(timing.t_disk / static_cast<double>(d) - per_period, 0.0);
}

double delta_t_pf(const TimingParams& timing, double s, std::uint32_t d) {
  if (d == 0) {
    return 0.0;  // dT_pf(b, 0) = 0: a demand fetch saves nothing
  }
  return timing.t_disk - t_stall(timing, s, d);
}

double benefit(const TimingParams& timing, double s, double p_b, double p_x,
               std::uint32_t d_b) {
  PFP_DASSERT(d_b >= 1);
  PFP_DASSERT(p_b >= 0.0 && p_b <= p_x + 1e-12);
  return p_b * delta_t_pf(timing, s, d_b) -
         p_x * delta_t_pf(timing, s, d_b - 1);
}

BenefitTable::BenefitTable(const TimingParams& timing, double s,
                           std::uint32_t max_depth,
                           std::vector<double>& storage) {
  storage.resize(static_cast<std::size_t>(max_depth) + 1);
  for (std::uint32_t d = 0; d <= max_depth; ++d) {
    storage[d] = delta_t_pf(timing, s, d);
    if (d > 0 && storage[d] > storage[d - 1]) {
      payable_depth_ = d;
    }
  }
  dtpf_ = storage.data();
  max_depth_ = max_depth;
}

double prefetch_overhead(const TimingParams& timing, double p_b, double p_x) {
  PFP_DASSERT(p_x > 0.0);
  const double conditional = std::min(p_b / p_x, 1.0);
  return (1.0 - conditional) * timing.t_driver;
}

double cost_eject_prefetch(const TimingParams& timing, double s, double p_b,
                           std::uint32_t d_b, std::uint32_t x) {
  PFP_DASSERT(d_b > x);
  const double bufferage = static_cast<double>(d_b - x);
  return p_b * (timing.t_driver + t_stall(timing, s, x)) / bufferage;
}

double cost_eject_demand(const TimingParams& timing,
                         double marginal_hit_rate) {
  return marginal_hit_rate * (timing.t_driver + timing.t_disk);
}

std::uint32_t prefetch_horizon(const TimingParams& timing, double s) {
  const double per_period = timing.t_hit + timing.t_cpu + s * timing.t_driver;
  PFP_DASSERT(per_period > 0.0);
  return static_cast<std::uint32_t>(
      std::ceil(timing.t_disk / per_period));
}

}  // namespace pfp::core::costben
