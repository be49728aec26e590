#include "milp/pseudocost.hpp"

#include <algorithm>
#include <cmath>

namespace archex::milp {

namespace {

/// Floor of each factor of the product score, so a column whose pseudo-cost
/// is zero in one direction still ranks by the other.
constexpr double kScoreEps = 1e-6;

}  // namespace

std::int32_t cost_weighted_branch_var(const std::vector<double>& x,
                                      const std::vector<std::int32_t>& int_vars,
                                      const std::vector<double>& obj_coef,
                                      double int_tol) {
  std::int32_t best = -1;
  double best_score = -1.0;
  for (std::int32_t j : int_vars) {
    const double v = x[static_cast<std::size_t>(j)];
    const double frac = std::abs(v - std::round(v));
    if (frac <= int_tol) continue;
    const double balance = 0.5 - std::abs(frac - 0.5);  // in (0, 0.5]
    const double weight = 1.0 + std::abs(obj_coef[static_cast<std::size_t>(j)]);
    const double score = balance * weight;
    if (score > best_score) {
      best_score = score;
      best = j;
    }
  }
  return best;
}

void PseudoCosts::record(std::int32_t col, Dir dir, double distance, double gain) {
  if (distance <= 0.0) return;
  const double unit = std::max(0.0, gain) / distance;
  const int d = static_cast<int>(dir);
  std::lock_guard<std::mutex> lk(mu_);
  Entry& e = cols_[static_cast<std::size_t>(col)];
  e.sum[d] += unit;
  ++e.count[d];
  dir_sum_[d] += unit;
  ++dir_count_[d];
}

double PseudoCosts::average(int d) const {
  if (dir_count_[d] > 0) return dir_sum_[d] / static_cast<double>(dir_count_[d]);
  const int o = 1 - d;
  return dir_count_[o] > 0 ? dir_sum_[o] / static_cast<double>(dir_count_[o]) : 0.0;
}

double PseudoCosts::estimate_locked(std::int32_t col, int d) const {
  const Entry& e = cols_[static_cast<std::size_t>(col)];
  return e.count[d] > 0 ? e.sum[d] / e.count[d] : average(d);
}

double PseudoCosts::estimate(std::int32_t col, Dir dir) const {
  std::lock_guard<std::mutex> lk(mu_);
  return estimate_locked(col, static_cast<int>(dir));
}

std::int32_t PseudoCosts::select(const std::vector<double>& x,
                                 const std::vector<std::int32_t>& int_vars,
                                 const std::vector<double>& obj_coef, double int_tol) {
  std::lock_guard<std::mutex> lk(mu_);
  std::int32_t best = -1;
  if (dir_count_[0] + dir_count_[1] == 0) {
    best = cost_weighted_branch_var(x, int_vars, obj_coef, int_tol);
  } else {
    double best_score = -1.0;
    for (std::int32_t j : int_vars) {
      const double v = x[static_cast<std::size_t>(j)];
      const double f = v - std::floor(v);
      if (std::min(f, 1.0 - f) <= int_tol) continue;
      const double score = std::max(f * estimate_locked(j, 0), kScoreEps) *
                           std::max((1.0 - f) * estimate_locked(j, 1), kScoreEps);
      if (score > best_score) {
        best_score = score;
        best = j;
      }
    }
  }
  if (best >= 0) {
    const Entry& e = cols_[static_cast<std::size_t>(best)];
    if (e.count[0] == 0 && e.count[1] == 0) ++fallbacks_;
  }
  return best;
}

std::int64_t PseudoCosts::updates() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dir_count_[0] + dir_count_[1];
}

std::int64_t PseudoCosts::fallbacks() const {
  std::lock_guard<std::mutex> lk(mu_);
  return fallbacks_;
}

}  // namespace archex::milp
