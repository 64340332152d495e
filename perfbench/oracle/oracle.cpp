#include "oracle/oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {
namespace oracle {

namespace {

std::string Format(const char* fmt, double a, double b, double c = 0.0,
                   double d = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c, d);
  return buf;
}

size_t QuantileIndex(size_t n, double phi) {
  const double target = phi * static_cast<double>(n);
  if (!(target > 0.0)) return 0;
  const double idx = std::floor(target);
  if (idx >= static_cast<double>(n - 1)) return n - 1;
  return static_cast<size_t>(idx);
}

}  // namespace

void CompensatedSum::Add(double x) {
  const double t = sum_ + x;
  if (std::fabs(sum_) >= std::fabs(x)) {
    comp_ += (sum_ - t) + x;
  } else {
    comp_ += (x - t) + sum_;
  }
  sum_ = t;
}

Summary::Summary(int k_in)
    : k(k_in), power(k_in), power_abs(k_in), log_power(k_in),
      log_power_abs(k_in) {}

void Summary::Add(double x) {
  if (count == 0) {
    min = x;
    max = x;
  } else {
    min = std::min(min, x);
    max = std::max(max, x);
  }
  ++count;
  double p = 1.0;
  for (int i = 0; i < k; ++i) {
    p *= x;
    power[i].Add(p);
    power_abs[i].Add(std::fabs(p));
  }
  if (x > 0.0) {
    ++log_count;
    const double lx = std::log(x);
    double lp = 1.0;
    for (int i = 0; i < k; ++i) {
      lp *= lx;
      log_power[i].Add(lp);
      log_power_abs[i].Add(std::fabs(lp));
    }
  }
}

double ExactQuantile(const std::vector<double>& sorted, double phi) {
  return sorted[QuantileIndex(sorted.size(), phi)];
}

double LowestExactQuantile(const std::vector<double>& sorted, double phi) {
  const double target = std::ceil(phi * static_cast<double>(sorted.size()));
  if (!(target > 1.0)) return sorted.front();
  if (target >= static_cast<double>(sorted.size())) return sorted.back();
  return sorted[static_cast<size_t>(target) - 1];
}

uint64_t RankBelow(const std::vector<double>& sorted, double t) {
  return static_cast<uint64_t>(
      std::lower_bound(sorted.begin(), sorted.end(), t) - sorted.begin());
}

uint64_t RankAtOrBelow(const std::vector<double>& sorted, double t) {
  return static_cast<uint64_t>(
      std::upper_bound(sorted.begin(), sorted.end(), t) - sorted.begin());
}

double RankError(const std::vector<double>& sorted, double phi,
                 double estimate) {
  const double n = static_cast<double>(sorted.size());
  const double target = phi * n;
  const double below = static_cast<double>(RankBelow(sorted, estimate));
  const double at_or_below =
      static_cast<double>(RankAtOrBelow(sorted, estimate));
  if (below <= target && target <= at_or_below) return 0.0;
  return std::min(std::fabs(below - target), std::fabs(at_or_below - target)) /
         n;
}

std::string CheckCertified(const std::vector<double>& sorted, double phi,
                           double lo, double hi, double estimate) {
  if (sorted.empty()) return "certified answer over an empty selection";
  const double q_lo = LowestExactQuantile(sorted, phi);
  const double q_hi = ExactQuantile(sorted, phi);
  if (!(lo <= q_hi && q_lo <= hi)) {
    return Format("interval [%.17g, %.17g] misses the exact quantiles "
                  "[%.17g, %.17g]",
                  lo, hi, q_lo, q_hi);
  }
  if (!(lo <= estimate && estimate <= hi)) {
    return Format("estimate %.17g outside its interval [%.17g, %.17g]",
                  estimate, lo, hi);
  }
  return "";
}

std::string CheckCountMinMax(uint64_t want_count, double want_min,
                             double want_max, uint64_t count, double min,
                             double max) {
  if (count != want_count) {
    return Format("count %.0f, exact %.0f", static_cast<double>(count),
                  static_cast<double>(want_count));
  }
  if (count == 0) return "";
  if (min != want_min || max != want_max) {
    return Format("range [%.17g, %.17g], exact [%.17g, %.17g]", min, max,
                  want_min, want_max);
  }
  return "";
}

std::string CheckPowerSums(const Summary& want,
                           const std::vector<double>& power_sums,
                           const std::vector<double>& log_sums,
                           uint64_t log_count, double rel_tol) {
  if (static_cast<int>(power_sums.size()) != want.k ||
      static_cast<int>(log_sums.size()) != want.k) {
    return "power-sum order differs from the oracle's";
  }
  if (log_count != want.log_count) {
    return Format("log count %.0f, exact %.0f",
                  static_cast<double>(log_count),
                  static_cast<double>(want.log_count));
  }
  for (int i = 0; i < want.k; ++i) {
    const double scale = want.power_abs[i].Value();
    if (std::fabs(power_sums[i] - want.power[i].Value()) > rel_tol * scale) {
      return Format("power sum %.0f is %.17g, exact %.17g", i + 1.0,
                    power_sums[i], want.power[i].Value());
    }
    const double log_scale = want.log_power_abs[i].Value();
    if (std::fabs(log_sums[i] - want.log_power[i].Value()) >
        rel_tol * log_scale) {
      return Format("log power sum %.0f is %.17g, exact %.17g", i + 1.0,
                    log_sums[i], want.log_power[i].Value());
    }
  }
  return "";
}

std::string CheckInRange(double min, double max, double estimate) {
  if (min <= estimate && estimate <= max) return "";
  return Format("estimate %.17g outside the group range [%.17g, %.17g]",
                estimate, min, max);
}

std::string CheckThreshold(const std::vector<double>& sorted, double phi,
                           double t, bool decision, double rank_tol) {
  if (sorted.empty()) return "threshold decision over an empty selection";
  const bool exact = ExactQuantile(sorted, phi) > t;
  if (decision == exact) return "";
  const double rank = static_cast<double>(RankBelow(sorted, t)) /
                      static_cast<double>(sorted.size());
  if (std::fabs(rank - phi) <= rank_tol) return "";
  return Format("decision %.0f differs from the exact %.0f with t's rank "
                "%.6f, more than the tolerance from phi %.4g",
                decision ? 1.0 : 0.0, exact ? 1.0 : 0.0, rank, phi);
}

std::string SelfTest() {
  // 1000 values with ties: 0, 0, 1, 1, ..., 499, 499, scaled.
  std::vector<double> sorted;
  for (int i = 0; i < 1000; ++i) sorted.push_back(0.5 * (i / 2));
  const double phi = 0.9;
  const double q = ExactQuantile(sorted, phi);
  if (q != sorted[900]) return "exact quantile picks the wrong order statistic";

  // Certified intervals.
  if (!CheckCertified(sorted, phi, q - 1.0, q + 1.0, q).empty()) {
    return "checker rejects a correct certified interval";
  }
  if (!CheckCertified(sorted, phi, q, q, q).empty()) {
    return "checker rejects a tight correct certified interval";
  }
  const double width = 2.0;
  if (CheckCertified(sorted, phi, q + 0.25, q + 0.25 + width, q + 1.0)
          .empty()) {
    return "checker misses a shifted certified interval";
  }
  if (CheckCertified(sorted, phi, q - 1.0, q + 1.0, q + 2.0).empty()) {
    return "checker misses an estimate outside its interval";
  }
  // phi * n = 900 is integral, so both x_899 (the nearest-rank answer) and
  // x_900 are exact quantiles: an interval holding either is sound, one
  // below x_899 or above x_900 is not.
  if (LowestExactQuantile(sorted, phi) != sorted[899]) {
    return "lowest exact quantile picks the wrong order statistic";
  }
  if (!CheckCertified(sorted, phi, sorted[899], sorted[899], sorted[899])
           .empty()) {
    return "checker rejects an interval at the nearest-rank quantile";
  }
  if (CheckCertified(sorted, phi, sorted[899] - 1.0, sorted[899] - 0.25,
                     sorted[899] - 0.5)
          .empty()) {
    return "checker misses an interval below every exact quantile";
  }

  // Counts, min and max.
  Summary s(4);
  for (double x : sorted) s.Add(x);
  if (!CheckCountMinMax(s.count, s.min, s.max, 1000, 0.0, 249.5).empty()) {
    return "checker rejects a correct count/min/max";
  }
  if (CheckCountMinMax(s.count, s.min, s.max, 1001, 0.0, 249.5).empty() ||
      CheckCountMinMax(s.count, s.min, s.max, 999, 0.0, 249.5).empty()) {
    return "checker misses an off-by-one count";
  }
  if (CheckCountMinMax(s.count, s.min, s.max, 1000, 0.5, 249.5).empty()) {
    return "checker misses a wrong min";
  }

  // Power sums.
  std::vector<double> power(4), logs(4);
  for (int i = 0; i < 4; ++i) {
    power[i] = s.power[i].Value();
    logs[i] = s.log_power[i].Value();
  }
  if (!CheckPowerSums(s, power, logs, s.log_count, 1e-12).empty()) {
    return "checker rejects exact power sums";
  }
  power[2] *= 1.0 + 1e-6;
  if (CheckPowerSums(s, power, logs, s.log_count, 1e-9).empty()) {
    return "checker misses a perturbed power sum";
  }

  // Threshold decisions: t far below the 0.9-quantile, so the exact
  // decision is "exceeds"; a flipped decision must be flagged.
  const double t_far = 10.0;
  if (!CheckThreshold(sorted, phi, t_far, true, 0.01).empty()) {
    return "checker rejects a correct threshold decision";
  }
  if (CheckThreshold(sorted, phi, t_far, false, 0.01).empty()) {
    return "checker misses a flipped threshold decision";
  }
  // t at the quantile itself: either decision is within tolerance.
  if (!CheckThreshold(sorted, phi, q, true, 0.01).empty() ||
      !CheckThreshold(sorted, phi, q, false, 0.01).empty()) {
    return "checker rejects a decision within the rank tolerance";
  }

  // Range and rank error.
  if (CheckInRange(0.0, 1.0, 1.5).empty()) {
    return "checker misses an estimate outside the group range";
  }
  if (RankError(sorted, phi, q) != 0.0) {
    return "rank error of the exact quantile is not zero";
  }
  if (std::fabs(RankError(sorted, 0.5, 0.0) - 0.498) > 1e-12) {
    return "rank error of a far estimate is wrong";
  }
  return "";
}

}  // namespace oracle
}  // namespace perfbench
