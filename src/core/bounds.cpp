#include "core/bounds.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "core/chebyshev_moments.h"
#include "numerics/eigen.h"
#include "numerics/matrix.h"
#include "numerics/root_finding.h"
#include "numerics/stats.h"

namespace msketch {

namespace {

// E[(x - shift)^j] for j = 0..k from raw moments mu[i] = E[x^i].
std::vector<double> ShiftedMoments(const std::vector<double>& mu,
                                   double shift) {
  const int k = static_cast<int>(mu.size()) - 1;
  std::vector<double> out(k + 1, 0.0);
  out[0] = 1.0;
  for (int j = 1; j <= k; ++j) {
    double acc = 0.0;
    for (int m = 0; m <= j; ++m) {
      acc += BinomialCoefficient(j, m) *
             std::pow(-shift, static_cast<double>(j - m)) * mu[m];
    }
    out[j] = acc;
  }
  return out;
}

// E[(shift - x)^j]: reflect then shift.
std::vector<double> ReflectedMoments(const std::vector<double>& mu,
                                     double shift) {
  const int k = static_cast<int>(mu.size()) - 1;
  std::vector<double> out(k + 1, 0.0);
  out[0] = 1.0;
  for (int j = 1; j <= k; ++j) {
    double acc = 0.0;
    for (int m = 0; m <= j; ++m) {
      // (shift - x)^j = sum C(j,m) shift^(j-m) (-x)^m
      acc += BinomialCoefficient(j, m) *
             std::pow(shift, static_cast<double>(j - m)) *
             ((m % 2 == 0) ? mu[m] : -mu[m]);
    }
    out[j] = acc;
  }
  return out;
}

// Markov: P(Z >= z) <= E[Z^j] / z^j for nonnegative Z, minimized over j.
double BestMarkovTailProb(const std::vector<double>& nonneg_moments,
                          double z) {
  if (z <= 0.0) return 1.0;
  double best = 1.0;
  double zj = 1.0;
  for (size_t j = 1; j < nonneg_moments.size(); ++j) {
    zj *= z;
    const double m = nonneg_moments[j];
    if (m >= 0.0 && zj > 0.0) {
      best = std::min(best, m / zj);
    }
  }
  return std::max(best, 0.0);
}

// Bounds for every threshold outside (min, max], which need no moments.
// Returns false when t needs a moment bound.
bool TrivialBounds(double n, double min, double max, double t,
                   RankBounds* out) {
  if (n == 0.0) {
    *out = RankBounds{0.0, n};
    return true;
  }
  if (t <= min) {
    *out = RankBounds{0.0, 0.0};
    return true;
  }
  if (t > max) {
    *out = RankBounds{n, n};
    return true;
  }
  return false;
}

// Orthonormal polynomial values p_0..p_r at x: solve L p~ = v(x).
std::vector<double> EvaluateOrtho(const Matrix& chol, int r, double x) {
  std::vector<double> v(r + 1);
  double p = 1.0;
  for (int i = 0; i <= r; ++i) {
    v[i] = p;
    p *= x;
  }
  return ForwardSubstitute(chol, v);
}

}  // namespace

RttBounder::RttBounder(const MomentsSketch& sketch)
    : n_(static_cast<double>(sketch.count())),
      min_(sketch.min()),
      max_(sketch.max()),
      log_usable_(sketch.LogMomentsUsable()) {
  if (sketch.count() == 0) return;
  std_ = MakeDomain(sketch.StandardMoments(), min_, max_);
  if (log_usable_) {
    log_ = MakeDomain(sketch.LogMoments(), std::log(min_), std::log(max_));
  }
}

RttBounder::Domain RttBounder::MakeDomain(std::vector<double> moments,
                                          double lo, double hi) {
  Domain d;
  d.lo = lo;
  d.hi = hi;
  d.shifted = ShiftedMoments(moments, lo);
  d.reflected = ReflectedMoments(moments, hi);
  d.moments = std::move(moments);
  return d;
}

// ---------------------------------------------------------------------
// RTT bounds machinery: orthonormal polynomials from the Hankel moment
// matrix (on the domain scaled to [-1, 1], for conditioning), their
// three-term recurrence, canonical-representation weights.
void RttBounder::BuildRtt(Domain* d) {
  d->map = MakeScaleMap(d->lo, d->hi);
  const std::vector<double> mu = ShiftPowerMoments(d->moments, d->map);
  // Largest r with positive definite Hankel matrix of scaled moments.
  const int max_r = (static_cast<int>(mu.size()) - 1) / 2;
  for (int r = max_r; r >= 1; --r) {
    Matrix hankel(r + 1, r + 1);
    for (int i = 0; i <= r; ++i) {
      for (int j = 0; j <= r; ++j) hankel(i, j) = mu[i + j];
    }
    Result<Matrix> chol = CholeskyFactor(hankel, 1e-14);
    if (chol.ok()) {
      d->chol = std::move(chol).value();
      d->r = r;
      break;
    }
  }
  if (d->r == 0) return;
  // Three-term recurrence coefficients of the orthonormal polynomials
  // from the Cholesky factor of the Hankel matrix:
  //   b_i = L[i+1][i+1] / L[i][i],
  //   a_i = L[i+1][i] / L[i][i] - L[i][i-1] / L[i-1][i-1].
  const Matrix& l = d->chol;
  d->diag.assign(d->r + 1, 0.0);
  d->off.assign(d->r, 0.0);
  for (int i = 0; i < d->r; ++i) {
    d->off[i] = l(i + 1, i + 1) / l(i, i);
    d->diag[i] = l(i + 1, i) / l(i, i) -
                 (i > 0 ? l(i, i - 1) / l(i - 1, i - 1) : 0.0);
  }
}

// Markov bounds in one domain at threshold x (in that domain).
RankBounds RttBounder::MarkovIn(const Domain& d, double x) const {
  RankBounds b{0.0, n_};
  // Upper bound on 1 - F(t): P(x - lo >= t - lo).
  const double p_tail = BestMarkovTailProb(d.shifted, x - d.lo);
  b.lower = std::max(b.lower, n_ * (1.0 - p_tail));
  // Upper bound on F(t): P(hi - x >= hi - t) >= P(x <= t) ... note
  // rank counts strict inferiors; F(t-) <= P(hi - x >= hi - t).
  const double p_head = BestMarkovTailProb(d.reflected, d.hi - x);
  b.upper = std::min(b.upper, n_ * p_head);
  return b;
}

// Sharp rank bounds in one domain at threshold x (in that domain),
// intersected into *b; a degenerate domain contributes nothing.
//
// The canonical representation anchored at the scaled threshold tq is
// computed as a Gauss-Radau rule (Golub 1973): the Jacobi matrix of the
// moment sequence, with its last diagonal entry modified so tq is an
// exact eigenvalue. Nodes are the eigenvalues, weights come from the
// squared first eigenvector components — no polynomial root finding,
// which is what makes this numerically dependable when nodes cluster.
void RttBounder::IntersectRtt(const Domain& d, double x,
                              RankBounds* b) const {
  const int r = d.r;
  if (r == 0) return;
  double tq = d.map.Forward(x);
  // Anchor the rule at tq: last diagonal a*_r = tq - b_{r-1} *
  // p_{r-1}(tq) / p_r(tq).
  std::vector<double> pt = EvaluateOrtho(d.chol, r, tq);
  while (std::fabs(pt[r]) < 1e-280) {
    // tq is (numerically) a Gauss node already; nudge it by a hair.
    tq += 3e-12;
    pt = EvaluateOrtho(d.chol, r, tq);
  }
  std::vector<double> diag = d.diag;
  diag[r] = tq - d.off[r - 1] * pt[r - 1] / pt[r];

  std::vector<double> first;
  Result<std::vector<double>> nodes =
      TridiagonalEigen(std::move(diag), d.off, &first);
  if (!nodes.ok()) return;
  double below = 0.0, at = 0.0;
  for (size_t j = 0; j < nodes.value().size(); ++j) {
    const double node = nodes.value()[j];
    const double w = first[j] * first[j];  // times m0 = 1
    if (node < tq - 1e-9) {
      below += w;
    } else if (node <= tq + 1e-9) {
      at += w;
    }
  }
  RankBounds rb;
  rb.lower = std::clamp(n_ * below, 0.0, n_);
  rb.upper = std::clamp(n_ * (below + at), rb.lower, n_);
  b->Intersect(rb);
}

RankBounds RttBounder::Markov(double t) const {
  RankBounds b{0.0, n_};
  if (TrivialBounds(n_, min_, max_, t, &b)) return b;
  b.Intersect(MarkovIn(std_, t));
  if (log_usable_ && t > 0.0) b.Intersect(MarkovIn(log_, std::log(t)));
  return b;
}

RankBounds RttBounder::Rtt(double t) {
  RankBounds b{0.0, n_};
  if (TrivialBounds(n_, min_, max_, t, &b)) return b;
  if (!rtt_built_) {
    BuildRtt(&std_);
    if (log_usable_) BuildRtt(&log_);
    rtt_built_ = true;
  }
  // Standard-moment bounds, then log-moment bounds (paper: run both,
  // take the tighter).
  IntersectRtt(std_, t, &b);
  if (log_usable_ && t > 0.0) IntersectRtt(log_, std::log(t), &b);
  // Guarantee validity even if both solves degenerated.
  RankBounds markov = Markov(t);
  b.Intersect(markov);
  // Crossing bounds mean one domain's solve went numerically bad; fall
  // back to the always-sound Markov bounds.
  if (b.lower > b.upper) return markov;
  return b;
}

RankBounds MarkovBound(const MomentsSketch& sketch, double t) {
  RankBounds b;
  if (TrivialBounds(static_cast<double>(sketch.count()), sketch.min(),
                    sketch.max(), t, &b)) {
    return b;
  }
  return RttBounder(sketch).Markov(t);
}

RankBounds RttBound(const MomentsSketch& sketch, double t) {
  RankBounds b;
  if (TrivialBounds(static_cast<double>(sketch.count()), sketch.min(),
                    sketch.max(), t, &b)) {
    return b;
  }
  return RttBounder(sketch).Rtt(t);
}

double QuantileErrorBound(const MomentsSketch& sketch, double phi,
                          double estimate) {
  if (sketch.count() == 0) return 0.0;
  const double n = static_cast<double>(sketch.count());
  RankBounds b = RttBound(sketch, estimate);
  const double lo = b.lower / n;
  const double hi = b.upper / n;
  return std::max({phi - lo, hi - phi, 0.0});
}

std::vector<QuantileInterval> CertifiedQuantileIntervals(
    const MomentsSketch& sketch, const std::vector<double>& phis,
    int steps) {
  if (sketch.count() == 0) {
    return std::vector<QuantileInterval>(phis.size(), QuantileInterval{});
  }
  const QuantileInterval whole{sketch.min(), sketch.max()};
  std::vector<QuantileInterval> out(phis.size(), whole);
  if (sketch.min() >= sketch.max() || steps <= 0) return out;

  // Every bisection starts from [min, max], so probes repeat across
  // endpoints and phis; a repeated t gets the identical RankBounds.
  RttBounder bounder(sketch);
  std::unordered_map<uint64_t, RankBounds> probes;
  auto probe = [&](double t) {
    uint64_t bits;
    std::memcpy(&bits, &t, sizeof(bits));
    auto it = probes.find(bits);
    if (it == probes.end()) it = probes.emplace(bits, bounder.Rtt(t)).first;
    return it->second;
  };

  const double n = static_cast<double>(sketch.count());
  for (size_t p = 0; p < phis.size(); ++p) {
    QuantileInterval& iv = out[p];
    // Target rank r (1-based): the r-th smallest element. rank(t) counts
    // strict inferiors, so rank(t) < r certifies Q >= t and rank(t) >= r
    // certifies Q <= t (the r-th smallest is preceded by >= r elements).
    double r = std::ceil(phis[p] * n);
    r = std::max(1.0, std::min(r, n));

    // Lower endpoint: largest probe t whose certified rank upper bound
    // stays below r. Each accepted probe is individually sound, so the
    // running max is a certificate regardless of bound monotonicity.
    {
      double lo = sketch.min(), hi = sketch.max();
      for (int i = 0; i < steps; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (!(mid > lo && mid < hi)) break;  // interval exhausted in fp
        if (probe(mid).upper < r) {
          iv.lower = std::max(iv.lower, mid);
          lo = mid;
        } else {
          hi = mid;
        }
      }
    }
    // Upper endpoint: smallest probe t whose certified rank lower bound
    // already reaches r.
    {
      double lo = sketch.min(), hi = sketch.max();
      for (int i = 0; i < steps; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (!(mid > lo && mid < hi)) break;
        if (probe(mid).lower >= r) {
          iv.upper = std::min(iv.upper, mid);
          hi = mid;
        } else {
          lo = mid;
        }
      }
    }
    // Both endpoints are individually certified, so crossing can only
    // come from floating-point damage inside the bound solves; never
    // hand a crossed certificate to a caller.
    if (iv.lower > iv.upper) iv = whole;
  }
  return out;
}

QuantileInterval CertifiedQuantileInterval(const MomentsSketch& sketch,
                                           double phi, int steps) {
  return CertifiedQuantileIntervals(sketch, {phi}, steps).front();
}

double HankelConditionNumber(const MomentsSketch& sketch) {
  if (sketch.count() == 0 || !(sketch.min() < sketch.max())) {
    return std::numeric_limits<double>::infinity();
  }
  ScaleMap map = MakeScaleMap(sketch.min(), sketch.max());
  const std::vector<double> mu =
      ShiftPowerMoments(sketch.StandardMoments(), map);
  const int r = (static_cast<int>(mu.size()) - 1) / 2;
  if (r < 1) return std::numeric_limits<double>::infinity();
  Matrix hankel(r + 1, r + 1);
  for (int i = 0; i <= r; ++i) {
    for (int j = 0; j <= r; ++j) hankel(i, j) = mu[i + j];
  }
  return SymmetricConditionNumber(hankel);
}

}  // namespace msketch
