// Moment-based rank bounds (Section 5.1): Markov inequalities on shifted /
// reflected / log-transformed data, and the sharper RTT bounds (Racz, Tari,
// Telek 2006) derived from canonical representations of the truncated
// moment problem (Chebyshev-Markov-Stieltjes inequalities).
//
// These are worst-case bounds over *every* distribution matching the
// sketch's moments, so cascade decisions based on them can never disagree
// with the maximum entropy estimate (no false negatives, Section 5.2).
#ifndef MSKETCH_CORE_BOUNDS_H_
#define MSKETCH_CORE_BOUNDS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/chebyshev_moments.h"
#include "core/moments_sketch.h"
#include "numerics/matrix.h"

namespace msketch {

/// Bounds on rank(t) = #{x in D : x < t}, inclusive.
struct RankBounds {
  double lower = 0.0;
  double upper = 0.0;

  /// Intersects with another valid pair of bounds.
  void Intersect(const RankBounds& other) {
    lower = lower > other.lower ? lower : other.lower;
    upper = upper < other.upper ? upper : other.upper;
  }
};

/// Evaluates the rank bounds below at many thresholds t of one sketch.
/// Everything that does not depend on t is computed once: the standard
/// and log moments and the shifted / reflected moments of the Markov
/// bounds at construction; the moments scaled to [-1, 1], their Hankel
/// Cholesky factors and the three-term recurrences of the RTT bounds at
/// the first Rtt call, so a Markov-only user never pays for them. A probe
/// then costs one forward substitution and one Gauss-Radau eigensolve
/// per domain plus the Markov minimum over j. Answers are bit-identical
/// to building the invariants afresh for every t. Holds no reference to
/// the sketch; not thread-safe (one per query).
class RttBounder {
 public:
  explicit RttBounder(const MomentsSketch& sketch);

  /// MarkovBound(sketch, t).
  RankBounds Markov(double t) const;
  /// RttBound(sketch, t).
  RankBounds Rtt(double t);

 private:
  // One moment family of the sketch: standard moments, or log moments
  // when they are usable.
  struct Domain {
    double lo = 0.0;  // data range in this domain
    double hi = 0.0;
    std::vector<double> moments;    // E[x^j], j = 0..k
    std::vector<double> shifted;    // E[(x - lo)^j]
    std::vector<double> reflected;  // E[(hi - x)^j]
    // RTT tables; r == 0 when no Hankel matrix of the scaled moments is
    // positive definite (the domain then contributes no RTT bound).
    ScaleMap map;
    Matrix chol;  // lower Cholesky factor of the (r+1)x(r+1) Hankel matrix
    int r = 0;    // orthonormal polynomial degree
    std::vector<double> diag, off;  // three-term recurrence (Jacobi matrix)
  };

  static Domain MakeDomain(std::vector<double> moments, double lo, double hi);
  static void BuildRtt(Domain* d);
  RankBounds MarkovIn(const Domain& d, double x) const;
  void IntersectRtt(const Domain& d, double x, RankBounds* b) const;

  double n_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  bool log_usable_ = false;
  bool rtt_built_ = false;
  Domain std_;
  Domain log_;
};

/// Markov-inequality bounds using the transforms T+(D) = x - xmin,
/// T-(D) = xmax - x, and (when usable) their log-domain counterparts.
RankBounds MarkovBound(const MomentsSketch& sketch, double t);

/// RTT bounds: sharp CDF bounds at t from the canonical representation of
/// the moment sequence anchored at t. Runs on standard moments and (when
/// usable) log moments, intersecting the results. Falls back to Markov
/// bounds if the Hankel factorization degenerates entirely. Probing one
/// sketch at many t is cheaper through one RttBounder.
RankBounds RttBound(const MomentsSketch& sketch, double t);

/// Worst-case quantile error (Section 3.1, Eq. 1) of `estimate` as a
/// phi-quantile of the sketch's dataset, certified by RttBound:
///   eps = max(phi - rank_lo/n, rank_hi/n - phi, 0).
double QuantileErrorBound(const MomentsSketch& sketch, double phi,
                          double estimate);

/// Certified value-domain enclosure of a quantile: the true phi-quantile
/// of every dataset matching the sketch's moments lies in [lower, upper].
struct QuantileInterval {
  double lower = 0.0;
  double upper = 0.0;
  double width() const { return upper - lower; }
};

/// Certified enclosure of the true phi-quantile from moment bounds alone
/// (no solved density needed): bisection over the value domain where each
/// probe t is certified individually by RttBound — if even the upper rank
/// bound at t is short of the target rank, the quantile is >= t, and
/// symmetrically for the lower bound. Individually-sound probes keep the
/// result a certificate even when the rank bounds are not numerically
/// monotone in t. Worst case (degenerate bounds) returns [min, max],
/// which is still sound. `steps` bisection probes per endpoint, each one
/// RttBound evaluation. Returns {0, 0} on an empty sketch.
///
/// Cost: one RttBounder per call, so the sketch's invariants are built
/// once, not per probe; the lower and upper bisections start from the
/// same probes and share each probe result they have in common.
QuantileInterval CertifiedQuantileInterval(const MomentsSketch& sketch,
                                           double phi, int steps = 24);

/// CertifiedQuantileInterval for every phi (results parallel to `phis`)
/// off one RttBounder. Probe results are memoised by t, so bisections of
/// different phis share their common prefix of probes too; each answer
/// equals the single-phi call bit for bit.
std::vector<QuantileInterval> CertifiedQuantileIntervals(
    const MomentsSketch& sketch, const std::vector<double>& phis,
    int steps = 24);

/// Condition number of the Hankel moment matrix on the scaled standard
/// domain — the router's conditioning signal. Large values mean the
/// moment vector is near the boundary of the moment cone (near-atomic or
/// near-singular data) and the maxent solve is unreliable. Returns +inf
/// for empty or point-mass sketches.
double HankelConditionNumber(const MomentsSketch& sketch);

}  // namespace msketch

#endif  // MSKETCH_CORE_BOUNDS_H_
