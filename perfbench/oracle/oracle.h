// Reference computations for the repository benchmark.
//
// Everything here is computed from the benchmark's raw generated rows
// with plain, independent code: it includes no engine header and links
// no engine code, so a fault in the engine cannot hide in the oracle.
//
// Quantile convention (the engine's core/bounds.h convention): the rank
// of t is #{x < t} and the target rank of the phi-quantile is phi * n. A
// value t is a phi-quantile when #{x < t} <= phi * n <= #{x <= t}; over
// the ascending values x_0..x_{n-1} these form the range
// [x_{ceil(phi n) - 1}, x_{floor(phi n)}] (one value unless phi * n is an
// integer). A certificate built from rank bounds at that target encloses
// the whole range; one built for the nearest rank ceil(phi n) encloses
// its lower end. A certified interval is sound when it meets the range.
#ifndef PERFBENCH_ORACLE_ORACLE_H_
#define PERFBENCH_ORACLE_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {
namespace oracle {

/// Neumaier-compensated running sum.
class CompensatedSum {
 public:
  void Add(double x);
  double Value() const { return sum_ + comp_; }

 private:
  double sum_ = 0.0;
  double comp_ = 0.0;
};

/// Exact per-cell (or per-selection) summary: count, min, max, and the
/// power sums sum(x^i) and sum(log(x)^i) (positive x only), i = 1..k,
/// each with the matching sum of magnitudes that scales the tolerance.
struct Summary {
  explicit Summary(int k = 10);
  void Add(double x);

  int k;
  uint64_t count = 0;
  uint64_t log_count = 0;
  double min = 0.0;
  double max = 0.0;
  std::vector<CompensatedSum> power;
  std::vector<CompensatedSum> power_abs;
  std::vector<CompensatedSum> log_power;
  std::vector<CompensatedSum> log_power_abs;
};

/// The largest exact phi-quantile of ascending `sorted` (x_{floor(phi n)},
/// clamped), under the convention in the file comment. Non-empty input.
double ExactQuantile(const std::vector<double>& sorted, double phi);

/// The smallest exact phi-quantile (x_{ceil(phi n) - 1}, clamped).
double LowestExactQuantile(const std::vector<double>& sorted, double phi);

/// #{x < t} over ascending `sorted`.
uint64_t RankBelow(const std::vector<double>& sorted, double t);
/// #{x <= t} over ascending `sorted`.
uint64_t RankAtOrBelow(const std::vector<double>& sorted, double t);

/// Rank error of `estimate` as a phi-quantile: the distance from phi to
/// the nearest normalized rank the estimate can take, i.e. 0 when
/// phi * n lies between #{x < e} and #{x <= e}.
double RankError(const std::vector<double>& sorted, double phi,
                 double estimate);

// ------------------------------------------------------------ checker
//
// Each check returns an empty string when the answer is correct and a
// one-line description of the fault otherwise.

/// A certified answer: [lo, hi] meets the range of exact quantiles and
/// the estimate lies in [lo, hi].
std::string CheckCertified(const std::vector<double>& sorted, double phi,
                           double lo, double hi, double estimate);

/// Exact count, min and max.
std::string CheckCountMinMax(uint64_t want_count, double want_min,
                             double want_max, uint64_t count, double min,
                             double max);

/// Power sums within `rel_tol` of the compensated sums, relative to the
/// matching sum of magnitudes (so cancellation cannot blow the bound).
std::string CheckPowerSums(const Summary& want,
                           const std::vector<double>& power_sums,
                           const std::vector<double>& log_sums,
                           uint64_t log_count, double rel_tol);

/// An estimate inside the selection's [min, max].
std::string CheckInRange(double min, double max, double estimate);

/// A threshold decision "phi-quantile > t". It must equal the exact
/// decision unless t's normalized rank lies within `rank_tol` of phi
/// (there the exact quantile sits so close to t that an estimate within
/// the sketch's accuracy may land on either side).
std::string CheckThreshold(const std::vector<double>& sorted, double phi,
                           double t, bool decision, double rank_tol);

/// Runs the checker against known-good and deliberately broken answers:
/// it must accept the good ones and flag a shifted interval, an
/// off-by-one count and a flipped threshold decision. Returns an empty
/// string on success, else what went wrong.
std::string SelfTest();

}  // namespace oracle
}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_ORACLE_H_
