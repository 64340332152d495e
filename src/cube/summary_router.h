// Error-bounded multi-backend summary router.
//
// A moments sketch answers quantile queries fast and mergeably, but fails
// detectably on pathological cells: atomic (near-discrete) measures trip
// the solver's atomic screen, heavy-tailed or near-singular moment
// vectors ill-condition the Hankel matrix and diverge Newton. The router
// turns those detectable failures into graceful degradation. Every
// answer carries a certified error interval — an enclosure the true
// quantile provably lies in — assembled from whichever backends the cell
// has:
//
//   moments   maxent estimate + RttBound-certified value interval
//             (core/bounds.h CertifiedQuantileInterval);
//   KLL       rank-sketch estimate + deterministic rank-error interval
//             (sketches/kll_sketch.h CertifiedInterval);
//   both      the intersection — two sound certificates intersect to a
//             sound (and tighter) certificate.
//
// The solve path is a bounded retry/fallback chain; no query ever
// returns an unbounded-error or failed answer on non-empty data:
//
//   0. certificates for every phi first, from one RttBounder (the
//      moment bounds' invariants are built once per query); when the
//      moment and KLL enclosures are disjoint — which proves the moment
//      one wrong — the KLL enclosure is kept and counted in
//      RouterStats::certificate_conflicts;
//   1. conditioning pre-screen: Hankel condition number above
//      kappa_route with a KLL present routes straight to KLL;
//   2. without a hint (and with MaxEntOptions::use_solver_cache) the
//      process-wide solver cache first, a cold solve published to it on
//      a miss; with a hint, a warm solve that neither reads nor writes
//      the cache. Inside SolveMaxEnt: cold restart on seed failure ->
//      drop-moments backoff;
//   3. solver refused/diverged: atomic-fit estimate (near-discrete
//      cells), still certified by the moment bounds;
//   4. atomic fit inapplicable: KLL estimate when present;
//   5. last resort: the midpoint of the certified moment interval —
//      the bounds themselves never fail on a non-empty sketch.
//
// The only error a caller can see is an empty input. Everything else is
// an estimate inside a certificate.
#ifndef MSKETCH_CUBE_SUMMARY_ROUTER_H_
#define MSKETCH_CUBE_SUMMARY_ROUTER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/bounds.h"
#include "core/maxent_solver.h"
#include "core/moments_sketch.h"
#include "cube/cube_types.h"
#include "sketches/kll_sketch.h"

namespace msketch {

/// Which backend produced the point estimate of an answer.
enum class QuantileBackend : uint8_t {
  kMoments = 0,     // maxent density estimate
  kKll = 1,         // rank-sketch estimate (routed or fallback)
  kAtomic = 2,      // atomic-fit estimate (near-discrete cell)
  kBounds = 3,      // certified-interval midpoint (last resort)
  kDegenerate = 4,  // point-mass cell (exact)
};
const char* QuantileBackendName(QuantileBackend backend);

struct RouterOptions {
  MaxEntOptions maxent;
  /// Hankel condition number above which the maxent solve is skipped
  /// outright when a KLL backend exists (the solve would diverge or fit
  /// garbage; the conditioning monitor routes around it). The paper's
  /// kappa_max (1e4) gates per-moment selection; this gates the whole
  /// solve, so it is orders looser.
  double kappa_route = 1e12;
  /// Bisection probes per certified-interval endpoint (each one RttBound
  /// evaluation).
  int interval_steps = 24;
};

/// One certified quantile answer. `interval` always encloses the true
/// phi-quantile of the queried data; `estimate` always lies inside it.
struct CertifiedQuantile {
  double estimate = 0.0;
  QuantileInterval interval;
  QuantileBackend backend = QuantileBackend::kMoments;
  /// True on every answer over non-empty data (the router's contract);
  /// false only when `status` is non-OK (empty input).
  bool certified = false;
  Status status;
};

/// Cumulative router decisions + the solver degradation counters the
/// answers absorbed (satellite surface of QueryStats/BatchStats).
struct RouterStats {
  uint64_t queries = 0;
  uint64_t moments_answers = 0;
  uint64_t kll_answers = 0;
  uint64_t atomic_answers = 0;
  uint64_t bounds_fallbacks = 0;
  uint64_t degenerate_answers = 0;
  uint64_t intersected_certificates = 0;  // moments interval ∩ KLL interval
  /// Moment and KLL certificates that were disjoint; the answer kept the
  /// KLL enclosure (two sound enclosures always overlap).
  uint64_t certificate_conflicts = 0;
  uint64_t conditioning_rejects = 0;  // pre-screen skipped the solve
  uint64_t solver_failures = 0;       // maxent refused/diverged (absorbed)
  uint64_t warm_solves = 0;
  uint64_t cold_solves = 0;
  /// Hint-free solves answered by the global solver cache (counted in
  /// neither warm_solves nor cold_solves).
  uint64_t solver_cache_hits = 0;
  uint64_t cold_restarts = 0;
  uint64_t iteration_capped = 0;
  uint64_t atomic_screen_hits = 0;

  void MergeFrom(const RouterStats& other) {
    queries += other.queries;
    moments_answers += other.moments_answers;
    kll_answers += other.kll_answers;
    atomic_answers += other.atomic_answers;
    bounds_fallbacks += other.bounds_fallbacks;
    degenerate_answers += other.degenerate_answers;
    intersected_certificates += other.intersected_certificates;
    certificate_conflicts += other.certificate_conflicts;
    conditioning_rejects += other.conditioning_rejects;
    solver_failures += other.solver_failures;
    warm_solves += other.warm_solves;
    cold_solves += other.cold_solves;
    solver_cache_hits += other.solver_cache_hits;
    cold_restarts += other.cold_restarts;
    iteration_capped += other.iteration_capped;
    atomic_screen_hits += other.atomic_screen_hits;
  }
};

/// Stateless apart from stats; one instance per query pipeline (not
/// thread-safe — shard like the batch pipeline does).
class SummaryRouter {
 public:
  explicit SummaryRouter(RouterOptions options = {});
  /// Publishes the accumulated RouterStats into the process-wide
  /// metrics registry (msk_router_* counter families) — routers are
  /// per-pipeline objects, so their counters roll up at destruction.
  ~SummaryRouter();

  /// Certified phi-quantile from a cell/group's moments sketch plus its
  /// optional KLL rank sketch (nullptr when the cell has none). The two
  /// summaries must cover the same rows — the router intersects their
  /// certificates. `hint` warm-starts the maxent solve; without one, the
  /// solve goes through the process-wide solver cache when
  /// `options.maxent.use_solver_cache` is set.
  CertifiedQuantile Query(const MomentsSketch& moments, const KllSketch* kll,
                          double phi, const WarmStart* hint = nullptr);

  /// Batch form: one backend decision and (at most) one solve shared by
  /// all phis. Results are parallel to `phis`.
  std::vector<CertifiedQuantile> QueryMany(const MomentsSketch& moments,
                                           const KllSketch* kll,
                                           const std::vector<double>& phis,
                                           const WarmStart* hint = nullptr);

  /// Warm-start exported by the last successful maxent solve (invalid
  /// when the last query routed around the solver). Chains cells the way
  /// the batch pipeline chains groups.
  const WarmStart& last_warm_start() const { return last_warm_; }

  const RouterStats& stats() const { return stats_; }
  void ResetStats() { stats_ = RouterStats{}; }

 private:
  /// Certified intervals for every phi: moment bounds (one RttBounder
  /// shared by all phis), intersected with the KLL certificate when
  /// present; the KLL enclosure alone when the two are disjoint.
  std::vector<QuantileInterval> IntervalsFor(const MomentsSketch& moments,
                                             const KllSketch* kll,
                                             const std::vector<double>& phis);

  RouterOptions opt_;
  RouterStats stats_;
  WarmStart last_warm_;
};

class CubeStore;

/// One group's certified quantile answers (parallel to the phis
/// argument). Unlike GroupQuantiles, `answers[i].status` is non-OK only
/// for an empty group — which GROUP BY never produces — so every entry
/// is a certified interval.
struct GroupQuantilesCertified {
  CubeCoords key;
  uint64_t count = 0;
  std::vector<CertifiedQuantile> answers;
};

/// Certified GROUP BY: merges each group's moment columns (and KLL side
/// column when the store carries one) and routes every group through
/// the degradation chain. Groups are visited in ascending key order and
/// warm-start chained like the batch pipeline. `stats` (optional)
/// accumulates the router's decision counters.
std::vector<GroupQuantilesCertified> GroupByQuantilesCertified(
    const CubeStore& store, const std::vector<size_t>& group_dims,
    const std::vector<double>& phis, const RouterOptions& options = {},
    RouterStats* stats = nullptr);

}  // namespace msketch

#endif  // MSKETCH_CUBE_SUMMARY_ROUTER_H_
