#include "cube/summary_router.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>

#include "core/atomic_fit.h"
#include "core/solver_cache.h"
#include "cube/cube_store.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace msketch {
namespace {

double Clamp(double v, double lo, double hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

obs::Counter* BackendCounter(const char* backend) {
  return obs::GlobalRegistry().GetCounter(
      "msk_router_answers_total", {{"backend", backend}},
      "Certified answers by producing backend");
}

// Rolls a router's accumulated decision counters into the global
// registry. Called from the destructor: routers are per-pipeline
// objects, so this runs once per query pipeline, not per answer.
void PublishRouterStats(const RouterStats& s) {
  if (s.queries == 0) return;
  obs::MetricsRegistry& reg = obs::GlobalRegistry();
  static obs::Counter* const queries = reg.GetCounter(
      "msk_router_queries_total", {}, "Quantile answers routed");
  static obs::Counter* const moments = BackendCounter("moments");
  static obs::Counter* const kll = BackendCounter("kll");
  static obs::Counter* const atomic_c = BackendCounter("atomic");
  static obs::Counter* const bounds = BackendCounter("bounds");
  static obs::Counter* const degenerate = BackendCounter("degenerate");
  static obs::Counter* const intersected = reg.GetCounter(
      "msk_router_intersected_certificates_total", {},
      "Certificates tightened by moments ∩ KLL intersection");
  static obs::Counter* const cond_rejects = reg.GetCounter(
      "msk_router_conditioning_rejects_total", {},
      "Solves skipped by the Hankel conditioning pre-screen");
  static obs::Counter* const solver_failures = reg.GetCounter(
      "msk_router_solver_failures_total", {},
      "Maxent refusals/divergences absorbed by the degradation chain");
  static obs::Counter* const warm = reg.GetCounter(
      "msk_router_warm_solves_total", {}, "Warm-started maxent solves");
  static obs::Counter* const cold = reg.GetCounter(
      "msk_router_cold_solves_total", {}, "Cold maxent solves");
  static obs::Counter* const cold_restarts = reg.GetCounter(
      "msk_router_cold_restarts_total", {},
      "Cold restarts inside warm solves");
  static obs::Counter* const iter_capped = reg.GetCounter(
      "msk_router_iteration_capped_total", {},
      "Solves that hit the Newton iteration cap");
  static obs::Counter* const atomic_screen = reg.GetCounter(
      "msk_router_atomic_screen_hits_total", {},
      "Solver refusals due to the atomic (near-discrete) screen");
  static obs::Counter* const cache_hits = reg.GetCounter(
      "msk_router_solver_cache_hits_total", {},
      "Hint-free solves answered from the global solver cache");
  static obs::Counter* const conflicts = reg.GetCounter(
      "msk_router_certificate_conflicts_total", {},
      "Disjoint moment and KLL certificates (KLL enclosure kept)");
  queries->Add(s.queries);
  moments->Add(s.moments_answers);
  kll->Add(s.kll_answers);
  atomic_c->Add(s.atomic_answers);
  bounds->Add(s.bounds_fallbacks);
  degenerate->Add(s.degenerate_answers);
  intersected->Add(s.intersected_certificates);
  cond_rejects->Add(s.conditioning_rejects);
  solver_failures->Add(s.solver_failures);
  warm->Add(s.warm_solves);
  cold->Add(s.cold_solves);
  cold_restarts->Add(s.cold_restarts);
  iter_capped->Add(s.iteration_capped);
  atomic_screen->Add(s.atomic_screen_hits);
  cache_hits->Add(s.solver_cache_hits);
  conflicts->Add(s.certificate_conflicts);
}

}  // namespace

const char* QuantileBackendName(QuantileBackend backend) {
  switch (backend) {
    case QuantileBackend::kMoments:
      return "moments";
    case QuantileBackend::kKll:
      return "kll";
    case QuantileBackend::kAtomic:
      return "atomic";
    case QuantileBackend::kBounds:
      return "bounds";
    case QuantileBackend::kDegenerate:
      return "degenerate";
  }
  return "unknown";
}

SummaryRouter::SummaryRouter(RouterOptions options) : opt_(options) {}

SummaryRouter::~SummaryRouter() { PublishRouterStats(stats_); }

std::vector<QuantileInterval> SummaryRouter::IntervalsFor(
    const MomentsSketch& moments, const KllSketch* kll,
    const std::vector<double>& phis) {
  obs::Span span("query.certify");
  std::vector<QuantileInterval> ivs =
      CertifiedQuantileIntervals(moments, phis, opt_.interval_steps);
  if (kll == nullptr || kll->count() == 0) return ivs;
  for (size_t i = 0; i < phis.size(); ++i) {
    auto kiv = kll->CertifiedInterval(phis[i]);
    if (!kiv.ok()) continue;
    // Two sound enclosures of the true quantile overlap, and their
    // intersection is sound too. Disjoint enclosures prove one of them
    // wrong: the KLL one is a deterministic rank certificate, while the
    // moment bounds are known to miss on some discrete and wide-mixture
    // selections (core/bounds.cpp), so the KLL enclosure wins.
    QuantileInterval& iv = ivs[i];
    const double lo = std::max(iv.lower, kiv.value().lower);
    const double hi = std::min(iv.upper, kiv.value().upper);
    if (lo > hi) {
      ++stats_.certificate_conflicts;
      iv = {kiv.value().lower, kiv.value().upper};
      continue;
    }
    if (lo > iv.lower || hi < iv.upper) ++stats_.intersected_certificates;
    iv.lower = lo;
    iv.upper = hi;
  }
  return ivs;
}

CertifiedQuantile SummaryRouter::Query(const MomentsSketch& moments,
                                       const KllSketch* kll, double phi,
                                       const WarmStart* hint) {
  std::vector<CertifiedQuantile> out =
      QueryMany(moments, kll, std::vector<double>{phi}, hint);
  return out.front();
}

std::vector<CertifiedQuantile> SummaryRouter::QueryMany(
    const MomentsSketch& moments, const KllSketch* kll,
    const std::vector<double>& phis, const WarmStart* hint) {
  obs::Span span("query.router");
  std::vector<CertifiedQuantile> out(phis.size());
  stats_.queries += phis.size();

  if (moments.count() == 0) {
    for (auto& r : out) {
      r.status = Status::InvalidArgument("SummaryRouter: empty cell");
    }
    return out;
  }

  // Point-mass cell: the answer is exact; no backend needed.
  if (moments.min() >= moments.max()) {
    for (auto& r : out) {
      r.estimate = moments.min();
      r.interval = {moments.min(), moments.min()};
      r.backend = QuantileBackend::kDegenerate;
      r.certified = true;
      ++stats_.degenerate_answers;
    }
    return out;
  }

  // Certificates first: they hold no matter which estimator answers.
  // Certified-interval widths feed a mergeable histogram — the width
  // distribution is the router's accuracy story, and a mean would hide
  // the wide-interval tail exactly where degradation kicks in.
  static obs::Histogram* const width_hist =
      obs::GlobalRegistry().GetHistogram(
          "msk_router_interval_width", {},
          "Certified-interval widths (upper - lower) per answer",
          obs::HistogramUnit::kValue);
  const std::vector<QuantileInterval> intervals =
      IntervalsFor(moments, kll, phis);
  for (size_t i = 0; i < phis.size(); ++i) {
    out[i].interval = intervals[i];
    out[i].certified = true;
    width_hist->Observe(out[i].interval.upper - out[i].interval.lower);
  }

  const bool kll_usable = kll != nullptr && kll->count() > 0;

  // Conditioning pre-screen: a moment vector near the boundary of the
  // moment cone makes the maxent solve diverge or fit garbage. When a
  // rank sketch exists, skip the solve instead of paying for its failure.
  if (kll_usable) {
    const double cond = HankelConditionNumber(moments);
    if (!(cond <= opt_.kappa_route)) {
      ++stats_.conditioning_rejects;
      for (size_t i = 0; i < phis.size(); ++i) {
        auto est = kll->EstimateQuantile(phis[i]);
        out[i].estimate = Clamp(est.ok() ? est.value()
                                         : 0.5 * (out[i].interval.lower +
                                                  out[i].interval.upper),
                                out[i].interval.lower, out[i].interval.upper);
        out[i].backend = QuantileBackend::kKll;
        ++stats_.kll_answers;
      }
      return out;
    }
  }

  // Primary path: maximum entropy solve (warm -> cold -> drop-moments
  // backoff happen inside SolveMaxEnt; we only see success or refusal).
  // A hint-free solve goes through the process-wide solver cache, so a
  // re-polled selection costs a lookup; a hinted solve bypasses it, which
  // keeps every answer a function of the sketch alone, whatever chain of
  // queries came before.
  std::shared_ptr<const MaxEntDistribution> dist;
  Status solve_status;
  {
    obs::Span solve_span("query.solve");
    const WarmStart* seed = hint != nullptr && hint->valid() ? hint : nullptr;
    const bool cached = seed == nullptr && opt_.maxent.use_solver_cache;
    std::string key;
    if (cached) dist = GlobalSolverCache().Lookup(moments, opt_.maxent, &key);
    if (dist != nullptr) {
      ++stats_.solver_cache_hits;
    } else {
      auto solved = SolveMaxEnt(moments, opt_.maxent, seed);
      if (solved.ok()) {
        const MaxEntDiagnostics& diag = solved.value().diagnostics();
        if (diag.warm_started) {
          ++stats_.warm_solves;
        } else {
          ++stats_.cold_solves;
        }
        stats_.cold_restarts += static_cast<uint64_t>(diag.cold_restarts);
        stats_.iteration_capped +=
            static_cast<uint64_t>(diag.iteration_capped);
        dist = std::make_shared<const MaxEntDistribution>(
            std::move(solved).value());
        if (cached) GlobalSolverCache().InsertWithKey(std::move(key), dist);
      } else {
        solve_status = solved.status();
      }
    }
  }
  if (dist != nullptr) {
    last_warm_ = dist->warm_start();
    for (size_t i = 0; i < phis.size(); ++i) {
      out[i].estimate = Clamp(dist->Quantile(phis[i]), out[i].interval.lower,
                              out[i].interval.upper);
      out[i].backend = QuantileBackend::kMoments;
      ++stats_.moments_answers;
    }
    return out;
  }

  // Solver refused or diverged past its own retries. Absorb the failure
  // and degrade: the certificates above already hold.
  ++stats_.solver_failures;
  if (solve_status.message().find("atomic") != std::string::npos) {
    ++stats_.atomic_screen_hits;
  }

  auto atomic = FitAtomicDistribution(moments);
  if (atomic.ok()) {
    for (size_t i = 0; i < phis.size(); ++i) {
      out[i].estimate = Clamp(atomic.value().Quantile(phis[i]),
                              out[i].interval.lower, out[i].interval.upper);
      out[i].backend = QuantileBackend::kAtomic;
      ++stats_.atomic_answers;
    }
    return out;
  }

  if (kll_usable) {
    for (size_t i = 0; i < phis.size(); ++i) {
      auto est = kll->EstimateQuantile(phis[i]);
      out[i].estimate = Clamp(est.ok() ? est.value()
                                       : 0.5 * (out[i].interval.lower +
                                                out[i].interval.upper),
                              out[i].interval.lower, out[i].interval.upper);
      out[i].backend = QuantileBackend::kKll;
      ++stats_.kll_answers;
    }
    return out;
  }

  // Last resort: the certificate's own midpoint. Worst-case error is half
  // the interval width — still bounded, still certified.
  for (auto& r : out) {
    r.estimate = 0.5 * (r.interval.lower + r.interval.upper);
    r.backend = QuantileBackend::kBounds;
    ++stats_.bounds_fallbacks;
  }
  return out;
}

std::vector<GroupQuantilesCertified> GroupByQuantilesCertified(
    const CubeStore& store, const std::vector<size_t>& group_dims,
    const std::vector<double>& phis, const RouterOptions& options,
    RouterStats* stats) {
  // Ascending-key group map: deterministic visit order makes the
  // warm-start chain (and therefore the stats) reproducible.
  std::map<CubeCoords, std::vector<uint32_t>> groups;
  const uint32_t num_cells = static_cast<uint32_t>(store.num_cells());
  for (uint32_t id = 0; id < num_cells; ++id) {
    const CubeCoords& coords = store.CoordsOf(id);
    CubeCoords key(group_dims.size());
    for (size_t g = 0; g < group_dims.size(); ++g) {
      key[g] = coords[group_dims[g]];
    }
    groups[key].push_back(id);
  }

  SummaryRouter router(options);
  std::vector<GroupQuantilesCertified> out;
  out.reserve(groups.size());
  bool have_warm = false;
  for (const auto& [key, ids] : groups) {
    GroupQuantilesCertified g;
    g.key = key;
    const MomentsSketch moments = store.MergeCells(ids.data(), ids.size());
    g.count = moments.count();
    KllSketch kll;
    const KllSketch* kll_ptr = nullptr;
    if (store.kll_enabled()) {
      Result<KllSketch> merged = store.MergeKllCells(ids.data(), ids.size());
      if (merged.ok()) {
        kll = std::move(merged).value();
        kll_ptr = &kll;
      }
    }
    const WarmStart* hint =
        have_warm && router.last_warm_start().valid() ? &router.last_warm_start()
                                                      : nullptr;
    g.answers = router.QueryMany(moments, kll_ptr, phis, hint);
    have_warm = true;
    out.push_back(std::move(g));
  }
  if (stats != nullptr) stats->MergeFrom(router.stats());
  return out;
}

}  // namespace msketch
