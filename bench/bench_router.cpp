// Summary-router bench: per-backend answer latency and certified
// interval width across a smooth + adversarial dataset suite, emitted to
// BENCH_router.json (bench_util JsonReport).
//
// Sections:
//   smooth       healthy cells (uniform / lognormal / gauss-like): the
//                maxent path, with and without a KLL alongside (the KLL
//                column buys certificate tightening; the row records how
//                much interval width it shaves).
//   adversarial  pathological cells (two-atom, discrete, heavy-tail
//                pareto, near-singular, clustered, single-atom): the
//                degradation chain. Every row carries `certified` and
//                `contains_truth` flags — the CI gate
//                (tools/check_router_gate.py) fails if any adversarial
//                answer is uncertified or its certificate misses the
//                true quantile. `backend` is the QuantileBackend enum
//                value of the phi=0.5 answer.
//   Every smooth/adversarial row also carries `certify_us`: the median
//   time of the moment certificate alone (CertifiedQuantileIntervals over
//   the whole phi grid, one RttBounder). The router runs with the solver
//   cache off, so its timings are real solves.
//   counters     one row of cumulative RouterStats over the whole run
//                (solver failures absorbed, conditioning rejects,
//                fallback depths) so a latency regression can be read
//                together with a routing change.
//
// Interval widths are reported relative to the cell's value range
// (width / (max - min)); 0 means exact, 1 means the trivial certificate.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/bounds.h"
#include "core/moments_sketch.h"
#include "cube/summary_router.h"
#include "numerics/stats.h"
#include "sketches/kll_sketch.h"

namespace {

using namespace msketch;
using namespace msketch::bench;

const double kPhiGrid[] = {0.01, 0.1, 0.5, 0.9, 0.99};

std::vector<double> NamedData(const std::string& name, size_t n) {
  Rng rng(0xb0a7ULL + std::hash<std::string>{}(name));
  std::vector<double> out;
  out.reserve(n);
  if (name == "uniform") {
    for (size_t i = 0; i < n; ++i) out.push_back(rng.NextDouble());
  } else if (name == "lognormal") {
    for (size_t i = 0; i < n; ++i) out.push_back(rng.NextLognormal(0.0, 1.0));
  } else if (name == "gauss_mix") {
    for (size_t i = 0; i < n; ++i) {
      out.push_back(rng.NextGaussian() + (i % 2 ? 4.0 : 0.0));
    }
  } else if (name == "two_atom") {
    for (size_t i = 0; i < n; ++i) {
      out.push_back(rng.NextDouble() < 0.6 ? 1.0 : 5.0);
    }
  } else if (name == "discrete") {
    const double levels[] = {1.0, 2.0, 4.0, 8.0, 16.0};
    for (size_t i = 0; i < n; ++i) out.push_back(levels[rng.NextBelow(5)]);
  } else if (name == "pareto_heavy") {
    for (size_t i = 0; i < n; ++i) {
      out.push_back(std::pow(1.0 - rng.NextDouble(), -1.0 / 1.1));
    }
  } else if (name == "near_singular") {
    for (size_t i = 0; i < n; ++i) {
      out.push_back(1.0 + 1e-9 * rng.NextDouble());
    }
  } else if (name == "clustered") {
    for (size_t i = 0; i < n; ++i) {
      const double base = (i % 3 == 0) ? 1e-6 : 1e3;
      out.push_back(base * (1.0 + 1e-7 * rng.NextDouble()));
    }
  } else if (name == "single_atom") {
    for (size_t i = 0; i < n; ++i) out.push_back(42.0);
  }
  return out;
}

struct CellRun {
  std::vector<double> samples_ms;
  std::vector<CertifiedQuantile> answers;  // from the last rep
  double certify_us = 0.0;  // median CertifiedQuantileIntervals time
};

// The router must run with the solver cache off: every rep re-queries
// one sketch, so reps 2..n would otherwise time cache hits, not solves.
CellRun RunCell(SummaryRouter* router, const MomentsSketch& s,
                const KllSketch* kll, int reps) {
  const std::vector<double> phis(kPhiGrid, kPhiGrid + 5);
  CellRun run;
  run.samples_ms = TimeReps(reps, [&] {
    run.answers = router->QueryMany(s, kll, phis);
  });
  std::vector<QuantileInterval> intervals;
  run.certify_us = 1e3 * MedianOf(TimeReps(reps, [&] {
                     intervals = CertifiedQuantileIntervals(
                         s, phis, RouterOptions().interval_steps);
                   }));
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const size_t rows =
      static_cast<size_t>(args.GetU64("rows", 100'000) * args.Scale());
  const int reps = static_cast<int>(args.GetU64("reps", 21));

  JsonReport report("router");
  RouterOptions options;
  options.maxent.use_solver_cache = false;
  SummaryRouter router(options);  // cumulative counters across the suite

  struct Suite {
    const char* section;
    std::vector<const char*> datasets;
  };
  const Suite suites[] = {
      {"smooth", {"uniform", "lognormal", "gauss_mix"}},
      {"adversarial",
       {"two_atom", "discrete", "pareto_heavy", "near_singular", "clustered",
        "single_atom"}},
  };

  for (const Suite& suite : suites) {
    for (const char* name : suite.datasets) {
      std::vector<double> data = NamedData(name, rows);
      MomentsSketch s(10);
      KllSketch kll(64);
      for (double v : data) {
        s.Accumulate(v);
        kll.Accumulate(v);
      }
      std::vector<double> sorted = std::move(data);
      std::sort(sorted.begin(), sorted.end());
      const double range = std::max(s.max() - s.min(), 1e-300);
      const double slack =
          1e-6 * (std::abs(s.max()) + std::abs(s.min()) + 1.0);

      // Two variants per dataset: moments-only and dual-summary.
      const std::pair<const char*, const KllSketch*> variants[] = {
          {"", nullptr}, {"+kll", &kll}};
      for (const auto& [suffix, side] : variants) {
        CellRun run = RunCell(&router, s, side, reps);
        bool certified = !run.answers.empty();
        bool contains_truth = !run.answers.empty();
        double median_width = 0.0;
        std::vector<double> widths;
        for (size_t i = 0; i < run.answers.size(); ++i) {
          const CertifiedQuantile& a = run.answers[i];
          certified = certified && a.status.ok() && a.certified;
          const double truth = QuantileOfSorted(sorted, kPhiGrid[i]);
          contains_truth = contains_truth && a.interval.lower <= truth + slack &&
                           a.interval.upper >= truth - slack;
          widths.push_back(a.interval.width() / range);
        }
        if (!widths.empty()) median_width = MedianOf(widths);
        const double backend =
            run.answers.empty()
                ? -1.0
                : static_cast<double>(run.answers[2].backend);  // phi = 0.5
        report.Add(suite.section, std::string(name) + suffix, run.samples_ms,
                   {{"rows", static_cast<double>(rows)},
                    {"rel_interval_width_p50", median_width},
                    {"certify_us", run.certify_us},
                    {"backend", backend}},
                   {{"certified", certified},
                    {"contains_truth", contains_truth}});
      }
    }
  }

  const RouterStats& st = router.stats();
  report.Add("counters", "totals", {0.0},
             {{"queries", static_cast<double>(st.queries)},
              {"moments_answers", static_cast<double>(st.moments_answers)},
              {"kll_answers", static_cast<double>(st.kll_answers)},
              {"atomic_answers", static_cast<double>(st.atomic_answers)},
              {"bounds_fallbacks", static_cast<double>(st.bounds_fallbacks)},
              {"degenerate_answers",
               static_cast<double>(st.degenerate_answers)},
              {"intersected_certificates",
               static_cast<double>(st.intersected_certificates)},
              {"certificate_conflicts",
               static_cast<double>(st.certificate_conflicts)},
              {"conditioning_rejects",
               static_cast<double>(st.conditioning_rejects)},
              {"solver_failures", static_cast<double>(st.solver_failures)},
              {"warm_solves", static_cast<double>(st.warm_solves)},
              {"cold_solves", static_cast<double>(st.cold_solves)},
              {"solver_cache_hits",
               static_cast<double>(st.solver_cache_hits)},
              {"iteration_capped", static_cast<double>(st.iteration_capped)},
              {"atomic_screen_hits",
               static_cast<double>(st.atomic_screen_hits)}});
  report.Write();
  return 0;
}
