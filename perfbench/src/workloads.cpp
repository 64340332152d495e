// The three workloads. Each runs in its own process (the process-wide
// solver cache and the peak-RSS counter start fresh) and is built from
// the same phases (harness.h), with a different focus:
//
// Every workload's set-up is the same: inputs from the seed, a cube
// bulk-loaded with them (published by one Flush) and a warm-up.
//
//   ingest_highcard     a fixed number of point queries on the bulk-loaded
//                       cube, then closed-loop ingest rounds into fresh
//                       cubes (the measured phase), each followed by a
//                       resync and a recovery of the round's state.
//   query_dashboard     the closed-loop query client with no writers (the
//                       measured phase), then the GROUP BYs.
//   ingest_while_query  the bulk-loaded cube is reopened under the default
//                       configuration; open-loop writers at a fixed rate
//                       and the closed-loop query client then run at the
//                       same time; the other workloads' checks run on the
//                       final state.
//
// Every end-to-end metric is reported by every workload, measured on
// that workload's own phases (README: "What each metric measures").
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/harness.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr int kSetupReps = 7;
constexpr int kMinRounds = 3;
/// Resyncs and recoveries of a bulk-loaded state alternate, in pairs,
/// for at least this many pairs and this many run lengths in all. Host
/// load comes in bursts of a second or more; samples spread this wide
/// put a burst into a few samples of each median, not into a whole one.
constexpr int kMinMaintenancePairs = 10;
constexpr double kMaintenanceRunLengths = 0.5;
/// The open-loop phase lasts this many run lengths and its freshness is
/// taken per window of half a run length. Publishes stall at checkpoints
/// (every 64 epochs, a few per run length) and whenever a long query pins
/// the spare snapshot buffer, so a phase-wide p99 rests on a few stalls;
/// the median over windows rests on many.
constexpr double kOpenLoopRunLengths = 3.0;
constexpr int kFreshnessWindows = 6;
constexpr size_t kQuerySpecs = 4096;
/// Certified queries checked on the final state after ingest_while_query.
constexpr size_t kFinalCheckQueries = 200;

/// Closed-loop writers: with the publisher, no more threads than cores.
size_t ClosedWriters(size_t nproc) {
  return std::clamp<size_t>(nproc > 1 ? nproc - 1 : 1, 1, kClosedMarkers);
}

/// Open-loop writers: with the publisher and the query client, one
/// thread fewer than cores. The publisher's cadence sets freshness, and a
/// core left free keeps it from waiting for one when the host is busy.
size_t OpenWriters(size_t nproc) {
  return std::clamp<size_t>(nproc > 3 ? nproc - 3 : 1, 1, kOpenMarkers);
}

/// Longest a query stream may run: a bound that keeps a run inside its
/// time limit even if queries get several times slower.
double MaxStreamSeconds(const Context& ctx) { return 6.0 * ctx.seconds; }

std::string LeaderDir(const Context& ctx, int i) {
  return ctx.workdir + "/leader-" + std::to_string(i);
}

void DropLeader(std::unique_ptr<Leader>* leader) {
  if (*leader == nullptr) return;
  const std::string dir = (*leader)->dir();
  leader->reset();
  std::error_code ec;
  fs::remove_all(dir, ec);
}

/// Everything a workload's set-up makes from the seed.
struct Inputs {
  std::unique_ptr<Universe> universe;
  std::unique_ptr<RowStream> round;
  std::unique_ptr<Truth> truth;
};

Inputs MakeInputs(const Context& ctx, size_t writers) {
  Inputs in;
  in.universe = std::make_unique<Universe>(MakeUniverse());
  in.round = std::make_unique<RowStream>(
      MakeRoundStream(*in.universe, ctx.seed, writers));
  in.truth = std::make_unique<Truth>(in.universe.get());
  in.truth->AddStream(*in.round);
  return in;
}

std::unique_ptr<Leader> NewLeader(Context* ctx, const Universe& u, int i,
                                  const msketch::IngestOptions& options) {
  std::error_code ec;
  fs::remove_all(LeaderDir(*ctx, i), ec);
  msketch::Result<std::unique_ptr<Leader>> l =
      Leader::Create(LeaderDir(*ctx, i), u, options, ctx->tracer != nullptr);
  if (!ctx->ops.Count(l.status(), "Leader::Create")) return nullptr;
  return std::move(l).value();
}

/// Set-up shared by the workloads: inputs, a leader bulk-loaded with one
/// round of rows (no background publisher, one Flush), and a warm-up.
/// Repeated kSetupReps times; the last leader is kept, and `setup_s` is
/// the median time.
struct Preloaded {
  Inputs in;
  std::unique_ptr<Leader> leader;
  std::vector<IngestPhase> preloads;
  std::vector<QuerySpec> specs;
  double setup_s = 0.0;
};

bool Preload(Context* ctx, Preloaded* p) {
  // Set-up is not traced inside (per-layer metrics describe the measured
  // phases), and its leaders record no publisher stats.
  Tracer* const tracer = ctx->tracer;
  ctx->tracer = nullptr;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupReps; ++r) {
    DropLeader(&p->leader);
    Span span(tracer, "bench.setup");
    const double t0 = NowS();
    p->in = MakeInputs(*ctx, ClosedWriters(ctx->nproc));
    const double t1 = NowS();
    p->leader = NewLeader(ctx, *p->in.universe, r, Leader::BulkOptions());
    if (p->leader == nullptr) {
      ctx->tracer = tracer;
      return false;
    }
    p->preloads.push_back(RunClosedLoop(ctx, p->leader.get(), *p->in.universe,
                                        *p->in.round,
                                        /*bulk=*/true));
    const double t2 = NowS();
    p->specs = MakeQuerySpecs(ctx->seed, kQuerySpecs);
    WarmUp(ctx, &p->leader->cube(), *p->in.universe);
    setup_s.push_back(NowS() - t0);
    std::fprintf(stderr,
                 "perfbench: set-up %d: inputs %.3f s, bulk load %.3f s, "
                 "warm-up %.3f s\n",
                 r, t1 - t0, t2 - t1, NowS() - t2);
  }
  ctx->tracer = tracer;
  p->setup_s = Median(setup_s);
  ProbeAccumulate(ctx, *p->in.round);
  return true;
}

/// Resync and recovery timings of one leader state.
struct Maintenance {
  std::vector<double> resync_s, recovery_s;
};

/// Alternating resync/recovery pairs on the leader's state after one
/// discarded warm-up pair, for at least `share` of kMinMaintenancePairs
/// and of kMaintenanceRunLengths.
void RunMaintenance(Context* ctx, Leader* leader, double share,
                    Maintenance* m) {
  RunResyncs(ctx, leader, 1);
  RunRecoveries(ctx, leader, 1);
  const double t0 = NowS();
  for (int r = 0; r < share * kMinMaintenancePairs ||
                  NowS() - t0 < share * kMaintenanceRunLengths * ctx->seconds;
       ++r) {
    for (double s : RunResyncs(ctx, leader, 1)) m->resync_s.push_back(s);
    for (double s : RunRecoveries(ctx, leader, 1)) {
      m->recovery_s.push_back(s);
    }
  }
}

void ReportMaintenance(Context* ctx, const Maintenance& m) {
  ctx->report.Set("resync_s", Median(m.resync_s), "s");
  ctx->report.Set("recovery_s", Median(m.recovery_s), "s");
}

}  // namespace

void RunIngestHighcard(Context* ctx) {
  Preloaded p;
  if (!Preload(ctx, &p)) return;
  ctx->report.Set("setup_s", p.setup_s, "s");
  const Universe& u = *p.in.universe;
  CheckCells(ctx, &p.leader->cube(), u, *p.in.truth);

  // The query side stays idle during the rounds. Its metrics come from a
  // fixed number of queries first, on the bulk-loaded rows (one epoch, so
  // the state is a function of the seed alone).
  msketch::StreamingCube* cube = &p.leader->cube();
  const QueryStream q = RunQueryStream(ctx, cube, u, p.specs, 0.0,
                                       kMinCertifiedSamples,
                                       MaxStreamSeconds(*ctx));
  ReportQueries(ctx, q);
  std::vector<double> rank_errors;
  CheckStream(ctx, q, *cube, u, p.specs, p.in.truth.get(), &rank_errors);
  CheckRankError(ctx, rank_errors);
  DropLeader(&p.leader);

  // Measured phase: whole ingest rounds into fresh durable cubes with the
  // default configuration, each followed by one resync and one recovery
  // of the round's state (the epoch layout, and so the replay work,
  // differs from round to round).
  std::vector<IngestPhase> rounds;
  std::vector<double> resync_s, recovery_s;
  std::unique_ptr<Leader> leader;
  double ingest_s = 0.0;
  for (int r = 0; r < kMinRounds || ingest_s < ctx->seconds; ++r) {
    DropLeader(&leader);
    leader = NewLeader(ctx, u, r, Leader::Options());
    if (leader == nullptr) return;
    rounds.push_back(RunClosedLoop(ctx, leader.get(), u, *p.in.round,
                                   /*bulk=*/false));
    ingest_s += rounds.back().seconds;
    for (double s : RunResyncs(ctx, leader.get(), 1)) resync_s.push_back(s);
    for (double s : RunRecoveries(ctx, leader.get(), 1)) {
      recovery_s.push_back(s);
    }
  }
  ReportIngest(ctx, rounds);
  ctx->report.Set("resync_s", Median(resync_s), "s");
  ctx->report.Set("recovery_s", Median(recovery_s), "s");
  CheckCells(ctx, &leader->cube(), u, *p.in.truth);
  DropLeader(&leader);
}

void RunQueryDashboard(Context* ctx) {
  Preloaded p;
  if (!Preload(ctx, &p)) return;
  ctx->report.Set("setup_s", p.setup_s, "s");
  ReportIngest(ctx, p.preloads);
  CheckCells(ctx, &p.leader->cube(), *p.in.universe, *p.in.truth);
  // Resync and recovery are timed in two halves, before the query client
  // and after the GROUP BYs, so that their samples span the whole run.
  Maintenance m;
  RunMaintenance(ctx, p.leader.get(), 0.5, &m);

  // Measured phase: the closed-loop client, no writers running.
  msketch::StreamingCube* cube = &p.leader->cube();
  const QueryStream q =
      RunQueryStream(ctx, cube, *p.in.universe, p.specs, ctx->seconds,
                     kMinCertifiedSamples, MaxStreamSeconds(*ctx));
  ReportQueries(ctx, q);
  std::vector<double> rank_errors;
  CheckStream(ctx, q, *cube, *p.in.universe, p.specs, p.in.truth.get(),
              &rank_errors);
  RunGroupBys(ctx, cube, *p.in.universe, p.in.truth.get(), &rank_errors);
  CheckRankError(ctx, rank_errors);
  RunMaintenance(ctx, p.leader.get(), 0.5, &m);
  ReportMaintenance(ctx, m);
  DropLeader(&p.leader);
}

void RunIngestWhileQuery(Context* ctx) {
  Preloaded p;
  if (!Preload(ctx, &p)) return;
  // Resync and recovery are timed on the bulk-loaded state: the final
  // state's WAL tail since the last checkpoint (every 64 epochs) depends
  // on where the run stops, and with it the replay work.
  {
    Maintenance m;
    RunMaintenance(ctx, p.leader.get(), 1.0, &m);
    ReportMaintenance(ctx, m);
  }

  // The bulk load's chunks are sized to the working set; the measured
  // phase runs under the default configuration, so the leader is reopened
  // with it (Recover of its directory) and warmed up again. This is
  // set-up work too.
  {
    Span span(ctx->tracer, "bench.setup");
    const double t0 = NowS();
    msketch::Result<std::unique_ptr<Leader>> reopened =
        Leader::Reopen(std::move(p.leader), *p.in.universe, Leader::Options(),
                       ctx->tracer != nullptr);
    if (!ctx->ops.Count(reopened.status(), "Leader::Reopen")) return;
    p.leader = std::move(reopened).value();
    WarmUp(ctx, &p.leader->cube(), *p.in.universe);
    ctx->report.Set("setup_s", p.setup_s + (NowS() - t0), "s");
  }

  // Measured phase: open-loop writers and the closed-loop client at once.
  msketch::StreamingCube* cube = &p.leader->cube();
  std::atomic<bool> stop{false};
  QueryStream q;
  std::vector<std::vector<Batch>> appended;
  const IngestPhase open = RunOpenLoop(
      ctx, p.leader.get(), *p.in.universe, OpenWriters(ctx->nproc), &stop,
      [&] {
        q = RunQueryStream(ctx, cube, *p.in.universe, p.specs,
                           kOpenLoopRunLengths * ctx->seconds,
                           kMinCertifiedSamples, MaxStreamSeconds(*ctx));
        stop.store(true, std::memory_order_release);
      },
      &appended);
  for (const std::vector<Batch>& batches : appended) {
    for (const Batch& b : batches) p.in.truth->AddBatch(b);
  }
  appended.clear();
  ReportIngest(ctx, {open}, kFreshnessWindows);
  ReportQueries(ctx, q);
  CheckCertifiedOnly(ctx, q);

  // After the final Flush the other workloads' checks hold on the final
  // state.
  CheckCells(ctx, &p.leader->cube(), *p.in.universe, *p.in.truth);
  RunResyncs(ctx, p.leader.get(), 1);
  RunRecoveries(ctx, p.leader.get(), 1);
  const QueryStream final_q =
      RunQueryStream(ctx, cube, *p.in.universe, p.specs, 0.0,
                     kFinalCheckQueries, MaxStreamSeconds(*ctx));
  std::vector<double> rank_errors;
  CheckStream(ctx, final_q, *cube, *p.in.universe, p.specs, p.in.truth.get(),
              &rank_errors);
  RunGroupBys(ctx, cube, *p.in.universe, p.in.truth.get(), &rank_errors);
  CheckRankError(ctx, rank_errors);
  DropLeader(&p.leader);
}

}  // namespace perfbench
