// Shared pieces of the repository benchmark: seeded input generation,
// the leader cube under test, the ingest / query / resync / recovery
// phases every workload is built from, the checks against the oracle,
// and result reporting. The workloads themselves are in workloads.cpp.
#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "cube/cube_store.h"
#include "datasets/datasets.h"
#include "ingest/streaming_cube.h"
#include "oracle/oracle.h"
#include "replica/replication_source.h"
#include "src/trace.h"

namespace perfbench {

// ------------------------------------------------------------ constants

/// Sketch order (the paper's default) and cube shape: tenant x endpoint
/// x host, 200 x 12 x 10 = 24,000 cells — more than one shard's default
/// delta chunk (2,048 cells) holds, so every write-side layer works at
/// high cardinality. GROUP BY tenant yields 200 groups (plus markers).
constexpr int kK = 10;
constexpr size_t kDims = 3;
constexpr uint32_t kTenants = 200;
constexpr uint32_t kEndpoints = 12;
constexpr uint32_t kHosts = 10;
constexpr uint32_t kRegularCells = kTenants * kEndpoints * kHosts;
/// Marker cells, one per writer: writer-0..2 for closed-loop phases and
/// stream-0..1 for the open-loop phase (see Leader).
constexpr uint32_t kClosedMarkers = 3;
constexpr uint32_t kOpenMarkers = 2;
constexpr uint32_t kMarkers = kClosedMarkers + kOpenMarkers;
/// Rows per closed-loop ingest round (12.5 per cell) and per batch.
constexpr size_t kRoundRows = 300000;
constexpr size_t kBatchRows = 256;
/// Open-loop phase: aggregate rate and batch size.
constexpr double kOpenLoopRowsPerS = 40000.0;
constexpr size_t kOpenBatchRows = 200;
/// Quantiles asked by point queries and GROUP BYs.
constexpr std::array<double, 3> kPhis = {0.5, 0.9, 0.99};
/// Known certificate fault (README, "Known fault"): the run fails when
/// more than this share of the oracle-checked certified answers hit it.
constexpr double kMaxKnownMissShare = 0.02;
/// Threshold query: phi and the global quantile that fixes t.
constexpr double kThresholdPhi = 0.99;
constexpr double kThresholdGlobalPhi = 0.95;
/// Accuracy bounds the checks apply (README: tied to the paper's
/// eps_avg ~ 0.01 operating point).
constexpr double kMeanRankErrorBound = 0.02;
constexpr double kThresholdRankTolerance = 0.02;
constexpr double kPowerSumRelTol = 1e-9;
/// Samples the certified-query latency p99 needs in every run.
constexpr size_t kMinCertifiedSamples = 1500;
/// Plain QueryWhere merges per certified query in the query stream.
constexpr size_t kWherePerStep = 8;
/// In the traced run, every kProbeEvery-th step is followed by probes of
/// its parts (keeps the traced run within its time limit).
constexpr size_t kProbeEvery = 4;

// --------------------------------------------------------------- basics

double NowS();  // steady clock, seconds since process start
double Median(std::vector<double> v);
/// Nearest-rank percentile (p in [0, 1]) of a non-empty sample.
double Percentile(std::vector<double> v, double p);

/// xoshiro256** seeded through splitmix64: the benchmark's own stream for
/// cell draws and the query sequence. Values come from the repository's
/// dataset generators (ValueStream).
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t Next();
  double Uniform();  // [0, 1)
  uint64_t Below(uint64_t n);

 private:
  uint64_t s_[4];
};

/// Derives an independent stream seed from the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

// --------------------------------------------------------------- inputs

/// The value universe: dimension strings, per-tenant value shape, and
/// the cell numbering the oracle uses (regular cells, then markers).
struct Universe {
  std::vector<std::vector<std::string>> dim_values;  // [kDims][...]
  std::vector<double> tenant_scale;
  std::vector<bool> tenant_discrete;  // retail-shaped tenants
  std::vector<std::unordered_map<std::string, uint32_t>> index_of;

  static constexpr uint32_t num_cells() { return kRegularCells + kMarkers; }
  std::array<uint32_t, 3> CellCoords(uint32_t cell) const;
  /// Oracle cell of value indices (a, b, c); ~0u when no such cell.
  uint32_t CellOf(uint32_t a, uint32_t b, uint32_t c) const;
  static uint32_t MarkerCell(uint32_t marker) { return kRegularCells + marker; }
  std::vector<std::string> CellStrings(uint32_t cell) const;
};

/// The universe is fixed (not drawn from the seed): the workload's shape
/// — which tenants are large, which are discrete — is part of its
/// definition, and only the samples drawn from it vary with the seed.
Universe MakeUniverse();

/// An endless stream of one repository dataset's values
/// (msketch::GenerateDataset), generated in seeded blocks.
class ValueStream {
 public:
  ValueStream(msketch::DatasetId id, uint64_t seed) : id_(id), seed_(seed) {}
  double Next();

 private:
  msketch::DatasetId id_;
  uint64_t seed_;
  uint64_t block_ = 0;
  size_t pos_ = 0;
  std::vector<double> values_;
};

/// The value streams one generator thread draws from.
struct ValueSource {
  explicit ValueSource(uint64_t seed);
  ValueStream milan;
  ValueStream retail;
};

/// One value of the given tenant's shape: the repository's milan
/// generator scaled by the tenant's scale, or its retail generator
/// unscaled for the retail-shaped tenants.
double DrawValue(const Universe& u, uint32_t tenant, ValueSource* values);
/// A uniformly drawn regular cell.
uint32_t DrawCell(Rng* rng);

/// One append call's rows, compact: the string rows are filled in just
/// before the call (FillRows), so the generated inputs stay small and
/// peak RSS is mostly the engine's.
struct Batch {
  std::vector<double> values;
  std::vector<uint32_t> cells;  // oracle cell per row
  size_t size() const { return values.size(); }
};

/// The string rows of a batch, written into `rows` (reused across calls).
void FillRows(const Universe& u, const Batch& b,
              std::vector<std::vector<std::string>>* rows);

/// Builds one batch: `n - 1` uniform rows plus the writer's marker row.
Batch MakeBatch(const Universe& u, Rng* rng, ValueSource* values, size_t n,
                uint32_t marker);

/// Pre-generated rows of one closed-loop ingest round, split into
/// per-writer batch lists; writer w owns the cells c with c mod W == w,
/// and each batch ends with the writer's marker row.
struct RowStream {
  std::vector<std::vector<Batch>> per_writer;
  uint64_t rows = 0;
};
RowStream MakeRoundStream(const Universe& u, uint64_t seed, size_t writers);

/// Exact state of everything appended to one cube, for the checks.
class Truth {
 public:
  explicit Truth(const Universe* u);
  void Add(uint32_t cell, double x);
  void AddBatch(const Batch& b);
  void AddStream(const RowStream& s);
  uint64_t rows() const { return rows_; }
  const oracle::Summary& cell(uint32_t c) const { return summaries_[c]; }
  /// Sorted values of the cells matching a filter of value indices
  /// (-1 = any). Cached: dashboards repeat filters.
  const std::vector<double>& Selection(const std::array<int, 3>& filter);
  /// Sorted values of every row.
  std::vector<double> AllValues() const;

 private:
  const Universe* u_;
  uint64_t rows_ = 0;
  std::vector<oracle::Summary> summaries_;
  std::vector<std::vector<double>> values_;
  std::map<std::array<int, 3>, std::vector<double>> selection_cache_;
};

// ---------------------------------------------------------- bookkeeping

/// Operations attempted and failed (every Status the engine returns).
class Ops {
 public:
  /// Counts one operation; returns st.ok().
  bool Count(const msketch::Status& st, const char* what);
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::mutex mu_;
  int reported_ = 0;  // guarded by mu_
};

/// Correctness verdict: the first faults are kept for the log.
class Checks {
 public:
  /// Records a fault when `fault` is non-empty; returns fault.empty().
  bool Expect(const std::string& fault, const std::string& context);
  bool ok() const { return faults_ == 0; }

 private:
  std::mutex mu_;
  uint64_t faults_ = 0;
};

/// A run's metrics, by name, with units.
struct Report {
  MetricMap metrics;
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
};

struct Context {
  uint64_t seed = 0;
  double seconds = 10.0;
  std::string workdir;
  Tracer* tracer = nullptr;  // null in the untraced run
  /// Certified answers checked against the oracle, and those among them
  /// that miss the exact quantile because of the known moment-certificate
  /// fault (see CheckStream and CheckKnownMisses).
  std::atomic<uint64_t> certified_checked{0};
  std::atomic<uint64_t> known_certificate_misses{0};
  size_t nproc = 1;
  Ops ops;
  Checks checks;
  Report report;
};

// --------------------------------------------------------------- leader

/// The cube under test: KLL side column on, per-epoch-fsync durability
/// and the replication tee on, every other IngestOptions field at its
/// default. An epoch sink records, for every publish, the time and each
/// writer's published marker count (freshness is read from these).
class Leader {
 public:
  struct PublishMark {
    double t = 0.0;
    uint64_t epoch = 0;
    uint64_t rows = 0;
    std::array<uint64_t, kMarkers> marker_counts{};
    // PublisherStats of this publish (recorded in traced runs only).
    double publish_ms = 0.0;
    double drain_ms = 0.0;
    double durability_ms = 0.0;
  };

  /// The configuration under test.
  static msketch::IngestOptions Options();
  /// Options() with chunks sized to the working set, for bulk loads that
  /// run without a drainer and publish with one Flush.
  static msketch::IngestOptions BulkOptions();
  static msketch::Result<std::unique_ptr<Leader>> Create(
      const std::string& dir, const Universe& u,
      const msketch::IngestOptions& options, bool record_publisher_stats);
  /// Closes `leader` and reopens its directory through
  /// StreamingCube::Recover under `options`, with a fresh replication
  /// source: the same published state under another configuration.
  static msketch::Result<std::unique_ptr<Leader>> Reopen(
      std::unique_ptr<Leader> leader, const Universe& u,
      const msketch::IngestOptions& options, bool record_publisher_stats);
  Leader(const Leader&) = delete;
  Leader& operator=(const Leader&) = delete;

  msketch::StreamingCube& cube() { return *cube_; }
  msketch::ReplicationSource& source() { return *source_; }
  const std::string& dir() const { return dir_; }
  const msketch::IngestOptions& options() const { return options_; }
  /// Publish marks so far. Read only while no publish can run.
  const std::vector<PublishMark>& marks() const { return marks_; }

 private:
  Leader() = default;
  /// Wires the replication tee, the marker filters and the epoch sink.
  msketch::Status Wire(const Universe& u);
  void OnPublish(const msketch::CubeSnapshot& snap);

  std::string dir_;
  msketch::IngestOptions options_;
  bool record_publisher_stats_ = false;
  std::array<msketch::CubeFilter, kMarkers> marker_filters_;
  std::vector<PublishMark> marks_;  // appended by the epoch sink only
  // The source must outlive the cube that tees into it.
  std::unique_ptr<msketch::ReplicationSource> source_;
  std::unique_ptr<msketch::StreamingCube> cube_;
};

// --------------------------------------------------------------- phases

/// What one ingest phase measured.
struct IngestPhase {
  double seconds = 0.0;  // first append -> the Flush covering every row
  uint64_t rows = 0;
  std::vector<double> freshness_ms;
  std::vector<double> freshness_at;  // append-return time of each sample
  std::vector<double> lateness_ms;  // open loop only
  uint64_t wal_bytes = 0;
};

/// Closed-loop writers, one thread each, append the stream's batches
/// while the publisher runs at its default cadence; then a Flush covers
/// every row. A `bulk` load instead appends every writer's batches in
/// turn from the calling thread with no publisher running, and the Flush
/// publishes everything as one epoch: one drain, so the published state
/// is a function of the rows alone (writers own disjoint cells, so each
/// cell sees its rows in the same order either way). One thread keeps
/// the set-up steady on a host whose spare cores come and go.
IngestPhase RunClosedLoop(Context* ctx, Leader* leader, const Universe& u,
                          const RowStream& s, bool bulk);

/// Open-loop writers append at kOpenLoopRowsPerS (aggregate) until
/// `stop` is set, each writer on its own seeded stream; `appended`
/// receives every batch that was appended, in order, per writer.
/// `while_running` runs on the calling thread meanwhile and sets `stop`.
IngestPhase RunOpenLoop(Context* ctx, Leader* leader, const Universe& u,
                        size_t writers, std::atomic<bool>* stop,
                        const std::function<void()>& while_running,
                        std::vector<std::vector<Batch>>* appended);

/// A certified point query and a plain QueryWhere on the same stream.
struct QuerySpec {
  std::array<int, 3> filter;  // value indices, -1 = any
  double phi = 0.5;
};
/// The dashboard's filter mix with skewed popularity: a fixed popularity
/// ranking, and a query sequence and phis drawn from the seed.
std::vector<QuerySpec> MakeQuerySpecs(uint64_t seed, size_t n);

struct CertifiedAnswer {
  size_t spec = 0;
  msketch::CertifiedQuantile answer;
};
struct WhereAnswer {
  size_t spec = 0;
  uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
};
struct QueryStream {
  std::vector<double> certified_us;
  std::vector<double> where_us;
  std::vector<CertifiedAnswer> certified;
  std::vector<WhereAnswer> where;
  bool went_backwards = false;
};

/// Closed-loop client. Each step is one certified point query followed by
/// kWherePerStep plain QueryWhere merges, over `specs` (cyclically);
/// steps repeat until `min_seconds` have passed and at least
/// `min_certified` certified answers exist, or `max_seconds` pass.
QueryStream RunQueryStream(Context* ctx, msketch::StreamingCube* cube,
                           const Universe& u,
                           const std::vector<QuerySpec>& specs,
                           double min_seconds, size_t min_certified,
                           double max_seconds);

/// Oracle checks of a stream run on a quiescent cube: every estimate lies
/// in its interval and every interval holds the exact quantile (but for
/// the known fault, see harness.cpp), every QueryWhere count/min/max is
/// exact.
/// Adds each estimate's rank error to `rank_errors`.
void CheckStream(Context* ctx, const QueryStream& q,
                 const msketch::StreamingCube& cube, const Universe& u,
                 const std::vector<QuerySpec>& specs, Truth* truth,
                 std::vector<double>* rank_errors);

/// Checks of a stream run while rows were arriving (the exact state
/// each answer saw is unknown): every answer certified with its estimate
/// inside its interval, and the published epoch and row count never
/// going backwards.
void CheckCertifiedOnly(Context* ctx, const QueryStream& q);

/// GROUP BY tenant: quantiles (lane path), certified quantiles, and the
/// threshold cascade; timed per group and checked against the oracle.
void RunGroupBys(Context* ctx, msketch::StreamingCube* cube,
                 const Universe& u, Truth* truth,
                 std::vector<double>* rank_errors);

/// Oracle checks of the leader's published state: rows, and per cell
/// count, min, max exactly and power sums within kPowerSumRelTol.
void CheckCells(Context* ctx, msketch::StreamingCube* cube, const Universe& u,
                const Truth& truth);

/// Fresh followers (`reps` of them) sync from the leader; each must end
/// bit-identical to the leader's published state. Returns the seconds
/// from empty follower to caught up, one per successful sync.
std::vector<double> RunResyncs(Context* ctx, Leader* leader, int reps);

/// Recover() on `reps` fresh copies of the leader's directory; each
/// recovered state must be bit-identical to the leader's. Returns the
/// Recover() seconds, one per successful recovery.
std::vector<double> RunRecoveries(Context* ctx, Leader* leader, int reps);

/// Reports the ingest metrics: medians over the phases of the rate and
/// the WAL bytes per row, and medians of the freshness p50 and p99 of
/// each phase split into `windows` equal spans of time.
void ReportIngest(Context* ctx, const std::vector<IngestPhase>& phases,
                  int windows = 1);
void ReportQueries(Context* ctx, const QueryStream& q);

/// Fails the run when the mean rank error of all estimates exceeds
/// kMeanRankErrorBound.
void CheckRankError(Context* ctx, const std::vector<double>& rank_errors);

/// Fails the run when more than kMaxKnownMissShare of the checked
/// certified answers hit the known certificate fault.
void CheckKnownMisses(Context* ctx);

/// Warm-up: a QueryWhere per endpoint (the snapshot's columns and
/// rollups). No certified query: whether a solve stops at the Newton
/// cap depends on the seed, so a few of them made the set-up time vary
/// several-fold between seeds and runs.
void WarmUp(Context* ctx, msketch::StreamingCube* cube, const Universe& u);

/// Traced runs only: AccumulateBatch over the stream's values, one
/// thread (the ingest kernel's ceiling).
void ProbeAccumulate(Context* ctx, const RowStream& s);

/// The three workloads (workloads.cpp). Each fills ctx->report.
void RunIngestHighcard(Context* ctx);
void RunQueryDashboard(Context* ctx);
void RunIngestWhileQuery(Context* ctx);

/// Peak resident set of this process, MB.
double PeakRssMb();
/// Host fingerprint as a JSON object.
std::string HostFingerprint(size_t nproc);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
