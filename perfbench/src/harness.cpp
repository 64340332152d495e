#include "src/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/bytes.h"
#include "core/bounds.h"
#include "core/maxent_solver.h"
#include "core/moments_sketch.h"
#include "cube/summary_router.h"
#include "replica/replica_applier.h"
#include "replica/transport.h"
#include "sketches/kll_sketch.h"

namespace perfbench {

using msketch::BatchOptions;
using msketch::BatchStats;
using msketch::BytesWriter;
using msketch::CertifiedQuantile;
using msketch::CubeCoords;
using msketch::CubeFilter;
using msketch::CubeSnapshot;
using msketch::CubeStore;
using msketch::DurabilityOptions;
using msketch::DurabilityStats;
using msketch::GroupQuantiles;
using msketch::GroupQuantilesCertified;
using msketch::GroupThreshold;
using msketch::IngestOptions;
using msketch::IngestStats;
using msketch::KllSketch;
using msketch::MaxEntOptions;
using msketch::MomentsSketch;
using msketch::MomentsSummary;
using msketch::RecoveryStats;
using msketch::ReplicaApplier;
using msketch::ReplicaApplierStats;
using msketch::ReplicaOptions;
using msketch::ReplicationSource;
using msketch::ReplicationSourceStats;
using msketch::Result;
using msketch::RouterOptions;
using msketch::RouterStats;
using msketch::Status;
using msketch::StreamingCube;
using msketch::SummaryRouter;
using msketch::kAnyValue;
namespace fs = std::filesystem;

namespace {

const std::chrono::steady_clock::time_point kOrigin =
    std::chrono::steady_clock::now();

uint64_t SplitMix(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

/// Values a ValueStream generates per GenerateDataset call.
constexpr uint64_t kValueBlock = 4096;

void SleepUntil(double t) {
  std::this_thread::sleep_until(
      kOrigin + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(t)));
}

std::vector<std::vector<std::string>> CubeDicts(const StreamingCube& cube) {
  std::vector<std::vector<std::string>> out(cube.num_dims());
  for (size_t d = 0; d < cube.num_dims(); ++d) {
    for (uint32_t id = 0;; ++id) {
      Result<std::string> v = cube.DecodeValue(d, id);
      if (!v.ok()) break;
      out[d].push_back(v.value());
    }
  }
  return out;
}

/// Bit-exact image of a published state: every cell's coordinates,
/// moment state and KLL sketch in cell-id order, and every dictionary
/// value in id order.
std::vector<uint8_t> Fingerprint(
    const CubeStore& store,
    const std::vector<std::vector<std::string>>& dicts) {
  BytesWriter w;
  w.PutU64(store.num_cells());
  w.PutU64(store.num_rows());
  w.PutU8(store.kll_enabled() ? 1 : 0);
  for (uint32_t id = 0; id < store.num_cells(); ++id) {
    for (uint32_t c : store.CoordsOf(id)) w.PutU32(c);
    store.CellSketch(id).Serialize(&w);
    if (store.kll_enabled()) store.CellKll(id)->Serialize(&w);
  }
  for (const std::vector<std::string>& dim : dicts) {
    w.PutU32(static_cast<uint32_t>(dim.size()));
    for (const std::string& v : dim) w.PutString(v);
  }
  return w.Take();
}

std::vector<uint8_t> LeaderFingerprint(const StreamingCube& cube) {
  std::shared_ptr<const CubeSnapshot> snap = cube.Snapshot();
  return Fingerprint(snap->store, CubeDicts(cube));
}

std::string Str(const char* fmt, double a, double b = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

Result<CubeFilter> EncodeSpec(const StreamingCube& cube, const Universe& u,
                              const std::array<int, 3>& f) {
  std::vector<std::string> dims(kDims);
  for (size_t d = 0; d < kDims; ++d) {
    if (f[d] >= 0) dims[d] = u.dim_values[d][static_cast<size_t>(f[d])];
  }
  return cube.EncodeFilter(dims);
}

}  // namespace

// ---------------------------------------------------------------- basics

double NowS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kOrigin)
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  if (rank < 1) rank = 1;
  if (rank > v.size()) rank = v.size();
  return v[rank - 1];
}

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (uint64_t& s : s_) s = SplitMix(&x);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

uint64_t Rng::Below(uint64_t n) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(Next()) * n) >> 64);
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed ^ (0xa0761d6478bd642fULL * (stream + 1));
  return SplitMix(&x);
}

// ---------------------------------------------------------------- inputs

std::array<uint32_t, 3> Universe::CellCoords(uint32_t cell) const {
  if (cell < kRegularCells) {
    return {cell / (kEndpoints * kHosts), (cell / kHosts) % kEndpoints,
            cell % kHosts};
  }
  return {kTenants + (cell - kRegularCells), 0, 0};
}

uint32_t Universe::CellOf(uint32_t a, uint32_t b, uint32_t c) const {
  if (a < kTenants && b < kEndpoints && c < kHosts) {
    return a * kEndpoints * kHosts + b * kHosts + c;
  }
  if (a >= kTenants && a < kTenants + kMarkers && b == 0 && c == 0) {
    return kRegularCells + (a - kTenants);
  }
  return ~0u;
}

std::vector<std::string> Universe::CellStrings(uint32_t cell) const {
  const std::array<uint32_t, 3> c = CellCoords(cell);
  return {dim_values[0][c[0]], dim_values[1][c[1]], dim_values[2][c[2]]};
}

Universe MakeUniverse() {
  Universe u;
  u.dim_values.resize(kDims);
  char buf[32];
  for (uint32_t t = 0; t < kTenants; ++t) {
    std::snprintf(buf, sizeof(buf), "tenant-%03u", t);
    u.dim_values[0].push_back(buf);
  }
  for (uint32_t m = 0; m < kMarkers; ++m) {
    if (m < kClosedMarkers) {
      std::snprintf(buf, sizeof(buf), "writer-%u", m);
    } else {
      std::snprintf(buf, sizeof(buf), "stream-%u", m - kClosedMarkers);
    }
    u.dim_values[0].push_back(buf);
  }
  for (uint32_t e = 0; e < kEndpoints; ++e) {
    std::snprintf(buf, sizeof(buf), "endpoint-%02u", e);
    u.dim_values[1].push_back(buf);
  }
  for (uint32_t h = 0; h < kHosts; ++h) {
    std::snprintf(buf, sizeof(buf), "host-%02u", h);
    u.dim_values[2].push_back(buf);
  }
  for (uint32_t t = 0; t < kTenants; ++t) {
    // Assumed shape (README, "Inputs"): scales spread evenly (golden-ratio
    // sequence) over e^-1 .. e^2 so tenants' quantiles differ and the
    // cascade can prune; every fifth tenant is retail-shaped (discrete).
    const double frac = std::fmod(0.6180339887498949 * t, 1.0);
    u.tenant_scale.push_back(std::exp(3.0 * frac - 1.0));
    u.tenant_discrete.push_back(t % 5 == 4);
  }
  u.index_of.resize(kDims);
  for (size_t d = 0; d < kDims; ++d) {
    for (uint32_t i = 0; i < u.dim_values[d].size(); ++i) {
      u.index_of[d][u.dim_values[d][i]] = i;
    }
  }
  return u;
}

double ValueStream::Next() {
  if (pos_ == values_.size()) {
    values_ =
        msketch::GenerateDataset(id_, kValueBlock, SubSeed(seed_, block_++));
    pos_ = 0;
  }
  return values_[pos_++];
}

ValueSource::ValueSource(uint64_t seed)
    : milan(msketch::DatasetId::kMilan, SubSeed(seed, 0)),
      retail(msketch::DatasetId::kRetail, SubSeed(seed, 1)) {}

double DrawValue(const Universe& u, uint32_t tenant, ValueSource* values) {
  if (tenant < kTenants && u.tenant_discrete[tenant]) {
    return values->retail.Next();
  }
  const double scale = tenant < kTenants ? u.tenant_scale[tenant] : 1.0;
  return values->milan.Next() * scale;
}

uint32_t DrawCell(Rng* rng) {
  return static_cast<uint32_t>(rng->Below(kRegularCells));
}

namespace {

void AddRow(const Universe& u, uint32_t cell, ValueSource* values, Batch* b) {
  b->cells.push_back(cell);
  b->values.push_back(DrawValue(u, u.CellCoords(cell)[0], values));
}

}  // namespace

void FillRows(const Universe& u, const Batch& b,
              std::vector<std::vector<std::string>>* rows) {
  rows->resize(b.size());
  for (size_t i = 0; i < b.size(); ++i) {
    const std::array<uint32_t, 3> c = u.CellCoords(b.cells[i]);
    std::vector<std::string>& row = (*rows)[i];
    row.resize(kDims);
    for (size_t d = 0; d < kDims; ++d) row[d] = u.dim_values[d][c[d]];
  }
}

Batch MakeBatch(const Universe& u, Rng* rng, ValueSource* values, size_t n,
                uint32_t marker) {
  Batch b;
  b.values.reserve(n);
  b.cells.reserve(n);
  for (size_t i = 0; i + 1 < n; ++i) AddRow(u, DrawCell(rng), values, &b);
  AddRow(u, Universe::MarkerCell(marker), values, &b);
  return b;
}

RowStream MakeRoundStream(const Universe& u, uint64_t seed, size_t writers) {
  RowStream s;
  s.per_writer.resize(writers);
  Rng rng(SubSeed(seed, 2));
  ValueSource values(SubSeed(seed, 4));
  // Writers own disjoint cell sets (cell mod writers), as collectors that
  // each serve a subset of hosts would: every cell's rows then reach the
  // cube in one fixed order.
  std::vector<Batch> open(writers);
  auto seal = [&](size_t w) {
    AddRow(u, Universe::MarkerCell(static_cast<uint32_t>(w)), &values,
           &open[w]);
    s.rows += open[w].size();
    s.per_writer[w].push_back(std::move(open[w]));
    open[w] = Batch();
  };
  for (size_t i = 0; i < kRoundRows; ++i) {
    const uint32_t cell = DrawCell(&rng);
    const size_t w = cell % writers;
    AddRow(u, cell, &values, &open[w]);
    if (open[w].size() + 1 == kBatchRows) seal(w);
  }
  for (size_t w = 0; w < writers; ++w) {
    if (open[w].size() > 0) seal(w);
  }
  return s;
}

Truth::Truth(const Universe* u)
    : u_(u),
      summaries_(Universe::num_cells(), oracle::Summary(kK)),
      values_(Universe::num_cells()) {}

void Truth::Add(uint32_t cell, double x) {
  summaries_[cell].Add(x);
  values_[cell].push_back(x);
  ++rows_;
  selection_cache_.clear();
}

void Truth::AddBatch(const Batch& b) {
  for (size_t i = 0; i < b.values.size(); ++i) Add(b.cells[i], b.values[i]);
}

void Truth::AddStream(const RowStream& s) {
  for (const std::vector<Batch>& batches : s.per_writer) {
    for (const Batch& b : batches) AddBatch(b);
  }
}

const std::vector<double>& Truth::Selection(const std::array<int, 3>& f) {
  auto it = selection_cache_.find(f);
  if (it != selection_cache_.end()) return it->second;
  std::vector<double> out;
  for (uint32_t c = 0; c < Universe::num_cells(); ++c) {
    const std::array<uint32_t, 3> coords = u_->CellCoords(c);
    bool match = true;
    for (size_t d = 0; d < kDims; ++d) {
      if (f[d] >= 0 && coords[d] != static_cast<uint32_t>(f[d])) match = false;
    }
    if (match) out.insert(out.end(), values_[c].begin(), values_[c].end());
  }
  std::sort(out.begin(), out.end());
  return selection_cache_.emplace(f, std::move(out)).first->second;
}

std::vector<double> Truth::AllValues() const {
  std::vector<double> out;
  out.reserve(rows_);
  for (const std::vector<double>& v : values_) {
    out.insert(out.end(), v.begin(), v.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ----------------------------------------------------------- bookkeeping

bool Ops::Count(const Status& st, const char* what) {
  attempted_.fetch_add(1);
  if (st.ok()) return true;
  failed_.fetch_add(1);
  std::lock_guard<std::mutex> lock(mu_);
  if (reported_++ < 10) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 st.ToString().c_str());
  }
  return false;
}

bool Checks::Expect(const std::string& fault, const std::string& context) {
  if (fault.empty()) return true;
  std::lock_guard<std::mutex> lock(mu_);
  if (faults_++ < 20) {
    std::fprintf(stderr, "perfbench: check failed (%s): %s\n", context.c_str(),
                 fault.c_str());
  }
  return false;
}

// ---------------------------------------------------------------- leader

IngestOptions Leader::Options() {
  IngestOptions opt;
  opt.enable_kll = true;
  return opt;
}

IngestOptions Leader::BulkOptions() {
  IngestOptions opt = Options();
  // Sized to the per-shard working set (24k cells over 4 shards), so a
  // bulk load fits the chunk pool with no drainer running.
  opt.chunk_cells = 8192;
  return opt;
}

Result<std::unique_ptr<Leader>> Leader::Create(const std::string& dir,
                                               const Universe& u,
                                               const IngestOptions& options,
                                               bool record_publisher_stats) {
  std::unique_ptr<Leader> l(new Leader());
  l->dir_ = dir;
  l->options_ = options;
  l->record_publisher_stats_ = record_publisher_stats;
  l->source_ = std::make_unique<ReplicationSource>();
  l->cube_ = std::make_unique<StreamingCube>(kDims, MomentsSummary(kK),
                                             options);
  DurabilityOptions durability;
  durability.dir = dir;
  Status st = l->cube_->EnableDurability(durability);
  if (!st.ok()) return st;
  st = l->Wire(u);
  if (!st.ok()) return st;
  return l;
}

Result<std::unique_ptr<Leader>> Leader::Reopen(std::unique_ptr<Leader> old,
                                               const Universe& u,
                                               const IngestOptions& options,
                                               bool record_publisher_stats) {
  std::unique_ptr<Leader> l(new Leader());
  l->dir_ = old->dir_;
  l->options_ = options;
  l->record_publisher_stats_ = record_publisher_stats;
  old.reset();
  DurabilityOptions durability;
  durability.dir = l->dir_;
  Result<std::unique_ptr<StreamingCube>> cube = StreamingCube::Recover(
      kDims, MomentsSummary(kK), options, durability);
  if (!cube.ok()) return cube.status();
  l->source_ = std::make_unique<ReplicationSource>();
  l->cube_ = std::move(cube).value();
  const Status st = l->Wire(u);
  if (!st.ok()) return st;
  return l;
}

Status Leader::Wire(const Universe& u) {
  MSKETCH_RETURN_IF_ERROR(cube_->EnableReplication(source_.get()));
  for (uint32_t m = 0; m < kMarkers; ++m) {
    Result<CubeCoords> coords =
        cube_->EncodeRow(u.CellStrings(Universe::MarkerCell(m)));
    if (!coords.ok()) return coords.status();
    marker_filters_[m] = {static_cast<int64_t>(coords.value()[0]), kAnyValue,
                          kAnyValue};
  }
  cube_->SetEpochSink([this](const CubeSnapshot& s) { OnPublish(s); });
  return Status::OK();
}

void Leader::OnPublish(const CubeSnapshot& snap) {
  PublishMark m;
  m.t = NowS();
  m.epoch = snap.epoch;
  m.rows = snap.rows();
  for (uint32_t i = 0; i < kMarkers; ++i) {
    m.marker_counts[i] = snap.store.QueryWhere(marker_filters_[i]).count();
  }
  if (record_publisher_stats_) {
    // The sink runs after the publish updated these and before the next
    // publish can start (sink invocations are serialized with publishes).
    const msketch::PublisherStats ps = cube_->stats().publisher;
    m.publish_ms = ps.last_publish_ms;
    m.drain_ms = ps.last_drain_ms;
    m.durability_ms = ps.last_durability_ms;
  }
  marks_.push_back(m);
}

// ---------------------------------------------------------------- phases

namespace {

/// Freshness of each marker row: the first publish whose marker count
/// covers it, minus the return of the append call that carried it.
void FreshnessFromMarks(Context* ctx, const Leader& leader, size_t first_mark,
                        uint32_t first_marker,
                        const std::vector<std::vector<double>>& returns,
                        IngestPhase* ph) {
  const std::vector<Leader::PublishMark>& marks = leader.marks();
  for (size_t w = 0; w < returns.size(); ++w) {
    const uint32_t m = first_marker + static_cast<uint32_t>(w);
    const uint64_t base =
        first_mark == 0 ? 0 : marks[first_mark - 1].marker_counts[m];
    size_t k = first_mark;
    for (size_t j = 0; j < returns[w].size(); ++j) {
      while (k < marks.size() && marks[k].marker_counts[m] < base + j + 1) ++k;
      if (k == marks.size()) {
        ctx->checks.Expect("an appended marker row was never published",
                           "freshness");
        break;
      }
      ph->freshness_ms.push_back(std::max(0.0, marks[k].t - returns[w][j]) *
                                 1e3);
      ph->freshness_at.push_back(returns[w][j]);
    }
  }
}

/// Threads joined when the group goes out of scope, on exception paths
/// too.
struct ThreadGroup {
  ThreadGroup() = default;
  ThreadGroup(const ThreadGroup&) = delete;
  ThreadGroup& operator=(const ThreadGroup&) = delete;
  ~ThreadGroup() { JoinAll(); }
  void JoinAll() {
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
  }
  std::vector<std::thread> threads;
};

struct PhaseCounters {
  IngestStats ingest;
  DurabilityStats durability;
};

PhaseCounters ReadCounters(const StreamingCube& cube) {
  return {cube.stats(), cube.durability_stats()};
}

void AttachPhaseAttrs(Span* span, const PhaseCounters& a,
                      const PhaseCounters& b, const IngestPhase& ph,
                      const Leader& leader, size_t first_mark) {
  std::vector<double> publish_ms, drain_ms, durability_ms;
  for (size_t i = first_mark; i < leader.marks().size(); ++i) {
    publish_ms.push_back(leader.marks()[i].publish_ms);
    drain_ms.push_back(leader.marks()[i].drain_ms);
    durability_ms.push_back(leader.marks()[i].durability_ms);
  }
  span->Attr("rows", static_cast<double>(ph.rows));
  span->Attr("backpressure_events",
             b.ingest.backpressure_events - a.ingest.backpressure_events);
  span->Attr("rows_backpressured",
             b.ingest.rows_backpressured - a.ingest.rows_backpressured);
  span->Attr("chunks_sealed", b.ingest.chunks_sealed - a.ingest.chunks_sealed);
  span->Attr("steal_giveups", b.ingest.steal_giveups - a.ingest.steal_giveups);
  span->Attr("epochs_published", b.ingest.publisher.epochs_published -
                                     a.ingest.publisher.epochs_published);
  span->Attr("publish_ms_p50", Percentile(publish_ms, 0.5));
  span->Attr("publish_ms_max", Percentile(publish_ms, 1.0));
  span->Attr("drain_ms_p50", Percentile(drain_ms, 0.5));
  span->Attr("durability_ms_p50", Percentile(durability_ms, 0.5));
  span->Attr("wal_bytes", b.durability.wal_bytes - a.durability.wal_bytes);
  span->Attr("wal_syncs", b.durability.wal_syncs - a.durability.wal_syncs);
  span->Attr("checkpoints_written", b.durability.checkpoints_written -
                                        a.durability.checkpoints_written);
  span->Attr("lateness_ms_p99",
             ph.lateness_ms.empty() ? 0.0 : Percentile(ph.lateness_ms, 0.99));
}

/// One append call of a batch whose string rows FillRows wrote into
/// `rows`, with the traced run's encode probe and span.
Status AppendOne(Context* ctx, StreamingCube* cube, const Batch& b,
                 const std::vector<std::vector<std::string>>& rows,
                 uint64_t parent) {
  const double n = static_cast<double>(b.size());
  if (ctx->tracer != nullptr) {
    Span enc(ctx->tracer, "ingest.encode_rows", 0, parent);
    Result<std::vector<CubeCoords>> encoded = cube->EncodeRows(rows);
    enc.Attr("rows", n);
    ctx->checks.Expect(encoded.ok() ? "" : encoded.status().ToString(),
                       "EncodeRows probe");
  }
  Span app(ctx->tracer, "ingest.append_row_batch", 0, parent);
  Status st = cube->AppendRowBatch(rows, b.values.data());
  app.Attr("rows", n);
  return st;
}

}  // namespace

IngestPhase RunClosedLoop(Context* ctx, Leader* leader, const Universe& u,
                          const RowStream& s, bool bulk) {
  IngestPhase ph;
  StreamingCube& cube = leader->cube();
  const size_t writers = s.per_writer.size();
  const size_t first_mark = leader->marks().size();
  const PhaseCounters before = ReadCounters(cube);
  Span phase(ctx->tracer, "bench.ingest_phase");
  std::vector<std::vector<double>> returns(writers);

  auto append_all = [&](size_t w) {
    std::vector<std::vector<std::string>> rows;
    for (const Batch& b : s.per_writer[w]) {
      FillRows(u, b, &rows);
      const Status st = AppendOne(ctx, &cube, b, rows, phase.id());
      returns[w].push_back(NowS());
      ctx->ops.Count(st, "AppendRowBatch");
    }
  };
  if (!bulk) cube.StartPublisher();
  const double t0 = NowS();
  if (bulk) {
    for (size_t w = 0; w < writers; ++w) append_all(w);
  } else {
    ThreadGroup group;
    for (size_t w = 0; w < writers; ++w) {
      group.threads.emplace_back([&append_all, w] { append_all(w); });
    }
  }
  cube.StopPublisher();
  {
    Span flush(ctx->tracer, "ingest.flush");
    cube.Flush();
  }
  ph.seconds = NowS() - t0;
  ph.rows = s.rows;
  if (cube.rows_published() != s.rows) {
    ctx->checks.Expect("published rows differ from appended rows", "ingest");
  }
  const PhaseCounters after = ReadCounters(cube);
  ph.wal_bytes = after.durability.wal_bytes - before.durability.wal_bytes;
  FreshnessFromMarks(ctx, *leader, first_mark, 0, returns, &ph);
  if (ctx->tracer != nullptr) {
    AttachPhaseAttrs(&phase, before, after, ph, *leader, first_mark);
  }
  return ph;
}

IngestPhase RunOpenLoop(Context* ctx, Leader* leader, const Universe& u,
                        size_t writers, std::atomic<bool>* stop,
                        const std::function<void()>& while_running,
                        std::vector<std::vector<Batch>>* appended) {
  IngestPhase ph;
  StreamingCube& cube = leader->cube();
  const size_t first_mark = leader->marks().size();
  const PhaseCounters before = ReadCounters(cube);
  Span phase(ctx->tracer, "bench.ingest_phase");
  const double period =
      static_cast<double>(kOpenBatchRows) /
      (kOpenLoopRowsPerS / static_cast<double>(writers));
  std::vector<std::vector<double>> returns(writers);
  std::vector<std::vector<double>> lateness(writers);
  appended->assign(writers, {});

  cube.StartPublisher();
  const double t0 = NowS();
  ThreadGroup group;
  for (size_t w = 0; w < writers; ++w) {
    group.threads.emplace_back([&, w] {
      Rng rng(SubSeed(ctx->seed, 100 + w));
      ValueSource values(SubSeed(ctx->seed, 200 + w));
      std::vector<std::vector<std::string>> rows;
      const uint32_t marker = kClosedMarkers + static_cast<uint32_t>(w);
      // Writers are staggered by a fraction of the period.
      const double offset = period * static_cast<double>(w) /
                            static_cast<double>(writers);
      for (size_t j = 0; !stop->load(std::memory_order_acquire); ++j) {
        Batch b = MakeBatch(u, &rng, &values, kOpenBatchRows, marker);
        FillRows(u, b, &rows);
        const double due = t0 + offset + period * static_cast<double>(j);
        SleepUntil(due);
        lateness[w].push_back((NowS() - due) * 1e3);
        const Status st = AppendOne(ctx, &cube, b, rows, phase.id());
        returns[w].push_back(NowS());
        if (ctx->ops.Count(st, "AppendRowBatch")) {
          (*appended)[w].push_back(std::move(b));
        }
      }
    });
  }
  try {
    while_running();
  } catch (...) {
    stop->store(true, std::memory_order_release);
    throw;
  }
  group.JoinAll();
  cube.StopPublisher();
  {
    Span flush(ctx->tracer, "ingest.flush");
    cube.Flush();
  }
  ph.seconds = NowS() - t0;
  for (const std::vector<Batch>& bs : *appended) {
    for (const Batch& b : bs) ph.rows += b.size();
  }
  for (const std::vector<double>& l : lateness) {
    ph.lateness_ms.insert(ph.lateness_ms.end(), l.begin(), l.end());
  }
  const PhaseCounters after = ReadCounters(cube);
  ph.wal_bytes = after.durability.wal_bytes - before.durability.wal_bytes;
  FreshnessFromMarks(ctx, *leader, first_mark, kClosedMarkers, returns, &ph);
  if (ctx->tracer != nullptr) {
    AttachPhaseAttrs(&phase, before, after, ph, *leader, first_mark);
  }
  return ph;
}

std::vector<QuerySpec> MakeQuerySpecs(uint64_t seed, size_t n) {
  Rng rng(SubSeed(seed, 3));
  // Filter kinds a dashboard issues (an assumed mix, README "Inputs"):
  // drill-downs on two dimensions dominate; single-dimension panels are
  // rarer and wider.
  struct Kind {
    double weight;
    std::array<bool, 3> dims;
  };
  const Kind kinds[] = {{0.4, {true, true, false}},
                        {0.3, {false, true, true}},
                        {0.2, {true, false, false}},
                        {0.1, {false, true, false}}};
  const uint32_t card[3] = {kTenants, kEndpoints, kHosts};
  // Skewed popularity (assumed as well): per dimension, a fixed
  // permutation ranked by a Zipf(0.8) draw, so popular values (and
  // filters) repeat.
  Rng ranking(0x9e3779b97f4a7c15ULL);
  std::array<std::vector<uint32_t>, 3> perm;
  std::array<std::vector<double>, 3> cdf;
  for (size_t d = 0; d < 3; ++d) {
    for (uint32_t i = 0; i < card[d]; ++i) perm[d].push_back(i);
    for (uint32_t i = card[d]; i > 1; --i) {
      std::swap(perm[d][i - 1], perm[d][ranking.Below(i)]);
    }
    double total = 0.0;
    for (uint32_t r = 0; r < card[d]; ++r) {
      total += 1.0 / std::pow(r + 1.0, 0.8);
      cdf[d].push_back(total);
    }
    for (double& c : cdf[d]) c /= total;
  }
  auto zipf = [&](size_t d) {
    const double u = rng.Uniform();
    const size_t r = static_cast<size_t>(
        std::lower_bound(cdf[d].begin(), cdf[d].end(), u) - cdf[d].begin());
    return static_cast<int>(perm[d][std::min<size_t>(r, card[d] - 1)]);
  };
  std::vector<QuerySpec> specs;
  for (size_t i = 0; i < n; ++i) {
    double u = rng.Uniform();
    size_t k = 0;
    while (k + 1 < 4 && u >= kinds[k].weight) u -= kinds[k++].weight;
    QuerySpec q;
    for (size_t d = 0; d < 3; ++d) {
      q.filter[d] = kinds[k].dims[d] ? zipf(d) : -1;
    }
    q.phi = kPhis[rng.Below(kPhis.size())];
    specs.push_back(q);
  }
  return specs;
}

namespace {

/// The traced run's probes of one certified query's parts, on the same
/// filter and the same published state.
void ProbeCertified(Context* ctx, const StreamingCube& cube,
                    const CubeFilter& f, double phi, double estimate,
                    uint64_t qid) {
  Tracer* tr = ctx->tracer;
  std::shared_ptr<const CubeSnapshot> snap = cube.Snapshot();
  CubeStore::QueryStats qs;
  MomentsSketch merged(kK);
  {
    Span s(tr, "cube.query_where", qid);
    merged = snap->store.QueryWhere(f, &qs);
    s.Attr("merges", static_cast<double>(qs.merges));
    s.Attr("span_merges", static_cast<double>(qs.span_merges));
    s.Attr("visited", static_cast<double>(qs.visited));
  }
  KllSketch kll;
  bool have_kll = false;
  {
    Span s(tr, "cube.merge_kll", qid);
    Result<KllSketch> r = snap->store.MergeKllWhere(f);
    if (r.ok()) {
      kll = std::move(r).value();
      have_kll = true;
    }
  }
  {
    // The router is built and torn down outside the span: its destructor
    // publishes its counters to the metrics registry, which is package
    // work of the end-to-end call, not routing.
    RouterOptions ro;
    ro.maxent = cube.estimator_options();
    SummaryRouter router(ro);
    Span s(tr, "cube.router_query_many", qid);
    std::vector<CertifiedQuantile> a =
        router.QueryMany(merged, have_kll ? &kll : nullptr, {phi});
    s.Attr("moments_answers",
           static_cast<double>(router.stats().moments_answers));
  }
  {
    Span s(tr, "core.solve_maxent", qid);
    MaxEntOptions mo = cube.estimator_options();
    mo.use_solver_cache = false;
    Result<msketch::MaxEntDistribution> r = msketch::SolveMaxEnt(merged, mo);
    s.Attr("ok", r.ok() ? 1.0 : 0.0);
    if (r.ok()) {
      s.Attr("newton_iterations", r.value().diagnostics().newton_iterations);
      s.Attr("iteration_capped", r.value().diagnostics().iteration_capped > 0);
    }
  }
  {
    Span s(tr, "core.certified_interval", qid);
    msketch::CertifiedQuantileInterval(merged, phi);
  }
  {
    Span s(tr, "core.rtt_bound", qid);
    msketch::RttBound(merged, estimate);
  }
}

}  // namespace

QueryStream RunQueryStream(Context* ctx, StreamingCube* cube,
                           const Universe& u,
                           const std::vector<QuerySpec>& specs,
                           double min_seconds, size_t min_certified,
                           double max_seconds) {
  QueryStream out;
  std::vector<CubeFilter> filters;
  for (const QuerySpec& q : specs) {
    Result<CubeFilter> f = EncodeSpec(*cube, u, q.filter);
    ctx->ops.Count(f.status(), "EncodeFilter");
    filters.push_back(f.ok() ? f.value() : CubeFilter(kDims, kAnyValue));
  }
  const size_t n = specs.size();
  uint64_t last_epoch = 0, last_rows = 0;
  size_t next_where = 3;
  const double t0 = NowS();
  for (size_t i = 0;; ++i) {
    const double elapsed = NowS() - t0;
    if (elapsed >= max_seconds) break;
    if (elapsed >= min_seconds && out.certified_us.size() >= min_certified) {
      break;
    }
    {
      std::shared_ptr<const CubeSnapshot> snap = cube->Snapshot();
      if (snap->epoch < last_epoch || snap->rows() < last_rows) {
        out.went_backwards = true;
      }
      last_epoch = snap->epoch;
      last_rows = snap->rows();
    }
    CertifiedAnswer a;
    a.spec = i % n;
    const uint64_t qid = i + 1;
    {
      Span e2e(ctx->tracer, "e2e.query_certified", qid);
      const double s = NowS();
      a.answer = cube->QueryQuantileCertified(filters[a.spec],
                                              specs[a.spec].phi);
      out.certified_us.push_back((NowS() - s) * 1e6);
    }
    ctx->ops.Count(a.answer.status, "QueryQuantileCertified");
    if (ctx->tracer != nullptr && i % kProbeEvery == 0) {
      ProbeCertified(ctx, *cube, filters[a.spec], specs[a.spec].phi,
                     a.answer.estimate, qid);
    }
    out.certified.push_back(std::move(a));

    for (size_t k = 0; k < kWherePerStep; ++k) {
      WhereAnswer w;
      w.spec = next_where;
      next_where = (next_where + 7) % n;
      {
        Span e2e(ctx->tracer, "e2e.query_where");
        const double s = NowS();
        const MomentsSummary m = cube->QueryWhere(filters[w.spec]);
        out.where_us.push_back((NowS() - s) * 1e6);
        w.count = m.sketch().count();
        w.min = m.sketch().min();
        w.max = m.sketch().max();
      }
      ctx->ops.Count(Status::OK(), "QueryWhere");
      if (ctx->tracer != nullptr && k == 0 && i % kProbeEvery == 0) {
        std::shared_ptr<const CubeSnapshot> snap = cube->Snapshot();
        CubeStore::QueryStats qs;
        Span s(ctx->tracer, "cube.query_where");
        snap->store.QueryWhere(filters[w.spec], &qs);
        s.Attr("merges", static_cast<double>(qs.merges));
        s.Attr("span_merges", static_cast<double>(qs.span_merges));
        s.Attr("visited", static_cast<double>(qs.visited));
      }
      out.where.push_back(w);
    }
  }
  return out;
}

namespace {

/// Checks one certified answer against the exact values of its selection.
/// The estimate must lie in the interval, always. The exact quantile must
/// lie in it too, except where the moments-only certificate
/// (CertifiedQuantileInterval, the router's first enclosure) on the same
/// merged sketch misses it as well: that is a known engine fault (README,
/// "Known fault"), tallied in ctx->known_certificate_misses and failing
/// the run only past kMaxKnownMissShare (CheckKnownMisses). Any other
/// miss fails the run.
void CheckCertifiedAnswer(Context* ctx, const CertifiedQuantile& a,
                          const std::vector<double>& sel, double phi,
                          const std::function<MomentsSketch()>& merged_sketch,
                          const char* what, std::vector<double>* rank_errors) {
  if (!a.certified || !a.status.ok()) {
    ctx->checks.Expect("answer is not certified", what);
    return;
  }
  const double lo = a.interval.lower;
  const double hi = a.interval.upper;
  if (!ctx->checks.Expect(oracle::CheckInRange(lo, hi, a.estimate), what)) {
    return;
  }
  ctx->certified_checked.fetch_add(1);
  const std::string miss =
      oracle::CheckCertified(sel, phi, lo, hi, a.estimate);
  if (!miss.empty()) {
    const MomentsSketch merged = merged_sketch();
    const msketch::QuantileInterval moments =
        msketch::CertifiedQuantileInterval(merged, phi,
                                           RouterOptions().interval_steps);
    if (!oracle::CheckCertified(sel, phi, moments.lower, moments.upper,
                                moments.lower)
             .empty()) {
      if (ctx->known_certificate_misses.fetch_add(1) < 5) {
        std::fprintf(stderr, "perfbench: known certificate fault (%s): %s\n",
                     what, miss.c_str());
      }
    } else {
      ctx->checks.Expect(miss, what);
    }
  }
  rank_errors->push_back(oracle::RankError(sel, phi, a.estimate));
}

}  // namespace

void CheckStream(Context* ctx, const QueryStream& q, const StreamingCube& cube,
                 const Universe& u, const std::vector<QuerySpec>& specs,
                 Truth* truth, std::vector<double>* rank_errors) {
  for (const CertifiedAnswer& a : q.certified) {
    const QuerySpec& spec = specs[a.spec];
    Result<CubeFilter> filter = EncodeSpec(cube, u, spec.filter);
    if (!ctx->checks.Expect(filter.ok() ? "" : filter.status().ToString(),
                            "EncodeFilter")) {
      continue;
    }
    // The sketch the certified call merged: the same planned QueryWhere.
    auto merged = [&] {
      return cube.Snapshot()->store.QueryWhere(filter.value());
    };
    CheckCertifiedAnswer(ctx, a.answer, truth->Selection(spec.filter),
                         spec.phi, merged, "certified point query",
                         rank_errors);
  }
  for (const WhereAnswer& w : q.where) {
    const std::vector<double>& sel = truth->Selection(specs[w.spec].filter);
    ctx->checks.Expect(
        oracle::CheckCountMinMax(sel.size(), sel.empty() ? 0.0 : sel.front(),
                                 sel.empty() ? 0.0 : sel.back(), w.count,
                                 w.min, w.max),
        "QueryWhere");
  }
}

void CheckCertifiedOnly(Context* ctx, const QueryStream& q) {
  for (const CertifiedAnswer& a : q.certified) {
    if (!a.answer.certified || !a.answer.status.ok()) {
      ctx->checks.Expect("answer is not certified", "point query under ingest");
      continue;
    }
    ctx->checks.Expect(oracle::CheckInRange(a.answer.interval.lower,
                                            a.answer.interval.upper,
                                            a.answer.estimate),
                       "point query under ingest");
  }
  if (q.went_backwards) {
    ctx->checks.Expect("published epoch or row count went backwards",
                       "point query under ingest");
  }
}

void RunGroupBys(Context* ctx, StreamingCube* cube, const Universe& u,
                 Truth* truth, std::vector<double>* rank_errors) {
  const std::vector<double> phis(kPhis.begin(), kPhis.end());
  const std::vector<size_t> by_tenant = {0};
  const std::vector<double> all = truth->AllValues();
  const double t = oracle::ExactQuantile(all, kThresholdGlobalPhi);

  // Each group's exact values, by its decoded key.
  auto group_values = [&](const CubeCoords& key,
                          const char* what) -> const std::vector<double>* {
    Result<std::string> name = cube->DecodeValue(0, key.at(0));
    if (!name.ok()) {
      ctx->checks.Expect("undecodable group key", what);
      return nullptr;
    }
    auto it = u.index_of[0].find(name.value());
    if (it == u.index_of[0].end()) {
      ctx->checks.Expect("unknown group key " + name.value(), what);
      return nullptr;
    }
    return &truth->Selection({static_cast<int>(it->second), -1, -1});
  };
  size_t nonempty_groups = 0;
  for (uint32_t a = 0; a < kTenants + kMarkers; ++a) {
    if (!truth->Selection({static_cast<int>(a), -1, -1}).empty()) {
      ++nonempty_groups;
    }
  }
  auto check_keys = [&](size_t groups, const char* what) {
    if (groups != nonempty_groups) {
      ctx->checks.Expect(Str("%.0f groups, exact %.0f",
                             static_cast<double>(groups),
                             static_cast<double>(nonempty_groups)),
                         what);
    }
  };

  // GROUP BY quantiles (lane-batched solver).
  {
    BatchStats stats;
    Span span(ctx->tracer, "cube.groupby_quantiles");
    std::vector<GroupQuantiles> g =
        cube->GroupByQuantiles(by_tenant, phis, BatchOptions(), &stats);
    span.Attr("groups", static_cast<double>(g.size()));
    span.Attr("cold_solves", static_cast<double>(stats.cold_solves));
    span.Attr("warm_solves", static_cast<double>(stats.warm_solves));
    span.Attr("cache_hits", static_cast<double>(stats.cache_hits));
    span.Attr("newton_iterations",
              static_cast<double>(stats.newton_iterations));
    span.Attr("iteration_capped", static_cast<double>(stats.iteration_capped));
    span.Attr("lane_occupancy", stats.LaneOccupancy());
    span.End();
    check_keys(g.size(), "GroupByQuantiles");
    for (const GroupQuantiles& gq : g) {
      ctx->ops.Count(gq.status, "GroupByQuantiles group");
      const std::vector<double>* sel = group_values(gq.key, "GroupByQuantiles");
      if (sel == nullptr || !gq.status.ok()) continue;
      ctx->checks.Expect(
          oracle::CheckCountMinMax(sel->size(), sel->front(), sel->back(),
                                   gq.count, sel->front(), sel->back()),
          "GroupByQuantiles count");
      for (size_t i = 0; i < phis.size(); ++i) {
        const double q = gq.quantiles[i];
        if (ctx->checks.Expect(
                oracle::CheckInRange(sel->front(), sel->back(), q),
                "GroupByQuantiles estimate")) {
          rank_errors->push_back(oracle::RankError(*sel, phis[i], q));
        }
      }
    }
  }

  // Certified GROUP BY (router per group).
  {
    RouterStats stats;
    RouterOptions ro;
    ro.maxent = cube->estimator_options();
    Span span(ctx->tracer, "cube.groupby_certified");
    std::vector<GroupQuantilesCertified> g =
        cube->GroupByQuantilesCertified(by_tenant, phis, ro, &stats);
    span.Attr("groups", static_cast<double>(g.size()));
    span.Attr("moments_answers", static_cast<double>(stats.moments_answers));
    span.Attr("kll_answers", static_cast<double>(stats.kll_answers));
    span.Attr("atomic_answers", static_cast<double>(stats.atomic_answers));
    span.Attr("warm_solves", static_cast<double>(stats.warm_solves));
    span.Attr("cold_solves", static_cast<double>(stats.cold_solves));
    span.End();
    check_keys(g.size(), "GroupByQuantilesCertified");
    for (const GroupQuantilesCertified& gq : g) {
      const std::vector<double>* sel =
          group_values(gq.key, "GroupByQuantilesCertified");
      const CubeFilter filter = {static_cast<int64_t>(gq.key.at(0)), kAnyValue,
                                 kAnyValue};
      for (size_t i = 0; i < gq.answers.size(); ++i) {
        const CertifiedQuantile& a = gq.answers[i];
        ctx->ops.Count(a.status, "GroupByQuantilesCertified group");
        if (sel == nullptr || !a.status.ok()) continue;
        // The sketch the certified GROUP BY merged: the group's cells in
        // ascending id order.
        auto merged = [&] {
          std::shared_ptr<const CubeSnapshot> snap = cube->Snapshot();
          const std::vector<uint32_t> ids = snap->store.MatchingCells(filter);
          return snap->store.MergeCells(ids.data(), ids.size());
        };
        CheckCertifiedAnswer(ctx, a, *sel, phis[i], merged,
                             "certified GROUP BY", rank_errors);
      }
      if (sel != nullptr && gq.count != sel->size()) {
        ctx->checks.Expect("group count differs from the exact count",
                           "certified GROUP BY");
      }
    }
  }

  // Threshold cascade at a fixed global high quantile.
  {
    BatchStats stats;
    Span span(ctx->tracer, "cube.groupby_threshold");
    std::vector<GroupThreshold> g = cube->GroupByThreshold(
        by_tenant, kThresholdPhi, t, BatchOptions(), &stats);
    span.Attr("groups", static_cast<double>(g.size()));
    span.Attr("total", static_cast<double>(stats.cascade.total));
    span.Attr("resolved_by_bounds", static_cast<double>(stats.CascadePruned()));
    span.Attr("resolved_maxent",
              static_cast<double>(stats.cascade.resolved_maxent));
    span.End();
    ctx->ops.Count(Status::OK(), "GroupByThreshold");
    check_keys(g.size(), "GroupByThreshold");
    for (const GroupThreshold& gt : g) {
      const std::vector<double>* sel = group_values(gt.key, "GroupByThreshold");
      if (sel == nullptr) continue;
      if (gt.count != sel->size()) {
        ctx->checks.Expect("group count differs from the exact count",
                           "GroupByThreshold");
      }
      ctx->checks.Expect(
          oracle::CheckThreshold(*sel, kThresholdPhi, t, gt.exceeds,
                                 kThresholdRankTolerance),
          "GroupByThreshold");
    }
  }
}

void CheckCells(Context* ctx, StreamingCube* cube, const Universe& u,
                const Truth& truth) {
  std::shared_ptr<const CubeSnapshot> snap = cube->Snapshot();
  const CubeStore& store = snap->store;
  if (store.num_rows() != truth.rows()) {
    ctx->checks.Expect(Str("published rows %.0f, generated %.0f",
                           static_cast<double>(store.num_rows()),
                           static_cast<double>(truth.rows())),
                       "published rows");
  }
  const std::vector<std::vector<std::string>> dicts = CubeDicts(*cube);
  std::vector<uint8_t> seen(Universe::num_cells(), 0);
  for (uint32_t id = 0; id < store.num_cells(); ++id) {
    const CubeCoords& coords = store.CoordsOf(id);
    uint32_t idx[3] = {~0u, ~0u, ~0u};
    for (size_t d = 0; d < kDims; ++d) {
      if (coords[d] < dicts[d].size()) {
        auto it = u.index_of[d].find(dicts[d][coords[d]]);
        if (it != u.index_of[d].end()) idx[d] = it->second;
      }
    }
    const uint32_t cell = u.CellOf(idx[0], idx[1], idx[2]);
    if (cell == ~0u || seen[cell]) {
      ctx->checks.Expect("published cell is unknown or duplicated", "cells");
      continue;
    }
    seen[cell] = 1;
    const oracle::Summary& want = truth.cell(cell);
    const MomentsSketch sk = store.CellSketch(id);
    ctx->checks.Expect(oracle::CheckCountMinMax(want.count, want.min, want.max,
                                                sk.count(), sk.min(), sk.max()),
                       "cell count/min/max");
    ctx->checks.Expect(oracle::CheckPowerSums(want, sk.power_sums(),
                                              sk.log_sums(), sk.log_count(),
                                              kPowerSumRelTol),
                       "cell power sums");
  }
  for (uint32_t c = 0; c < Universe::num_cells(); ++c) {
    if (!seen[c] && truth.cell(c).count > 0) {
      ctx->checks.Expect("a cell with rows was not published", "cells");
    }
  }
}

std::vector<double> RunResyncs(Context* ctx, Leader* leader, int reps) {
  const std::vector<uint8_t> want = LeaderFingerprint(leader->cube());
  {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint8_t b : want) h = (h ^ b) * 0x100000001b3ULL;
    std::fprintf(stderr, "perfbench: leader state fingerprint %016llx\n",
                 static_cast<unsigned long long>(h));
  }
  const uint64_t leader_epoch = leader->cube().last_published_epoch();
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) {
    ReplicaOptions ro;
    ro.kll_k = leader->options().kll_k;
    ReplicaApplier applier(kK, kDims, ro);
    const ReplicationSourceStats before = leader->source().stats();
    auto pipe = msketch::MakeInProcessPipe();
    Span span(ctx->tracer, "replica.sync_with_retry");
    const double t0 = NowS();
    std::thread serve([&] { (void)leader->source().Serve(pipe.first.get()); });
    const Status st = applier.SyncWithRetry(pipe.second.get());
    const double dt = NowS() - t0;
    leader->source().RequestStop();
    pipe.second->Close();
    serve.join();
    const ReplicationSourceStats after = leader->source().stats();
    const ReplicaApplierStats as = applier.stats();
    span.Attr("bytes_shipped", after.bytes_shipped - before.bytes_shipped);
    span.Attr("epochs_shipped", after.epochs_shipped - before.epochs_shipped);
    span.Attr("snapshot_chunks", static_cast<double>(as.snapshot_chunks));
    span.Attr("round_retries", static_cast<double>(as.round_retries));
    span.End();
    if (!ctx->ops.Count(st, "SyncWithRetry")) continue;
    seconds.push_back(dt);
    if (applier.applied_epoch() != leader_epoch) {
      ctx->checks.Expect("follower did not reach the leader's epoch", "resync");
      continue;
    }
    std::vector<uint8_t> got;
    applier.Inspect([&](const CubeStore& store,
                        const std::vector<msketch::Dictionary>& dicts) {
      std::vector<std::vector<std::string>> values(dicts.size());
      for (size_t d = 0; d < dicts.size(); ++d) {
        for (uint32_t id = 0; id < dicts[d].size(); ++id) {
          values[d].push_back(dicts[d].ValueOf(id));
        }
      }
      got = Fingerprint(store, values);
    });
    if (got != want) {
      ctx->checks.Expect("follower state differs from the leader's", "resync");
    }
  }
  return seconds;
}

std::vector<double> RunRecoveries(Context* ctx, Leader* leader, int reps) {
  const std::vector<uint8_t> want = LeaderFingerprint(leader->cube());
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) {
    const std::string copy = ctx->workdir + "/recover-" + std::to_string(r);
    std::error_code ec;
    fs::remove_all(copy, ec);
    fs::copy(leader->dir(), copy, fs::copy_options::recursive, ec);
    if (ec) {
      ctx->ops.Count(Status::IOError("copy durable directory: " + ec.message()),
                     "copy");
      continue;
    }
    DurabilityOptions durability;
    durability.dir = copy;
    RecoveryStats rs;
    Span span(ctx->tracer, "persist.recover");
    const double t0 = NowS();
    Result<std::unique_ptr<StreamingCube>> rec = StreamingCube::Recover(
        kDims, MomentsSummary(kK), leader->options(), durability, &rs);
    const double dt = NowS() - t0;
    span.Attr("epochs_replayed", static_cast<double>(rs.epochs_replayed));
    span.Attr("cells_replayed", static_cast<double>(rs.cells_replayed));
    if (ctx->ops.Count(rec.status(), "Recover")) {
      seconds.push_back(dt);
      if (LeaderFingerprint(*rec.value()) != want) {
        ctx->checks.Expect("recovered state differs from the leader's",
                           "recovery");
      }
      rec.value().reset();
    }
    double checkpoint_bytes = 0.0;
    for (const fs::directory_entry& e : fs::directory_iterator(copy, ec)) {
      if (e.path().filename().string().rfind("CHECKPOINT-", 0) == 0) {
        checkpoint_bytes += static_cast<double>(e.file_size(ec));
      }
    }
    span.Attr("checkpoint_bytes", checkpoint_bytes);
    span.End();
    fs::remove_all(copy, ec);
  }
  return seconds;
}

void ReportIngest(Context* ctx, const std::vector<IngestPhase>& phases,
                  int windows) {
  std::vector<double> rate, wal_per_row, fresh_p50, fresh_p99;
  size_t samples = 0;
  for (const IngestPhase& p : phases) {
    if (p.seconds > 0 && p.rows > 0) {
      rate.push_back(static_cast<double>(p.rows) / p.seconds);
      wal_per_row.push_back(static_cast<double>(p.wal_bytes) /
                            static_cast<double>(p.rows));
    }
    if (p.freshness_ms.empty()) continue;
    samples += p.freshness_ms.size();
    const auto [first, last] =
        std::minmax_element(p.freshness_at.begin(), p.freshness_at.end());
    const double width = (*last - *first) / windows;
    std::vector<std::vector<double>> by_window(windows);
    for (size_t i = 0; i < p.freshness_ms.size(); ++i) {
      const int w = width > 0 ? static_cast<int>((p.freshness_at[i] - *first) /
                                                 width)
                              : 0;
      by_window[std::min(w, windows - 1)].push_back(p.freshness_ms[i]);
    }
    for (const std::vector<double>& f : by_window) {
      if (f.empty()) continue;
      fresh_p50.push_back(Percentile(f, 0.5));
      fresh_p99.push_back(Percentile(f, 0.99));
    }
  }
  ctx->report.Set("ingest_rows_per_s", Median(rate), "rows/s");
  ctx->report.Set("wal_bytes_per_row", Median(wal_per_row), "B/row");
  ctx->report.Set("freshness_p50_ms", Median(fresh_p50), "ms");
  ctx->report.Set("freshness_p99_ms", Median(fresh_p99), "ms");
  std::fprintf(stderr,
               "perfbench: %zu ingest phases, %zu freshness samples, "
               "freshness ms: p50 %.1f p99 %.1f\n",
               phases.size(), samples, Median(fresh_p50), Median(fresh_p99));
}

void ReportQueries(Context* ctx, const QueryStream& q) {
  ctx->report.Set("certified_query_p50_us", Percentile(q.certified_us, 0.5),
                  "us");
  ctx->report.Set("certified_query_p99_us", Percentile(q.certified_us, 0.99),
                  "us");
  ctx->report.Set("where_query_p50_us", Percentile(q.where_us, 0.5), "us");
  std::fprintf(stderr,
               "perfbench: %zu certified samples, us: p50 %.0f p90 %.0f "
               "p95 %.0f p98 %.0f p99 %.0f max %.0f; %zu where samples\n",
               q.certified_us.size(), Percentile(q.certified_us, 0.5),
               Percentile(q.certified_us, 0.9),
               Percentile(q.certified_us, 0.95),
               Percentile(q.certified_us, 0.98),
               Percentile(q.certified_us, 0.99),
               Percentile(q.certified_us, 1.0), q.where_us.size());
}

void CheckRankError(Context* ctx, const std::vector<double>& rank_errors) {
  double sum = 0.0;
  for (double e : rank_errors) sum += e;
  const double mean =
      rank_errors.empty() ? 0.0 : sum / static_cast<double>(rank_errors.size());
  std::fprintf(stderr, "perfbench: mean rank error %.5f over %zu estimates\n",
               mean, rank_errors.size());
  if (rank_errors.empty() || mean > kMeanRankErrorBound) {
    ctx->checks.Expect(Str("mean rank error %.5f exceeds %.3f", mean,
                           kMeanRankErrorBound),
                       "accuracy");
  }
}

void CheckKnownMisses(Context* ctx) {
  const double checked = static_cast<double>(ctx->certified_checked.load());
  const double misses =
      static_cast<double>(ctx->known_certificate_misses.load());
  if (misses > kMaxKnownMissShare * checked) {
    ctx->checks.Expect(Str("%.0f of %.0f checked certified answers hit the "
                           "known certificate fault, more than the allowed "
                           "share",
                           misses, checked),
                       "certificates");
  }
}

void WarmUp(Context* ctx, StreamingCube* cube, const Universe& u) {
  for (uint32_t e = 0; e < kEndpoints; ++e) {
    Result<CubeFilter> f =
        EncodeSpec(*cube, u, {-1, static_cast<int>(e), -1});
    if (!ctx->ops.Count(f.status(), "EncodeFilter")) continue;
    cube->QueryWhere(f.value());
    ctx->ops.Count(Status::OK(), "QueryWhere");
  }
}

void ProbeAccumulate(Context* ctx, const RowStream& s) {
  if (ctx->tracer == nullptr) return;
  std::vector<double> values;
  for (const std::vector<Batch>& bs : s.per_writer) {
    for (const Batch& b : bs) {
      values.insert(values.end(), b.values.begin(), b.values.end());
    }
  }
  for (int rep = 0; rep < 5; ++rep) {
    MomentsSketch sketch(kK);
    Span span(ctx->tracer, "core.accumulate_batch");
    sketch.AccumulateBatch(values.data(), values.size());
    span.Attr("rows", static_cast<double>(values.size()));
    span.Attr("count", static_cast<double>(sketch.count()));
  }
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string HostFingerprint(size_t nproc) {
  std::string model = "unknown";
  std::string flags;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    auto value = [&]() {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? std::string()
                                        : line.substr(colon + 2);
    };
    if (model == "unknown" && line.rfind("model name", 0) == 0) model = value();
    if (flags.empty() && line.rfind("flags", 0) == 0) flags = value();
  }
  std::string isa;
  const std::string padded = " " + flags + " ";
  for (const char* w : {"sse4_2", "avx", "avx2", "fma", "avx512f", "avx512dq",
                        "avx512bw", "avx512vl"}) {
    if (padded.find(std::string(" ") + w + " ") != std::string::npos) {
      isa += (isa.empty() ? "" : " ") + std::string(w);
    }
  }
  std::ostringstream out;
  out << "{\"cpu\": \"" << model << "\", \"isa\": \"" << isa
      << "\", \"nproc\": " << nproc << ", \"compiler\": \"" << __VERSION__
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      // The package builds the engine with these two settings fixed
      // (CMakeLists.txt).
      << "\", \"MSKETCH_NATIVE\": false, \"MSKETCH_OBS\": true}";
  return out.str();
}

}  // namespace perfbench
