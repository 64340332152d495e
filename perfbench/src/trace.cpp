#include "src/trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

thread_local uint64_t t_current_span = 0;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::string LayerOf(const std::string& name) {
  const size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

double SpanRecord::Attr(const std::string& key, double fallback) const {
  for (const auto& kv : attrs) {
    if (kv.first == key) return kv.second;
  }
  return fallback;
}

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

uint64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Record(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\tquery_id\tname\tstart_ns\tend_ns\tattrs\n");
  for (const SpanRecord& s : spans_) {
    std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%lld\t%lld\t",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.query_id), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
    for (size_t i = 0; i < s.attrs.size(); ++i) {
      std::fprintf(f, "%s%s=%.17g", i == 0 ? "" : ";", s.attrs[i].first.c_str(),
                   s.attrs[i].second);
    }
    std::fprintf(f, "\n");
  }
  return std::fclose(f) == 0;
}

MetricMap Tracer::Derive() const {
  std::vector<SpanRecord> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = spans_;
  }
  std::map<std::string, std::vector<const SpanRecord*>> by_name;
  for (const SpanRecord& s : spans) by_name[s.name].push_back(&s);
  auto named = [&](const std::string& name) {
    auto it = by_name.find(name);
    return it == by_name.end() ? std::vector<const SpanRecord*>() : it->second;
  };
  auto durations_us = [&](const std::string& name) {
    std::vector<double> out;
    for (const SpanRecord* s : named(name)) out.push_back(s->DurationUs());
    return out;
  };
  auto attr_values = [&](const std::string& name, const std::string& key) {
    std::vector<double> out;
    for (const SpanRecord* s : named(name)) out.push_back(s->Attr(key));
    return out;
  };
  auto attr_sum = [&](const std::string& name, const std::string& key) {
    double sum = 0.0;
    for (const SpanRecord* s : named(name)) sum += s->Attr(key);
    return sum;
  };
  auto ns_per = [&](const std::string& name, const std::string& key) {
    double ns = 0.0, n = 0.0;
    for (const SpanRecord* s : named(name)) {
      ns += static_cast<double>(s->end_ns - s->start_ns);
      n += s->Attr(key);
    }
    return n > 0.0 ? ns / n : 0.0;
  };
  auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  MetricMap m;
  auto put = [&](const std::string& name, const char* unit, double value) {
    m[name] = {value, unit};
  };

  // core: probes on the workload's values and on each point query's
  // merged sketch.
  {
    std::vector<double> per_row;
    for (const SpanRecord* s : named("core.accumulate_batch")) {
      const double rows = s->Attr("rows");
      if (rows > 0) per_row.push_back((s->end_ns - s->start_ns) / rows);
    }
    put("core.accumulate_ns_per_row", "ns/row", Median(per_row));
  }
  put("core.solve_us_p50", "us", Median(durations_us("core.solve_maxent")));
  {
    const double solves =
        static_cast<double>(named("core.solve_maxent").size());
    put("core.newton_iters_per_solve", "iters",
        ratio(attr_sum("core.solve_maxent", "newton_iterations"), solves));
    put("core.solve_iteration_capped", "share",
        ratio(attr_sum("core.solve_maxent", "iteration_capped"), solves));
  }
  put("core.certify_us_p50", "us",
      Median(durations_us("core.certified_interval")));
  put("core.rtt_bound_us", "us", Median(durations_us("core.rtt_bound")));

  // cube: planned merges, the router, and the GROUP BY pipelines.
  put("cube.where_us_p50", "us", Median(durations_us("cube.query_where")));
  put("cube.cells_merged_per_query", "count",
      Mean(attr_values("cube.query_where", "merges")));
  put("cube.span_merges_per_query", "count",
      Mean(attr_values("cube.query_where", "span_merges")));
  put("cube.router_us_p50", "us",
      Median(durations_us("cube.router_query_many")));
  {
    // Package = the end-to-end certified call minus the probes of its
    // parts (planned merge, KLL merge, router), per query id.
    std::unordered_map<uint64_t, double> parts;
    for (const char* name :
         {"cube.query_where", "cube.merge_kll", "cube.router_query_many"}) {
      for (const SpanRecord* s : named(name)) {
        if (s->query_id != 0) parts[s->query_id] += s->DurationUs();
      }
    }
    std::vector<double> package;
    for (const SpanRecord* s : named("e2e.query_certified")) {
      auto it = parts.find(s->query_id);
      if (it != parts.end()) package.push_back(s->DurationUs() - it->second);
    }
    put("cube.query_package_us_p50", "us", Median(package));
  }
  auto us_per_group = [&](const std::string& name) {
    double us = 0.0, groups = 0.0;
    for (const SpanRecord* s : named(name)) {
      us += s->DurationUs();
      groups += s->Attr("groups");
    }
    return ratio(us, groups);
  };
  put("cube.groupby_us_per_group", "us/group",
      us_per_group("cube.groupby_quantiles"));
  put("cube.groupby_certified_us_per_group", "us/group",
      us_per_group("cube.groupby_certified"));
  put("cube.threshold_us_per_group", "us/group",
      us_per_group("cube.groupby_threshold"));
  put("cube.groupby_cold_solves", "count",
      Mean(attr_values("cube.groupby_quantiles", "cold_solves")));
  put("cube.groupby_warm_solves", "count",
      Mean(attr_values("cube.groupby_quantiles", "warm_solves")));
  put("cube.groupby_cache_hits", "count",
      Mean(attr_values("cube.groupby_quantiles", "cache_hits")));
  put("cube.groupby_newton_iters_per_solve", "iters", ratio(
      attr_sum("cube.groupby_quantiles", "newton_iterations"),
      attr_sum("cube.groupby_quantiles", "cold_solves") +
          attr_sum("cube.groupby_quantiles", "warm_solves")));
  put("cube.groupby_iteration_capped", "count",
      Mean(attr_values("cube.groupby_quantiles", "iteration_capped")));
  put("cube.lane_occupancy", "share",
      Mean(attr_values("cube.groupby_quantiles", "lane_occupancy")));
  for (const char* key : {"moments_answers", "kll_answers", "atomic_answers",
                          "warm_solves", "cold_solves"}) {
    put(std::string("cube.certified_groupby_") + key, "count",
        Mean(attr_values("cube.groupby_certified", key)));
  }
  put("cube.threshold_bound_resolved_share", "share",
      ratio(attr_sum("cube.groupby_threshold", "resolved_by_bounds"),
            attr_sum("cube.groupby_threshold", "total")));
  put("cube.threshold_maxent_resolved", "count",
      Mean(attr_values("cube.groupby_threshold", "resolved_maxent")));

  // ingest: the write calls, and the engine counters read at the end of
  // each ingest phase.
  put("ingest.encode_ns_per_row", "ns/row",
      ns_per("ingest.encode_rows", "rows"));
  put("ingest.append_ns_per_row", "ns/row",
      ns_per("ingest.append_row_batch", "rows"));
  for (const char* key : {"backpressure_events", "rows_backpressured",
                          "chunks_sealed", "steal_giveups",
                          "epochs_published"}) {
    put(std::string("ingest.") + key, "count",
        Mean(attr_values("bench.ingest_phase", key)));
  }
  put("ingest.rows_per_epoch", "rows",
      ratio(attr_sum("bench.ingest_phase", "rows"),
            attr_sum("bench.ingest_phase", "epochs_published")));
  put("ingest.publish_ms_p50", "ms",
      Mean(attr_values("bench.ingest_phase", "publish_ms_p50")));
  {
    double mx = 0.0;
    for (double v : attr_values("bench.ingest_phase", "publish_ms_max")) {
      mx = std::max(mx, v);
    }
    put("ingest.publish_ms_max", "ms", mx);
  }
  put("ingest.drain_ms_p50", "ms",
      Mean(attr_values("bench.ingest_phase", "drain_ms_p50")));
  {
    double mx = 0.0;
    for (double v : attr_values("bench.ingest_phase", "lateness_ms_p99")) {
      mx = std::max(mx, v);
    }
    put("ingest.generator_lateness_ms_p99", "ms", mx);
  }

  // persist: WAL and checkpoint counters per ingest phase, and recovery.
  put("persist.wal_bytes", "B",
      Mean(attr_values("bench.ingest_phase", "wal_bytes")));
  put("persist.wal_syncs", "count",
      Mean(attr_values("bench.ingest_phase", "wal_syncs")));
  put("persist.checkpoints_written", "count",
      Mean(attr_values("bench.ingest_phase", "checkpoints_written")));
  put("persist.durability_ms_p50", "ms",
      Mean(attr_values("bench.ingest_phase", "durability_ms_p50")));
  put("persist.recover_epochs_replayed", "count",
      Mean(attr_values("persist.recover", "epochs_replayed")));
  put("persist.recover_cells_replayed", "count",
      Mean(attr_values("persist.recover", "cells_replayed")));
  put("persist.checkpoint_bytes", "B",
      Mean(attr_values("persist.recover", "checkpoint_bytes")));

  // replica: one fresh follower per resync.
  for (const char* key : {"bytes_shipped", "epochs_shipped", "snapshot_chunks",
                          "round_retries"}) {
    put(std::string("replica.") + key,
        std::string(key) == "bytes_shipped" ? "B" : "count",
        Mean(attr_values("replica.sync_with_retry", key)));
  }

  // Self time per layer: a span's duration minus its children's.
  {
    std::unordered_map<uint64_t, int64_t> child_ns;
    for (const SpanRecord& s : spans) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, double> self_s;
    for (const char* layer : {"core", "cube", "ingest", "persist", "replica"}) {
      self_s[layer] = 0.0;
    }
    for (const SpanRecord& s : spans) {
      const std::string layer = LayerOf(s.name);
      auto it = self_s.find(layer);
      if (it == self_s.end()) continue;
      const auto c = child_ns.find(s.id);
      const int64_t self =
          (s.end_ns - s.start_ns) - (c == child_ns.end() ? 0 : c->second);
      it->second += static_cast<double>(self) / 1e9;
    }
    for (const auto& kv : self_s) put(kv.first + ".self_s", "s", kv.second);
  }
  return m;
}

Span::Span(Tracer* tracer, const char* name, uint64_t query_id,
           uint64_t parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  rec_.id = tracer_->NextId();
  rec_.parent = parent == kInheritParent ? t_current_span : parent;
  rec_.query_id = query_id;
  rec_.name = name;
  saved_current_ = t_current_span;
  t_current_span = rec_.id;
  open_ = true;
  rec_.start_ns = tracer_->NowNs();
}

Span::~Span() { End(); }

void Span::Attr(const char* key, double value) {
  if (tracer_ == nullptr) return;
  rec_.attrs.emplace_back(key, value);
}

void Span::End() {
  if (!open_) return;
  open_ = false;
  rec_.end_ns = tracer_->NowNs();
  t_current_span = saved_current_;
  tracer_->Record(std::move(rec_));
}

}  // namespace perfbench
