// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only by the benchmark's own wrappers around calls
// into the engine's public functions (the engine itself is not
// instrumented here). Each span has a name "<layer>.<what>", a start and
// an end (steady clock, ns since the tracer was made), its parent span,
// and the id of the query or round it belongs to; numeric attributes
// carry the counts read at the same boundary. The spans stay in memory
// and are written out when the run ends; the per-layer metrics are
// derived from them (Derive).
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Metrics by name: value and unit.
using MetricMap = std::map<std::string, std::pair<double, std::string>>;

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t query_id = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<std::pair<std::string, double>> attrs;

  double Attr(const std::string& key, double fallback = 0.0) const;
  double DurationUs() const { return (end_ns - start_ns) / 1e3; }
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int64_t NowNs() const;
  uint64_t NextId();
  void Record(SpanRecord span);

  /// Writes every span, one per line, as tab-separated
  /// id, parent, query_id, name, start_ns, end_ns, key=value...
  bool WriteTsv(const std::string& path) const;

  /// Per-layer metrics derived from the recorded spans (see README).
  MetricMap Derive() const;

  size_t size() const;

 private:
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;  // guarded by mu_
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span. A null tracer makes every operation a no-op (the untraced
/// run reads no extra clocks). The parent defaults to the innermost open
/// span on the calling thread; pass one explicitly when a span's cause
/// ran on another thread.
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint64_t query_id = 0,
       uint64_t parent = kInheritParent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void Attr(const char* key, double value);
  uint64_t id() const { return rec_.id; }
  /// Ends the span now (the destructor then does nothing).
  void End();

  static constexpr uint64_t kInheritParent = ~uint64_t{0};

 private:
  Tracer* tracer_;
  SpanRecord rec_;
  uint64_t saved_current_ = 0;
  bool open_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
