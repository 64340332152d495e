// The repository benchmark's binary. Runs one workload and prints, as
// the last line of standard output, one JSON object:
//
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {name: {"value": v, "unit": u}, ...},
//    "layers": {...}}   (traced runs only)
//
// The lines before it are the known-certificate-fault tally
// ("known_certificate_misses N of M ...") and the host fingerprint
// ("host {...}"). perfbench/
// run.py builds this binary and turns its output into the benchmark's
// result line; see README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --workdir DIR [--spans FILE]
//   perfbench --self-test
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "oracle/oracle.h"
#include "src/harness.h"
#include "src/trace.h"

namespace {

using perfbench::Context;

size_t CountCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void PrintMetrics(const char* key, const perfbench::MetricMap& m) {
  std::printf("\"%s\": {", key);
  bool first = true;
  for (const auto& kv : m) {
    const double v = std::isfinite(kv.second.first) ? kv.second.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", kv.first.c_str(), v,
                kv.second.second.c_str());
    first = false;
  }
  std::printf("}");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--spans FILE]\n"
               "       perfbench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, workdir, spans;
  Context ctx;
  bool trace = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      const std::string fault = perfbench::oracle::SelfTest();
      std::printf("oracle self-test: %s\n",
                  fault.empty() ? "ok" : fault.c_str());
      return fault.empty() ? 0 : 1;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      ctx.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      ctx.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = value == "1";
    } else if (arg == "--workdir") {
      workdir = value;
    } else if (arg == "--spans") {
      spans = value;
    } else {
      return Usage();
    }
  }
  if (workload.empty() || workdir.empty() || !have_seed || !(ctx.seconds > 0)) {
    return Usage();
  }

  // The checker must flag broken answers before it may pass real ones.
  const std::string self_test = perfbench::oracle::SelfTest();
  if (!self_test.empty()) {
    std::fprintf(stderr, "perfbench: oracle self-test failed: %s\n",
                 self_test.c_str());
    return 1;
  }

  std::error_code ec;
  std::filesystem::create_directories(workdir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n", workdir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  ctx.workdir = workdir;
  ctx.nproc = CountCpus();
  perfbench::Tracer tracer;
  if (trace) ctx.tracer = &tracer;

  if (workload == "ingest_highcard") {
    perfbench::RunIngestHighcard(&ctx);
  } else if (workload == "query_dashboard") {
    perfbench::RunQueryDashboard(&ctx);
  } else if (workload == "ingest_while_query") {
    perfbench::RunIngestWhileQuery(&ctx);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", workload.c_str());
    return 2;
  }
  ctx.report.Set("peak_rss_mb", perfbench::PeakRssMb(), "MB");

  perfbench::MetricMap layers;
  if (trace) {
    layers = tracer.Derive();
    if (!spans.empty() && !tracer.WriteTsv(spans)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   spans.c_str());
    }
    std::fprintf(stderr, "perfbench: %zu spans recorded\n", tracer.size());
    layers["cube.known_certificate_misses"] = {
        static_cast<double>(ctx.known_certificate_misses.load()), "count"};
  }
  perfbench::CheckKnownMisses(&ctx);

  bool finite = true;
  for (const auto* m : {&ctx.report.metrics, &layers}) {
    for (const auto& kv : *m) finite = finite && std::isfinite(kv.second.first);
  }
  if (!finite) std::fprintf(stderr, "perfbench: a metric is not finite\n");
  const bool correct = ctx.checks.ok() && finite;
  std::printf("known_certificate_misses %llu of %llu certified answers "
              "(allowed share %g)\n",
              static_cast<unsigned long long>(
                  ctx.known_certificate_misses.load()),
              static_cast<unsigned long long>(ctx.certified_checked.load()),
              perfbench::kMaxKnownMissShare);
  std::printf("host %s\n", perfbench::HostFingerprint(ctx.nproc).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ctx.ops.attempted()),
              static_cast<unsigned long long>(ctx.ops.failed()));
  PrintMetrics("metrics", ctx.report.metrics);
  if (trace) {
    std::printf(", ");
    PrintMetrics("layers", layers);
  }
  std::printf("}\n");
  return 0;
}
