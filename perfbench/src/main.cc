// The repository benchmark. One process runs one workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest
//
// and prints, as its last line, one JSON object with `correct`, `attempted`,
// `failed` and `metrics`: the end-to-end metrics (--trace 0) or the
// per-layer metrics of a traced replay (--trace 1). --selftest runs every
// workload at tiny sizes and feeds each checker planted wrong answers; it
// exits non-zero unless every run is correct and every plant is caught.
// --layers lists every per-layer metric with its unit, one a line.
// perfbench/README.md documents the workloads and metrics.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench.h"
#include "util/parse.h"
#include "util/string_util.h"

namespace {

using perfbench::Config;
using perfbench::Samples;

struct Workload {
  const char* name;
  void (*run)(const Config&, Samples*);
};

constexpr Workload kWorkloads[] = {
    {"archive_topk", perfbench::RunArchiveTopk},
    {"film_kernels", perfbench::RunFilmKernels},
    {"served_mix", perfbench::RunServedMix},
    {"ingest_fresh", perfbench::RunIngestFresh},
};

void AppendMetric(std::string* json, const std::string& name, double value,
                  const char* unit) {
  if (json->back() != '{') json->append(", ");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  json->append(htl::StrCat("\"", name, "\": {\"value\": ", buf, ", \"unit\": \"",
                           unit, "\"}"));
}

void PrintResult(const Config& config, const Samples& s) {
  std::string metrics = "{";
  if (config.trace) {
    for (const perfbench::LayerMetric& m : perfbench::LayerMetrics()) {
      const auto it = s.layers.find(m.name);
      AppendMetric(&metrics, m.name, it == s.layers.end() ? 0.0 : it->second, m.unit);
    }
  } else {
    AppendMetric(&metrics, "query_p50_ms", perfbench::Percentile(s.query_ms, 50), "ms");
    AppendMetric(&metrics, "query_p90_ms", perfbench::Percentile(s.query_ms, 90), "ms");
    AppendMetric(&metrics, "query_p99_ms", perfbench::Percentile(s.query_ms, 99), "ms");
    AppendMetric(&metrics, "queries_per_s",
                 s.measured_s > 0 ? static_cast<double>(s.query_ms.size()) / s.measured_s
                                  : 0,
                 "1/s");
    AppendMetric(&metrics, "fresh_p50_ms", perfbench::Percentile(s.fresh_ms, 50), "ms");
    AppendMetric(&metrics, "setup_s", perfbench::Percentile(s.setup_s, 50), "s");
    AppendMetric(&metrics, "peak_rss_mb", perfbench::PeakRssMb(), "MiB");
  }
  metrics.append("}");
  std::fprintf(stderr, "%s: %zu queries in %.2f s, %zu fresh writes, %zu set-ups\n",
               config.workload.c_str(), s.query_ms.size(), s.measured_s,
               s.fresh_ms.size(), s.setup_s.size());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              s.errors.empty() ? "true" : "false", static_cast<long long>(s.attempted),
              static_cast<long long>(s.failed), metrics.c_str());
  std::fflush(stdout);
}

int SelfTest() {
  int bad = 0;
  for (const Workload& w : kWorkloads) {
    Config config;
    config.workload = w.name;
    config.seed = 7;
    config.seconds = 1;
    config.quick = true;
    for (const bool trace : {false, true}) {
      config.trace = trace;
      Samples s;
      w.run(config, &s);
      const bool ok = s.errors.empty() && s.failed == 0 && s.attempted > 0;
      std::printf("selftest %-13s trace=%d: %s (%lld ops)\n", w.name, trace ? 1 : 0,
                  ok ? "ok" : "FAILED", static_cast<long long>(s.attempted));
      if (!ok) ++bad;
    }
  }
  const int missed = perfbench::PlantedFaultsMissed();
  std::printf("selftest planted faults missed: %d\n", missed);
  bad += missed;
  std::printf("selftest %s\n", bad == 0 ? "PASSED" : "FAILED");
  return bad == 0 ? 0 : 1;
}

// Runs this process, and every thread it starts later, on one CPU: the
// lowest one it may use. Wake-ups between the benchmark's threads (the
// served_mix generator and the server's accept and session threads) then
// stay on one CPU instead of waking halted ones, whose latency varied from
// run to run by more than the metrics' bounds.
void PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) {
      std::fprintf(stderr, "perfbench: could not pin to cpu %d\n", cpu);
    }
    return;
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <archive_topk|film_kernels|served_mix|"
               "ingest_fresh> --seed <n> --seconds <s> --trace <0|1>\n"
               "       perfbench --selftest\n"
               "       perfbench --layers\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return SelfTest();
    if (arg == "--layers") {
      for (const perfbench::LayerMetric& m : perfbench::LayerMetrics()) {
        std::printf("%s %s\n", m.name, m.unit);
      }
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      int64_t v = 0;
      if (!htl::ParseInt64(value, &v)) return Usage();
      config.seed = static_cast<uint64_t>(v);
    } else if (arg == "--seconds") {
      int64_t v = 0;
      if (!htl::ParseInt64(value, &v) || v < 1 || v > 600) return Usage();
      config.seconds = static_cast<int>(v);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage();
      config.trace = value == "1";
    } else {
      return Usage();
    }
  }
  if (!have_workload) return Usage();
  PinToOneCpu();
  for (const Workload& w : kWorkloads) {
    if (config.workload != w.name) continue;
    Samples s;
    w.run(config, &s);
    if (config.trace) {
      if (!s.add_video_us.empty()) {
        s.layers["model.add_video_us"] = perfbench::Percentile(s.add_video_us, 50);
      }
      for (const auto& [name, value] : s.layers) {
        const auto& all = perfbench::LayerMetrics();
        if (std::none_of(all.begin(), all.end(),
                         [&](const perfbench::LayerMetric& m) { return name == m.name; })) {
          s.Error(htl::StrCat("per-layer metric ", name, " is not in LayerMetrics()"));
        }
      }
    }
    PrintResult(config, s);
    return 0;
  }
  return Usage();
}
