// spcbench: runs one workload and prints its result.
//
//   spcbench --workload <serve-read|hybrid-update|durable-mixed>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--run-root <dir>] [--keep-trace <file>]
//
// Inputs are generated from --seed. The run's durability, publish and
// trace files live in <run-root>/<pid>-<seed>, removed at exit. The last
// line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). The line before it ("# detail ...") carries reference
// figures and any check failure. Exit status 0 when every check passed,
// 1 when a check failed, 2 on a usage or environment error.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "trace.h"
#include "workloads.h"

namespace spcbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json ("end_to_end" and "per_layer"); run.py checks.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"read_qps", "1/s"},     {"read_p50_ns", "ns"},
    {"read_p95_ns", "ns"},    {"op_per_s", "1/s"},     {"op_p50_us", "us"},
    {"index_bytes", "bytes"}, {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"api.query_ns", "ns"},
    {"api.query_overhead_ns", "ns"},
    {"api.batch_ns_per_pair", "ns"},
    {"api.apply_insert_us", "us"},
    {"api.apply_delete_ms", "ms"},
    {"api.apply_overhead_us", "us"},
    {"api.wait_snapshot_ms", "ms"},
    {"api.publish_ms", "ms"},
    {"api.mapped_refresh_ms", "ms"},
    {"core.pair_cache.hit_rate", "ratio"},
    {"core.pair_cache.lookups", "count"},
    {"core.pair_cache.evictions", "count"},
    {"core.snapshot.pin_ns", "ns"},
    {"core.snapshot.refresh_ms", "ms"},
    {"core.snapshot.rebuilds", "count"},
    {"core.snapshot.shards_repacked", "count"},
    {"core.snapshot.shards_adopted", "count"},
    {"core.snapshot.adopted_share", "ratio"},
    {"core.snapshot.staleness_mean", "generations"},
    {"core.flat.query_ns", "ns"},
    {"core.flat.query_many_ns_per_pair", "ns"},
    {"core.flat.pack_ms", "ms"},
    {"core.flat.entries", "count"},
    {"core.flat.overflow_entries", "count"},
    {"core.inc.us", "us"},
    {"core.inc.count", "count"},
    {"core.inc.affected_hubs", "count"},
    {"core.inc.visited", "count"},
    {"core.inc.label_changes", "count"},
    {"core.inc.changes_per_visit", "ratio"},
    {"core.dec.ms", "ms"},
    {"core.dec.count", "count"},
    {"core.dec.sr", "count"},
    {"core.dec.r", "count"},
    {"core.dec.visited", "count"},
    {"core.dec.label_changes", "count"},
    {"core.dec.removed", "count"},
    {"core.dec.changes_per_visit", "ratio"},
    {"core.dec.isolated_fastpath", "count"},
    {"core.dec.rebuild_ratio", "ratio"},
    {"core.build.s", "s"},
    {"core.build.parallel_s", "s"},
    {"graph.ordering_ms", "ms"},
    {"graph.generate_s", "s"},
    {"persist.wal.updates", "count"},
    {"persist.wal.syncs_per_update", "ratio"},
    {"persist.wal.bytes_per_update", "bytes"},
    {"persist.wal.durable_waits", "count"},
    {"persist.checkpoint_ms", "ms"},
    {"persist.arena_bytes", "bytes"},
    {"persist.recovery_s", "s"},
    {"client.snapshot_lag_p50_ms", "ms"},
    {"client.arena_visible_p50_ms", "ms"},
    {"client.reader_late_p99_us", "us"},
    {"trace.spans", "count"},
    {"trace.span_cost_ns", "ns"},
    {"trace.self_s.client", "s"},
    {"trace.self_s.api", "s"},
    {"trace.self_s.core", "s"},
    {"trace.self_s.graph", "s"},
    {"trace.self_s.persist", "s"},
    {"traced.setup_s", "s"},
    {"traced.read_qps", "1/s"},
    {"traced.read_p50_ns", "ns"},
    {"traced.read_p95_ns", "ns"},
    {"traced.op_per_s", "1/s"},
    {"traced.op_p50_us", "us"},
    {"traced.index_bytes", "bytes"},
    {"traced.peak_rss_mb", "MB"},
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 9e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "spcbench: %s\nusage: spcbench --workload "
               "<serve-read|hybrid-update|durable-mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--run-root <dir>] "
               "[--keep-trace <file>]\n",
               msg);
  return 2;
}

/// Removes the run directory however the run ends.
struct RunDirGuard {
  std::filesystem::path dir;
  ~RunDirGuard() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

}  // namespace
}  // namespace spcbench

int main(int argc, char** argv) {
  using namespace spcbench;
  const auto process_start = Clock::now();

  std::string workload, run_root = ".bench_build/runs", keep_trace;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoll(value, &end, 10);
      if (*end != '\0' || seed < 0) return Usage("--seed must be >= 0");
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds > 0) || seconds > 600) {
        return Usage("--seconds must be in (0, 600]");
      }
    } else if (arg == "--trace") {
      const std::string v = value;
      if (v != "0" && v != "1") return Usage("--trace must be 0 or 1");
      trace = v == "1";
    } else if (arg == "--run-root") {
      run_root = value;
    } else if (arg == "--keep-trace") {
      keep_trace = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (workload.empty() || seed < 0 || seconds < 0 || trace < 0) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  WorkloadResult (*run)(const RunConfig&, Tracer*) = nullptr;
  if (workload == "serve-read") run = RunServeRead;
  if (workload == "hybrid-update") run = RunHybridUpdate;
  if (workload == "durable-mixed") run = RunDurableMixed;
  if (run == nullptr) return Usage(("unknown workload " + workload).c_str());

  RunDirGuard guard{std::filesystem::absolute(run_root) /
                    (std::to_string(getpid()) + "-" + std::to_string(seed))};
  std::error_code ec;
  std::filesystem::remove_all(guard.dir, ec);
  std::filesystem::create_directories(guard.dir, ec);
  if (ec) return Usage(("cannot create run directory " + guard.dir.string()).c_str());

  RunConfig cfg;
  cfg.seed = static_cast<uint64_t>(seed);
  cfg.seconds = seconds;
  cfg.trace = trace == 1;
  cfg.run_dir = guard.dir.string();
  cfg.clients = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  cfg.process_start = process_start;

  Tracer tracer(cfg.trace);
  WorkloadResult result = run(cfg, &tracer);

  for (const MetricDef& m : kEndToEnd) {
    const auto it = result.e2e.find(m.name);
    if (it == result.e2e.end() || !(it->second > 0) || !std::isfinite(it->second)) {
      result.Fail(std::string("end-to-end metric ") + m.name +
                  " was not measured (missing or not positive)");
    }
  }
  if (cfg.trace) {
    FillTraceSummary(tracer, &result);
    for (const MetricDef& m : kEndToEnd) {
      result.layer[std::string("traced.") + m.name] = result.e2e[m.name];
    }
    const std::string path = cfg.run_dir + "/trace.jsonl";
    if (!tracer.WriteJsonl(path)) result.Fail("cannot write " + path);
    if (!keep_trace.empty()) {
      std::filesystem::copy_file(path, keep_trace,
                                 std::filesystem::copy_options::overwrite_existing, ec);
    }
  }

  std::string detail = "{\"workload\":" + JsonString(workload) +
                       ",\"seed\":" + JsonNumber(static_cast<double>(seed)) +
                       ",\"clients\":" + JsonNumber(cfg.clients);
  for (const auto& [name, value] : result.reference) {
    detail += "," + JsonString(name) + ":" + JsonNumber(value);
  }
  detail += ",\"failures\":[";
  for (size_t i = 0; i < result.failures.size(); ++i) {
    detail += (i ? "," : "") + JsonString(result.failures[i]);
  }
  detail += "]}";
  std::printf("# detail %s\n", detail.c_str());

  std::string line = std::string("{\"correct\": ") +
                     (result.correct ? "true" : "false") +
                     ", \"attempted\": " +
                     JsonNumber(static_cast<double>(result.attempted)) +
                     ", \"failed\": " +
                     JsonNumber(static_cast<double>(result.failed)) +
                     ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& m, double value) {
    line += (first ? "" : ", ") + JsonString(m.name) + ": {\"value\": " +
            JsonNumber(value) + ", \"unit\": " + JsonString(m.unit) + "}";
    first = false;
  };
  if (cfg.trace) {
    for (const MetricDef& m : kPerLayer) emit(m, result.layer[m.name]);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m, result.e2e[m.name]);
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
