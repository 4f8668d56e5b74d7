#include "workload_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <thread>

#include "dspc/common/rng.h"
#include "dspc/core/dynamic_spc.h"
#include "dspc/core/hp_spc.h"
#include "dspc/core/parallel_build.h"
#include "dspc/graph/ordering.h"

namespace spcbench {

void WorkloadResult::AddChecks(const std::string& family,
                               const CheckReport& report) {
  reference["checks." + family] = static_cast<double>(report.checked);
  if (!report.ok()) {
    Fail(family + ": " + std::to_string(report.failed) + " of " +
         std::to_string(report.checked) + " failed; first: " +
         report.first_failure);
  }
}

void WorkloadResult::Fail(const std::string& what) {
  correct = false;
  failures.push_back(what);
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 over (seed, stream): distinct streams never share inputs.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL +
               0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<dspc::Update> MakeRoundStream(const dspc::Graph& graph,
                                          size_t rounds, uint64_t seed) {
  const std::vector<dspc::Update> mixed = dspc::MakeHybridStream(
      graph, kInsertsPerDelete * rounds, rounds, seed);
  std::vector<dspc::Update> inserts, deletes;
  for (const dspc::Update& u : mixed) {
    (u.kind == dspc::Update::Kind::kInsert ? inserts : deletes).push_back(u);
  }
  dspc::Rng rng(SubSeed(seed, 1));
  std::vector<dspc::Update> out;
  for (size_t r = 0; r < rounds && r < deletes.size() &&
                     (r + 1) * kInsertsPerDelete <= inserts.size();
       ++r) {
    const size_t at = rng.NextBounded(kRoundUpdates);
    for (size_t k = 0, i = r * kInsertsPerDelete; k < kRoundUpdates; ++k) {
      out.push_back(k == at ? deletes[r] : inserts[i++]);
    }
  }
  return out;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void MeasureBuildLayers(const dspc::Graph& graph, SpanLog* log,
                        WorkloadResult* result) {
  int64_t t0 = NowNs();
  dspc::VertexOrdering ordering = dspc::BuildOrdering(graph);
  int64_t t1 = NowNs();
  if (log) log->Add("graph.ordering", t0, t1, 0);
  result->layer["graph.ordering_ms"] = static_cast<double>(t1 - t0) * 1e-6;

  t0 = NowNs();
  dspc::SpcIndex seq = dspc::BuildSpcIndex(graph, ordering);
  t1 = NowNs();
  if (log) log->Add("core.build.sequential", t0, t1, 0);
  result->layer["core.build.s"] = static_cast<double>(t1 - t0) * 1e-9;

  dspc::ParallelBuildOptions par;
  par.threads = std::max(1u, std::thread::hardware_concurrency());
  t0 = NowNs();
  dspc::SpcIndex parallel =
      dspc::BuildSpcIndexParallel(graph, std::move(ordering), par);
  t1 = NowNs();
  if (log) log->Add("core.build.parallel", t0, t1, 0);
  result->layer["core.build.parallel_s"] = static_cast<double>(t1 - t0) * 1e-9;
  if (!(seq == parallel)) {
    result->Fail("core.build: parallel build differs from the sequential one");
  }
}

void MeasureFlatLayers(const dspc::SpcIndex& index,
                       const dspc::FlatSpcIndex& flat, SpanLog* log,
                       WorkloadResult* result) {
  const int64_t t0 = NowNs();
  dspc::FlatSpcIndex packed(index, dspc::SnapshotOptions::kDefaultShards);
  const int64_t t1 = NowNs();
  if (log) log->Add("core.flat.pack", t0, t1, 0);
  result->layer["core.flat.pack_ms"] = static_cast<double>(t1 - t0) * 1e-6;
  result->layer["core.flat.entries"] = static_cast<double>(flat.TotalEntries());
  result->layer["core.flat.overflow_entries"] =
      static_cast<double>(flat.OverflowEntries());
  if (packed.TotalEntries() != flat.TotalEntries()) {
    result->Fail("core.flat: the served snapshot holds " +
                 std::to_string(flat.TotalEntries()) +
                 " entries, a fresh pack of the final index " +
                 std::to_string(packed.TotalEntries()));
  }
}

void ReplayAndCrossCheck(const dspc::Graph& initial,
                         const std::vector<AppliedUpdate>& applied,
                         double build_s, SpanLog* log,
                         WorkloadResult* result) {
  dspc::DynamicSpcOptions options;
  options.snapshot.enabled = false;
  dspc::DynamicSpcIndex engine(initial, options);

  std::vector<dspc::UpdateStats> service_stats, replay_stats;
  std::vector<double> inc_us, dec_ms, overhead_us;
  double inc_hubs = 0, inc_visited = 0, inc_changes = 0;
  double dec_sr = 0, dec_r = 0, dec_visited = 0, dec_changes = 0;
  double dec_removed = 0, dec_isolated = 0;
  for (size_t i = 0; i < applied.size(); ++i) {
    const dspc::Update& u = applied[i].update;
    const bool insert = u.kind == dspc::Update::Kind::kInsert;
    const int64_t t0 = NowNs();
    const dspc::UpdateStats stats = engine.Apply(u);
    const int64_t t1 = NowNs();
    if (log) log->Add(insert ? "core.inc" : "core.dec", t0, t1, i);
    const double s = static_cast<double>(t1 - t0) * 1e-9;
    service_stats.push_back(applied[i].stats);
    replay_stats.push_back(stats);
    overhead_us.push_back((applied[i].service_s - s) * 1e6);
    if (insert) {
      inc_us.push_back(s * 1e6);
      inc_hubs += static_cast<double>(stats.affected_hubs);
      inc_visited += static_cast<double>(stats.visited_vertices);
      inc_changes += static_cast<double>(stats.TotalChanges());
    } else {
      dec_ms.push_back(s * 1e3);
      dec_sr += static_cast<double>(stats.sr_a + stats.sr_b);
      dec_r += static_cast<double>(stats.r_a + stats.r_b);
      dec_visited += static_cast<double>(stats.visited_vertices);
      dec_changes += static_cast<double>(stats.TotalChanges());
      dec_removed += static_cast<double>(stats.removed);
      dec_isolated += stats.used_isolated_vertex_opt ? 1.0 : 0.0;
    }
  }
  result->AddChecks("stats_cross_check",
                    CrossCheckStats(service_stats, replay_stats));

  auto per = [](double total, size_t n) {
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  auto& L = result->layer;
  const size_t ni = inc_us.size(), nd = dec_ms.size();
  L["core.inc.us"] = Median(inc_us);
  L["core.inc.count"] = static_cast<double>(ni);
  L["core.inc.affected_hubs"] = per(inc_hubs, ni);
  L["core.inc.visited"] = per(inc_visited, ni);
  L["core.inc.label_changes"] = per(inc_changes, ni);
  L["core.inc.changes_per_visit"] = inc_visited > 0 ? inc_changes / inc_visited : 0;
  L["core.dec.ms"] = Median(dec_ms);
  L["core.dec.count"] = static_cast<double>(nd);
  L["core.dec.sr"] = per(dec_sr, nd);
  L["core.dec.r"] = per(dec_r, nd);
  L["core.dec.visited"] = per(dec_visited, nd);
  L["core.dec.label_changes"] = per(dec_changes, nd);
  L["core.dec.removed"] = per(dec_removed, nd);
  L["core.dec.changes_per_visit"] = dec_visited > 0 ? dec_changes / dec_visited : 0;
  L["core.dec.isolated_fastpath"] = dec_isolated;
  L["core.dec.rebuild_ratio"] =
      nd == 0 || L["core.dec.ms"] <= 0 ? 0.0 : build_s / (L["core.dec.ms"] * 1e-3);
  L["api.apply_overhead_us"] = Mean(overhead_us);
}

void FillServiceMetricLayers(const dspc::MetricsSnapshot& m,
                             WorkloadResult* result) {
  // Representative generations per staleness bucket:
  // 0 | 1 | 2 | 3-4 | 5-8 | 9-16 | 17-64 | >64 (the last at its floor).
  static constexpr double kMid[] = {0, 1, 2, 3.5, 6.5, 12.5, 40.5, 65};
  double sum = 0, n = 0;
  for (size_t b = 0; b < m.staleness_hist.size(); ++b) {
    sum += kMid[b] * static_cast<double>(m.staleness_hist[b]);
    n += static_cast<double>(m.staleness_hist[b]);
  }
  auto& L = result->layer;
  L["core.snapshot.staleness_mean"] = n > 0 ? sum / n : 0.0;
  const double lookups =
      static_cast<double>(m.pair_cache_hits + m.pair_cache_misses);
  L["core.pair_cache.lookups"] = lookups;
  L["core.pair_cache.hit_rate"] =
      lookups > 0 ? static_cast<double>(m.pair_cache_hits) / lookups : 0.0;
  L["core.pair_cache.evictions"] = static_cast<double>(m.pair_cache_evictions);
}

void FillReadMetrics(const LatencyHistogram& reads, double read_phase_s,
                     WorkloadResult* result) {
  auto& E = result->e2e;
  E["read_p50_ns"] = reads.QuantileNs(0.50);
  E["read_p95_ns"] = reads.QuantileNs(0.95);
  E["read_qps"] = static_cast<double>(reads.count()) / read_phase_s;
  // p99 is a reference figure only: on a host whose vCPUs are stolen now
  // and then, the top percent of reads lands in scheduler stalls whose
  // share changes from run to run (README.md).
  result->reference["read_p99_ns"] = reads.QuantileNs(0.99);
  result->reference["read_mean_ns"] = reads.MeanNs();
  result->reference["read_samples"] = static_cast<double>(reads.count());
  result->reference["read_samples_beyond_p95"] =
      static_cast<double>(reads.BeyondQuantile(0.95));
}

}  // namespace spcbench

namespace spcbench {

namespace {

double MedianSpan(const std::map<std::string, SpanSummary>& spans,
                  const char* name, double scale) {
  auto it = spans.find(name);
  return it == spans.end() ? 0.0 : Median(it->second.durations_s) * scale;
}

}  // namespace

void MeasureReadLayers(const dspc::SpcService& service,
                       const dspc::FlatSpcIndex& flat,
                       const std::vector<dspc::VertexPair>& single_pairs,
                       const std::vector<dspc::VertexPair>& batch_pairs,
                       const Tracer& tracer, SpanLog* log,
                       WorkloadResult* result) {
  auto& L = result->layer;
  // At least 2^18 queries per figure so the mean is not one cold pass.
  auto rounds_for = [](size_t n) {
    return std::max<size_t>(1, (size_t{1} << 18) / std::max<size_t>(1, n));
  };
  if (!single_pairs.empty()) {
    const size_t rounds = rounds_for(single_pairs.size());
    uint64_t sink = 0;
    const int64_t t0 = NowNs();
    for (size_t r = 0; r < rounds; ++r) {
      for (const auto& [s, t] : single_pairs) sink += flat.Query(s, t).count;
    }
    const int64_t t1 = NowNs();
    if (log) log->Add("core.flat.query_loop", t0, t1, sink & 1);
    L["core.flat.query_ns"] = static_cast<double>(t1 - t0) /
                              static_cast<double>(rounds * single_pairs.size());
  }
  if (!batch_pairs.empty()) {
    const size_t rounds = rounds_for(batch_pairs.size());
    std::vector<dspc::SpcResult> out(batch_pairs.size());
    const int64_t t0 = NowNs();
    for (size_t r = 0; r < rounds; ++r) flat.QueryMany(batch_pairs, out.data());
    const int64_t t1 = NowNs();
    if (log) log->Add("core.flat.query_many_loop", t0, t1, 0);
    L["core.flat.query_many_ns_per_pair"] =
        static_cast<double>(t1 - t0) /
        static_cast<double>(rounds * batch_pairs.size());
  }

  constexpr int kPins = 1 << 16;
  uint64_t gen_sink = 0;
  const int64_t t0 = NowNs();
  for (int i = 0; i < kPins; ++i) gen_sink += service.engine().PinSnapshot().generation;
  const int64_t t1 = NowNs();
  if (log) log->Add("core.snapshot.pin_loop", t0, t1, gen_sink & 1);
  L["core.snapshot.pin_ns"] = static_cast<double>(t1 - t0) / kPins;

  const auto spans = tracer.SummarizeByName();
  auto it = spans.find("api.query");
  if (it != spans.end()) {
    L["api.query_ns"] = Mean(it->second.durations_s) * 1e9;
    L["api.query_overhead_ns"] = L["api.query_ns"] - L["core.flat.query_ns"];
  }
}

void ProbeRefresh(dspc::SpcService* service,
                  const std::vector<dspc::Update>& stream, size_t next,
                  SpanLog* log) {
  constexpr size_t kProbes = 10;
  constexpr size_t kStep = 8;
  for (size_t p = 0; p < kProbes && next + kStep <= stream.size(); ++p) {
    const auto w = service->ApplyUpdates(
        std::span<const dspc::Update>(&stream[next], kStep));
    next += kStep;
    if (!w.ok()) break;
    const int64_t t0 = NowNs();
    service->engine().WaitForFreshSnapshot();
    if (log) log->Add("core.snapshot.refresh", t0, NowNs(), p);
  }
}

void FillSnapshotCounters(const dspc::SpcService& service,
                          WorkloadResult* result) {
  const dspc::SnapshotManager* snaps = service.engine().snapshots();
  const double repacked = static_cast<double>(snaps->ShardsRepacked());
  const double adopted = static_cast<double>(snaps->ShardsAdopted());
  auto& L = result->layer;
  L["core.snapshot.rebuilds"] = static_cast<double>(snaps->Rebuilds());
  L["core.snapshot.shards_repacked"] = repacked;
  L["core.snapshot.shards_adopted"] = adopted;
  L["core.snapshot.adopted_share"] =
      repacked + adopted > 0 ? adopted / (repacked + adopted) : 0.0;
}

void FillTraceSummary(const Tracer& tracer, WorkloadResult* result) {
  const auto spans = tracer.SummarizeByName();
  auto& L = result->layer;
  L["api.apply_insert_us"] = MedianSpan(spans, "api.apply.insert", 1e6);
  L["api.apply_delete_ms"] = MedianSpan(spans, "api.apply.delete", 1e3);
  L["api.wait_snapshot_ms"] = MedianSpan(spans, "api.wait_snapshot", 1e3);
  L["api.publish_ms"] = MedianSpan(spans, "api.publish", 1e3);
  L["api.mapped_refresh_ms"] = MedianSpan(spans, "api.mapped_refresh", 1e3);
  L["core.snapshot.refresh_ms"] = MedianSpan(spans, "core.snapshot.refresh", 1e3);
  L["persist.checkpoint_ms"] = MedianSpan(spans, "persist.checkpoint", 1e3);
  L["persist.recovery_s"] = MedianSpan(spans, "persist.recovery", 1.0);
  L["graph.generate_s"] = MedianSpan(spans, "graph.generate", 1.0);
  for (const char* layer : {"client", "api", "core", "graph", "persist"}) {
    L[std::string("trace.self_s.") + layer] = 0.0;
  }
  for (const auto& [layer, self_s] : tracer.SelfSecondsByLayer()) {
    L["trace.self_s." + layer] = self_s;
  }
  L["trace.spans"] = static_cast<double>(tracer.SpanCount());
  L["trace.span_cost_ns"] = Tracer::MeasureSpanCostNs();
}

}  // namespace spcbench
