// hybrid-update: the paper's hybrid stream (MakeHybridStream's edges, in
// rounds of 10 insertions and one deletion) on the BA recipe (n = 6000,
// attach = 2), where DecSPC is weakest. Non-durable service, default kSync refresh. One
// closed-loop client: each update is one ApplyUpdates call, followed by one
// kFresh read-your-writes query (min_generation = the returned token) on
// the updated edge's endpoints. Every rebuild_after_queries-th read also
// pays the inline snapshot refresh, so cost moved from update application
// into refresh still shows in the read tail.

#include <memory>

#include "dspc/api/spc_service.h"
#include "dspc/graph/generators.h"
#include "dspc/graph/update_stream.h"
#include "workloads.h"

namespace spcbench {

namespace {

constexpr size_t kBaVertices = 6000;
constexpr size_t kBaAttach = 2;
constexpr uint64_t kGraphSeed = 101;  // the recipe's graph; --seed varies
                                      // the update stream
/// Rounds generated per second of run: about 2x what the measured rate
/// consumes, so the stream never runs dry.
constexpr double kRoundsPerSecond = 15.0;

}  // namespace

WorkloadResult RunHybridUpdate(const RunConfig& cfg, Tracer* tracer) {
  WorkloadResult result;
  SpanLog* log = tracer->NewLog();

  // --- set-up ------------------------------------------------------------
  int64_t t0 = NowNs();
  dspc::Graph graph =
      dspc::GenerateBarabasiAlbert(kBaVertices, kBaAttach, kGraphSeed);
  if (log) log->Add("graph.generate", t0, NowNs(), 0);
  t0 = NowNs();
  auto service = std::make_unique<dspc::SpcService>(std::move(graph));
  if (log) log->Add("api.open", t0, NowNs(), 0);
  result.e2e["setup_s"] = SecondsSince(cfg.process_start);

  // --- inputs --------------------------------------------------------------
  const dspc::Graph initial = service->engine().graph();  // before any write
  const MirrorGraph mirror(initial.NumVertices(), initial.Edges());
  const std::vector<dspc::Update> stream = MakeRoundStream(
      initial, static_cast<size_t>(kRoundsPerSecond * cfg.seconds) + 4,
      SubSeed(cfg.seed, 2));
  GenerationLog gen_log{service->Generation(), {}};

  // --- timed: update + read-your-writes read, closed loop ---------------
  LatencyHistogram reads, updates;
  std::vector<double> insert_us, delete_ms;
  std::vector<AppliedUpdate> applied;
  std::vector<Observation> observed;
  CheckReport properties;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(cfg.seconds));
  size_t next = 0;
  uint64_t prev_generation = service->Generation();
  while (Clock::now() < end && next + kRoundUpdates <= stream.size()) {
    for (size_t k = 0; k < kRoundUpdates; ++k, ++next) {
      const dspc::Update& u = stream[next];
      const bool insert = u.kind == dspc::Update::Kind::kInsert;
      ScopedSpan request(log, "client.update", next);

      int64_t a = NowNs();
      auto w = service->ApplyUpdates(std::span<const dspc::Update>(&u, 1));
      int64_t b = NowNs();
      if (log) {
        log->Add(insert ? "api.apply.insert" : "api.apply.delete", a, b, next,
                 request.id());
      }
      ++result.attempted;
      if (!w.ok() || w->reports.size() != 1) {
        ++result.failed;
        continue;
      }
      updates.Record(b - a);
      (insert ? insert_us : delete_ms)
          .push_back(static_cast<double>(b - a) * (insert ? 1e-3 : 1e-6));
      const uint64_t generation = w->token.generation;
      properties.Expect(w->applied == generation - prev_generation,
                        "update " + std::to_string(next) + ": " +
                            std::to_string(w->applied) +
                            " kApplied reports, generation moved by " +
                            std::to_string(generation - prev_generation));
      prev_generation = generation;
      if (w->reports[0].applied()) {
        applied.push_back({u, w->reports[0].stats,
                           static_cast<double>(b - a) * 1e-9});
        gen_log.applied.push_back(u);
      }

      a = NowNs();
      auto r = service->Query(u.edge.u, u.edge.v,
                              {.consistency = dspc::Consistency::kFresh,
                               .min_generation = generation});
      b = NowNs();
      if (log) log->Add("api.query", a, b, next, request.id());
      ++result.attempted;
      if (!r.ok()) {
        ++result.failed;
        continue;
      }
      reads.Record(b - a);
      observed.push_back({u.edge.u, u.edge.v, r->result, r->generation});
      properties.Expect(r->generation >= generation,
                        "read-your-writes read served generation " +
                            std::to_string(r->generation) + " < token " +
                            std::to_string(generation));
      if (insert) {
        properties.Expect(r->result.dist == 1 && r->result.count == 1,
                          "inserted edge does not answer {1,1}");
      } else {
        properties.Expect(r->result.dist >= 2,
                          "deleted edge still answers distance " +
                              std::to_string(r->result.dist));
      }
    }
  }
  const double elapsed = SecondsSince(start);

  // --- checks --------------------------------------------------------------
  result.AddChecks("oracle", CheckObservations(mirror, gen_log, observed));
  MirrorGraph final_mirror = mirror;
  size_t inserted = 0, deleted = 0;
  for (const dspc::Update& u : gen_log.applied) {
    final_mirror.Apply(u);
    (u.kind == dspc::Update::Kind::kInsert ? inserted : deleted) += 1;
  }
  const size_t final_edges = service->engine().graph().NumEdges();
  properties.Expect(
      final_edges == initial.NumEdges() + inserted - deleted &&
          final_edges == final_mirror.NumEdges(),
      "final edge count " + std::to_string(final_edges) + " != initial " +
          std::to_string(initial.NumEdges()) + " + " +
          std::to_string(inserted) + " - " + std::to_string(deleted));
  properties.Expect(
      service->Generation() - gen_log.base_generation == applied.size(),
      "generation advanced by " +
          std::to_string(service->Generation() - gen_log.base_generation) +
          " for " + std::to_string(applied.size()) + " applied updates");
  result.AddChecks("properties", properties);

  // --- end-to-end metrics ---------------------------------------------------
  FillReadMetrics(reads, elapsed, &result);
  result.e2e["op_per_s"] = static_cast<double>(applied.size()) / elapsed;
  result.e2e["op_p50_us"] = updates.QuantileNs(0.5) * 1e-3;
  const auto pin = service->engine().WaitForFreshSnapshot();
  result.e2e["index_bytes"] = static_cast<double>(pin->ArenaBytes());
  result.e2e["peak_rss_mb"] = PeakRssMb();
  result.reference["insert_p50_us"] = Median(insert_us);
  result.reference["delete_p50_ms"] = Median(delete_ms);
  result.reference["inserts"] = static_cast<double>(insert_us.size());
  result.reference["deletes"] = static_cast<double>(delete_ms.size());

  if (tracer->enabled()) {
    FillServiceMetricLayers(service->Metrics(), &result);
    FillSnapshotCounters(*service, &result);
    std::vector<dspc::VertexPair> pairs;
    for (const Observation& o : observed) pairs.push_back({o.s, o.t});
    MeasureReadLayers(*service, *pin, pairs, pairs, *tracer, log, &result);
    MeasureBuildLayers(initial, log, &result);
    MeasureFlatLayers(service->engine().index(), *pin, log, &result);
    ReplayAndCrossCheck(initial, applied, result.layer["core.build.s"], log,
                        &result);
    ProbeRefresh(service.get(), stream, next, log);
  }
  return result;
}

}  // namespace spcbench
