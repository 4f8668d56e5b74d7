// serve-read: the read path alone. A static RMAT graph (the STA recipe:
// scale 13, 57k edge draws) behind a non-durable kBackground service with
// the hot-pair cache on. One closed-loop client alternates one-second
// slices of kSnapshot single queries on Zipf(1.1) pairs, which exercise
// the pair cache, and of uniform-pair QueryBatch calls fanned out over
// min(4, nproc) threads, which bypass it.

#include <algorithm>
#include <memory>

#include "dspc/api/spc_service.h"
#include "dspc/common/rng.h"
#include "dspc/graph/generators.h"
#include "dspc/graph/zipf_sampler.h"
#include "workloads.h"

namespace spcbench {

namespace {

constexpr size_t kRmatScale = 13;
constexpr size_t kRmatEdges = 57000;
constexpr double kZipfExponent = 1.1;
constexpr size_t kZipfPairs = size_t{1} << 20;  // cycled through
constexpr size_t kBatchPairs = 16384;  // 4 workers of 4096 pairs each
constexpr size_t kBatches = 16;                 // cycled through
constexpr size_t kSampledSingles = 2048;        // oracle-checked slots
constexpr size_t kSampledBatches = 2;           // oracle-checked batches
constexpr size_t kSampledBatchPairs = 256;      // ...their first pairs
constexpr uint64_t kSpanEvery = 64;             // traced singles: 1 in 64
constexpr double kSliceSeconds = 1.0;           // singles/batch alternation

}  // namespace

WorkloadResult RunServeRead(const RunConfig& cfg, Tracer* tracer) {
  WorkloadResult result;
  SpanLog* log = tracer->NewLog();

  // --- set-up: generate, build, open, first snapshot published ----------
  int64_t t0 = NowNs();
  dspc::Graph graph =
      dspc::GenerateRmat(kRmatScale, kRmatEdges, SubSeed(cfg.seed, 1));
  if (log) log->Add("graph.generate", t0, NowNs(), 0);

  dspc::DynamicSpcOptions options;
  options.snapshot.refresh = dspc::RefreshPolicy::kBackground;
  options.pair_cache.enabled = true;
  t0 = NowNs();
  auto service = std::make_unique<dspc::SpcService>(std::move(graph), options);
  const dspc::Status warm = service->WaitForSnapshot({service->Generation()});
  if (log) log->Add("api.open", t0, NowNs(), 0);
  result.e2e["setup_s"] = SecondsSince(cfg.process_start);
  if (!warm.ok()) {
    result.Fail("serve-read: first snapshot not published: " + warm.ToString());
    return result;
  }

  // --- inputs (the benchmark's, not the program's) ----------------------
  const dspc::Graph& g = service->engine().graph();  // static: no writers
  const size_t n = g.NumVertices();
  const MirrorGraph mirror(n, g.Edges());
  const uint64_t generation = service->Generation();

  std::vector<dspc::VertexPair> zipf(kZipfPairs);
  {
    dspc::ZipfVertexSampler sampler(g, kZipfExponent);
    dspc::Rng rng(SubSeed(cfg.seed, 2));
    for (auto& p : zipf) p = {sampler.Sample(rng), sampler.Sample(rng)};
  }
  std::vector<std::vector<dspc::VertexPair>> batches(kBatches);
  {
    dspc::Rng rng(SubSeed(cfg.seed, 3));
    for (auto& batch : batches) {
      batch.resize(kBatchPairs);
      for (auto& p : batch) {
        p = {static_cast<dspc::Vertex>(rng.NextBounded(n)),
             static_cast<dspc::Vertex>(rng.NextBounded(n))};
      }
    }
  }

  // --- timed: alternating slices of Zipf singles and uniform batches ----
  // Both clients are closed loops. Alternating kSliceSeconds slices over
  // the whole run, instead of two halves, lets both see the same stretch
  // of host noise.
  const dspc::ReadOptions snapshot_read{.consistency =
                                            dspc::Consistency::kSnapshot};
  dspc::ReadOptions batch_read = snapshot_read;
  batch_read.threads = cfg.clients;
  LatencyHistogram reads, batch_calls;
  std::vector<dspc::SpcResult> single_answers(kSampledSingles);
  std::vector<bool> single_seen(kSampledSingles, false);
  std::vector<std::vector<dspc::SpcResult>> batch_answers(kSampledBatches);
  uint64_t singles = 0, calls = 0, pairs_answered = 0;
  int64_t singles_ns = 0, batch_ns = 0;
  const size_t slices =
      2 * std::max<size_t>(1, static_cast<size_t>(cfg.seconds / (2 * kSliceSeconds)));
  const auto slice_len = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(cfg.seconds / static_cast<double>(slices)));
  for (size_t slice = 0; slice < slices; ++slice) {
    const int64_t slice_start = NowNs();
    const auto slice_end = Clock::now() + slice_len;
    if (slice % 2 == 0) {
      int64_t last = slice_start;
      for (;;) {
        const auto& [s, t] = zipf[singles % kZipfPairs];
        const auto r = service->Query(s, t, snapshot_read);
        const int64_t now = NowNs();
        reads.Record(now - last);
        if (log && singles % kSpanEvery == 0) {
          log->Add("api.query", last, now, singles);
        }
        if (!r.ok()) {
          ++result.failed;
        } else if (singles % kZipfPairs < kSampledSingles) {
          single_answers[singles % kZipfPairs] = r->result;
          single_seen[singles % kZipfPairs] = true;
        }
        ++singles;
        last = NowNs();
        if ((singles & 255) == 0 && Clock::now() >= slice_end) break;
      }
      singles_ns += last - slice_start;
    } else {
      while (Clock::now() < slice_end) {
        const auto& pairs = batches[calls % kBatches];
        const int64_t b0 = NowNs();
        auto r = service->QueryBatch(pairs, batch_read);
        const int64_t b1 = NowNs();
        batch_calls.Record(b1 - b0);
        if (log) log->Add("api.batch", b0, b1, calls);
        if (!r.ok() || r->results.size() != pairs.size()) {
          ++result.failed;
        } else {
          pairs_answered += pairs.size();
          if (calls % kBatches < kSampledBatches) {
            batch_answers[calls % kBatches] = std::move(r->results);
          }
        }
        ++calls;
      }
      batch_ns += NowNs() - slice_start;
    }
  }
  result.attempted = singles + calls;

  // --- checks (outside the timed phases) --------------------------------
  std::vector<Observation> observed;
  CheckReport symmetry;
  for (size_t i = 0; i < kSampledSingles; ++i) {
    if (!single_seen[i]) continue;
    const auto& [s, t] = zipf[i];
    observed.push_back({s, t, single_answers[i], generation});
    const auto back = service->Query(t, s, snapshot_read);
    symmetry.Expect(back.ok() && back->result == single_answers[i],
                    "Query(" + std::to_string(t) + "," + std::to_string(s) +
                        ") differs from Query(" + std::to_string(s) + "," +
                        std::to_string(t) + ")");
  }
  for (size_t b = 0; b < kSampledBatches; ++b) {
    if (batch_answers[b].empty()) continue;
    for (size_t i = 0; i < kSampledBatchPairs; ++i) {
      const auto& [s, t] = batches[b][i];
      observed.push_back({s, t, batch_answers[b][i], generation});
    }
  }
  if (observed.empty()) result.Fail("serve-read: no answer was sampled");
  result.AddChecks("oracle", CheckObservations(mirror, {generation, {}}, observed));
  result.AddChecks("symmetry", symmetry);

  // --- end-to-end metrics ------------------------------------------------
  const auto pin = service->engine().PinSnapshot();
  FillReadMetrics(reads, static_cast<double>(singles_ns) * 1e-9, &result);
  result.e2e["op_per_s"] =
      static_cast<double>(pairs_answered) / (static_cast<double>(batch_ns) * 1e-9);
  result.e2e["op_p50_us"] = batch_calls.QuantileNs(0.5) * 1e-3;
  result.e2e["index_bytes"] = static_cast<double>(pin->ArenaBytes());
  result.e2e["peak_rss_mb"] = PeakRssMb();
  result.reference["singles"] = static_cast<double>(singles);
  result.reference["batch_calls"] = static_cast<double>(calls);
  result.reference["batch_pairs"] = static_cast<double>(kBatchPairs);

  const dspc::MetricsSnapshot metrics = service->Metrics();
  result.reference["pair_cache_hit_rate"] =
      static_cast<double>(metrics.pair_cache_hits) /
      static_cast<double>(std::max<uint64_t>(
          1, metrics.pair_cache_hits + metrics.pair_cache_misses));

  if (tracer->enabled()) {
    FillServiceMetricLayers(metrics, &result);
    FillSnapshotCounters(*service, &result);
    {
      const int64_t r0 = NowNs();
      service->engine().WaitForFreshSnapshot();
      log->Add("core.snapshot.refresh", r0, NowNs(), 0);
    }
    const std::vector<dspc::VertexPair> sample(zipf.begin(),
                                               zipf.begin() + (1 << 16));
    MeasureReadLayers(*service, *pin.snapshot, sample, batches[0], *tracer,
                      log, &result);
    result.layer["api.batch_ns_per_pair"] =
        batch_calls.QuantileNs(0.5) / kBatchPairs;
    MeasureBuildLayers(g, log, &result);
    MeasureFlatLayers(service->engine().index(), *pin.snapshot, log, &result);
  }
  return result;
}

}  // namespace spcbench
