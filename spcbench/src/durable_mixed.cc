// durable-mixed: an RMAT graph (the WCO recipe: scale 12, 34k edge draws)
// opened durable (SpcService::Open, WalSyncPolicy::kBatch, every write
// durable, kBackground refresh) in a directory unique to the run. Two
// client threads:
//   writer  applies a hybrid stream closed-loop; on every kPublishEvery-th
//           write it waits on WaitForSnapshot(token), then publishes an
//           mmap arena that an in-process MappedReaderService adopts.
//   reader  issues uniform kSnapshot queries open-loop at kReadRate; each
//           read is timed from its due time, and how late the generator
//           ran is reported.
// After the run the service is closed and reopened on the same directory:
// recovery must land on exactly the last durably-acked generation.

#include <filesystem>
#include <memory>
#include <thread>

#include "dspc/api/mapped_reader_service.h"
#include "dspc/api/spc_service.h"
#include "dspc/common/rng.h"
#include "dspc/graph/generators.h"
#include "dspc/graph/update_stream.h"
#include "dspc/persist/snapshot_publisher.h"
#include "workloads.h"

namespace spcbench {

namespace {

constexpr size_t kRmatScale = 12;
constexpr size_t kRmatEdges = 34000;
constexpr uint64_t kGraphSeed = 104;  // the recipe's graph; --seed varies
                                      // the update stream and the reads
constexpr double kRoundsPerSecond = 50.0;     // stream length per second
constexpr size_t kPublishEvery = 2 * kRoundUpdates;  // writes between publishes
constexpr size_t kMappedProbes = 4;           // mapped reads per publish
constexpr double kReadRate = 2000.0;          // paced reads per second
constexpr uint64_t kSampleEvery = 8;          // oracle-checked reads
constexpr size_t kRecoverySample = 256;       // pairs checked after reopen
constexpr uint64_t kCheckpointRecords = 1024;  // WAL records per checkpoint

struct ReaderTally {
  LatencyHistogram reads;  // from due time
  LatencyHistogram late;   // issue time minus due time
  std::vector<Observation> observed;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int64_t last_done_ns = 0;
};

void PacedReader(const dspc::SpcService& service, size_t n, uint64_t seed,
                 int64_t start_ns, int64_t end_ns, SpanLog* log,
                 ReaderTally* tally) {
  dspc::Rng rng(seed);
  const double period_ns = 1e9 / kReadRate;
  for (uint64_t i = 0;; ++i) {
    const int64_t due = start_ns + static_cast<int64_t>(period_ns * static_cast<double>(i));
    if (due >= end_ns) break;
    // Spin to the due time: a reader that slept would pay a cold wake-up
    // (idle core, cold caches) on every read and time the host's timer.
    int64_t now = NowNs();
    while (now < due) now = NowNs();
    const auto s = static_cast<dspc::Vertex>(rng.NextBounded(n));
    const auto t = static_cast<dspc::Vertex>(rng.NextBounded(n));
    const auto r = service.Query(s, t, {.consistency = dspc::Consistency::kSnapshot});
    const int64_t done = NowNs();
    tally->last_done_ns = done;
    ++tally->attempted;
    if (log) {
      const uint32_t id = log->Add("client.read", due, done, i);
      log->Add("api.query", now, done, i, id);
    }
    if (!r.ok()) {
      ++tally->failed;
      continue;
    }
    tally->reads.Record(done - due);
    tally->late.Record(now - due);
    if (i % kSampleEvery == 0) {
      tally->observed.push_back({s, t, r->result, r->generation});
    }
  }
}

}  // namespace

WorkloadResult RunDurableMixed(const RunConfig& cfg, Tracer* tracer) {
  WorkloadResult result;
  SpanLog* log = tracer->NewLog();
  const std::string wal_dir = cfg.run_dir + "/wal";
  const std::string pub_dir = cfg.run_dir + "/pub";

  // --- set-up: generate, bootstrap (build + first checkpoint), first
  // publish, mapped reader adopts it --------------------------------------
  int64_t t0 = NowNs();
  dspc::Graph graph =
      dspc::GenerateRmat(kRmatScale, kRmatEdges, kGraphSeed);
  if (log) log->Add("graph.generate", t0, NowNs(), 0);

  dspc::DurabilityOptions durability;
  durability.dir = wal_dir;
  durability.sync = dspc::WalSyncPolicy::kBatch;
  durability.flush_interval = std::chrono::microseconds(2000);
  // Background checkpoints every ~500 updates (two WAL records each), so
  // the checkpointer runs during the measurement and the reopen replays a
  // bounded WAL tail.
  durability.checkpoint_wal_records = kCheckpointRecords;
  dspc::DynamicSpcOptions options;
  options.snapshot.refresh = dspc::RefreshPolicy::kBackground;
  // One repack thread: with the writer, the paced reader and the WAL
  // flusher that keeps the runnable threads within four cores. The
  // default pool (one thread per core) oversubscribes them during every
  // background refresh, and the paced reader waits for a core.
  options.snapshot.rebuild_threads = 1;
  // The reader is paced far below saturation, so the writer-priority
  // yield has no spinning reader to hold back. Left on, each read issued
  // while a deletion is in flight hands its core to the writer for a whole
  // timeslice whenever the scheduler places the two together, and the
  // read tail swings between microseconds and milliseconds from run to
  // run (README.md, "Known behaviour").
  options.snapshot.writer_priority = false;

  t0 = NowNs();
  auto opened = dspc::SpcService::Open(std::move(graph), durability, options);
  if (log) log->Add("api.open", t0, NowNs(), 0);
  if (!opened.ok()) {
    result.Fail("durable-mixed: Open failed: " + opened.status().ToString());
    return result;
  }
  std::unique_ptr<dspc::SpcService> service = std::move(opened).value();
  auto pub_or = dspc::SnapshotPublisher::Open(pub_dir);
  if (!pub_or.ok()) {
    result.Fail("durable-mixed: publisher: " + pub_or.status().ToString());
    return result;
  }
  std::unique_ptr<dspc::SnapshotPublisher> publisher = std::move(pub_or).value();
  dspc::Status st = service->PublishSnapshot(publisher.get());
  auto mapped_or = st.ok() ? dspc::MappedReaderService::Open(pub_dir)
                           : dspc::StatusOr<std::unique_ptr<dspc::MappedReaderService>>(st);
  if (!mapped_or.ok()) {
    result.Fail("durable-mixed: first publish/adopt: " +
                mapped_or.status().ToString());
    return result;
  }
  std::unique_ptr<dspc::MappedReaderService> mapped = std::move(mapped_or).value();
  result.e2e["setup_s"] = SecondsSince(cfg.process_start);

  // --- inputs --------------------------------------------------------------
  const dspc::Graph initial = service->engine().graph();  // before any write
  const size_t n = initial.NumVertices();
  const MirrorGraph mirror(n, initial.Edges());
  const std::vector<dspc::Update> stream = MakeRoundStream(
      initial, static_cast<size_t>(kRoundsPerSecond * cfg.seconds) + 4,
      SubSeed(cfg.seed, 2));
  GenerationLog gen_log{service->Generation(), {}};
  const auto metrics_before = service->Metrics();

  // --- timed: writer (this thread) + paced reader ------------------------
  const int64_t start_ns = NowNs();
  const int64_t end_ns = start_ns + static_cast<int64_t>(cfg.seconds * 1e9);
  ReaderTally reader;
  SpanLog* reader_log = tracer->NewLog();
  // jthread: joined on every path out of this scope, before `reader` and
  // `service` go.
  std::jthread reader_thread(PacedReader, std::cref(*service), n,
                             SubSeed(cfg.seed, 3), start_ns, end_ns,
                             reader_log, &reader);

  LatencyHistogram updates;
  std::vector<double> insert_us, delete_ms, lag_ms, visible_ms;
  std::vector<AppliedUpdate> applied;
  std::vector<Observation> mapped_observed;
  CheckReport properties;
  dspc::Rng probe_rng(SubSeed(cfg.seed, 4));
  uint64_t prev_generation = gen_log.base_generation;
  uint64_t last_acked = gen_log.base_generation;
  size_t next = 0, writes = 0;
  while (NowNs() < end_ns && next + kRoundUpdates <= stream.size()) {
    for (size_t k = 0; k < kRoundUpdates; ++k, ++next) {
      const dspc::Update& u = stream[next];
      const bool insert = u.kind == dspc::Update::Kind::kInsert;
      ScopedSpan request(log, "client.update", next);
      int64_t a = NowNs();
      auto w = service->ApplyUpdates(std::span<const dspc::Update>(&u, 1),
                                     {.durable = true});
      int64_t b = NowNs();
      if (log) {
        log->Add(insert ? "api.apply.insert" : "api.apply.delete", a, b, next,
                 request.id());
      }
      ++result.attempted;
      if (!w.ok() || w->reports.size() != 1 || !w->token.durable) {
        ++result.failed;
        continue;
      }
      updates.Record(b - a);
      (insert ? insert_us : delete_ms)
          .push_back(static_cast<double>(b - a) * (insert ? 1e-3 : 1e-6));
      const dspc::WriteToken token = w->token;
      properties.Expect(w->applied == token.generation - prev_generation,
                        "update " + std::to_string(next) +
                            ": kApplied count != generation delta");
      prev_generation = token.generation;
      last_acked = token.generation;
      if (w->reports[0].applied()) {
        applied.push_back({u, w->reports[0].stats,
                           static_cast<double>(b - a) * 1e-9});
        gen_log.applied.push_back(u);
      }
      if (++writes % kPublishEvery != 0) continue;

      // Snapshot barrier: ack -> the snapshot serves this write.
      a = NowNs();
      st = service->WaitForSnapshot(token);
      int64_t c = NowNs();
      if (log) log->Add("api.wait_snapshot", a, c, next, request.id());
      ++result.attempted;
      if (!st.ok()) {
        ++result.failed;
        continue;
      }
      lag_ms.push_back(static_cast<double>(c - b) * 1e-6);

      // Publish an arena, then the mapped reader adopts it.
      a = NowNs();
      st = service->PublishSnapshot(publisher.get());
      b = NowNs();
      if (log) log->Add("api.publish", a, b, next, request.id());
      const dspc::Status adopted = st.ok() ? mapped->Refresh() : st;
      c = NowNs();
      if (log) log->Add("api.mapped_refresh", b, c, next, request.id());
      ++result.attempted;
      if (!adopted.ok() || mapped->Generation() < token.generation) {
        ++result.failed;
        continue;
      }
      visible_ms.push_back(static_cast<double>(c - a) * 1e-6);
      for (size_t p = 0; p < kMappedProbes; ++p) {
        const auto s = static_cast<dspc::Vertex>(probe_rng.NextBounded(n));
        const auto t = static_cast<dspc::Vertex>(probe_rng.NextBounded(n));
        const auto r = mapped->Query(s, t);
        ++result.attempted;
        if (!r.ok()) {
          ++result.failed;
          continue;
        }
        mapped_observed.push_back({s, t, r->result, r->generation});
      }
    }
  }
  const double elapsed = static_cast<double>(NowNs() - start_ns) * 1e-9;
  reader_thread.join();
  result.attempted += reader.attempted;
  result.failed += reader.failed;

  // --- checks on the live service --------------------------------------
  result.AddChecks("oracle_reader",
                   CheckObservations(mirror, gen_log, reader.observed));
  result.AddChecks("oracle_mapped",
                   CheckObservations(mirror, gen_log, mapped_observed));
  MirrorGraph final_mirror = mirror;
  for (const dspc::Update& u : gen_log.applied) final_mirror.Apply(u);
  {
    auto frozen = service->engine().FreezeWrites();
    properties.Expect(
        service->engine().graph().NumEdges() == final_mirror.NumEdges(),
        "final edge count " +
            std::to_string(service->engine().graph().NumEdges()) +
            " != mirror " + std::to_string(final_mirror.NumEdges()));
  }
  properties.Expect(
      service->Generation() - gen_log.base_generation == applied.size(),
      "generation advanced by " +
          std::to_string(service->Generation() - gen_log.base_generation) +
          " for " + std::to_string(applied.size()) + " applied updates");

  // --- end-to-end metrics ---------------------------------------------------
  FillReadMetrics(reader.reads,
                  static_cast<double>(reader.last_done_ns - start_ns) * 1e-9,
                  &result);
  result.e2e["op_per_s"] = static_cast<double>(applied.size()) / elapsed;
  result.e2e["op_p50_us"] = updates.QuantileNs(0.5) * 1e-3;
  st = service->WaitForSnapshot({service->Generation()});
  const auto pin = service->engine().PinSnapshot();
  if (!st.ok() || !pin) {
    result.Fail("durable-mixed: final snapshot unavailable");
    return result;
  }
  result.e2e["index_bytes"] = static_cast<double>(pin->ArenaBytes());
  result.reference["insert_p50_us"] = Median(insert_us);
  result.reference["delete_p50_ms"] = Median(delete_ms);
  result.reference["snapshot_lag_p50_ms"] = Median(lag_ms);
  result.reference["arena_visible_p50_ms"] = Median(visible_ms);
  result.reference["reader_late_p50_us"] = reader.late.QuantileNs(0.5) * 1e-3;
  result.reference["reader_late_p99_us"] = reader.late.QuantileNs(0.99) * 1e-3;
  result.reference["publishes"] = static_cast<double>(visible_ms.size());

  auto& L = result.layer;
  L["client.snapshot_lag_p50_ms"] = Median(lag_ms);
  L["client.arena_visible_p50_ms"] = Median(visible_ms);
  L["client.reader_late_p99_us"] = reader.late.QuantileNs(0.99) * 1e-3;
  const auto metrics = service->Metrics();
  const double ups = static_cast<double>(
      metrics.updates_applied - metrics_before.updates_applied);
  L["persist.wal.updates"] = ups;
  if (ups > 0) {
    L["persist.wal.syncs_per_update"] =
        static_cast<double>(metrics.wal_syncs - metrics_before.wal_syncs) / ups;
    L["persist.wal.bytes_per_update"] =
        static_cast<double>(metrics.wal_appended_bytes -
                            metrics_before.wal_appended_bytes) / ups;
  }
  L["persist.wal.durable_waits"] =
      static_cast<double>(metrics.wal_durable_waits - metrics_before.wal_durable_waits);
  std::error_code ec;
  const auto arena_size = std::filesystem::file_size(
      pub_dir + "/" + dspc::SnapshotArenaFileName(publisher->CurrentGeneration()), ec);
  L["persist.arena_bytes"] = ec ? 0.0 : static_cast<double>(arena_size);

  if (tracer->enabled()) {
    FillServiceMetricLayers(metrics, &result);
    FillSnapshotCounters(*service, &result);
    std::vector<dspc::VertexPair> pairs;
    for (const Observation& o : reader.observed) pairs.push_back({o.s, o.t});
    MeasureReadLayers(*service, *pin, pairs, pairs, *tracer, log, &result);
    MeasureFlatLayers(service->engine().index(), *pin, log, &result);
  }

  // --- close, reopen, recover to exactly the last durable ack ------------
  mapped.reset();
  publisher.reset();
  service.reset();
  t0 = NowNs();
  auto reopened = dspc::SpcService::Open(dspc::Graph(), durability, options);
  const int64_t t1 = NowNs();
  if (log) log->Add("persist.recovery", t0, t1, 0);
  if (!reopened.ok()) {
    result.Fail("durable-mixed: reopen failed: " + reopened.status().ToString());
    return result;
  }
  service = std::move(reopened).value();
  result.reference["recovery_s"] = static_cast<double>(t1 - t0) * 1e-9;
  result.reference["recovery_replayed"] =
      static_cast<double>(service->RecoveryInfo().replayed);
  properties.Expect(service->Generation() == last_acked,
                    "recovered generation " +
                        std::to_string(service->Generation()) +
                        " != last durable ack " + std::to_string(last_acked));
  std::vector<Observation> recovered;
  for (size_t i = 0; i < kRecoverySample; ++i) {
    const auto s = static_cast<dspc::Vertex>(probe_rng.NextBounded(n));
    const auto t = static_cast<dspc::Vertex>(probe_rng.NextBounded(n));
    const auto r = service->Query(s, t);
    if (!r.ok()) {
      properties.Fail("recovered service refused a read: " + r.status().ToString());
      continue;
    }
    recovered.push_back({s, t, r->result, r->generation});
  }
  result.AddChecks("oracle_recovered",
                   CheckObservations(mirror, gen_log, recovered));
  result.AddChecks("properties", properties);
  if (tracer->enabled()) {
    ProbeRefresh(service.get(), stream, next, log);
    t0 = NowNs();
    st = service->Checkpoint();
    log->Add("persist.checkpoint", t0, NowNs(), 0);
    if (!st.ok()) result.Fail("durable-mixed: checkpoint: " + st.ToString());
  }
  service.reset();
  result.e2e["peak_rss_mb"] = PeakRssMb();

  if (tracer->enabled()) {
    MeasureBuildLayers(initial, log, &result);
    ReplayAndCrossCheck(initial, applied, result.layer["core.build.s"], log,
                        &result);
  }
  return result;
}

}  // namespace spcbench
