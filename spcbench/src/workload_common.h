// Shared plumbing of the three workloads: run configuration, the result a
// workload hands back to main, seeds, and the traced-run measurements that
// several workloads share (graph/build layers, the flat snapshot layer,
// and the standalone engine replay of an update stream).

#ifndef SPCBENCH_WORKLOAD_COMMON_H_
#define SPCBENCH_WORKLOAD_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "dspc/api/spc_service.h"
#include "dspc/core/flat_spc_index.h"
#include "dspc/core/spc_index.h"
#include "dspc/core/update_stats.h"
#include "dspc/graph/graph.h"
#include "dspc/graph/update_stream.h"
#include "latency.h"
#include "trace.h"

namespace spcbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string run_dir;      ///< unique to this run; removed by the caller
  unsigned clients = 1;     ///< min(4, nproc): the client thread budget
  Clock::time_point process_start;
};

struct WorkloadResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> e2e;    ///< end-to-end metrics by name
  std::map<std::string, double> layer;  ///< per-layer metrics by name
  /// Figures printed on the detail line only (not gated).
  std::map<std::string, double> reference;
  std::vector<std::string> failures;

  /// Folds a family of checks into the run: any failure makes it incorrect.
  void AddChecks(const std::string& family, const CheckReport& report);
  void Fail(const std::string& what);
};

/// Independent deterministic sub-seed for one input stream of a run.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

double SecondsSince(Clock::time_point start);
double PeakRssMb();

/// Traced run only: times the ordering, the sequential HP-SPC build and
/// the parallel build (nproc threads) of `graph` into
/// graph.ordering_ms / core.build.s / core.build.parallel_s.
void MeasureBuildLayers(const dspc::Graph& graph, SpanLog* log,
                        WorkloadResult* result);

/// Traced run only: core.flat.pack_ms (packing `index` into a sharded
/// FlatSpcIndex) plus entries/overflow of the served snapshot `flat`.
void MeasureFlatLayers(const dspc::SpcIndex& index,
                       const dspc::FlatSpcIndex& flat, SpanLog* log,
                       WorkloadResult* result);

/// Traced run only: core.flat.query_ns (FlatSpcIndex::Query over the
/// workload's single-read pairs) and core.flat.query_many_ns_per_pair
/// (serial QueryMany over its batch pairs) on `flat`, plus
/// core.snapshot.pin_ns (PinSnapshot on `service`), and
/// api.query_overhead_ns against the api.query spans' mean.
void MeasureReadLayers(const dspc::SpcService& service,
                       const dspc::FlatSpcIndex& flat,
                       const std::vector<dspc::VertexPair>& single_pairs,
                       const std::vector<dspc::VertexPair>& batch_pairs,
                       const Tracer& tracer, SpanLog* log,
                       WorkloadResult* result);

/// Traced run only: the snapshot delta counters of `service`'s engine
/// (core.snapshot.shards_repacked / shards_adopted / adopted_share).
void FillSnapshotCounters(const dspc::SpcService& service,
                          WorkloadResult* result);

/// Traced run only: self time per layer (trace.self_s.<layer>), span
/// count, the measured cost of one span, and the median duration of the
/// named spans that several workloads report.
void FillTraceSummary(const Tracer& tracer, WorkloadResult* result);

/// Updates per round of the hybrid stream: kInsertsPerDelete insertions
/// and one deletion.
inline constexpr size_t kInsertsPerDelete = 10;
inline constexpr size_t kRoundUpdates = kInsertsPerDelete + 1;

/// The paper's hybrid stream (MakeHybridStream's edges: fresh non-edges
/// inserted, original edges deleted) laid out in `rounds` whole rounds of
/// kInsertsPerDelete insertions and one deletion at a seeded position, so
/// every run of any length applies the same mix.
std::vector<dspc::Update> MakeRoundStream(const dspc::Graph& graph,
                                          size_t rounds, uint64_t seed);

/// Traced run only, after every check: applies the unused tail of
/// `stream` (from `next`) in steps of the default rebuild budget (8
/// updates) and records a core.snapshot.refresh span around each
/// WaitForFreshSnapshot that follows.
void ProbeRefresh(dspc::SpcService* service,
                  const std::vector<dspc::Update>& stream, size_t next,
                  SpanLog* log);

/// Counters of one update stream as applied by the service, in order.
struct AppliedUpdate {
  dspc::Update update;
  dspc::UpdateStats stats;   ///< the service's WriteReport stats
  double service_s = 0.0;    ///< the ApplyUpdates call, as the client saw it
};

/// Traced run only: replays `applied` on a standalone DynamicSpcIndex with
/// snapshots disabled, fills core.inc.* / core.dec.* /
/// api.apply_overhead_us from it, and cross-checks its UpdateStats against
/// the service-reported ones (a mismatch fails the run).
void ReplayAndCrossCheck(const dspc::Graph& initial,
                         const std::vector<AppliedUpdate>& applied,
                         double build_s, SpanLog* log,
                         WorkloadResult* result);

/// Fills core.snapshot.staleness_mean and core.pair_cache.* from a
/// service's metrics snapshot.
void FillServiceMetricLayers(const dspc::MetricsSnapshot& m,
                             WorkloadResult* result);

/// Fills read_p50_ns / read_p95_ns from the workload's read histogram and
/// read_qps from its count over the seconds the reads were issued in.
void FillReadMetrics(const LatencyHistogram& reads, double read_phase_s,
                     WorkloadResult* result);

}  // namespace spcbench

#endif  // SPCBENCH_WORKLOAD_COMMON_H_
