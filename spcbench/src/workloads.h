// The three workloads. Each builds its inputs from cfg.seed, measures for
// cfg.seconds, checks every output it sampled against the oracle, and
// fills the end-to-end metrics (and, traced, the per-layer ones).

#ifndef SPCBENCH_WORKLOADS_H_
#define SPCBENCH_WORKLOADS_H_

#include "trace.h"
#include "workload_common.h"

namespace spcbench {

/// Static RMAT graph behind a non-durable kBackground service with the
/// pair cache on: closed-loop Zipf kSnapshot singles, then uniform
/// QueryBatch calls. The read path alone.
WorkloadResult RunServeRead(const RunConfig& cfg, Tracer* tracer);

/// The paper's hybrid stream (10 insertions per deletion) on a BA graph,
/// non-durable kSync service; every update is followed by a kFresh
/// read-your-writes query on its endpoints.
WorkloadResult RunHybridUpdate(const RunConfig& cfg, Tracer* tracer);

/// Durable kBackground service (kBatch WAL, durable acks) with a
/// closed-loop hybrid writer that periodically waits for the snapshot and
/// publishes an mmap arena adopted by an in-process mapped reader, and an
/// open-loop paced snapshot reader. Ends with close + reopen recovery.
WorkloadResult RunDurableMixed(const RunConfig& cfg, Tracer* tracer);

}  // namespace spcbench

#endif  // SPCBENCH_WORKLOADS_H_
