// Output checks of the benchmark: every answer the program gave is compared
// with the BFS oracle on the mirror graph at exactly the generation the
// answer claims, and the per-update counters the service reported are
// cross-checked against an independent engine replay. All checks run
// outside the timed regions.

#ifndef SPCBENCH_CHECKS_H_
#define SPCBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dspc/baseline/bfs_counting.h"
#include "dspc/core/update_stats.h"
#include "dspc/graph/update_stream.h"
#include "oracle.h"

namespace spcbench {

/// Tally of one family of checks; keeps the first failure's description.
struct CheckReport {
  size_t checked = 0;
  size_t failed = 0;
  std::string first_failure;

  bool ok() const { return failed == 0; }
  void Pass() { ++checked; }
  void Fail(const std::string& what) {
    ++checked;
    if (failed++ == 0) first_failure = what;
  }
  void Expect(bool ok, const std::string& what) { ok ? Pass() : Fail(what); }
};

/// One answer the program served, with the generation it claims.
struct Observation {
  dspc::Vertex s = 0;
  dspc::Vertex t = 0;
  dspc::SpcResult answer;
  uint64_t generation = 0;
};

/// The applied updates in generation order: the graph at generation g is
/// the initial graph plus applied[0, g - base_generation).
struct GenerationLog {
  uint64_t base_generation = 0;
  std::vector<dspc::Update> applied;
};

bool SameAnswer(const dspc::SpcResult& got, const OracleAnswer& want);

/// Checks every observation against the oracle at its generation; an
/// observation outside [base, base + applied.size()] fails.
CheckReport CheckObservations(const MirrorGraph& initial,
                              const GenerationLog& log,
                              std::vector<Observation> observations);

/// Field-by-field equality of two update counters.
bool SameStats(const dspc::UpdateStats& a, const dspc::UpdateStats& b);

/// The service-reported counters must equal the replay's exactly, update
/// by update.
CheckReport CrossCheckStats(const std::vector<dspc::UpdateStats>& service,
                            const std::vector<dspc::UpdateStats>& replay);

}  // namespace spcbench

#endif  // SPCBENCH_CHECKS_H_
