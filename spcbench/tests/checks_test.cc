// Self tests of the benchmark's checks: the BFS oracle is right on graphs
// with known counts, the oracle check rejects a perturbed answer (count+1,
// dist+1, wrong generation), and the UpdateStats cross-check rejects a
// perturbed counter. A check that cannot fail proves nothing.
//
//   ctest (in the spcbench build directory), or run the binary directly.

#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "dspc/core/dynamic_spc.h"
#include "dspc/graph/generators.h"
#include "dspc/graph/update_stream.h"
#include "oracle.h"

namespace {

using spcbench::CheckObservations;
using spcbench::CheckReport;
using spcbench::CrossCheckStats;
using spcbench::GenerationLog;
using spcbench::MirrorGraph;
using spcbench::Observation;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

MirrorGraph MirrorOf(const dspc::Graph& g) {
  return MirrorGraph(g.NumVertices(), g.Edges());
}

void OracleKnownCounts() {
  // C4: two shortest paths between opposite corners.
  const MirrorGraph c4 = MirrorOf(dspc::GenerateCycle(4));
  Expect(c4.Count(0, 2).dist == 2 && c4.Count(0, 2).count == 2, "C4 (0,2)");
  // K_{3,4}: any two vertices of the 4-side share 3 common neighbours.
  const MirrorGraph k34 = MirrorOf(dspc::GenerateCompleteBipartite(3, 4));
  Expect(k34.Count(3, 4).dist == 2 && k34.Count(3, 4).count == 3, "K34");
  Expect(k34.Count(0, 0).dist == 0 && k34.Count(0, 0).count == 1, "self pair");
  MirrorGraph split(4, {{0, 1}, {2, 3}});
  Expect(split.Count(0, 3).dist == spcbench::kUnreachable &&
             split.Count(0, 3).count == 0,
         "disconnected pair");
  // Counts wrap modulo 2^64 like dspc::PathCount: 41 full layers of width
  // 3 give 3^40 shortest paths end to end, more than 2^64.
  std::vector<dspc::Edge> edges;
  const size_t width = 3, layers = 41;
  const dspc::Vertex n = static_cast<dspc::Vertex>(width * layers + 2);
  const dspc::Vertex src = n - 2, dst = n - 1;
  for (dspc::Vertex a = 0; a < width; ++a) edges.push_back({src, a});
  for (size_t l = 0; l + 1 < layers; ++l) {
    for (dspc::Vertex a = 0; a < width; ++a) {
      for (dspc::Vertex b = 0; b < width; ++b) {
        edges.push_back({static_cast<dspc::Vertex>(l * width + a),
                         static_cast<dspc::Vertex>((l + 1) * width + b)});
      }
    }
  }
  for (dspc::Vertex a = 0; a < width; ++a) {
    edges.push_back({static_cast<dspc::Vertex>((layers - 1) * width + a), dst});
  }
  uint64_t expected = 1;
  for (size_t l = 0; l < layers - 1; ++l) expected *= width;  // wraps
  expected *= width;  // the first layer's three entry edges
  const MirrorGraph layered(n, edges);
  Expect(layered.Count(src, dst).dist == layers + 1 &&
             layered.Count(src, dst).count == expected,
         "wrap-around count");
  dspc::DynamicSpcIndex engine(dspc::Graph(n, edges));
  const dspc::SpcResult got = engine.Query(src, dst);
  Expect(got.dist == layers + 1 && got.count == expected,
         "the library wraps counts the same way");
}

/// Observations of the real engine on a BA graph, taken at every
/// generation of a short hybrid stream.
struct Recorded {
  MirrorGraph initial;
  GenerationLog log;
  std::vector<Observation> observed;
  std::vector<dspc::UpdateStats> stats;
};

Recorded Record() {
  dspc::Graph g = dspc::GenerateBarabasiAlbert(300, 2, 7);
  Recorded rec{MirrorOf(g), {}, {}, {}};
  const auto stream = dspc::MakeHybridStream(g, 20, 2, 11);
  dspc::DynamicSpcIndex engine(std::move(g));
  rec.log.base_generation = engine.Generation();
  for (const dspc::Update& u : stream) {
    rec.stats.push_back(engine.Apply(u));
    rec.log.applied.push_back(u);
    for (dspc::Vertex s = 0; s < 300; s += 37) {
      for (dspc::Vertex t = 1; t < 300; t += 53) {
        rec.observed.push_back({s, t, engine.Query(s, t), engine.Generation()});
      }
    }
    rec.observed.push_back(
        {u.edge.u, u.edge.v, engine.Query(u.edge.u, u.edge.v),
         engine.Generation()});
  }
  return rec;
}

void OracleCheckRejectsPerturbedAnswers(const Recorded& rec) {
  const CheckReport clean = CheckObservations(rec.initial, rec.log, rec.observed);
  Expect(clean.ok() && clean.checked == rec.observed.size(),
         "unperturbed answers pass: " + clean.first_failure);

  auto perturbed = [&](auto&& mutate) {
    std::vector<Observation> obs = rec.observed;
    mutate(obs[obs.size() / 2]);
    return CheckObservations(rec.initial, rec.log, obs);
  };
  const CheckReport count = perturbed([](Observation& o) { ++o.answer.count; });
  Expect(count.failed == 1, "count+1 is rejected");
  const CheckReport dist = perturbed([](Observation& o) {
    o.answer.dist = o.answer.dist == dspc::kInfDistance ? 1 : o.answer.dist + 1;
  });
  Expect(dist.failed == 1, "dist+1 is rejected");
  const CheckReport future = perturbed([&](Observation& o) {
    o.generation = rec.log.base_generation + rec.log.applied.size() + 1;
  });
  Expect(future.failed == 1, "a generation outside the log is rejected");

  // The answer for an updated edge, claimed one generation too early.
  std::vector<Observation> early;
  for (const Observation& o : rec.observed) {
    const dspc::Update& last = rec.log.applied[o.generation - 1 - rec.log.base_generation];
    if (o.s == last.edge.u && o.t == last.edge.v) {
      early.push_back(o);
      --early.back().generation;
    }
  }
  const CheckReport stale = CheckObservations(rec.initial, rec.log, early);
  Expect(!early.empty() && stale.failed == early.size(),
         "answers checked at the wrong generation are rejected");
}

void CrossCheckRejectsPerturbedCounters(const Recorded& rec) {
  Expect(CrossCheckStats(rec.stats, rec.stats).ok(), "equal stats pass");
  auto with = [&](auto&& mutate) {
    std::vector<dspc::UpdateStats> replay = rec.stats;
    mutate(replay[replay.size() / 2]);
    return CrossCheckStats(rec.stats, replay);
  };
  Expect(with([](dspc::UpdateStats& s) { ++s.visited_vertices; }).failed == 1,
         "visited_vertices+1 is rejected");
  Expect(with([](dspc::UpdateStats& s) { ++s.inserted; }).failed == 1,
         "inserted+1 is rejected");
  Expect(with([](dspc::UpdateStats& s) { ++s.sr_b; }).failed == 1,
         "sr_b+1 is rejected");
  std::vector<dspc::UpdateStats> shorter(rec.stats.begin(), rec.stats.end() - 1);
  Expect(!CrossCheckStats(rec.stats, shorter).ok(),
         "a replay of a different length is rejected");
}

}  // namespace

int main() {
  OracleKnownCounts();
  const Recorded rec = Record();
  OracleCheckRejectsPerturbedAnswers(rec);
  CrossCheckRejectsPerturbedCounters(rec);
  if (failures == 0) std::printf("spcbench_checks_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
