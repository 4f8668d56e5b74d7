#include "checks.h"

#include <algorithm>

namespace spcbench {

bool SameAnswer(const dspc::SpcResult& got, const OracleAnswer& want) {
  if (want.dist == kUnreachable) {
    return got.dist == dspc::kInfDistance && got.count == 0;
  }
  return got.dist == want.dist && got.count == want.count;
}

namespace {

std::string Describe(const Observation& o, uint32_t dist, uint64_t count) {
  return "answer (" + std::to_string(o.s) + "," + std::to_string(o.t) +
         ") at generation " + std::to_string(o.generation) + ": got {" +
         std::to_string(o.answer.dist) + "," + std::to_string(o.answer.count) +
         "}, oracle {" + std::to_string(dist) + "," + std::to_string(count) +
         "}";
}

}  // namespace

CheckReport CheckObservations(const MirrorGraph& initial,
                              const GenerationLog& log,
                              std::vector<Observation> observations) {
  CheckReport report;
  std::stable_sort(observations.begin(), observations.end(),
                   [](const Observation& a, const Observation& b) {
                     if (a.generation != b.generation) {
                       return a.generation < b.generation;
                     }
                     return a.s < b.s;
                   });
  MirrorGraph graph = initial;
  uint64_t at = log.base_generation;
  const uint64_t last = log.base_generation + log.applied.size();
  std::vector<uint32_t> dist;
  std::vector<uint64_t> count;
  size_t i = 0;
  while (i < observations.size()) {
    const uint64_t g = observations[i].generation;
    if (g < log.base_generation || g > last) {
      report.Fail("answer claims generation " + std::to_string(g) +
                  " outside the logged range [" +
                  std::to_string(log.base_generation) + ", " +
                  std::to_string(last) + "]");
      ++i;
      continue;
    }
    for (; at < g; ++at) graph.Apply(log.applied[at - log.base_generation]);
    // One BFS per distinct source at this generation.
    size_t j = i;
    while (j < observations.size() && observations[j].generation == g &&
           observations[j].s == observations[i].s) {
      ++j;
    }
    if (j - i == 1) {
      const Observation& o = observations[i];
      const OracleAnswer want = graph.Count(o.s, o.t);
      report.Expect(SameAnswer(o.answer, want),
                    Describe(o, want.dist, want.count));
    } else {
      graph.CountFrom(observations[i].s, &dist, &count);
      for (size_t k = i; k < j; ++k) {
        const Observation& o = observations[k];
        const OracleAnswer want = o.t < dist.size()
                                      ? OracleAnswer{dist[o.t], count[o.t]}
                                      : OracleAnswer{};
        report.Expect(SameAnswer(o.answer, want),
                      Describe(o, want.dist, want.count));
      }
    }
    i = j;
  }
  return report;
}

bool SameStats(const dspc::UpdateStats& a, const dspc::UpdateStats& b) {
  return a.renew_count == b.renew_count && a.renew_dist == b.renew_dist &&
         a.inserted == b.inserted && a.removed == b.removed &&
         a.affected_hubs == b.affected_hubs &&
         a.visited_vertices == b.visited_vertices && a.sr_a == b.sr_a &&
         a.sr_b == b.sr_b && a.r_a == b.r_a && a.r_b == b.r_b &&
         a.used_isolated_vertex_opt == b.used_isolated_vertex_opt &&
         a.applied == b.applied;
}

CheckReport CrossCheckStats(const std::vector<dspc::UpdateStats>& service,
                            const std::vector<dspc::UpdateStats>& replay) {
  CheckReport report;
  report.Expect(service.size() == replay.size(),
                "service reported " + std::to_string(service.size()) +
                    " updates, replay applied " +
                    std::to_string(replay.size()));
  const size_t n = std::min(service.size(), replay.size());
  for (size_t i = 0; i < n; ++i) {
    report.Expect(SameStats(service[i], replay[i]),
                  "update " + std::to_string(i) +
                      ": service-reported UpdateStats differ from the "
                      "engine replay's");
  }
  return report;
}

}  // namespace spcbench
