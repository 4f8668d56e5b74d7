// The benchmark's correctness oracle, written apart from the library: a
// mirror of the graph kept by the benchmark itself and a plain BFS
// shortest-path counter over it (no labels, no src/dspc/baseline). Counts
// wrap around modulo 2^64 exactly like dspc::PathCount.

#ifndef SPCBENCH_ORACLE_H_
#define SPCBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dspc/graph/graph.h"
#include "dspc/graph/update_stream.h"

namespace spcbench {

inline constexpr uint32_t kUnreachable = UINT32_MAX;

struct OracleAnswer {
  uint32_t dist = kUnreachable;
  uint64_t count = 0;
};

/// Undirected simple graph as plain adjacency vectors.
class MirrorGraph {
 public:
  MirrorGraph(size_t num_vertices, const std::vector<dspc::Edge>& edges);

  size_t NumVertices() const { return adj_.size(); }
  size_t NumEdges() const { return num_edges_; }
  bool Has(dspc::Vertex u, dspc::Vertex v) const;

  /// Each returns false (and changes nothing) for a no-op.
  bool Insert(dspc::Vertex u, dspc::Vertex v);
  bool Remove(dspc::Vertex u, dspc::Vertex v);
  bool Apply(const dspc::Update& update);

  /// Distance and number of shortest paths from s to t by BFS.
  OracleAnswer Count(dspc::Vertex s, dspc::Vertex t) const;

  /// Full single-source BFS: dist (kUnreachable when unreached) and count
  /// for every vertex.
  void CountFrom(dspc::Vertex s, std::vector<uint32_t>* dist,
                 std::vector<uint64_t>* count) const;

 private:
  std::vector<std::vector<dspc::Vertex>> adj_;
  size_t num_edges_ = 0;
};

}  // namespace spcbench

#endif  // SPCBENCH_ORACLE_H_
