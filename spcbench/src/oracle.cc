#include "oracle.h"

#include <algorithm>

namespace spcbench {

using dspc::Vertex;

MirrorGraph::MirrorGraph(size_t num_vertices,
                         const std::vector<dspc::Edge>& edges)
    : adj_(num_vertices) {
  for (const dspc::Edge& e : edges) Insert(e.u, e.v);
}

bool MirrorGraph::Has(Vertex u, Vertex v) const {
  if (u >= adj_.size() || v >= adj_.size()) return false;
  const auto& a = adj_[u].size() <= adj_[v].size() ? adj_[u] : adj_[v];
  const Vertex other = adj_[u].size() <= adj_[v].size() ? v : u;
  return std::find(a.begin(), a.end(), other) != a.end();
}

bool MirrorGraph::Insert(Vertex u, Vertex v) {
  if (u == v || u >= adj_.size() || v >= adj_.size() || Has(u, v)) {
    return false;
  }
  adj_[u].push_back(v);
  adj_[v].push_back(u);
  ++num_edges_;
  return true;
}

bool MirrorGraph::Remove(Vertex u, Vertex v) {
  if (!Has(u, v)) return false;
  auto drop = [](std::vector<Vertex>& list, Vertex x) {
    auto it = std::find(list.begin(), list.end(), x);
    *it = list.back();
    list.pop_back();
  };
  drop(adj_[u], v);
  drop(adj_[v], u);
  --num_edges_;
  return true;
}

bool MirrorGraph::Apply(const dspc::Update& update) {
  return update.kind == dspc::Update::Kind::kInsert
             ? Insert(update.edge.u, update.edge.v)
             : Remove(update.edge.u, update.edge.v);
}

void MirrorGraph::CountFrom(Vertex s, std::vector<uint32_t>* dist,
                            std::vector<uint64_t>* count) const {
  dist->assign(adj_.size(), kUnreachable);
  count->assign(adj_.size(), 0);
  if (s >= adj_.size()) return;
  std::vector<Vertex> queue;
  queue.reserve(adj_.size());
  (*dist)[s] = 0;
  (*count)[s] = 1;
  queue.push_back(s);
  for (size_t head = 0; head < queue.size(); ++head) {
    const Vertex x = queue[head];
    const uint32_t next = (*dist)[x] + 1;
    for (Vertex y : adj_[x]) {
      if ((*dist)[y] == kUnreachable) {
        (*dist)[y] = next;
        queue.push_back(y);
      }
      if ((*dist)[y] == next) (*count)[y] += (*count)[x];  // wraps mod 2^64
    }
  }
}

OracleAnswer MirrorGraph::Count(Vertex s, Vertex t) const {
  if (s >= adj_.size() || t >= adj_.size()) return {};
  if (s == t) return {0, 1};
  std::vector<uint32_t> dist(adj_.size(), kUnreachable);
  std::vector<uint64_t> count(adj_.size(), 0);
  std::vector<Vertex> queue;
  dist[s] = 0;
  count[s] = 1;
  queue.push_back(s);
  for (size_t head = 0; head < queue.size(); ++head) {
    const Vertex x = queue[head];
    // Every predecessor of t sits one level above it, so once the level
    // of t has been expanded its count is final.
    if (dist[t] != kUnreachable && dist[x] >= dist[t]) break;
    const uint32_t next = dist[x] + 1;
    for (Vertex y : adj_[x]) {
      if (dist[y] == kUnreachable) {
        dist[y] = next;
        queue.push_back(y);
      }
      if (dist[y] == next) count[y] += count[x];
    }
  }
  return {dist[t], count[t]};
}

}  // namespace spcbench
