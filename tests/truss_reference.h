// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Reference truss decompositions for the tests. Truss numbers are a
// function of the graph, so any exact algorithm must agree with these
// edge for edge:
//
//  * BruteForceTrussNumbers — the definition itself: for k = 3, 4, ...,
//    repeatedly delete edges lying on fewer than k - 2 surviving
//    triangles; what survives is the k-truss. Small graphs only
//    (O(n^2) memory, O(m n) per pass).
//  * BucketPeelTrussNumbers — the order-serial Batagelj–Zaversnik style
//    peel (common/bucket_peel.h): peel a minimum-support edge, demote the
//    two surviving edges of each of its triangles. Fast enough for the
//    graphs the parallel tests sweep.

#ifndef GRAPHSCAPE_TESTS_TRUSS_REFERENCE_H_
#define GRAPHSCAPE_TESTS_TRUSS_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "common/bucket_peel.h"
#include "graph/edge_index.h"
#include "graph/graph.h"
#include "graph/intersect.h"
#include "metrics/ktruss.h"

namespace graphscape {
namespace testing_reference {

inline std::vector<uint32_t> BruteForceTrussNumbers(const Graph& g) {
  const uint32_t n = g.NumVertices();
  const auto edges = EdgeList(g);
  const uint32_t m = static_cast<uint32_t>(edges.size());
  std::vector<char> adjacent(static_cast<size_t>(n) * n, 0);
  for (const auto& [u, v] : edges) {
    adjacent[static_cast<size_t>(u) * n + v] = 1;
    adjacent[static_cast<size_t>(v) * n + u] = 1;
  }
  std::vector<char> alive(m, 1);
  std::vector<uint32_t> truss(m, 2);
  uint32_t survivors = m;
  for (uint32_t k = 3; survivors > 0; ++k) {
    for (bool changed = true; changed;) {
      changed = false;
      for (uint32_t e = 0; e < m; ++e) {
        if (!alive[e]) continue;
        const auto [u, v] = edges[e];
        uint32_t triangles = 0;
        for (uint32_t w = 0; w < n; ++w) {
          triangles += adjacent[static_cast<size_t>(u) * n + w] &
                       adjacent[static_cast<size_t>(v) * n + w];
        }
        if (triangles >= k - 2) continue;
        alive[e] = 0;
        adjacent[static_cast<size_t>(u) * n + v] = 0;
        adjacent[static_cast<size_t>(v) * n + u] = 0;
        --survivors;
        changed = true;
      }
    }
    for (uint32_t e = 0; e < m; ++e) {
      if (alive[e]) truss[e] = k;
    }
  }
  return truss;
}

inline std::vector<uint32_t> BucketPeelTrussNumbers(const Graph& g) {
  const EdgeIndex index(g);
  const uint32_t m = index.NumEdges();
  std::vector<uint32_t> support(m);
  for (uint32_t e = 0; e < m; ++e) {
    support[e] = CountCommonNeighbors(g, index.U(e), index.V(e));
  }
  BucketPeeler peeler(&support);
  std::vector<char> peeled(m, 0);
  std::vector<uint32_t> truss(m, 2);
  for (uint32_t i = 0; i < m; ++i) {
    const uint32_t e = peeler.ItemAt(i);
    const uint32_t level = support[e];
    truss[e] = level + 2;
    peeled[e] = 1;
    const VertexId u = index.U(e), v = index.V(e);
    ForEachCommonNeighbor(g, u, v, [&](VertexId w) {
      const uint32_t e1 = index.EdgeId(u, w);
      const uint32_t e2 = index.EdgeId(v, w);
      // The triangle {u, v, w} only still supports e1/e2 if neither has
      // been peeled away already.
      if (!peeled[e1] && !peeled[e2]) {
        peeler.Demote(e1, level);
        peeler.Demote(e2, level);
      }
    });
  }
  return truss;
}

}  // namespace testing_reference
}  // namespace graphscape

#endif  // GRAPHSCAPE_TESTS_TRUSS_REFERENCE_H_
