// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// K-Truss decomposition — the paper's edge scalar field for dense-subgraph
// terrains (§III, Fig. 7).
//
// Support counting via sorted-run intersection, then a level-synchronous
// peel in the style of PKT (Kabir & Madduri, HiPC 2017). For each level
// k, the frontier is every unpeeled edge whose support equals k. The
// frontier is peeled in parallel: each of its edges walks its triangles
// by CSR slot, reads both side edge ids off EdgeIndex::SlotEdgeIds(),
// and demotes the surviving sides with relaxed atomic decrements that
// clamp at k. Edges that reach k form the next frontier of the same
// level. truss[e] = k + 2, so an edge in a k-truss but no (k+1)-truss
// reports k.

#ifndef GRAPHSCAPE_METRICS_KTRUSS_H_
#define GRAPHSCAPE_METRICS_KTRUSS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "graph/graph.h"

namespace graphscape {

/// Unique undirected edges {u < v} in CSR order (ascending u, then v).
/// Defines the edge indexing shared by TrussNumbers and EdgeScalarField.
std::vector<std::pair<VertexId, VertexId>> EdgeList(const Graph& g);

/// truss[e] for every edge in EdgeList order; values are >= 2. Exactly
/// TrussNumbersParallel(g, {1, 0}).
std::vector<uint32_t> TrussNumbers(const Graph& g);

/// truss[e] with both the support count and the level-synchronous peel
/// on the pool. Truss numbers are a function of the graph (unique), so
/// the output is EXACTLY EQUAL for every thread count, whatever order the
/// lanes peel a frontier in.
std::vector<uint32_t> TrussNumbersParallel(const Graph& g,
                                           const ParallelOptions& options = {});

}  // namespace graphscape

#endif  // GRAPHSCAPE_METRICS_KTRUSS_H_
