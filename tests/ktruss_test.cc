// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// K-Truss against oracles, not examples. Truss numbers are a function of
// the graph, so TrussNumbersParallel must equal the definitional
// brute-force truss and the order-serial bucket peel (tests/
// truss_reference.h) edge for edge, at every width. The graph families
// cover the shapes the level-synchronous peel can get wrong:
//
//  * Erdős–Rényi — the generic case;
//  * Barabási–Albert and a hub wheel — skewed run pairs, so the slot walk
//    takes the galloping path;
//  * collaboration graphs with planted cliques and disjoint cliques —
//    hundreds of edges tied at one level, split over several peel blocks
//    (the PKT tie rule decides who demotes the third edge);
//  * triangle-free graphs — everything peels at level 0.
//
// Width 4 is repeated, so a schedule-dependent tie bug shows up even when
// one run happens to be lucky. These run in the TSan leg as well.
//
// The EdgeIndex twin resolution feeds every slot-resolved walk; it is
// pinned here against the binary-search construction it replaced, and
// through NucleusEdgeNumbers, the other user of the index.

#include "metrics/ktruss.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gen/generators.h"
#include "graph/edge_index.h"
#include "graph/graph_builder.h"
#include "graph/intersect.h"
#include "metrics/nucleus.h"
#include "truss_reference.h"

namespace graphscape {
namespace {

using testing_reference::BruteForceTrussNumbers;
using testing_reference::BucketPeelTrussNumbers;

const uint32_t kWidths[] = {1, 2, 3, 4, 8};
constexpr int kRepeatsAtWidth4 = 10;

struct Case {
  std::string name;
  Graph graph;
};

Graph DisjointCliques(uint32_t smallest, uint32_t largest) {
  uint32_t n = 0;
  for (uint32_t size = smallest; size <= largest; ++size) n += size;
  GraphBuilder builder(n);
  uint32_t base = 0;
  for (uint32_t size = smallest; size <= largest; ++size) {
    for (uint32_t a = 0; a < size; ++a)
      for (uint32_t b = a + 1; b < size; ++b)
        builder.AddEdge(base + a, base + b);
    base += size;
  }
  return builder.Build();
}

// Vertex 0 joins every other vertex; the rest form a sparse G(n, p). The
// hub's run is far longer than any leaf's, so every hub-leaf edge walks
// its triangles through the galloping path.
Graph HubWheel(uint32_t n, double p, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder(n);
  for (uint32_t v = 1; v < n; ++v) builder.AddEdge(0, v);
  for (uint32_t a = 1; a < n; ++a)
    for (uint32_t b = a + 1; b < n; ++b)
      if (rng.UniformDouble() < p) builder.AddEdge(a, b);
  return builder.Build();
}

// Random bipartite graph: no odd cycles, so no triangles.
Graph RandomBipartite(uint32_t side, double p, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder(2 * side);
  for (uint32_t a = 0; a < side; ++a)
    for (uint32_t b = 0; b < side; ++b)
      if (rng.UniformDouble() < p) builder.AddEdge(a, side + b);
  return builder.Build();
}

Graph Grid(uint32_t rows, uint32_t cols) {
  GraphBuilder builder(rows * cols);
  for (uint32_t r = 0; r < rows; ++r) {
    for (uint32_t c = 0; c < cols; ++c) {
      const uint32_t v = r * cols + c;
      if (c + 1 < cols) builder.AddEdge(v, v + 1);
      if (r + 1 < rows) builder.AddEdge(v, v + cols);
    }
  }
  return builder.Build();
}

Graph Collaboration(uint32_t n, uint32_t cores, uint32_t core_size,
                    uint64_t seed) {
  CollaborationOptions options;
  options.num_vertices = n;
  options.num_planted_cores = cores;
  options.planted_core_size = core_size;
  Rng rng(seed);
  return CollaborationNetwork(options, &rng);
}

// Small enough for the brute-force oracle.
std::vector<Case> SmallCases(uint64_t seed) {
  std::vector<Case> cases;
  Rng er(seed);
  cases.push_back({"erdos_renyi", ErdosRenyi(120, 0.15, &er)});
  Rng ba(seed + 100);
  cases.push_back({"barabasi_albert", BarabasiAlbert(150, 4, &ba)});
  cases.push_back({"hub_wheel", HubWheel(200, 0.02, seed + 200)});
  cases.push_back(
      {"collaboration_cliques", Collaboration(160, 3, 14, seed + 300)});
  cases.push_back({"disjoint_cliques", DisjointCliques(3, 16)});
  cases.push_back({"bipartite", RandomBipartite(60, 0.1, seed + 400)});
  cases.push_back({"grid", Grid(12, 15)});
  return cases;
}

// Larger graphs, checked against the bucket peel.
std::vector<Case> LargeCases(uint64_t seed) {
  std::vector<Case> cases;
  Rng er(seed);
  cases.push_back({"erdos_renyi", ErdosRenyi(4000, 0.003, &er)});
  Rng ba(seed + 100);
  cases.push_back({"barabasi_albert", BarabasiAlbert(3000, 5, &ba)});
  cases.push_back(
      {"collaboration_cliques", Collaboration(3000, 2, 30, seed + 300)});
  cases.push_back({"disjoint_cliques", DisjointCliques(20, 40)});
  return cases;
}

void ExpectEveryWidthEquals(const Graph& g,
                            const std::vector<uint32_t>& oracle,
                            const std::string& name) {
  for (const uint32_t width : kWidths) {
    EXPECT_EQ(TrussNumbersParallel(g, {width, 0}), oracle)
        << name << " width " << width;
  }
  for (int rep = 0; rep < kRepeatsAtWidth4; ++rep) {
    EXPECT_EQ(TrussNumbersParallel(g, {4, 0}), oracle)
        << name << " width 4, repeat " << rep;
  }
}

// True iff some edge's endpoint runs are skewed enough for the
// intersection layer to gallop.
bool HasGallopEdge(const Graph& g) {
  for (const auto& [u, v] : EdgeList(g)) {
    const uint32_t lo = std::min(g.Degree(u), g.Degree(v));
    const uint32_t hi = std::max(g.Degree(u), g.Degree(v));
    if (hi >= lo * intersect::kGallopSkewRatio) return true;
  }
  return false;
}

TEST(TrussOracleTest, ReferencesAgreeOnSmallGraphs) {
  for (const Case& c : SmallCases(1)) {
    EXPECT_EQ(BucketPeelTrussNumbers(c.graph),
              BruteForceTrussNumbers(c.graph))
        << c.name;
  }
}

TEST(TrussOracleTest, LevelPeelMatchesBruteForceAtEveryWidth) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    for (const Case& c : SmallCases(seed)) {
      ExpectEveryWidthEquals(c.graph, BruteForceTrussNumbers(c.graph),
                             c.name + " seed " + std::to_string(seed));
    }
  }
}

TEST(TrussOracleTest, LevelPeelMatchesBucketPeelAtEveryWidth) {
  for (const Case& c : LargeCases(7)) {
    ExpectEveryWidthEquals(c.graph, BucketPeelTrussNumbers(c.graph), c.name);
  }
}

TEST(TrussOracleTest, FamiliesReachTheirIntendedPaths) {
  // The hub graphs must actually exercise the galloping walk, and the
  // clique graphs must put more edges on one level than one peel block
  // holds, or the sweep above proves less than it claims.
  EXPECT_TRUE(HasGallopEdge(HubWheel(200, 0.02, 201)));
  Rng ba(107);
  EXPECT_TRUE(HasGallopEdge(BarabasiAlbert(3000, 5, &ba)));
  const std::vector<uint32_t> truss = TrussNumbers(DisjointCliques(20, 40));
  EXPECT_EQ(std::count(truss.begin(), truss.end(), 40u), 40 * 39 / 2);
}

TEST(TrussOracleTest, DisjointCliquesHaveClosedFormTruss) {
  // Every edge of K_s lies on s - 2 triangles, and K_s is its own
  // s-truss: truss = s, with all of a clique's edges tied on one level.
  const Graph g = DisjointCliques(3, 16);
  const auto edges = EdgeList(g);
  std::vector<uint32_t> expected;
  for (uint32_t size = 3; size <= 16; ++size) {
    expected.insert(expected.end(), size * (size - 1) / 2, size);
  }
  ASSERT_EQ(edges.size(), expected.size());
  for (const uint32_t width : kWidths) {
    EXPECT_EQ(TrussNumbersParallel(g, {width, 0}), expected)
        << "width " << width;
  }
}

TEST(TrussOracleTest, TriangleFreeGraphsAreAllTwo) {
  for (const Graph& g : {Grid(40, 50), RandomBipartite(300, 0.05, 5)}) {
    const std::vector<uint32_t> expected(g.NumEdges(), 2);
    for (const uint32_t width : kWidths) {
      EXPECT_EQ(TrussNumbersParallel(g, {width, 0}), expected)
          << "width " << width;
    }
  }
}

TEST(TrussOracleTest, EmptyAndEdgelessGraphs) {
  for (const uint32_t width : kWidths) {
    EXPECT_TRUE(TrussNumbersParallel(GraphBuilder(0).Build(), {width, 0})
                    .empty());
    EXPECT_TRUE(TrussNumbersParallel(GraphBuilder(5).Build(), {width, 0})
                    .empty());
  }
}

// ------------------------------------------------------- edge index --

// The construction the per-vertex cursor replaced: each reverse slot
// binary-searches its twin in the smaller endpoint's run.
std::vector<uint32_t> BinarySearchSlotEdgeIds(const Graph& g) {
  const std::vector<uint32_t>& offsets = g.Offsets();
  const std::vector<VertexId>& adj = g.Adjacency();
  std::vector<uint32_t> ids(adj.size());
  uint32_t next = 0;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (uint32_t s = offsets[u]; s < offsets[u + 1]; ++s) {
      const VertexId v = adj[s];
      if (u < v) {
        ids[s] = next++;
      } else {
        const auto it = std::lower_bound(adj.begin() + offsets[v],
                                         adj.begin() + offsets[v + 1], u);
        ids[s] = ids[static_cast<size_t>(it - adj.begin())];
      }
    }
  }
  return ids;
}

std::vector<Case> IndexCases(uint64_t seed) {
  std::vector<Case> cases = SmallCases(seed);
  Rng sparse(seed + 500);
  // Isolated vertices interleaved with connected ones.
  cases.push_back({"sparse_erdos_renyi", ErdosRenyi(500, 0.002, &sparse)});
  Rng ba(seed + 600);
  cases.push_back({"large_barabasi_albert", BarabasiAlbert(3000, 5, &ba)});
  return cases;
}

TEST(EdgeIndexTest, SlotIdsMatchBinarySearchReference) {
  for (const uint64_t seed : {11u, 12u}) {
    for (const Case& c : IndexCases(seed)) {
      const EdgeIndex index(c.graph);
      EXPECT_EQ(index.SlotEdgeIds(), BinarySearchSlotEdgeIds(c.graph))
          << c.name << " seed " << seed;
    }
  }
}

TEST(EdgeIndexTest, NucleusEdgeNumbersMatchReferenceLift) {
  // NucleusEdgeNumbers lifts triangle values to edges through EdgeIndex;
  // the reference lifts them through a map keyed by endpoint pair.
  for (const Case& c : SmallCases(21)) {
    const NucleusDecomposition d = Nucleus34(c.graph);
    const auto edges = EdgeList(c.graph);
    std::map<std::pair<VertexId, VertexId>, uint32_t> id_of;
    for (uint32_t e = 0; e < edges.size(); ++e) id_of[edges[e]] = e;
    std::vector<uint32_t> expected(edges.size(), 0);
    for (size_t t = 0; t < d.triangles.size(); ++t) {
      const auto& tri = d.triangles[t];
      for (const auto& side : {std::make_pair(tri[0], tri[1]),
                               std::make_pair(tri[0], tri[2]),
                               std::make_pair(tri[1], tri[2])}) {
        uint32_t& value = expected[id_of.at(side)];
        value = std::max(value, d.nucleus_numbers[t]);
      }
    }
    EXPECT_EQ(NucleusEdgeNumbers(c.graph), expected) << c.name;
  }
}

}  // namespace
}  // namespace graphscape
