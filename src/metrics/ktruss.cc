// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "metrics/ktruss.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "graph/edge_index.h"
#include "graph/intersect.h"

namespace graphscape {

std::vector<std::pair<VertexId, VertexId>> EdgeList(const Graph& g) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(g.NumEdges());
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (const VertexId v : g.Neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return edges;
}

namespace {

// Until an edge is peeled, its truss slot holds its peel state; peeling
// overwrites it with the truss number, which is always >= 2.
constexpr uint32_t kAlive = 0;
constexpr uint32_t kInFrontier = 1;

// Frontier edges per block of the peel region. Frontier edges differ
// wildly in work (hub edges walk long runs), so blocks stay small and
// the pool's dynamic claiming balances them.
constexpr uint64_t kPeelGrain = 64;
// Edges per block of the frontier scan over all edges.
constexpr uint64_t kScanGrain = 8192;

// Decrements *support unless it is already at `level`; true iff this call
// brought it down to `level`, so exactly one caller enqueues the edge.
inline bool DecrementClamped(std::atomic<uint32_t>* support, uint32_t level) {
  uint32_t s = support->load(std::memory_order_relaxed);
  while (s > level) {
    if (support->compare_exchange_weak(s, s - 1, std::memory_order_relaxed)) {
      return s - 1 == level;
    }
  }
  return false;
}

class LevelPeel {
 public:
  LevelPeel(const Graph& g, const EdgeIndex& index,
            const ParallelOptions& options)
      : g_(g),
        index_(index),
        slot_edge_(index.SlotEdgeIds().data()),
        options_(options),
        m_(index.NumEdges()),
        support_(m_),
        truss_(m_, kAlive),
        // Left uninitialized: a page is touched only once a frontier that
        // large actually occurs.
        frontier_(new uint32_t[m_]),
        next_(new uint32_t[m_]) {}

  std::vector<uint32_t> Run() {
    // Support = triangles per edge: one independent count-only sorted-run
    // intersection per edge (SIMD/galloping, no callback).
    ParallelFor(0, m_, options_, [&](uint64_t e) {
      const uint32_t id = static_cast<uint32_t>(e);
      support_[e].store(CountCommonNeighbors(g_, index_.U(id), index_.V(id)),
                        std::memory_order_relaxed);
    });
    uint64_t peeled = 0;
    uint32_t level = 0;
    while (peeled < m_) {
      // Every alive edge has support >= level here. Jump over empty
      // levels straight to the smallest support left.
      const uint32_t min_alive = Scan(level);
      if (min_alive != level) {
        level = min_alive;
        Scan(level);
      }
      // Sub-rounds: peel the frontier, whose demotions may pull more
      // edges down to this level; they form the next frontier.
      for (TakeNext(); frontier_size_ > 0; TakeNext()) {
        Mark(kInFrontier);
        // At level 0 supports are exact (the clamp never bites), so a
        // frontier edge closes no surviving triangle: nothing to demote.
        if (level > 0) PeelFrontier(level);
        Mark(level + 2);
        peeled += frontier_size_;
      }
      ++level;
    }
    return std::move(truss_);
  }

 private:
  // A lane's private run of next-frontier edges, flushed into the shared
  // next_ array with one fetch_add per kSize edges.
  class Batch {
   public:
    explicit Batch(LevelPeel* peel) : peel_(peel) {}
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;
    ~Batch() { Flush(); }
    void Push(uint32_t e) {
      items_[size_++] = e;
      if (size_ == kSize) Flush();
    }

   private:
    static constexpr uint32_t kSize = 256;
    void Flush() {
      const uint64_t at =
          peel_->next_size_.fetch_add(size_, std::memory_order_relaxed);
      std::copy(items_, items_ + size_, peel_->next_.get() + at);
      size_ = 0;
    }
    LevelPeel* peel_;
    uint32_t size_ = 0;
    uint32_t items_[kSize] = {};
  };

  // Appends the alive edges with support == level to the next frontier
  // and returns the smallest support among all alive edges.
  uint32_t Scan(uint32_t level) {
    std::atomic<uint32_t> min_alive{UINT32_MAX};
    const uint64_t blocks = (m_ + kScanGrain - 1) / kScanGrain;
    ParallelForBlocks(blocks, options_, [&](uint64_t block, uint32_t) {
      const uint64_t lo = block * kScanGrain;
      const uint64_t hi = lo + kScanGrain < m_ ? lo + kScanGrain : m_;
      Batch found(this);
      uint32_t block_min = UINT32_MAX;
      for (uint64_t e = lo; e < hi; ++e) {
        if (truss_[e] != kAlive) continue;
        const uint32_t s = support_[e].load(std::memory_order_relaxed);
        if (s == level) found.Push(static_cast<uint32_t>(e));
        if (s < block_min) block_min = s;
      }
      uint32_t seen = min_alive.load(std::memory_order_relaxed);
      while (block_min < seen &&
             !min_alive.compare_exchange_weak(seen, block_min,
                                              std::memory_order_relaxed)) {
      }
    });
    return min_alive.load(std::memory_order_relaxed);
  }

  // The edges appended since the last call become the frontier.
  void TakeNext() {
    std::swap(frontier_, next_);
    frontier_size_ = next_size_.exchange(0, std::memory_order_relaxed);
  }

  void Mark(uint32_t state) {
    ParallelFor(0, frontier_size_, options_,
                [&](uint64_t i) { truss_[frontier_[i]] = state; });
  }

  // Removes every frontier edge's surviving triangles, demoting their
  // other edges. A triangle whose other two edges are both in the
  // frontier needs no demotion. One with a single other frontier edge is
  // charged by the smaller edge id of the pair, so its third edge loses
  // it exactly once (the PKT rule).
  void PeelFrontier(uint32_t level) {
    const uint64_t size = frontier_size_;
    const uint64_t blocks = (size + kPeelGrain - 1) / kPeelGrain;
    ParallelForBlocks(blocks, options_, [&](uint64_t block, uint32_t) {
      const uint64_t lo = block * kPeelGrain;
      const uint64_t hi = lo + kPeelGrain < size ? lo + kPeelGrain : size;
      Batch found(this);
      auto demote = [&](uint32_t e) {
        if (DecrementClamped(&support_[e], level)) found.Push(e);
      };
      for (uint64_t i = lo; i < hi; ++i) {
        const uint32_t e = frontier_[i];
        ForEachCommonNeighborSlot(
            g_, index_.U(e), index_.V(e), [&](uint32_t su, uint32_t sv) {
              const uint32_t e1 = slot_edge_[su];
              const uint32_t e2 = slot_edge_[sv];
              const uint32_t t1 = truss_[e1];
              const uint32_t t2 = truss_[e2];
              if (t1 > kInFrontier || t2 > kInFrontier) return;  // gone
              if (t1 == kInFrontier) {
                if (t2 == kAlive && e < e1) demote(e2);
              } else if (t2 == kInFrontier) {
                if (e < e2) demote(e1);
              } else {
                demote(e1);
                demote(e2);
              }
            });
      }
    });
  }

  const Graph& g_;
  const EdgeIndex& index_;
  const uint32_t* slot_edge_;
  const ParallelOptions options_;
  const uint64_t m_;
  std::vector<std::atomic<uint32_t>> support_;
  std::vector<uint32_t> truss_;
  // Each holds at most the alive edges, so m entries always suffice.
  std::unique_ptr<uint32_t[]> frontier_;
  std::unique_ptr<uint32_t[]> next_;
  uint64_t frontier_size_ = 0;
  std::atomic<uint64_t> next_size_{0};
};

}  // namespace

std::vector<uint32_t> TrussNumbers(const Graph& g) {
  return TrussNumbersParallel(g, {1, 0});
}

std::vector<uint32_t> TrussNumbersParallel(const Graph& g,
                                           const ParallelOptions& options) {
  const EdgeIndex index(g);
  return LevelPeel(g, index, options).Run();
}

}  // namespace graphscape
