// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Shared O(1)-per-operation bucket structure for peeling decompositions
// (Batagelj–Zaversnik discipline). Used by K-Core over vertices,
// (3,4)-nucleus over triangles, and the tests' order-serial K-Truss
// reference over edges (metrics/ktruss.cc peels level-synchronously
// instead): items are bin-sorted by support, peeled in nondecreasing
// order, and each demotion swaps the item with the head of its bucket
// and advances the bucket boundary.
//
// Contract: peel items by iterating i = 0..NumItems()-1 and taking
// ItemAt(i); between steps, only Demote() may change supports. Demote is a
// no-op at or below the floor level, which both pins already-peeled items
// (their support equals their peel level) and implements the "support never
// drops below the current level" rule of truss/nucleus peeling.

#ifndef GRAPHSCAPE_COMMON_BUCKET_PEEL_H_
#define GRAPHSCAPE_COMMON_BUCKET_PEEL_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace graphscape {

class BucketPeeler {
 public:
  /// `support` is borrowed and mutated in place by Demote; it must outlive
  /// the peeler.
  explicit BucketPeeler(std::vector<uint32_t>* support) : support_(*support) {
    const uint32_t n = static_cast<uint32_t>(support_.size());
    uint32_t max_support = 0;
    for (const uint32_t s : support_) max_support = std::max(max_support, s);
    bin_.assign(max_support + 2, 0);
    for (uint32_t i = 0; i < n; ++i) ++bin_[support_[i] + 1];
    for (uint32_t s = 0; s <= max_support; ++s) bin_[s + 1] += bin_[s];
    order_.resize(n);
    pos_.resize(n);
    std::vector<uint32_t> cursor(bin_.begin(), bin_.end() - 1);
    for (uint32_t i = 0; i < n; ++i) {
      pos_[i] = cursor[support_[i]]++;
      order_[pos_[i]] = i;
    }
  }

  uint32_t NumItems() const { return static_cast<uint32_t>(order_.size()); }

  /// The item peeled at step i; valid once every j < i has been peeled.
  uint32_t ItemAt(uint32_t i) const { return order_[i]; }

  /// Decrement item's support by one unless it is already <= floor_level.
  void Demote(uint32_t item, uint32_t floor_level) {
    if (support_[item] <= floor_level) return;
    const uint32_t s = support_[item];
    const uint32_t pi = pos_[item];
    const uint32_t pw = bin_[s];
    const uint32_t w = order_[pw];
    if (item != w) {
      pos_[item] = pw;
      pos_[w] = pi;
      order_[pi] = w;
      order_[pw] = item;
    }
    ++bin_[s];
    --support_[item];
  }

 private:
  std::vector<uint32_t>& support_;
  std::vector<uint32_t> bin_;    // bucket start positions, by support
  std::vector<uint32_t> order_;  // items sorted by current support
  std::vector<uint32_t> pos_;    // item -> slot in order_
};

}  // namespace graphscape

#endif  // GRAPHSCAPE_COMMON_BUCKET_PEEL_H_
