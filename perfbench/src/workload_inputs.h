// Input generation from the workload seed. The library under test only
// ever sees the generated graphs and attribute vectors.
#ifndef PERFBENCH_WORKLOAD_INPUTS_H_
#define PERFBENCH_WORKLOAD_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "gen/datasets.h"
#include "graph/graph.h"
#include "report.h"

namespace perfbench {

/// A well-mixed non-zero seed for the input stream `salt` of a workload
/// seed (0 would select the dataset registry's default seed).
uint64_t SeedFor(uint64_t seed, uint64_t salt);

/// One generated dataset plus the digests that pin it.
struct Input {
  std::string row;  ///< short label used in metric names ("cit", "dblp")
  graphscape::Dataset dataset;
  /// Seeded continuous vertex attributes (may be empty).
  std::vector<std::vector<double>> attributes;
  uint64_t graph_digest = 0;
  uint64_t attribute_digest = 0;
};

/// MakeDataset(id, divisor) reseeded from (workload seed, salt), plus
/// `num_attributes` continuous attributes. The attributes are
/// degree-correlated and neighbour-smoothed with seeded Gaussian noise:
/// neither constant nor i.i.d., and with distinct values almost
/// everywhere, so their super trees keep Nt close to |V|.
Input MakeInput(const std::string& row, graphscape::DatasetId id,
                uint32_t divisor, uint64_t seed, uint32_t salt,
                uint32_t num_attributes);

/// Whether to repeat set-up again after `done` set-ups that took
/// `spent_s` seconds in all. Set-up is repeated, and its median reported,
/// so that work moved into set-up shows without one slow repetition
/// deciding the number: at least 3 times, and up to 5 while the total
/// stays under 4 s, so expensive set-ups do not crowd out measurement.
bool MoreSetUps(size_t done, double spent_s);

/// Checks that a regenerated input has the same digests as `first`.
void CheckSameInput(const Input& first, const Input& again, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_INPUTS_H_
