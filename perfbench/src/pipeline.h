// The build pipeline the benchmark times: field -> scalar tree -> super
// tree -> member index [-> layout -> raster -> render] -> serialize ->
// ArtifactCache::Put, plus the table2 and attr-terrain workloads on top.
#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.h"
#include "scalar/artifact_cache.h"
#include "scalar/scalar_tree.h"
#include "scalar/tree_io.h"
#include "trace.h"

namespace perfbench {

/// Metric key of a stage: "<base>_s", or "<base>_1t_s" at one thread,
/// with ".<row>" appended when `row` is non-empty.
std::string StageKey(const char* base, uint32_t threads,
                     const std::string& row = "");

struct RowContext {
  graphscape::ArtifactCache* cache = nullptr;
  uint32_t threads = 1;
  /// Lay out, rasterize and render the super tree (the pipelines do; the
  /// serve corpus leaves rendering to the daemon).
  bool terrain = true;
  Report* report = nullptr;
  std::string phase;  ///< accounting phase for the row's operations
};

/// What one row produced, for the output checks.
struct RowResult {
  std::string key;         ///< "dataset/field"
  std::string serialized;  ///< SerializeTreeArtifact bytes
  uint64_t image_digest = 0;
  uint32_t super_nodes = 0;
  uint32_t elements = 0;
  uint64_t pixels = 0;     ///< raster + rendered image pixels
  graphscape::TreeArtifact artifact;
};

/// Contracts `tree` (Algorithm 2), builds the member index, optionally
/// renders, serializes and stores the artifact under dataset/field.
RowResult FinishRow(const std::string& dataset, const std::string& field,
                    std::vector<double> values,
                    const graphscape::ScalarTree& tree,
                    const RowContext& ctx);

/// Adds the stage self times of a traced run: for each span key, the
/// median over "bench.iteration" spans of the key's summed self time, and
/// the gen stages' medians over "bench.setup" spans. Returns the
/// per-iteration sums it took the medians of.
std::map<std::string, std::vector<double>> AddStageMedians(
    const std::vector<SpanRecord>& records, Report* report);

/// The pipeline workloads. Each returns the process exit code.
int RunTable2(const Args& args, Report* report);
int RunAttrTerrain(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
