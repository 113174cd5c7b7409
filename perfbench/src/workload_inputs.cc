#include "workload_inputs.h"

#include <cmath>

#include "common/rng.h"
#include "trace.h"

namespace perfbench {

using namespace graphscape;

uint64_t SeedFor(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt + 1;  // splitmix64
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

namespace {

double Gaussian(Rng* rng) {
  const double u1 = 1.0 - rng->UniformDouble();  // (0, 1]
  const double u2 = rng->UniformDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

std::vector<double> MakeAttribute(const Graph& g, uint64_t seed,
                                  double self_weight) {
  const uint32_t n = g.NumVertices();
  Rng rng(seed);
  std::vector<double> raw(n);
  for (uint32_t v = 0; v < n; ++v) {
    raw[v] = std::log1p(static_cast<double>(g.Degree(v))) +
             0.75 * Gaussian(&rng);
  }
  std::vector<double> out(n);
  for (uint32_t v = 0; v < n; ++v) {
    double sum = 0.0;
    for (const VertexId u : g.Neighbors(v)) sum += raw[u];
    const double mean = g.Degree(v) == 0 ? raw[v] : sum / g.Degree(v);
    out[v] = self_weight * raw[v] + (1.0 - self_weight) * mean;
  }
  return out;
}

}  // namespace

Input MakeInput(const std::string& row, DatasetId id, uint32_t divisor,
                uint64_t seed, uint32_t salt, uint32_t num_attributes) {
  Input input;
  input.row = row;
  {
    Span span("gen.make_dataset", "gen.dataset_s");
    DatasetOptions options;
    options.scale_divisor = divisor;
    options.seed = SeedFor(seed, salt);
    input.dataset = MakeDataset(id, options);
  }
  const Graph& g = input.dataset.graph;
  input.graph_digest =
      DigestBytes(g.Offsets().data(), g.Offsets().size() * sizeof(uint32_t));
  input.graph_digest = DigestBytes(g.Adjacency().data(),
                                   g.Adjacency().size() * sizeof(VertexId),
                                   input.graph_digest);
  if (num_attributes == 0) return input;
  Span span("gen.attributes", "gen.attributes_s");
  uint64_t digest = 0xcbf29ce484222325ull;
  for (uint32_t a = 0; a < num_attributes; ++a) {
    input.attributes.push_back(MakeAttribute(
        g, SeedFor(seed, 1000 + 17 * salt + a), a == 0 ? 0.5 : 0.3));
    const std::vector<double>& values = input.attributes.back();
    digest = DigestBytes(values.data(), values.size() * sizeof(double), digest);
  }
  input.attribute_digest = digest;
  return input;
}

bool MoreSetUps(size_t done, double spent_s) {
  return done < 3 || (done < 5 && spent_s < 4.0);
}

void CheckSameInput(const Input& first, const Input& again, Report* report) {
  report->Check("setup.input_digest",
                first.graph_digest == again.graph_digest &&
                    first.attribute_digest == again.attribute_digest,
                "regenerated " + first.row +
                    " input differs from the first generation (same seed)");
}

}  // namespace perfbench
