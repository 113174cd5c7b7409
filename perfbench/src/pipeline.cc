#include "pipeline.h"

#include <cstdio>
#include <functional>
#include <map>
#include <utility>

#include "common/timer.h"
#include "metrics/kcore.h"
#include "metrics/ktruss.h"
#include "metrics/triangles.h"
#include "scalar/correlation.h"
#include "scalar/edge_scalar_tree.h"
#include "scalar/super_tree.h"
#include "terrain/render.h"
#include "terrain/terrain_layout.h"
#include "terrain/terrain_raster.h"
#include "trace.h"
#include "workload_inputs.h"

namespace perfbench {

using namespace graphscape;

namespace {

// Raster and image sizes of the pipelines' render stage: the library's
// RasterOptions default and the guarded renderer's default image.
constexpr uint32_t kRasterDim = 512;
constexpr uint32_t kImageWidth = 960;
constexpr uint32_t kImageHeight = 720;

// Fewest timed iterations per thread count, even past --seconds.
constexpr size_t kMinIterations = 2;

struct IterationOutput {
  std::vector<RowResult> rows;
  double gci = 0.0;      // attr-terrain only
  double jaccard = 0.0;  // attr-terrain only
};

// The fingerprint every later iteration must reproduce exactly,
// whatever its thread count.
struct Fingerprint {
  std::map<std::string, std::pair<uint64_t, uint64_t>> rows;  // artifact, image
  double gci = 0.0;
  double jaccard = 0.0;
};

Fingerprint FingerprintOf(const IterationOutput& out) {
  Fingerprint f;
  for (const RowResult& row : out.rows) {
    f.rows[row.key] = {Fnv1aChecksum(row.serialized), row.image_digest};
  }
  f.gci = out.gci;
  f.jaccard = out.jaccard;
  return f;
}

void CheckFingerprint(const Fingerprint& want, const Fingerprint& got,
                      uint32_t threads, Report* report) {
  for (const auto& [key, sums] : want.rows) {
    auto it = got.rows.find(key);
    const bool found = it != got.rows.end();
    report->Check("check.determinism", found && it->second.first == sums.first,
                  key + ": artifact bytes differ at " +
                      std::to_string(threads) + " thread(s)");
    report->Check("check.determinism",
                  found && it->second.second == sums.second,
                  key + ": rendered image differs at " +
                      std::to_string(threads) + " thread(s)");
  }
  // Exact comparison: same input must give the same bytes and the same
  // doubles for any thread count.
  report->Check("check.determinism",
                want.gci == got.gci && want.jaccard == got.jaccard,
                "correlation results differ at " + std::to_string(threads) +
                    " thread(s)");
}

struct Workload {
  std::function<std::vector<Input>()> make_inputs;
  std::function<IterationOutput(const std::vector<Input>&, const RowContext&)>
      iterate;
  /// Traced-run-only probes outside the timed iterations.
  std::function<void(const std::vector<Input>&, uint32_t)> probe;
};

double SumOfMedians(const std::map<std::string, std::vector<double>>& self,
                    const std::string& prefix) {
  double total = 0.0;
  for (const auto& [key, values] : self) {
    if (key.compare(0, prefix.size(), prefix) == 0) total += Median(values);
  }
  return total;
}

int RunPipeline(const Args& args, const Workload& workload, Report* report) {
  const uint32_t nproc = DefaultThreads();
  if (args.trace) ArmTracing(true);

  std::vector<double> setup_seconds;
  std::vector<Input> inputs;
  double setup_total = 0.0;
  for (size_t rep = 0; MoreSetUps(rep, setup_total); ++rep) {
    WallTimer timer;
    std::vector<Input> again;
    {
      Span span("bench.setup");
      again = workload.make_inputs();
    }
    setup_seconds.push_back(timer.Seconds());
    setup_total += setup_seconds.back();
    if (rep == 0) {
      inputs = std::move(again);
      report->Op("setup.generate", true);
    } else {
      for (size_t i = 0; i < inputs.size(); ++i) {
        CheckSameInput(inputs[i], again[i], report);
      }
    }
  }
  for (const Input& input : inputs) {
    std::printf("input %-5s |V|=%u |E|=%llu graph_digest=%016llx "
                "attribute_digest=%016llx\n",
                input.row.c_str(), input.dataset.graph.NumVertices(),
                static_cast<unsigned long long>(input.dataset.graph.NumEdges()),
                static_cast<unsigned long long>(input.graph_digest),
                static_cast<unsigned long long>(input.attribute_digest));
  }

  StatusOr<ArtifactCache> opened =
      ArtifactCache::Open(args.work_dir + "/cache");
  if (!opened.ok()) {
    std::fprintf(stderr, "perfbench: cannot open the bench cache: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  ArtifactCache cache = std::move(opened).value();

  bool have_reference = false;
  Fingerprint reference;
  uint64_t super_nodes = 0, elements = 0, pixels = 0;
  std::map<std::pair<uint32_t, bool>, std::vector<double>> walls;
  auto run_iteration = [&](uint32_t threads, bool armed) {
    ArmTracing(armed);
    RowContext ctx;
    ctx.cache = &cache;
    ctx.threads = threads;
    ctx.report = report;
    ctx.phase = threads == 1 ? "pipeline.1t" : "pipeline.nproc";
    WallTimer timer;
    IterationOutput out;
    {
      Span span("bench.iteration");
      out = workload.iterate(inputs, ctx);
    }
    walls[{threads, armed}].push_back(timer.Seconds());
    ArmTracing(false);
    const Fingerprint got = FingerprintOf(out);
    if (!have_reference) {
      reference = got;
      have_reference = true;
    } else {
      CheckFingerprint(reference, got, threads, report);
    }
    super_nodes = elements = pixels = 0;
    for (const RowResult& row : out.rows) {
      super_nodes += row.super_nodes;
      elements += row.elements;
      pixels += row.pixels;
    }
  };

  // Rounds run while the next one is predicted to end within --seconds
  // (and at least kMinIterations times), so a run lasts about --seconds.
  WallTimer clock;
  double last_round = 0.0;
  auto more_rounds = [&](size_t rounds, size_t min_rounds) {
    return rounds < min_rounds || clock.Seconds() + last_round <= args.seconds;
  };
  if (!args.trace) {
    double peak_rss_mb = 0.0;
    for (size_t rounds = 0; more_rounds(rounds, kMinIterations); ++rounds) {
      const double round_start = clock.Seconds();
      run_iteration(nproc, false);
      run_iteration(1, false);
      last_round = clock.Seconds() - round_start;
      // Every distinct step has run once by now; later rounds repeat it,
      // so the peak does not depend on how many rounds fit in --seconds.
      if (rounds == 0) peak_rss_mb = PeakRssMb();
    }
    report->Add("peak_rss_mb", peak_rss_mb, "MB");
    report->Add("setup_s", Median(setup_seconds), "s");
    report->Add("pipeline_s", Median(walls[{nproc, false}]), "s");
    report->Add("pipeline_1t_s", Median(walls[{1, false}]), "s");
    // A pipeline workload's request is one whole build at nproc threads.
    std::vector<double> ms;
    double total = 0.0;
    for (const double s : walls[{nproc, false}]) {
      ms.push_back(s * 1e3);
      total += s;
    }
    report->Add("qps", ms.size() / total, "req/s");
    report->Add("req_p50_ms", Median(ms), "ms");
    report->Add("req_p99_ms", Percentile(ms, 0.99), "ms");
    return 0;
  }

  // Traced pass: disarmed and armed iterations alternate so the
  // recorder's overhead is measured on the same inputs.
  for (size_t rounds = 0; more_rounds(rounds, 1); ++rounds) {
    const double round_start = clock.Seconds();
    run_iteration(nproc, false);
    run_iteration(nproc, true);
    run_iteration(1, true);
    last_round = clock.Seconds() - round_start;
  }
  if (workload.probe) {
    ArmTracing(true);
    workload.probe(inputs, nproc);
    ArmTracing(false);
  }

  const std::vector<SpanRecord> records = TraceRecords();
  const auto per_iteration = AddStageMedians(records, report);
  for (const SpanRecord& r : records) {
    if (r.name == "metrics.triangles") {
      report->Add(r.key, r.DurationUs() * 1e-6, "s");
    }
  }

  report->Add("scalar.super_nodes", static_cast<double>(super_nodes), "count");
  report->Add("scalar.elements", static_cast<double>(elements), "count");
  report->Add("terrain.pixels", static_cast<double>(pixels), "count");

  const double traced = Median(walls[{nproc, true}]);
  const double untraced = Median(walls[{nproc, false}]);
  report->Add("trace.overhead_share", traced / untraced - 1.0, "ratio");
  report->Add("parallel.pipeline_speedup", Median(walls[{1, true}]) / traced,
              "ratio");
  const double ktruss = SumOfMedians(per_iteration, "metrics.ktruss_s");
  if (ktruss > 0.0) {
    report->Add("parallel.ktruss_speedup",
                SumOfMedians(per_iteration, "metrics.ktruss_1t_s") / ktruss,
                "ratio");
  }
  const double vertex = SumOfMedians(per_iteration, "scalar.vertex_tree_s");
  if (vertex > 0.0) {
    report->Add("parallel.vertex_tree_speedup",
                SumOfMedians(per_iteration, "scalar.vertex_tree_1t_s") / vertex,
                "ratio");
  }
  return 0;
}

uint32_t Divisor(const Args& args, uint32_t full, uint32_t smoke) {
  return args.smoke ? smoke : full;
}

}  // namespace

std::map<std::string, std::vector<double>> AddStageMedians(
    const std::vector<SpanRecord>& records, Report* report) {
  auto per_iteration = SelfSecondsPerRoot(records, "bench.iteration");
  for (const auto& [key, values] : per_iteration) {
    report->Add(key, Median(values), "s");
  }
  const auto per_setup = SelfSecondsPerRoot(records, "bench.setup");
  for (const char* key : {"gen.dataset_s", "gen.attributes_s"}) {
    auto it = per_setup.find(key);
    if (it != per_setup.end()) report->Add(key, Median(it->second), "s");
  }
  return per_iteration;
}

std::string StageKey(const char* base, uint32_t threads,
                     const std::string& row) {
  std::string key = base;
  key += threads == 1 ? "_1t_s" : "_s";
  if (!row.empty()) key += "." + row;
  return key;
}

RowResult FinishRow(const std::string& dataset, const std::string& field,
                    std::vector<double> values, const ScalarTree& tree,
                    const RowContext& ctx) {
  const uint32_t t = ctx.threads;
  RowResult out;
  out.key = dataset + "/" + field;
  TreeArtifact& artifact = out.artifact;
  {
    Span span("scalar.super_tree", StageKey("scalar.super_tree", t));
    artifact.tree = SuperTree(tree);
  }
  {
    Span span("scalar.member_index", StageKey("scalar.member_index", t));
    artifact.tree.MemberIndex();
  }
  out.super_nodes = artifact.tree.NumNodes();
  out.elements = artifact.tree.NumElements();
  if (ctx.terrain) {
    TerrainLayout layout;
    {
      Span span("terrain.layout", StageKey("terrain.layout", t));
      layout = BuildTerrainLayout(artifact.tree);
    }
    HeightField height;
    {
      Span span("terrain.raster", StageKey("terrain.raster", t));
      RasterOptions raster;
      raster.width = kRasterDim;
      raster.height = kRasterDim;
      raster.num_threads = t;
      height = RasterizeTerrain(layout, raster);
    }
    Image image;
    {
      Span span("terrain.render", StageKey("terrain.render", t));
      image = RenderOblique(height, HeightColors(artifact.tree), Camera(),
                            kImageWidth, kImageHeight);
    }
    out.image_digest =
        DigestBytes(image.pixels.data(), image.pixels.size() * sizeof(Rgb));
    out.pixels = static_cast<uint64_t>(height.width) * height.height +
                 static_cast<uint64_t>(image.width) * image.height;
  }
  artifact.field_name = field;
  artifact.field_values = std::move(values);
  bool ok = true;
  {
    Span span("scalar.serialize", StageKey("scalar.serialize", t));
    StatusOr<std::string> bytes = SerializeTreeArtifact(artifact);
    if (bytes.ok()) {
      out.serialized = std::move(bytes).value();
    } else {
      ok = false;
      std::fprintf(stderr, "perfbench: serialize %s: %s\n", out.key.c_str(),
                   bytes.status().ToString().c_str());
    }
  }
  {
    Span span("scalar.cache_put", StageKey("scalar.cache_put", t));
    const Status put = ctx.cache->Put(ArtifactKey{dataset, field}, artifact);
    if (!put.ok()) {
      ok = false;
      std::fprintf(stderr, "perfbench: Put %s: %s\n", out.key.c_str(),
                   put.ToString().c_str());
    }
  }
  ctx.report->Op(ctx.phase, ok);
  return out;
}

int RunTable2(const Args& args, Report* report) {
  struct RowSpec {
    const char* row;
    DatasetId id;
    uint32_t divisor;
  };
  // CitPatent/8: heavy-tailed, low clustering. DBLP/1: triangle-rich.
  const std::vector<RowSpec> rows = {
      {"cit", DatasetId::kCitPatent, Divisor(args, 8, 512)},
      {"dblp", DatasetId::kDBLP, Divisor(args, 1, 64)},
  };
  Workload w;
  w.make_inputs = [&] {
    std::vector<Input> inputs;
    for (uint32_t i = 0; i < rows.size(); ++i) {
      inputs.push_back(MakeInput(rows[i].row, rows[i].id, rows[i].divisor,
                                 args.seed, i, 0));
    }
    return inputs;
  };
  w.iterate = [](const std::vector<Input>& inputs, const RowContext& ctx) {
    const uint32_t t = ctx.threads;
    IterationOutput out;
    for (const Input& input : inputs) {
      Span row_span("table2.row");
      const Graph& g = input.dataset.graph;
      const std::string dataset =
          std::string(input.dataset.spec.name) +
          std::to_string(input.dataset.scale_divisor);
      // KC(v) row.
      std::vector<uint32_t> cores;
      {
        Span span("metrics.kcore", StageKey("metrics.kcore", t));
        cores = CoreNumbers(g);
      }
      VertexScalarField kc = VertexScalarField::FromCounts("KC", cores);
      ScalarTree vtree;
      {
        Span span("scalar.vertex_tree", StageKey("scalar.vertex_tree", t));
        vtree = BuildVertexScalarTreeParallel(g, kc, ParallelOptions{t, 0});
      }
      out.rows.push_back(FinishRow(dataset, "KC", kc.Values(), vtree, ctx));
      // KT(e) row.
      std::vector<uint32_t> truss;
      {
        Span span("metrics.ktruss", StageKey("metrics.ktruss", t, input.row));
        truss = TrussNumbersParallel(g, ParallelOptions{t, 0});
      }
      EdgeScalarField kt = EdgeScalarField::FromCounts("KT", truss);
      ScalarTree etree;
      {
        Span span("scalar.edge_tree", StageKey("scalar.edge_tree", t));
        etree = BuildEdgeScalarTreeParallel(g, kt, ParallelOptions{t, 0});
      }
      out.rows.push_back(FinishRow(dataset, "KT", kt.Values(), etree, ctx));
    }
    return out;
  };
  // CountTrianglesParallel does the intersection work of the truss
  // support pass, so ktruss_s - triangles_s estimates the sequential peel.
  w.probe = [](const std::vector<Input>& inputs, uint32_t threads) {
    for (const Input& input : inputs) {
      Span span("metrics.triangles",
                StageKey("metrics.triangles", threads, input.row));
      CountTrianglesParallel(input.dataset.graph, ParallelOptions{threads, 0});
    }
  };
  return RunPipeline(args, w, report);
}

int RunAttrTerrain(const Args& args, Report* report) {
  const uint32_t divisor = Divisor(args, 2, 256);
  Workload w;
  w.make_inputs = [&] {
    return std::vector<Input>{
        MakeInput("cit", DatasetId::kCitPatent, divisor, args.seed, 0, 2)};
  };
  w.iterate = [](const std::vector<Input>& inputs, const RowContext& ctx) {
    const uint32_t t = ctx.threads;
    const Input& input = inputs[0];
    const Graph& g = input.dataset.graph;
    const std::string dataset = std::string(input.dataset.spec.name) +
                                std::to_string(input.dataset.scale_divisor);
    IterationOutput out;
    std::vector<VertexScalarField> fields;
    for (size_t a = 0; a < input.attributes.size(); ++a) {
      Span row_span("attr.row");
      fields.emplace_back("ATTR" + std::to_string(a), input.attributes[a]);
      ScalarTree tree;
      {
        Span span("scalar.vertex_tree", StageKey("scalar.vertex_tree", t));
        tree = BuildVertexScalarTreeParallel(g, fields.back(),
                                             ParallelOptions{t, 0});
      }
      out.rows.push_back(FinishRow(dataset, fields.back().Name(),
                                   fields.back().Values(), tree, ctx));
    }
    // The multi-scalar comparison: global correlation index and top-peak
    // overlap of the two attribute terrains.
    Span span("scalar.correlation", StageKey("scalar.correlation", t));
    out.gci = Gci(g, fields[0], fields[1]);
    out.jaccard = TopPeakJaccard(out.rows[0].artifact.tree,
                                 out.rows[1].artifact.tree, 10);
    return out;
  };
  return RunPipeline(args, w, report);
}

}  // namespace perfbench
