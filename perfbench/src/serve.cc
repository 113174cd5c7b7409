#include "serve.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "metrics/kcore.h"
#include "pipeline.h"
#include "scalar/super_tree.h"
#include "service/client.h"
#include "service/server.h"
#include "service/service.h"
#include "service/wire.h"
#include "trace.h"
#include "workload_inputs.h"

namespace perfbench {

using namespace graphscape;
using service::BlockingClient;
using service::ResponseFrame;
using service::Verb;

namespace {

// The measured part of a serve run is this many rounds, each one corpus
// build pair (1 thread, then nproc) followed by --seconds / kServeRounds
// of requests. A corpus build takes well under a second; spread over the
// whole run, its samples and the requests' average over the same slow
// phases of a shared host instead of catching one window of it.
constexpr int kServeRounds = 8;
constexpr uint32_t kTileWidth = 256;
constexpr uint32_t kTileHeight = 192;
// Dashboards wait for each reply: a closed loop of this many connections.
constexpr uint32_t kMixedConnections = 3;
// Key popularity: weight of rank r is 1 / (r + 1)^s.
constexpr double kZipfExponent = 1.1;
// The serve-mixed keys by popularity rank, as indices into the corpus
// keys (BuildCorpus order: DBLP KC, DBLP ATTR, CitPatent KC, CitPatent
// ATTR): the continuous fields first. PEAKS and TOPPEAKS answer in
// ~0.05 ms on a K-Core tree (Nt in the hundreds) and ~0.3-0.7 ms on an
// ATTR tree (Nt ~ |V|). With DBLP KC first, about half of all requests
// were fast ones, so the median sat on the edge between the two modes and
// moved 0.30-0.44 ms between runs.
constexpr uint32_t kKeyByRank[] = {1, 3, 0, 2};
// The serve-mixed tile cameras; a fixed set, so the tile LRU stays warm.
constexpr double kMixedAzimuths[] = {225.0, 45.0, 135.0, 315.0};
constexpr double kMixedElevation = 42.0;
// serve-cold-tiles arrival rate, requests/s: about a quarter of the
// ~410 req/s capacity measured for this tile mix at the commit that
// introduced the benchmark (README.md). Nearer half capacity, the slow
// phases of a shared 4-vCPU host pushed the queue towards saturation
// and p99 swung between runs.
constexpr double kColdTileRate = 100.0;
// A tile LRU that holds a few dozen 256x192 tiles, so the cold-tile run
// evicts on nearly every insert once it has filled.
constexpr uint64_t kColdTileCacheBytes = 4ull << 20;
// Indices into the corpus keys (BuildCorpus order: DBLP KC, DBLP ATTR,
// CitPatent KC, CitPatent ATTR).
constexpr uint32_t kColdKcKey = 2;
constexpr uint32_t kColdAttrKey = 3;

// The verb mix of serve-mixed, weights out of 100.
struct VerbWeight {
  Verb verb;
  uint32_t weight;
};
constexpr VerbWeight kMix[] = {
    {Verb::kTree, 10},        {Verb::kPeaks, 25}, {Verb::kTopPeaks, 25},
    {Verb::kMembers, 15},     {Verb::kCorrelation, 10},
    {Verb::kTile, 10},        {Verb::kStats, 5},
};

std::string Lower(const char* s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(c));
  return out;
}

// One served key and what the checks compare against.
struct Key {
  std::string dataset;
  std::string field;
  std::string serialized;  // SerializeTreeArtifact of what was stored
  uint32_t nodes = 0;
  double min_value = 0.0;
  double max_value = 0.0;
};

// One planned request.
struct Planned {
  uint64_t id = 0;
  Verb verb = Verb::kStats;
  uint32_t key = 0;
  std::string line;
};

// What one request came back as.
struct Outcome {
  Planned planned;
  double latency_ms = 0.0;
  double lag_ms = 0.0;  // open loop: send time minus due time
  bool ok = false;
  std::string why;  // failure reason when !ok
};

struct Daemon {
  std::unique_ptr<service::QueryService> service;
  std::unique_ptr<service::ServiceServer> server;
  void Stop() {
    if (server) server->Stop();
    server.reset();
    service.reset();
  }
};

struct ServeState {
  std::vector<Input> inputs;
  std::vector<Key> keys;  // BuildCorpus order
  Daemon daemon;
  std::vector<double> cold_load_ms;  // first touch per key, last set-up
  std::vector<double> setup_s;
  std::vector<double> corpus_s;     // nproc corpus builds
  std::vector<double> corpus_1t_s;  // 1-thread corpus builds
  std::vector<bool> corpus_armed;   // whether each nproc build was traced
  uint64_t super_nodes = 0;         // corpus totals
  uint64_t elements = 0;
  ArtifactCache corpus_cache;  // where the measured corpus builds Put
};

std::string TileLine(const Key& key, double azimuth, double elevation) {
  return StrPrintf("TILE %s %s %.17g %.17g %u %u", key.dataset.c_str(),
                   key.field.c_str(), azimuth, elevation, kTileWidth,
                   kTileHeight);
}

// The output checks of one reply. Frame checksums are verified by the
// client's decoder: a bad one comes back as a non-OK status.
bool CheckReply(const Planned& planned, const StatusOr<ResponseFrame>& reply,
                const std::vector<Key>& keys, std::string* why) {
  if (!reply.ok()) {
    *why = planned.line + ": transport: " + reply.status().ToString();
    return false;
  }
  const ResponseFrame& frame = reply.value();
  if (frame.wire_code != service::kWireOk) {
    *why = planned.line + ": wire code " + std::to_string(frame.wire_code) +
           ": " + frame.payload;
    return false;
  }
  if (planned.verb == Verb::kTree &&
      frame.payload != keys[planned.key].serialized) {
    *why = planned.line + ": TREE bytes differ from the stored artifact";
    return false;
  }
  if (planned.verb == Verb::kTile) {
    const std::string header =
        StrPrintf("P6\n%u %u\n255\n", kTileWidth, kTileHeight);
    if (frame.payload.compare(0, header.size(), header) != 0 ||
        frame.payload.size() !=
            header.size() + 3ull * kTileWidth * kTileHeight) {
      *why = planned.line + ": TILE is not a " + std::to_string(kTileWidth) +
             "x" + std::to_string(kTileHeight) + " P6 image";
      return false;
    }
  }
  return true;
}

// field -> scalar tree -> super tree -> member index -> serialize -> Put
// for every served key: the pipeline behind the daemon's corpus.
std::vector<RowResult> BuildCorpus(const std::vector<Input>& inputs,
                                   ArtifactCache* cache, uint32_t threads,
                                   Report* report) {
  RowContext ctx;
  ctx.cache = cache;
  ctx.threads = threads;
  ctx.terrain = false;
  ctx.report = report;
  ctx.phase = threads == 1 ? "corpus.1t" : "corpus.nproc";
  std::vector<RowResult> rows;
  Span root("bench.iteration");
  for (const Input& input : inputs) {
    const Graph& g = input.dataset.graph;
    const std::string dataset = std::string(input.dataset.spec.name) +
                                std::to_string(input.dataset.scale_divisor);
    std::vector<uint32_t> cores;
    {
      Span span("metrics.kcore", StageKey("metrics.kcore", threads));
      cores = CoreNumbers(g);
    }
    const VertexScalarField kc = VertexScalarField::FromCounts("KC", cores);
    const VertexScalarField attr("ATTR", input.attributes[0]);
    for (const VertexScalarField* field : {&kc, &attr}) {
      ScalarTree tree;
      {
        Span span("scalar.vertex_tree",
                  StageKey("scalar.vertex_tree", threads));
        tree = BuildVertexScalarTreeParallel(g, *field,
                                             ParallelOptions{threads, 0});
      }
      rows.push_back(
          FinishRow(dataset, field->Name(), field->Values(), tree, ctx));
    }
  }
  return rows;
}

// One complete set-up: inputs, corpus, daemon, priming. Only the last
// set-up's daemon is kept running.
bool SetUpOnce(const Args& args, size_t rep, uint64_t tile_cache_bytes,
               bool warm_tiles, ServeState* state, Report* report) {
  const uint32_t nproc = DefaultThreads();
  state->daemon.Stop();
  // Traced runs alternate disarmed and armed set-ups, for the overhead.
  const bool armed = args.trace && rep % 2 == 1;
  ArmTracing(armed);
  Span setup_span("bench.setup");
  WallTimer setup_timer;
  std::vector<Input> inputs;
  inputs.push_back(MakeInput("dblp", DatasetId::kDBLP, args.smoke ? 64 : 4,
                             args.seed, 10, 1));
  inputs.push_back(MakeInput("cit", DatasetId::kCitPatent,
                             args.smoke ? 512 : 16, args.seed, 11, 1));
  if (state->inputs.empty()) {
    report->Op("setup.generate", true);
  } else {
    for (size_t i = 0; i < inputs.size(); ++i) {
      CheckSameInput(state->inputs[i], inputs[i], report);
    }
  }

  StatusOr<ArtifactCache> opened =
      ArtifactCache::Open(args.work_dir + "/cache");
  if (!opened.ok()) {
    std::fprintf(stderr, "perfbench: cannot open the bench cache: %s\n",
                 opened.status().ToString().c_str());
    return false;
  }
  ArtifactCache cache = std::move(opened).value();
  WallTimer corpus_timer;
  std::vector<RowResult> rows = BuildCorpus(inputs, &cache, nproc, report);
  state->corpus_s.push_back(corpus_timer.Seconds());
  state->corpus_armed.push_back(armed);
  std::vector<Key> keys;
  state->super_nodes = state->elements = 0;
  for (const RowResult& row : rows) {
    state->super_nodes += row.super_nodes;
    state->elements += row.elements;
    Key key;
    const size_t slash = row.key.find('/');
    key.dataset = row.key.substr(0, slash);
    key.field = row.key.substr(slash + 1);
    key.serialized = row.serialized;
    key.nodes = row.super_nodes;
    const std::vector<double>& values = row.artifact.field_values;
    key.min_value = *std::min_element(values.begin(), values.end());
    key.max_value = *std::max_element(values.begin(), values.end());
    keys.push_back(std::move(key));
  }

  service::QueryService::Options options;
  options.tile_cache_bytes = tile_cache_bytes;
  StatusOr<std::unique_ptr<service::QueryService>> service =
      service::QueryService::Open(args.work_dir + "/cache", options);
  if (!service.ok()) {
    std::fprintf(stderr, "perfbench: QueryService::Open: %s\n",
                 service.status().ToString().c_str());
    return false;
  }
  Daemon daemon;
  daemon.service = std::move(service).value();
  service::ServiceServer::Options server_options;
  server_options.num_threads = nproc;
  daemon.server = std::make_unique<service::ServiceServer>(
      daemon.service.get(), server_options);
  const Status started = daemon.server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "perfbench: server start: %s\n",
                 started.ToString().c_str());
    return false;
  }

  // Priming: first touch of every key (the cold load), then the warm
  // tile set for serve-mixed.
  BlockingClient client;
  const Status connected = client.Connect("127.0.0.1", daemon.server->port());
  if (!connected.ok()) {
    std::fprintf(stderr, "perfbench: connect: %s\n",
                 connected.ToString().c_str());
    return false;
  }
  std::vector<double> cold_load_ms;
  for (uint32_t k = 0; k < keys.size(); ++k) {
    Planned planned;
    planned.verb = Verb::kTree;
    planned.key = k;
    planned.line = "TREE " + keys[k].dataset + " " + keys[k].field;
    WallTimer timer;
    StatusOr<ResponseFrame> reply = Status::Unavailable("not sent");
    {
      Span span("service.roundtrip");
      reply = client.Roundtrip(planned.line);
    }
    cold_load_ms.push_back(timer.Seconds() * 1e3);
    std::string why;
    report->Check("setup.prime", CheckReply(planned, reply, keys, &why), why);
    if (warm_tiles) {
      for (const double azimuth : kMixedAzimuths) {
        planned.verb = Verb::kTile;
        planned.line = TileLine(keys[k], azimuth, kMixedElevation);
        reply = client.Roundtrip(planned.line);
        report->Check("setup.prime", CheckReply(planned, reply, keys, &why),
                      why);
      }
    }
  }
  client.Close();
  state->setup_s.push_back(setup_timer.Seconds());
  ArmTracing(false);

  state->daemon = std::move(daemon);
  state->keys = std::move(keys);
  state->cold_load_ms = std::move(cold_load_ms);
  if (state->inputs.empty()) state->inputs = std::move(inputs);
  return true;
}

// Set-up, repeated; the last set-up's daemon keeps running.
bool SetUp(const Args& args, uint64_t tile_cache_bytes, bool warm_tiles,
           ServeState* state, Report* report) {
  double setup_total = 0.0;
  for (size_t rep = 0; MoreSetUps(rep, setup_total); ++rep) {
    if (!SetUpOnce(args, rep, tile_cache_bytes, warm_tiles, state, report)) {
      state->daemon.Stop();
      return false;
    }
    setup_total += state->setup_s.back();
  }
  StatusOr<ArtifactCache> opened =
      ArtifactCache::Open(args.work_dir + "/corpus");
  if (!opened.ok()) {
    std::fprintf(stderr, "perfbench: cannot open the corpus cache: %s\n",
                 opened.status().ToString().c_str());
    state->daemon.Stop();
    return false;
  }
  state->corpus_cache = std::move(opened).value();
  return true;
}

// One measured corpus build at 1 thread, then one at nproc, untraced.
// Each must give the served bytes again.
void CorpusPair(ServeState* state, Report* report) {
  ArmTracing(false);
  for (const uint32_t threads : {1u, DefaultThreads()}) {
    WallTimer timer;
    const std::vector<RowResult> rows =
        BuildCorpus(state->inputs, &state->corpus_cache, threads, report);
    if (threads == 1) {
      state->corpus_1t_s.push_back(timer.Seconds());
    } else {
      state->corpus_s.push_back(timer.Seconds());
      state->corpus_armed.push_back(false);
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      report->Check("check.determinism",
                    rows[i].serialized == state->keys[i].serialized,
                    rows[i].key + ": artifact bytes differ at " +
                        std::to_string(threads) + " thread(s)");
    }
  }
}

// Sends one request on `client`, timing the roundtrip and checking the
// reply.
Outcome Send(BlockingClient* client, const Planned& planned,
             const std::vector<Key>& keys) {
  Outcome outcome;
  outcome.planned = planned;
  RequestScope scope(planned.id);
  Span request_span("loadgen.request");
  WallTimer timer;
  StatusOr<ResponseFrame> reply = Status::Unavailable("not sent");
  {
    Span span("service.roundtrip", "service.roundtrip_ms");
    reply = client->Roundtrip(planned.line);
  }
  outcome.latency_ms = timer.Seconds() * 1e3;
  outcome.ok = CheckReply(planned, reply, keys, &outcome.why);
  if (!reply.ok()) client->Close();  // poisoned; reconnect next time
  return outcome;
}

bool EnsureConnected(BlockingClient* client, uint16_t port, Outcome* failed) {
  if (client->connected()) return true;
  const Status status = client->Connect("127.0.0.1", port);
  if (status.ok()) return true;
  failed->ok = false;
  failed->why = "connect: " + status.ToString();
  return false;
}

// Replays `outcomes`' request lines through HandleLine on a fresh
// in-process QueryService, primed like the daemon, for the per-verb
// handle times. Stops after `budget_s` seconds.
void ReplayInProcess(const Args& args, uint64_t tile_cache_bytes,
                     bool warm_tiles, const std::vector<Key>& keys,
                     const std::vector<Outcome>& outcomes, double budget_s,
                     Report* report) {
  service::QueryService::Options options;
  options.tile_cache_bytes = tile_cache_bytes;
  StatusOr<std::unique_ptr<service::QueryService>> opened =
      service::QueryService::Open(args.work_dir + "/cache", options);
  if (!report->Check("trace.replay", opened.ok(), "replay QueryService::Open"))
    return;
  service::QueryService& service = *opened.value();
  for (const Key& key : keys) {
    service.HandleLine("TREE " + key.dataset + " " + key.field);
    if (!warm_tiles) continue;
    for (const double azimuth : kMixedAzimuths) {
      service.HandleLine(TileLine(key, azimuth, kMixedElevation));
    }
  }
  ArmTracing(true);
  WallTimer clock;
  for (const Outcome& outcome : outcomes) {
    if (clock.Seconds() > budget_s) break;
    const Planned& planned = outcome.planned;
    RequestScope scope(planned.id);
    const std::string verb = Lower(service::VerbName(planned.verb));
    std::string frame;
    {
      Span span(("service.handle_" + verb).c_str(),
                "service.handle_" + verb + "_ms");
      frame = service.HandleLine(planned.line);
    }
    StatusOr<ResponseFrame> decoded = service::DecodeResponseFrame(frame);
    std::string why;
    report->Check("trace.replay", CheckReply(planned, decoded, keys, &why),
                  why);
  }
  ArmTracing(false);
}

// Latency and throughput of the measured requests; failed requests miss
// every latency limit, so they enter the percentiles as +inf.
void AddRequestMetrics(const std::vector<Outcome>& outcomes, double wall_s,
                       Report* report) {
  std::vector<double> ms;
  uint64_t ok = 0;
  for (const Outcome& outcome : outcomes) {
    report->Check("serve.request", outcome.ok, outcome.why);
    ms.push_back(outcome.ok ? outcome.latency_ms : HUGE_VAL);
    if (outcome.ok) ++ok;
  }
  std::printf("requests %zu ok %llu over %.3f s\n", outcomes.size(),
              static_cast<unsigned long long>(ok), wall_s);
  report->Add("qps", ok / wall_s, "req/s");
  report->Add("req_p50_ms", Median(ms), "ms");
  report->Add("req_p99_ms", Percentile(ms, 0.99), "ms");
}

void AddSetupMetrics(const ServeState& state, Report* report) {
  report->Add("setup_s", Median(state.setup_s), "s");
  report->Add("pipeline_s", Median(state.corpus_s), "s");
  report->Add("pipeline_1t_s", Median(state.corpus_1t_s), "s");
}

// The per-layer numbers of a traced serve run.
void AddTracedMetrics(const ServeState& state,
                      const service::TileCacheStats& tiles_before,
                      const service::ServiceStats& service_before,
                      Report* report) {
  const std::vector<SpanRecord> records = TraceRecords();
  AddStageMedians(records, report);
  std::map<std::string, std::vector<double>> ms_by_key;
  std::vector<double> handle_ms;
  for (const SpanRecord& r : records) {
    const size_t n = r.key.size();
    if (n < 3 || r.key.compare(n - 3, 3, "_ms") != 0) continue;
    ms_by_key[r.key].push_back(r.DurationUs() * 1e-3);
    if (r.key.rfind("service.handle_", 0) == 0) {
      handle_ms.push_back(r.DurationUs() * 1e-3);
    }
  }
  for (const auto& [key, values] : ms_by_key) {
    if (key != "service.roundtrip_ms") report->Add(key, Median(values), "ms");
  }
  if (!handle_ms.empty() && ms_by_key.count("service.roundtrip_ms")) {
    report->Add("service.transport_ms",
                Median(ms_by_key["service.roundtrip_ms"]) - Median(handle_ms),
                "ms");
  }
  const service::TileCacheStats tiles = state.daemon.service->tile_stats();
  const uint64_t hits = tiles.hits - tiles_before.hits;
  const uint64_t misses = tiles.misses - tiles_before.misses;
  report->Add("service.tile_hit_ratio",
              hits + misses == 0 ? 0.0
                                 : static_cast<double>(hits) / (hits + misses),
              "ratio");
  report->Add("service.tiles_rendered",
              static_cast<double>(state.daemon.service->stats().tiles_rendered -
                                  service_before.tiles_rendered),
              "count");
  report->Add("service.tile_evictions",
              static_cast<double>(tiles.evictions - tiles_before.evictions),
              "count");
  report->Add("service.cold_load_ms", Median(state.cold_load_ms), "ms");
  report->Add("scalar.super_nodes", static_cast<double>(state.super_nodes),
              "count");
  report->Add("scalar.elements", static_cast<double>(state.elements), "count");

  std::vector<double> armed, disarmed;
  for (size_t i = 0; i < state.corpus_s.size(); ++i) {
    (state.corpus_armed[i] ? armed : disarmed).push_back(state.corpus_s[i]);
  }
  if (!armed.empty() && !disarmed.empty()) {
    report->Add("trace.overhead_share", Median(armed) / Median(disarmed) - 1.0,
                "ratio");
  }
  report->Add("parallel.pipeline_speedup",
              Median(state.corpus_1t_s) / Median(state.corpus_s), "ratio");
}

std::vector<double> ZipfCdf(size_t n) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    cdf[i] = total;
  }
  for (double& value : cdf) value /= total;
  return cdf;
}

uint32_t SampleCdf(const std::vector<double>& cdf, double u) {
  const size_t i = static_cast<size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  return static_cast<uint32_t>(std::min(i, cdf.size() - 1));
}

Planned MixedRequest(const std::vector<Key>& keys,
                     const std::vector<double>& cdf, Rng* rng) {
  Planned p;
  uint32_t pick = rng->UniformInt(100);
  for (const VerbWeight& vw : kMix) {
    if (pick < vw.weight) {
      p.verb = vw.verb;
      break;
    }
    pick -= vw.weight;
  }
  p.key = kKeyByRank[SampleCdf(cdf, rng->UniformDouble())];
  const Key& key = keys[p.key];
  const std::string prefix = key.dataset + " " + key.field;
  switch (p.verb) {
    case Verb::kTree:
      p.line = "TREE " + prefix;
      break;
    case Verb::kPeaks:
      p.line = StrPrintf("PEAKS %s %.17g", prefix.c_str(),
                         key.min_value + rng->UniformDouble() *
                                             (key.max_value - key.min_value));
      break;
    case Verb::kTopPeaks:
      p.line = StrPrintf("TOPPEAKS %s %u", prefix.c_str(),
                         1 + rng->UniformInt(16));
      break;
    case Verb::kMembers:
      p.line = StrPrintf("MEMBERS %s %u", prefix.c_str(),
                         rng->UniformInt(key.nodes));
      break;
    case Verb::kCorrelation:
      // KC against the continuous field of the same dataset.
      p.line = "CORRELATION " + key.dataset + " KC ATTR";
      break;
    case Verb::kTile:
      p.line = TileLine(key, kMixedAzimuths[rng->UniformInt(4)],
                        kMixedElevation);
      break;
    case Verb::kStats:
      p.line = "STATS";
      break;
  }
  return p;
}

}  // namespace

int RunServeMixed(const Args& args, Report* report) {
  const uint64_t tile_cache_bytes =
      service::QueryService::Options().tile_cache_bytes;
  ServeState state;
  if (!SetUp(args, tile_cache_bytes, /*warm_tiles=*/true, &state, report)) {
    return 1;
  }
  const uint16_t port = state.daemon.server->port();
  const std::vector<double> cdf = ZipfCdf(std::size(kKeyByRank));
  const service::TileCacheStats tiles_before =
      state.daemon.service->tile_stats();
  const service::ServiceStats service_before = state.daemon.service->stats();
  // peak_rss_mb: the measured rounds', not the discarded set-ups'.
  ResetPeakRss();

  std::vector<std::vector<Outcome>> per_client(kMixedConnections);
  std::vector<Rng> rngs;
  for (uint32_t c = 0; c < kMixedConnections; ++c) {
    rngs.emplace_back(SeedFor(args.seed, 100 + c));
  }
  const double slice_s = args.seconds / kServeRounds;
  double wall = 0.0;
  for (int round = 0; round < kServeRounds; ++round) {
    CorpusPair(&state, report);
    ArmTracing(args.trace);
    WallTimer clock;
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < kMixedConnections; ++c) {
      threads.emplace_back([&, c] {
        BlockingClient client;
        while (clock.Seconds() < slice_s) {
          Planned planned = MixedRequest(state.keys, cdf, &rngs[c]);
          planned.id = (static_cast<uint64_t>(c + 1) << 32) |
                       per_client[c].size();
          Outcome failed;
          failed.planned = planned;
          if (!EnsureConnected(&client, port, &failed)) {
            per_client[c].push_back(failed);
            continue;
          }
          per_client[c].push_back(Send(&client, planned, state.keys));
        }
        client.Close();
      });
    }
    for (std::thread& t : threads) t.join();
    wall += clock.Seconds();
    ArmTracing(false);
  }

  std::vector<Outcome> outcomes;
  for (const auto& list : per_client) {
    outcomes.insert(outcomes.end(), list.begin(), list.end());
  }
  AddRequestMetrics(outcomes, wall, report);
  AddSetupMetrics(state, report);
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
  if (args.trace) {
    ReplayInProcess(args, tile_cache_bytes, true, state.keys, outcomes,
                    0.25 * args.seconds, report);
    AddTracedMetrics(state, tiles_before, service_before, report);
  }
  state.daemon.Stop();
  return 0;
}

int RunServeColdTiles(const Args& args, Report* report) {
  ServeState state;
  if (!SetUp(args, kColdTileCacheBytes, /*warm_tiles=*/false, &state,
             report)) {
    return 1;
  }
  const uint16_t port = state.daemon.server->port();
  const service::TileCacheStats tiles_before =
      state.daemon.service->tile_stats();
  const service::ServiceStats service_before = state.daemon.service->stats();
  // peak_rss_mb: the measured rounds', not the discarded set-ups'.
  ResetPeakRss();

  // Request i of a round is due at the round's start + i / rate, whatever
  // happened to earlier requests; connection c sends the round's
  // requests c, c + C, c + 2C, ...
  const uint64_t total =
      std::max<uint64_t>(1, std::llround(kColdTileRate * args.seconds));
  const uint32_t connections = DefaultThreads();
  Rng camera_rng(SeedFor(args.seed, 7));
  const double azimuth0 = camera_rng.UniformDouble() * 360.0;
  std::vector<Planned> plan(total);
  for (uint64_t i = 0; i < total; ++i) {
    Planned& p = plan[i];
    p.id = i + 1;
    p.verb = Verb::kTile;
    // Nine of ten tiles render CitPatent's K-Core field (Nt in the
    // hundreds), one its continuous field (Nt ~ |V|, several times
    // slower): both render paths, with p50 inside the first mode and p99
    // at the 90th percentile of the second, not on a mode's edge.
    p.key = i % 10 == 9 ? kColdAttrKey : kColdKcKey;
    // Golden-angle steps: every camera is new, so every request misses.
    const double azimuth = std::fmod(azimuth0 + i * 137.50776405003785, 360.0);
    const double elevation =
        20.0 + std::fmod(i * 0.6180339887498949, 1.0) * 50.0;
    p.line = TileLine(state.keys[p.key], azimuth, elevation);
  }

  // Each round is its own open-loop schedule over its share of the plan.
  using Clock = std::chrono::steady_clock;
  std::vector<std::vector<Outcome>> per_client(connections);
  double wall = 0.0;
  for (int round = 0; round < kServeRounds; ++round) {
    CorpusPair(&state, report);
    const uint64_t first = total * round / kServeRounds;
    const uint64_t last = total * (round + 1) / kServeRounds;
    ArmTracing(args.trace);
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(20);
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        BlockingClient client;
        for (uint64_t i = first + c; i < last; i += connections) {
          const Clock::time_point due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>((i - first) /
                                                        kColdTileRate));
          std::this_thread::sleep_until(due);
          const Clock::time_point sent = Clock::now();
          Outcome outcome;
          outcome.planned = plan[i];
          if (EnsureConnected(&client, port, &outcome)) {
            outcome = Send(&client, plan[i], state.keys);
          }
          const Clock::time_point done = Clock::now();
          outcome.latency_ms =
              std::chrono::duration<double, std::milli>(done - due).count();
          outcome.lag_ms =
              std::chrono::duration<double, std::milli>(sent - due).count();
          per_client[c].push_back(std::move(outcome));
        }
        client.Close();
      });
    }
    for (std::thread& t : threads) t.join();
    wall += std::chrono::duration<double>(Clock::now() - start).count();
    ArmTracing(false);
  }

  std::vector<Outcome> outcomes;
  std::vector<double> lag_ms;
  for (const auto& list : per_client) {
    for (const Outcome& outcome : list) {
      outcomes.push_back(outcome);
      lag_ms.push_back(outcome.lag_ms);
    }
  }
  std::sort(outcomes.begin(), outcomes.end(),
            [](const Outcome& a, const Outcome& b) {
              return a.planned.id < b.planned.id;
            });
  AddRequestMetrics(outcomes, wall, report);
  AddSetupMetrics(state, report);
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
  if (args.trace) {
    report->Add("loadgen.lag_p99_ms", Percentile(lag_ms, 0.99), "ms");
    ReplayInProcess(args, kColdTileCacheBytes, false, state.keys, outcomes,
                    0.25 * args.seconds, report);
    AddTracedMetrics(state, tiles_before, service_before, report);
  }
  state.daemon.Stop();
  return 0;
}

}  // namespace perfbench
