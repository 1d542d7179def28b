// served_mix: the TCP QueryServer over a small archive, driven open-loop at
// a fixed arrival rate by one generator thread. Query latency runs from when
// each request was due, so a slow answer that holds up the requests behind
// it counts in theirs too. How late the generator sent is reported apart
// (gen.late_p99_ms, and on standard error).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "bench.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "util/string_util.h"
#include "workload/video_gen.h"

namespace perfbench {
namespace {

using htl::net::QueryClient;
using htl::net::QueryKind;
using htl::net::QueryRequest;
using htl::net::QueryResponse;
using htl::net::QueryServer;

constexpr int kLevel = 2;
constexpr int64_t kTopK = 10;
constexpr double kRequestsPerSecond = 200;
// Requests asking for the cache draw their formula from a Zipf(1.1) over
// the pool, the others uniformly: a popular head the cache serves, a tail
// it does not. Cached answers are several times faster, so the share is
// kept away from 50%, where p50 would sit on the edge between the two.
constexpr double kCachedShare = 0.6;
constexpr double kZipfExponent = 1.1;
constexpr int kSetups = 5;
constexpr int kFreshWrites = 64;
// Marked writes start this far apart, so they sample the host over several
// seconds rather than one stretch of it: back to back, 32 writes took 6-7 ms
// each in some runs and 11-12 ms in others, and their median spread by 24%
// across ten seeds.
constexpr double kWriteSpacingS = 0.1;

// Ten fixed formulas, segment and whole-video, so the server's per-video
// caches stop growing after the first request of each.
const std::vector<PoolQuery>& Pool() {
  static const std::vector<PoolQuery> pool = {
      {"exists x (type(x) = 'zeppelin' and rare_event(x))", false, 1},
      {"exists x (moving(x))", false, 1},
      {"exists x (armed(x)) and eventually exists y (moving(y))", false, 1},
      {"exists x, y (fires_at(x, y))", false, 1},
      {"exists x (moving(x)) until exists y (armed(y))", false, 1},
      {"next exists x (type(x) = 'train')", false, 1},
      {"at-next-level(eventually exists x (rare_event(x)))", true, 1},
      {"at-next-level(exists x (moving(x)) until exists y (armed(y)))", true, 1},
      {"exists x (type(x) = 'zeppelin' and rare_event(x)) and not exists y (armed(y))",
       false, 1},
      {"at-next-level(eventually exists x, y (close_up(x, y)))", true, 1},
  };
  return pool;
}

// The same corpus for every --seed (see ClosedLoopSpec::build).
htl::CorpusGenOptions ServedCorpus(bool quick) {
  htl::CorpusGenOptions corpus;
  corpus.num_videos = quick ? 100 : 200;
  corpus.video.levels = 2;
  corpus.video.min_branching = 2;
  corpus.video.max_branching = 4;
  corpus.video.num_objects = 3;
  corpus.video.object_density = 0.3;
  corpus.selective_fraction = 0.05;
  corpus.seed = 0x5E4ED;
  return corpus;
}

// One worker thread plus the server's accept and admin threads, and the
// generator: four threads. One connection at a time stays below the soft
// watermark, so no request is shed or degraded.
htl::net::ServerOptions ServerConfig() {
  htl::net::ServerOptions options;
  options.worker_threads = 1;
  options.soft_watermark = 2;
  options.hard_watermark = 8;
  options.default_deadline_ms = 10'000;
  options.read_timeout_ms = 10'000;
  options.write_timeout_ms = 10'000;
  options.query_options.prune = true;
  return options;
}

struct Request {
  size_t pool_index = 0;
  bool cached = false;
};

std::vector<Request> DrawRequests(uint64_t seed, int64_t count) {
  // Kinds 0..n-1 ask for the cache (Zipf weights), n..2n-1 do not (uniform).
  const size_t n = Pool().size();
  std::vector<double> weights;
  double zipf_total = 0;
  for (size_t i = 0; i < n; ++i) zipf_total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
  for (size_t i = 0; i < n; ++i) {
    weights.push_back(kCachedShare / std::pow(static_cast<double>(i + 1), kZipfExponent) /
                      zipf_total);
  }
  for (size_t i = 0; i < n; ++i) weights.push_back((1 - kCachedShare) / static_cast<double>(n));
  std::vector<Request> out;
  for (const size_t kind : SeededMix(weights, count, seed)) {
    out.push_back(Request{kind % n, kind < n});
  }
  return out;
}

QueryRequest MakeRequest(const std::string& text, bool video, bool cached) {
  QueryRequest q;
  q.kind = video ? QueryKind::kHtlVideos : QueryKind::kHtlSegments;
  q.level = kLevel;
  q.k = kTopK;
  q.use_cache = cached;
  q.parallelism = 1;
  q.query_text = text;
  return q;
}

// A server over a generated store, and a client for it.
struct Service {
  MetadataStore store;
  std::unique_ptr<QueryServer> server;
  std::unique_ptr<QueryClient> client;
};

// Sends one request; false (and counted failed) unless the response is OK,
// neither degraded nor partial.
bool Send(const Service& s, const QueryRequest& q, QueryResponse* response,
          Samples* out) {
  htl::Result<QueryResponse> r = s.client->QueryOnce(q);
  if (!r.ok() || !r.value().ok() || r.value().degraded() || r.value().partial()) {
    ++out->failed;
    std::fprintf(stderr, "request '%s' failed: %s\n", q.query_text.c_str(),
                 r.ok() ? r.value().message.c_str() : r.status().ToString().c_str());
    return false;
  }
  *response = std::move(r).value();
  return true;
}

// Every pool formula once through each server-side retriever.
void WarmUp(const Service& s, Samples* out) {
  for (const PoolQuery& p : Pool()) {
    for (const bool cached : {false, true}) {
      QueryResponse response;
      Send(s, MakeRequest(p.text, p.video_query, cached), &response, out);
    }
  }
}

std::unique_ptr<Service> StartService(bool quick, Samples* out) {
  auto s = std::make_unique<Service>();
  htl::GenerateCorpus(ServedCorpus(quick), &s->store);
  s->server = std::make_unique<QueryServer>(&s->store, ServerConfig());
  const htl::Status started = s->server->Start();
  if (!started.ok()) {
    out->Error(htl::StrCat("server start: ", started.ToString()));
    return s;
  }
  htl::net::ClientOptions client;
  client.port = s->server->port();
  client.max_attempts = 1;
  client.io_timeout_ms = 10'000;
  s->client = std::make_unique<QueryClient>(client);
  WarmUp(*s, out);
  return s;
}

// Converts wire hits for the checkers.
std::vector<htl::SegmentHit> SegmentHits(const QueryResponse& r) {
  std::vector<htl::SegmentHit> hits;
  for (const auto& h : r.hits) hits.push_back({h.video, h.segment, {h.actual, h.max}});
  return hits;
}
std::vector<htl::VideoHit> VideoHits(const QueryResponse& r) {
  std::vector<htl::VideoHit> hits;
  for (const auto& h : r.hits) hits.push_back({h.video, {h.actual, h.max}});
  return hits;
}

// Interpolated percentile of a bucketed histogram.
double HistogramPercentile(const htl::obs::Histogram::Snapshot& h, double q) {
  if (h.count == 0) return 0;
  const double target = q / 100.0 * static_cast<double>(h.count);
  int64_t seen = 0;
  for (size_t i = 0; i < h.buckets.size(); ++i) {
    if (h.buckets[i] == 0) continue;
    const double lo = i == 0 ? 0.0 : static_cast<double>(h.bounds[i - 1]);
    const double hi = i < h.bounds.size() ? static_cast<double>(h.bounds[i]) : lo;
    if (static_cast<double>(seen + h.buckets[i]) >= target) {
      return lo + (hi - lo) * (target - static_cast<double>(seen)) /
                      static_cast<double>(h.buckets[i]);
    }
    seen += h.buckets[i];
  }
  return static_cast<double>(h.bounds.back());
}

struct OpenLoopResult {
  std::vector<double> client_us;   // From the due time to the response.
  std::vector<double> late_ms;     // How late each request was sent.
  std::vector<QueryResponse> responses;
  double wall_s = 0;
};

OpenLoopResult RunOpenLoop(const Service& s, const std::vector<Request>& requests,
                           Samples* out) {
  OpenLoopResult r;
  const auto start = std::chrono::steady_clock::now();
  const auto interval = std::chrono::duration<double>(1.0 / kRequestsPerSecond);
  for (size_t i = 0; i < requests.size(); ++i) {
    const auto due = start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                 interval * static_cast<double>(i));
    // The generator spins (yielding to the server's threads) until the due
    // time instead of sleeping. Asleep, the CPU woke late, by 0.9 to 7.4 ms
    // at p99, and latency from the due time spread by 30% (p90) and 39%
    // (p99) across ten seeds; spinning, it sends within 0.3 ms of due.
    while (std::chrono::steady_clock::now() < due) std::this_thread::yield();
    const PoolQuery& p = Pool()[requests[i].pool_index];
    const QueryRequest q = MakeRequest(p.text, p.video_query, requests[i].cached);
    ++out->attempted;
    const auto sent = std::chrono::steady_clock::now();
    QueryResponse response;
    const bool ok = Send(s, q, &response, out);
    const auto done = std::chrono::steady_clock::now();
    r.responses.push_back(std::move(response));
    if (!ok) continue;
    r.client_us.push_back(std::chrono::duration<double, std::micro>(done - due).count());
    r.late_ms.push_back(std::chrono::duration<double, std::milli>(sent - due).count());
  }
  r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return r;
}

void CheckResponses(const Service& s, const std::vector<Request>& requests,
                    const std::vector<QueryResponse>& responses, uint64_t seed,
                    Samples* out) {
  std::vector<htl::FormulaPtr> formulas;
  htl::Retriever parser(&s.store);
  for (const PoolQuery& p : Pool()) {
    htl::Result<htl::FormulaPtr> f = parser.Prepare(p.text);
    if (!f.ok()) {
      out->Error(htl::StrCat("prepare '", p.text, "': ", f.status().ToString()));
      return;
    }
    formulas.push_back(std::move(f).value());
  }
  htl::Rng rng(seed ^ 0x5E4EULL);
  const htl::QueryOptions options = ServerConfig().query_options;
  const int64_t num_videos = s.store.num_videos();
  for (size_t i = 0; i < responses.size(); ++i) {
    if (!responses[i].ok()) continue;  // Counted failed when it arrived.
    const PoolQuery& p = Pool()[requests[i].pool_index];
    const std::string what = htl::StrCat("response ", i, " '", p.text, "'");
    const bool sampled = rng.UniformInt(0, static_cast<int64_t>(responses.size()) - 1) < 16;
    const htl::Formula& f = *formulas[requests[i].pool_index];
    bool ok = true;
    if (p.video_query) {
      const std::vector<htl::VideoHit> hits = VideoHits(responses[i]);
      ok = CheckVideoOrder(hits, kTopK, what, out) &&
           (!sampled || CheckVideosByReference(s.store, num_videos, f, kTopK, hits,
                                               options, rng, 2, 3, what, out));
    } else {
      const std::vector<htl::SegmentHit> hits = SegmentHits(responses[i]);
      ok = CheckSegmentOrder(hits, kTopK, what, out) &&
           (!sampled || CheckSegmentsByReference(s.store, num_videos, f, kLevel, kTopK,
                                                 hits, options, rng, 2, 3, what, out));
    }
    if (!ok) return;
  }
}

// Marked writes after the open loop, each asked for through the server and
// made while no request is in flight (the serialization the Retriever asks
// of writers).
FreshTarget ServedFreshTarget(Service& s) {
  FreshTarget target;
  target.store = &s.store;
  const htl::VideoGenOptions shape = ServedCorpus(false).video;
  target.make_video = [shape](htl::Rng& rng, const std::string& marker) {
    return MarkedVideo(rng, shape, marker);
  };
  target.query = [&s](const std::string& text, std::vector<htl::SegmentHit>* hits,
                      Samples* out) {
    QueryResponse response;
    if (!Send(s, MakeRequest(text, false, false), &response, out)) return false;
    *hits = SegmentHits(response);
    return true;
  };
  target.before_write = [&s] {
    // The wait spins, as the generator does: after a sleep of the same
    // length single writes ranged from 8 to 26 ms instead of 11 to 13.
    const double until = NowSeconds() + kWriteSpacingS;
    while (NowSeconds() < until || s.server->in_flight() != 0) std::this_thread::yield();
  };
  return target;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

void EmitServedLayers(const Service& s, const OpenLoopResult& traced,
                      const OpenLoopResult& untraced, const std::vector<Request>& requests,
                      uint64_t seed, Samples* out) {
  const htl::obs::MetricsSnapshot snap = htl::obs::MetricsRegistry::Instance().Snapshot();
  std::map<std::string, htl::obs::Histogram::Snapshot> hist;
  for (const auto& row : snap.histograms) hist[row.name] = row.hist;
  const auto mean = [&](const char* name) {
    const htl::obs::Histogram::Snapshot& h = hist[name];
    return h.count > 0 ? static_cast<double>(h.sum) / static_cast<double>(h.count) : 0.0;
  };
  auto& L = out->layers;
  const double client = Mean(traced.client_us);
  const double latency = mean("net.request.latency_us");
  L["trace.query_us"] = client;
  L["net.decode_us"] = mean("net.request.decode_us");
  L["net.execute_us"] = mean("net.request.execute_us");
  L["net.encode_us"] = mean("net.request.encode_us");
  L["net.outside_server_us"] = client - latency;
  // Admission, pool queueing and the wide-event record: server time in no
  // named stage.
  const double other = latency - L["net.decode_us"] - L["net.execute_us"] - L["net.encode_us"];
  L["net.server_other_us"] = other;
  L["trace.remainder_us"] = other;
  L["trace.remainder_share"] = client > 0 ? other / client : 0;
  L["pool.task_wait_us_p50"] = HistogramPercentile(hist["pool.task_wait_us"], 50);
  L["pool.task_wait_us_p99"] = HistogramPercentile(hist["pool.task_wait_us"], 99);
  L["gen.late_p99_ms"] = Percentile(traced.late_ms, 99);
  const double untraced_client = Mean(untraced.client_us);
  L["trace.overhead"] = untraced_client > 0 ? client / untraced_client : 0;
  EmitRegistryLayers(static_cast<int64_t>(requests.size()), out);

  // Prepare per request, timed from the benchmark on the same texts.
  htl::Retriever parser(&s.store);
  double prepare_s = 0;
  std::vector<htl::FormulaPtr> formulas;
  for (const Request& r : requests) {
    const double t0 = NowSeconds();
    htl::Result<htl::FormulaPtr> f = parser.Prepare(Pool()[r.pool_index].text);
    prepare_s += NowSeconds() - t0;
    if (formulas.size() < Pool().size() && f.ok()) formulas.push_back(std::move(f).value());
  }
  L["htl.prepare_us"] = prepare_s / static_cast<double>(requests.size()) * 1e6;
  std::vector<const htl::Formula*> segment_formulas;
  for (size_t i = 0; i < formulas.size(); ++i) {
    if (!Pool()[i].video_query) segment_formulas.push_back(formulas[i].get());
  }
  std::vector<MetadataStore::VideoId> sample;
  htl::Rng rng(seed ^ 0x5A5AULL);
  for (int i = 0; i < 100; ++i) sample.push_back(rng.UniformInt(1, s.store.num_videos()));
  EmitModuleLayers(s.store, sample, segment_formulas, kLevel, kTopK,
                   ServerConfig().query_options, 0, out);
}

}  // namespace

void RunServedMix(const Config& config, Samples* out) {
  const int64_t count = OpsFor(config, kRequestsPerSecond, 40);
  const std::vector<Request> requests = DrawRequests(config.seed, count);
  if (!config.trace) {
    // Earlier set-ups run in child processes, before this one starts threads.
    for (int i = 1; i < kSetups; ++i) {
      RecordSetUpInChild([&] {
        Samples scratch;
        std::unique_ptr<Service> s = StartService(config.quick, &scratch);
        return scratch.errors.empty() && scratch.failed == 0 &&
               s->server->Shutdown().ok();
      }, out);
    }
  }
  const double t0 = NowSeconds();
  std::unique_ptr<Service> s = StartService(config.quick, out);
  out->setup_s.push_back(NowSeconds() - t0);
  if (s->client == nullptr) return;
  OpenLoopResult result;
  if (config.trace) {
    const OpenLoopResult untraced = RunOpenLoop(*s, requests, out);
    htl::obs::MetricsRegistry& registry = htl::obs::MetricsRegistry::Instance();
    registry.ResetAll();
    registry.SetEnabled(true);
    result = RunOpenLoop(*s, requests, out);
    registry.SetEnabled(false);
    EmitServedLayers(*s, result, untraced, requests, config.seed, out);
  } else {
    result = RunOpenLoop(*s, requests, out);
    for (const double us : result.client_us) out->query_ms.push_back(us / 1e3);
    out->measured_s = result.wall_s;
    std::fprintf(stderr, "served_mix: generator late p50 %.3f ms, p99 %.3f ms\n",
                 Percentile(result.late_ms, 50), Percentile(result.late_ms, 99));
  }
  FreshWrites(ServedFreshTarget(*s), config.seed, kFreshWrites, "served", out);
  const htl::Status stopped = s->server->Shutdown();
  if (!stopped.ok()) out->Error(htl::StrCat("server shutdown: ", stopped.ToString()));
  CheckResponses(*s, requests, result.responses, config.seed, out);
}

}  // namespace perfbench
