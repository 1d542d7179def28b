#include "bench.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sys/wait.h>
#include <unistd.h>

#include "engine/direct_engine.h"
#include "engine/reference_engine.h"
#include "htl/bound.h"
#include "model/video_stats.h"
#include "obs/metrics.h"
#include "picture/constraint_eval.h"
#include "picture/picture_system.h"
#include "sim/topk.h"
#include "util/string_util.h"
#include "vm/compiler.h"
#include "workload/formula_gen.h"

namespace perfbench {

using htl::Formula;
using htl::FormulaPtr;
using htl::QueryOptions;
using htl::Rng;
using htl::SegmentHit;
using htl::Sim;
using htl::SimilarityList;
using htl::VideoHit;

void Samples::Error(std::string message) {
  // The first few findings are enough to debug; the count says the rest.
  if (errors.size() < 8) std::fprintf(stderr, "check failed: %s\n", message.c_str());
  errors.push_back(std::move(message));
}

int64_t OpsFor(const Config& config, double per_second, int64_t quick_ops) {
  if (config.quick) return quick_ops;
  return std::max<int64_t>(1, std::llround(per_second * config.seconds));
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

namespace {

double StatusKb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr);
    }
  }
  return 0;
}

std::string HitText(const SegmentHit& h) {
  return htl::StrCat("video ", h.video, " segment ", h.segment, " (", h.sim.actual,
                     "/", h.sim.max, ")");
}

bool Near(double a, double b) { return std::fabs(a - b) <= kSimTolerance; }

// True when (fa, va, sa) ranks strictly ahead of (fb, vb, sb) beyond the
// tolerance: fraction descending, then video, then segment ascending.
bool RanksAhead(double fa, int64_t va, int64_t sa, double fb, int64_t vb, int64_t sb) {
  if (fa > fb + kSimTolerance) return true;
  if (fa < fb - kSimTolerance) return false;
  if (va != vb) return va < vb;
  return sa < sb;
}

// The reference evaluator is polynomial of high degree in the sequence
// length on nested temporal formulas, so sequences longer than this are
// checked at seeded positions instead of whole.
constexpr int64_t kFullListSegments = 64;
constexpr int kSampledPositions = 12;

// Reference values of `f` on `video` at `level`: every position of short
// sequences, kSampledPositions seeded positions of long ones.
htl::Status ReferenceValues(const htl::VideoTree& video, int level, const Formula& f,
                            const QueryOptions& options, Rng& rng,
                            std::vector<std::pair<htl::SegmentId, Sim>>* values) {
  values->clear();
  htl::ReferenceEngine ref(&video, options);
  const int64_t n = video.NumSegments(level);
  if (n <= kFullListSegments) {
    HTL_ASSIGN_OR_RETURN(SimilarityList list, ref.EvaluateList(level, f));
    for (htl::SegmentId id = 1; id <= n; ++id) values->push_back({id, list.ValueAt(id)});
    return htl::Status::OK();
  }
  for (int i = 0; i < kSampledPositions; ++i) {
    const htl::SegmentId id = rng.UniformInt(1, n);
    HTL_ASSIGN_OR_RETURN(Sim sim, ref.Evaluate(level, htl::Interval{1, n}, id, f,
                                               htl::EvalEnv{}));
    values->push_back({id, sim});
  }
  return htl::Status::OK();
}

std::vector<MetadataStore::VideoId> SampleVideos(Rng& rng, int64_t num_videos,
                                                 int count) {
  std::vector<MetadataStore::VideoId> out;
  for (int i = 0; i < count && num_videos > 0; ++i) {
    out.push_back(rng.UniformInt(1, num_videos));
  }
  return out;
}

}  // namespace

void RecordSetUpInChild(const std::function<bool()>& setup, Samples* out) {
  int fds[2];
  if (pipe(fds) != 0) {
    out->Error("pipe() failed");
    return;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    const double t0 = NowSeconds();
    double elapsed = setup() ? NowSeconds() - t0 : -1;
    const bool written = write(fds[1], &elapsed, sizeof(elapsed)) == sizeof(elapsed);
    _exit(written ? 0 : 1);
  }
  close(fds[1]);
  double elapsed = -1;
  const bool got = pid > 0 && read(fds[0], &elapsed, sizeof(elapsed)) == sizeof(elapsed);
  close(fds[0]);
  int status = 0;
  if (pid > 0) waitpid(pid, &status, 0);
  if (!got || elapsed < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    out->Error("set-up in a child process failed");
    return;
  }
  out->setup_s.push_back(elapsed);
}

double RssMb() { return StatusKb("VmRSS") / 1024.0; }
double PeakRssMb() { return StatusKb("VmHWM") / 1024.0; }

bool CheckSegmentOrder(const std::vector<SegmentHit>& hits, int64_t k,
                       const std::string& what, Samples* out) {
  if (static_cast<int64_t>(hits.size()) > k) {
    out->Error(htl::StrCat(what, ": ", hits.size(), " hits for k=", k));
    return false;
  }
  for (size_t i = 0; i < hits.size(); ++i) {
    const SegmentHit& h = hits[i];
    if (!(h.sim.actual >= 0 && h.sim.actual <= h.sim.max)) {
      out->Error(htl::StrCat(what, ": out of range ", HitText(h)));
      return false;
    }
    if (i == 0) continue;
    const SegmentHit& p = hits[i - 1];
    const bool ordered =
        p.sim.fraction() > h.sim.fraction() ||
        (p.sim.fraction() == h.sim.fraction() &&
         (p.video < h.video || (p.video == h.video && p.segment < h.segment)));
    if (!ordered) {
      out->Error(htl::StrCat(what, ": ", HitText(p), " before ", HitText(h)));
      return false;
    }
  }
  return true;
}

bool CheckVideoOrder(const std::vector<VideoHit>& hits, int64_t k,
                     const std::string& what, Samples* out) {
  std::vector<SegmentHit> as_segments;
  for (const VideoHit& h : hits) as_segments.push_back(SegmentHit{h.video, 1, h.sim});
  return CheckSegmentOrder(as_segments, k, what, out);
}

bool CheckSegmentsByReference(const MetadataStore& store, int64_t num_videos,
                              const Formula& f, int level, int64_t k,
                              const std::vector<SegmentHit>& hits,
                              const QueryOptions& options, Rng& rng, int sample_hits,
                              int sample_others, const std::string& what,
                              Samples* out) {
  for (int i = 0; i < sample_hits && !hits.empty(); ++i) {
    const SegmentHit& h =
        hits[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(hits.size()) - 1))];
    const htl::VideoTree& video = store.Video(h.video);
    htl::ReferenceEngine ref(&video, options);
    htl::Result<Sim> want = ref.Evaluate(level, htl::Interval{1, video.NumSegments(level)},
                                         h.segment, f, htl::EvalEnv{});
    if (!want.ok()) {
      out->Error(htl::StrCat(what, ": reference failed: ", want.status().ToString()));
      return false;
    }
    if (!Near(want.value().actual, h.sim.actual) || !Near(want.value().max, h.sim.max)) {
      out->Error(htl::StrCat(what, ": ", HitText(h), " but the reference gives ",
                             want.value().actual, "/", want.value().max));
      return false;
    }
  }
  std::set<MetadataStore::VideoId> returned;
  for (const SegmentHit& h : hits) returned.insert(h.video);
  std::vector<std::pair<htl::SegmentId, Sim>> values;
  for (MetadataStore::VideoId v : SampleVideos(rng, num_videos, sample_others)) {
    if (returned.count(v) != 0) continue;
    const htl::Status status = ReferenceValues(store.Video(v), level, f, options, rng, &values);
    if (!status.ok()) {
      out->Error(htl::StrCat(what, ": reference failed: ", status.ToString()));
      return false;
    }
    for (const auto& [segment, sim] : values) {
      const double fraction = sim.fraction();
      if (fraction <= 0) continue;
      const bool missing =
          static_cast<int64_t>(hits.size()) < k ||
          RanksAhead(fraction, v, segment, hits.back().sim.fraction(), hits.back().video,
                     hits.back().segment);
      if (missing) {
        out->Error(htl::StrCat(what, ": video ", v, " segment ", segment, " at ",
                               fraction, " was left out"));
        return false;
      }
    }
  }
  return true;
}

bool CheckVideosByReference(const MetadataStore& store, int64_t num_videos,
                            const Formula& f, int64_t k, const std::vector<VideoHit>& hits,
                            const QueryOptions& options, Rng& rng, int sample_hits,
                            int sample_others, const std::string& what, Samples* out) {
  for (int i = 0; i < sample_hits && !hits.empty(); ++i) {
    const VideoHit& h =
        hits[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(hits.size()) - 1))];
    htl::ReferenceEngine ref(&store.Video(h.video), options);
    htl::Result<Sim> want = ref.EvaluateVideo(f);
    if (!want.ok() || !Near(want.value().actual, h.sim.actual) ||
        !Near(want.value().max, h.sim.max)) {
      out->Error(htl::StrCat(what, ": video ", h.video, " at ", h.sim.actual, "/",
                             h.sim.max, " disagrees with the reference"));
      return false;
    }
  }
  std::set<MetadataStore::VideoId> returned;
  for (const VideoHit& h : hits) returned.insert(h.video);
  for (MetadataStore::VideoId v : SampleVideos(rng, num_videos, sample_others)) {
    if (returned.count(v) != 0) continue;
    htl::ReferenceEngine ref(&store.Video(v), options);
    htl::Result<Sim> got = ref.EvaluateVideo(f);
    if (!got.ok()) {
      out->Error(htl::StrCat(what, ": reference failed: ", got.status().ToString()));
      return false;
    }
    const double fraction = got.value().fraction();
    if (fraction <= 0) continue;
    const bool missing = static_cast<int64_t>(hits.size()) < k ||
                         RanksAhead(fraction, v, 1, hits.back().sim.fraction(),
                                    hits.back().video, 1);
    if (missing) {
      out->Error(htl::StrCat(what, ": video ", v, " at ", fraction, " was left out"));
      return false;
    }
  }
  return true;
}

bool CheckListByReference(const MetadataStore& store, MetadataStore::VideoId video,
                          int level, const Formula& f, const SimilarityList& got,
                          const QueryOptions& options, Rng& rng, const std::string& what,
                          Samples* out) {
  std::vector<std::pair<htl::SegmentId, Sim>> values;
  const htl::Status status = ReferenceValues(store.Video(video), level, f, options, rng,
                                             &values);
  if (!status.ok()) {
    out->Error(htl::StrCat(what, ": reference failed: ", status.ToString()));
    return false;
  }
  for (const auto& [segment, want] : values) {
    const Sim have = got.ValueAt(segment);
    if (!Near(have.actual, want.actual) || !Near(have.max, want.max)) {
      out->Error(htl::StrCat(what, ": video ", video, " segment ", segment, " is ",
                             have.actual, "/", have.max, ", the reference gives ",
                             want.actual, "/", want.max));
      return false;
    }
  }
  return true;
}

bool CheckFreshHit(const std::vector<SegmentHit>& hits, MetadataStore::VideoId video,
                   const std::string& what, Samples* out) {
  if (hits.empty() || hits.front().video != video ||
      hits.front().sim.actual != hits.front().sim.max || hits.front().sim.max <= 0) {
    out->Error(htl::StrCat(what, ": written video ", video,
                           " is not the first hit at full similarity"));
    return false;
  }
  return true;
}

htl::VideoTree MarkedVideo(Rng& rng, const htl::VideoGenOptions& shape,
                           const std::string& marker) {
  htl::VideoTree video = htl::GenerateVideo(rng, shape);
  htl::ObjectAppearance mark;
  mark.id = shape.num_objects + 2;
  mark.attributes["type"] = htl::AttrValue(marker);
  video.MutableMeta(video.num_levels(), 1).AddObject(std::move(mark));
  return video;
}

void FreshWrites(const FreshTarget& target, uint64_t seed, int count,
                 const std::string& prefix, Samples* out) {
  Rng rng(seed ^ 0xF5ULL);
  for (int i = 0; i < count; ++i) {
    const std::string marker = htl::StrCat(prefix, "_", i);
    htl::VideoTree video = target.make_video(rng, marker);
    const std::string text = htl::StrCat("exists x (type(x) = '", marker, "')");
    if (target.before_write) target.before_write();
    ++out->attempted;
    const double t0 = NowSeconds();
    const MetadataStore::VideoId id = target.store->AddVideo(std::move(video));
    const double t1 = NowSeconds();
    std::vector<SegmentHit> hits;
    const bool ok = target.query(text, &hits, out);
    const double t2 = NowSeconds();
    if (!ok) continue;
    out->add_video_us.push_back((t1 - t0) * 1e6);
    out->fresh_ms.push_back((t2 - t0) * 1e3);
    CheckFreshHit(hits, id, htl::StrCat("fresh write '", marker, "'"), out);
  }
}

std::vector<size_t> SeededMix(const std::vector<double>& weights, int64_t count,
                              uint64_t seed) {
  double total = 0;
  for (double w : weights) total += w;
  std::vector<int64_t> counts;
  std::vector<std::pair<double, size_t>> remainders;
  int64_t assigned = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double exact = static_cast<double>(count) * weights[i] / total;
    counts.push_back(static_cast<int64_t>(std::floor(exact)));
    assigned += counts.back();
    remainders.push_back({exact - std::floor(exact), i});
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t i = 0; assigned < count; ++i, ++assigned) ++counts[remainders[i].second];
  std::vector<size_t> out;
  for (size_t i = 0; i < counts.size(); ++i) out.insert(out.end(), static_cast<size_t>(counts[i]), i);
  Rng rng(seed);
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
  }
  return out;
}

bool RunQuery(htl::Retriever& retriever, const PoolQuery& q, int level, int64_t k,
              bool profiled, Answer* answer, Samples* out, double* prepare_us) {
  const double t0 = NowSeconds();
  htl::Result<FormulaPtr> f = retriever.Prepare(q.text);
  if (prepare_us != nullptr) *prepare_us = (NowSeconds() - t0) * 1e6;
  if (!f.ok()) {
    ++out->failed;
    std::fprintf(stderr, "prepare '%s' failed: %s\n", q.text,
                 f.status().ToString().c_str());
    return false;
  }
  answer->segments.clear();
  answer->videos.clear();
  htl::Status status;
  if (q.video_query) {
    htl::Result<htl::VideoRetrieval> r =
        profiled ? retriever.TopVideosProfiled(*f.value(), k)
                 : retriever.TopVideosWithReport(*f.value(), k);
    status = r.status();
    if (r.ok()) {
      answer->videos = std::move(r.value().hits);
      answer->report = std::move(r.value().report);
    }
  } else {
    htl::Result<htl::SegmentRetrieval> r =
        profiled ? retriever.TopSegmentsProfiled(*f.value(), level, k)
                 : retriever.TopSegmentsWithReport(*f.value(), level, k);
    status = r.status();
    if (r.ok()) {
      answer->segments = std::move(r.value().hits);
      answer->report = std::move(r.value().report);
    }
  }
  if (!status.ok() || !answer->report.complete()) {
    ++out->failed;
    std::fprintf(stderr, "query '%s' failed: %s\n", q.text,
                 status.ok() ? answer->report.ToString().c_str()
                             : status.ToString().c_str());
    return false;
  }
  // The pruned-video list is sized by the corpus; the checkers need only
  // the counts.
  answer->report.pruned_videos.clear();
  answer->report.pruned_videos.shrink_to_fit();
  return true;
}

void CheckAnswers(const MetadataStore& store, const std::vector<PoolQuery>& pool,
                  const std::vector<FormulaPtr>& formulas, int level, int64_t k,
                  const std::vector<Answer>& answers, const QueryOptions& options,
                  uint64_t seed, int sampled_answers, Samples* out) {
  for (size_t i = 0; i < answers.size(); ++i) {
    const Answer& a = answers[i];
    const std::string what = htl::StrCat("answer ", i, " '", pool[a.pool_index].text, "'");
    const bool ok = pool[a.pool_index].video_query
                        ? CheckVideoOrder(a.videos, k, what, out)
                        : CheckSegmentOrder(a.segments, k, what, out);
    if (!ok) return;
  }
  Rng rng(seed ^ 0xC0FFEEULL);
  for (int n = 0; n < sampled_answers && !answers.empty(); ++n) {
    const size_t i = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(answers.size()) - 1));
    const Answer& a = answers[i];
    const Formula& f = *formulas[a.pool_index];
    const std::string what = htl::StrCat("answer ", i, " '", pool[a.pool_index].text, "'");
    const bool ok =
        pool[a.pool_index].video_query
            ? CheckVideosByReference(store, a.num_videos, f, k, a.videos, options, rng,
                                     2, 3, what, out)
            : CheckSegmentsByReference(store, a.num_videos, f, level, k, a.segments,
                                       options, rng, 2, 3, what, out);
    if (!ok) return;
  }
}

// --- Per-layer trace ------------------------------------------------------

namespace {

struct SpanSums {
  double video_ns = 0;
  double picture_ns = 0;
  double kernel_ns = 0;
};

void Walk(const htl::obs::QueryProfile::Node& node, SpanSums* sums) {
  int64_t children_ns = 0;
  for (const auto& c : node.children) {
    children_ns += c.nanos;
    Walk(c, sums);
  }
  const double self = static_cast<double>(node.nanos - children_ns);
  if (node.name == "video") {
    sums->video_ns += static_cast<double>(node.nanos);
  } else if (node.name == "op.picture_query" || node.name == "op.value_table") {
    sums->picture_ns += self;
  } else if (node.name.rfind("op.", 0) == 0) {
    sums->kernel_ns += self;
  }
}

}  // namespace

void LayerTotals::Add(double wall_us, double prepare, const htl::RetrievalReport& report,
                      int64_t num_videos) {
  ++queries;
  query_us += wall_us;
  prepare_us += prepare;
  SpanSums sums;
  for (const auto& root : report.profile.roots) {
    if (root.name == "stage.execute") execute_us += static_cast<double>(root.nanos) / 1e3;
    Walk(root, &sums);
  }
  video_us += sums.video_ns / 1e3;
  picture_us += sums.picture_ns / 1e3;
  kernel_us += sums.kernel_ns / 1e3;
  videos_evaluated += report.videos_evaluated;
  videos_pruned += report.videos_pruned;
  videos_total += num_videos;
}

void EmitClosedLoopLayers(const LayerTotals& t, Samples* out) {
  if (t.queries == 0) return;
  const double n = static_cast<double>(t.queries);
  auto& L = out->layers;
  L["trace.query_us"] = t.query_us / n;
  L["htl.prepare_us"] = t.prepare_us / n;
  L["engine.execute_ms"] = t.execute_us / n / 1e3;
  L["engine.videos_evaluated"] = static_cast<double>(t.videos_evaluated) / n;
  L["engine.videos_pruned"] = static_cast<double>(t.videos_pruned) / n;
  L["engine.pruned_fraction"] =
      t.videos_total > 0
          ? static_cast<double>(t.videos_pruned) / static_cast<double>(t.videos_total)
          : 0;
  L["engine.per_video_us"] =
      t.videos_evaluated > 0 ? t.execute_us / static_cast<double>(t.videos_evaluated) : 0;
  L["picture.query_us"] = t.picture_us / n;
  L["sim.kernel_us"] = t.kernel_us / n;
  L["engine.video_self_us"] = (t.video_us - t.picture_us - t.kernel_us) / n;
  L["engine.unattributed_us"] = (t.execute_us - t.video_us) / n;
  // Everything the wall clock saw outside Prepare and stage.execute:
  // classification, the profiled entry point's own plumbing.
  const double remainder = (t.query_us - t.prepare_us - t.execute_us) / n;
  L["trace.remainder_us"] = remainder;
  L["trace.remainder_share"] = t.query_us > 0 ? remainder * n / t.query_us : 0;
}

void EmitRegistryLayers(int64_t queries, Samples* out) {
  const htl::obs::MetricsSnapshot snap = htl::obs::MetricsRegistry::Instance().Snapshot();
  std::map<std::string, int64_t> c;
  for (const auto& row : snap.counters) c[row.name] = row.value;
  int64_t entries_in = 0;
  for (const auto& [name, value] : c) {
    if (name.rfind("sim.", 0) == 0 && name.size() > 10 &&
        name.compare(name.size() - 10, 10, "entries_in") == 0) {
      entries_in += value;
    }
  }
  const double n = static_cast<double>(std::max<int64_t>(1, queries));
  auto& L = out->layers;
  L["picture.queries"] = static_cast<double>(c["picture.queries"]) / n;
  L["sim.entries_in"] = static_cast<double>(entries_in) / n;
  for (const char* cache : {"result", "simlist"}) {
    const std::string p = htl::StrCat("cache.", cache, ".");
    const int64_t hits = c[p + "hits"];
    const int64_t lookups = hits + c[p + "misses"] + c[p + "stale"];
    L[htl::StrCat("cache.", cache, "_hit_ratio")] =
        lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0;
  }
}

void EmitModuleLayers(const MetadataStore& store,
                      const std::vector<MetadataStore::VideoId>& sample,
                      const std::vector<const Formula*>& formulas, int level, int64_t k,
                      const QueryOptions& options, double videos_evaluated_per_query,
                      Samples* out) {
  double stats_s = 0, index_s = 0, bound_s = 0, topk_s = 0;
  int64_t bounds = 0, topks = 0;
  for (MetadataStore::VideoId v : sample) {
    const htl::VideoTree& video = store.Video(v);
    double t0 = NowSeconds();
    const htl::VideoStats stats = htl::VideoStats::Build(video);
    stats_s += NowSeconds() - t0;
    t0 = NowSeconds();
    {
      htl::PictureSystem pictures(&video, options.picture);
      (void)pictures.Index(level);
    }
    index_s += NowSeconds() - t0;
    t0 = NowSeconds();
    for (const Formula* f : formulas) {
      (void)htl::UpperBoundFraction(*f, video, stats, level);
      ++bounds;
    }
    bound_s += NowSeconds() - t0;
    htl::DirectEngine engine(&video, options);
    for (const Formula* f : formulas) {
      htl::Result<SimilarityList> list = engine.EvaluateList(level, *f);
      if (!list.ok()) continue;
      t0 = NowSeconds();
      (void)htl::TopKSegments(list.value(), k);
      topk_s += NowSeconds() - t0;
      ++topks;
    }
  }
  double compile_s = 0;
  int64_t compiles = 0;
  for (const Formula* f : formulas) {
    const double t0 = NowSeconds();
    htl::Result<htl::vm::Program> p = htl::vm::Compile(*f, options);
    compile_s += NowSeconds() - t0;
    if (p.ok()) ++compiles;
  }
  const double n = static_cast<double>(std::max<size_t>(1, sample.size()));
  auto& L = out->layers;
  L["model.stats_build_us"] = stats_s / n * 1e6;
  L["picture.index_build_us"] = index_s / n * 1e6;
  L["htl.bound_us"] = bounds > 0 ? bound_s / static_cast<double>(bounds) * 1e6 : 0;
  L["vm.compile_us"] = compiles > 0 ? compile_s / static_cast<double>(compiles) * 1e6 : 0;
  L["sim.topk_us"] = topks > 0 ? topk_s / static_cast<double>(topks) * 1e6 *
                                     videos_evaluated_per_query
                               : 0;
}

void EmitNewFormulaRss(htl::Retriever& retriever, int level, int count, uint64_t seed,
                       Samples* out) {
  Rng rng(seed ^ 0xF0F0ULL);
  htl::FormulaGenOptions gen;
  gen.max_depth = 3;
  const double before = RssMb();
  for (int i = 0; i < count; ++i) {
    const FormulaPtr f = htl::GenerateFormula(rng, gen);
    htl::Result<htl::SegmentRetrieval> r = retriever.TopSegmentsWithReport(*f, level, 10);
    if (!r.ok()) out->Error(htl::StrCat("generated formula: ", r.status().ToString()));
  }
  out->layers["engine.rss_per_new_formula_mb"] = (RssMb() - before) / count;
}

const std::vector<LayerMetric>& LayerMetrics() {
  static const std::vector<LayerMetric> kAll = {
      {"htl.prepare_us", "us"},
      {"vm.compile_us", "us"},
      {"htl.bound_us", "us"},
      {"model.stats_build_us", "us"},
      {"model.add_video_us", "us"},
      {"picture.index_build_us", "us"},
      {"engine.execute_ms", "ms"},
      {"engine.videos_evaluated", "count"},
      {"engine.videos_pruned", "count"},
      {"engine.pruned_fraction", "ratio"},
      {"engine.per_video_us", "us"},
      {"engine.unattributed_us", "us"},
      {"engine.video_self_us", "us"},
      {"engine.warm_s", "s"},
      {"engine.derived_mb", "MiB"},
      {"engine.rss_per_new_formula_mb", "MiB"},
      {"picture.queries", "count"},
      {"picture.query_us", "us"},
      {"sim.entries_in", "count"},
      {"sim.kernel_us", "us"},
      {"sim.topk_us", "us"},
      {"cache.result_hit_ratio", "ratio"},
      {"cache.simlist_hit_ratio", "ratio"},
      {"net.decode_us", "us"},
      {"net.execute_us", "us"},
      {"net.encode_us", "us"},
      {"net.server_other_us", "us"},
      {"pool.task_wait_us_p50", "us"},
      {"pool.task_wait_us_p99", "us"},
      {"net.outside_server_us", "us"},
      {"gen.late_p99_ms", "ms"},
      {"trace.query_us", "us"},
      {"trace.remainder_us", "us"},
      {"trace.remainder_share", "ratio"},
      {"trace.overhead", "ratio"},
  };
  return kAll;
}

}  // namespace perfbench
