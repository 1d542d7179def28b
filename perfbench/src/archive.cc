// archive_topk and ingest_fresh: GenerateCorpus archives of small videos,
// about 5% of which carry the rare markers (a 'zeppelin' object with the
// rare_event fact on the first leaf).

#include <algorithm>
#include <iterator>

#include "closed_loop.h"
#include "obs/metrics.h"
#include "util/string_util.h"
#include "workload/video_gen.h"

namespace perfbench {
namespace {

constexpr uint64_t kCorpusSeed = 0xA5C41;
constexpr const char* kRareQuery = "exists x (type(x) = 'zeppelin' and rare_event(x))";

// Small videos: root plus 2-4 leaves (level 2, named "frame").
htl::CorpusGenOptions ArchiveCorpus(int64_t videos, uint64_t seed) {
  htl::CorpusGenOptions corpus;
  corpus.num_videos = videos;
  corpus.video.levels = 2;
  corpus.video.min_branching = 2;
  corpus.video.max_branching = 4;
  corpus.video.num_objects = 3;
  corpus.video.object_density = 0.3;
  corpus.selective_fraction = 0.05;
  corpus.seed = seed;
  return corpus;
}

// The archive spec over `videos` videos; `marked` receives the ids
// GenerateCorpus reports as carrying the rare markers.
ClosedLoopSpec ArchiveSpec(int64_t videos, std::vector<MetadataStore::VideoId>* marked) {
  ClosedLoopSpec spec;
  // Four classes, mostly selective: index 0 is the rare-marker query the
  // exact top-k check runs on.
  spec.pool = {
      {kRareQuery, false, 6},                                              // type (1)
      {"eventually exists x (type(x) = 'zeppelin' and rare_event(x))", false, 3},
      {"exists x (type(x) = 'zeppelin' and rare_event(x)) and "
       "eventually exists y (armed(y))",
       false, 3},                                                          // conjunctive
      {"at-next-level(eventually exists x (type(x) = 'zeppelin' and rare_event(x)))",
       true, 3},                                                           // extended
      {"exists x (type(x) = 'zeppelin' and rare_event(x)) and "
       "not exists y (armed(y))",
       false, 3},                                                          // general
      {"exists x (moving(x))", false, 1},                                  // broad
  };
  spec.level = 2;
  spec.k = 10;
  spec.options.prune = true;
  spec.build = [videos, marked](MetadataStore* store) {
    *marked = htl::GenerateCorpus(ArchiveCorpus(videos, kCorpusSeed), store);
  };
  const htl::VideoGenOptions shape = ArchiveCorpus(0, 0).video;
  spec.fresh_video = [shape](htl::Rng& rng, const std::string& marker) {
    return MarkedVideo(rng, shape, marker);
  };
  return spec;
}

// The rare-marker query's top k are exactly the k lowest-numbered marked
// videos, each on its first leaf at full similarity.
void CheckRareAnswers(const std::vector<Answer>& answers,
                      const std::vector<MetadataStore::VideoId>& marked, int64_t k,
                      Samples* out) {
  for (const Answer& a : answers) {
    if (a.pool_index != 0) continue;
    const size_t want = std::min<size_t>(static_cast<size_t>(k), marked.size());
    bool ok = a.segments.size() == want;
    for (size_t i = 0; ok && i < want; ++i) {
      const htl::SegmentHit& h = a.segments[i];
      ok = h.video == marked[i] && h.segment == 1 && h.sim.max > 0 &&
           h.sim.actual == h.sim.max;
    }
    if (!ok) {
      out->Error("rare-marker query: top k differ from the lowest-numbered marked videos");
      return;
    }
  }
}

constexpr int kSetups = 5;
// Sixteen, not eight: the median of eight writes (about 0.35 s each) spread
// by 32% between the quartiles of ten seeds.
constexpr int kFreshWrites = 16;

}  // namespace

void RunArchiveTopk(const Config& config, Samples* out) {
  std::vector<MetadataStore::VideoId> marked;
  const ClosedLoopSpec spec = ArchiveSpec(config.quick ? 400 : 10'000, &marked);
  const std::vector<size_t> ops =
      DrawOps(spec.pool, config.seed, OpsFor(config, 67, 20));
  std::vector<Answer> answers;
  std::unique_ptr<Deployment> d;
  if (config.trace) {
    d = Deploy(spec, out);
    TraceReplay(spec, *d, ops, config.seed, out);
    // Before the writes below, whose invalidation frees memory the new
    // formulas would reuse without growing RSS.
    EmitNewFormulaRss(*d->retriever, spec.level, config.quick ? 2 : 5, config.seed, out);
  } else {
    d = DeployRepeatedly(spec, kSetups, out);
    const double t0 = NowSeconds();
    answers = RunOps(spec, *d, ops, true, nullptr, out);
    out->measured_s = NowSeconds() - t0;
  }
  // Writes come after the timed queries, so they measure how long a write
  // takes to become visible at archive scale without perturbing the reads.
  FreshWrites(FreshTargetOf(spec, *d), config.seed, kFreshWrites, "fresh", out);
  CheckRareAnswers(answers, marked, spec.k, out);
  CheckAnswers(*d->store, spec.pool, d->formulas, spec.level, spec.k, answers,
               spec.options, config.seed, 10, out);
}

void RunIngestFresh(const Config& config, Samples* out) {
  std::vector<MetadataStore::VideoId> marked;
  // Half the archive: every write makes the next reads rebuild derived
  // state for the whole corpus, and a run must still fit 1000 reads.
  ClosedLoopSpec spec = ArchiveSpec(config.quick ? 400 : 5'000, &marked);
  // The reads between writes: selective, conjunctive, whole-video, broad.
  spec.pool = {spec.pool[0], spec.pool[2], spec.pool[3], spec.pool[5]};
  // One write per kWriteEvery operations, each followed by the query for
  // its own marker; the ordinary queries in between are the timed reads.
  constexpr int64_t kWriteEvery = 60;
  const int64_t count = OpsFor(config, 70, 2 * kWriteEvery);
  const std::vector<size_t> ops = DrawOps(spec.pool, config.seed, count);
  std::vector<Answer> answers;
  LayerTotals totals;
  htl::obs::MetricsRegistry& registry = htl::obs::MetricsRegistry::Instance();
  // Runs the whole schedule on `d`; returns its wall time.
  const auto schedule = [&](Deployment& d, bool timed, LayerTotals* layers) {
    answers.clear();
    int64_t writes = 0;
    const double t0 = NowSeconds();
    for (int64_t begin = 0; begin < count; begin += kWriteEvery) {
      const int64_t end = std::min(count, begin + kWriteEvery);
      const std::vector<size_t> chunk(ops.begin() + begin, ops.begin() + end);
      std::vector<Answer> part = RunOps(spec, d, chunk, timed, layers, out);
      std::move(part.begin(), part.end(), std::back_inserter(answers));
      if (end - begin == kWriteEvery) {
        // The registry stays off during traced writes: the marker query must
        // evaluate every video (the newest one blocks pruning), and its
        // counts would be charged to the reads.
        if (layers != nullptr) registry.SetEnabled(false);
        FreshWrites(FreshTargetOf(spec, d), config.seed ^ static_cast<uint64_t>(writes), 1,
                    htl::StrCat("ingest", writes), out);
        if (layers != nullptr) registry.SetEnabled(true);
        ++writes;
      }
    }
    return NowSeconds() - t0;
  };
  std::unique_ptr<Deployment> d;
  if (config.trace) {
    // Writes change the store, so the untraced pass for trace.overhead runs
    // on a deployment of its own.
    d = Deploy(spec, out);
    const double untraced_s = schedule(*d, false, nullptr);
    d.reset();
    d = Deploy(spec, out);
    registry.ResetAll();
    registry.SetEnabled(true);
    const double traced_s = schedule(*d, false, &totals);
    registry.SetEnabled(false);
    out->layers["trace.overhead"] = traced_s / untraced_s;
    EmitClosedLoopLayers(totals, out);
    EmitRegistryLayers(totals.queries, out);
    std::vector<const htl::Formula*> segment_formulas;
    for (size_t i = 0; i < spec.pool.size(); ++i) {
      if (!spec.pool[i].video_query) segment_formulas.push_back(d->formulas[i].get());
    }
    std::vector<MetadataStore::VideoId> sample;
    htl::Rng rng(config.seed ^ 0x5A5AULL);
    for (int i = 0; i < 200; ++i) sample.push_back(rng.UniformInt(1, d->store->num_videos()));
    EmitModuleLayers(*d->store, sample, segment_formulas, spec.level, spec.k, spec.options,
                     out->layers["engine.videos_evaluated"], out);
  } else {
    d = DeployRepeatedly(spec, kSetups, out);
    out->measured_s = schedule(*d, true, nullptr);
  }
  CheckRareAnswers(answers, marked, spec.k, out);
  CheckAnswers(*d->store, spec.pool, d->formulas, spec.level, spec.k, answers,
               spec.options, config.seed, 10, out);
}

}  // namespace perfbench
