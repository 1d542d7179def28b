// film_kernels: a few dozen long, sparsely annotated videos queried at shot
// level with merge-heavy formulas, so picture queries and the VM's merge
// kernels dominate and per-video bookkeeping is negligible.

#include <algorithm>

#include "closed_loop.h"
#include "model/video_builder.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

constexpr uint64_t kCorpusSeed = 0xF11A;
constexpr int kShotLevel = 2;
constexpr int kObjects = 6;
const char* const kTypes[] = {"person", "train", "airplane", "horse"};

// Sparse meta-data: each object appears with probability 0.15, each fact
// over present objects with probability 0.3.
void Annotate(htl::Rng& rng, htl::SegmentMeta& meta) {
  meta.SetAttribute("duration", rng.UniformInt(1, 100));
  std::vector<htl::ObjectId> present;
  for (int o = 1; o <= kObjects; ++o) {
    if (!rng.Bernoulli(0.15)) continue;
    htl::ObjectAppearance obj;
    obj.id = o;
    obj.attributes["type"] = htl::AttrValue(kTypes[o % 4]);
    obj.attributes["height"] = htl::AttrValue(rng.UniformInt(1, 5));
    meta.AddObject(std::move(obj));
    present.push_back(o);
  }
  if (present.empty()) return;
  const auto any = [&] {
    return present[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(present.size()) - 1))];
  };
  for (const char* fact : {"moving", "armed"}) {
    if (rng.Bernoulli(0.3)) meta.AddFact({fact, {any()}});
  }
  for (const char* fact : {"fires_at", "close_up"}) {
    if (present.size() >= 2 && rng.Bernoulli(0.3)) meta.AddFact({fact, {any(), any()}});
  }
}

// Root, then `shots` shots of two frames each; shots and frames annotated.
htl::VideoTree LongVideo(htl::Rng& rng, int64_t shots, const std::string& marker) {
  htl::VideoBuilder b;
  b.Meta(b.root()).SetAttribute("title", "film");
  for (int64_t s = 0; s < shots; ++s) {
    const htl::VideoBuilder::Handle shot = b.AddChild(b.root());
    Annotate(rng, b.Meta(shot));
    if (s == 0 && !marker.empty()) {
      htl::ObjectAppearance mark;
      mark.id = kObjects + 1;
      mark.attributes["type"] = htl::AttrValue(marker);
      b.Meta(shot).AddObject(std::move(mark));
    }
    for (int f = 0; f < 2; ++f) Annotate(rng, b.Meta(b.AddChild(shot)));
  }
  b.NameLevel("shot", kShotLevel);
  b.NameLevel("frame", kShotLevel + 1);
  htl::Result<htl::VideoTree> video = std::move(b).Build();
  HTL_CHECK(video.ok()) << video.status().ToString();
  return std::move(video).value();
}

ClosedLoopSpec FilmSpec(bool quick) {
  ClosedLoopSpec spec;
  spec.pool = {
      {"(exists x (moving(x)) until exists y (armed(y))) until "
       "eventually exists z (type(z) = 'train')",
       false, 3},
      {"next (exists x (moving(x))) until "
       "(exists y (armed(y)) until exists p (present(p) and type(p) = 'horse'))",
       false, 4},
      {"exists x (present(x) and [h <- height(x)] "
       "eventually (present(x) and height(x) > h))",
       false, 2},
      {"exists x (moving(x)) and at-next-level(eventually exists y (armed(y)))", false,
       2},
      {"eventually (exists x, y (fires_at(x, y)) and next exists z (moving(z)))", false,
       2},
      {"(exists x (moving(x)) until exists y (armed(y))) or "
       "(next exists p (present(p)) until eventually exists z (type(z) = 'train'))",
       false, 1},
  };
  spec.level = kShotLevel;
  spec.k = 10;
  spec.options.prune = true;
  const int64_t videos = quick ? 4 : 24;
  const int64_t max_shots = quick ? 120 : 600;
  spec.build = [videos, max_shots](MetadataStore* store) {
    // Lengths spread evenly over [max/4, max].
    htl::Rng rng(kCorpusSeed);
    for (int64_t v = 0; v < videos; ++v) {
      const int64_t shots = max_shots / 4 + v * (max_shots - max_shots / 4) / (videos - 1);
      store->AddVideo(LongVideo(rng, shots, ""));
    }
  };
  spec.fresh_video = [max_shots](htl::Rng& rng, const std::string& marker) {
    return LongVideo(rng, max_shots / 2, marker);
  };
  return spec;
}

constexpr int kSetups = 5;
constexpr int kFreshWrites = 8;
constexpr int kCheckedLists = 3;

}  // namespace

void RunFilmKernels(const Config& config, Samples* out) {
  const ClosedLoopSpec spec = FilmSpec(config.quick);
  const std::vector<size_t> ops =
      DrawOps(spec.pool, config.seed, OpsFor(config, 333, 12));
  std::vector<Answer> answers;
  std::unique_ptr<Deployment> d;
  if (config.trace) {
    d = Deploy(spec, out);
    TraceReplay(spec, *d, ops, config.seed, out);
  } else {
    d = DeployRepeatedly(spec, kSetups, out);
    const double t0 = NowSeconds();
    answers = RunOps(spec, *d, ops, true, nullptr, out);
    out->measured_s = NowSeconds() - t0;
  }
  // Whole per-video similarity lists against the reference evaluator.
  htl::Rng rng(config.seed ^ 0x11157ULL);
  const int64_t num_videos = d->store->num_videos();
  for (int i = 0; i < kCheckedLists; ++i) {
    const size_t q = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(spec.pool.size()) - 1));
    const MetadataStore::VideoId v = rng.UniformInt(1, num_videos);
    htl::Result<htl::SimilarityList> list =
        d->retriever->EvaluateList(v, spec.level, *d->formulas[q]);
    if (!list.ok()) {
      out->Error(htl::StrCat("EvaluateList: ", list.status().ToString()));
      continue;
    }
    CheckListByReference(*d->store, v, spec.level, *d->formulas[q], list.value(),
                         spec.options, rng, htl::StrCat("list '", spec.pool[q].text, "'"),
                         out);
  }
  CheckAnswers(*d->store, spec.pool, d->formulas, spec.level, spec.k, answers,
               spec.options, config.seed, 4, out);
  FreshWrites(FreshTargetOf(spec, *d), config.seed, kFreshWrites, "film", out);
}

}  // namespace perfbench
