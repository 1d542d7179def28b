#include "closed_loop.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/string_util.h"

namespace perfbench {

std::unique_ptr<Deployment> Deploy(const ClosedLoopSpec& spec, Samples* out) {
  auto d = std::make_unique<Deployment>();
  d->store = std::make_unique<MetadataStore>();
  spec.build(d->store.get());
  const double rss_corpus = RssMb();
  htl::QueryOptions options = spec.options;
  options.parallelism = 1;
  d->retriever = std::make_unique<htl::Retriever>(d->store.get(), options);
  double warm_s = 0;
  for (const PoolQuery& q : spec.pool) {
    htl::Result<htl::FormulaPtr> f = d->retriever->Prepare(q.text);
    if (!f.ok()) {
      out->Error(htl::StrCat("pool query '", q.text, "': ", f.status().ToString()));
      return d;
    }
    d->formulas.push_back(std::move(f).value());
    Answer a;
    double t0 = NowSeconds();
    RunQuery(*d->retriever, q, spec.level, spec.k, false, &a, out);
    const double first = NowSeconds() - t0;
    t0 = NowSeconds();
    RunQuery(*d->retriever, q, spec.level, spec.k, false, &a, out);
    warm_s += first - (NowSeconds() - t0);
  }
  out->layers["engine.warm_s"] = warm_s;
  out->layers["engine.derived_mb"] = RssMb() - rss_corpus;
  return d;
}

std::unique_ptr<Deployment> DeployRepeatedly(const ClosedLoopSpec& spec, int count,
                                             Samples* out) {
  for (int i = 1; i < count; ++i) {
    RecordSetUpInChild([&] {
      Samples scratch;
      Deploy(spec, &scratch);
      return scratch.errors.empty() && scratch.failed == 0;
    }, out);
  }
  const double t0 = NowSeconds();
  std::unique_ptr<Deployment> d = Deploy(spec, out);
  out->setup_s.push_back(NowSeconds() - t0);
  return d;
}

FreshTarget FreshTargetOf(const ClosedLoopSpec& spec, Deployment& d) {
  FreshTarget target;
  target.store = d.store.get();
  target.make_video = spec.fresh_video;
  target.query = [&spec, &d](const std::string& text, std::vector<htl::SegmentHit>* hits,
                             Samples* out) {
    const PoolQuery query{text.c_str(), false, 1};
    Answer a;
    if (!RunQuery(*d.retriever, query, spec.level, spec.k, false, &a, out)) return false;
    *hits = std::move(a.segments);
    return true;
  };
  return target;
}

std::vector<Answer> RunOps(const ClosedLoopSpec& spec, Deployment& d,
                           const std::vector<size_t>& ops, bool timed, LayerTotals* layers,
                           Samples* out) {
  std::vector<Answer> answers;
  answers.reserve(ops.size());
  for (const size_t i : ops) {
    Answer a;
    a.pool_index = i;
    a.num_videos = d.store->num_videos();
    ++out->attempted;
    double prepare_us = 0;
    const double t0 = NowSeconds();
    const bool ok = RunQuery(*d.retriever, spec.pool[i], spec.level, spec.k,
                             layers != nullptr, &a, out, &prepare_us);
    const double wall_s = NowSeconds() - t0;
    if (!ok) continue;
    if (timed) out->query_ms.push_back(wall_s * 1e3);
    if (layers != nullptr) {
      layers->Add(wall_s * 1e6, prepare_us, a.report, a.num_videos);
      a.report.profile = {};
    }
    answers.push_back(std::move(a));
  }
  return answers;
}

std::vector<size_t> DrawOps(const std::vector<PoolQuery>& pool, uint64_t seed,
                            int64_t count) {
  std::vector<double> weights;
  for (const PoolQuery& q : pool) weights.push_back(q.weight);
  return SeededMix(weights, count, seed);
}

void TraceReplay(const ClosedLoopSpec& spec, Deployment& d,
                 const std::vector<size_t>& all_ops, uint64_t seed, Samples* out) {
  // A one-worker replay runs slower than the timed run; a fixed prefix of
  // the seeded sequence keeps it short and its counts exact.
  const std::vector<size_t> ops(
      all_ops.begin(),
      all_ops.begin() + static_cast<std::ptrdiff_t>(std::min<size_t>(all_ops.size(), kTraceOps)));
  // Untraced first, on the same warm deployment, for trace.overhead.
  double t0 = NowSeconds();
  RunOps(spec, d, ops, false, nullptr, out);
  const double untraced_s = NowSeconds() - t0;

  htl::obs::MetricsRegistry& registry = htl::obs::MetricsRegistry::Instance();
  registry.ResetAll();
  registry.SetEnabled(true);
  LayerTotals totals;
  t0 = NowSeconds();
  const std::vector<Answer> answers = RunOps(spec, d, ops, false, &totals, out);
  const double traced_s = NowSeconds() - t0;
  registry.SetEnabled(false);
  out->layers["trace.overhead"] = untraced_s > 0 ? traced_s / untraced_s : 0;
  EmitClosedLoopLayers(totals, out);
  EmitRegistryLayers(totals.queries, out);

  const int64_t num_videos = d.store->num_videos();
  std::vector<MetadataStore::VideoId> sample;
  htl::Rng rng(seed ^ 0x5A5AULL);
  for (int i = 0; i < std::min<int64_t>(200, num_videos); ++i) {
    sample.push_back(num_videos <= 200 ? i + 1 : rng.UniformInt(1, num_videos));
  }
  std::vector<const htl::Formula*> segment_formulas;
  for (size_t i = 0; i < spec.pool.size(); ++i) {
    if (!spec.pool[i].video_query) segment_formulas.push_back(d.formulas[i].get());
  }
  EmitModuleLayers(*d.store, sample, segment_formulas, spec.level, spec.k, spec.options,
                   out->layers["engine.videos_evaluated"], out);
  CheckAnswers(*d.store, spec.pool, d.formulas, spec.level, spec.k, answers, spec.options,
               seed, 10, out);
}

}  // namespace perfbench
