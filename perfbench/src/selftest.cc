// Checker self-test: every checker the workloads use is fed a correct
// answer (which it must pass) and planted wrong ones (each of which it must
// reject). A checker that passes a planted fault is counted as a miss.

#include <cstdio>

#include "bench.h"
#include "engine/retrieval.h"
#include "util/string_util.h"
#include "workload/video_gen.h"

namespace perfbench {
namespace {

// Returns 1 (a miss) when `caught` is false, printing `plant`.
int Expect(bool caught, const char* plant) {
  std::printf("selftest plant %-44s %s\n", plant, caught ? "ok" : "MISSED");
  return caught ? 0 : 1;
}

}  // namespace

int PlantedFaultsMissed() {
  MetadataStore store;
  htl::CorpusGenOptions corpus;
  corpus.num_videos = 60;
  corpus.video.levels = 2;
  corpus.video.num_objects = 3;
  corpus.selective_fraction = 0.2;
  corpus.seed = 3;
  htl::GenerateCorpus(corpus, &store);
  const htl::QueryOptions options;
  htl::Retriever retriever(&store, options);
  const int64_t k = 5;
  const int level = 2;
  htl::Result<htl::FormulaPtr> f = retriever.Prepare("exists x (moving(x))");
  htl::Result<htl::SegmentRetrieval> r =
      f.ok() ? retriever.TopSegmentsWithReport(*f.value(), level, k)
             : htl::Result<htl::SegmentRetrieval>(f.status());
  if (!r.ok() || r.value().hits.size() < 3) {
    std::printf("selftest: no reference answer to plant faults in\n");
    return 1;
  }
  const std::vector<htl::SegmentHit> good = r.value().hits;
  const htl::Formula& formula = *f.value();
  // Enough seeded draws to visit every video of the small corpus.
  const int all_videos = 20 * static_cast<int>(store.num_videos());
  const auto by_reference = [&](const std::vector<htl::SegmentHit>& hits) {
    Samples s;
    htl::Rng rng(9);
    return CheckSegmentOrder(hits, k, "plant", &s) &&
           CheckSegmentsByReference(store, store.num_videos(), formula, level, k, hits,
                                    options, rng, static_cast<int>(hits.size()) * 4,
                                    all_videos, "plant", &s);
  };

  int missed = Expect(by_reference(good), "archive_topk: correct answer passes");

  std::vector<htl::SegmentHit> swapped = good;
  std::swap(swapped[0], swapped[2]);
  missed += Expect(!by_reference(swapped), "archive_topk: swapped hit order");

  std::vector<htl::SegmentHit> perturbed = good;
  perturbed.back().sim.actual *= 1 - 1e-6;
  missed += Expect(!by_reference(perturbed), "archive_topk: perturbed similarity");

  std::vector<htl::SegmentHit> dropped;
  for (const htl::SegmentHit& h : good) {
    if (h.video != good.front().video) dropped.push_back(h);
  }
  missed += Expect(!by_reference(dropped), "archive_topk: best video left out");

  // film_kernels: a per-video list with one entry perturbed.
  {
    const MetadataStore::VideoId v = good.front().video;
    htl::Result<htl::SimilarityList> list = retriever.EvaluateList(v, level, formula);
    Samples s;
    htl::Rng rng(5);
    const bool list_ok =
        list.ok() && CheckListByReference(store, v, level, formula, list.value(), options,
                                          rng, "plant", &s);
    missed += Expect(list_ok, "film_kernels: correct list passes");
    if (list.ok() && !list.value().entries().empty()) {
      std::vector<htl::SimEntry> entries = list.value().entries();
      entries.front().actual *= 1 - 1e-6;
      const htl::SimilarityList bad =
          htl::SimilarityList::FromEntriesOrDie(entries, list.value().max());
      htl::Rng rng2(5);
      missed += Expect(!CheckListByReference(store, v, level, formula, bad, options, rng2,
                                             "plant", &s),
                       "film_kernels: perturbed list entry");
    }
  }

  // served_mix: a wire answer decoded with two hits out of order.
  {
    std::vector<htl::VideoHit> videos;
    for (const htl::SegmentHit& h : good) videos.push_back({h.video, h.sim});
    std::swap(videos.front(), videos.back());
    Samples s;
    missed += Expect(!CheckVideoOrder(videos, k, "plant", &s),
                     "served_mix: swapped hit order");
  }

  // ingest_fresh: the written video left out of, or demoted in, its answer.
  {
    Samples s;
    const MetadataStore::VideoId written = good.front().video;
    missed += Expect(CheckFreshHit(good, written, "plant", &s),
                     "ingest_fresh: correct fresh answer passes");
    missed += Expect(!CheckFreshHit(dropped, written, "plant", &s),
                     "ingest_fresh: written video left out");
    std::vector<htl::SegmentHit> demoted = good;
    demoted.front().sim.actual *= 0.5;
    missed += Expect(!CheckFreshHit(demoted, written, "plant", &s),
                     "ingest_fresh: written video below full similarity");
  }
  return missed;
}

}  // namespace perfbench
