// Shared plumbing of the repository benchmark: run configuration, the
// per-run sample sink every workload fills, the output checkers, and the
// per-layer trace accumulator. See perfbench/README.md for what each
// workload measures and why.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "engine/query_options.h"
#include "engine/retrieval.h"
#include "htl/ast.h"
#include "model/video.h"
#include "obs/profile.h"
#include "util/rng.h"
#include "workload/video_gen.h"

namespace perfbench {

using htl::MetadataStore;

/// Command-line configuration of one run.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Tiny sizes, used by the checker self-test.
  bool quick = false;
};

/// Operation count of a run: `per_second` operations per requested second.
/// The count — never the elapsed time — ends the run, so every run with the
/// same arguments does the same work and reaches the same peak memory.
int64_t OpsFor(const Config& config, double per_second, int64_t quick_ops);

/// Everything one run measured.
struct Samples {
  std::vector<double> query_ms;  // One per timed query or request.
  std::vector<double> fresh_ms;  // AddVideo call to a ranked hit on it.
  std::vector<double> add_video_us;  // The AddVideo call alone.
  std::vector<double> setup_s;   // One per repeated set-up.
  double measured_s = 0;         // Wall time of the timed query phase.
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Checker findings; any entry makes the run incorrect.
  std::vector<std::string> errors;
  /// Per-layer metrics (traced runs only), by name.
  std::map<std::string, double> layers;

  void Error(std::string message);
};

// --- Measurement helpers -------------------------------------------------

/// Seconds on the steady clock since an arbitrary epoch.
double NowSeconds();

/// Linear-interpolated percentile (q in [0, 100]) of `values`.
double Percentile(std::vector<double> values, double q);

/// Times `setup` in a forked child process and appends its wall time to
/// `out->setup_s`; records an error when it fails or the child dies. Call
/// only while this process runs no other thread.
void RecordSetUpInChild(const std::function<bool()>& setup, Samples* out);

/// Current and peak resident set size of this process, in MiB.
double RssMb();
double PeakRssMb();

// --- Checkers ------------------------------------------------------------
//
// Each checker compares an answer with a computation made apart from the
// retrieval path (ReferenceEngine) or with a property the method must have.
// They return false and record an error in `out` on the first mismatch.

/// Values within this distance are equal: the direct and reference engines
/// sum the same weights in different orders.
inline constexpr double kSimTolerance = 1e-9;

/// Hits are ordered by fraction (descending), then video, then segment id
/// (ascending), with 0 <= actual <= max, and at most `k` of them.
bool CheckSegmentOrder(const std::vector<htl::SegmentHit>& hits, int64_t k,
                       const std::string& what, Samples* out);
bool CheckVideoOrder(const std::vector<htl::VideoHit>& hits, int64_t k,
                     const std::string& what, Samples* out);

/// ReferenceEngine re-evaluates `sample_hits` seeded hits and finds their
/// values, and `sample_others` seeded videos among the first `num_videos`
/// that were not returned and finds none of them ranks above the k-th hit:
/// on every segment of short sequences, on seeded segments of long ones
/// (the reference evaluator's cost grows steeply with sequence length).
bool CheckSegmentsByReference(const MetadataStore& store, int64_t num_videos,
                              const htl::Formula& f, int level, int64_t k,
                              const std::vector<htl::SegmentHit>& hits,
                              const htl::QueryOptions& options, htl::Rng& rng,
                              int sample_hits, int sample_others,
                              const std::string& what, Samples* out);
bool CheckVideosByReference(const MetadataStore& store, int64_t num_videos,
                            const htl::Formula& f, int64_t k,
                            const std::vector<htl::VideoHit>& hits,
                            const htl::QueryOptions& options, htl::Rng& rng,
                            int sample_hits, int sample_others,
                            const std::string& what, Samples* out);

/// `got` equals the ReferenceEngine's values: on every segment of short
/// sequences, on seeded segments of long ones.
bool CheckListByReference(const MetadataStore& store, MetadataStore::VideoId video,
                          int level, const htl::Formula& f,
                          const htl::SimilarityList& got,
                          const htl::QueryOptions& options, htl::Rng& rng,
                          const std::string& what, Samples* out);

/// The written video `video` is the first hit, at full similarity.
bool CheckFreshHit(const std::vector<htl::SegmentHit>& hits,
                   MetadataStore::VideoId video, const std::string& what,
                   Samples* out);

// --- Fresh writes --------------------------------------------------------

/// A generated video of `shape` that also carries one object of type
/// `marker` on its first leaf.
htl::VideoTree MarkedVideo(htl::Rng& rng, const htl::VideoGenOptions& shape,
                           const std::string& marker);

/// Where FreshWrites appends its videos and how it asks for them.
struct FreshTarget {
  MetadataStore* store = nullptr;
  /// A new video carrying the object type `marker`, which no other video has.
  std::function<htl::VideoTree(htl::Rng&, const std::string& marker)> make_video;
  /// Runs the segment query `text` and fills `hits`; returns false, with the
  /// operation counted in `out->failed`, when the query failed.
  std::function<bool(const std::string& text, std::vector<htl::SegmentHit>* hits,
                     Samples* out)>
      query;
  /// Runs before each write, outside its timing; may be empty.
  std::function<void()> before_write;
};

/// Appends `count` videos, each marked with an object type no other video
/// carries, and after each asks for that type, checking that the new video
/// ranks first at full similarity. Records the time from the AddVideo call
/// to the answer in `out->fresh_ms` and the AddVideo call alone in
/// `out->add_video_us`.
void FreshWrites(const FreshTarget& target, uint64_t seed, int count,
                 const std::string& prefix, Samples* out);

// --- Queries -------------------------------------------------------------

/// One entry of a workload's fixed formula pool.
struct PoolQuery {
  const char* text;
  bool video_query;  // TopVideos at the root instead of TopSegments.
  int weight;        // Relative draw frequency.
};

/// `count` indices into `weights`, each index appearing in proportion to
/// its weight (largest remainders round), in an order shuffled by `seed`.
/// The mix is the same for every seed, so a percentile never moves between
/// operation kinds because one seed drew more of a slow kind.
std::vector<size_t> SeededMix(const std::vector<double>& weights, int64_t count,
                              uint64_t seed);

/// The answer to one closed-loop query, kept for the checkers.
struct Answer {
  size_t pool_index = 0;
  int64_t num_videos = 0;  // Store size when the query ran.
  std::vector<htl::SegmentHit> segments;
  std::vector<htl::VideoHit> videos;
  htl::RetrievalReport report;  // Counts and, when traced, the profile.
};

/// Runs one pool query through the Retriever's public entry points —
/// Prepare, then TopSegments/TopVideos with a report (profiled when
/// `profiled`). Returns false, counting the operation in `out->failed`,
/// when a call fails or the result is partial.
bool RunQuery(htl::Retriever& retriever, const PoolQuery& q, int level, int64_t k,
              bool profiled, Answer* answer, Samples* out,
              double* prepare_us = nullptr);

/// Checks order for every answer and the reference for a seeded sample.
void CheckAnswers(const MetadataStore& store, const std::vector<PoolQuery>& pool,
                  const std::vector<htl::FormulaPtr>& formulas, int level, int64_t k,
                  const std::vector<Answer>& answers, const htl::QueryOptions& options,
                  uint64_t seed, int sampled_answers, Samples* out);

// --- Per-layer trace -----------------------------------------------------

/// Sums of the per-layer quantities of traced closed-loop queries.
struct LayerTotals {
  int64_t queries = 0;
  double query_us = 0;
  double prepare_us = 0;
  double execute_us = 0;
  double video_us = 0;    // Sum of per-video spans (inclusive).
  double picture_us = 0;  // Self time of picture-system operator spans.
  double kernel_us = 0;   // Self time of the other operator spans.
  int64_t videos_evaluated = 0;
  int64_t videos_pruned = 0;
  int64_t videos_total = 0;

  /// Folds one traced query (its wall time and profile) in.
  void Add(double wall_us, double prepare, const htl::RetrievalReport& report,
           int64_t num_videos);
};

/// Writes the closed-loop per-layer metrics of `totals` into `out->layers`.
/// The remainder is what the named layers leave of the query time, so they
/// sum to it; trace.remainder_share says how much is left unexplained.
void EmitClosedLoopLayers(const LayerTotals& totals, Samples* out);

/// Adds the counter-derived metrics (picture.queries, sim.entries_in, cache
/// hit ratios) from the metrics registry, per `queries` operations.
void EmitRegistryLayers(int64_t queries, Samples* out);

/// Times the model/picture/htl/vm/sim public functions over `sample`
/// videos and the pool formulas: VideoStats::Build, PictureSystem index
/// construction, UpperBoundFraction, vm::Compile, TopKSegments.
void EmitModuleLayers(const MetadataStore& store,
                      const std::vector<MetadataStore::VideoId>& sample,
                      const std::vector<const htl::Formula*>& formulas, int level,
                      int64_t k, const htl::QueryOptions& options,
                      double videos_evaluated_per_query, Samples* out);

/// One per-layer metric: its name and unit.
struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric a traced run reports, in the order and with the
/// units of BENCHMARK.json's `per_layer` list (`run.py --selftest` checks
/// that the two agree). A metric a workload does not produce reads 0.
const std::vector<LayerMetric>& LayerMetrics();

/// RSS growth per previously unseen formula: runs `count` generated
/// formulas the process has not seen and divides the RSS growth by it.
void EmitNewFormulaRss(htl::Retriever& retriever, int level, int count,
                       uint64_t seed, Samples* out);

// --- Workloads -----------------------------------------------------------

void RunArchiveTopk(const Config& config, Samples* out);
void RunFilmKernels(const Config& config, Samples* out);
void RunServedMix(const Config& config, Samples* out);
void RunIngestFresh(const Config& config, Samples* out);

/// Feeds every checker planted wrong answers; returns the number missed.
int PlantedFaultsMissed();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
