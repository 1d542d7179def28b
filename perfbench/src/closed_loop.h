// The closed-loop runner shared by archive_topk, film_kernels and
// ingest_fresh: one caller issues a seeded sequence of pool queries, each
// after the previous one returned, against one Retriever.

#ifndef PERFBENCH_CLOSED_LOOP_H_
#define PERFBENCH_CLOSED_LOOP_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "engine/retrieval.h"

namespace perfbench {

/// What a closed-loop workload is made of.
struct ClosedLoopSpec {
  std::vector<PoolQuery> pool;
  int level = 2;  // Segment level of the segment queries.
  int64_t k = 10;
  htl::QueryOptions options;  // Queries run on one worker whatever these say.
  /// Fills a fresh store (the corpus generation step). The corpus is the
  /// same for every --seed; the seed drives the operation order and the
  /// written videos. Per-seed corpora moved medians by more than the run-to-
  /// run noise, through how many marked videos a seed happened to draw.
  std::function<void(MetadataStore*)> build;
  /// A new video carrying the object type `marker` on its first leaf.
  std::function<htl::VideoTree(htl::Rng&, const std::string& marker)> fresh_video;
};

/// One set-up: the corpus and the retriever over it.
struct Deployment {
  std::unique_ptr<MetadataStore> store;
  std::unique_ptr<htl::Retriever> retriever;
  std::vector<htl::FormulaPtr> formulas;  // The pool, prepared once.
};

/// Builds the corpus and a one-worker retriever over it, then runs every
/// pool query once so lazily derived state exists before timing. Records
/// engine.warm_s and engine.derived_mb into `out->layers`.
std::unique_ptr<Deployment> Deploy(const ClosedLoopSpec& spec, Samples* out);

/// Sets up `count` times, appending each set-up time to `out->setup_s`, and
/// returns the last. All but the last run in child processes, so repeated
/// set-ups leave no freed memory behind to raise this process's peak RSS.
std::unique_ptr<Deployment> DeployRepeatedly(const ClosedLoopSpec& spec, int count,
                                             Samples* out);

/// FreshWrites into `d`'s store, each asked for through its retriever
/// (Prepare, then TopSegments at the spec's level).
FreshTarget FreshTargetOf(const ClosedLoopSpec& spec, Deployment& d);

/// Runs the pool indices `ops` in order, timing each query into
/// `out->query_ms` (when `timed`) and keeping the answers. With `layers`
/// non-null the queries run profiled and their spans are summed there.
std::vector<Answer> RunOps(const ClosedLoopSpec& spec, Deployment& d,
                           const std::vector<size_t>& ops, bool timed,
                           LayerTotals* layers, Samples* out);

/// Operations a traced closed-loop replay runs: a prefix of the sequence.
inline constexpr size_t kTraceOps = 500;

/// The traced replay: the seeded `ops` (their first kTraceOps) on `d`,
/// first untraced, then with the metrics registry enabled and profiled
/// entry points, filling every closed-loop per-layer metric.
void TraceReplay(const ClosedLoopSpec& spec, Deployment& d, const std::vector<size_t>& ops,
                 uint64_t seed, Samples* out);

/// The seeded operation sequence: SeededMix over the pool's weights.
std::vector<size_t> DrawOps(const std::vector<PoolQuery>& pool, uint64_t seed,
                            int64_t count);

}  // namespace perfbench

#endif  // PERFBENCH_CLOSED_LOOP_H_
