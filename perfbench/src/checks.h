// Correctness checks on extracted answers, computed by the benchmark from
// the raw bindings — never by asking the library for the answer it is
// being checked against.
//
//  * uniS takes each component from a holder chosen uniformly at random
//    (the first holder in a uniform visit order), so E[Sum] is the sum over
//    components of the mean binding among the sources holding it, and
//    E[Avg] = E[Sum] / |C|. The bagged mean must lie within 6 standard
//    errors of it.
//  * Every sample lies in the viable range W = [inf V, sup V]; for Var the
//    range is [0, (max - min)^2 / 4] (Popoviciu). Draws that covered only
//    part of the query (fault-injected runs) are held to the range any
//    subset can reach instead.
//  * The density is non-negative and integrates to 1.
//  * Re-integrating the density over the CIO intervals reaches theta.
//
// Two of these fail on known faults of the library (README.md, "Known
// faults"): a negative density value and CIO intervals short of theta. They
// count the answer as failed instead of failing the run.

#ifndef VASTATS_PERFBENCH_CHECKS_H_
#define VASTATS_PERFBENCH_CHECKS_H_

#include <string>

#include "harness.h"
#include "serving/caches.h"
#include "vastats/vastats.h"

namespace perfbench {

struct QueryTruth {
  vastats::AggregateKind kind = vastats::AggregateKind::kSum;
  // E[answer] under uniS; NaN for kinds without the closed form.
  double expected_mean = 0.0;
  // Viable range of fully covered answers.
  double lo = 0.0;
  double hi = 0.0;
  // Range any partially covered answer can reach.
  double partial_lo = 0.0;
  double partial_hi = 0.0;
};

// Computes the closed-form references for `query` over `sources`.
QueryTruth ComputeTruth(const vastats::SourceSet& sources,
                        const vastats::AggregateQuery& query);

struct AnswerCheckOptions {
  double theta = 0.9;
  // When false (a degraded extraction kept partial draws), the mean check
  // is skipped and samples are held to the partial range.
  bool full_coverage = true;
  // Minimum number of prominent modes at FindProminentModes(0.1); 0 skips.
  int min_modes = 0;
};

// Runs every answer-level check, recording each outcome in `log` under
// `label`. Returns false when the answer failed a known-fault check.
bool CheckAnswer(const vastats::AnswerStatistics& stats,
                 const QueryTruth& truth, const AnswerCheckOptions& options,
                 const std::string& label, CheckLog& log);

// The individual checks (exposed for the self-tests).
bool MeanWithinSixSe(const vastats::AnswerStatistics& stats,
                     double expected_mean);
bool SamplesInRange(const vastats::AnswerStatistics& stats,
                    const QueryTruth& truth, bool full_coverage);
bool DensityNonNegative(const vastats::GridDensity& density);
// Finite values with mass 1 within 1e-6.
bool DensityIsProbability(const vastats::GridDensity& density);
bool IntervalsReachTheta(const vastats::GridDensity& density,
                         const vastats::CoverageResult& coverage,
                         double theta);
// Trapezoid integral of the tabulated density over [a, b], evaluated from
// the grid values directly.
double IntegrateGrid(const vastats::GridDensity& density, double a, double b);

// A drift on a source in a cached query's closure evicted the query: the
// drift call invalidated at least one answer, and re-requesting the query
// was a miss. `before` is read before the drift, `after_drift` between the
// drift and the re-request, `after_reread` after it.
bool DriftEvicted(const vastats::serving::ExtractionCacheStats& before,
                  const vastats::serving::ExtractionCacheStats& after_drift,
                  const vastats::serving::ExtractionCacheStats& after_reread);

// Field-for-field bit identity of two extraction results (timings, which
// are wall-clock metadata, excluded).
bool BitIdentical(const vastats::AnswerStatistics& a,
                  const vastats::AnswerStatistics& b);

}  // namespace perfbench

#endif  // VASTATS_PERFBENCH_CHECKS_H_
