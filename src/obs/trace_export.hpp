// The Chrome/Perfetto trace writer: a job's SpanSet — rank rows, flow arrows,
// instants and causal spans — plus the Sampler's virtual-time series,
// rendered as counter tracks, in one trace-event JSON array.
#pragma once

#include <string>

#include "obs/sampler.hpp"
#include "obs/span.hpp"

namespace cirrus::obs {

/// One JSON array (load in chrome://tracing or Perfetto), ts/dur in
/// microseconds at full precision:
///  * pid 0: a thread_name row per rank with intervals, the intervals ("X",
///    one tid per rank), "s"/"f" flow pairs and "i" instants;
///  * pid 1: causal spans ("X", cat "span", args id/parent);
///  * one "C" counter track per sampler channel.
/// Either argument may be null; with both null the result is an empty array.
std::string enriched_chrome_json(const SpanSet* trace, const Sampler* sampler);

/// Same, writing each non-null set in turn. Kept in this shape because the
/// perfbench harness, frozen with the benchmark, passes mpi::JobResult's
/// always-null `spans` and `sched_spans` here.
std::string enriched_chrome_json(const SpanSet* trace, const Sampler* sampler,
                                 const SpanSet* spans, const SpanSet* sched_spans);

}  // namespace cirrus::obs
