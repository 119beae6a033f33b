// Perfetto/Chrome trace enrichment: merges a job's span trace (with its flow
// and instant events) and the Sampler's virtual-time series — rendered as
// counter tracks — into one trace-event JSON array.
#pragma once

#include <string>

#include "ipm/trace.hpp"
#include "obs/sampler.hpp"
#include "obs/span.hpp"

namespace cirrus::obs {

/// One JSON array holding the trace's rows (spans, thread names, flows,
/// instants) followed by one "C" counter track per sampler channel. Either
/// argument may be null; with both null the result is an empty array.
std::string enriched_chrome_json(const ipm::Trace* trace, const Sampler* sampler);

/// Same, with causal span sets merged in as additional "X" rows on their
/// tracks (cat "span"). Any argument may be null. `sched_spans` is written
/// after `spans`; its usual source, mpi::JobResult::sched_spans, is always
/// null, and the parameter stays for the perfbench harness, which passes it.
std::string enriched_chrome_json(const ipm::Trace* trace, const Sampler* sampler,
                                 const SpanSet* spans, const SpanSet* sched_spans);

}  // namespace cirrus::obs
