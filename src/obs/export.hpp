// Time-series exporter: JSON-lines for pipelines.
//
// The stream carries the sampler's channel names verbatim, so a series
// round-trips without a side schema. It opens with a meta record and
// can be terminated by a metrics-snapshot record (write_metrics_json)
// to make one self-describing file per run.
#pragma once

#include <cstdint>
#include <ostream>

#include "obs/sampler.hpp"

namespace hetsched {

/// First line {"type":"meta","interval":dt,"channels":[...],
/// "dropped_events":N} then one {"type":"sample","t":...,"v":[...]}
/// line per sample.
void write_timeseries_jsonl(std::ostream& out,
                            const TimeSeriesSampler& sampler,
                            std::uint64_t dropped_events = 0);

}  // namespace hetsched
