#include "obs/export.hpp"

#include "common/json.hpp"

namespace hetsched {

void write_timeseries_jsonl(std::ostream& out,
                            const TimeSeriesSampler& sampler,
                            std::uint64_t dropped_events) {
  {
    JsonWriter meta(out, /*pretty=*/false);
    meta.begin_object();
    meta.field("type", "meta");
    meta.field("interval", sampler.interval());
    meta.key("channels");
    meta.begin_array();
    for (const auto& name : sampler.channel_names()) meta.value(name);
    meta.end_array();
    meta.field("dropped_events", dropped_events);
    meta.end_object();
  }
  out << '\n';
  for (const auto& sample : sampler.samples()) {
    JsonWriter row(out, /*pretty=*/false);
    row.begin_object();
    row.field("type", "sample");
    row.field("t", sample.time);
    row.key("v");
    row.begin_array();
    for (const double v : sample.values) row.value(v);
    row.end_array();
    row.end_object();
    out << '\n';
  }
}

}  // namespace hetsched
