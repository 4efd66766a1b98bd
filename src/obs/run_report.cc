#include "obs/run_report.h"

#include <fstream>
#include <iostream>
#include <sstream>

#include "common/table.h"

namespace qplex::obs {
namespace {

JsonValue TraceToJson(const TraceNodeSnapshot& node) {
  JsonValue json = JsonValue::Object();
  json.Set("name", node.name);
  json.Set("count", node.count);
  json.Set("total_seconds", node.TotalSeconds());
  if (!node.children.empty()) {
    JsonValue children = JsonValue::Array();
    for (const TraceNodeSnapshot& child : node.children) {
      children.Append(TraceToJson(child));
    }
    json.Set("children", std::move(children));
  }
  return json;
}

}  // namespace

void RunReport::SetMeta(std::string key, JsonValue value) {
  for (auto& [existing, held] : meta_) {
    if (existing == key) {
      held = std::move(value);
      return;
    }
  }
  meta_.emplace_back(std::move(key), std::move(value));
}

void RunReport::Capture(const MetricsRegistry& registry,
                        const Tracer& tracer) {
  metrics_ = registry.Snapshot();
  trace_ = tracer.Snapshot();
}

JsonValue RunReport::ToJson() const {
  JsonValue json = JsonValue::Object();
  json.Set("report", name_);
  json.Set("schema_version", 1);

  JsonValue meta = JsonValue::Object();
  for (const auto& [key, value] : meta_) {
    meta.Set(key, value);
  }
  json.Set("meta", std::move(meta));

  JsonValue counters = JsonValue::Object();
  for (const auto& [name, value] : metrics_.counters) {
    counters.Set(name, value);
  }
  json.Set("counters", std::move(counters));

  JsonValue gauges = JsonValue::Object();
  for (const auto& [name, value] : metrics_.gauges) {
    gauges.Set(name, value);
  }
  json.Set("gauges", std::move(gauges));

  JsonValue histograms = JsonValue::Object();
  for (const auto& [name, snapshot] : metrics_.histograms) {
    JsonValue histogram = JsonValue::Object();
    histogram.Set("count", snapshot.count);
    histogram.Set("sum", snapshot.sum);
    histogram.Set("min", snapshot.min);
    histogram.Set("max", snapshot.max);
    histogram.Set("mean", snapshot.Mean());
    histogram.Set("p50", snapshot.P50());
    histogram.Set("p90", snapshot.P90());
    histogram.Set("p99", snapshot.P99());
    JsonValue buckets = JsonValue::Array();
    for (const auto& [lower_bound, count] : snapshot.buckets) {
      JsonValue bucket = JsonValue::Array();
      bucket.Append(lower_bound);
      bucket.Append(count);
      buckets.Append(std::move(bucket));
    }
    histogram.Set("buckets", std::move(buckets));
    histograms.Set(name, std::move(histogram));
  }
  json.Set("histograms", std::move(histograms));

  json.Set("trace", TraceToJson(trace_));
  return json;
}

std::string RunReport::ToPrettyString() const {
  std::ostringstream out;
  out << "== run report: " << name_ << " ==\n";

  if (!meta_.empty()) {
    AsciiTable meta_table({"meta", "value"});
    for (const auto& [key, value] : meta_) {
      meta_table.AddRow({key, value.is_string() ? value.AsString()
                                                : value.Dump()});
    }
    meta_table.Print(out);
    out << "\n";
  }

  if (!metrics_.counters.empty()) {
    AsciiTable counter_table({"counter", "value"});
    for (const auto& [name, value] : metrics_.counters) {
      counter_table.AddRow({name, std::to_string(value)});
    }
    counter_table.Print(out);
    out << "\n";
  }

  if (!metrics_.gauges.empty()) {
    AsciiTable gauge_table({"gauge", "value"});
    for (const auto& [name, value] : metrics_.gauges) {
      gauge_table.AddRow({name, FormatDouble(value, 6)});
    }
    gauge_table.Print(out);
    out << "\n";
  }

  if (!metrics_.histograms.empty()) {
    AsciiTable histogram_table(
        {"histogram", "count", "mean", "p50", "p90", "p99", "min", "max"});
    for (const auto& [name, snapshot] : metrics_.histograms) {
      histogram_table.AddRow({name, std::to_string(snapshot.count),
                              FormatDouble(snapshot.Mean(), 4),
                              FormatDouble(snapshot.P50(), 4),
                              FormatDouble(snapshot.P90(), 4),
                              FormatDouble(snapshot.P99(), 4),
                              FormatDouble(snapshot.min, 4),
                              FormatDouble(snapshot.max, 4)});
    }
    histogram_table.Print(out);
    out << "\n";
  }

  out << "trace:\n" << FormatTraceTree(trace_);
  return out.str();
}

Status RunReport::WriteJsonFile(const std::string& path, int indent) const {
  const std::string text = ToJsonString(indent) + "\n";
  if (path == "-") {
    std::cout << text;
    return Status::Ok();
  }
  std::ofstream file(path, std::ios::out | std::ios::trunc);
  if (!file) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  file << text;
  file.close();
  if (!file) {
    return Status::Internal("failed writing report to " + path);
  }
  return Status::Ok();
}

}  // namespace qplex::obs
