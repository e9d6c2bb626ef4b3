#include "obs/bench_record.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "common/file.h"
#include "common/json.h"

#ifndef DECO_GIT_SHA
#define DECO_GIT_SHA "unknown"
#endif

#ifndef DECO_TRACE_ENABLED
#define DECO_TRACE_ENABLED 1
#endif

namespace deco {

namespace {

// Compiler-reported sanitizer mode, recorded in the host section: a bench
// JSON produced under ASan/TSan must never be compared against a clean
// baseline, and bench_compare.py refuses to.
const char* SanitizerName() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

}  // namespace

BenchRecorder::BenchRecorder(std::string bench_name)
    : bench_name_(std::move(bench_name)) {}

BenchRecorder::ConfigEntry* BenchRecorder::ConfigFor(const std::string& key) {
  for (ConfigEntry& entry : config_) {
    if (entry.key == key) return &entry;
  }
  config_.push_back(ConfigEntry{});
  config_.back().key = key;
  return &config_.back();
}

void BenchRecorder::SetConfig(const std::string& key,
                              const std::string& value) {
  ConfigEntry* entry = ConfigFor(key);
  entry->kind = ConfigEntry::Kind::kString;
  entry->str = value;
}

void BenchRecorder::SetConfig(const std::string& key, const char* value) {
  SetConfig(key, std::string(value));
}

void BenchRecorder::SetConfig(const std::string& key, double value) {
  ConfigEntry* entry = ConfigFor(key);
  entry->kind = ConfigEntry::Kind::kNumber;
  entry->num = value;
}

void BenchRecorder::SetConfig(const std::string& key, int64_t value) {
  SetConfig(key, static_cast<double>(value));
}

void BenchRecorder::SetConfig(const std::string& key, bool value) {
  ConfigEntry* entry = ConfigFor(key);
  entry->kind = ConfigEntry::Kind::kBool;
  entry->flag = value;
}

BenchRecorder::Row* BenchRecorder::RowFor(const std::string& label) {
  for (Row& row : rows_) {
    if (row.label == label) return &row;
  }
  rows_.push_back(Row{});
  rows_.back().label = label;
  return &rows_.back();
}

void BenchRecorder::AddMetric(const std::string& label,
                              const std::string& metric, double value) {
  Row* row = RowFor(label);
  for (MetricSeries& series : row->metrics) {
    if (series.name == metric) {
      series.values.push_back(value);
      return;
    }
  }
  row->metrics.push_back(MetricSeries{metric, {value}});
}

void BenchRecorder::AddReport(const std::string& label,
                              const RunReport& report) {
  AddMetric(label, "throughput_eps", report.throughput_eps);
  AddMetric(label, "latency_mean_nanos", report.latency.mean());
  AddMetric(label, "latency_p50_nanos",
            static_cast<double>(report.latency.Percentile(0.5)));
  AddMetric(label, "latency_p99_nanos",
            static_cast<double>(report.latency.Percentile(0.99)));
  AddMetric(label, "bytes_per_event", report.BytesPerEvent());
  AddMetric(label, "total_messages",
            static_cast<double>(report.network.total_messages));
  AddMetric(label, "total_bytes",
            static_cast<double>(report.network.total_bytes));
  AddMetric(label, "total_dropped",
            static_cast<double>(report.network.total_dropped));
  AddMetric(label, "windows_emitted",
            static_cast<double>(report.windows_emitted));
  AddMetric(label, "correction_steps",
            static_cast<double>(report.correction_steps));
  AddMetric(label, "events_processed",
            static_cast<double>(report.events_processed));
  AddMetric(label, "wall_seconds", report.wall_seconds);
  uint64_t queue_high_water = 0;
  for (const NodeTrafficStats& node : report.network.per_node) {
    queue_high_water = std::max(queue_high_water, node.queue_depth_high_water);
  }
  AddMetric(label, "queue_depth_high_water",
            static_cast<double>(queue_high_water));

  if (report.profile.enabled) {
    AddMetric(label, "cpu_total_nanos",
              static_cast<double>(report.profile.TotalCpuNanos()));
    if (report.profile.alloc_counted) {
      AddMetric(label, "allocations",
                static_cast<double>(report.profile.TotalAllocations()));
      AddMetric(label, "allocated_bytes",
                static_cast<double>(report.profile.TotalAllocatedBytes()));
    }
    Row* row = RowFor(label);
    row->has_profile = true;
    row->profile = report.profile;
  }
}

MetricAggregate BenchRecorder::Aggregate(const std::vector<double>& values) {
  MetricAggregate agg;
  if (values.empty()) return agg;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  agg.min = sorted.front();
  agg.max = sorted.back();
  double sum = 0.0;
  for (const double v : sorted) sum += v;
  agg.mean = sum / static_cast<double>(sorted.size());
  const size_t mid = sorted.size() / 2;
  agg.median = sorted.size() % 2 == 1
                   ? sorted[mid]
                   : (sorted[mid - 1] + sorted[mid]) / 2.0;
  double sq_sum = 0.0;
  for (const double v : sorted) {
    const double d = v - agg.mean;
    sq_sum += d * d;
  }
  agg.stddev = std::sqrt(sq_sum / static_cast<double>(sorted.size()));
  return agg;
}

std::string BenchRecorder::GitSha() { return DECO_GIT_SHA; }

std::string BenchRecorder::ToJson() const {
  std::string out;
  out.reserve(4096);
  out += "{\"schema_version\":1,\"bench\":";
  JsonAppendString(&out, bench_name_);
  out += ",\"git_sha\":";
  JsonAppendString(&out, GitSha());
  out += ",\"host\":{\"cores\":";
  JsonAppendU64(&out, std::thread::hardware_concurrency());
  out += ",\"trace_enabled\":";
  out += DECO_TRACE_ENABLED ? "true" : "false";
  out += ",\"sanitizer\":";
  JsonAppendString(&out, SanitizerName());
  out += "},\"config\":{";
  for (size_t i = 0; i < config_.size(); ++i) {
    const ConfigEntry& entry = config_[i];
    if (i > 0) out += ",";
    JsonAppendString(&out, entry.key);
    out += ":";
    switch (entry.kind) {
      case ConfigEntry::Kind::kString:
        JsonAppendString(&out, entry.str);
        break;
      case ConfigEntry::Kind::kNumber:
        JsonAppendDouble(&out, entry.num);
        break;
      case ConfigEntry::Kind::kBool:
        out += entry.flag ? "true" : "false";
        break;
    }
  }
  out += "},\"rows\":[";
  for (size_t r = 0; r < rows_.size(); ++r) {
    const Row& row = rows_[r];
    if (r > 0) out += ",";
    out += "{\"label\":";
    JsonAppendString(&out, row.label);
    out += ",\"metrics\":{";
    for (size_t m = 0; m < row.metrics.size(); ++m) {
      const MetricSeries& series = row.metrics[m];
      if (m > 0) out += ",";
      JsonAppendString(&out, series.name);
      out += ":{\"values\":[";
      for (size_t v = 0; v < series.values.size(); ++v) {
        if (v > 0) out += ",";
        JsonAppendDouble(&out, series.values[v]);
      }
      const MetricAggregate agg = Aggregate(series.values);
      out += "],\"min\":";
      JsonAppendDouble(&out, agg.min);
      out += ",\"max\":";
      JsonAppendDouble(&out, agg.max);
      out += ",\"mean\":";
      JsonAppendDouble(&out, agg.mean);
      out += ",\"median\":";
      JsonAppendDouble(&out, agg.median);
      out += ",\"stddev\":";
      JsonAppendDouble(&out, agg.stddev);
      out += "}";
    }
    out += "},\"cpu_breakdown\":";
    if (row.has_profile) {
      out += ProfileReportJson(row.profile);
    } else {
      out += "null";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

Status BenchRecorder::WriteJson(const std::string& path) const {
  return WriteFile(path, ToJson() + "\n");
}

}  // namespace deco
