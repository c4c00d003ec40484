#pragma once

// Statistics, metric set and span recorder of the end-to-end benchmark.
// Everything here is checked by `aggbench --self-test`.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace aggbench {

/// Shortest text that reads back as exactly `v`; JSON has no NaN or
/// infinity, so those print as 0 (ratios over an empty base).
inline std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  return std::string(buf, end);
}

inline std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

/// One `"key": value` member of a JSON object.
inline std::string JsonMember(std::string_view key, double value) {
  return "\"" + JsonEscape(key) + "\": " + FormatNumber(value);
}

/// 1-based nearest rank of the p-th percentile of n samples: the smallest
/// rank with at least p*n samples at or below it.
inline size_t PercentileRank(size_t n, double p) {
  const double exact = p * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, std::max<size_t>(n, 1));
}

/// Samples strictly above the reported percentile. A percentile is only
/// reported when at least ten samples lie beyond it.
inline size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - PercentileRank(n, p);
}

inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return samples[PercentileRank(samples.size(), p) - 1];
}

/// First, second and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method), so
/// the spreads printed here match the ones the runner computes.
inline std::vector<double> Quartiles(std::vector<double> v) {
  if (v.empty()) return {0, 0, 0};
  if (v.size() == 1) return {v[0], v[0], v[0]};
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  std::vector<double> out;
  for (long i = 1; i < 4; ++i) {
    long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out.push_back((v[j - 1] * (4 - delta) + v[j] * delta) / 4);
  }
  return out;
}

/// The middle quartile, which equals Python's `statistics.median`.
inline double Median(std::vector<double> v) {
  return Quartiles(std::move(v))[1];
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Named metrics in insertion order. A ratio is computed from two metrics
/// already in the set, so it is never reported without its base counts.
class MetricSet {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  /// Adds `name` = num / den (0 when den is 0). Returns false, adding
  /// nothing, when either base is missing.
  bool AddRatio(std::string name, std::string_view num, std::string_view den) {
    const Metric* n = Find(num);
    const Metric* d = Find(den);
    if (n == nullptr || d == nullptr) return false;
    const double value = d->value != 0 ? n->value / d->value : 0;
    ratio_bases_[name] = {std::string(num), std::string(den)};
    Add(std::move(name), value, "ratio");
    return true;
  }

  const Metric* Find(std::string_view name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

  /// {numerator, denominator} names of a ratio added with AddRatio, or null.
  const std::pair<std::string, std::string>* RatioBases(
      const std::string& name) const {
    auto it = ratio_bases_.find(name);
    return it == ratio_bases_.end() ? nullptr : &it->second;
  }

  const std::vector<Metric>& metrics() const { return metrics_; }

  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      out += (i ? ", \"" : "\"") + JsonEscape(m.name) + "\": {\"value\": " +
             FormatNumber(m.value) + ", \"unit\": \"" + JsonEscape(m.unit) +
             "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
  std::map<std::string, std::pair<std::string, std::string>> ratio_bases_;
};

/// One Chrome trace event ("B" begins a span, "E" ends the innermost open
/// span of the same thread lane). `args` is a JSON object body.
struct TraceEvent {
  std::string name;
  char phase = 'B';
  double ts_us = 0;
  int tid = 1;
  std::string args;
};

/// Empty when every lane's B/E events nest properly and all spans are
/// closed; otherwise the first violation.
inline std::string CheckBalanced(const std::vector<TraceEvent>& events) {
  std::map<int, std::vector<std::string>> stacks;
  for (const TraceEvent& e : events) {
    auto& stack = stacks[e.tid];
    if (e.phase == 'B') {
      stack.push_back(e.name);
    } else if (stack.empty() || stack.back() != e.name) {
      return "unmatched end of '" + e.name + "' on lane " +
             std::to_string(e.tid);
    } else {
      stack.pop_back();
    }
  }
  for (const auto& s : stacks) {
    if (!s.second.empty()) {
      return "span '" + s.second.back() + "' left open on lane " +
             std::to_string(s.first);
    }
  }
  return "";
}

/// Keeps spans in memory and renders them as Chrome trace-event JSON when
/// the run ends. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled)
      : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  void Record(TraceEvent event) {
    if (enabled_) events_.push_back(std::move(event));
  }

  /// A span whose times were measured elsewhere (fleet documents).
  void AddSpan(const std::string& name, int tid, double begin_us,
               double end_us, std::string args) {
    Record({name, 'B', begin_us, tid, ""});
    Record({name, 'E', end_us, tid, std::move(args)});
  }

  const std::vector<TraceEvent>& events() const { return events_; }

  std::string Json() const {
    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (size_t i = 0; i < events_.size(); ++i) {
      const TraceEvent& e = events_[i];
      out += i ? ",\n" : "\n";
      out += "{\"name\": \"" + JsonEscape(e.name) +
             "\", \"cat\": \"aggbench\", \"ph\": \"" + e.phase +
             "\", \"ts\": " + FormatNumber(e.ts_us) +
             ", \"pid\": 1, \"tid\": " + std::to_string(e.tid);
      if (!e.args.empty()) out += ", \"args\": {" + e.args + "}";
      out += "}";
    }
    return out + "\n]}\n";
  }

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<TraceEvent> events_;
};

/// Lane of the benchmark's own thread; measured spans go on later lanes.
inline constexpr int kMainLane = 1;

/// Scoped span on the main lane. Arguments collect while the span is open
/// and are attached to its end event (the trace viewer merges B and E args).
class Span {
 public:
  Span(Tracer* tracer, std::string name)
      : tracer_(tracer), name_(std::move(name)) {
    tracer_->Record({name_, 'B', tracer_->NowUs(), kMainLane, ""});
  }
  ~Span() {
    tracer_->Record({name_, 'E', tracer_->NowUs(), kMainLane, args_});
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void Arg(std::string_view key, double value) {
    if (tracer_->enabled()) Append(JsonMember(key, value));
  }
  void Arg(std::string_view key, std::string_view text) {
    if (tracer_->enabled()) {
      Append("\"" + JsonEscape(key) + "\": \"" + JsonEscape(text) + "\"");
    }
  }

 private:
  void Append(const std::string& member) {
    if (!args_.empty()) args_ += ", ";
    args_ += member;
  }

  Tracer* tracer_;
  std::string name_;
  std::string args_;
};

}  // namespace aggbench
