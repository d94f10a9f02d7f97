#include "bench/bench_common.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>

namespace fpgadp::bench {

Flag BoolFlag(std::string name, bool* target) {
  return {std::move(name), "", [target](const char*) { return *target = true; }};
}

Flag ChoiceFlag(std::string name, std::vector<std::string> choices,
                std::string* target) {
  std::string accepted;
  for (const std::string& c : choices) accepted += (accepted.empty() ? "" : "|") + c;
  return {std::move(name), std::move(accepted),
          [choices = std::move(choices), target](const char* value) {
            const bool ok = std::ranges::find(choices, value) != choices.end();
            if (ok) *target = value;
            return ok;
          }};
}

Flag RangeFlag(std::string name, uint64_t lo, uint64_t hi, uint64_t* target) {
  return {std::move(name),
          "<integer " + std::to_string(lo) + ".." + std::to_string(hi) + ">",
          [lo, hi, target](const char* value) {
            char* end = nullptr;
            errno = 0;
            const uint64_t n = std::strtoull(value, &end, 10);
            // strtoull would also take a sign or leading space, and wrap "-1".
            const bool ok = std::isdigit(static_cast<unsigned char>(*value)) &&
                            *end == '\0' && errno != ERANGE && n >= lo && n <= hi;
            if (ok) *target = n;
            return ok;
          }};
}

Flag ProbabilityFlag(std::string name, double* target) {
  return {std::move(name), "<probability 0..1>", [target](const char* value) {
            char* end = nullptr;
            const double x = std::strtod(value, &end);
            // The range test also rejects NaN.
            const bool ok = end != value && *end == '\0' && x >= 0 && x <= 1;
            if (ok) *target = x;
            return ok;
          }};
}

Session::Session(int argc, char** argv, std::vector<Flag> flags)
    : start_(std::chrono::steady_clock::now()) {
  bool metrics = false;
  const auto path = [](std::string* target) {
    return [target](const char* value) {
      *target = value;
      return !target->empty();  // "--json=" must not fall back to the default file
    };
  };
  flags.insert(flags.begin(), {{"--trace=", "<file>", path(&trace_path_)},
                               {"--json=", "<file>", path(&json_path_)},
                               BoolFlag("--metrics", &metrics)});
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const Flag* flag = nullptr;
    for (const Flag& f : flags) {
      if (f.name.ends_with('=') ? arg.starts_with(f.name) : arg == f.name) flag = &f;
    }
    if (flag == nullptr || !flag->set(argv[i] + flag->name.size())) {
      std::cerr << argv[0] << (flag ? ": bad value in '" : ": unknown flag '") << arg
                << "'; the accepted flags are:\n";
      for (const Flag& f : flags) std::cerr << "  " << f.name << f.accepted << "\n";
      std::exit(2);
    }
    given_.push_back(flag->name);
  }
  if (!trace_path_.empty()) {
    writer_ = std::make_unique<obs::TraceWriter>();
    obs::SetGlobalTraceWriter(writer_.get());
  }
  if (metrics) metrics_ = std::make_unique<obs::MetricsRegistry>();
  if (metrics_) obs::SetGlobalMetrics(metrics_.get());
}

void Session::AddResult(const std::string& name,
                        const std::vector<ResultField>& fields) {
  // Recorded unconditionally (it is a handful of doubles); dumped only when
  // a --json path is configured by flag or SetDefaultJsonPath.
  results_.push_back({name, fields});
}

void Session::SetDefaultJsonPath(const std::string& path) {
  if (json_path_.empty()) json_path_ = path;
}

bool Session::Given(const std::string& name) const {
  return std::find(given_.begin(), given_.end(), name) != given_.end();
}

namespace {

/// RFC 8259 string escaping for row/field names: quote, backslash, and
/// every control character below 0x20 (named escapes where JSON has them,
/// \u00XX otherwise). Scenario names built from user flags or file paths
/// can legally contain tabs and newlines; emitting those raw produced
/// files strict parsers reject.
std::string JsonEscape(const std::string& s) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const auto u = static_cast<unsigned char>(c);
        if (u < 0x20) {
          out += "\\u00";
          out.push_back(kHex[u >> 4]);
          out.push_back(kHex[u & 0xF]);
        } else {
          out.push_back(c);
        }
      }
    }
  }
  return out;
}

/// Writes one numeric field value. JSON has no NaN/Infinity literals;
/// streaming them raw ("nan", "inf") silently corrupts the whole file, so
/// non-finite values degrade to null — absent, but parseable.
void WriteJsonNumber(std::ostream& os, double value) {
  if (std::isfinite(value)) {
    os << value;
  } else {
    os << "null";
  }
}

}  // namespace

Session::~Session() {
  if (failed_ && !json_path_.empty()) {
    std::cerr << "[bench] run failed; " << json_path_ << " left untouched\n";
  } else if (!json_path_.empty()) {
    const double wall_sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    std::ofstream out(json_path_);
    if (!out.good()) {
      std::cerr << "[bench] cannot write json results to " << json_path_
                << "\n";
    } else {
      out.precision(12);  // cycle counts must round-trip exactly
      out << "{\n  \"wall_clock_sec\": " << wall_sec << ",\n  \"rows\": [";
      for (size_t i = 0; i < results_.size(); ++i) {
        out << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
            << JsonEscape(results_[i].name) << "\"";
        for (const auto& [key, value] : results_[i].fields) {
          out << ", \"" << JsonEscape(key) << "\": ";
          WriteJsonNumber(out, value);
        }
        out << "}";
      }
      out << "\n  ]\n}\n";
      std::cerr << "[bench] wrote " << results_.size() << " result rows to "
                << json_path_ << "\n";
    }
  }
  if (writer_) {
    obs::SetGlobalTraceWriter(nullptr);
    const Status s = writer_->WriteFile(trace_path_);
    if (s.ok()) {
      std::cerr << "[bench] wrote " << writer_->event_count()
                << " trace events to " << trace_path_
                << " (open in chrome://tracing or ui.perfetto.dev; 1 us = 1 "
                   "cycle)\n";
    } else {
      std::cerr << "[bench] trace write failed: " << s << "\n";
    }
  }
  if (metrics_) {
    obs::SetGlobalMetrics(nullptr);
    std::cerr << "\n[bench] metrics registry (" << metrics_->size()
              << " instruments):\n"
              << metrics_->ToString();
  }
}

}  // namespace fpgadp::bench
