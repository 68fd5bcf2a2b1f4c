#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <sstream>
#include <tuple>

#include "obs/process_stats.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(position);
  const std::size_t high = std::min(low + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(low);
  return values[low] + (values[high] - values[low]) * fraction;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

bool violation_less(const dcv::rcdc::Violation& a,
                    const dcv::rcdc::Violation& b) {
  return std::tie(a.device, a.contract.kind, a.contract.prefix, a.kind,
                  a.rule_prefix, a.actual_next_hops) <
         std::tie(b.device, b.contract.kind, b.contract.prefix, b.kind,
                  b.rule_prefix, b.actual_next_hops);
}

std::uint64_t rss_bytes() { return dcv::obs::read_process_stats().rss_bytes; }

std::uint64_t peak_rss_bytes() {
  return dcv::obs::read_process_stats().peak_rss_bytes;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int size = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(static_cast<std::size_t>(std::max(size, 0)), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

// --- Tracer -----------------------------------------------------------------

namespace {

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

/// Open spans of this thread, innermost last (ids into one Tracer).
thread_local std::vector<std::uint64_t> t_open_spans;

}  // namespace

Tracer::Span::Span(Tracer* tracer, std::string_view layer,
                   std::string_view name)
    : tracer_(tracer) {
  if (tracer_ != nullptr) index_ = tracer_->open(layer, name);
}

Tracer::Span::~Span() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

std::size_t Tracer::open(std::string_view layer, std::string_view name) {
  Record record;
  record.layer = layer;
  record.name = name;
  record.thread = thread_index();
  record.parent = t_open_spans.empty() ? 0 : t_open_spans.back();
  record.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - origin_)
                        .count();
  std::lock_guard lock(mutex_);
  record.id = records_.size() + 1;
  t_open_spans.push_back(record.id);
  records_.push_back(std::move(record));
  return records_.size() - 1;
}

void Tracer::close(std::size_t index) {
  const std::int64_t end = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now() - origin_)
                               .count();
  std::lock_guard lock(mutex_);
  records_[index].end_ns = end;
  if (!t_open_spans.empty()) t_open_spans.pop_back();
}

std::string Tracer::chrome_trace() const {
  std::lock_guard lock(mutex_);
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Record& r : records_) {
    if (r.end_ns < 0) continue;
    if (!first) out << ",";
    first = false;
    out << "\n{\"name\":\"" << r.name << "\",\"cat\":\"" << r.layer
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.thread
        << ",\"ts\":" << format("%.3f", static_cast<double>(r.start_ns) / 1e3)
        << ",\"dur\":"
        << format("%.3f", static_cast<double>(r.end_ns - r.start_ns) / 1e3)
        << ",\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent
        << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out.str();
}

std::string Tracer::self_time_table() const {
  std::lock_guard lock(mutex_);
  // Child intervals per parent; children of one span run on its thread
  // and nest inside it, so their union is the sum of merged intervals.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      records_.size() + 1);
  for (const Record& r : records_) {
    if (r.end_ns >= 0 && r.parent != 0) {
      children[r.parent].emplace_back(r.start_ns, r.end_ns);
    }
  }
  struct Row {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> by_layer;
  std::map<std::string, Row> by_span;
  for (const Record& r : records_) {
    if (r.end_ns < 0) continue;
    auto& kids = children[r.id];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = r.start_ns;
    for (const auto& [start, end] : kids) {
      const std::int64_t s = std::max(start, cursor);
      const std::int64_t e = std::min(end, r.end_ns);
      if (e > s) {
        covered += e - s;
        cursor = e;
      }
    }
    const double total = static_cast<double>(r.end_ns - r.start_ns) / 1e6;
    const double self = static_cast<double>(r.end_ns - r.start_ns - covered) /
                        1e6;
    for (Row* row : {&by_layer[r.layer], &by_span[r.layer + "/" + r.name]}) {
      row->count += 1;
      row->total_ms += total;
      row->self_ms += self;
    }
  }
  std::ostringstream out;
  out << format("%-44s %8s %12s %12s\n", "layer / span", "spans", "total ms",
                "self ms");
  for (const auto& [layer, row] : by_layer) {
    out << format("%-44s %8llu %12.3f %12.3f\n", layer.c_str(),
                  static_cast<unsigned long long>(row.count), row.total_ms,
                  row.self_ms);
  }
  out << "\n";
  for (const auto& [span, row] : by_span) {
    out << format("  %-42s %8llu %12.3f %12.3f\n", span.c_str(),
                  static_cast<unsigned long long>(row.count), row.total_ms,
                  row.self_ms);
  }
  return out.str();
}

}  // namespace perfbench
