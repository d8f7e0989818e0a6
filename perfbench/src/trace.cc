#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

struct ThreadBuffer {
  uint32_t index = 0;
  std::vector<SpanRecord> spans;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<uint64_t> g_next_request{1};
const auto g_epoch = std::chrono::steady_clock::now();

std::mutex g_registry_mu;
std::vector<std::shared_ptr<ThreadBuffer>>& Registry() {
  static std::vector<std::shared_ptr<ThreadBuffer>> registry;
  return registry;
}

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local uint64_t t_parent = 0;
thread_local uint64_t t_request = 0;

uint64_t NewRequest() { return g_next_request.fetch_add(1); }

ThreadBuffer& LocalBuffer() {
  if (t_buffer == nullptr) {
    auto buffer = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    buffer->index = static_cast<uint32_t>(Registry().size());
    Registry().push_back(buffer);
    t_buffer = buffer.get();
  }
  return *t_buffer;
}

}  // namespace

void Tracer::SetEnabled(bool enabled) { g_enabled.store(enabled); }
bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

std::vector<SpanRecord> Tracer::Collect() {
  std::vector<SpanRecord> out;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& buffer : Registry()) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.id < b.id;
            });
  return out;
}

void Tracer::Clear() { Collect(); }

void Tracer::RecordChild(const char* name, int64_t start_ns, int64_t end_ns) {
  if (!enabled()) return;
  ThreadBuffer& buffer = LocalBuffer();
  SpanRecord record;
  record.name = name;
  record.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  record.parent = t_parent;
  record.request = t_request;
  record.thread = buffer.index;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  buffer.spans.push_back(record);
}

ScopedSpan::ScopedSpan(const char* name) {
  if (!Tracer::enabled()) return;
  active_ = true;
  record_.name = name;
  record_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent = t_parent;
  saved_parent_ = t_parent;
  saved_request_ = t_request;
  if (t_parent == 0) t_request = NewRequest();
  record_.request = t_request;
  t_parent = record_.id;
  record_.start_ns = Tracer::NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  record_.end_ns = Tracer::NowNs();
  ThreadBuffer& buffer = LocalBuffer();
  record_.thread = buffer.index;
  buffer.spans.push_back(record_);
  t_parent = saved_parent_;
  t_request = saved_request_;
}

std::vector<LayerRow> BuildLayerTable(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, LayerRow> rows;
  for (const SpanRecord& span : spans) {
    LayerRow& row = rows[span.name];
    row.name = span.name;
    ++row.count;
    const double seconds = span.seconds();
    row.total_s += seconds;
    row.durations_s.push_back(seconds);
    // Union of the children's intervals, clipped to this span.
    int64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t cursor = span.start_ns;
      for (auto [begin, end] : intervals) {
        begin = std::max(begin, cursor);
        end = std::min(end, span.end_ns);
        if (end > begin) {
          covered += end - begin;
          cursor = end;
        }
      }
    }
    row.self_s += std::max<double>(
        0.0, static_cast<double>(span.end_ns - span.start_ns - covered) * 1e-9);
  }
  std::vector<LayerRow> out;
  for (auto& [name, row] : rows) out.push_back(std::move(row));
  std::sort(out.begin(), out.end(), [](const LayerRow& a, const LayerRow& b) {
    return a.self_s > b.self_s;
  });
  return out;
}

void PrintLayerTable(const std::vector<LayerRow>& rows, double wall_s) {
  std::printf("  %-26s %9s %11s %11s %8s\n", "layer (span)", "count",
              "total_s", "self_s", "self/wall");
  for (const LayerRow& row : rows) {
    std::printf("  %-26s %9zu %11.4f %11.4f %7.1f%%\n", row.name.c_str(),
                row.count, row.total_s, row.self_s,
                wall_s > 0.0 ? 100.0 * row.self_s / wall_s : 0.0);
  }
}

const LayerRow* FindLayer(const std::vector<LayerRow>& rows,
                          const std::string& name) {
  for (const LayerRow& row : rows) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("{\"traceEvents\": [\n", file);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(file,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"parent\": %llu, \"request\": %llu}}",
                 i == 0 ? "" : ",\n", s.name, s.thread,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fputs("\n]}\n", file);
  return std::fclose(file) == 0;
}

}  // namespace perfbench
