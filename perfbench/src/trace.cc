#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

std::atomic<bool> g_armed{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<uint32_t> g_next_tid{1};

std::mutex g_records_mu;
std::vector<SpanRecord> g_records;  // guarded by g_records_mu

thread_local uint64_t t_open_span = 0;
thread_local uint64_t t_request = 0;
thread_local uint32_t t_tid = 0;

double NowUs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - origin)
      .count();
}

uint32_t ThreadId() {
  if (t_tid == 0) t_tid = g_next_tid.fetch_add(1);
  return t_tid;
}

// JSON string body: the span names and keys are benchmark literals, but
// escape anyway so the trace always parses.
std::string Escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

void ArmTracing(bool armed) { g_armed.store(armed, std::memory_order_relaxed); }

std::vector<SpanRecord> TraceRecords() {
  std::lock_guard<std::mutex> lock(g_records_mu);
  return g_records;
}

Span::Span(const char* name, std::string key)
    : armed_(g_armed.load(std::memory_order_relaxed)) {
  if (!armed_) return;
  record_.name = name;
  record_.key = std::move(key);
  record_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent = t_open_span;
  record_.request = t_request;
  record_.tid = ThreadId();
  saved_parent_ = t_open_span;
  t_open_span = record_.id;
  record_.start_us = NowUs();
}

Span::~Span() {
  if (!armed_) return;
  record_.end_us = NowUs();
  t_open_span = saved_parent_;
  std::lock_guard<std::mutex> lock(g_records_mu);
  g_records.push_back(std::move(record_));
}

RequestScope::RequestScope(uint64_t request) : saved_(t_request) {
  t_request = request;
}

RequestScope::~RequestScope() { t_request = saved_; }

bool WriteChromeTrace(const std::string& path) {
  const std::vector<SpanRecord> records = TraceRecords();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  for (size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& r = records[i];
    const std::string name = Escape(r.name);
    const std::string layer = name.substr(0, name.find('.'));
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu,\"key\":\"%s\"}}",
                 i == 0 ? "" : ",", name.c_str(), layer.c_str(), r.tid,
                 r.start_us, r.DurationUs(),
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.request),
                 Escape(r.key).c_str());
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

std::map<std::string, std::vector<double>> SelfSecondsPerRoot(
    const std::vector<SpanRecord>& records, const std::string& root_name) {
  std::unordered_map<uint64_t, const SpanRecord*> by_id;
  std::unordered_map<uint64_t, double> child_us;  // id -> children's time
  for (const SpanRecord& r : records) {
    by_id[r.id] = &r;
    if (r.parent != 0) child_us[r.parent] += r.DurationUs();
  }
  // root id -> key -> summed self seconds; std::map keeps roots in id
  // (= start) order.
  std::map<uint64_t, std::map<std::string, double>> per_root;
  for (const SpanRecord& r : records) {
    if (r.key.empty()) continue;
    uint64_t up = r.parent;
    while (up != 0) {
      auto it = by_id.find(up);
      if (it == by_id.end()) {
        up = 0;
        break;
      }
      if (it->second->name == root_name) break;
      up = it->second->parent;
    }
    if (up == 0) continue;
    per_root[up][r.key] += (r.DurationUs() - child_us[r.id]) * 1e-6;
  }
  std::map<std::string, std::vector<double>> out;
  for (const auto& [root, sums] : per_root) {
    for (const auto& [key, seconds] : sums) out[key].push_back(seconds);
  }
  return out;
}

}  // namespace perfbench
