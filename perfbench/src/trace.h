// Span recorder for the benchmark's traced pass.
//
// Spans are recorded only from benchmark code, around calls into the
// library's public functions; nothing inside src/ is instrumented. While
// the recorder is disarmed a Span costs one relaxed atomic load. Armed
// spans are kept in memory and written once, at exit, as Chrome
// trace-event JSON (chrome://tracing, Perfetto).
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;     ///< event name, "<layer>.<call>"
  std::string key;      ///< metric the span's self time feeds ("" = none)
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for a root span
  uint64_t request = 0; ///< shared by every span of one serve request
  uint32_t tid = 0;
  double start_us = 0.0;
  double end_us = 0.0;
  double DurationUs() const { return end_us - start_us; }
};

/// Turns recording on or off for spans opened afterwards. The traced
/// pass alternates armed and disarmed iterations so it can report the
/// recorder's own overhead.
void ArmTracing(bool armed);

/// Every span recorded so far, in completion order.
std::vector<SpanRecord> TraceRecords();

/// Writes the recorded spans as Chrome trace-event JSON. False on I/O
/// failure.
bool WriteChromeTrace(const std::string& path);

/// RAII span on the calling thread; nests under the thread's open span.
class Span {
 public:
  explicit Span(const char* name, std::string key = {});
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool armed_;
  SpanRecord record_;
  uint64_t saved_parent_ = 0;
};

/// Tags every span the calling thread opens while this is alive with
/// `request`, so the spans of one serve request share an id.
class RequestScope {
 public:
  explicit RequestScope(uint64_t request);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  uint64_t saved_;
};

/// Self time of every span (its duration minus its children's), summed
/// per metric key under each span named `root_name`: result[key] holds
/// one value per such root, in seconds. Keys absent under a root are
/// absent from that root's sum rather than recorded as zero.
std::map<std::string, std::vector<double>> SelfSecondsPerRoot(
    const std::vector<SpanRecord>& records, const std::string& root_name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
