#include "report.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/parallel.h"
#include "graph/intersect_simd.h"

namespace perfbench {

bool StampEnvironment(Environment* env, std::string* why) {
  cpu_set_t set;
  CPU_ZERO(&set);
  env->nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                   ? static_cast<uint32_t>(CPU_COUNT(&set))
                   : 1u;
  env->threads = graphscape::DefaultThreads();
  if (env->threads > env->nproc) {
    // GRAPHSCAPE_THREADS (or a cgroup-limited hardware count) asks for
    // more lanes than CPUs: scaling numbers from such a run are fiction.
    *why = "resolved thread count " + std::to_string(env->threads) +
           " exceeds nproc " + std::to_string(env->nproc);
    return false;
  }
  env->kernel = graphscape::intersect::KernelName(
      graphscape::intersect::ActiveKernel());
  env->build_type = PERFBENCH_BUILD_TYPE;
  env->compiler = PERFBENCH_COMPILER;
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  env->commit = commit != nullptr && *commit != '\0' ? commit : "unknown";
  if (env->build_type != "Release") {
    *why = "build type is '" + env->build_type + "', not Release";
    return false;
  }
  return true;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (metrics_.find(name) == metrics_.end()) order_.push_back(name);
  metrics_[name] = Entry{value, unit};
}

void Report::Op(const std::string& phase, bool ok) {
  PhaseCount& count = phases_[phase];
  ++count.attempted;
  if (!ok) ++count.failed;
}

bool Report::Check(const std::string& phase, bool ok,
                   const std::string& what) {
  Op(phase, ok);
  if (!ok) {
    checks_ok_ = false;
    std::fprintf(stderr, "perfbench: output check failed [%s]: %s\n",
                 phase.c_str(), what.c_str());
  }
  return ok;
}

uint64_t Report::attempted() const {
  uint64_t total = 0;
  for (const auto& [phase, count] : phases_) total += count.attempted;
  return total;
}

uint64_t Report::failed() const {
  uint64_t total = 0;
  for (const auto& [phase, count] : phases_) total += count.failed;
  return total;
}

void Report::PrintHuman(const Environment& env, const Args& args) const {
  std::printf(
      "env nproc=%u threads=%u kernel=%s build=%s compiler=\"%s\" "
      "commit=%s\n",
      env.nproc, env.threads, env.kernel.c_str(), env.build_type.c_str(),
      env.compiler.c_str(), env.commit.c_str());
  std::printf("run workload=%s seed=%llu seconds=%g trace=%d smoke=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.smoke ? 1 : 0);
  for (const auto& [phase, count] : phases_) {
    std::printf("phase %-22s attempted=%llu failed=%llu\n", phase.c_str(),
                static_cast<unsigned long long>(count.attempted),
                static_cast<unsigned long long>(count.failed));
  }
  const uint64_t attempted_ops = attempted();
  std::printf("failed_share %.17g ratio\n",
              attempted_ops == 0
                  ? 1.0
                  : static_cast<double>(failed()) / attempted_ops);
}

void Report::PrintJson() const {
  const bool correct = checks_ok_ && failed() == 0 && attempted() > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted()),
              static_cast<unsigned long long>(failed()));
  bool first = true;
  for (const std::string& name : order_) {
    const Entry& e = metrics_.at(name);
    // JSON has no NaN/Inf; a non-finite reading is reported as -1 and the
    // run is already marked by the check that produced it.
    const double value = std::isfinite(e.value) ? e.value : -1.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value, e.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  if (rank == 0) rank = 1;
  return values[std::min(rank, values.size()) - 1];
}

double PeakRssMb() {
  // VmHWM honours the reset below; ru_maxrss does not.
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof(line), f)) {
      found = std::sscanf(line, "VmHWM: %llu kB", &kib) == 1;
    }
    std::fclose(f);
    if (found) return static_cast<double>(kib) / 1024.0;
  }
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void ResetPeakRss() {
  malloc_trim(0);
  // "5" resets the peak RSS to the current RSS (proc(5), clear_refs).
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

uint64_t DigestBytes(const void* data, size_t size, uint64_t hash) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace perfbench
