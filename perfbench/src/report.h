// Result collection for one benchmark run: metrics, per-phase operation
// accounting, output checks, the environment stamp, and the final JSON
// line.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and a few hundred requests, for the benchmark's own
  /// smoke test. Never used for reported numbers.
  bool smoke = false;
  /// Scratch directory for the run's artifact cache and trace file.
  std::string work_dir = ".bench_build/work";
};

/// Where and how the numbers were taken.
struct Environment {
  uint32_t nproc = 0;    ///< CPUs this process may run on
  uint32_t threads = 0;  ///< the resolved parallel width, <= nproc
  std::string kernel;    ///< active sorted-run intersection kernel
  std::string build_type;
  std::string compiler;
  std::string commit;
};

/// Stamps the environment. Returns false, with `why`, when numbers taken
/// here must not be reported: a non-Release build, or a thread count
/// above nproc.
bool StampEnvironment(Environment* env, std::string* why);

class Report {
 public:
  /// A metric as measured; printed with every digit.
  void Add(const std::string& name, double value, const std::string& unit);

  /// One attempted operation in `phase`; `ok` false counts it failed.
  /// Error replies, refusals and output-check mismatches all count.
  void Op(const std::string& phase, bool ok);
  /// An output check: counts one operation in `phase`, and on mismatch
  /// prints `what` to stderr and marks the run incorrect.
  bool Check(const std::string& phase, bool ok, const std::string& what);

  uint64_t attempted() const;
  uint64_t failed() const;

  /// Human-readable block (environment, phases, failed_share) to stdout.
  void PrintHuman(const Environment& env, const Args& args) const;
  /// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
  void PrintJson() const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  struct PhaseCount {
    uint64_t attempted = 0;
    uint64_t failed = 0;
  };
  std::map<std::string, Entry> metrics_;
  std::vector<std::string> order_;  // insertion order for printing
  std::map<std::string, PhaseCount> phases_;
  bool checks_ok_ = true;
};

/// Median of `values` (mean of the middle pair for even sizes); 0 when
/// empty.
double Median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q);
/// Peak resident set size of this process since start or since the last
/// ResetPeakRss(), MiB.
double PeakRssMb();
/// Returns the heap's free pages to the system, then restarts the peak
/// from the current resident set, so what the benchmark discarded before
/// (repeated set-ups) does not count.
void ResetPeakRss();

/// FNV-1a over raw bytes; the input digests use it so "same seed, same
/// inputs" is checked rather than assumed.
uint64_t DigestBytes(const void* data, size_t size,
                     uint64_t hash = 0xcbf29ce484222325ull);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
