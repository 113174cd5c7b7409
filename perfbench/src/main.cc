// perfbench: the repository benchmark. Run it through run.py, which
// builds this binary and normalizes its output; see README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--work-dir DIR]
//
// Prints the environment stamp and per-phase operation counts, then, as
// the last line, one JSON object with the keys correct, attempted, failed
// and metrics (every metric the workload measured). Exit code 0 on a completed run
// (whatever it measured), non-zero when it could not run at all.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <system_error>

#include "pipeline.h"
#include "report.h"
#include "serve.h"
#include "trace.h"

namespace {

using perfbench::Args;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "table2|attr-terrain|serve-mixed|serve-cold-tiles --seed N "
               "--seconds S --trace 0|1 [--smoke] [--work-dir DIR]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* why) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      *why = "missing value for " + flag;
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = std::strtol(value, &end, 10) != 0;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      *why = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && (end == value || *end != '\0')) {
      *why = "bad number for " + flag + ": " + value;
      return false;
    }
  }
  if (args->workload.empty()) {
    *why = "--workload is required";
    return false;
  }
  if (!(args->seconds > 0.0)) {
    *why = "--seconds must be positive";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string why;
  if (!ParseArgs(argc, argv, &args, &why)) return Usage(why.c_str());

  using Runner = int (*)(const Args&, Report*);
  const std::map<std::string, Runner> runners = {
      {"table2", RunTable2},
      {"attr-terrain", RunAttrTerrain},
      {"serve-mixed", RunServeMixed},
      {"serve-cold-tiles", RunServeColdTiles},
  };
  // Checked before the name becomes part of a path that is wiped.
  const auto runner = runners.find(args.workload);
  if (runner == runners.end()) {
    return Usage(("unknown workload " + args.workload).c_str());
  }

  Environment env;
  if (!StampEnvironment(&env, &why)) {
    std::fprintf(stderr, "perfbench: refusing to report numbers: %s\n",
                 why.c_str());
    return 3;
  }
  const std::string work_dir = args.work_dir + "/" + args.workload;
  args.work_dir = work_dir;
  // Every run starts from an empty bench-local cache.
  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);
  if (ec || !std::filesystem::create_directories(work_dir, ec)) {
    std::fprintf(stderr, "perfbench: cannot prepare %s\n", work_dir.c_str());
    return 1;
  }

  Report report;
  const int rc = runner->second(args, &report);
  if (rc != 0) return rc;

  if (!args.trace) {
    const double attempted = static_cast<double>(report.attempted());
    report.Add("ok_share",
               attempted > 0 ? 1.0 - report.failed() / attempted : 0.0,
               "ratio");
  } else {
    const std::string path = work_dir + "/trace.json";
    report.Check("trace.write", WriteChromeTrace(path),
                 "cannot write " + path);
    std::printf("trace %s\n", path.c_str());
  }
  report.PrintHuman(env, args);
  report.PrintJson();
  return 0;
}
