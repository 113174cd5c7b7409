// The serve workloads: an in-process daemon (QueryService behind
// ServiceServer on loopback) over a freshly built corpus, driven by
// BlockingClients from this process.
#ifndef PERFBENCH_SERVE_H_
#define PERFBENCH_SERVE_H_

#include "report.h"

namespace perfbench {

/// Closed loop, 3 connections, the dashboard verb mix over warm keys.
int RunServeMixed(const Args& args, Report* report);

/// Open loop at a fixed arrival rate, TILE only, a fresh camera per
/// request: every request misses the tile LRU, renders and evicts.
int RunServeColdTiles(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_H_
