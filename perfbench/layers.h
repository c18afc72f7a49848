// Per-layer ledger of a traced run.
//
// Two sources: the server's own counters and stage spans from the
// traced server epochs (ServerReport), and replays of the workload's
// inputs through single layers' public functions, timed here around
// each call. Each metric names the module it measures.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "client.h"
#include "plan.h"
#include "server_child.h"

namespace perfbench {

struct LayerMetric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct LayerInputs {
  const Workload* wl = nullptr;
  const ClientRun* run = nullptr;          // the last traced epoch
  const std::set<std::uint64_t>* failed = nullptr;
  const ServerReport* server = nullptr;    // its server's report
  // Medians over the untraced epochs of the client-side timings and of
  // server CPU per session (named mta.*). They are ledger-only: their
  // medians sit between two modes or move with the disk and the host's
  // load more than with the server (see README).
  std::vector<LayerMetric> untraced;
  double traced_cpu_us_per_session = 0;    // median over traced epochs
  Durability durability = Durability::kNone;
  std::string scratch_dir;                 // for the MFS replay store
};

std::vector<LayerMetric> PerLayerMetrics(const LayerInputs& in);

}  // namespace perfbench
