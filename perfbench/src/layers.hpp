/// \file layers.hpp
/// \brief The per-layer metrics of the traced run, computed from the
///        tracer's spans plus the exact work counts the workloads collect.
///        Every workload prints the full list; a layer the workload does
///        not call reads 0.
#pragma once

#include <cstdint>
#include <vector>

#include "ftmc/core/ft_scheduler.hpp"
#include "harness.hpp"

namespace perfbench {

/// Span names. A `_us` metric is the mean duration of the spans it names,
/// except io.parse_us, io.render_us, serve.self_us and net.frame_us, which
/// are per request, and campaign.cell_self_us, which is per cell.
namespace span {
inline constexpr const char* kGenerate = "taskgen.generate_task_set";
inline constexpr const char* kFts = "core.ft_schedule";
inline constexpr const char* kFtsReplay = "core.ft_schedule.replay";
inline constexpr const char* kPfhPlain = "core.pfh_plain";
inline constexpr const char* kPfhKilling = "core.pfh_lo_killing";
inline constexpr const char* kPfhDegradation = "core.pfh_lo_degradation";
inline constexpr const char* kConvert = "core.convert_to_mc";
inline constexpr const char* kRunCell = "campaign.run_cell";
inline constexpr const char* kTest = "mcs.schedulable";
inline constexpr const char* kMcDbf = "mcs.analyze_mc_dbf";
inline constexpr const char* kSensitivity = "mcs.max_wcet_scaling";
inline constexpr const char* kSimBuild = "sim.build";
inline constexpr const char* kSimRun = "sim.run";
inline constexpr const char* kFrame = "net.frame";
inline constexpr const char* kHandle = "serve.handle";
inline constexpr const char* kParse = "io.parse";
inline constexpr const char* kRender = "io.render";
inline constexpr const char* kHash = "campaign.content_hash";
}  // namespace span

/// Exact work counts gathered during the traced round(s).
struct LayerCounters {
  std::uint64_t ops = 0;
  std::uint64_t pi_points = 0;      ///< sum of r_i over killing evaluations
  std::uint64_t killing_evals = 0;
  std::uint64_t edf_evals = 0;      ///< mcs.mc_dbf.edf_evals deltas
  std::uint64_t sensitivity_probes = 0;
  std::uint64_t sim_jobs = 0, sim_attempts = 0, sim_preemptions = 0,
                sim_mode_switches = 0, sim_kills = 0, rt_records = 0;
  std::uint64_t bytes_in = 0, bytes_out = 0;
  std::uint64_t cache_hits = 0;     ///< as the server's responses report them
  std::uint64_t cache_lookups = 0;  ///< queries of the traced requests
  double replayed_us = 0.0;  ///< io/hash/analysis replayed for serve.self_us
  std::uint64_t replay_mismatches = 0;
};

[[nodiscard]] std::vector<Metric> layer_metrics(const Tracer& tracer,
                                                const LayerCounters& counters);

/// Replays the profile search and conversions FT-S performs inside
/// core::ft_schedule through the same public calls, with a span around
/// each, and counts a mismatch when the composed outcome differs from
/// `own`. `test` is the schedulability test for line 8 (the unwrapped
/// technique; null selects the closed form as FT-S does).
void replay_ft_schedule(const ftmc::core::FtTaskSet& ts,
                        const ftmc::core::FtsConfig& cfg,
                        const ftmc::mcs::SchedulabilityTest* test,
                        const ftmc::core::FtsResult& own, Tracer* tracer,
                        LayerCounters& counters);

}  // namespace perfbench
