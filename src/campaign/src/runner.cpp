#include "ftmc/campaign/runner.hpp"

#include <memory>

#include "ftmc/core/ft_scheduler.hpp"
#include "ftmc/exec/parallel.hpp"
#include "ftmc/mcs/edf_vd.hpp"
#include "ftmc/mcs/edf_vd_degradation.hpp"
#include "ftmc/mcs/fixed_priority.hpp"
#include "ftmc/mcs/mc_dbf.hpp"
#include "ftmc/mcs/opa.hpp"
#include "ftmc/obs/span.hpp"
#include "ftmc/taskgen/generator.hpp"

namespace ftmc::campaign {

mcs::SchedulabilityTestPtr make_schedulability_test(
    Scheduler scheduler, double degradation_factor) {
  switch (scheduler) {
    case Scheduler::kEdfVdKilling:
      return std::make_shared<mcs::EdfVdTest>();
    case Scheduler::kEdfVdDegradation:
      return std::make_shared<mcs::EdfVdDegradationTest>(degradation_factor);
    case Scheduler::kAmcRtb: return std::make_shared<mcs::AmcRtbTest>();
    case Scheduler::kAmcRtbOpa:
      return std::make_shared<mcs::AmcRtbOpaTest>();
    case Scheduler::kMcDbf: return std::make_shared<mcs::McDbfTest>();
  }
  return nullptr;
}

mcs::SchedulabilityTestPtr make_fts_test(Scheduler scheduler) {
  switch (scheduler) {
    // Null selects the built-in EDF-VD family (Algorithm 2 / Eq. 12),
    // matching the fig3 benches.
    case Scheduler::kEdfVdKilling:
    case Scheduler::kEdfVdDegradation: return nullptr;
    default: return make_schedulability_test(scheduler, 0.0);
  }
}

namespace {

[[nodiscard]] taskgen::GeneratorParams generator_params(
    const CellSpec& cell) {
  taskgen::GeneratorParams params;
  params.u_min = cell.generator.u_min;
  params.u_max = cell.generator.u_max;
  params.period_min = cell.generator.period_min_ms;
  params.period_max = cell.generator.period_max_ms;
  params.period_distribution = cell.generator.period_distribution;
  params.p_hi = cell.generator.p_hi;
  params.target_utilization = cell.utilization;
  params.failure_prob = cell.failure_prob;
  params.mapping = cell.mapping;
  return params;
}

}  // namespace

CellCounts run_cell(const CellSpec& cell) {
  const taskgen::GeneratorParams params = generator_params(cell);
  // The stream is a pure function of the cell spec (the seed was derived
  // from the spec grid); nothing here may depend on threads or order.
  taskgen::Rng rng(cell.seed);

  core::FtsConfig fts;
  fts.adaptation.kind = adaptation_of(cell.scheduler);
  fts.adaptation.degradation_factor = cell.degradation_factor;
  fts.adaptation.os_hours = cell.os_hours;
  fts.prefer_no_adaptation = true;
  fts.test = make_fts_test(cell.scheduler);

  CellCounts counts;
  for (int i = 0; i < cell.sets_per_point; ++i) {
    const core::FtTaskSet ts = taskgen::generate_task_set(params, rng);
    // A cell counts verdicts; the PFH report at the chosen profiles
    // (a full Eq. (5) sum per admitted set under killing) is never read.
    const core::FtsVerdict r = core::ft_verdict(ts, fts);
    if (r.feasible_without_adaptation) ++counts.accept_without;
    if (r.success) ++counts.accept_with;
  }
  return counts;
}

CampaignResult run_campaign(const CampaignSpec& spec,
                            const RunnerOptions& options) {
  Ledger ledger(spec, options.dir);
  std::vector<std::size_t> pending = ledger.pending();
  // A max_cells stop simulates a crash at a cell boundary: the dropped
  // tail simply never runs, so the journal stays consistent.
  if (options.max_cells > 0 && options.max_cells < pending.size()) {
    pending.resize(options.max_cells);
  }

  exec::ParallelOptions par;
  par.threads = options.threads;
  par.chunk_size = 1;  // one cell = sets_per_point schedulings
  par.phase = "campaign";
  par.progress = options.progress;
  exec::parallel_for(
      pending.size(), par, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const CellSpec& cell = ledger.cell(pending[i]);
          CellCounts counts;
          {
            obs::ScopedSpan span("campaign.cell");
            counts = run_cell(cell);
          }
          // Built as a fleet worker builds it, so the ledger checks the
          // hash of every record it folds, whichever front end sent it.
          (void)ledger.fold(cell.index,
                            CellRecord{cell_hash(cell), counts.accept_without,
                                       counts.accept_with});
        }
      });
  ledger.finish();
  return ledger.result();
}

CampaignResult resume_campaign(const std::string& dir,
                               RunnerOptions options) {
  const CampaignSpec spec = load_spec_file(dir + "/spec.json");
  options.dir = dir;
  return run_campaign(spec, options);
}

}  // namespace ftmc::campaign
