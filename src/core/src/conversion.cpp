#include "ftmc/core/conversion.hpp"

#include "ftmc/obs/registry.hpp"

namespace ftmc::core {

mcs::McTaskSet convert_to_mc(const RoundModel& model) {
  // FT -> MC conversions performed; a proxy for profile-search effort
  // (off unless the global registry is enabled).
  static obs::Counter conversions =
      obs::Registry::global().counter("core.conversions");
  conversions.inc();

  const FtTaskSet& ts = model.tasks();
  ts.validate();
  mcs::McTaskSet out;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const FtTask& src = ts[i];
    mcs::McTask dst;
    dst.name = src.name;
    dst.period = src.period;
    dst.deadline = src.deadline;
    dst.crit = ts.crit_of(i);
    dst.wcet_hi = model.wcet_hi(i);
    dst.wcet_lo = dst.crit == CritLevel::HI ? model.wcet_lo(i) : dst.wcet_hi;
    out.add(std::move(dst));
  }
  out.validate();
  return out;
}

mcs::McTaskSet convert_to_mc(const FtTaskSet& ts, const PerTaskProfile& n,
                             const PerTaskProfile& n_adapt) {
  return convert_to_mc(RoundModel::reexecution(ts, n, n_adapt));
}

mcs::McTaskSet convert_to_mc(const FtTaskSet& ts, int n_hi, int n_lo,
                             int n_adapt_hi) {
  return convert_to_mc(FtMechanism::reexecution(ts, ExecAssumption::kFullWcet)
                           .at(n_hi, n_lo, n_adapt_hi));
}

mcs::McTaskSet convert_to_mc_checkpointed(
    const FtTaskSet& ts, const std::vector<CheckpointScheme>& schemes,
    const PerTaskProfile& fault_thresholds) {
  return convert_to_mc(
      RoundModel::checkpointing(ts, schemes, fault_thresholds));
}

}  // namespace ftmc::core
