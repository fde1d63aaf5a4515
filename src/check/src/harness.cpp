#include "ftmc/check/harness.hpp"

#include <algorithm>
#include <chrono>

#include "ftmc/common/contracts.hpp"
#include "ftmc/exec/parallel.hpp"
#include "ftmc/obs/registry.hpp"

namespace ftmc::check {
namespace {

/// Per-chunk fold state of one wave.
struct Accumulator {
  std::uint64_t pass = 0;
  std::uint64_t fail = 0;
  std::uint64_t skip = 0;
  std::vector<FailureRecord> failures;
};

void merge_into(Accumulator& into, Accumulator&& from) {
  into.pass += from.pass;
  into.fail += from.fail;
  into.skip += from.skip;
  for (FailureRecord& r : from.failures) {
    into.failures.push_back(std::move(r));
  }
}

Outcome run_guarded(const Property& property, const Case& c,
                    const PropertyContext& ctx) {
  try {
    return property.run(c, ctx);
  } catch (const std::exception& e) {
    return Outcome::fail(std::string("property threw: ") + e.what());
  }
}

}  // namespace

std::vector<const Property*> select_properties(
    const std::vector<std::string>& families,
    const std::vector<std::string>& properties) {
  const std::vector<Property>& registry = all_properties();
  for (const std::string& f : families) {
    FTMC_EXPECTS(std::any_of(registry.begin(), registry.end(),
                             [&f](const Property& p) { return p.family == f; }),
                 "unknown property family: \"" + f + "\"");
  }
  for (const std::string& p : properties) {
    FTMC_EXPECTS(find_property(p) != nullptr,
                 "unknown property: \"" + p + "\"");
  }
  std::vector<const Property*> selected;
  for (const Property& prop : all_properties()) {
    const bool family_ok =
        families.empty() ||
        std::find(families.begin(), families.end(),
                  std::string(prop.family)) != families.end();
    const bool name_ok =
        properties.empty() ||
        std::find(properties.begin(), properties.end(),
                  std::string(prop.name)) != properties.end();
    if (family_ok && name_ok) selected.push_back(&prop);
  }
  FTMC_EXPECTS(!selected.empty(),
               "property selection matches nothing to check");
  return selected;
}

HarnessResult run_harness(const HarnessOptions& options) {
  FTMC_EXPECTS(options.cases > 0, "harness needs at least one case");
  const std::vector<const Property*> selected =
      select_properties(options.families, options.properties);

  PropertyContext ctx;
  ctx.bugs = options.bugs;
  ctx.max_sim_horizon = options.max_sim_horizon;

  // Inert until the global registry is enabled.
  static obs::Counter cases_counter =
      obs::Registry::global().counter("check.cases");
  static obs::Counter fail_counter =
      obs::Registry::global().counter("check.failures");

  const auto started = std::chrono::steady_clock::now();
  const auto elapsed = [&started] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         started)
        .count();
  };

  HarnessResult result;
  for (const Property* p : selected) {
    result.selected.emplace_back(p->name);
  }

  // One case: run every selected property, shrink any failure on the
  // spot (worker-side, so shrinking parallelizes with the sweep).
  const auto run_case = [&](std::uint64_t index) {
    Accumulator acc;
    const Case c = draw_case(options.seed, index);
    for (const Property* property : selected) {
      const Outcome outcome = run_guarded(*property, c, ctx);
      switch (outcome.verdict) {
        case Verdict::kPass:
          ++acc.pass;
          break;
        case Verdict::kSkip:
          ++acc.skip;
          break;
        case Verdict::kFail: {
          ++acc.fail;
          FailureRecord record;
          record.property = std::string(property->name);
          record.family = std::string(property->family);
          record.message = outcome.message;
          record.base_seed = options.seed;
          record.original = c;
          const ShrinkResult shrunk =
              shrink_case(c, *property, ctx, options.shrink);
          record.minimal = shrunk.minimal;
          record.shrink_evaluations = shrunk.evaluations;
          record.shrink_accepted = shrunk.accepted;
          acc.failures.push_back(std::move(record));
          break;
        }
      }
    }
    cases_counter.inc();
    return acc;
  };

  // Waves: fixed mode runs one wave of `cases`; budget mode runs
  // bounded waves and re-checks the clock at each case boundary.
  const std::uint64_t wave_size =
      options.budget_sec > 0.0
          ? std::min<std::uint64_t>(
                options.cases,
                std::max<std::uint64_t>(
                    256, static_cast<std::uint64_t>(
                             exec::resolve_threads(options.threads)) *
                             64))
          : options.cases;

  const auto report_progress = [&](std::uint64_t done, std::uint64_t total) {
    if (!options.progress) return;
    obs::Progress p;
    p.done = static_cast<std::size_t>(done);
    p.total = static_cast<std::size_t>(total);
    p.wall_seconds = elapsed();
    options.progress(p);
  };

  std::uint64_t next_index = 0;
  while (next_index < options.cases) {
    if (options.budget_sec > 0.0 && next_index > 0 &&
        elapsed() >= options.budget_sec) {
      result.budget_exhausted = true;
      break;
    }
    const std::uint64_t wave =
        std::min<std::uint64_t>(wave_size, options.cases - next_index);
    const std::uint64_t wave_start = next_index;

    exec::ParallelOptions popt;
    popt.threads = options.threads;
    popt.phase = "check";

    Accumulator acc = exec::parallel_map_reduce<Accumulator>(
        static_cast<std::size_t>(wave), popt,
        [&](std::size_t i) {
          return run_case(wave_start + static_cast<std::uint64_t>(i));
        },
        merge_into);

    result.checks_pass += acc.pass;
    result.checks_fail += acc.fail;
    result.checks_skip += acc.skip;
    for (FailureRecord& r : acc.failures) {
      fail_counter.inc();
      if (result.failures.size() < options.max_recorded_failures) {
        result.failures.push_back(std::move(r));
      }
    }
    next_index += wave;
    result.cases_run = next_index;
    report_progress(next_index, options.cases);
  }
  // A budget stop ends the run short of options.cases; the last report
  // still says done == total, so a progress meter closes its line.
  if (result.budget_exhausted) report_progress(next_index, next_index);

  result.wall_seconds = elapsed();
  return result;
}

Outcome replay_repro(const Repro& repro, const PropertyContext& ctx) {
  const Property* property = find_property(repro.property);
  FTMC_EXPECTS(property != nullptr,
               "repro names unknown property \"" + repro.property + "\"");
  return run_guarded(*property, repro.c, ctx);
}

}  // namespace ftmc::check
