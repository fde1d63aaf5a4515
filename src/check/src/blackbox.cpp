#include "ftmc/check/blackbox.hpp"

#include <algorithm>
#include <sstream>

#include "ftmc/common/contracts.hpp"
#include "ftmc/io/json.hpp"
#include "ftmc/obs/registry.hpp"
#include "ftmc/rt/blackbox_io.hpp"
#include "ftmc/sim/engine.hpp"

namespace ftmc::check {

namespace {

rt::Task parse_task(const io::json::Value& t) {
  rt::Task p;
  p.name = t.at("name").as_string();
  p.period = static_cast<rt::Tick>(t.at("period").as_uint64());
  p.deadline = static_cast<rt::Tick>(t.at("deadline").as_uint64());
  p.wcet = static_cast<rt::Tick>(t.at("wcet").as_uint64());
  p.virtual_deadline =
      static_cast<rt::Tick>(t.at("virtual_deadline").as_uint64());
  const std::string& crit = t.at("crit").as_string();
  FTMC_EXPECTS(crit == "HI" || crit == "LO",
               "blackbox: task crit must be HI or LO");
  p.crit = crit == "HI" ? CritLevel::HI : CritLevel::LO;
  p.max_attempts = static_cast<int>(t.at("max_attempts").as_uint64());
  p.adapt_threshold = static_cast<int>(t.at("adapt_threshold").as_uint64());
  p.priority = static_cast<int>(t.at("priority").as_number());
  p.segments = static_cast<int>(t.at("segments").as_uint64());
  p.failure_prob = t.at("failure_prob").as_number();
  p.checkpoint_overhead = t.at("checkpoint_overhead").as_number();
  return p;
}

rt::BlackBoxRecord parse_record(const io::json::Value& r) {
  rt::BlackBoxRecord rec;
  rec.seq = r.at("seq").as_uint64();
  rec.time = static_cast<rt::Tick>(r.at("time").as_uint64());
  rt::RecordKind kind;
  FTMC_EXPECTS(
      rt::record_kind_from_string(r.at("kind").as_string().c_str(), kind),
      "blackbox: unknown record kind '" + r.at("kind").as_string() + "'");
  rec.kind = kind;
  rec.task = static_cast<std::uint32_t>(r.at("task").as_uint64());
  rec.job = r.at("job").as_uint64();
  rec.detail = static_cast<std::uint32_t>(r.at("detail").as_uint64());
  rec.release = static_cast<rt::Tick>(r.at("release").as_uint64());
  rec.abs_deadline = static_cast<rt::Tick>(r.at("deadline").as_uint64());
  return rec;
}

std::string describe(const rt::BlackBoxRecord& r) {
  std::ostringstream os;
  os << "seq=" << r.seq << " t=" << r.time << " " << rt::to_string(r.kind)
     << " task=" << r.task << " job=" << r.job << " detail=" << r.detail;
  return os.str();
}

}  // namespace

BlackBoxDump parse_blackbox_json(std::string_view text) {
  const io::json::Value doc = io::json::parse(text);
  FTMC_EXPECTS(doc.at("format").as_string() == "ftmc-blackbox-v1",
               "blackbox: unsupported dump format '" +
                   doc.at("format").as_string() + "'");
  BlackBoxDump dump;

  const io::json::Value& cfg = doc.at("config");
  rt::PosixHostConfig& c = dump.config;
  FTMC_EXPECTS(
      rt::policy_from_string(cfg.at("policy").as_string(), c.core.policy),
      "blackbox: unknown policy '" + cfg.at("policy").as_string() + "'");
  FTMC_EXPECTS(rt::adaptation_from_string(cfg.at("adaptation").as_string(),
                                          c.core.adaptation),
               "blackbox: unknown adaptation '" +
                   cfg.at("adaptation").as_string() + "'");
  c.core.degradation_factor = cfg.at("degradation_factor").as_number();
  c.core.mode_reset_on_idle = cfg.at("mode_reset_on_idle").as_bool();
  c.core.admission_control = cfg.at("admission_control").as_bool();
  c.core.max_jobs = static_cast<std::size_t>(cfg.at("max_jobs").as_uint64());
  c.core.allow_job_growth = cfg.at("allow_job_growth").as_bool();
  c.core.black_box_capacity =
      static_cast<std::size_t>(cfg.at("black_box_capacity").as_uint64());
  c.horizon = static_cast<rt::Tick>(cfg.at("horizon").as_uint64());
  c.time_scale = cfg.at("time_scale").as_number();
  c.seed = cfg.at("seed").as_uint64();
  FTMC_EXPECTS(rt::fault_model_from_string(cfg.at("fault_model").as_string(),
                                           c.fault_model),
               "blackbox: unknown fault model '" +
                   cfg.at("fault_model").as_string() + "'");

  for (const io::json::Value& t : doc.at("tasks").items()) {
    dump.tasks.push_back(parse_task(t));
  }
  FTMC_EXPECTS(!dump.tasks.empty(), "blackbox: dump carries no tasks");

  dump.total_records = doc.at("total_records").as_uint64();
  dump.admission_records = doc.at("admission_records").as_uint64();
  dump.dropped_records = doc.at("dropped_records").as_uint64();
  for (const io::json::Value& r : doc.at("records").items()) {
    dump.records.push_back(parse_record(r));
  }
  FTMC_EXPECTS(dump.records.size() + dump.dropped_records ==
                   dump.total_records,
               "blackbox: record accounting does not add up");
  // Surviving records must be consecutive and end at the newest seq.
  for (std::size_t i = 0; i < dump.records.size(); ++i) {
    FTMC_EXPECTS(dump.records[i].seq == dump.dropped_records + i,
                 "blackbox: record sequence numbers are not contiguous");
  }
  return dump;
}

ReplayDiff replay_blackbox_through_sim(const BlackBoxDump& dump) {
  // The simulator must keep enough trace to cover the highest sequence
  // number the dump can name; admission records sit before event 0.
  rt::PosixHostConfig cfg = dump.config;
  cfg.trace_capacity = static_cast<std::size_t>(dump.total_records);
  const std::vector<rt::Event> sim_trace = replay_sim_trace(dump.tasks, cfg);

  ReplayDiff diff;
  diff.posix_events = dump.records.size();
  diff.sim_events = sim_trace.size();
  for (std::size_t i = 0; i < dump.records.size(); ++i) {
    const rt::BlackBoxRecord& r = dump.records[i];
    if (r.kind == rt::RecordKind::kAdmit ||
        r.kind == rt::RecordKind::kReject) {
      if (r.seq >= dump.admission_records) {
        diff.first_divergence = i;
        diff.message = "admission record after the admission prefix: {" +
                       describe(r) + "}";
        return diff;
      }
      continue;
    }
    if (r.seq < dump.admission_records) {
      diff.first_divergence = i;
      diff.message = "scheduling record inside the admission prefix: {" +
                     describe(r) + "}";
      return diff;
    }
    const std::uint64_t index = r.seq - dump.admission_records;
    if (index >= sim_trace.size()) {
      diff.first_divergence = i;
      diff.message = "record names simulator event " + std::to_string(index) +
                     " beyond the replayed trace (" +
                     std::to_string(sim_trace.size()) + " events): {" +
                     describe(r) + "}";
      return diff;
    }
    const rt::Event& e = sim_trace[static_cast<std::size_t>(index)];
    if (r.time == e.time &&
        static_cast<int>(r.kind) == static_cast<int>(e.kind) &&
        r.task == e.task && r.job == e.job && r.detail == e.detail &&
        r.release == e.release && r.abs_deadline == e.abs_deadline) {
      continue;
    }
    diff.first_divergence = i;
    diff.message = "record " + std::to_string(r.seq) + " diverges: blackbox {" +
                   describe(r) + "} vs sim {" + describe(e) + "}";
    return diff;
  }
  diff.identical = true;
  diff.first_divergence = SIZE_MAX;
  return diff;
}

Outcome p_blackbox_replay(const Case& c, const PropertyContext& ctx) {
  if (c.ts.size() == 0) return Outcome::skip("empty set");
  std::vector<rt::Task> tasks =
      sim::build_sim_tasks(c.ts, c.n_hi, c.n_lo, c.n_adapt, 0.75);
  // Inflated fault rate so re-executions, mode switches and degraded
  // releases occur inside the bounded window (mirrors the bernoulli
  // replay property).
  for (rt::Task& t : tasks) t.failure_prob = 0.05;

  rt::PosixHostConfig cfg;
  cfg.core.policy = rt::Policy::kEdfVd;
  cfg.core.adaptation = rt::Adaptation::kDegradation;
  cfg.core.degradation_factor = std::max(c.degradation_factor, 1.0);
  cfg.core.mode_reset_on_idle = true;
  cfg.core.allow_job_growth = true;
  // Deliberately tiny ring: busy cases wrap many times over, so the
  // property exercises exactly the alignment a post-mortem relies on.
  cfg.core.black_box_capacity = 48;
  cfg.horizon = std::min<sim::Tick>(
      bounded_hyperperiod(c.ts, ctx.max_sim_horizon), 2'000'000);
  cfg.time_scale = 0.0;
  cfg.seed = c.seed;
  cfg.fault_model = rt::FaultModel::kBernoulli;
  cfg.trace_capacity = 200'000;

  rt::PosixHost host(tasks, cfg);
  const rt::PosixResult result = host.run();
  static obs::Counter blackbox_replays =
      obs::Registry::global().counter("check.blackbox_replays");
  blackbox_replays.inc();

  std::ostringstream os;
  rt::write_blackbox_json(os, tasks, cfg, result);
  BlackBoxDump dump;
  try {
    dump = parse_blackbox_json(os.str());
  } catch (const std::exception& e) {
    return Outcome::fail(std::string("blackbox dump does not parse back: ") +
                         e.what());
  }
  if (dump.total_records != result.blackbox_total ||
      dump.records.size() != result.blackbox.size() ||
      dump.admission_records != result.blackbox_admissions) {
    return Outcome::fail("blackbox dump round-trip lost records");
  }
  const ReplayDiff diff = replay_blackbox_through_sim(dump);
  if (diff.identical) return Outcome::pass();
  std::ostringstream msg;
  msg << "blackbox replay: " << diff.message << " (seed=" << c.seed
      << ", horizon=" << cfg.horizon << ")";
  return Outcome::fail(msg.str());
}

}  // namespace ftmc::check
