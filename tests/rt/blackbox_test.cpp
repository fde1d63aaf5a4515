// Tests of the always-on flight recorder (rt/flight_recorder.hpp), its
// dump format (rt/blackbox_io.hpp) and the dump-replay machinery
// (check/blackbox.hpp): ring mechanics across wraparound, the
// admission/scheduling alignment contract, the JSON round trip, and the
// registered blackbox_replay property on a concrete case.
#include "ftmc/rt/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "ftmc/check/blackbox.hpp"
#include "ftmc/check/replay.hpp"
#include "ftmc/fms/fms.hpp"
#include "ftmc/rt/blackbox_io.hpp"
#include "ftmc/rt/posix_host.hpp"
#include "ftmc/sim/engine.hpp"
#include "ftmc/sim/model.hpp"

namespace rt = ftmc::rt;
namespace sim = ftmc::sim;
namespace check = ftmc::check;
namespace fms = ftmc::fms;

namespace {

std::vector<rt::Task> fms_tasks(double fault_prob) {
  std::vector<rt::Task> tasks = sim::build_sim_tasks(
      fms::canonical_fms_instance(), /*n_hi=*/3, /*n_lo=*/2, /*n_adapt=*/2,
      /*virtual_deadline_factor=*/0.7);
  for (rt::Task& t : tasks) t.failure_prob = fault_prob;
  return tasks;
}

rt::PosixHostConfig fms_config(std::size_t ring_capacity) {
  rt::PosixHostConfig cfg;
  cfg.core.policy = rt::Policy::kEdfVd;
  cfg.core.adaptation = rt::Adaptation::kDegradation;
  cfg.core.degradation_factor = fms::kFmsDegradationFactor;
  cfg.core.mode_reset_on_idle = true;
  cfg.core.black_box_capacity = ring_capacity;
  cfg.horizon = 2'000'000;  // 2 simulated seconds
  cfg.time_scale = 0.0;     // free-run
  cfg.seed = 42;
  cfg.fault_model = rt::FaultModel::kBernoulli;
  cfg.trace_capacity = 200'000;
  return cfg;
}

rt::BlackBoxRecord make_record(std::uint64_t job) {
  rt::BlackBoxRecord r;
  r.kind = rt::RecordKind::kStart;
  r.job = job;
  return r;
}

}  // namespace

TEST(RtBlackBox, RingKeepsTheNewestRecordsAcrossWraparound) {
  rt::FlightRecorder ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.size(), 0u);

  for (std::uint64_t i = 0; i < 10; ++i) {
    const rt::BlackBoxRecord r = make_record(i);
    ring.record(r.time, r.kind, r.task, r.job, r.detail, r.release,
                r.abs_deadline);
  }
  EXPECT_EQ(ring.total(), 10u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  // Oldest-first iteration over the surviving tail: jobs 6..9 with
  // their global sequence numbers intact.
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring.at(i).seq, 6u + i);
    EXPECT_EQ(ring.at(i).job, 6u + i);
  }

  std::vector<rt::BlackBoxRecord> copied;
  ring.copy_to(copied);
  ASSERT_EQ(copied.size(), 4u);
  EXPECT_EQ(copied.front().seq, 6u);
  EXPECT_EQ(copied.back().seq, 9u);
}

TEST(RtBlackBox, ZeroCapacityStillCountsRecords) {
  rt::FlightRecorder ring(0);
  const rt::BlackBoxRecord r = make_record(0);
  ring.record(r.time, r.kind, r.task, r.job, r.detail, r.release,
              r.abs_deadline);
  EXPECT_EQ(ring.total(), 1u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 1u);
}

TEST(RtBlackBox, RecordKindNamesRoundTrip) {
  for (int k = 0; k <= static_cast<int>(rt::RecordKind::kReject); ++k) {
    const rt::RecordKind kind = static_cast<rt::RecordKind>(k);
    rt::RecordKind back;
    ASSERT_TRUE(rt::record_kind_from_string(rt::to_string(kind), back))
        << rt::to_string(kind);
    EXPECT_EQ(back, kind);
  }
  rt::RecordKind unused;
  EXPECT_FALSE(rt::record_kind_from_string("not-a-kind", unused));
}

TEST(RtBlackBox, SimulatorRecorderAlignsWithItsOwnTrace) {
  const std::vector<sim::SimTask> tasks = sim::build_sim_tasks(
      fms::canonical_fms_instance(), 3, 2, 2, 0.7);
  sim::SimConfig cfg;
  cfg.horizon = 1'000'000;
  cfg.seed = 7;
  cfg.trace_capacity = 200'000;  // 0 would disable the trace entirely
  sim::Simulator simulator(tasks, cfg);
  (void)simulator.run();

  const rt::FlightRecorder& bb = simulator.black_box();
  const std::vector<sim::TraceEvent>& trace = simulator.trace();
  const std::uint64_t admissions = bb.total() - trace.size();
  ASSERT_EQ(admissions, tasks.size());
  for (std::size_t i = 0; i < bb.size(); ++i) {
    const rt::BlackBoxRecord& r = bb.at(i);
    if (r.seq < admissions) {
      EXPECT_EQ(r.kind, rt::RecordKind::kAdmit);
      continue;
    }
    const sim::TraceEvent& e = trace[static_cast<std::size_t>(
        r.seq - admissions)];
    EXPECT_EQ(r.time, e.time);
    EXPECT_EQ(static_cast<int>(r.kind), static_cast<int>(e.kind));
    EXPECT_EQ(r.task, e.task);
    EXPECT_EQ(r.job, e.job);
    EXPECT_EQ(r.detail, e.detail);
  }
}

TEST(RtBlackBox, WrappedPosixDumpParsesBackAndReplays) {
  // Ring far smaller than the event count: only the newest tail
  // survives, which is exactly what a post-mortem has to align.
  const std::vector<rt::Task> tasks = fms_tasks(0.05);
  const rt::PosixHostConfig cfg = fms_config(/*ring_capacity=*/64);
  rt::PosixHost host(tasks, cfg);
  const rt::PosixResult result = host.run();
  ASSERT_GT(result.blackbox_total, 64u) << "run too small to wrap the ring";
  ASSERT_EQ(result.blackbox.size(), 64u);
  EXPECT_EQ(result.blackbox_admissions, tasks.size());

  std::ostringstream os;
  rt::write_blackbox_json(os, tasks, cfg, result);
  const check::BlackBoxDump dump = check::parse_blackbox_json(os.str());
  EXPECT_EQ(dump.total_records, result.blackbox_total);
  EXPECT_EQ(dump.admission_records, result.blackbox_admissions);
  EXPECT_EQ(dump.records.size(), result.blackbox.size());
  EXPECT_EQ(dump.dropped_records, result.blackbox_total - 64u);
  EXPECT_EQ(dump.tasks.size(), tasks.size());
  EXPECT_EQ(dump.config.seed, cfg.seed);
  EXPECT_EQ(dump.config.horizon, cfg.horizon);

  const check::ReplayDiff diff = check::replay_blackbox_through_sim(dump);
  EXPECT_TRUE(diff.identical) << diff.message;
}

TEST(RtBlackBox, ReplayDetectsAMutatedRecord) {
  const std::vector<rt::Task> tasks = fms_tasks(0.05);
  const rt::PosixHostConfig cfg = fms_config(/*ring_capacity=*/4096);
  rt::PosixHost host(tasks, cfg);
  const rt::PosixResult result = host.run();

  std::ostringstream os;
  rt::write_blackbox_json(os, tasks, cfg, result);
  check::BlackBoxDump dump = check::parse_blackbox_json(os.str());
  ASSERT_GT(dump.records.size(), 20u);
  dump.records[dump.records.size() / 2].time += 1;

  const check::ReplayDiff diff = check::replay_blackbox_through_sim(dump);
  EXPECT_FALSE(diff.identical);
  EXPECT_NE(diff.message.find("diverges"), std::string::npos)
      << diff.message;
}

TEST(RtBlackBox, TruncatedRunReplaysAsAPrefix) {
  // A SIGINT-style stop produces a prefix of the full schedule; the dump
  // of the truncated run must still replay clean against the simulator
  // (which runs the configured horizon, i.e. a superset of the events).
  const std::vector<rt::Task> tasks = fms_tasks(0.05);
  const rt::PosixHostConfig cfg = fms_config(/*ring_capacity=*/1 << 16);
  rt::PosixHost host(tasks, cfg);
  host.request_stop();  // stop before the first scheduling quantum
  const rt::PosixResult result = host.run();
  EXPECT_LT(result.trace.size(), 50u);

  std::ostringstream os;
  rt::write_blackbox_json(os, tasks, cfg, result);
  const check::BlackBoxDump dump = check::parse_blackbox_json(os.str());
  EXPECT_EQ(dump.admission_records, tasks.size());
  const check::ReplayDiff diff = check::replay_blackbox_through_sim(dump);
  EXPECT_TRUE(diff.identical) << diff.message;
}

TEST(RtBlackBox, ParserRejectsCorruptedDumps) {
  const std::vector<rt::Task> tasks = fms_tasks(0.02);
  const rt::PosixHostConfig cfg = fms_config(/*ring_capacity=*/256);
  rt::PosixHost host(tasks, cfg);
  const rt::PosixResult result = host.run();
  std::ostringstream os;
  rt::write_blackbox_json(os, tasks, cfg, result);
  const std::string good = os.str();

  // Unknown format marker.
  {
    std::string bad = good;
    bad.replace(bad.find("ftmc-blackbox-v1"), 16, "ftmc-blackbox-v9");
    EXPECT_THROW((void)check::parse_blackbox_json(bad), std::exception);
  }
  // Accounting that does not add up.
  {
    check::BlackBoxDump dump = check::parse_blackbox_json(good);
    std::string bad = good;
    const std::string needle =
        "\"total_records\": " + std::to_string(dump.total_records);
    ASSERT_NE(bad.find(needle), std::string::npos);
    bad.replace(bad.find(needle), needle.size(),
                "\"total_records\": " +
                    std::to_string(dump.total_records + 1));
    EXPECT_THROW((void)check::parse_blackbox_json(bad), std::exception);
  }
  // Malformed JSON.
  EXPECT_THROW((void)check::parse_blackbox_json("{\"format\":"),
               std::exception);
}

TEST(RtBlackBox, CsvDumpHasOneLinePerRecord) {
  const std::vector<rt::Task> tasks = fms_tasks(0.02);
  const rt::PosixHostConfig cfg = fms_config(/*ring_capacity=*/128);
  rt::PosixHost host(tasks, cfg);
  const rt::PosixResult result = host.run();

  std::ostringstream os;
  rt::write_blackbox_csv(os, result.blackbox);
  std::istringstream lines(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "seq,time,kind,task,job,detail,release,deadline");
  std::size_t rows = 0;
  while (std::getline(lines, line)) ++rows;
  EXPECT_EQ(rows, result.blackbox.size());
}

TEST(RtBlackBox, RegisteredPropertyPassesOnTheFmsCase) {
  check::Case c;
  c.ts = fms::canonical_fms_instance();
  c.n_hi = 3;
  c.n_lo = 2;
  c.n_adapt = 2;
  c.degradation_factor = fms::kFmsDegradationFactor;
  c.seed = 123;
  const check::PropertyContext ctx;

  const check::Outcome outcome = check::p_blackbox_replay(c, ctx);
  EXPECT_EQ(outcome.verdict, check::Verdict::kPass) << outcome.message;
}
