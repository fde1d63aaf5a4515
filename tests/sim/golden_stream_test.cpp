/// Golden streams: whole event streams of both hosts pinned exactly.
///
/// Every other host test checks a property of a stream (no kill without a
/// switch, attempts spaced one WCET apart, ...). These runs pin the
/// streams themselves: each configuration's trace events, run statistics
/// and black-box records are folded into 64-bit FNV-1a digests and
/// compared with constants recorded before the simulator and the POSIX
/// host were merged onto one host loop. Together the runs cover every
/// policy, every adaptation, mode reset, synchronous / random-phase /
/// sporadic arrivals, WCET and uniform execution, Bernoulli and
/// exhaust-budget faults, and 1 and 3 checkpoint segments, plus the
/// free-running POSIX host under each fault model with killing and with
/// degradation.
///
/// The draws come from libstdc++'s std::mt19937_64 and its distributions;
/// a different standard library draws differently and needs new
/// constants. A digest mismatch prints the run's label and every digest,
/// so a deliberate change to the schedule can re-record them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "ftmc/fms/fms.hpp"
#include "ftmc/rt/posix_host.hpp"
#include "ftmc/sim/engine.hpp"
#include "ftmc/sim/model.hpp"

namespace ftmc {
namespace {

/// FNV-1a over the little-endian bytes of each 64-bit field.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add_signed(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Digests {
  std::uint64_t events = 0;  ///< trace length, for a readable failure
  std::uint64_t trace = 0;
  std::uint64_t stats = 0;
  std::uint64_t blackbox = 0;
};

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void expect_digests(const std::string& label, const Digests& got,
                    const Digests& want) {
  EXPECT_EQ(got.events, want.events) << label;
  EXPECT_EQ(got.trace, want.trace) << label;
  EXPECT_EQ(got.stats, want.stats) << label;
  EXPECT_EQ(got.blackbox, want.blackbox) << label;
  if (got.trace != want.trace || got.stats != want.stats ||
      got.blackbox != want.blackbox || got.events != want.events) {
    ADD_FAILURE() << "recorded {" << got.events << ", " << hex(got.trace)
                  << ", " << hex(got.stats) << ", " << hex(got.blackbox)
                  << "} for " << label;
  }
}

void add_stats(Digest& d, const sim::SimStats& stats) {
  for (const sim::TaskStats& t : stats.per_task) {
    d.add(t.released);
    d.add(t.completed);
    d.add(t.attempts);
    d.add(t.faults);
    d.add(t.job_failures);
    d.add(t.killed);
    d.add(t.deadline_misses);
    d.add_signed(t.max_response);
    d.add_signed(t.total_response);
  }
  d.add(stats.preemptions);
  d.add(stats.mode_switches);
  d.add(stats.mode_resets);
  d.add_signed(stats.first_mode_switch);
  d.add_signed(stats.busy_time);
  d.add_signed(stats.horizon);
}

std::uint64_t blackbox_digest(const rt::FlightRecorder& bb) {
  Digest d;
  d.add(bb.total());
  for (std::size_t i = 0; i < bb.size(); ++i) {
    const rt::BlackBoxRecord& r = bb.at(i);
    d.add(r.seq);
    d.add_signed(r.time);
    d.add(static_cast<std::uint64_t>(r.kind));
    d.add(r.task);
    d.add(r.job);
    d.add(r.detail);
    d.add_signed(r.release);
    d.add_signed(r.abs_deadline);
  }
  return d.value();
}

/// The FMS case study with its minimal safe profiles, faults inflated so
/// that re-execution and the mode switch happen within a short horizon.
std::vector<sim::SimTask> fms_tasks(double fault_prob, int segments) {
  std::vector<sim::SimTask> tasks = sim::build_sim_tasks(
      fms::canonical_fms_instance(), /*n_hi=*/3, /*n_lo=*/2, /*n_adapt=*/1,
      /*virtual_deadline_factor=*/0.7);
  for (sim::SimTask& t : tasks) {
    t.failure_prob = fault_prob;
    if (segments > 1) {
      t.segments = segments;
      t.checkpoint_overhead = 0.02;
    }
  }
  return tasks;
}

/// A small overloaded set: deadline misses and preemptions on every path.
std::vector<sim::SimTask> tight_tasks(double fault_prob) {
  struct Spec {
    const char* name;
    sim::Tick period, deadline, wcet, vd;
    CritLevel crit;
    int attempts, threshold, priority;
  };
  const Spec specs[] = {
      {"hi-fast", 4'000, 4'000, 700, 2'500, CritLevel::HI, 3, 1, 0},
      {"hi-slow", 11'000, 9'000, 1'800, 6'000, CritLevel::HI, 2, 1, 2},
      {"lo-a", 6'000, 6'000, 1'500, 6'000, CritLevel::LO, 2, 2, 1},
      {"lo-b", 15'000, 13'000, 3'100, 13'000, CritLevel::LO, 1, 1, 3},
  };
  std::vector<sim::SimTask> tasks;
  for (const Spec& s : specs) {
    sim::SimTask t;
    t.name = s.name;
    t.period = s.period;
    t.deadline = s.deadline;
    t.wcet = s.wcet;
    t.virtual_deadline = s.vd;
    t.crit = s.crit;
    t.max_attempts = s.attempts;
    t.adapt_threshold = s.threshold;
    t.priority = s.priority;
    t.failure_prob = fault_prob;
    tasks.push_back(t);
  }
  return tasks;
}

struct SimCase {
  const char* label;
  bool fms;  ///< FMS case study, else the tight set
  int segments;
  double fault_prob;
  sim::SimConfig config;
  Digests want;
};

Digests run_sim(const SimCase& c) {
  sim::Simulator simulator(
      c.fms ? fms_tasks(c.fault_prob, c.segments) : tight_tasks(c.fault_prob),
      c.config);
  const sim::SimStats stats = simulator.run();
  Digests out;
  Digest trace;
  // The five fields the simulator's trace recorded before the merge.
  for (const sim::TraceEvent& e : simulator.trace()) {
    trace.add_signed(e.time);
    trace.add(static_cast<std::uint64_t>(e.kind));
    trace.add(e.task);
    trace.add(e.job);
    trace.add(e.detail);
  }
  out.trace = trace.value();
  out.events = simulator.trace().size();
  Digest s;
  add_stats(s, stats);
  out.stats = s.value();
  out.blackbox = blackbox_digest(simulator.black_box());
  return out;
}

sim::SimConfig sim_config(sim::PolicyKind policy, mcs::AdaptationKind kind,
                          sim::FaultAdversary faults, std::uint64_t seed) {
  sim::SimConfig c;
  c.policy = policy;
  c.adaptation = kind;
  c.degradation_factor =
      kind == mcs::AdaptationKind::kDegradation ? 2.5 : 1.0;
  c.horizon = 3'000'000;  // 3 simulated seconds
  c.seed = seed;
  c.fault_adversary = faults;
  c.trace_capacity = 1'000'000;
  c.black_box_capacity = 64;
  return c;
}

TEST(GoldenStream, SimulatorStreamsMatchRecordedDigests) {
  using sim::FaultAdversary;
  using sim::PolicyKind;
  using Kind = mcs::AdaptationKind;
  std::vector<SimCase> cases;
  const auto add = [&](const char* label, bool fms, int segments, double f,
                       sim::SimConfig config, Digests want) {
    cases.push_back({label, fms, segments, f, config, want});
  };

  add("edf-vd kill bernoulli", true, 1, 0.2,
      sim_config(PolicyKind::kEdfVd, Kind::kKilling,
                 FaultAdversary::kBernoulli, 11),
      {193, 0xe31a38cd0bf9ce23, 0xfa912b16f07886b4, 0xb73f24eba6a10d54});
  {
    sim::SimConfig c = sim_config(PolicyKind::kEdfVd, Kind::kDegradation,
                                  FaultAdversary::kBernoulli, 12);
    c.mode_reset_on_idle = true;
    add("edf-vd degrade reset bernoulli", true, 1, 0.2, c,
        {228, 0x4a025c90ef895067, 0x3285fddb08f8610f, 0x5b324bc16a22158b});
  }
  add("edf-vd kill exhaust", true, 1, 0.0,
      sim_config(PolicyKind::kEdfVd, Kind::kKilling,
                 FaultAdversary::kExhaustBudget, 13),
      {296, 0x31cd202a274ddd01, 0x4fd0a03a21f3baab, 0x29aaa147f9503da0});
  {
    sim::SimConfig c = sim_config(PolicyKind::kEdfVd, Kind::kDegradation,
                                  FaultAdversary::kExhaustBudget, 14);
    c.random_phasing = true;
    add("edf-vd degrade exhaust random-phase", false, 1, 0.0, c,
        {6479, 0x298ad2811dc6e59e, 0x9f67da0ce3308bda, 0x75f5a0da4e6438b8});
  }
  {
    sim::SimConfig c = sim_config(PolicyKind::kEdf, Kind::kNone,
                                  FaultAdversary::kBernoulli, 15);
    c.sporadic_arrivals = true;
    c.jitter_fraction = 0.3;
    add("edf none sporadic bernoulli", false, 1, 0.1, c,
        {5067, 0xa744a9feed166469, 0x43d2495bece509d6, 0xd6b2e03b7d6627b6});
  }
  {
    sim::SimConfig c = sim_config(PolicyKind::kFixedPriority, Kind::kKilling,
                                  FaultAdversary::kBernoulli, 16);
    c.exec_model = sim::ExecTimeModel::kUniform;
    c.exec_min_fraction = 0.4;
    add("fp kill uniform bernoulli", false, 1, 0.15, c,
        {3363, 0x672e717fdd7296f4, 0x6e3f46205dc77f12, 0xcd60ab81ee3bc33b});
  }
  add("fp none exhaust", false, 1, 0.0,
      sim_config(PolicyKind::kFixedPriority, Kind::kNone,
                 FaultAdversary::kExhaustBudget, 17),
      {8072, 0xbf0b0f690e0bdd75, 0xbafdd8c1de84c642, 0x7c1d0dc05bec0718});
  {
    sim::SimConfig c = sim_config(PolicyKind::kEdfVd, Kind::kKilling,
                                  FaultAdversary::kBernoulli, 18);
    c.mode_reset_on_idle = true;
    c.random_phasing = true;
    c.exec_model = sim::ExecTimeModel::kUniform;
    c.exec_min_fraction = 0.6;
    add("edf-vd kill reset random-phase uniform", true, 1, 0.25, c,
        {419, 0xeb59cd15565467f6, 0x206c3aba75a2ae7c, 0xe55165ad9f58ae75});
  }
  {
    sim::SimConfig c = sim_config(PolicyKind::kEdfVd, Kind::kDegradation,
                                  FaultAdversary::kBernoulli, 19);
    c.sporadic_arrivals = true;
    c.exec_model = sim::ExecTimeModel::kUniform;
    c.exec_min_fraction = 0.5;
    add("edf-vd degrade sporadic uniform", false, 1, 0.1, c,
        {4144, 0x656c17c661663f0e, 0x4443bbbb251f7951, 0xbe2bd73d4f32e9d8});
  }
  add("edf-vd kill 3 segments bernoulli", true, 3, 0.3,
      sim_config(PolicyKind::kEdfVd, Kind::kKilling,
                 FaultAdversary::kBernoulli, 20),
      {206, 0x37cc4fdd8b1e1983, 0x75955737f791b468, 0x89beee429931c96e});
  {
    sim::SimConfig c = sim_config(PolicyKind::kEdfVd, Kind::kDegradation,
                                  FaultAdversary::kExhaustBudget, 21);
    c.mode_reset_on_idle = true;
    add("edf-vd degrade reset 3 segments exhaust", false, 3, 0.0, c,
        {6487, 0x15c9ff261ef1b65f, 0x11411d2ac3d8526e, 0x3ff924adac0bc06d});
  }
  {
    sim::SimConfig c = sim_config(PolicyKind::kEdf, Kind::kKilling,
                                  FaultAdversary::kBernoulli, 22);
    c.mode_reset_on_idle = true;
    c.sporadic_arrivals = true;
    c.random_phasing = true;
    add("edf kill reset sporadic random-phase", true, 1, 0.2, c,
        {336, 0x0000387fd24b188c, 0x4ad29f587eeaafa7, 0x0f77d6a5f5bc88a5});
  }
  {
    // Tracing off: the statistics and the black box must not depend on
    // whether a trace is kept (the trace digest is the empty stream's).
    sim::SimConfig c = sim_config(PolicyKind::kEdfVd, Kind::kKilling,
                                  FaultAdversary::kBernoulli, 11);
    c.trace_capacity = 0;
    add("edf-vd kill bernoulli untraced", true, 1, 0.2, c,
        {0, 0xcbf29ce484222325, 0xfa912b16f07886b4, 0xb73f24eba6a10d54});
  }

  for (const SimCase& c : cases) expect_digests(c.label, run_sim(c), c.want);
}

// ---------------------------------------------------------------------------
// The POSIX host, free-running.

struct PosixCase {
  const char* label;
  rt::Adaptation adaptation;
  rt::FaultModel faults;
  Digests want;
};

Digests run_posix(const PosixCase& c) {
  rt::PosixHostConfig cfg;
  cfg.core.policy = rt::Policy::kEdfVd;
  cfg.core.adaptation = c.adaptation;
  cfg.core.degradation_factor =
      c.adaptation == rt::Adaptation::kDegradation ? 2.5 : 1.0;
  cfg.core.mode_reset_on_idle = true;
  cfg.core.allow_job_growth = true;
  cfg.core.black_box_capacity = 64;
  cfg.horizon = 3'000'000;
  cfg.time_scale = 0.0;
  cfg.seed = 31;
  cfg.fault_model = c.faults;
  cfg.trace_capacity = 1'000'000;
  rt::PosixHost host(fms_tasks(0.2, 1), cfg);
  const rt::PosixResult r = host.run();

  Digests out;
  Digest trace;
  for (const rt::Event& e : r.trace) {
    trace.add_signed(e.time);
    trace.add(static_cast<std::uint64_t>(e.kind));
    trace.add(e.task);
    trace.add(e.job);
    trace.add(e.detail);
    trace.add_signed(e.release);
    trace.add_signed(e.abs_deadline);
  }
  out.trace = trace.value();
  out.events = r.trace.size();
  Digest s;
  add_stats(s, r.stats);
  s.add(r.context_switches);
  out.stats = s.value();
  Digest bb;
  bb.add(r.blackbox_total);
  bb.add(r.blackbox_admissions);
  for (const rt::BlackBoxRecord& rec : r.blackbox) {
    bb.add(rec.seq);
    bb.add_signed(rec.time);
    bb.add(static_cast<std::uint64_t>(rec.kind));
    bb.add(rec.task);
    bb.add(rec.job);
    bb.add(rec.detail);
    bb.add_signed(rec.release);
    bb.add_signed(rec.abs_deadline);
  }
  out.blackbox = bb.value();
  return out;
}

TEST(GoldenStream, PosixHostStreamsMatchRecordedDigests) {
  using A = rt::Adaptation;
  using F = rt::FaultModel;
  const PosixCase cases[] = {
      {"posix kill none", A::kKilling, F::kNone,
       {231, 0x2f4f9962d562aeb9, 0x0b299169a70a06c9, 0x432372833a6c5336}},
      {"posix kill bernoulli", A::kKilling, F::kBernoulli,
       {378, 0xc68a24bab52a1aec, 0x072adf119957f1ff, 0xa787c24f54879cec}},
      {"posix kill exhaust", A::kKilling, F::kExhaustBudget,
       {638, 0x826b562c31572bb4, 0x0a8e75d24117b335, 0x1c9fbc3fd4572caf}},
      {"posix degrade none", A::kDegradation, F::kNone,
       {231, 0x2f4f9962d562aeb9, 0x0b299169a70a06c9, 0x432372833a6c5336}},
      {"posix degrade bernoulli", A::kDegradation, F::kBernoulli,
       {229, 0x1bf4281f10b4c23c, 0xb2eedafa5a747db7, 0x29aa946b51416a32}},
      {"posix degrade exhaust", A::kDegradation, F::kExhaustBudget,
       {361, 0x431b32ed21bef17a, 0x092901b992d9e850, 0x6f28e45833574712}},
  };
  for (const PosixCase& c : cases) {
    expect_digests(c.label, run_posix(c), c.want);
  }
}

}  // namespace
}  // namespace ftmc
