/// \file blackbox.hpp
/// \brief Replay of flight-recorder dumps against the simulator.
///
/// A `ftmc-blackbox-v1` dump (ftmc/rt/blackbox_io.hpp) is self-contained:
/// tasks, host configuration and the surviving tail of the record ring.
/// Because both hosts are deterministic for (tasks, config, seed), the
/// dump's scheduling records must match the simulator's event stream at
/// the positions their sequence numbers name — record `seq` corresponds
/// to simulator event `seq - admission_records`. That holds even when the
/// ring wrapped (only the tail survives, but every record carries its own
/// seq) and when the run was cut short by SIGINT (the truncated stream is
/// a prefix of the full schedule). This is the 4th member of the
/// trace-replay property family.
#pragma once

#include <string_view>
#include <vector>

#include "ftmc/check/property.hpp"
#include "ftmc/check/replay.hpp"
#include "ftmc/rt/flight_recorder.hpp"
#include "ftmc/rt/posix_host.hpp"

namespace ftmc::check {

/// A parsed `ftmc-blackbox-v1` document.
struct BlackBoxDump {
  std::vector<rt::Task> tasks;
  rt::PosixHostConfig config;
  std::vector<rt::BlackBoxRecord> records;  ///< surviving, oldest first
  std::uint64_t total_records = 0;
  std::uint64_t admission_records = 0;
  std::uint64_t dropped_records = 0;
};

/// Parses a dump written by rt::write_blackbox_json. Throws
/// io::ParseError on malformed JSON and ContractViolation on documents
/// that are valid JSON but not a valid v1 dump.
[[nodiscard]] BlackBoxDump parse_blackbox_json(std::string_view text);

/// Replays the dump's configuration through the simulator host and
/// checks every surviving record against the simulator event its
/// sequence number names. The simulator runs the dump's whole core
/// configuration; admission records are checked for range only (a run
/// exists only when every task was admitted). Succeeds on truncated
/// (SIGINT) and wrapped rings alike.
[[nodiscard]] ReplayDiff replay_blackbox_through_sim(const BlackBoxDump& dump);

/// Property: a PosixHost run dumped through an in-memory writer, parsed
/// back and replayed must match event-for-event — with a deliberately
/// tiny ring so wraparound alignment is exercised.
Outcome p_blackbox_replay(const Case& c, const PropertyContext& ctx);

}  // namespace ftmc::check
