/// \file blackbox_io.hpp
/// \brief Post-mortem serialization of the flight recorder.
///
/// The dump format `ftmc-blackbox-v1` is deliberately self-contained: it
/// carries the task set and the host configuration next to the surviving
/// records, so a dump alone is enough to rebuild the run in the DES
/// simulator and replay it event-for-event (`ftmc::check`'s
/// blackbox_replay property; see docs/observability.md for the schema).
/// Numbers are written with std::to_chars — locale-independent and
/// round-tripping exactly through the repo's JSON parser.
///
/// These functions allocate and do stream I/O; they are for *dumping*
/// only. The recording path (FlightRecorder::record) never touches them.
#pragma once

#include <iosfwd>
#include <vector>

#include "ftmc/rt/flight_recorder.hpp"
#include "ftmc/rt/posix_host.hpp"

namespace ftmc::rt {

/// Writes the `ftmc-blackbox-v1` JSON document: task set, host config,
/// surviving records (oldest first) and the total/dropped accounting from
/// `result`.
void write_blackbox_json(std::ostream& os, const std::vector<Task>& tasks,
                         const PosixHostConfig& config,
                         const PosixResult& result);

/// Writes the records alone as RFC-4180 CSV with a header row
/// (seq,time,kind,task,job,detail,release,deadline) — for spreadsheets and
/// quick grepping; the JSON form is the one ftmc::check replays.
void write_blackbox_csv(std::ostream& os,
                        const std::vector<BlackBoxRecord>& records);

}  // namespace ftmc::rt
