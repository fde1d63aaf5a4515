/// \file journal.hpp
/// \brief Crash-safe persistence for campaign runs: an append-only
///        JSON-lines journal of completed cells, plus atomic (tmp-file +
///        rename) whole-file writes for specs and merged results.
///
/// Crash model: the process may die at any instruction. Two mechanisms
/// cover it:
///  - every completed cell is appended to `journal.jsonl` as one line
///    and flushed before the runner moves on; a crash can lose at most
///    the line being written, and `Journal::load` tolerates (and counts)
///    a malformed trailing line, so `--resume` replays exactly the cells
///    that provably completed;
///  - whole files that must never be seen half-written (spec.json,
///    results.json) go through write_file_atomic (ftmc/common/file.hpp):
///    tmp file, fsync, rename, fsync of the directory.
///
/// Journal appends flush to the OS but are not fsynced per line: losing
/// the tail of the journal to power loss only re-runs those cells on
/// resume — it can never corrupt results, because records are keyed by
/// content hash and merged deterministically.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "ftmc/io/json.hpp"

namespace ftmc::campaign {

/// One journal line: the cell's cache key plus its result counts.
/// Deliberately free of timing/host fields — the journal must merge to
/// byte-identical results no matter when or where cells ran.
struct CellRecord {
  std::string hash;        ///< cell_hash() — 16 hex digits
  int accept_without = 0;  ///< accepted by the no-adaptation baseline
  int accept_with = 0;     ///< accepted by FT-S with the cell's scheduler
};

/// Renders / parses one journal line (without the trailing newline).
[[nodiscard]] std::string record_to_json(const CellRecord& record);
/// Throws ftmc::io::ParseError on malformed lines.
[[nodiscard]] CellRecord record_from_json(std::string_view line);
/// The same from a parsed object (one record of a fleet result message).
[[nodiscard]] CellRecord record_from_json(const io::json::Value& doc);

/// Reads a whole file; throws std::runtime_error if unreadable.
[[nodiscard]] std::string read_file(const std::string& path);

/// The append-only journal. Thread-safe: the campaign ledger appends
/// from pool workers as cells finish, in completion order (order is
/// irrelevant — records are keyed by content hash).
class Journal {
 public:
  /// Opens `path` for appending, creating it if missing. If the file
  /// ends without a newline (a crash mid-append), a terminator is
  /// written first so the torn line stays quarantined instead of
  /// swallowing the next record. Throws std::runtime_error if the file
  /// cannot be opened.
  explicit Journal(std::string path);

  /// Appends one record and flushes it to the OS before returning.
  void append(const CellRecord& record);

  /// Result of replaying a journal file.
  struct LoadResult {
    std::vector<CellRecord> records;
    /// Malformed lines skipped (a crash mid-append produces at most one;
    /// more indicates corruption and is surfaced via obs counters).
    std::size_t bad_lines = 0;
  };

  /// Replays `path`. A missing file is an empty journal, not an error.
  /// Later records win over earlier ones with the same hash (re-runs).
  [[nodiscard]] static LoadResult load(const std::string& path);

 private:
  std::string path_;
  std::mutex mu_;
  std::ofstream out_;
};

}  // namespace ftmc::campaign
