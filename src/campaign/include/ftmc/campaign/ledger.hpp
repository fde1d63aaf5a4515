/// \file ledger.hpp
/// \brief The campaign ledger: the one owner of a campaign's directory
///        and cell state. Both front ends, the in-process runner
///        (runner.hpp) and the fleet coordinator
///        (ftmc/fleet/coordinator.hpp), open, fold and finish a campaign
///        through it.
///
///  - *Open* validates and expands the spec and, with a directory,
///    echoes spec.json and replays journal.jsonl into the cells: a cell
///    whose content hash is journaled is a cache hit, and a torn line is
///    skipped and counted (journal.hpp).
///  - *Fold* journals one computed cell, in completion order.
///  - *Finish*, once every cell has a result, rewrites journal.jsonl in
///    expansion order and writes results.json, so the finished directory
///    is byte-identical however many threads, processes or fleet workers
///    computed it, in whatever order, over any number of resumes.
///
/// Directory layout (`dir`; empty keeps everything in memory):
///   <dir>/spec.json      canonical spec echo (atomic write)
///   <dir>/journal.jsonl  one CellRecord line per completed cell
///   <dir>/results.json   merged results (atomic write, once complete)
///
/// Metrics: campaign.cells_total, campaign.cache_hits and
/// campaign.journal_bad_lines at open; campaign.cells_run per accepted
/// fold.
#pragma once

#include <cstddef>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "ftmc/campaign/journal.hpp"
#include "ftmc/campaign/spec.hpp"
#include "ftmc/obs/registry.hpp"

namespace ftmc::campaign {

/// Outcome counts of one cell (numerators of the acceptance ratios; the
/// denominator is the cell's sets_per_point).
struct CellCounts {
  int accept_without = 0;
  int accept_with = 0;
};

/// One merged cell outcome.
struct CellOutcome {
  CellSpec cell;
  std::string hash;
  bool completed = false;   ///< false until the cell has a result
  bool from_cache = false;  ///< replayed from the journal, not computed
  CellCounts counts;

  [[nodiscard]] double ratio_without() const {
    return static_cast<double>(counts.accept_without) /
           cell.sets_per_point;
  }
  [[nodiscard]] double ratio_with() const {
    return static_cast<double>(counts.accept_with) / cell.sets_per_point;
  }
};

/// A whole campaign's outcome, cells in expansion order.
struct CampaignResult {
  CampaignSpec spec;
  std::vector<CellOutcome> cells;
  std::size_t cells_total = 0;
  std::size_t cells_run = 0;    ///< computed since open
  std::size_t cache_hits = 0;   ///< replayed from the journal
  bool complete = false;        ///< every cell has a result
  std::string results_path;     ///< <dir>/results.json, empty in-memory
};

/// Deterministic merged-results document: spec echo plus one entry per
/// cell. Contains no timestamps, hostnames or timings — equal inputs
/// give equal bytes (the resume bit-identity contract).
[[nodiscard]] std::string results_to_json(const CampaignResult& result);

/// How Ledger::fold took a record.
enum class FoldVerdict { kAccepted, kDuplicate, kRejected };

/// See file comment. Thread-safe: pool workers may fold concurrently.
class Ledger {
 public:
  /// Opens the campaign. Throws ftmc::io::ParseError on invalid specs
  /// and std::runtime_error on filesystem failures.
  Ledger(CampaignSpec spec, std::string dir);

  [[nodiscard]] const CampaignSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::size_t cells_total() const { return cells_.size(); }
  /// The cell at `index` (fixed at open).
  [[nodiscard]] const CellSpec& cell(std::size_t index) const {
    return cells_.at(index).cell;
  }
  /// Indices of the cells without a result, in expansion order.
  [[nodiscard]] std::vector<std::size_t> pending() const;
  [[nodiscard]] bool completed(std::size_t index) const;
  [[nodiscard]] bool complete() const;

  /// Journals one computed cell. Rejected when `index` is out of range
  /// or `record.hash` is not the cell's hash (a worker that expanded a
  /// different grid); a duplicate when the cell already has a result.
  FoldVerdict fold(std::size_t index, const CellRecord& record);

  /// Finishes the campaign (see file comment). Does nothing while a
  /// cell lacks a result, and nothing after the first finish.
  void finish();

  [[nodiscard]] CampaignResult result() const;

 private:
  [[nodiscard]] CampaignResult result_locked() const;

  CampaignSpec spec_;
  std::string dir_;
  mutable std::mutex mu_;
  std::vector<CellOutcome> cells_;  ///< expansion order
  std::size_t completed_ = 0;
  std::size_t cache_hits_ = 0;
  std::optional<Journal> journal_;
  bool finished_ = false;
  obs::Counter cells_run_;
};

}  // namespace ftmc::campaign
