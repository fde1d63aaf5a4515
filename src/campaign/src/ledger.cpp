#include "ftmc/campaign/ledger.hpp"

#include <filesystem>
#include <utility>

#include "ftmc/campaign/cache.hpp"
#include "ftmc/io/json.hpp"

namespace ftmc::campaign {

namespace {

/// Canonical journal form: one CellRecord line per completed cell, in
/// expansion order. During a run the journal appends in completion order
/// (crash safety first); finishing replaces it with this form, which
/// erases the order in which threads, processes or workers delivered.
[[nodiscard]] std::string canonical_journal(
    const std::vector<CellOutcome>& cells) {
  std::string out;
  for (const CellOutcome& outcome : cells) {
    if (!outcome.completed) continue;
    out += record_to_json(CellRecord{outcome.hash,
                                     outcome.counts.accept_without,
                                     outcome.counts.accept_with});
    out += '\n';
  }
  return out;
}

}  // namespace

Ledger::Ledger(CampaignSpec spec, std::string dir)
    : spec_(std::move(spec)), dir_(std::move(dir)) {
  spec_.validate();
  obs::Registry& reg = obs::Registry::global();
  obs::Counter cells_total = reg.counter("campaign.cells_total");
  cells_run_ = reg.counter("campaign.cells_run");
  obs::Counter cache_hits = reg.counter("campaign.cache_hits");
  obs::Counter bad_lines = reg.counter("campaign.journal_bad_lines");
  const std::vector<CellSpec> cells = expand_cells(spec_);
  cells_total.inc(cells.size());

  // Persistent mode: materialize the directory, echo the canonical spec
  // atomically, and replay the journal into the result cache.
  HashCache<CellCounts> cache;
  if (!dir_.empty()) {
    std::filesystem::create_directories(dir_);
    write_file_atomic(dir_ + "/spec.json", spec_to_json(spec_) + "\n");
    const std::string journal_path = dir_ + "/journal.jsonl";
    const Journal::LoadResult replay = Journal::load(journal_path);
    bad_lines.inc(replay.bad_lines);
    for (const CellRecord& record : replay.records) {
      // Later records win over earlier ones with the same hash; equal
      // hashes imply equal counts, so insert-only is equivalent.
      cache.insert(record.hash,
                   CellCounts{record.accept_without, record.accept_with});
    }
    journal_.emplace(journal_path);
  }

  cells_.resize(cells.size());
  for (const CellSpec& cell : cells) {
    CellOutcome& outcome = cells_[cell.index];
    outcome.cell = cell;
    outcome.hash = cell_hash(cell);
    if (const auto hit = cache.lookup(outcome.hash)) {
      outcome.counts = *hit;
      outcome.completed = true;
      outcome.from_cache = true;
      ++cache_hits_;
    }
  }
  completed_ = cache_hits_;
  cache_hits.inc(cache_hits_);
}

std::vector<std::size_t> Ledger::pending() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::size_t> indices;
  for (const CellOutcome& outcome : cells_) {
    if (!outcome.completed) indices.push_back(outcome.cell.index);
  }
  return indices;
}

bool Ledger::completed(std::size_t index) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return cells_.at(index).completed;
}

bool Ledger::complete() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return completed_ == cells_.size();
}

FoldVerdict Ledger::fold(std::size_t index, const CellRecord& record) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (index >= cells_.size() || record.hash != cells_[index].hash) {
    return FoldVerdict::kRejected;
  }
  CellOutcome& outcome = cells_[index];
  if (outcome.completed) return FoldVerdict::kDuplicate;
  outcome.counts = CellCounts{record.accept_without, record.accept_with};
  outcome.completed = true;
  ++completed_;
  cells_run_.inc();
  if (journal_) journal_->append(record);
  return FoldVerdict::kAccepted;
}

void Ledger::finish() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (finished_ || completed_ != cells_.size()) return;
  finished_ = true;
  if (dir_.empty()) return;
  // The canonical journal goes first: results.json exists only once the
  // journal it merges is final.
  write_file_atomic(dir_ + "/journal.jsonl", canonical_journal(cells_));
  const CampaignResult result = result_locked();
  write_file_atomic(result.results_path, results_to_json(result) + "\n");
}

CampaignResult Ledger::result() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return result_locked();
}

CampaignResult Ledger::result_locked() const {
  CampaignResult result;
  result.spec = spec_;
  result.cells = cells_;
  result.cells_total = cells_.size();
  result.cells_run = completed_ - cache_hits_;
  result.cache_hits = cache_hits_;
  result.complete = completed_ == cells_.size();
  if (result.complete && !dir_.empty()) {
    result.results_path = dir_ + "/results.json";
  }
  return result;
}

std::string results_to_json(const CampaignResult& result) {
  std::vector<std::string> cells;
  cells.reserve(result.cells.size());
  for (const CellOutcome& outcome : result.cells) {
    if (!outcome.completed) continue;
    cells.push_back(
        io::json::Object{}
            .add_string("hash", outcome.hash)
            .add_string("scheduler", to_string(outcome.cell.scheduler))
            .add_number("failure_prob", outcome.cell.failure_prob)
            .add_number("utilization", outcome.cell.utilization)
            .add_string("seed", std::to_string(outcome.cell.seed))
            .add_int("accept_without", outcome.counts.accept_without)
            .add_int("accept_with", outcome.counts.accept_with)
            .add_number("ratio_without", outcome.ratio_without())
            .add_number("ratio_with", outcome.ratio_with())
            .str());
  }
  // No timestamps, hostnames or wall times: byte-identity across
  // uninterrupted, resumed and re-cached runs is a tested contract.
  return io::json::Object{}
      .add_raw("spec", spec_to_json(result.spec))
      .add_int("cells_total", static_cast<long long>(result.cells_total))
      .add_raw("cells", io::json::array(cells))
      .str();
}

}  // namespace ftmc::campaign
