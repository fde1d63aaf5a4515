#include "ftmc/campaign/journal.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "ftmc/common/file.hpp"
#include "ftmc/io/parse_error.hpp"

namespace ftmc::campaign {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory under the system temp dir.
class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("ftmc_journal_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const char* leaf) const {
    return (dir_ / leaf).string();
  }

  fs::path dir_;
};

TEST_F(JournalTest, RecordJsonRoundTrips) {
  const CellRecord record{"00c0ffee00c0ffee", 17, 23};
  const CellRecord again = record_from_json(record_to_json(record));
  EXPECT_EQ(again.hash, record.hash);
  EXPECT_EQ(again.accept_without, record.accept_without);
  EXPECT_EQ(again.accept_with, record.accept_with);
}

TEST_F(JournalTest, RecordParserRejectsGarbage) {
  EXPECT_THROW(record_from_json("not json"), io::ParseError);
  EXPECT_THROW(record_from_json("{\"hash\":\"short\",\"accept_without\":0,"
                                "\"accept_with\":0}"),
               io::ParseError);  // hash must be 16 hex digits
}

TEST_F(JournalTest, AppendThenLoadReplaysAllRecords) {
  const std::string journal_path = path("journal.jsonl");
  {
    Journal journal(journal_path);
    journal.append({"0000000000000001", 1, 2});
    journal.append({"0000000000000002", 3, 4});
  }
  // Reopening appends, it does not truncate.
  {
    Journal journal(journal_path);
    journal.append({"0000000000000003", 5, 6});
  }
  const Journal::LoadResult loaded = Journal::load(journal_path);
  EXPECT_EQ(loaded.bad_lines, 0u);
  ASSERT_EQ(loaded.records.size(), 3u);
  EXPECT_EQ(loaded.records[2].hash, "0000000000000003");
  EXPECT_EQ(loaded.records[2].accept_without, 5);
  EXPECT_EQ(loaded.records[2].accept_with, 6);
}

TEST_F(JournalTest, MissingFileIsEmptyJournal) {
  const Journal::LoadResult loaded = Journal::load(path("absent.jsonl"));
  EXPECT_TRUE(loaded.records.empty());
  EXPECT_EQ(loaded.bad_lines, 0u);
}

TEST_F(JournalTest, ToleratesTornTrailingLine) {
  const std::string journal_path = path("journal.jsonl");
  {
    Journal journal(journal_path);
    journal.append({"0000000000000001", 1, 2});
  }
  // Simulate a crash mid-append: a truncated line with no newline.
  {
    std::ofstream out(journal_path, std::ios::app);
    out << "{\"hash\":\"00000000000";  // torn
  }
  const Journal::LoadResult loaded = Journal::load(journal_path);
  ASSERT_EQ(loaded.records.size(), 1u);
  EXPECT_EQ(loaded.records[0].hash, "0000000000000001");
  EXPECT_EQ(loaded.bad_lines, 1u);

  // Resume semantics: appending after the torn line keeps the journal
  // loadable — the torn line stays quarantined, new records are read.
  {
    Journal journal(journal_path);
    journal.append({"0000000000000002", 3, 4});
  }
  const Journal::LoadResult after = Journal::load(journal_path);
  ASSERT_EQ(after.records.size(), 2u);
  EXPECT_EQ(after.records[1].hash, "0000000000000002");
}

TEST_F(JournalTest, AtomicWriteReplacesContentAndLeavesNoTmpFile) {
  const std::string target = path("spec.json");
  write_file_atomic(target, "first");
  EXPECT_EQ(read_file(target), "first");
  write_file_atomic(target, "second");
  EXPECT_EQ(read_file(target), "second");
  // The tmp staging file must not survive the rename.
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST_F(JournalTest, ReadFileThrowsOnMissingFile) {
  EXPECT_THROW((void)read_file(path("nope.json")), std::runtime_error);
}

TEST_F(JournalTest, AtomicWriteHandlesLargeAndBinaryPayloads) {
  // The POSIX write loop must survive partial writes and NUL bytes.
  std::string payload;
  payload.reserve(5u << 20);
  for (int i = 0; payload.size() < (5u << 20); ++i) {
    payload += static_cast<char>(i & 0xff);
  }
  const std::string target = path("blob.bin");
  write_file_atomic(target, payload);
  EXPECT_EQ(read_file(target), payload);
}

TEST_F(JournalTest, AtomicWriteWorksForRelativePathsInCwd) {
  // parent_dir("spec.json") must fsync "." — exercise the bare-filename
  // branch of the directory-fsync path.
  const fs::path previous = fs::current_path();
  fs::current_path(dir_);
  write_file_atomic("bare.json", "x");
  EXPECT_EQ(read_file("bare.json"), "x");
  fs::current_path(previous);
}

TEST_F(JournalTest, AtomicWriteFailsLoudlyOnMissingDirectory) {
  // No silent data loss: an unreachable target throws instead of
  // "succeeding" without a durable file.
  EXPECT_THROW(
      write_file_atomic(path("no/such/dir/spec.json"), "content"),
      std::runtime_error);
}

}  // namespace
}  // namespace ftmc::campaign
