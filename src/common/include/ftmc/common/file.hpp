/// \file file.hpp
/// \brief Whole-file writes that a reader never sees half done.
///
/// write_file_atomic writes `<path>.tmp`, fsyncs the file, renames it
/// over `path`, then fsyncs the directory. POSIX renames within a
/// directory are atomic, so readers observe either the old or the new
/// content, and the fsync pair makes the swap hold through power loss,
/// not just process death (a bare flush+rename lets the rename reach
/// disk before the data blocks). Campaign specs and results, the fleet's
/// port file and every BENCH_*.json report are written this way.
#pragma once

#include <string>
#include <string_view>

namespace ftmc {

/// Atomically replaces `path` with `content` (tmp + rename, see file
/// comment). Throws std::runtime_error when the filesystem says no.
void write_file_atomic(const std::string& path, std::string_view content);

}  // namespace ftmc
