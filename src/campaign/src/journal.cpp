#include "ftmc/campaign/journal.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#endif

namespace ftmc::campaign {

std::string record_to_json(const CellRecord& record) {
  return io::json::Object{}
      .add_string("hash", record.hash)
      .add_int("accept_without", record.accept_without)
      .add_int("accept_with", record.accept_with)
      .str();
}

CellRecord record_from_json(std::string_view line) {
  return record_from_json(io::json::parse(line));
}

CellRecord record_from_json(const io::json::Value& doc) {
  CellRecord record;
  record.hash = doc.at("hash").as_string();
  record.accept_without =
      static_cast<int>(doc.at("accept_without").as_uint64());
  record.accept_with = static_cast<int>(doc.at("accept_with").as_uint64());
  if (record.hash.size() != 16) {
    throw io::ParseError("cell record: bad hash \"" + record.hash + "\"");
  }
  return record;
}

#if !defined(_WIN32)

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Parent directory of `path` ("." when the path has no separator).
[[nodiscard]] std::string parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

void write_file_atomic(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  // POSIX fds, not ofstream: the durability chain needs fsync, and
  // streams do not expose the descriptor. flush()+rename alone is atomic
  // against *crashes* but not against power loss — the rename can reach
  // the disk before the data blocks, leaving a committed name pointing
  // at garbage. The full chain is write, fsync(file), rename,
  // fsync(directory).
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) throw_errno("cannot write " + tmp);
  const char* data = content.data();
  std::size_t left = content.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      errno = saved;
      throw_errno("short write to " + tmp);
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("cannot fsync " + tmp);
  }
  if (::close(fd) != 0) throw_errno("cannot close " + tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot rename " + tmp + " to " + path);
  }
  // Persist the rename itself: the directory entry lives in the
  // directory's data blocks. A failure here is reported — the caller
  // believed the file durable.
  const std::string dir = parent_dir(path);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) throw_errno("cannot open directory " + dir);
  if (::fsync(dfd) != 0) {
    const int saved = errno;
    ::close(dfd);
    errno = saved;
    throw_errno("cannot fsync directory " + dir);
  }
  ::close(dfd);
}

#else  // _WIN32: no fsync chain; atomic against crashes, not power loss.

void write_file_atomic(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write " + tmp);
    out << content;
    out.flush();
    if (!out) throw std::runtime_error("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot rename " + tmp + " to " + path);
  }
}

#endif

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Journal::Journal(std::string path) : path_(std::move(path)) {
  // A crash mid-append can leave the file without a trailing newline.
  // Appending straight after it would concatenate the next record onto
  // the torn line and lose both; terminate the torn line first so it
  // stays quarantined as exactly one bad line.
  bool needs_newline = false;
  {
    std::ifstream in(path_, std::ios::binary);
    if (in) {
      in.seekg(0, std::ios::end);
      const std::streamoff size = in.tellg();
      if (size > 0) {
        in.seekg(size - 1);
        needs_newline = (in.get() != '\n');
      }
    }
  }
  out_.open(path_, std::ios::binary | std::ios::app);
  if (!out_) throw std::runtime_error("cannot open journal " + path_);
  if (needs_newline) {
    out_ << '\n';
    out_.flush();
  }
}

void Journal::append(const CellRecord& record) {
  const std::string line = record_to_json(record);
  const std::lock_guard<std::mutex> lock(mu_);
  out_ << line << '\n';
  out_.flush();
  if (!out_) throw std::runtime_error("journal append failed: " + path_);
}

Journal::LoadResult Journal::load(const std::string& path) {
  LoadResult result;
  std::ifstream in(path, std::ios::binary);
  if (!in) return result;  // no journal yet — fresh campaign
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      result.records.push_back(record_from_json(line));
    } catch (const io::ParseError&) {
      // A crash mid-append leaves at most one torn trailing line; count
      // and skip rather than refusing the whole journal.
      ++result.bad_lines;
    }
  }
  return result;
}

}  // namespace ftmc::campaign
