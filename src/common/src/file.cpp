#include "ftmc/common/file.hpp"

#include <cstdio>
#include <stdexcept>
#include <string>

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#else
#include <fstream>
#endif

namespace ftmc {

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

}  // namespace ftmc
