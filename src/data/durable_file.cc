#include "data/durable_file.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#define MANIRANK_HAVE_POSIX_IO 1
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>
#endif

namespace manirank {
namespace {

[[noreturn]] void ThrowErrno(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + ": " + path + ": " + std::strerror(errno));
}

#ifdef MANIRANK_HAVE_POSIX_IO

/// Parent directory of `path` under the same rules rename(2) uses: the
/// bytes before the last '/', or "." when there is none.
std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

void FsyncFd(int fd, const std::string& path) {
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    ThrowErrno("fsync failed", path);
  }
}

/// Writes the whole buffer, retrying short writes and EINTR.
void WriteAll(int fd, const char* data, size_t size, const std::string& path) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      errno = saved;
      ThrowErrno("write failed", path);
    }
    done += static_cast<size_t>(n);
  }
}

#endif  // MANIRANK_HAVE_POSIX_IO

}  // namespace

uint64_t Fnv1a64(const char* data, size_t size) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

std::string ReadWholeFile(const std::string& path, const std::string& what) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) throw std::runtime_error("cannot open " + what + ": " + path);
  const std::streamoff size = is.tellg();
  is.seekg(0);
  std::string out(static_cast<size_t>(std::max<std::streamoff>(0, size)),
                  '\0');
  is.read(out.data(), static_cast<std::streamsize>(out.size()));
  if (is.gcount() != static_cast<std::streamsize>(out.size())) {
    throw std::runtime_error("short read " + what + ": " + path);
  }
  return out;
}

std::string ReadFileRange(const std::string& path, uint64_t offset,
                          size_t want, const std::string& what) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open " + what + ": " + path);
  is.seekg(static_cast<std::streamoff>(offset));
  std::string out(want, '\0');
  is.read(out.data(), static_cast<std::streamsize>(want));
  out.resize(static_cast<size_t>(std::max<std::streamsize>(0, is.gcount())));
  return out;
}

std::string NextDurableTempPath(const std::string& path) {
  static std::atomic<uint64_t> counter{0};
#ifdef MANIRANK_HAVE_POSIX_IO
  const uint64_t pid = static_cast<uint64_t>(::getpid());
#else
  const uint64_t pid = 0;
#endif
  return path + ".tmp." + std::to_string(pid) + "." +
         std::to_string(counter.fetch_add(1) + 1);
}

bool LooksLikeDurableTempFile(const std::string& filename) {
  // "<anything>.tmp.<digits>.<digits>", scanned from the tail so a stem
  // containing ".tmp." cannot confuse it.
  const auto all_digits = [](const std::string& s) {
    if (s.empty()) return false;
    for (char c : s) {
      if (!std::isdigit(static_cast<unsigned char>(c))) return false;
    }
    return true;
  };
  const size_t last_dot = filename.find_last_of('.');
  if (last_dot == std::string::npos || last_dot == 0) return false;
  const size_t prev_dot = filename.find_last_of('.', last_dot - 1);
  if (prev_dot == std::string::npos) return false;
  if (!all_digits(filename.substr(last_dot + 1))) return false;
  if (!all_digits(filename.substr(prev_dot + 1, last_dot - prev_dot - 1))) {
    return false;
  }
  // The ".tmp" marker must sit immediately before the pid segment.
  constexpr char kMarker[] = ".tmp";
  constexpr size_t kMarkerLen = sizeof(kMarker) - 1;
  if (prev_dot < kMarkerLen) return false;
  return filename.compare(prev_dot - kMarkerLen, kMarkerLen, kMarker) == 0;
}

void FsyncParentDir(const std::string& path) {
#ifdef MANIRANK_HAVE_POSIX_IO
  const std::string dir = ParentDir(path);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    // Some filesystems refuse O_RDONLY on directories (and a few refuse
    // directory fsync outright with EINVAL below); neither failure mode
    // means the rename was lost, so only a genuinely missing directory
    // is worth aborting over.
    if (errno == ENOENT) ThrowErrno("cannot open directory for fsync", dir);
    return;
  }
  if (::fsync(fd) != 0 && errno != EINVAL && errno != ENOTSUP &&
      errno != EROFS) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    ThrowErrno("directory fsync failed", dir);
  }
  ::close(fd);
#else
  (void)path;
#endif
}

void CopyFileDurably(const std::string& src, const std::string& dst) {
#ifdef MANIRANK_HAVE_POSIX_IO
  const int in = ::open(src.c_str(), O_RDONLY | O_CLOEXEC);
  if (in < 0) ThrowErrno("cannot open copy source", src);
  const std::string tmp = NextDurableTempPath(dst);
  const int out =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (out < 0) {
    const int saved = errno;
    ::close(in);
    errno = saved;
    ThrowErrno("cannot open copy temp file", tmp);
  }
  try {
    char chunk[1 << 16];
    for (;;) {
      const ssize_t n = ::read(in, chunk, sizeof(chunk));
      if (n < 0) {
        if (errno == EINTR) continue;
        ThrowErrno("read failed", src);
      }
      if (n == 0) break;
      size_t done = 0;
      while (done < static_cast<size_t>(n)) {
        const ssize_t w = ::write(out, chunk + done,
                                  static_cast<size_t>(n) - done);
        if (w < 0) {
          if (errno == EINTR) continue;
          ThrowErrno("write failed", tmp);
        }
        done += static_cast<size_t>(w);
      }
    }
    if (::fsync(out) != 0) ThrowErrno("fsync failed", tmp);
    if (::close(out) != 0) ThrowErrno("close failed", tmp);
    ::close(in);
  } catch (...) {
    ::close(in);
    ::close(out);
    ::unlink(tmp.c_str());
    throw;
  }
  // tmp sits next to dst, so this rename never crosses a filesystem.
  if (std::rename(tmp.c_str(), dst.c_str()) != 0) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    errno = saved;
    ThrowErrno("cannot move copied file into place", dst);
  }
  FsyncParentDir(dst);
#else
  std::FILE* in = std::fopen(src.c_str(), "rb");
  if (in == nullptr) ThrowErrno("cannot open copy source", src);
  std::FILE* out = std::fopen(dst.c_str(), "wb");
  if (out == nullptr) {
    std::fclose(in);
    ThrowErrno("cannot open copy destination", dst);
  }
  char chunk[1 << 16];
  size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), in)) > 0) {
    if (std::fwrite(chunk, 1, n, out) != n) {
      std::fclose(in);
      std::fclose(out);
      ThrowErrno("write failed", dst);
    }
  }
  std::fclose(in);
  if (std::fclose(out) != 0) ThrowErrno("close failed", dst);
#endif
}

void RenameDurably(const std::string& src, const std::string& dst) {
  if (std::rename(src.c_str(), dst.c_str()) == 0) {
    FsyncParentDir(dst);
    return;
  }
#ifdef MANIRANK_HAVE_POSIX_IO
  if (errno == EXDEV) {
    // src and dst live on different filesystems (e.g. a --log-dir on a
    // separate mount): rename(2) cannot work there, so degrade to a
    // copy that is still atomic at dst (temp + same-fs rename) and only
    // unlink the source once the copy is durably in place.
    CopyFileDurably(src, dst);
    if (::unlink(src.c_str()) != 0 && errno != ENOENT) {
      ThrowErrno("cannot remove source after cross-filesystem copy", src);
    }
    return;
  }
#endif
  ThrowErrno("cannot rename " + src, dst);
}

void WriteFileDurably(const std::string& path, const std::string& data) {
#ifdef MANIRANK_HAVE_POSIX_IO
  const std::string tmp = NextDurableTempPath(path);
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) ThrowErrno("cannot open temp file for writing", tmp);
  try {
    WriteAll(fd, data.data(), data.size(), tmp);
    FsyncFd(fd, tmp);
    if (::close(fd) != 0) ThrowErrno("close failed", tmp);
  } catch (...) {
    ::unlink(tmp.c_str());
    throw;
  }
  try {
    RenameDurably(tmp, path);
  } catch (...) {
    ::unlink(tmp.c_str());
    throw;
  }
#else
  const std::string tmp = NextDurableTempPath(path);
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) ThrowErrno("cannot open temp file for writing", tmp);
  const size_t written = std::fwrite(data.data(), 1, data.size(), out);
  if (written != data.size() || std::fclose(out) != 0) {
    std::remove(tmp.c_str());
    ThrowErrno("write failed", tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    ThrowErrno("cannot rename " + tmp, path);
  }
#endif
}

}  // namespace manirank
