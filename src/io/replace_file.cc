#include "io/replace_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/result.h"

namespace oca {

namespace {

/// Creates an empty file beside `path` (so renaming it over `path` never
/// crosses a filesystem) with the mode a plain create gets, 0666 minus
/// the umask, and returns its name.
Result<std::string> CreateSiblingTemp(const std::string& path) {
  static std::atomic<uint64_t> counter{0};
  for (int attempt = 0; attempt < 100; ++attempt) {
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
                            "." + std::to_string(counter++);
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                          0666);
    if (fd >= 0) {
      ::close(fd);
      return tmp;
    }
    if (errno != EEXIST) {
      return Status::IOError("cannot create '" + tmp +
                             "': " + std::strerror(errno));
    }
  }
  return Status::IOError("no free temporary name beside '" + path + "'");
}

}  // namespace

Status ReplaceFile(
    const std::string& path,
    const std::function<Status(const std::string& tmp_path)>& write) {
  OCA_ASSIGN_OR_RETURN(const std::string tmp, CreateSiblingTemp(path));
  Status written = write(tmp);
  if (written.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    written = Status::IOError("cannot rename '" + tmp + "' to '" + path +
                              "': " + std::strerror(errno));
  }
  if (!written.ok()) std::remove(tmp.c_str());
  return written;
}

Status ReplaceFile(const std::string& path,
                   const std::function<Status(std::ostream&)>& write) {
  return ReplaceFile(path, [&write](const std::string& tmp) -> Status {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open '" + tmp + "' for writing");
    OCA_RETURN_IF_ERROR(write(out));
    out.close();
    if (!out) return Status::IOError("cannot finish writing '" + tmp + "'");
    return Status::OK();
  });
}

}  // namespace oca
