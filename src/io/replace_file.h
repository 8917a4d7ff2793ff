// Atomic whole-file replacement for the binary writers (.ocag graphs,
// .ocac snapshots), which other processes may have mapped while a new
// version is written.

#ifndef OCA_IO_REPLACE_FILE_H_
#define OCA_IO_REPLACE_FILE_H_

#include <functional>
#include <iosfwd>
#include <string>

#include "util/status.h"

namespace oca {

/// Writes the file at `path` by calling `write` on a stream over a new
/// file beside it (mode 0666 minus the umask, so renaming never crosses
/// a filesystem), then renames that file over `path` once `write`
/// returned OK and the stream closed cleanly. On any error `path` is
/// left as it was and the new file is removed. A reader that mapped the
/// old file keeps its bytes instead of seeing them truncated under it.
Status ReplaceFile(const std::string& path,
                   const std::function<Status(std::ostream&)>& write);

}  // namespace oca

#endif  // OCA_IO_REPLACE_FILE_H_
