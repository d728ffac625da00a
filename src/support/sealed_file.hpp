// The one envelope, verifier and atomic publish behind every file
// SOCRATES persists: artifact-cache entries, checkpoint snapshots, the
// server's knowledge pool and the BENCH_*.json artifacts.
//
//   <magic> <version> <tag> <payload-bytes> <payload-hash-hex>\n<payload>
//
// The tag is the caller's label (the artifact key, the checkpoint
// epoch); the hash is stable_hash64 of the payload alone, so a caller
// whose tag matters checks it itself.  Writes go to `<path>.tmp.<pid>`
// and are renamed into place, rotating older copies to `<path>.1`, ...;
// the owner of a file sweeps the temps of writers that died before the
// rename.  The module injects no faults: callers decide them and hand it
// the bytes to write.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace socrates::sealed {

/// The header line followed by `payload`.
std::string seal(std::string_view magic, std::string_view version, std::string_view tag,
                 std::string_view payload);

struct File {
  enum class Status { kMissing, kCorrupt, kOk };
  Status status = Status::kMissing;
  std::string reason;   ///< the defect, when kCorrupt
  std::string tag;      ///< when kOk
  std::string payload;  ///< when kOk
};

/// Reads and verifies `path`: kOk needs the canonical header seal()
/// writes for `magic`/`version`, exactly the claimed payload bytes to
/// the end of the file, and a matching hash.  The claimed size is only
/// compared with the file's, never allocated.  Never throws.
File read(const std::string& path, std::string_view magic, std::string_view version);

/// `path` for generation 0, `path.<g>` for older ones.
std::string generation_path(const std::string& path, std::size_t generation);

/// Shifts `path.<n-2>` -> `path.<n-1>`, ..., `path` -> `path.1` (n
/// generations in all; a missing one is skipped).
void rotate_generations(const std::string& path, std::size_t n);

/// `<path>.tmp.<pid>`.
std::string tmp_path(const std::string& path);

/// Which write step failed, with its errno.
struct WriteStatus {
  enum class Step { kNone, kOpen, kWrite, kRename };
  Step failed = Step::kNone;
  int error = 0;
  explicit operator bool() const { return failed == Step::kNone; }
  std::string message() const;  ///< "<step>: <strerror>"
};

/// Writes `bytes` to tmp_path(path).  A failed open touches nothing; a
/// failed write removes the temp file.
WriteStatus write_tmp(const std::string& path, std::string_view bytes, bool fsync);

/// Rotates `path` through `generations`, then renames tmp_path(path)
/// into its place (fsyncing the directory when asked).
WriteStatus publish_tmp(const std::string& path, std::size_t generations, bool fsync);

/// write_tmp then publish_tmp: a failed write rotates nothing.
WriteStatus publish(const std::string& path, std::string_view bytes,
                    std::size_t generations, bool fsync);

/// Best-effort fsync of a file or directory.
void fsync_path(const std::string& path);

/// Removes the temps writers left when they died before the rename:
/// each regular file `<dir>/<name>.tmp.<digits>` for `owner` =
/// `<dir>/<name>`, where a leading `*` in `<name>` matches any prefix
/// (`<dir>/*.artifact`).  Returns how many.
std::size_t sweep_stale_tmps(const std::string& owner);

}  // namespace socrates::sealed
