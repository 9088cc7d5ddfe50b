// Deterministic fault injection for the service layer.
//
// Every filesystem mutation in the engine routes through a named fault site.
// Sites are armed via MBS_FAULTS=<site>:<spec>[,<site>:<spec>...] where spec
// is one of:
//
//   fail@N    the Nth call to the site (1-based) fails with EIO
//   every@K   every Kth call fails with EIO
//   torn@N/B  on the Nth call, the write is torn: only the first B bytes
//             reach the target file, yet the operation reports SUCCESS —
//             the caller's load-path corruption detection is the safety net
//   crash@N   on the Nth call the process exits immediately with code 3,
//             simulating a worker killed mid-operation
//
// Unarmed sites cost one relaxed atomic load. Counters are per-site and
// process-wide, so a schedule like "spool.unit.start:crash@2" is
// deterministic regardless of thread interleaving elsewhere.
//
// util::fs below is the thin wrapper the engine uses for file mutations:
// each helper consults its fault site first, then performs the real
// operation (tmp + atomic rename for writes, with optional
// fsync-before-rename under MBS_FSYNC=1). write_atomic writes `text`
// verbatim — callers that want a trailing newline append it themselves;
// StagedFile streams a file in pieces under the same discipline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace mbs::util {

struct FaultDecision {
  bool fail = false;      // simulate EIO: the operation must not happen
  bool torn = false;      // torn write: truncate the payload...
  long torn_bytes = 0;    // ...at this byte offset, then report success
};

/// Consult the registry for `site`. Increments the site's call counter and
/// returns what (if anything) to inject. A crash spec does not return:
/// the process exits with code 3.
FaultDecision fault_point(const char* site);

/// Programmatically arm sites (same grammar as MBS_FAULTS). Adds to any
/// env-armed sites. Returns false and warns on stderr if the spec does not
/// parse; well-formed entries before the bad one stay armed.
bool fault_arm(const std::string& spec);

/// Disarm every site and reset all counters (tests only).
void fault_clear();

/// Total faults injected so far (fail + torn; crashes never return).
long fault_injection_count();

namespace fs {

/// Write `text` to `path` via tmp file + atomic rename, creating parent
/// directories as needed. Verbatim: no newline is appended. Under
/// MBS_FSYNC=1 the tmp file is fsync'd before the rename. Safe to call
/// from many threads at once: each call writes its own tmp file.
bool write_atomic(const std::string& path, const std::string& text,
                  const char* site);

/// A file written in pieces: appended to its own tmp file
/// `<near>.tmp.<pid>.<seq>` (parent directories created as needed) and
/// renamed into place by commit(), so a writer that learns the final name
/// only at the end (a content hash) never holds the whole file. The
/// destructor removes a tmp file that was not committed.
class StagedFile {
 public:
  explicit StagedFile(const std::string& near);
  ~StagedFile();
  StagedFile(const StagedFile&) = delete;
  StagedFile& operator=(const StagedFile&) = delete;

  /// Appends `data`; false once the tmp file could not be created or any
  /// write failed.
  bool append(std::string_view data);

  /// Renames the tmp file to `path`, fsync'd first under MBS_FSYNC=1.
  /// `fault` is the decision the caller took at its site: fail writes
  /// nothing and returns false; torn truncates the file at torn_bytes
  /// before the rename and still reports success.
  bool commit(const std::string& path, const FaultDecision& fault);

 private:
  std::string tmp_;
  int fd_ = -1;
  std::uint64_t size_ = 0;
  bool ok_ = false;
};

/// Read all of `path` into *out. Returns false (without touching *out) on
/// error or injected EIO.
bool read_file(const std::string& path, std::string* out, const char* site);

/// pread(2) `len` bytes at `offset` of `path` into *out. Returns false
/// (without touching *out) on error, a file shorter than the range, or
/// injected EIO; a torn spec truncates what is returned at torn_bytes.
bool read_range(const std::string& path, std::uint64_t offset,
                std::size_t len, std::string* out, const char* site);

/// rename(2). Injected EIO fails the rename; a torn spec is meaningless
/// here and treated as EIO.
bool rename_file(const std::string& from, const std::string& to,
                 const char* site);

/// unlink(2). Missing file counts as success.
bool remove_file(const std::string& path, const char* site);

/// Create `path` with O_EXCL and write `text` verbatim. Returns false if
/// the file already exists, on error, or on injected EIO.
bool create_exclusive(const std::string& path, const std::string& text,
                      const char* site);

}  // namespace fs

}  // namespace mbs::util
