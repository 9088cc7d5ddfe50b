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
// verbatim — callers that want a trailing newline append it themselves.
#pragma once

#include <string>

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

/// write_atomic with the fault decision already taken: a caller that
/// consults its site serially and writes from several threads keeps the
/// site's call numbering independent of thread timing.
bool write_atomic(const std::string& path, const std::string& text,
                  const FaultDecision& fault);

/// Read all of `path` into *out. Returns false (without touching *out) on
/// error or injected EIO.
bool read_file(const std::string& path, std::string* out, const char* site);

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
