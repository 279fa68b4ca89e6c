// Crash-consistent record journal: the persistence substrate under the
// serve/ evaluation store. A journal file is
//
//   header line:  {"magic":"metacore-journal","version":1,
//                  "kind":"<client>","kind_version":N}\n
//   record frame: '#' <len:8 hex> '|' <crc:8 hex> '|' <payload bytes> '\n'
//
// where len is the payload byte count and crc is CRC32C of the payload.
// Length-prefixed frames make parsing byte-driven (payloads may contain
// newlines); the per-record checksum turns "mid-file damage" from a
// refuse-the-whole-file event into a skip-this-record-with-a-counted-reason
// event, while still distinguishing a crashed append (an incomplete frame
// at EOF — silently recoverable, nothing complete was lost) from real
// corruption.
//
// Durability is a policy, not a hard-coded flush: none (in-process
// buffering, fastest, a crash may lose the buffered tail), flush
// (write-through per record — the default, matching the store's historical
// behavior), fsync-every-N (bounded data loss under power failure), and
// fsync-on-close. Overridable process-wide with METACORE_DURABILITY.
//
// Every write/fsync/rename boundary consults a named fail point
// (robust/failpoint.hpp), so tests enumerate exact crash points and
// injected transient I/O errors; real and injected write errors share one
// retry-with-backoff path, and a terminal failure surfaces as
// JournalIoError for the caller's degraded-mode handling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace metacore::robust {

/// Terminal I/O failure: the write/fsync/rename still failed after the
/// bounded retry-with-backoff. Callers decide policy (the store degrades to
/// read-only on a failed append; a failed compaction propagates).
class JournalIoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class DurabilityPolicy { None, Flush, FsyncEveryN, FsyncOnClose };

struct DurabilityConfig {
  DurabilityPolicy policy = DurabilityPolicy::Flush;
  /// FsyncEveryN only: fsync after every N appended records (N >= 1).
  std::size_t fsync_interval = 1;

  /// Parses "none" | "flush" | "fsync-every-N" | "fsync-on-close".
  /// Throws std::invalid_argument on anything else.
  static DurabilityConfig parse(const std::string& spec);
  /// METACORE_DURABILITY when set (and non-empty), else the default
  /// (flush). Throws on a malformed value — a misspelled durability knob
  /// must never silently weaken guarantees.
  static DurabilityConfig from_env();
  std::string to_string() const;
};

inline constexpr int kJournalFormatVersion = 1;

/// Client identification carried in the header line.
struct JournalHeader {
  std::string kind;
  int kind_version = 1;
};

std::string journal_header_line(const JournalHeader& header);

/// Frames one payload ('#' len '|' crc '|' payload '\n').
std::string frame_record(std::string_view payload);

/// True when `text` starts with a journal header (terminated or not) —
/// the format sniff callers use before read_journal_text.
bool looks_like_journal(std::string_view text);

/// Append-oriented framed writer over a POSIX fd. Not internally
/// synchronized: callers serialize appends (the store holds its writer
/// lock).
class JournalWriter {
 public:
  /// `truncate` starts a fresh journal (writes the header); otherwise
  /// appends to an existing, already-validated file. `failpoint_tag`
  /// namespaces this writer's boundaries: "<tag>.append", "<tag>.sync".
  /// Throws JournalIoError when the file cannot be opened or the header
  /// cannot be written.
  JournalWriter(std::string path, JournalHeader header,
                DurabilityConfig durability, bool truncate,
                std::string failpoint_tag);
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Frames and appends one record, applying the durability policy.
  /// Throws CrashInjected (armed fail point) or JournalIoError (terminal
  /// write failure after retries).
  void append(std::string_view payload);

  /// Drains the in-process buffer (none policy) and fsyncs.
  void sync();

  /// Drains, applies fsync-on-close, and closes the fd. Idempotent.
  void close();

  std::size_t appends() const { return appends_; }
  std::size_t io_retries() const { return io_retries_; }
  const std::string& path() const { return path_; }

 private:
  void write_all(const char* data, std::size_t size, const char* point);
  void drain_buffer();
  void fsync_now(const char* point);

  std::string path_;
  std::string tag_;
  DurabilityConfig durability_;
  int fd_ = -1;
  std::string buffer_;  // used by DurabilityPolicy::None only
  std::size_t appends_ = 0;
  std::size_t appends_since_sync_ = 0;
  std::size_t io_retries_ = 0;
};

struct JournalReadResult {
  JournalHeader header;
  /// Payloads of every frame whose length and CRC32C checked out, in file
  /// order.
  std::vector<std::string> records;
  /// Complete-but-damaged frames skipped (CRC mismatch, broken framing
  /// mid-file); one descriptive reason per skip in skip_reasons.
  std::size_t skipped_records = 0;
  std::vector<std::string> skip_reasons;
  /// Bytes of an incomplete frame at EOF — the signature of a crashed
  /// append; dropped silently (nothing complete was lost).
  std::size_t recovered_tail_bytes = 0;
  /// Byte offset one past the last good frame (where a truncating
  /// recovery rewrite would cut).
  std::size_t good_end = 0;
};

/// Parses journal `text`. Throws std::runtime_error (prefixed with `what`)
/// only for header-level problems: not a journal, an unreadable header, or
/// an unsupported journal format version — record-level damage is returned
/// as skips/tail, never thrown. Callers validate header.kind themselves.
JournalReadResult read_journal_text(const std::string& text,
                                    const std::string& what);

/// Durable atomic replace: writes `contents` to `path + ".tmp"`, fsyncs it
/// (policies other than none), renames it over `path`, and fsyncs the
/// parent directory — so the file at `path` is always either the old or
/// the new complete contents, even across power loss. Fail points:
/// "<tag>.write" (byte-partial crashes), "<tag>.sync", "<tag>.rename"
/// (before), "<tag>.renamed" (after). Throws CrashInjected or
/// JournalIoError (prefixed with `what`).
void atomic_replace_file(const std::string& path, std::string_view contents,
                         const DurabilityConfig& durability,
                         const std::string& failpoint_tag,
                         const std::string& what);

}  // namespace metacore::robust
