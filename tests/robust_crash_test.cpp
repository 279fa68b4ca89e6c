// The crash matrix: deterministic fail-point injection over the
// persistence layer (robust/journal.hpp, robust/failpoint.hpp). These
// tests kill the evaluation-store journal after every byte of every
// record write and at each compaction boundary, then reopen as
// a restarted process would and assert bit-identical recovery: the file
// equals what a clean run over the surviving prefix would have produced,
// completed sessions converge to byte-identical journals, and no
// completed record is ever lost. Plus the fault half: injected transient
// I/O errors exercise retry-with-backoff; a dead device flips the store
// into degraded read-only mode without failing the search above it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "robust/failpoint.hpp"
#include "robust/journal.hpp"
#include "search/multires_search.hpp"
#include "serve/store.hpp"
#include "util/crc32c.hpp"
#include "temp_dir.hpp"

namespace metacore::robust {
namespace {

#ifdef METACORE_FAILPOINTS

std::string temp_path(const char* name) {
  const std::string path = metacore::test::process_temp_dir() + "/" + name;
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::trunc | std::ios::binary) << bytes;
}

/// Scoped disarm-everything: each test leaves the process-global registry
/// clean even on assertion failure.
struct FailPointGuard {
  FailPointGuard() { FailPoints::instance().reset(); }
  ~FailPointGuard() { FailPoints::instance().reset(); }
};

search::Evaluation eval_with_cost(double cost) {
  search::Evaluation eval;
  eval.feasible = true;
  eval.confidence_weight = 7.0;
  eval.metrics["cost"] = cost;
  return eval;
}

/// The session the store crash matrix replays: three records under one
/// fingerprint.
constexpr int kSessionRecords = 3;

void record_nth(serve::EvaluationStore& store, int n) {
  store.record("fp", {n}, 0, eval_with_cost(static_cast<double>(n) + 0.5));
}

/// Clean-run reference: the exact journal bytes a session that wrote the
/// first `k` records produces.
std::string reference_journal(const std::string& dir_tag, int k) {
  const std::string path =
      temp_path(("crash_ref_" + dir_tag + "_" + std::to_string(k)).c_str());
  {
    serve::EvaluationStore store(path);
    for (int n = 1; n <= k; ++n) record_nth(store, n);
  }
  const std::string bytes = read_file(path);
  std::remove(path.c_str());
  return bytes;
}

// --- Unit coverage for the pieces the matrix is built from.

TEST(Crc32c, MatchesCheckValue) {
  // The CRC32C (Castagnoli) check value: crc of "123456789" (RFC 3720).
  EXPECT_EQ(util::crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(util::crc32c(""), 0u);
  // Any single flipped bit changes the checksum.
  std::string probe = "123456789";
  for (std::size_t i = 0; i < probe.size(); ++i) {
    probe[i] ^= 0x01;
    EXPECT_NE(util::crc32c(probe), 0xE3069283u) << i;
    probe[i] ^= 0x01;
  }
}

TEST(Durability, ParsesEveryPolicy) {
  EXPECT_EQ(DurabilityConfig::parse("none").policy, DurabilityPolicy::None);
  EXPECT_EQ(DurabilityConfig::parse("flush").policy, DurabilityPolicy::Flush);
  EXPECT_EQ(DurabilityConfig::parse("fsync-on-close").policy,
            DurabilityPolicy::FsyncOnClose);
  const DurabilityConfig every = DurabilityConfig::parse("fsync-every-16");
  EXPECT_EQ(every.policy, DurabilityPolicy::FsyncEveryN);
  EXPECT_EQ(every.fsync_interval, 16u);
  EXPECT_EQ(every.to_string(), "fsync-every-16");
  EXPECT_THROW(DurabilityConfig::parse("fsync"), std::invalid_argument);
  EXPECT_THROW(DurabilityConfig::parse("fsync-every-0"), std::invalid_argument);
  EXPECT_THROW(DurabilityConfig::parse("fsync-every-x"), std::invalid_argument);
  EXPECT_THROW(DurabilityConfig::parse(""), std::invalid_argument);
}

TEST(FailPointSpecs, ParsesEnvSyntax) {
  FailPointGuard guard;
  auto& fps = FailPoints::instance();
  fps.arm_from_string("a.write:crash@3+17;b.sync:io@2*5;c.rename:crash@1");
  // a.write: hits 1-2 pass, hit 3 crashes with 17 bytes landed.
  EXPECT_FALSE(fps.on_hit("a.write").crash);
  EXPECT_FALSE(fps.on_hit("a.write").crash);
  const FailPointResult third = fps.on_hit("a.write");
  EXPECT_TRUE(third.crash);
  EXPECT_EQ(third.partial_bytes, 17u);
  // b.sync: hit 1 passes, hits 2-6 fail, hit 7 passes.
  EXPECT_FALSE(fps.on_hit("b.sync").io_error);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(fps.on_hit("b.sync").io_error);
  EXPECT_FALSE(fps.on_hit("b.sync").io_error);
  // c.rename: immediate crash, whole write.
  const FailPointResult c = fps.on_hit("c.rename");
  EXPECT_TRUE(c.crash);
  EXPECT_EQ(c.partial_bytes, SIZE_MAX);
  EXPECT_EQ(fps.hits("a.write"), 3u);

  EXPECT_THROW(fps.arm_from_string("noaction"), std::invalid_argument);
  EXPECT_THROW(fps.arm_from_string("x:explode@1"), std::invalid_argument);
  EXPECT_THROW(fps.arm_from_string("x:crash@"), std::invalid_argument);
  EXPECT_THROW(fps.arm_from_string("x:crash@0"), std::invalid_argument);
  EXPECT_THROW(fps.arm_from_string("x:io@1*0"), std::invalid_argument);
}

TEST(Journal, FrameRoundTripAllowsNewlinesInPayloads) {
  const std::string text =
      journal_header_line(JournalHeader{"test-kind", 3}) +
      frame_record("first\nrecord\nwith\nnewlines") + frame_record("") +
      frame_record("third");
  ASSERT_TRUE(looks_like_journal(text));
  const JournalReadResult r = read_journal_text(text, "test");
  EXPECT_EQ(r.header.kind, "test-kind");
  EXPECT_EQ(r.header.kind_version, 3);
  ASSERT_EQ(r.records.size(), 3u);
  EXPECT_EQ(r.records[0], "first\nrecord\nwith\nnewlines");
  EXPECT_EQ(r.records[1], "");
  EXPECT_EQ(r.records[2], "third");
  EXPECT_EQ(r.skipped_records, 0u);
  EXPECT_EQ(r.recovered_tail_bytes, 0u);
  EXPECT_EQ(r.good_end, text.size());
}

// --- The crash matrix proper.

// Kill the store journal after every byte of every record write. For each
// record n (1-based) and each byte count b in [0, frame_size(n)]:
//  * arm store.journal.append to crash at hit n after b bytes,
//  * run the session, expect the simulated process death,
//  * reopen as a restarted process: recovery must keep exactly the
//    records whose frames completed, and the recovered file must be
//    byte-identical to a clean session that wrote only those records,
//  * finish the session: the final journal must be byte-identical to an
//    uninterrupted run, with no completed record ever re-journaled.
TEST(CrashMatrix, StoreJournalSurvivesEveryByteBoundary) {
  FailPointGuard guard;
  // Frame sizes, from a clean run: store payloads never contain raw
  // newlines, so frames are exactly the newline-terminated lines after
  // the header.
  const std::string golden = reference_journal("golden", kSessionRecords);
  std::vector<std::size_t> frame_sizes;
  for (std::size_t at = golden.find('\n') + 1; at < golden.size();) {
    const std::size_t nl = golden.find('\n', at);
    ASSERT_NE(nl, std::string::npos);
    frame_sizes.push_back(nl - at + 1);
    at = nl + 1;
  }
  ASSERT_EQ(frame_sizes.size(), static_cast<std::size_t>(kSessionRecords));

  std::vector<std::string> references;  // clean-run bytes for k = 0..N
  for (int k = 0; k <= kSessionRecords; ++k) {
    references.push_back(reference_journal("k", k));
  }

  int points_enumerated = 0;
  for (int n = 1; n <= kSessionRecords; ++n) {
    for (std::size_t b = 0; b <= frame_sizes[n - 1]; ++b) {
      const std::string path = temp_path("crash_matrix.jsonl");
      FailPoints::instance().reset();
      FailPointSpec spec;
      spec.action = FailPointSpec::Action::Crash;
      spec.trigger_hit = static_cast<std::size_t>(n);
      spec.partial_bytes = b;
      FailPoints::instance().arm("store.journal.append", spec);

      bool crashed = false;
      {
        serve::EvaluationStore store(path);
        try {
          for (int i = 1; i <= kSessionRecords; ++i) record_nth(store, i);
        } catch (const CrashInjected&) {
          crashed = true;
        }
      }
      ASSERT_TRUE(crashed) << "record " << n << " byte " << b;
      FailPoints::instance().reset();

      // A full frame followed by the crash means record n survived.
      const int kept = b == frame_sizes[n - 1] ? n : n - 1;
      {
        serve::EvaluationStore store(path);
        ASSERT_EQ(store.size(), static_cast<std::size_t>(kept))
            << "record " << n << " byte " << b;
        for (int i = 1; i <= kept; ++i) {
          ASSERT_TRUE(store.lookup("fp", {i}, 0).has_value());
        }
      }
      // Bit-identical recovery: the reopened-and-rewritten file equals a
      // clean session over the surviving prefix.
      ASSERT_EQ(read_file(path), references[kept])
          << "record " << n << " byte " << b;

      // Finish the session; completion must converge byte-for-byte with
      // the uninterrupted run, and survivors must not be re-journaled.
      {
        serve::EvaluationStore store(path);
        for (int i = 1; i <= kSessionRecords; ++i) record_nth(store, i);
        EXPECT_EQ(store.stats().appends,
                  static_cast<std::size_t>(kSessionRecords - kept));
      }
      ASSERT_EQ(read_file(path), golden) << "record " << n << " byte " << b;
      std::remove(path.c_str());
      ++points_enumerated;
    }
  }
  // The sweep really enumerated every byte of every frame.
  std::size_t expected = 0;
  for (const std::size_t s : frame_sizes) expected += s + 1;
  EXPECT_EQ(points_enumerated, static_cast<int>(expected));
}

// Kill the very first write — the header line — at every byte: the next
// open must treat the fragment as a crashed header write and start fresh.
TEST(CrashMatrix, StoreHeaderWriteSurvivesEveryByteBoundary) {
  FailPointGuard guard;
  const std::string header_line = journal_header_line(
      JournalHeader{"metacore-evaluation-store", serve::kStoreVersion});
  // Stop one byte short of the full header: a complete header is just a
  // clean open.
  for (std::size_t b = 0; b < header_line.size(); ++b) {
    const std::string path = temp_path("crash_header.jsonl");
    FailPoints::instance().reset();
    FailPointSpec spec;
    spec.partial_bytes = b;
    FailPoints::instance().arm("store.journal.header", spec);
    EXPECT_THROW(serve::EvaluationStore store(path), CrashInjected);
    FailPoints::instance().reset();

    serve::EvaluationStore store(path);
    EXPECT_EQ(store.size(), 0u);
    record_nth(store, 1);
    EXPECT_EQ(store.stats().appends, 1u);
    std::remove(path.c_str());
  }
}

// Compaction publishes through a durable atomic replace: a crash at any of
// its boundaries leaves either the dup-laden old journal or the compacted
// new one — both replay to the same live set.
TEST(CrashMatrix, CompactionCrashLeavesOldOrNewJournal) {
  FailPointGuard guard;
  const std::string ref = reference_journal("compact", 2);

  const std::vector<std::pair<const char*, std::size_t>> boundaries = {
      {"store.compact.write", 0},
      {"store.compact.write", 1},
      {"store.compact.write", 10},
      {"store.compact.write", ref.size() / 2},
      {"store.compact.write", SIZE_MAX},
      {"store.compact.sync", SIZE_MAX},
      {"store.compact.rename", SIZE_MAX},
      {"store.compact.renamed", SIZE_MAX},
  };
  for (const auto& [point, partial] : boundaries) {
    const std::string path = temp_path("crash_compact.jsonl");
    // A journal whose dead ratio (2 dup frames / 4) triggers compaction
    // at open.
    const std::string frames = ref.substr(ref.find('\n') + 1);
    write_file(path, ref + frames);

    FailPoints::instance().reset();
    FailPointSpec spec;
    spec.partial_bytes = partial;
    FailPoints::instance().arm(point, spec);
    EXPECT_THROW(serve::EvaluationStore store(path), CrashInjected) << point;
    FailPoints::instance().reset();

    // Old-or-new, never torn: whatever is on disk replays to the same
    // two live records (and the interrupted compaction reruns if the old
    // file survived).
    serve::EvaluationStore store(path);
    EXPECT_EQ(store.size(), 2u) << point;
    ASSERT_TRUE(store.lookup("fp", {1}, 0).has_value()) << point;
    ASSERT_TRUE(store.lookup("fp", {2}, 0).has_value()) << point;
    EXPECT_EQ(store.stats().skipped_records, 0u) << point;
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
}

// atomic_replace_file itself, under a tag of its own: a crash at the tmp
// write, the fsync, or just before the rename leaves the old file; a crash
// just after the rename leaves the new one. Never a torn file, and the
// next replace rewrites the stale tmp and publishes the new bytes.
TEST(CrashMatrix, AtomicReplaceIsAtomicAtEveryBoundary) {
  FailPointGuard guard;
  const std::string path = temp_path("crash_replace.txt");
  const std::string old_bytes = "old contents\n";
  const std::string new_bytes = "new contents, longer than the old ones\n";
  const DurabilityConfig durability = DurabilityConfig::parse("fsync-every-1");

  struct Boundary {
    const char* point;
    std::size_t partial_bytes;
    bool expect_new;
  };
  const std::vector<Boundary> boundaries = {
      {"test.replace.write", 0, false},
      {"test.replace.write", 1, false},
      {"test.replace.write", new_bytes.size() / 2, false},
      {"test.replace.write", SIZE_MAX, false},  // full write, die before sync
      {"test.replace.sync", SIZE_MAX, false},
      {"test.replace.rename", SIZE_MAX, false},
      {"test.replace.renamed", SIZE_MAX, true},
  };
  for (const Boundary& boundary : boundaries) {
    write_file(path, old_bytes);
    FailPoints::instance().reset();
    FailPointSpec spec;
    spec.partial_bytes = boundary.partial_bytes;
    FailPoints::instance().arm(boundary.point, spec);
    EXPECT_THROW(atomic_replace_file(path, new_bytes, durability,
                                     "test.replace", "replace"),
                 CrashInjected)
        << boundary.point;
    FailPoints::instance().reset();

    EXPECT_EQ(read_file(path), boundary.expect_new ? new_bytes : old_bytes)
        << boundary.point;
    atomic_replace_file(path, new_bytes, durability, "test.replace",
                        "replace");
    EXPECT_EQ(read_file(path), new_bytes) << boundary.point;
  }
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// --- Corruption fuzz: one flipped byte per record, every record.

TEST(CorruptionFuzz, EveryRecordSkippedWithCountedReasonWhenBitFlipped) {
  FailPointGuard guard;
  constexpr int kRecords = 8;
  const std::string path = temp_path("fuzz.jsonl");
  {
    serve::EvaluationStore store(path);
    for (int n = 1; n <= kRecords; ++n) record_nth(store, n);
  }
  const std::string pristine = read_file(path);

  // Frame boundaries (store payloads contain no raw newlines).
  std::vector<std::pair<std::size_t, std::size_t>> frames;  // (start, size)
  for (std::size_t at = pristine.find('\n') + 1; at < pristine.size();) {
    const std::size_t nl = pristine.find('\n', at);
    frames.emplace_back(at, nl - at + 1);
    at = nl + 1;
  }
  ASSERT_EQ(frames.size(), static_cast<std::size_t>(kRecords));

  for (int n = 0; n < kRecords; ++n) {
    // Deterministic "bit rot": flip one bit somewhere in record n's frame
    // (position varies per record across prefix, CRC field, and payload).
    const auto [start, size] = frames[n];
    std::string damaged = pristine;
    const std::size_t victim = start + (7u * n + 3u) % (size - 1);
    damaged[victim] ^= 0x10;
    write_file(path, damaged);

    serve::EvaluationStore store(path);
    const auto stats = store.stats();
    EXPECT_GE(stats.skipped_records, 1u) << "record " << n;
    EXPECT_FALSE(stats.skip_reasons.empty()) << "record " << n;
    // Every record other than the damaged one survives.
    for (int i = 1; i <= kRecords; ++i) {
      if (i == n + 1) continue;
      EXPECT_TRUE(store.lookup("fp", {i}, 0).has_value())
          << "record " << i << " lost to a flip in record " << n + 1;
    }
    EXPECT_EQ(store.size(), static_cast<std::size_t>(kRecords - 1))
        << "record " << n;
  }
  std::remove(path.c_str());
}

// --- Injected I/O errors: retry-with-backoff, then degraded mode.

TEST(IoErrors, TransientAppendFailureRetriesAndSucceeds) {
  FailPointGuard guard;
  const std::string path = temp_path("transient.jsonl");
  serve::EvaluationStore store(path);
  record_nth(store, 1);
  // The second append's first two attempts fail; the third succeeds.
  FailPointSpec spec;
  spec.action = FailPointSpec::Action::IoError;
  spec.trigger_hit = 2;
  spec.error_count = 2;
  FailPoints::instance().arm("store.journal.append", spec);
  record_nth(store, 2);
  const auto stats = store.stats();
  EXPECT_EQ(stats.io_retries, 2u);
  EXPECT_EQ(stats.appends, 2u);
  EXPECT_EQ(stats.dropped_writes, 0u);
  EXPECT_FALSE(stats.degraded);
  FailPoints::instance().reset();

  serve::EvaluationStore reopened(path);
  EXPECT_EQ(reopened.size(), 2u);
  std::remove(path.c_str());
}

// Open reads the journal whole. A read that stops short fails the open
// with the path named and leaves the journal as it was: replayed, the part
// read would look like a crashed tail, and the recovery rewrite would drop
// every record past it.
TEST(IoErrors, ShortReadAtOpenFailsAndKeepsTheJournal) {
  FailPointGuard guard;
  const std::string path = temp_path("short_read.store");
  {
    serve::EvaluationStore store(path);
    for (int n = 1; n <= 4; ++n) {
      store.record("fp-" + std::to_string(n), {n}, 0, eval_with_cost(n));
    }
  }
  const std::string before = read_file(path);

  FailPoints::instance().reset();
  FailPointSpec spec;
  spec.action = FailPointSpec::Action::IoError;
  FailPoints::instance().arm("store.journal.read", spec);
  try {
    serve::EvaluationStore store(path);
    ADD_FAILURE() << "a short read must fail the open";
  } catch (const JournalIoError& e) {
    EXPECT_NE(std::string(e.what()).find("short read of " + path),
              std::string::npos)
        << e.what();
  }
  FailPoints::instance().reset();
  EXPECT_EQ(read_file(path), before);

  serve::EvaluationStore store(path);
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(store.stats().recovered_bytes, 0u);
  std::remove(path.c_str());
}

// A replace whose tmp writes never succeed gives up with an error that
// carries its prefix, and the published file keeps its old bytes.
TEST(IoErrors, PersistentReplaceWriteErrorKeepsTheOldFile) {
  FailPointGuard guard;
  const std::string path = temp_path("replace_dead.txt");
  write_file(path, "old contents\n");
  FailPointSpec spec;
  spec.action = FailPointSpec::Action::IoError;
  spec.error_count = SIZE_MAX;
  FailPoints::instance().arm("test.replace.write", spec);
  try {
    atomic_replace_file(path, "new contents\n", DurabilityConfig{},
                        "test.replace", "replace-test");
    FAIL() << "a write that always fails must throw";
  } catch (const JournalIoError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("replace-test: write to " + path + ".tmp", 0), 0u)
        << what;
  }
  FailPoints::instance().reset();
  EXPECT_EQ(read_file(path), "old contents\n");

  atomic_replace_file(path, "new contents\n", DurabilityConfig{},
                      "test.replace", "replace-test");
  EXPECT_EQ(read_file(path), "new contents\n");
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// A target in a directory that does not exist fails at the tmp open, with
// the prefix and the tmp path in the message, and creates nothing.
TEST(IoErrors, ReplaceIntoMissingDirectoryNamesTheTmpFile) {
  const std::string dir =
      metacore::test::process_temp_dir() + "/replace_missing_dir";
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/target.txt";
  try {
    atomic_replace_file(path, "contents\n", DurabilityConfig{},
                        "test.replace", "replace-test");
    FAIL() << "a replace into a missing directory must throw";
  } catch (const JournalIoError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("replace-test: cannot open " + path + ".tmp", 0), 0u)
        << what;
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(IoErrors, DeadDeviceDegradesToReadOnlyAndCompactRecovers) {
  FailPointGuard guard;
  const std::string path = temp_path("degraded.jsonl");
  serve::EvaluationStore store(path);
  record_nth(store, 1);
  // The device never comes back: every attempt of every later append
  // fails.
  FailPointSpec spec;
  spec.action = FailPointSpec::Action::IoError;
  spec.trigger_hit = 2;
  spec.error_count = SIZE_MAX;
  FailPoints::instance().arm("store.journal.append", spec);

  record_nth(store, 2);  // exhausts retries, flips degraded — no throw
  EXPECT_TRUE(store.degraded());
  record_nth(store, 3);  // degraded: absorbed in memory, not journaled
  auto stats = store.stats();
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.dropped_writes, 2u);
  EXPECT_GT(stats.io_retries, 0u);

  // Reads keep working: the in-memory set has all three records.
  EXPECT_EQ(store.size(), 3u);
  ASSERT_TRUE(store.lookup("fp", {2}, 0).has_value());
  ASSERT_TRUE(store.lookup("fp", {3}, 0).has_value());
  EXPECT_EQ(store.entries_for("fp").size(), 3u);
  // But the journal only holds what made it down before the device died.
  {
    serve::EvaluationStore on_disk(path);
    EXPECT_EQ(on_disk.size(), 1u);
  }

  // Device comes back: a successful compact() re-establishes the journal
  // from the full in-memory set.
  FailPoints::instance().reset();
  EXPECT_GE(store.compact(), 0u);
  EXPECT_FALSE(store.degraded());
  record_nth(store, 4);
  serve::EvaluationStore recovered(path);
  EXPECT_EQ(recovered.size(), 4u);
  std::remove(path.c_str());
}

TEST(IoErrors, SearchSucceedsOverDegradedStore) {
  FailPointGuard guard;
  const std::string path = temp_path("degraded_search.jsonl");
  auto store = std::make_shared<serve::EvaluationStore>(path);
  // Journal dead from the first append on.
  FailPointSpec spec;
  spec.action = FailPointSpec::Action::IoError;
  spec.error_count = SIZE_MAX;
  FailPoints::instance().arm("store.journal.append", spec);

  std::vector<search::ParameterDef> params(2);
  for (int d = 0; d < 2; ++d) {
    params[d].name = "x" + std::to_string(d);
    for (int i = 0; i < 9; ++i) params[d].values.push_back(i / 8.0);
    params[d].correlation = search::Correlation::Smooth;
  }
  search::Objective objective;
  objective.minimize = "cost";
  search::SearchConfig config;
  config.max_resolution = 2;
  config.store = store;
  config.store_fingerprint = "bowl";
  search::MultiresolutionSearch engine(
      search::DesignSpace(params), objective,
      [](const std::vector<double>& x, int) {
        search::Evaluation e;
        e.metrics["cost"] =
            (x[0] - 0.5) * (x[0] - 0.5) + (x[1] - 0.25) * (x[1] - 0.25);
        return e;
      },
      config);
  // The search itself must be oblivious: same result, store degraded.
  const search::SearchResult result = engine.run();
  EXPECT_TRUE(result.found_feasible);
  EXPECT_GT(result.evaluations, 0u);
  EXPECT_TRUE(store->degraded());
  const auto stats = store->stats();
  EXPECT_TRUE(stats.degraded);
  EXPECT_GT(stats.dropped_writes, 0u);
  EXPECT_EQ(stats.appends, 0u);
  // The evaluations still landed in memory for this process's reuse.
  EXPECT_EQ(store->size(), stats.dropped_writes);
  std::remove(path.c_str());
}

#else  // !METACORE_FAILPOINTS

TEST(CrashMatrix, RequiresFailPointBuild) {
  GTEST_SKIP() << "built without METACORE_FAILPOINTS";
}

#endif

}  // namespace
}  // namespace metacore::robust
