// Tests for the persistent content-addressed evaluation store: framed
// journal round-trip fidelity, load-time and manual compaction, crash-tail
// recovery, the corruption policy (per-record CRC skip with counted
// reasons; header-level problems, v1 stores included, reject), the direct
// payload parser against the general JSON path, divergent
// duplicate detection, concurrent reader/writer discipline, the
// cold-search/warm-search equivalence the design-query service builds on,
// and resuming a killed search from the store.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/iir_metacore.hpp"
#include "exec/thread_pool.hpp"
#include "robust/fault_injection.hpp"
#include "robust/journal.hpp"
#include "robust/json.hpp"
#include "search/multires_search.hpp"
#include "serve/store.hpp"
#include "util/rng.hpp"
#include "temp_dir.hpp"

namespace metacore::serve {
namespace {

std::string temp_store_path(const char* name) {
  const std::string path = metacore::test::process_temp_dir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void append_raw(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::app | std::ios::binary);
  os << bytes;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::trunc | std::ios::binary) << bytes;
}

search::Evaluation sample_eval(double cost) {
  search::Evaluation eval;
  eval.feasible = true;
  eval.confidence_weight = 42.0;
  eval.metrics["cost"] = cost;
  eval.metrics["odd"] = 0.1 + 0.2;  // not exactly 0.3: exercises %.17g
  return eval;
}

TEST(EvaluationStore, CreatesFreshJournalWithHeader) {
  const std::string path = temp_store_path("fresh.jsonl");
  EvaluationStore store(path);
  EXPECT_EQ(store.size(), 0u);
  const std::string text = read_file(path);
  EXPECT_NE(text.find("metacore-journal"), std::string::npos);
  EXPECT_NE(text.find("metacore-evaluation-store"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
  std::remove(path.c_str());
}

// Every store ever written must keep replaying and every new journal must
// be readable by older builds, so the journal bytes are pinned end to end:
// header line, frame lengths, CRCs and payloads, in append order.
const std::string kPinnedHeader =
    R"({"magic":"metacore-journal","version":1,"kind":"metacore-evaluation-store","kind_version":2})" "\n";
const std::string kPinnedViterbiB =
    R"(#000000af|10e6daff|{"fingerprint":"viterbi|b","record":{"indices":[2,0],"fidelity":1,"feasible":true,"confidence_weight":42,"failure_reason":"","metrics":{"cost":2.5,"odd":0.30000000000000004}}})" "\n";
const std::string kPinnedIirA0 =
    R"(#000000a8|4beed255|{"fingerprint":"iir|a","record":{"indices":[0],"fidelity":0,"feasible":true,"confidence_weight":42,"failure_reason":"","metrics":{"cost":-1,"odd":0.30000000000000004}}})" "\n";
const std::string kPinnedIirA1 =
    R"(#000000a9|0aaaba52|{"fingerprint":"iir|a","record":{"indices":[1],"fidelity":0,"feasible":true,"confidence_weight":42,"failure_reason":"","metrics":{"cost":0.5,"odd":0.30000000000000004}}})" "\n";
const std::string kPinnedJournal =
    kPinnedHeader + kPinnedViterbiB + kPinnedIirA0;

TEST(EvaluationStore, JournalBytesFromAnEmptyStoreArePinned) {
  const std::string path = temp_store_path("pinned_empty.journal");
  {
    EvaluationStore store(path);
    store.record("viterbi|b", {2, 0}, 1, sample_eval(2.5));
    store.record("iir|a", {0}, 0, sample_eval(-1.0));
    // A repeat of a held key writes nothing.
    store.record("viterbi|b", {2, 0}, 1, sample_eval(2.5));
  }
  EXPECT_EQ(read_file(path), kPinnedJournal);
  std::remove(path.c_str());
}

TEST(EvaluationStore, JournalBytesAppendedToASeededStoreArePinned) {
  const std::string path = temp_store_path("pinned_seeded.journal");
  write_file(path, kPinnedJournal);
  {
    EvaluationStore store(path);
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store.stats().compactions, 0u);
    store.record("iir|a", {0}, 0, sample_eval(-1.0));  // held: no bytes
    store.record("iir|a", {1}, 0, sample_eval(0.5));
  }
  EXPECT_EQ(read_file(path), kPinnedJournal + kPinnedIirA1);
  // The compaction snapshot of the seeded store is pinned too: the same
  // header and frames, rewritten in key order.
  {
    EvaluationStore store(path);
    store.compact();
  }
  EXPECT_EQ(read_file(path),
            kPinnedHeader + kPinnedIirA0 + kPinnedIirA1 + kPinnedViterbiB);
  std::remove(path.c_str());
}

TEST(EvaluationStore, RejectsEmptyPath) {
  EXPECT_THROW(EvaluationStore(""), std::invalid_argument);
}

TEST(EvaluationStore, RoundTripsEvaluationsBitExactly) {
  const std::string path = temp_store_path("roundtrip.jsonl");
  search::Evaluation weird;
  weird.feasible = false;
  weird.confidence_weight = 3.0517578125e-05;
  weird.failure_reason = "non-convergence: \"quoted\"\n\ttabbed \\ slash";
  weird.metrics = {{"inf", std::numeric_limits<double>::infinity()},
                   {"ninf", -std::numeric_limits<double>::infinity()},
                   {"tiny", 4.9406564584124654e-324}};
  search::Evaluation nan_sum;
  nan_sum.metrics = {{"nan", std::numeric_limits<double>::quiet_NaN()},
                     {"sum", 0.1 + 0.2}};  // not exactly 0.3
  {
    EvaluationStore store(path);
    store.record("fp-a", {0, 4}, 1, sample_eval(1.25));
    store.record("fp-a", {3, 1}, 0, weird);
    store.record("fp-b", {0, 4}, 1, sample_eval(9.0));
    store.record("fp-b", {2, 2}, 0, nan_sum);
    EXPECT_EQ(store.size(), 4u);
    EXPECT_EQ(store.stats().appends, 4u);
  }
  EvaluationStore reopened(path);
  EXPECT_EQ(reopened.size(), 4u);
  EXPECT_EQ(reopened.stats().journal_records, 4u);
  EXPECT_EQ(reopened.stats().duplicate_records, 0u);
  EXPECT_EQ(reopened.stats().skipped_records, 0u);
  EXPECT_EQ(reopened.stats().recovered_bytes, 0u);
  EXPECT_FALSE(reopened.stats().degraded);

  const auto hit = reopened.lookup("fp-a", {0, 4}, 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->metrics, sample_eval(1.25).metrics);  // bit-exact
  EXPECT_EQ(hit->confidence_weight, 42.0);

  const auto odd = reopened.lookup("fp-a", {3, 1}, 0);
  ASSERT_TRUE(odd.has_value());
  EXPECT_FALSE(odd->feasible);
  EXPECT_EQ(odd->failure_reason, weird.failure_reason);
  EXPECT_EQ(odd->metrics, weird.metrics);

  // NaN never compares equal, so it is checked apart from the map.
  const auto nan_hit = reopened.lookup("fp-b", {2, 2}, 0);
  ASSERT_TRUE(nan_hit.has_value());
  EXPECT_TRUE(std::isnan(nan_hit->metrics.at("nan")));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(nan_hit->metrics.at("sum")),
            std::bit_cast<std::uint64_t>(0.1 + 0.2));

  // Wrong fingerprint / indices / fidelity all miss.
  EXPECT_FALSE(reopened.lookup("fp-c", {0, 4}, 1).has_value());
  EXPECT_FALSE(reopened.lookup("fp-a", {0, 5}, 1).has_value());
  EXPECT_FALSE(reopened.lookup("fp-a", {0, 4}, 2).has_value());
  const auto stats = reopened.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 3u);
  std::remove(path.c_str());
}

/// Field-by-field bit identity, doubles compared by bit pattern (so -0.0
/// and denormals count).
void expect_bit_identical(const search::Evaluation& got,
                          const search::Evaluation& want,
                          const std::string& label) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(got.feasible, want.feasible) << label;
  EXPECT_EQ(got.failure_reason, want.failure_reason) << label;
  EXPECT_EQ(bits(got.confidence_weight), bits(want.confidence_weight))
      << label;
  ASSERT_EQ(got.metrics.size(), want.metrics.size()) << label;
  auto a = got.metrics.begin();
  auto b = want.metrics.begin();
  for (; a != got.metrics.end(); ++a, ++b) {
    EXPECT_EQ(a->first, b->first) << label;
    EXPECT_EQ(bits(a->second), bits(b->second)) << label << " " << a->first;
  }
}

// Records are held packed in memory (metric values next to a shared,
// interned name list). Real IIR evaluations — a different metric-name set
// from the Viterbi-style ones stored beside them — plus a guarded failure
// must come back bit-exactly from the in-memory record, from journal
// replay, and from a compaction snapshot.
// The record schema is shared by the journal frames and the service's
// archive points, and journals written by earlier builds must keep
// replaying, so its bytes are pinned: escapes, round-trip doubles, the
// sign of zero and the bare non-finite tokens.
TEST(EvalRecord, WriteEvalRecordBytesArePinned) {
  EvalRecord rec;
  rec.indices = {3, 1};
  rec.fidelity = 2;
  rec.eval.feasible = false;
  rec.eval.confidence_weight = 3.0517578125e-05;
  rec.eval.failure_reason = "invalid-point: \"quoted\"\n\ttabbed \\ slash";
  rec.eval.metrics = {{"cost", 0.1 + 0.2},
                      {"inf", std::numeric_limits<double>::infinity()},
                      {"nan", std::numeric_limits<double>::quiet_NaN()},
                      {"tiny", 4.9406564584124654e-324},
                      {"zero", -0.0}};
  std::string out;
  write_eval_record(out, rec.indices, rec.fidelity, rec.eval);
  EXPECT_EQ(out,
            R"({"indices":[3,1],"fidelity":2,"feasible":false,)"
            R"("confidence_weight":3.0517578125e-05,)"
            R"("failure_reason":"invalid-point: \"quoted\"\n\ttabbed \\ slash",)"
            R"("metrics":{"cost":0.30000000000000004,"inf":inf,"nan":nan,)"
            R"("tiny":4.9406564584124654e-324,"zero":-0}})");
}

TEST(EvaluationStore, PackedRecordsRoundTripIirEvaluationsBitExactly) {
  const std::string path = temp_store_path("packed.journal");
  const core::IirMetaCore iir(core::paper_bandpass_requirements(1.0));
  const search::DesignSpace space = iir.design_space();
  const search::EvaluateFn evaluate = iir.evaluator();

  struct Entry {
    std::string fingerprint;
    std::vector<int> indices;
    int fidelity;
    search::Evaluation eval;
  };
  std::vector<Entry> entries;
  const std::string iir_fp = iir.evaluation_fingerprint();
  for (const std::vector<int>& indices :
       {std::vector<int>{5, 0, 10, 0, 0}, std::vector<int>{5, 1, 10, 1, 0},
        std::vector<int>{0, 0, 10, 0, 0}, std::vector<int>{5, 0, 0, 0, 0}}) {
    for (const int fidelity : {0, 1}) {
      entries.push_back({iir_fp, indices, fidelity,
                         evaluate(space.values_at(indices), fidelity)});
    }
  }
  // The first point is a feasible design, so it carries every IIR metric.
  ASSERT_TRUE(entries.front().eval.has_metric("passband_ripple_db"));
  ASSERT_TRUE(entries.front().eval.has_metric("area_mm2"));
  search::Evaluation failed = entries.front().eval;
  failed.feasible = false;
  failed.failure_reason = "non-convergence: schedule_block: \"quoted\"\n";
  failed.confidence_weight = 3.0517578125e-05;
  failed.metrics["stable"] = -0.0;
  failed.metrics["registers"] = 4.9406564584124654e-324;
  failed.metrics["latency_us"] = std::numeric_limits<double>::infinity();
  entries.push_back({iir_fp, {1, 2}, 3, failed});
  entries.push_back({"fp-viterbi", {0, 4}, 1, sample_eval(1.25)});
  entries.push_back({"fp-viterbi", {0, 4}, 0, sample_eval(0.1 + 0.7)});

  const auto expect_all = [&](EvaluationStore& store, const char* stage) {
    EXPECT_EQ(store.size(), entries.size()) << stage;
    for (const Entry& e : entries) {
      const auto got = store.lookup(e.fingerprint, e.indices, e.fidelity);
      ASSERT_TRUE(got.has_value()) << stage;
      expect_bit_identical(*got, e.eval, stage);
      EXPECT_TRUE(store.contains(e.fingerprint, e.indices, e.fidelity));
    }
    for (const auto& [idx, fidelity, eval] : store.entries_for(iir_fp)) {
      const auto it = std::find_if(
          entries.begin(), entries.end(), [&](const Entry& e) {
            return e.fingerprint == iir_fp && e.indices == idx &&
                   e.fidelity == fidelity;
          });
      ASSERT_NE(it, entries.end()) << stage;
      expect_bit_identical(eval, it->eval, stage);
    }
  };

  std::string journal;
  {
    EvaluationStore store(path);
    for (const Entry& e : entries) {
      store.record(e.fingerprint, e.indices, e.fidelity, e.eval);
    }
    // A bit-identical re-record is a plain duplicate; one that differs
    // only in the sign of a zero is divergent, and the first write stays.
    store.record(iir_fp, {1, 2}, 3, failed);
    EXPECT_EQ(store.divergent_duplicates(), 0u);
    search::Evaluation positive_zero = failed;
    positive_zero.metrics["stable"] = 0.0;
    store.record(iir_fp, {1, 2}, 3, positive_zero);
    EXPECT_EQ(store.divergent_duplicates(), 1u);
    EXPECT_FALSE(store.contains(iir_fp, {1, 2}, 4));
    expect_all(store, "in memory");
    journal = read_file(path);
  }
  {
    EvaluationStore replayed(path);
    expect_all(replayed, "journal replay");
    replayed.compact();
    // The snapshot holds the same records in key order; it is a stable
    // fixed point of compaction.
    const std::string snapshot = read_file(path);
    replayed.compact();
    EXPECT_EQ(read_file(path), snapshot);
    EXPECT_EQ(snapshot.size(), journal.size());
  }
  EvaluationStore compacted(path);
  EXPECT_EQ(compacted.stats().journal_records, entries.size());
  expect_all(compacted, "compaction snapshot");
  std::remove(path.c_str());
}

// --- The load path's direct parser against the general JSON path.

/// The payloads the store journaled, in file order: the writer's own bytes.
std::vector<std::string> journal_payloads(const std::string& path) {
  return robust::read_journal_text(read_file(path), "test").records;
}

/// Runs both load parsers on `payload` and returns whether the direct one
/// took it. When it did, the general path must accept the same bytes and
/// agree on every field, doubles by bit pattern.
bool direct_agrees_with_json(const std::string& payload,
                             const std::string& label) {
  detail::StorePayload direct;
  if (!detail::parse_payload_direct(payload, direct)) return false;
  std::pair<std::string, EvalRecord> general;
  try {
    general = detail::parse_payload_json(payload);
  } catch (const std::runtime_error& e) {
    ADD_FAILURE() << label << ": direct parser accepted what the JSON path "
                  << "rejects (" << e.what() << "): " << payload;
    return true;
  }
  const auto& [fingerprint, rec] = general;
  EXPECT_EQ(direct.fingerprint, fingerprint) << label;
  EXPECT_EQ(direct.indices, rec.indices) << label;
  EXPECT_EQ(direct.fidelity, rec.fidelity) << label;
  search::Evaluation eval;
  eval.feasible = direct.feasible;
  eval.confidence_weight = direct.confidence_weight;
  eval.failure_reason = std::string(direct.failure_reason);
  for (std::size_t i = 0; i < direct.metric_names.size(); ++i) {
    eval.metrics.emplace_hint(eval.metrics.end(),
                              std::string(direct.metric_names[i]),
                              direct.metric_values[i]);
  }
  EXPECT_EQ(eval.metrics.size(), direct.metric_names.size()) << label;
  expect_bit_identical(eval, rec.eval, label + ": " + payload);
  return true;
}

/// A store payload as the raw JSON text of each value, joined in the
/// writer's layout unless a mutation changes the order or the spacing.
struct PayloadTokens {
  std::string fingerprint;
  std::vector<std::string> indices;
  std::string fidelity;
  std::string feasible;
  std::string confidence_weight;
  std::string failure_reason;
  std::vector<std::pair<std::string, std::string>> metrics;
  /// Order of the six record members (0 indices ... 5 metrics).
  std::vector<int> member_order{0, 1, 2, 3, 4, 5};
  bool record_first = false;  ///< "record" before "fingerprint"
  std::string space;          ///< written after every ':' and ','

  std::string join() const {
    const auto list = [&](const std::vector<std::string>& items) {
      std::string out;
      for (std::size_t i = 0; i < items.size(); ++i) {
        out += (i ? "," + space : "") + items[i];
      }
      return out;
    };
    std::vector<std::string> metric_items;
    for (const auto& [name, value] : metrics) {
      metric_items.push_back(name + ":" + space + value);
    }
    const std::string members[] = {
        "\"indices\":" + space + "[" + list(indices) + "]",
        "\"fidelity\":" + space + fidelity,
        "\"feasible\":" + space + feasible,
        "\"confidence_weight\":" + space + confidence_weight,
        "\"failure_reason\":" + space + failure_reason,
        "\"metrics\":" + space + "{" + list(metric_items) + "}"};
    std::vector<std::string> record;
    for (const int m : member_order) record.push_back(members[m]);
    const std::string fp = "\"fingerprint\":" + space + fingerprint;
    const std::string rec = "\"record\":" + space + "{" + list(record) + "}";
    return "{" + (record_first ? rec + "," + space + fp
                               : fp + "," + space + rec) +
           "}";
  }
};

PayloadTokens tokens_of(const std::string& fingerprint, const EvalRecord& rec) {
  const auto text = [](auto write) {
    std::ostringstream os;
    write(os);
    return os.str();
  };
  PayloadTokens t;
  t.fingerprint =
      text([&](std::ostream& os) { robust::write_escaped(os, fingerprint); });
  for (const int i : rec.indices) t.indices.push_back(std::to_string(i));
  t.fidelity = std::to_string(rec.fidelity);
  t.feasible = rec.eval.feasible ? "true" : "false";
  t.confidence_weight = text([&](std::ostream& os) {
    robust::write_double(os, rec.eval.confidence_weight);
  });
  t.failure_reason = text([&](std::ostream& os) {
    robust::write_escaped(os, rec.eval.failure_reason);
  });
  for (const auto& [name, value] : rec.eval.metrics) {
    t.metrics.emplace_back(
        text([&](std::ostream& os) { robust::write_escaped(os, name); }),
        text([&](std::ostream& os) { robust::write_double(os, value); }));
  }
  return t;
}

/// Records whose bytes the direct parser must take, plus the ones it must
/// leave to the JSON path: the record EvalRecord.WriteEvalRecordBytesArePinned
/// pins, and the IIR evaluations of
/// PackedRecordsRoundTripIirEvaluationsBitExactly.
struct PayloadCorpus {
  std::vector<std::pair<std::string, EvalRecord>> direct;
  /// Writer output with an escape in a string: declined by design.
  std::vector<std::pair<std::string, EvalRecord>> escaped;
};

PayloadCorpus payload_corpus() {
  PayloadCorpus corpus;
  EvalRecord pinned;
  pinned.indices = {3, 1};
  pinned.fidelity = 2;
  pinned.eval.feasible = false;
  pinned.eval.confidence_weight = 3.0517578125e-05;
  pinned.eval.failure_reason = "invalid-point: \"quoted\"\n\ttabbed \\ slash";
  pinned.eval.metrics = {{"cost", 0.1 + 0.2},
                         {"inf", std::numeric_limits<double>::infinity()},
                         {"nan", std::numeric_limits<double>::quiet_NaN()},
                         {"tiny", 4.9406564584124654e-324},
                         {"zero", -0.0}};
  corpus.escaped.emplace_back("fp-pinned", pinned);
  // The same doubles without the escaped reason: inf, nan, denormal, -0.
  EvalRecord plain = pinned;
  plain.fidelity = 3;
  plain.eval.failure_reason = "invalid-point: unquoted";
  plain.eval.metrics["ninf"] = -std::numeric_limits<double>::infinity();
  corpus.direct.emplace_back("fp-pinned", plain);
  EvalRecord empty;  // no indices, no metrics, feasible, weight 1
  corpus.direct.emplace_back("fp-empty", empty);

  const core::IirMetaCore iir(core::paper_bandpass_requirements(1.0));
  const search::DesignSpace space = iir.design_space();
  const search::EvaluateFn evaluate = iir.evaluator();
  const std::string iir_fp = iir.evaluation_fingerprint();
  const std::size_t first_iir = corpus.direct.size();
  for (const std::vector<int>& indices :
       {std::vector<int>{5, 0, 10, 0, 0}, std::vector<int>{5, 1, 10, 1, 0},
        std::vector<int>{0, 0, 10, 0, 0}, std::vector<int>{5, 0, 0, 0, 0}}) {
    for (const int fidelity : {0, 1}) {
      EvalRecord rec;
      rec.indices = indices;
      rec.fidelity = fidelity;
      rec.eval = evaluate(space.values_at(indices), fidelity);
      corpus.direct.emplace_back(iir_fp, rec);
    }
  }
  // The guarded failure of the packed-record test: the first (feasible)
  // design's metrics plus -0, a denormal and inf.
  EvalRecord failed = corpus.direct[first_iir].second;
  failed.indices = {1, 2};
  failed.fidelity = 3;
  failed.eval.feasible = false;
  failed.eval.failure_reason = "non-convergence: schedule_block: \"quoted\"\n";
  failed.eval.confidence_weight = 3.0517578125e-05;
  failed.eval.metrics["stable"] = -0.0;
  failed.eval.metrics["registers"] = 4.9406564584124654e-324;
  failed.eval.metrics["latency_us"] = std::numeric_limits<double>::infinity();
  corpus.escaped.emplace_back(iir_fp, failed);
  failed.eval.failure_reason = "non-convergence: schedule_block";
  failed.fidelity = 4;
  corpus.direct.emplace_back(iir_fp, failed);
  corpus.direct.emplace_back("fp-viterbi",
                             EvalRecord{{0, 4}, 1, sample_eval(1.25)});
  corpus.direct.emplace_back("fp-viterbi",
                             EvalRecord{{0, -4}, 0, sample_eval(0.1 + 0.7)});
  return corpus;
}

// Every payload the store's writer produces is taken by the direct parser
// and read exactly as the JSON path reads it, except records with an
// escaped string, which are left to the JSON path by design.
TEST(StorePayload, DirectParserTakesWhatTheWriterWrites) {
  const std::string path = temp_store_path("payload_direct.journal");
  const PayloadCorpus corpus = payload_corpus();
  {
    EvaluationStore store(path);
    for (const auto& set : {corpus.direct, corpus.escaped}) {
      for (const auto& [fingerprint, rec] : set) {
        store.record(fingerprint, rec.indices, rec.fidelity, rec.eval);
      }
    }
  }
  const std::vector<std::string> payloads = journal_payloads(path);
  ASSERT_EQ(payloads.size(), corpus.direct.size() + corpus.escaped.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    const bool escaped = i >= corpus.direct.size();
    const auto& [fingerprint, rec] =
        escaped ? corpus.escaped[i - corpus.direct.size()] : corpus.direct[i];
    // The token model joins back to the writer's exact bytes.
    EXPECT_EQ(tokens_of(fingerprint, rec).join(), payloads[i]);
    const std::string label = "payload " + std::to_string(i);
    EXPECT_EQ(direct_agrees_with_json(payloads[i], label), !escaped)
        << label << ": " << payloads[i];
  }
  // The escaped records still load, through the JSON path.
  EvaluationStore replayed(path);
  EXPECT_EQ(replayed.size(), payloads.size());
  EXPECT_EQ(replayed.stats().skipped_records, 0u);
  const auto& [fingerprint, pinned] = corpus.escaped.front();
  const auto got = replayed.lookup(fingerprint, pinned.indices,
                                   pinned.fidelity);
  ASSERT_TRUE(got.has_value());
  expect_bit_identical(*got, pinned.eval, "pinned record");
  std::remove(path.c_str());
}

// Seeded mutations of the writer's bytes: whenever the direct parser takes
// a mutant, the JSON path takes it too and reads every field bit-identically.
TEST(StorePayload, DirectParserAgreesWithJsonPathOnMutants) {
  const PayloadCorpus corpus = payload_corpus();
  const std::vector<std::string> odd_numbers = {
      "1e400", "-1e400", "1e-400", "+1", "0x10", "1.5", "-nan", "nan(1)",
      "infinity", "-infinity", "NaN", "INF", "Inf", "-0", "01", ".5", "5.",
      "-.5", "1e5", "1E5", "1e+5", "1e", "-", "", "nan", "inf", "-inf",
      "4.9406564584124654e-324", "2.2250738585072014e-308",
      "1.7976931348623157e308", "1.7976931348623159e308", "2147483648",
      "-2147483649", "99999999999999999999", "0.30000000000000004",
      "123456789012345678901234567890e-20", "true", "null", "\"1\"", "1 "};
  util::CounterRng rng(0x5eedf00dULL);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::size_t taken = 0;
  std::size_t declined = 0;
  for (int trial = 0; trial < 6000; ++trial) {
    const auto& [fingerprint, rec] = corpus.direct[pick(corpus.direct.size())];
    PayloadTokens t = tokens_of(fingerprint, rec);
    std::string text;
    const std::size_t kind = pick(9);
    switch (kind) {
      case 0:
      case 1:
      case 2: {  // byte flip, inserted space, deleted byte
        text = t.join();
        const std::size_t at = pick(text.size());
        if (kind == 0) text[at] = static_cast<char>(text[at] ^ (1 << pick(8)));
        if (kind == 1) text.insert(at, " ");
        if (kind == 2) text.erase(at, 1);
        break;
      }
      case 3:  // swapped keys
        if (pick(2) == 0) {
          t.record_first = true;
        } else {
          std::swap(t.member_order[pick(6)], t.member_order[pick(6)]);
        }
        text = t.join();
        break;
      case 4:  // a repeated or reordered metric
        if (t.metrics.empty()) {
          t.metrics.emplace_back("\"m\"", "1");
          t.metrics.emplace_back("\"m\"", "2");
        } else if (pick(2) == 0 || t.metrics.size() == 1) {
          const std::size_t m = pick(t.metrics.size());
          t.metrics.insert(t.metrics.begin() + m + 1,
                           {t.metrics[m].first, odd_numbers[pick(3)]});
        } else {
          std::swap(t.metrics[0], t.metrics[1 + pick(t.metrics.size() - 1)]);
        }
        text = t.join();
        break;
      case 5: {  // a \u escape of one plain character of a string
        std::string& s = pick(2) == 0 || t.metrics.empty()
                             ? t.fingerprint
                             : t.metrics[pick(t.metrics.size())].first;
        if (s.size() > 2) {
          const std::size_t at = 1 + pick(s.size() - 2);
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x",
                        static_cast<unsigned char>(s[at]));
          s.replace(at, 1, hex);
        }
        text = t.join();
        break;
      }
      case 6: {  // an odd number in a number slot
        const std::string& number = odd_numbers[pick(odd_numbers.size())];
        const std::size_t slot = pick(4);
        if (slot == 0 && !t.indices.empty()) {
          t.indices[pick(t.indices.size())] = number;
        } else if (slot == 1) {
          t.fidelity = number;
        } else if (slot == 2 || t.metrics.empty()) {
          t.confidence_weight = number;
        } else {
          t.metrics[pick(t.metrics.size())].second = number;
        }
        text = t.join();
        break;
      }
      case 7:  // whitespace everywhere
        t.space = pick(2) == 0 ? " " : "\n\t";
        text = t.join();
        break;
      default:  // trailing content
        text = t.join() + (pick(2) == 0 ? " " : "}");
        break;
    }
    const std::string label =
        "trial " + std::to_string(trial) + " kind " + std::to_string(kind);
    if (direct_agrees_with_json(text, label)) {
      ++taken;
    } else {
      ++declined;
    }
  }
  // Both outcomes were exercised: digit flips and in-range numbers stay
  // on the direct path, everything else falls back.
  EXPECT_GT(taken, 200u);
  EXPECT_GT(declined, 2000u);
}

// The two load paths intern metric names through one set: a canonical
// record and a reformatted duplicate of it (whitespace, reordered keys, an
// escaped fingerprint byte, a nan metric) load as one plain duplicate, not
// as a divergent one, in either order.
TEST(StorePayload, ReformattedDuplicateIsNotDivergent) {
  const std::string path = temp_store_path("payload_duplicate.journal");
  search::Evaluation eval = sample_eval(2.5);
  eval.metrics["nan"] = std::numeric_limits<double>::quiet_NaN();
  {
    EvaluationStore store(path);
    store.record("fp-a", {4, 2}, 1, eval);
  }
  const std::string header = read_file(path).substr(
      0, read_file(path).find('\n') + 1);
  const std::vector<std::string> payloads = journal_payloads(path);
  ASSERT_EQ(payloads.size(), 1u);
  const std::string& canonical = payloads.front();

  PayloadTokens t = tokens_of("fp-a", EvalRecord{{4, 2}, 1, eval});
  t.fingerprint = "\"fp\\u002da\"";
  t.record_first = true;
  t.member_order = {5, 3, 1, 0, 4, 2};
  t.space = " ";
  const std::string reformatted = t.join();
  detail::StorePayload direct;
  ASSERT_TRUE(detail::parse_payload_direct(canonical, direct));
  ASSERT_FALSE(detail::parse_payload_direct(reformatted, direct));

  for (const bool canonical_first : {true, false}) {
    write_file(path, header +
                         robust::frame_record(canonical_first ? canonical
                                                              : reformatted) +
                         robust::frame_record(canonical_first ? reformatted
                                                              : canonical));
    EvaluationStore store(path);
    const auto stats = store.stats();
    EXPECT_EQ(store.size(), 1u) << canonical_first;
    EXPECT_EQ(stats.journal_records, 2u) << canonical_first;
    EXPECT_EQ(stats.duplicate_records, 1u) << canonical_first;
    EXPECT_EQ(stats.divergent_duplicates, 0u) << canonical_first;
    EXPECT_EQ(stats.skipped_records, 0u) << canonical_first;
    const auto got = store.lookup("fp-a", {4, 2}, 1);
    ASSERT_TRUE(got.has_value());
    expect_bit_identical(*got, eval, "duplicate");
  }
  std::remove(path.c_str());
}

TEST(EvaluationStore, EntriesForScopesByFingerprint) {
  const std::string path = temp_store_path("scope.jsonl");
  EvaluationStore store(path);
  store.record("fp-b", {1}, 0, sample_eval(2.0));
  store.record("fp-a", {2}, 0, sample_eval(3.0));
  store.record("fp-a", {1}, 1, sample_eval(1.0));
  const auto a = store.entries_for("fp-a");
  ASSERT_EQ(a.size(), 2u);
  // Deterministic key order: indices ascending, then fidelity.
  EXPECT_EQ(std::get<0>(a[0]), (std::vector<int>{1}));
  EXPECT_EQ(std::get<1>(a[0]), 1);
  EXPECT_EQ(std::get<0>(a[1]), (std::vector<int>{2}));
  EXPECT_EQ(store.entries_for("fp-b").size(), 1u);
  EXPECT_TRUE(store.entries_for("absent").empty());
  std::remove(path.c_str());
}

TEST(EvaluationStore, FirstWriteWinsAndDuplicateAppendIsSkipped) {
  const std::string path = temp_store_path("dup.jsonl");
  EvaluationStore store(path);
  store.record("fp", {7}, 0, sample_eval(1.0));
  store.record("fp", {7}, 0, sample_eval(1.0));  // no-op
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.stats().appends, 1u);
  EXPECT_EQ(store.stats().divergent_duplicates, 0u);
  EXPECT_EQ(store.divergent_duplicates(), 0u);
  std::remove(path.c_str());
}

TEST(EvaluationStore, CountsDivergentDuplicates) {
  const std::string path = temp_store_path("divergent.jsonl");
  EvaluationStore store(path);
  store.record("fp", {7}, 0, sample_eval(1.0));
  store.record("fp", {7}, 0, sample_eval(1.0));  // bit-identical: fine
  EXPECT_EQ(store.divergent_duplicates(), 0u);
  // Same key, different evaluation: upstream determinism drift. First
  // write still wins, but the divergence is counted, not masked.
  store.record("fp", {7}, 0, sample_eval(2.0));
  search::Evaluation infeasible = sample_eval(1.0);
  infeasible.feasible = false;
  store.record("fp", {7}, 0, infeasible);
  EXPECT_EQ(store.divergent_duplicates(), 2u);
  EXPECT_EQ(store.stats().divergent_duplicates, 2u);
  ASSERT_TRUE(store.lookup("fp", {7}, 0).has_value());
  EXPECT_EQ(store.lookup("fp", {7}, 0)->metric("cost"), 1.0);  // first write
  std::remove(path.c_str());
}

TEST(EvaluationStore, CompactsDuplicateJournalRecordsOnLoad) {
  const std::string path = temp_store_path("compact.jsonl");
  {
    EvaluationStore store(path);
    store.record("fp", {7}, 0, sample_eval(1.0));
  }
  // Simulate a second writer-epoch having appended the same key (e.g. two
  // runs racing before single-writer discipline was restored): duplicate
  // the record frame verbatim. Dead ratio 1/2 >= the default 0.25, so the
  // next open compacts.
  const std::string text = read_file(path);
  const std::size_t first_nl = text.find('\n');
  append_raw(path, text.substr(first_nl + 1));
  {
    EvaluationStore store(path);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.stats().journal_records, 2u);
    EXPECT_EQ(store.stats().duplicate_records, 1u);
    EXPECT_EQ(store.stats().compactions, 1u);
  }
  // The rewrite is durable: a third open sees a clean compacted journal.
  EvaluationStore clean(path);
  EXPECT_EQ(clean.stats().journal_records, 1u);
  EXPECT_EQ(clean.stats().duplicate_records, 0u);
  EXPECT_EQ(clean.stats().compactions, 0u);
  ASSERT_TRUE(clean.lookup("fp", {7}, 0).has_value());
  std::remove(path.c_str());
}

TEST(EvaluationStore, ManualCompactReclaimsDeadBytes) {
  const std::string path = temp_store_path("manual_compact.jsonl");
  // Ratio-triggered compaction off: dead records accumulate until an
  // explicit compact().
  StoreConfig config;
  config.auto_compact_dead_ratio = 0.0;
  {
    EvaluationStore store(path, config);
    store.record("fp", {1}, 0, sample_eval(1.0));
    store.record("fp", {2}, 0, sample_eval(2.0));
  }
  // Duplicate every record frame 4x (five copies total).
  const std::string text = read_file(path);
  const std::string frames = text.substr(text.find('\n') + 1);
  for (int i = 0; i < 4; ++i) append_raw(path, frames);

  EvaluationStore store(path, config);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.stats().duplicate_records, 8u);
  EXPECT_EQ(store.stats().compactions, 0u);  // ratio trigger disabled
  const std::size_t before = read_file(path).size();
  const std::size_t reclaimed = store.compact();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_EQ(read_file(path).size(), before - reclaimed);
  const auto stats = store.stats();
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(stats.compaction_bytes_before, before);
  EXPECT_LT(stats.compaction_bytes_after, before);
  // The compacted journal still accepts appends and replays cleanly.
  store.record("fp", {3}, 0, sample_eval(3.0));
  EvaluationStore reopened(path, config);
  EXPECT_EQ(reopened.size(), 3u);
  EXPECT_EQ(reopened.stats().duplicate_records, 0u);
  std::remove(path.c_str());
}

TEST(EvaluationStore, RecoversUnterminatedCrashTail) {
  const std::string path = temp_store_path("tail.jsonl");
  {
    EvaluationStore store(path);
    store.record("fp", {1}, 0, sample_eval(1.0));
    store.record("fp", {2}, 0, sample_eval(2.0));
  }
  // A crash mid-append leaves an incomplete frame with no trailing
  // newline: the frame claims more bytes than the file holds.
  append_raw(path, "#0000002a|deadbeef|{\"fingerprint\":\"fp\",\"rec");
  {
    EvaluationStore store(path);
    EXPECT_EQ(store.size(), 2u);  // no completed evaluation lost
    EXPECT_GT(store.stats().recovered_bytes, 0u);
    EXPECT_EQ(store.stats().skipped_records, 0u);  // a tail is not damage
    ASSERT_TRUE(store.lookup("fp", {1}, 0).has_value());
    ASSERT_TRUE(store.lookup("fp", {2}, 0).has_value());
    // Recovery rewrote the file: appends go to a clean journal.
    store.record("fp", {3}, 0, sample_eval(3.0));
  }
  EvaluationStore clean(path);
  EXPECT_EQ(clean.size(), 3u);
  EXPECT_EQ(clean.stats().recovered_bytes, 0u);
  std::remove(path.c_str());
}

TEST(EvaluationStore, CrashDuringHeaderWriteStartsFresh) {
  const std::string path = temp_store_path("header_crash.jsonl");
  append_raw(path, "{\"magic\":\"metacore-jour");  // no newline
  EvaluationStore store(path);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_GT(store.stats().recovered_bytes, 0u);
  store.record("fp", {1}, 0, sample_eval(1.0));
  EvaluationStore reopened(path);
  EXPECT_EQ(reopened.size(), 1u);
  std::remove(path.c_str());
}

TEST(EvaluationStore, SkipsTerminatedGarbageWithCountedReason) {
  const std::string path = temp_store_path("garbage.jsonl");
  {
    EvaluationStore store(path);
    store.record("fp", {1}, 0, sample_eval(1.0));
  }
  // Newline-terminated damage cannot be a crashed append. With per-record
  // CRCs the blast radius is one record: it is skipped with a counted,
  // descriptive reason instead of poisoning the whole journal.
  append_raw(path, "this is not a frame\n");
  {
    EvaluationStore store(path);
    EXPECT_EQ(store.size(), 1u);
    const auto stats = store.stats();
    EXPECT_EQ(stats.skipped_records, 1u);
    ASSERT_FALSE(stats.skip_reasons.empty());
    EXPECT_NE(stats.skip_reasons.front().find("framing"), std::string::npos)
        << stats.skip_reasons.front();
    ASSERT_TRUE(store.lookup("fp", {1}, 0).has_value());
  }
  // Damage triggers a recovery rewrite: the next open is clean.
  EvaluationStore clean(path);
  EXPECT_EQ(clean.stats().skipped_records, 0u);
  std::remove(path.c_str());
}

TEST(EvaluationStore, SkipsCorruptRecordMidFileAndKeepsTheRest) {
  const std::string path = temp_store_path("midfile.jsonl");
  {
    EvaluationStore store(path);
    store.record("fp", {1}, 0, sample_eval(1.0));
    store.record("fp", {2}, 0, sample_eval(2.0));
  }
  // Flip one payload byte of the *first* record frame (mid-file, still
  // newline-terminated): its CRC no longer matches. Only that record is
  // lost; the later record survives.
  std::string text = read_file(path);
  const std::size_t first_frame = text.find("\n#") + 1;
  const std::size_t payload_byte = first_frame + 19 + 5;
  text[payload_byte] ^= 0x20;
  write_file(path, text);
  {
    EvaluationStore store(path);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_FALSE(store.lookup("fp", {1}, 0).has_value());
    ASSERT_TRUE(store.lookup("fp", {2}, 0).has_value());
    const auto stats = store.stats();
    EXPECT_EQ(stats.skipped_records, 1u);
    ASSERT_FALSE(stats.skip_reasons.empty());
    EXPECT_NE(stats.skip_reasons.front().find("CRC32C mismatch"),
              std::string::npos)
        << stats.skip_reasons.front();
  }
  EvaluationStore clean(path);
  EXPECT_EQ(clean.stats().skipped_records, 0u);
  EXPECT_EQ(clean.size(), 1u);
  std::remove(path.c_str());
}

// A frame whose checksum holds but whose payload is not an evaluation
// record (a writer bug or schema drift, not bit rot) is skipped with a
// reason naming what is wrong; the records around it survive.
TEST(EvaluationStore, SkipsChecksumCleanRecordsThatAreNotEvaluations) {
  const std::string path = temp_store_path("not_records.jsonl");
  {
    EvaluationStore store(path);
    store.record("fp", {1}, 0, sample_eval(1.0));
    store.record("fp", {2}, 0, sample_eval(2.0));
  }
  const std::string record_tail =
      "\"fidelity\":0,\"feasible\":true,\"confidence_weight\":1,"
      "\"failure_reason\":\"\",";
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"{\"fingerprint\":\"fp\"}", "missing field \"record\""},
      {"{\"fingerprint\":\"fp\",\"record\":{\"indices\":[\"a\"]," +
           record_tail + "\"metrics\":{}}}",
       "non-numeric grid index"},
      {"{\"fingerprint\":\"fp\",\"record\":{\"indices\":[7]," + record_tail +
           "\"metrics\":{\"cost\":\"high\"}}}",
       "non-numeric metric \"cost\""},
  };
  // Splice the bad frames in between the two good records.
  std::string text = read_file(path);
  const std::size_t second_frame =
      text.find("\n#", text.find("\n#") + 1) + 1;
  std::string frames;
  for (const auto& [payload, reason] : bad) {
    frames += robust::frame_record(payload);
  }
  text.insert(second_frame, frames);
  write_file(path, text);
  {
    EvaluationStore store(path);
    EXPECT_EQ(store.size(), 2u);
    ASSERT_TRUE(store.lookup("fp", {1}, 0).has_value());
    ASSERT_TRUE(store.lookup("fp", {2}, 0).has_value());
    EXPECT_FALSE(store.lookup("fp", {7}, 0).has_value());
    const auto stats = store.stats();
    EXPECT_EQ(stats.skipped_records, bad.size());
    ASSERT_EQ(stats.skip_reasons.size(), bad.size());
    for (std::size_t i = 0; i < bad.size(); ++i) {
      const std::string& reason = stats.skip_reasons[i];
      EXPECT_NE(reason.find("checksum-clean but failed to parse"),
                std::string::npos)
          << reason;
      EXPECT_NE(reason.find(bad[i].second), std::string::npos) << reason;
    }
  }
  EvaluationStore clean(path);
  EXPECT_EQ(clean.stats().skipped_records, 0u);
  EXPECT_EQ(clean.size(), 2u);
  std::remove(path.c_str());
}

TEST(EvaluationStore, RejectsJournalFormatVersionMismatchDescriptively) {
  const std::string path = temp_store_path("version.jsonl");
  { EvaluationStore store(path); }
  std::string text = read_file(path);
  const auto pos = text.find("\"version\":1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 11, "\"version\":9");
  write_file(path, text);
  try {
    EvaluationStore store(path);
    FAIL() << "journal format version mismatch must be rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(EvaluationStore, RejectsStoreSchemaVersionMismatchDescriptively) {
  const std::string path = temp_store_path("kind_version.jsonl");
  { EvaluationStore store(path); }
  std::string text = read_file(path);
  const std::string needle = "\"kind_version\":" + std::to_string(kStoreVersion);
  const auto pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "\"kind_version\":9");
  write_file(path, text);
  try {
    EvaluationStore store(path);
    FAIL() << "store schema version mismatch must be rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

// A v1 store: JSONL without frames or checksums.
const std::string kV1Header =
    "{\"magic\":\"metacore-evaluation-store\",\"version\":1}\n";
const std::string kV1Record =
    "{\"fingerprint\":\"fp\",\"record\":{\"indices\":[3,1],"
    "\"fidelity\":1,\"feasible\":true,\"confidence_weight\":42,"
    "\"failure_reason\":\"\",\"metrics\":{\"cost\":1.25}}}\n";

/// Opens `path`, expecting the "not a metacore evaluation store"
/// rejection that names the path.
void expect_not_a_store(const std::string& path) {
  try {
    EvaluationStore store(path);
    FAIL() << "foreign file must be rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("not a metacore evaluation store"), std::string::npos)
        << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
}

// A file that is not a framed store journal is refused at open and left
// byte-for-byte as it was.
TEST(EvaluationStore, RejectsForeignFileDescriptively) {
  const std::vector<std::string> inputs = {
      "{\"magic\":\"something-else\",\"version\":1}\n",
      kV1Header + kV1Record,
  };
  for (const std::string& bytes : inputs) {
    SCOPED_TRACE(bytes);
    const std::string path = temp_store_path("foreign.jsonl");
    write_file(path, bytes);
    expect_not_a_store(path);
    EXPECT_EQ(read_file(path), bytes);
    std::remove(path.c_str());
  }
}

// The rejection comes before the store writes anything: a v1 store keeps
// its bytes and gets no snapshot or directory beside it.
TEST(EvaluationStore, RejectsV1StoreAndCreatesNothingBesideIt) {
  const std::string bytes = kV1Header + kV1Record;
  const std::string path = temp_store_path("v1_store.jsonl");
  write_file(path, bytes);
  expect_not_a_store(path);
  EXPECT_EQ(read_file(path), bytes);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(path + ".d"));
  std::remove(path.c_str());
}

// Older builds could spread a store over `path`.d/shard-NN.journal. Its
// evaluations would be missing from a store opened beside it, so the open
// is refused, naming the directory, and neither the directory nor a file
// at `path` changes.
TEST(EvaluationStore, RejectsAShardDirectoryAndLeavesItsBytes) {
  namespace fs = std::filesystem;
  const std::string path = temp_store_path("shard_dir.store");
  const std::string dir = path + ".d";
  fs::remove_all(dir);
  { EvaluationStore single(path); }
  const std::string single_bytes = read_file(path);
  fs::create_directory(dir);
  std::map<std::string, std::string> files;  // name -> bytes
  for (int shard = 0; shard < 2; ++shard) {
    const std::string journal = temp_store_path("shard_source.store");
    {
      EvaluationStore source(journal);
      source.record("fp-" + std::to_string(shard), {shard}, 0,
                    sample_eval(static_cast<double>(shard)));
    }
    const std::string name = "shard-0" + std::to_string(shard) + ".journal";
    files[name] = read_file(journal);
    write_file(dir + "/" + name, files[name]);
    std::remove(journal.c_str());
  }

  try {
    EvaluationStore store(path);
    ADD_FAILURE() << "a shard directory must be refused";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(dir), std::string::npos) << e.what();
  }
  EXPECT_EQ(read_file(path), single_bytes);
  std::map<std::string, std::string> after;
  for (const auto& entry : fs::directory_iterator(dir)) {
    after[entry.path().filename().string()] = read_file(entry.path().string());
  }
  EXPECT_EQ(after, files);
  fs::remove_all(dir);
  std::remove(path.c_str());
}

// The common leftover of an older sharded store is the directory alone:
// migration into shards emptied or removed the file at `path`. The refused
// open must not create that file, nor clear a snapshot .tmp beside it.
TEST(EvaluationStore, RefusesAShardDirectoryWithoutCreatingTheJournal) {
  namespace fs = std::filesystem;
  const std::string path = temp_store_path("shard_dir_only.store");
  const std::string dir = path + ".d";
  const std::string tmp = path + ".tmp";
  fs::remove_all(dir);
  fs::create_directory(dir);
  const std::string shard = dir + "/shard-00.journal";
  {
    EvaluationStore source(shard);
    source.record("fp", {1}, 0, sample_eval(1.0));
  }
  const std::string shard_bytes = read_file(shard);
  write_file(tmp, "snapshot residue");

  try {
    EvaluationStore store(path);
    ADD_FAILURE() << "a shard directory must be refused";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(dir), std::string::npos) << e.what();
  }
  EXPECT_FALSE(fs::exists(path));
  EXPECT_EQ(read_file(tmp), "snapshot residue");
  EXPECT_EQ(read_file(shard), shard_bytes);
  fs::remove_all(dir);
  std::remove(tmp.c_str());
}

/// Sets an environment variable for one scope and restores the previous
/// value (or its absence) after it, so a case behaves the same whether or
/// not the suite runs under that variable.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (saved_) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

// METACORE_STORE_SHARDS is retired: a deployment that still sets it gets
// the one journal at `path`, with every record in it, and no directory.
TEST(EvaluationStore, IgnoresTheRetiredShardsVariable) {
  const ScopedEnv shards("METACORE_STORE_SHARDS", "4");
  const std::string path = temp_store_path("retired_shards.store");
  {
    EvaluationStore store(path);
    for (int i = 0; i < 8; ++i) {
      store.record("fp-" + std::to_string(i), {i}, 0,
                   sample_eval(static_cast<double>(i)));
    }
  }
  EXPECT_FALSE(std::filesystem::exists(path + ".d"));
  const std::string journal = read_file(path);
  for (int i = 0; i < 8; ++i) {
    EXPECT_NE(journal.find("\"fp-" + std::to_string(i) + "\""),
              std::string::npos)
        << i;
  }
  EvaluationStore reopened(path);
  EXPECT_EQ(reopened.size(), 8u);
  std::remove(path.c_str());
}

// The store's only environment knob is METACORE_DURABILITY; the
// compaction ratio is a config field, not an override.
TEST(StoreConfig, FromEnvReadsOnlyTheDurability) {
  const double default_ratio = StoreConfig{}.auto_compact_dead_ratio;
  {
    const ScopedEnv ratio("METACORE_STORE_COMPACT_RATIO", "0.9");
    const ScopedEnv durability("METACORE_DURABILITY", "fsync-every-3");
    const StoreConfig config = StoreConfig::from_env();
    EXPECT_EQ(config.auto_compact_dead_ratio, default_ratio);
    EXPECT_EQ(config.durability.policy, robust::DurabilityPolicy::FsyncEveryN);
    EXPECT_EQ(config.durability.fsync_interval, 3u);
  }
  {
    const ScopedEnv ratio("METACORE_STORE_COMPACT_RATIO", "not-a-number");
    const ScopedEnv durability("METACORE_DURABILITY", "none");
    StoreConfig config;
    EXPECT_NO_THROW(config = StoreConfig::from_env());
    EXPECT_EQ(config.auto_compact_dead_ratio, default_ratio);
    EXPECT_EQ(config.durability.policy, robust::DurabilityPolicy::None);
  }
  const ScopedEnv durability("METACORE_DURABILITY", "fsync-sometimes");
  EXPECT_THROW(StoreConfig::from_env(), std::invalid_argument);
}

// A damaged v1 file is not taken for a journal with a crashed tail: no
// part of it is read, truncated or rewritten.
TEST(EvaluationStore, RejectsDamagedV1StoresWithoutTouchingThem) {
  const std::vector<std::string> inputs = {
      kV1Header,                            // header only
      kV1Header + "this is not json\n",     // terminated garbage
      kV1Header + kV1Record.substr(0, 40),  // torn last record
  };
  for (const std::string& bytes : inputs) {
    SCOPED_TRACE(bytes);
    const std::string path = temp_store_path("v1_damaged.jsonl");
    write_file(path, bytes);
    expect_not_a_store(path);
    EXPECT_EQ(read_file(path), bytes);
    std::remove(path.c_str());
  }
}

TEST(EvaluationStore, ConcurrentReadersAndWriterAreSafe) {
  const std::string path = temp_store_path("concurrent.jsonl");
  EvaluationStore store(path);
  constexpr int kWrites = 64;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&store, &stop] {
      while (!stop.load()) {
        for (int i = 0; i < kWrites; ++i) {
          const auto hit = store.lookup("fp", {i}, 0);
          if (hit.has_value()) {
            EXPECT_EQ(hit->metric("cost"), static_cast<double>(i));
          }
        }
        (void)store.size();
        (void)store.entries_for("fp");
      }
    });
  }
  for (int i = 0; i < kWrites; ++i) {
    store.record("fp", {i}, 0, sample_eval(static_cast<double>(i)));
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kWrites));
  EvaluationStore reopened(path);
  EXPECT_EQ(reopened.size(), static_cast<std::size_t>(kWrites));
  std::remove(path.c_str());
}

TEST(EvaluationStore, ConcurrentWritersStayConsistent) {
  const std::string path = temp_store_path("concurrent_writers.store");
  EvaluationStore store(path);
  constexpr int kPerThread = 64;
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&store, t] {
      for (int i = 0; i < kPerThread; ++i) {
        store.record("fp-" + std::to_string(t), {i}, 0,
                     sample_eval(static_cast<double>(i)));
        // Every writer also races the others on one shared scope, whose
        // duplicates are bit-identical: first write wins, none diverge.
        store.record("fp-shared", {i}, 0, sample_eval(static_cast<double>(i)));
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(store.size(), 5u * kPerThread);
  EXPECT_EQ(store.divergent_duplicates(), 0u);
  EXPECT_EQ(store.stats().appends, 5u * kPerThread);
  // The contention counter is wired through stats (its value depends on
  // scheduling; correctness above is the hard assertion).
  (void)store.stats().lock_contention;
  EvaluationStore reopened(path);
  EXPECT_EQ(reopened.size(), 5u * kPerThread);
  EXPECT_EQ(reopened.stats().duplicate_records, 0u);
  std::remove(path.c_str());
}

// generation() is one counter for the whole store: a new key under any
// scope and every compaction advance it; lookups and repeats of a held
// key, divergent or not, leave it still. A clean reopen starts at zero.
TEST(EvaluationStore, GenerationCountsNewKeysAndCompactionsStoreWide) {
  const std::string path = temp_store_path("generation.store");
  {
    EvaluationStore store(path);
    EXPECT_EQ(store.generation(), 0u);
    store.record("fp-a", {1}, 0, sample_eval(1.0));
    EXPECT_EQ(store.generation(), 1u);
    store.record("fp-a", {1}, 0, sample_eval(1.0));
    store.record("fp-a", {1}, 0, sample_eval(9.0));  // divergent repeat
    EXPECT_EQ(store.divergent_duplicates(), 1u);
    EXPECT_EQ(store.generation(), 1u);
    store.record("fp-b", {1}, 0, sample_eval(2.0));  // another scope
    EXPECT_EQ(store.generation(), 2u);
    ASSERT_TRUE(store.lookup("fp-b", {1}, 0).has_value());
    EXPECT_FALSE(store.lookup("fp-c", {1}, 0).has_value());
    EXPECT_EQ(store.generation(), 2u);
    store.compact();
    EXPECT_EQ(store.generation(), 3u);
  }
  EvaluationStore reopened(path);
  EXPECT_EQ(reopened.stats().compactions, 0u);
  EXPECT_EQ(reopened.generation(), 0u);
  std::remove(path.c_str());
}

// The server routes a query to dispatch worker fingerprint_hash(fp) % W,
// so the hash must be a pure function of the bytes: the same fingerprint
// routes identically across runs, builds, and hosts.
TEST(RoutingHash, IsStableFnv1a) {
  EXPECT_EQ(fingerprint_hash(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fingerprint_hash("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fingerprint_hash("viterbi|x"), fingerprint_hash("viterbi|x"));
  EXPECT_NE(fingerprint_hash("viterbi|x"), fingerprint_hash("viterbi|y"));
}

// --- Search integration: the contract the design-query service relies on.

search::DesignSpace bowl_space(int dims, int points) {
  std::vector<search::ParameterDef> params;
  for (int d = 0; d < dims; ++d) {
    search::ParameterDef p;
    p.name = "x" + std::to_string(d);
    for (int i = 0; i < points; ++i) {
      p.values.push_back(static_cast<double>(i) / (points - 1));
    }
    p.correlation = search::Correlation::Smooth;
    params.push_back(p);
  }
  return search::DesignSpace(params);
}

search::EvaluateFn bowl_eval(std::vector<double> optimum,
                             std::atomic<std::size_t>* count) {
  return [optimum, count](const std::vector<double>& point, int) {
    count->fetch_add(1);
    double v = 0.0;
    for (std::size_t d = 0; d < point.size(); ++d) {
      const double diff = point[d] - optimum[d];
      v += diff * diff;
    }
    search::Evaluation e;
    e.metrics["cost"] = v;
    return e;
  };
}

TEST(EvaluationStoreSearch, WarmStoreReproducesColdSearchWithZeroEvals) {
  const std::string path = temp_store_path("warm.jsonl");
  const search::DesignSpace space = bowl_space(2, 17);
  search::Objective objective;
  objective.minimize = "cost";
  search::SearchConfig config;
  config.max_resolution = 3;
  config.regions_per_level = 2;
  config.store_fingerprint = "bowl-2x17";

  std::atomic<std::size_t> cold_calls{0};
  search::SearchResult cold;
  {
    config.store = std::make_shared<EvaluationStore>(path);
    search::MultiresolutionSearch engine(
        space, objective, bowl_eval({0.25, 0.75}, &cold_calls), config);
    cold = engine.run();
  }
  ASSERT_TRUE(cold.found_feasible);
  EXPECT_EQ(cold.store_hits, 0u);
  EXPECT_EQ(cold.divergent_duplicates, 0u);
  EXPECT_GT(cold_calls.load(), 0u);

  // Warm rerun against a fresh store instance on the same journal: every
  // point is covered, so the evaluator must never be invoked and the
  // result must be bit-identical (budget accounting included).
  std::atomic<std::size_t> warm_calls{0};
  search::SearchResult warm;
  {
    config.store = std::make_shared<EvaluationStore>(path);
    search::MultiresolutionSearch engine(
        space, objective, bowl_eval({0.25, 0.75}, &warm_calls), config);
    warm = engine.run();
  }
  EXPECT_EQ(warm_calls.load(), 0u);
  EXPECT_EQ(warm.store_hits, cold.evaluations);
  EXPECT_EQ(warm.evaluations, cold.evaluations);
  EXPECT_EQ(warm.cache_hits, cold.cache_hits);
  EXPECT_EQ(warm.divergent_duplicates, 0u);
  EXPECT_EQ(warm.levels_executed, cold.levels_executed);
  EXPECT_EQ(warm.best.indices, cold.best.indices);
  EXPECT_EQ(warm.best.values, cold.best.values);
  EXPECT_EQ(warm.best.eval.metrics, cold.best.eval.metrics);  // bit-exact
  ASSERT_EQ(warm.history.size(), cold.history.size());
  for (std::size_t i = 0; i < warm.history.size(); ++i) {
    EXPECT_EQ(warm.history[i].indices, cold.history[i].indices);
    EXPECT_EQ(warm.history[i].eval.metrics, cold.history[i].eval.metrics);
  }
  std::remove(path.c_str());
}

TEST(EvaluationStoreSearch, RequiresFingerprintWhenStoreSet) {
  const std::string path = temp_store_path("nofp.jsonl");
  search::SearchConfig config;
  config.store = std::make_shared<EvaluationStore>(path);
  search::Objective objective;
  objective.minimize = "cost";
  std::atomic<std::size_t> calls{0};
  EXPECT_THROW(search::MultiresolutionSearch(bowl_space(1, 5), objective,
                                             bowl_eval({0.5}, &calls), config),
               std::invalid_argument);
  std::remove(path.c_str());
}

TEST(EvaluationStoreSearch, DifferentFingerprintsDoNotCrossContaminate) {
  const std::string path = temp_store_path("crossfp.jsonl");
  const search::DesignSpace space = bowl_space(1, 9);
  search::Objective objective;
  objective.minimize = "cost";
  search::SearchConfig config;
  config.max_resolution = 1;
  config.store = std::make_shared<EvaluationStore>(path);
  config.store_fingerprint = "evaluator-A";

  std::atomic<std::size_t> calls_a{0};
  search::MultiresolutionSearch engine_a(space, objective,
                                         bowl_eval({0.25}, &calls_a), config);
  (void)engine_a.run();

  // Same space, different evaluator scope: must re-evaluate everything.
  config.store_fingerprint = "evaluator-B";
  std::atomic<std::size_t> calls_b{0};
  search::MultiresolutionSearch engine_b(space, objective,
                                         bowl_eval({0.75}, &calls_b), config);
  const search::SearchResult b = engine_b.run();
  EXPECT_EQ(b.store_hits, 0u);
  EXPECT_EQ(calls_b.load(), calls_a.load());
  std::remove(path.c_str());
}

// --- Resuming a search from the store: a killed search, rerun over the
// reopened store, finishes exactly as an uninterrupted one would.

/// Deterministic synthetic landscape: a smooth bowl plus a point-keyed
/// pseudo-random BER-like metric, so the Bayesian pruning has evidence to
/// accumulate.
search::EvaluateFn landscape_eval(std::atomic<std::size_t>* calls) {
  return [calls](const std::vector<double>& point, int fidelity) {
    if (calls) calls->fetch_add(1);
    double v = 0.0;
    for (const double x : point) v += (x - 0.5) * (x - 0.5);
    search::Evaluation e;
    e.metrics["cost"] = v + 0.01 * fidelity;
    const double noise =
        static_cast<double>(util::CounterRng::at(
            17, static_cast<std::uint64_t>(std::llround(v * 1e9)))) /
        static_cast<double>(std::numeric_limits<std::uint64_t>::max());
    e.metrics["ber"] = std::pow(10.0, -2.0 - 3.0 * noise - v);
    e.confidence_weight = 10'000.0;
    return e;
  };
}

/// Evaluator that kills the search with an unguarded throw at its Nth call.
search::EvaluateFn killing_eval(std::atomic<std::size_t>* calls,
                                std::size_t kill_at) {
  auto inner = landscape_eval(nullptr);
  return [calls, kill_at, inner](const std::vector<double>& point,
                                 int fidelity) {
    if (calls->fetch_add(1) + 1 == kill_at) {
      throw std::runtime_error("simulated crash");
    }
    return inner(point, fidelity);
  };
}

search::DesignSpace landscape_space() { return bowl_space(3, 9); }

search::Objective landscape_objective() {
  search::Objective obj;
  obj.minimize = "cost";
  obj.constraints.push_back(
      {search::Constraint::Kind::UpperBound, "ber", 1e-3});
  return obj;
}

search::SearchConfig landscape_config() {
  search::SearchConfig config;
  config.max_resolution = 2;
  config.regions_per_level = 3;
  config.probabilistic_metric = "ber";
  config.store_fingerprint = "landscape-3x9";
  return config;
}

/// Runs one search on its own engine (no store unless `config` has one).
search::SearchResult run_search(search::EvaluateFn evaluate,
                                const search::SearchConfig& config) {
  search::MultiresolutionSearch engine(
      landscape_space(), landscape_objective(), std::move(evaluate), config);
  return engine.run();
}

/// Same evaluations, winner, and history — metrics and failure reasons.
void expect_same_search(const search::SearchResult& got,
                        const search::SearchResult& want) {
  EXPECT_EQ(got.evaluations, want.evaluations);
  EXPECT_EQ(got.found_feasible, want.found_feasible);
  EXPECT_EQ(got.best.indices, want.best.indices);
  EXPECT_EQ(got.best.eval.metrics, want.best.eval.metrics);
  ASSERT_EQ(got.history.size(), want.history.size());
  for (std::size_t p = 0; p < got.history.size(); ++p) {
    EXPECT_EQ(got.history[p].indices, want.history[p].indices);
    EXPECT_EQ(got.history[p].eval.metrics, want.history[p].eval.metrics);
    EXPECT_EQ(got.history[p].eval.failure_reason,
              want.history[p].eval.failure_reason);
  }
}

TEST(EvaluationStoreSearch, KilledSearchResumesFromTheStore) {
  const std::string path = temp_store_path("resume.jsonl");
  auto config = landscape_config();
  config.guard_evaluations = false;  // let the crash propagate
  exec::ThreadPool::set_global_threads(4);

  std::atomic<std::size_t> ref_calls{0};
  const auto reference = run_search(landscape_eval(&ref_calls), config);
  ASSERT_GT(ref_calls.load(), 40u) << "landscape too small to kill mid-run";

  // Killed past the halfway point: the levels that finished before the
  // crash are in the store, the interrupted level's batch is not.
  {
    auto store = std::make_shared<EvaluationStore>(path);
    config.store = store;
    std::atomic<std::size_t> kill_calls{0};
    EXPECT_THROW(
        run_search(killing_eval(&kill_calls, ref_calls.load() / 2), config),
        std::runtime_error);
    config.store.reset();
    ASSERT_GT(store->size(), 0u) << "no level completed before the crash";
  }

  // A fresh engine on the reopened store finishes without repeating the
  // completed levels.
  std::atomic<std::size_t> resume_calls{0};
  config.store = std::make_shared<EvaluationStore>(path);
  const auto resumed = run_search(landscape_eval(&resume_calls), config);
  config.store.reset();

  // Rerunning over the now complete store replays everything: zero calls.
  std::atomic<std::size_t> replay_calls{0};
  config.store = std::make_shared<EvaluationStore>(path);
  const auto replayed = run_search(landscape_eval(&replay_calls), config);
  config.store.reset();
  exec::ThreadPool::set_global_threads(1);

  expect_same_search(resumed, reference);
  EXPECT_LT(resume_calls.load(), ref_calls.load())
      << "the resumed search re-evaluated levels the store already held";
  EXPECT_GT(resume_calls.load(), 0u);
  expect_same_search(replayed, reference);
  EXPECT_EQ(replay_calls.load(), 0u);
  std::remove(path.c_str());
}

// Wherever the kill lands (on the first call, before anything is stored;
// mid-search; on the last call) the resumed search finishes as the
// uninterrupted one did, re-evaluating no more than that run did.
TEST(EvaluationStoreSearch, ResumesAfterAKillAtAnyPoint) {
  auto config = landscape_config();
  config.guard_evaluations = false;  // let the crash propagate
  exec::ThreadPool::set_global_threads(4);

  std::atomic<std::size_t> ref_calls{0};
  const auto reference = run_search(landscape_eval(&ref_calls), config);
  const std::size_t total = ref_calls.load();
  ASSERT_GT(total, 40u) << "landscape too small to kill mid-run";

  for (const std::size_t kill_at :
       {std::size_t{1}, total / 4, 3 * total / 4, total}) {
    SCOPED_TRACE(kill_at);
    const std::string path = temp_store_path("resume_any.jsonl");
    config.store = std::make_shared<EvaluationStore>(path);
    std::atomic<std::size_t> kill_calls{0};
    EXPECT_THROW(run_search(killing_eval(&kill_calls, kill_at), config),
                 std::runtime_error);
    config.store.reset();

    std::atomic<std::size_t> resume_calls{0};
    config.store = std::make_shared<EvaluationStore>(path);
    const auto resumed = run_search(landscape_eval(&resume_calls), config);
    config.store.reset();

    expect_same_search(resumed, reference);
    if (kill_at == 1) {
      // The first batch died whole: nothing was stored.
      EXPECT_EQ(resume_calls.load(), total);
    } else if (kill_at == total) {
      // Only the last batch is missing.
      EXPECT_LT(resume_calls.load(), total);
    } else {
      EXPECT_LE(resume_calls.load(), total);
    }
    std::remove(path.c_str());
  }
  exec::ThreadPool::set_global_threads(1);
}

TEST(EvaluationStoreSearch, GuardedFailuresReplayWithZeroCalls) {
  const std::string path = temp_store_path("faulted.jsonl");
  auto config = landscape_config();
  robust::FaultInjectionConfig faults;
  faults.invalid_point = 0.05;
  faults.transient = 0.05;
  exec::ThreadPool::set_global_threads(4);

  robust::FaultInjector injector(landscape_eval(nullptr), faults);
  config.store = std::make_shared<EvaluationStore>(path);
  const auto original = run_search(injector.fn(), config);
  config.store.reset();
  ASSERT_GT(original.failures.total_faults(), 0u);

  // The store holds every failure reason, so a clean evaluator replays the
  // faulted search exactly. The failure counters are run-local: nothing
  // was evaluated, so nothing failed in this run.
  std::atomic<std::size_t> replay_calls{0};
  config.store = std::make_shared<EvaluationStore>(path);
  const auto replayed = run_search(landscape_eval(&replay_calls), config);
  config.store.reset();
  exec::ThreadPool::set_global_threads(1);

  expect_same_search(replayed, original);
  EXPECT_EQ(replay_calls.load(), 0u);
  EXPECT_EQ(replayed.failures, robust::FailureCounters{});
  std::remove(path.c_str());
}

TEST(EvaluationStoreSearch, OtherConfigurationKeepsItsOwnResult) {
  const std::string path = temp_store_path("other_config.jsonl");
  const auto config = landscape_config();
  auto other = config;
  other.max_resolution = config.max_resolution + 1;
  exec::ThreadPool::set_global_threads(4);

  const auto other_cold = run_search(landscape_eval(nullptr), other);

  auto warm = config;
  warm.store = std::make_shared<EvaluationStore>(path);
  (void)run_search(landscape_eval(nullptr), warm);

  // The store is scoped to the evaluator, not to the search configuration:
  // the other search reuses what it shares and still walks its own
  // trajectory.
  other.store = warm.store;
  const auto other_warm = run_search(landscape_eval(nullptr), other);
  warm.store.reset();
  other.store.reset();
  exec::ThreadPool::set_global_threads(1);

  expect_same_search(other_warm, other_cold);
  EXPECT_GT(other_warm.store_hits, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace metacore::serve
