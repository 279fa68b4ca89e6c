// Tests for the design-query service: JSON round-trip, in-flight and batch
// coalescing, Pareto-archive answers, warm-store equivalence, and
// byte-identical responses at any thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.hpp"
#include "robust/json.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"
#include "temp_dir.hpp"

namespace metacore::serve {
namespace {

std::string temp_store_path(const char* name) {
  const std::string path = metacore::test::process_temp_dir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

/// A deliberately small Viterbi query: loose BER target (cheap simulation),
/// tiny search budget — seconds, not minutes.
DesignQuery small_viterbi_query() {
  DesignQuery query;
  query.kind = QueryKind::Viterbi;
  query.target_ber = 1e-2;
  query.esn0_db = 1.0;
  query.throughput_mbps = 1.0;
  query.ber_shards = 2;
  query.budget.initial_points_per_dim = 2;
  query.budget.max_resolution = 0;
  query.budget.regions_per_level = 1;
  query.budget.max_evaluations = 24;
  return query;
}

DesignQuery small_iir_query() {
  DesignQuery query;
  query.kind = QueryKind::Iir;
  query.sample_period_us = 1.0;
  query.budget.initial_points_per_dim = 2;
  query.budget.max_resolution = 0;
  query.budget.regions_per_level = 1;
  query.budget.max_evaluations = 12;
  return query;
}

TEST(DesignQueryJson, RoundTripsCanonically) {
  DesignQuery query = small_viterbi_query();
  query.minimize = "cycles_per_bit";
  query.constraints.push_back(
      {search::Constraint::Kind::UpperBound, "ber", 3.0517578125e-03});
  query.constraints.push_back(
      {search::Constraint::Kind::LowerBound, "cores", 2.0});
  query.archive_only = true;
  const std::string json = to_json(query);
  const DesignQuery parsed = parse_design_query(json);
  // Canonical encoding: equal queries encode to equal bytes.
  EXPECT_EQ(to_json(parsed), json);
  EXPECT_EQ(parsed.kind, QueryKind::Viterbi);
  EXPECT_EQ(parsed.target_ber, query.target_ber);
  EXPECT_EQ(parsed.budget.max_evaluations, query.budget.max_evaluations);
  ASSERT_EQ(parsed.constraints.size(), 2u);
  EXPECT_EQ(parsed.constraints[1].kind, search::Constraint::Kind::LowerBound);
  EXPECT_TRUE(parsed.archive_only);

  const DesignQuery iir = parse_design_query(to_json(small_iir_query()));
  EXPECT_EQ(iir.kind, QueryKind::Iir);
  EXPECT_EQ(to_json(iir), to_json(small_iir_query()));
}

TEST(DesignQueryJson, DefaultsApplyToSparseDocuments) {
  const DesignQuery query = parse_design_query("{\"kind\":\"iir\"}");
  EXPECT_EQ(query.kind, QueryKind::Iir);
  EXPECT_EQ(query.sample_period_us, 1.0);
  EXPECT_TRUE(query.constraints.empty());
  EXPECT_FALSE(query.archive_only);
}

TEST(DesignQueryJson, RejectsMalformedDocuments) {
  EXPECT_THROW(parse_design_query("not json"), std::runtime_error);
  EXPECT_THROW(parse_design_query("{\"kind\":\"fft\"}"), std::runtime_error);
  EXPECT_THROW(parse_design_query("{}"), std::runtime_error);
  EXPECT_THROW(
      parse_design_query("{\"kind\":\"iir\",\"constraints\":[{\"kind\":"
                         "\"sideways\",\"metric\":\"x\",\"bound\":1}]}"),
      std::runtime_error);
  EXPECT_THROW(
      parse_design_query("{\"kind\":\"iir\",\"target_ber\":\"high\"}"),
      std::runtime_error);
}

TEST(DesignService, AnswersAViterbiQuery) {
  DesignService service;
  const DesignResponse response = service.submit(small_viterbi_query());
  EXPECT_TRUE(response.feasible);
  EXPECT_FALSE(response.from_archive);
  EXPECT_GT(response.evaluations, 0u);
  EXPECT_EQ(response.store_hits, 0u);  // no store attached
  EXPECT_TRUE(response.best.eval.has_metric("area_mm2"));
  EXPECT_FALSE(response.front.empty());
  EXPECT_EQ(response.front_x, "area_mm2");
  EXPECT_EQ(response.front_y, "ber");
  EXPECT_NE(response.summary.find("best area_mm2"), std::string::npos);
  const std::string json = to_json(response);
  EXPECT_NE(json.find("\"feasible\":true"), std::string::npos);
  EXPECT_NE(json.find("\"front\":[{"), std::string::npos);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.searches_launched, 1u);
  EXPECT_EQ(stats.coalesced, 0u);
}

TEST(DesignService, BatchDeduplicatesIdenticalQueriesIntoOneSearch) {
  DesignService service;
  const std::vector<DesignQuery> batch(4, small_viterbi_query());
  const std::vector<DesignResponse> responses = service.submit_batch(batch);
  ASSERT_EQ(responses.size(), 4u);
  const std::string first = to_json(responses[0]);
  for (const DesignResponse& r : responses) {
    EXPECT_EQ(to_json(r), first);  // byte-identical copies
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, 4u);
  EXPECT_EQ(stats.searches_launched, 1u);
  EXPECT_EQ(stats.coalesced, 3u);
}

TEST(DesignService, ConcurrentSubmitsOfTheSameQueryCoalesce) {
  DesignService service;
  const DesignQuery query = small_viterbi_query();
  std::vector<std::string> responses(3);
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&service, &query, &responses, t] {
      responses[static_cast<std::size_t>(t)] = to_json(service.submit(query));
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(responses[1], responses[0]);
  EXPECT_EQ(responses[2], responses[0]);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, 3u);
  // Every waiter is either coalesced onto the leader's search or (if it
  // arrived after completion, with no store attached) re-ran the identical
  // deterministic search — byte-identical output either way.
  EXPECT_EQ(stats.searches_launched + stats.coalesced, 3u);
  EXPECT_GE(stats.searches_launched, 1u);
}

TEST(DesignService, WarmStoreAnswersRepeatQueryWithoutEvaluatorCalls) {
  const std::string path = temp_store_path("service_warm.jsonl");
  const DesignQuery query = small_viterbi_query();

  DesignResponse cold;
  {
    ServiceConfig config;
    config.store_path = path;
    DesignService service(config);
    cold = service.submit(query);
    EXPECT_EQ(cold.store_hits, 0u);
    EXPECT_GT(service.store()->stats().appends, 0u);
  }

  ServiceConfig config;
  config.store_path = path;
  DesignService service(config);
  const DesignResponse warm = service.submit(query);

  // The warm search walks the cold trajectory out of the store: identical
  // SearchResult accounting and a bit-identical winner, zero evaluator
  // invocations (every store lookup hit; nothing new was appended).
  EXPECT_EQ(warm.evaluations, cold.evaluations);
  EXPECT_EQ(warm.store_hits, cold.evaluations);
  EXPECT_EQ(warm.feasible, cold.feasible);
  EXPECT_EQ(warm.best.indices, cold.best.indices);
  EXPECT_EQ(warm.best.values, cold.best.values);
  EXPECT_EQ(warm.best.eval.metrics, cold.best.eval.metrics);  // bit-exact
  ASSERT_EQ(warm.front.size(), cold.front.size());
  for (std::size_t i = 0; i < warm.front.size(); ++i) {
    EXPECT_EQ(warm.front[i].indices, cold.front[i].indices);
    EXPECT_EQ(warm.front[i].eval.metrics, cold.front[i].eval.metrics);
  }
  const StoreStats store_stats = service.store()->stats();
  EXPECT_EQ(store_stats.misses, 0u);   // evaluator never consulted
  EXPECT_EQ(store_stats.appends, 0u);  // nothing fresh to record
  std::remove(path.c_str());
}

// The stats reply's store member describes the one journal: its fields,
// in order, and values that agree with the store's own stats().
TEST(DesignService, StatsJsonStoreMemberDescribesTheOneJournal) {
  ServiceConfig config;
  config.store_path = temp_store_path("service_stats.jsonl");
  DesignService service(config);
  service.submit(small_viterbi_query());

  const robust::JsonValue doc =
      robust::parse_json(service.stats_json(), "stats");
  const robust::JsonValue* store = doc.find("store");
  ASSERT_NE(store, nullptr);
  std::vector<std::string> keys;
  for (const auto& [key, value] : store->object) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "attached", "entries", "hits", "misses", "appends",
                      "divergent_duplicates", "dropped_writes", "degraded",
                      "lock_contention"}));
  const StoreStats stats = service.store()->stats();
  EXPECT_TRUE(store->find("attached")->boolean);
  EXPECT_EQ(store->find("entries")->number,
            static_cast<double>(service.store()->size()));
  EXPECT_EQ(store->find("appends")->number,
            static_cast<double>(stats.appends));
  EXPECT_GT(stats.appends, 0u);
  EXPECT_EQ(store->find("misses")->number, static_cast<double>(stats.misses));
  EXPECT_FALSE(store->find("degraded")->boolean);
  std::remove(config.store_path.c_str());
}

TEST(DesignService, ArchiveAnswersConstraintOnlyQueriesWithoutSearching) {
  DesignService service;
  const DesignQuery searched = small_viterbi_query();
  const DesignResponse full = service.submit(searched);
  ASSERT_TRUE(full.feasible);
  EXPECT_GT(service.archive_size(searched), 0u);

  // Same requirements (same evaluator scope), constraint-only: answered
  // from the archive without launching another search.
  DesignQuery archive_query = searched;
  archive_query.archive_only = true;
  const DesignResponse archived = service.submit(archive_query);
  EXPECT_TRUE(archived.from_archive);
  EXPECT_TRUE(archived.feasible);
  EXPECT_EQ(archived.evaluations, 0u);
  EXPECT_FALSE(archived.front.empty());
  // The archive holds every searched point, so its best is no worse.
  EXPECT_LE(archived.best.eval.metric("area_mm2"),
            full.best.eval.metric("area_mm2"));

  // Re-tightened constraint set over the same archive: still no search.
  DesignQuery tightened = archive_query;
  tightened.constraints.push_back(
      {search::Constraint::Kind::UpperBound, "ber", searched.target_ber / 2});
  const DesignResponse strict = service.submit(tightened);
  EXPECT_TRUE(strict.from_archive);
  EXPECT_LE(strict.front.size(), archived.front.size());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.searches_launched, 1u);
  EXPECT_EQ(stats.archive_answers, 2u);
}

// With a store attached, the in-memory archive keeps only points the store
// does not hold and archive answers merge the two. That must not change a
// byte of any archive answer:
//  * IIR scopes: a store-backed service answers exactly like a store-less
//    one (every evaluated point is in the search history, so both
//    populations hold the same points).
//  * Viterbi scopes: the final verification pass records its high-fidelity
//    re-evaluations in the store but not in the search history, so a
//    store-backed population is the store's and legitimately differs from
//    a store-less one. The live store-backed service must answer exactly
//    like a fresh service on the reopened store that never searched.
TEST(DesignService, StoreBackedArchiveAnswersMatchStoreLessOnes) {
  const std::string path = temp_store_path("service_archive.jsonl");

  DesignQuery faster = small_viterbi_query();
  faster.throughput_mbps = 2.0;
  const std::vector<DesignQuery> searches = {small_viterbi_query(),
                                             small_iir_query(), faster};
  const auto archive_queries = [](const DesignQuery& searched) {
    DesignQuery archive_query = searched;
    archive_query.archive_only = true;
    DesignQuery tightened = archive_query;
    tightened.constraints.push_back(
        {search::Constraint::Kind::UpperBound,
         searched.kind == QueryKind::Iir ? "passband_ripple_db" : "ber",
         searched.kind == QueryKind::Iir ? 0.5 : 5e-3});
    return std::vector<DesignQuery>{archive_query, tightened};
  };
  const auto answers = [&](DesignService& service, QueryKind kind) {
    std::vector<std::string> out;
    for (const DesignQuery& searched : searches) {
      if (searched.kind != kind) continue;
      for (const DesignQuery& query : archive_queries(searched)) {
        out.push_back(to_json(service.submit(query)));
        out.push_back(std::to_string(service.archive_size(query)));
      }
    }
    return out;
  };

  DesignService store_less;
  for (const DesignQuery& query : searches) store_less.submit(query);
  const std::vector<std::string> iir_reference =
      answers(store_less, QueryKind::Iir);
  ASSERT_EQ(iir_reference.size(), 4u);
  EXPECT_NE(iir_reference[1], "0");

  std::vector<std::string> viterbi_live;
  {
    ServiceConfig config;
    config.store_path = path;
    DesignService store_backed(config);
    for (const DesignQuery& query : searches) store_backed.submit(query);
    EXPECT_EQ(answers(store_backed, QueryKind::Iir), iir_reference);
    viterbi_live = answers(store_backed, QueryKind::Viterbi);
  }
  ASSERT_EQ(viterbi_live.size(), 8u);
  EXPECT_NE(viterbi_live[1], "0");
  ServiceConfig config;
  config.store_path = path;
  DesignService reopened(config);
  EXPECT_EQ(answers(reopened, QueryKind::Iir), iir_reference);
  EXPECT_EQ(answers(reopened, QueryKind::Viterbi), viterbi_live);
  EXPECT_EQ(reopened.stats().searches_launched, 0u);
  temp_store_path("service_archive.jsonl");
}

TEST(DesignService, ArchiveAnswerOnEmptyServiceReportsNoData) {
  DesignService service;
  DesignQuery query = small_viterbi_query();
  query.archive_only = true;
  const DesignResponse response = service.submit(query);
  EXPECT_TRUE(response.from_archive);
  EXPECT_FALSE(response.feasible);
  EXPECT_TRUE(response.front.empty());
  EXPECT_NE(response.summary.find("no archived evaluations"),
            std::string::npos);
  EXPECT_EQ(service.stats().searches_launched, 0u);
}

TEST(DesignService, MixedBatchIsByteIdenticalAtAnyThreadCount) {
  // The acceptance invariant: the response vector of a mixed batch —
  // distinct Viterbi queries, an IIR query, a duplicate, and an
  // archive-only follow-up — is byte-identical at METACORE_THREADS
  // equivalents 1, 2, and 8.
  std::vector<DesignQuery> batch;
  batch.push_back(small_viterbi_query());
  DesignQuery faster = small_viterbi_query();
  faster.throughput_mbps = 2.0;
  batch.push_back(faster);
  batch.push_back(small_iir_query());
  batch.push_back(small_viterbi_query());  // duplicate of [0]
  DesignQuery archive_query = small_viterbi_query();
  archive_query.archive_only = true;
  batch.push_back(archive_query);

  const std::size_t configured = exec::ThreadPool::configured_threads();
  std::vector<std::vector<std::string>> runs;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    exec::ThreadPool::set_global_threads(threads);
    DesignService service;  // fresh service: no cross-run archive leakage
    std::vector<std::string> encoded;
    for (const DesignResponse& r : service.submit_batch(batch)) {
      encoded.push_back(to_json(r));
    }
    runs.push_back(std::move(encoded));
  }
  exec::ThreadPool::set_global_threads(configured);

  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[1], runs[0]);
  EXPECT_EQ(runs[2], runs[0]);
  // The duplicate got the same bytes as its original.
  EXPECT_EQ(runs[0][3], runs[0][0]);
  // The archive query ran after its group's search: populated answer.
  EXPECT_NE(runs[0][4].find("\"from_archive\":true"), std::string::npos);
  EXPECT_NE(runs[0][4].find("\"feasible\":true"), std::string::npos);
}

TEST(DesignService, CoalescedFollowersGetTheLeadersResponse) {
  // The leader registers the key before it counts its query, so once the
  // service has counted one query the followers started next find the
  // search in flight (it runs for many milliseconds) and wait on it.
  constexpr int kThreads = 4;
  DesignService service;
  const DesignQuery query = small_viterbi_query();
  std::vector<DesignResponse> responses(kThreads);
  std::vector<std::thread> threads;
  threads.emplace_back([&] { responses[0] = service.submit(query); });
  while (service.stats().queries == 0) std::this_thread::yield();
  for (int t = 1; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      responses[static_cast<std::size_t>(t)] = service.submit(query);
    });
  }
  for (auto& t : threads) t.join();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, static_cast<std::size_t>(kThreads));
  EXPECT_EQ(stats.searches_launched, 1u);
  EXPECT_EQ(stats.coalesced, static_cast<std::size_t>(kThreads - 1));
  const std::string leader = to_json(responses[0]);
  EXPECT_NE(leader.find("\"front\":[{"), std::string::npos);
  for (const DesignResponse& r : responses) {
    EXPECT_EQ(r.best.indices, responses[0].best.indices);
    EXPECT_EQ(r.best.eval.metrics, responses[0].best.eval.metrics);
    EXPECT_EQ(to_json(r), leader);
  }
}

// The response writer's bytes are pinned against the ostream writer it
// replaced: the response, point and record writers are copied here as they
// were; under them sit a per-character escaper and printf's "%.17g".
namespace stream_writer {

void write_escaped(std::ostream& os, const std::string& s) {
  os.put('"');
  for (const char c : s) {
    switch (c) {
      case '"': os.write("\\\"", 2); break;
      case '\\': os.write("\\\\", 2); break;
      case '\n': os.write("\\n", 2); break;
      case '\r': os.write("\\r", 2); break;
      case '\t': os.write("\\t", 2); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          const char esc[6] = {'\\', 'u', '0', '0', kHex[(c >> 4) & 0xF],
                               kHex[c & 0xF]};
          os.write(esc, sizeof(esc));
        } else {
          os.put(c);
        }
    }
  }
  os.put('"');
}

void write_double(std::ostream& os, double v) {
  if (std::isnan(v)) {
    os << "nan";
  } else if (std::isinf(v)) {
    os << (v > 0 ? "inf" : "-inf");
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
  }
}

void write_eval_record(std::ostream& os, const EvalRecord& rec) {
  os << "{\"indices\":[";
  for (std::size_t d = 0; d < rec.indices.size(); ++d) {
    if (d) os << ',';
    os << rec.indices[d];
  }
  os << "],\"fidelity\":" << rec.fidelity
     << ",\"feasible\":" << (rec.eval.feasible ? "true" : "false")
     << ",\"confidence_weight\":";
  write_double(os, rec.eval.confidence_weight);
  os << ",\"failure_reason\":";
  write_escaped(os, rec.eval.failure_reason);
  os << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : rec.eval.metrics) {
    if (!first) os << ',';
    first = false;
    write_escaped(os, name);
    os << ':';
    write_double(os, value);
  }
  os << "}}";
}

void write_point(std::ostream& os, const search::EvaluatedPoint& pt) {
  os << "{\"values\":[";
  for (std::size_t i = 0; i < pt.values.size(); ++i) {
    if (i > 0) os << ',';
    write_double(os, pt.values[i]);
  }
  os << "],\"record\":";
  write_eval_record(os, EvalRecord{pt.indices, pt.fidelity, pt.eval});
  os << '}';
}

std::string to_json(const DesignResponse& response) {
  std::ostringstream os;
  os << "{\"feasible\":" << (response.feasible ? "true" : "false")
     << ",\"from_archive\":" << (response.from_archive ? "true" : "false")
     << ",\"best\":";
  write_point(os, response.best);
  os << ",\"evaluations\":" << response.evaluations
     << ",\"cache_hits\":" << response.cache_hits
     << ",\"store_hits\":" << response.store_hits
     << ",\"divergent_duplicates\":" << response.divergent_duplicates
     << ",\"store_degraded\":" << (response.store_degraded ? "true" : "false")
     << ",\"front_x\":";
  write_escaped(os, response.front_x);
  os << ",\"front_y\":";
  write_escaped(os, response.front_y);
  os << ",\"front\":[";
  for (std::size_t i = 0; i < response.front.size(); ++i) {
    if (i > 0) os << ',';
    write_point(os, response.front[i]);
  }
  os << "],\"summary\":";
  write_escaped(os, response.summary);
  os << '}';
  return os.str();
}

}  // namespace stream_writer

/// Seeded response fields that reach every branch of the writers.
class ResponseGen {
 public:
  explicit ResponseGen(std::uint64_t key) : rng_(key) {}

  std::uint64_t bits() { return rng_(); }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(rng_() % n);
  }

  double number() {
    switch (below(14)) {
      case 0: return std::numeric_limits<double>::quiet_NaN();
      case 1: return -std::numeric_limits<double>::quiet_NaN();
      case 2: return std::numeric_limits<double>::infinity();
      case 3: return -std::numeric_limits<double>::infinity();
      case 4: return -0.0;
      case 5: return 0.0;
      case 6: return 4.9406564584124654e-324;  // smallest denormal
      case 7: return -2.2250738585072009e-308;  // largest denormal
      case 8: return 0.1 + 0.2;
      case 9: return static_cast<double>(bits() % 2000) - 1000.0;
      case 10: return std::ldexp(static_cast<double>(bits() >> 11), -53);
      default: {
        // Any bit pattern: NaN payloads, denormals, extreme exponents.
        const std::uint64_t b = bits();
        double v;
        std::memcpy(&v, &b, sizeof(v));
        return v;
      }
    }
  }

  std::string text(std::size_t max_len) {
    std::string s(below(max_len + 1), '\0');
    for (char& c : s) {
      switch (below(6)) {
        case 0: c = static_cast<char>(below(0x20)); break;  // control
        case 1: c = '"'; break;
        case 2: c = '\\'; break;
        case 3: c = static_cast<char>(0x7f + below(0x81)); break;  // high
        default: c = static_cast<char>(0x20 + below(0x5f)); break;
      }
    }
    return s;
  }

  search::EvaluatedPoint point() {
    search::EvaluatedPoint pt;
    const std::size_t dims = below(5);
    for (std::size_t d = 0; d < dims; ++d) {
      pt.indices.push_back(static_cast<int>(bits() % 4001) - 2000);
      pt.values.push_back(number());
    }
    pt.fidelity = static_cast<int>(bits() % 9) - 1;
    pt.eval.feasible = below(2) == 0;
    pt.eval.confidence_weight = number();
    pt.eval.failure_reason = below(3) == 0 ? text(24) : std::string();
    const std::size_t metrics = below(9);
    for (std::size_t m = 0; m < metrics; ++m) {
      pt.eval.metrics[text(10)] = number();
    }
    return pt;
  }

  DesignResponse response() {
    DesignResponse r;
    r.feasible = below(2) == 0;
    r.from_archive = below(2) == 0;
    r.store_degraded = below(4) == 0;
    r.best = point();
    r.evaluations = below(2) == 0 ? bits() : below(500);
    r.cache_hits = below(500);
    r.store_hits = bits();
    r.divergent_duplicates = below(3);
    r.front_x = text(12);
    r.front_y = text(12);
    const std::size_t front = below(5);
    for (std::size_t i = 0; i < front; ++i) r.front.push_back(point());
    r.summary = text(80);
    return r;
  }

 private:
  util::CounterRng rng_;
};

TEST(ResponseJson, AppendWriterMatchesTheStreamWriter) {
  for (std::uint64_t i = 0; i < 10000; ++i) {
    ResponseGen gen(util::substream_key(2024, i));
    const DesignResponse response = gen.response();
    const std::string expected = stream_writer::to_json(response);
    ASSERT_EQ(to_json(response), expected) << "response " << i;
  }
}

TEST(ResponseJson, AppendWriterMatchesTheStreamWriterOnServedAnswers) {
  // Real answers too: a search and an archive answer over it.
  DesignService service;
  DesignQuery query = small_viterbi_query();
  const DesignResponse searched = service.submit(query);
  query.archive_only = true;
  const DesignResponse archived = service.submit(query);
  EXPECT_EQ(to_json(searched), stream_writer::to_json(searched));
  EXPECT_EQ(to_json(archived), stream_writer::to_json(archived));
}

}  // namespace
}  // namespace metacore::serve
