// The serialized-response cache behind DesignService::submit_encoded: a
// repeat of an identical query whose evaluator scope held still is
// answered as cached pre-encoded bytes (zero re-search), and any
// generation movement — store append, compaction, or archive growth —
// invalidates the entry so a cached answer is always
// byte-identical to what a fresh submit() would produce right now.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "serve/binary_codec.hpp"
#include "serve/service.hpp"
#include "serve/store.hpp"
#include "temp_dir.hpp"

namespace metacore::serve {
namespace {

std::string temp_store_path(const char* name) {
  const std::string path = metacore::test::process_temp_dir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

/// True when METACORE_RESPONSE_CACHE=0 turns the cache off for every
/// service in the process: the cases that pin cache hits, invalidations and
/// evictions then have no cache to test. (The cache-off path itself is
/// covered by CapacityZeroDisablesCaching and the server suites.)
bool cache_disabled_by_env() {
  const char* env = std::getenv("METACORE_RESPONSE_CACHE");
  return env != nullptr && std::strcmp(env, "0") == 0;
}

constexpr const char* kNoCache =
    "METACORE_RESPONSE_CACHE=0 disables the response cache this case tests";

/// Cheap Viterbi query (loose BER target, tiny budget).
DesignQuery tiny_query(double mbps = 1.0) {
  DesignQuery query;
  query.kind = QueryKind::Viterbi;
  query.target_ber = 1e-2;
  query.esn0_db = 1.0;
  query.throughput_mbps = mbps;
  query.ber_shards = 2;
  query.budget.initial_points_per_dim = 2;
  query.budget.max_resolution = 0;
  query.budget.regions_per_level = 1;
  query.budget.max_evaluations = 16;
  return query;
}

/// Submits twice so the entry is cached: the cold run moves its own scope
/// (store appends, archive growth) so by design the *repeat* is the run
/// that becomes cacheable. Returns the warm bytes.
std::shared_ptr<const std::string> warm_cache(DesignService& service,
                                              const DesignQuery& query,
                                              WireEncoding encoding) {
  service.submit_encoded(query, encoding);
  return service.submit_encoded(query, encoding);
}

TEST(ResponseCache, WarmRepeatHitsWithBytesIdenticalToAFreshSubmit) {
  if (cache_disabled_by_env()) GTEST_SKIP() << kNoCache;
  DesignService service;
  const DesignQuery query = tiny_query();

  // Cold run: a miss that moves the archive, so it is not yet cached.
  const auto first = service.submit_encoded(query, WireEncoding::Json);
  EXPECT_EQ(service.stats().response_cache_misses, 1u);
  EXPECT_EQ(service.response_cache_size(), 0u);

  // The repeat re-runs with the scope now stable — cached from here on.
  const auto second = service.submit_encoded(query, WireEncoding::Json);
  EXPECT_EQ(service.stats().response_cache_misses, 2u);
  EXPECT_EQ(service.response_cache_size(), 1u);
  EXPECT_EQ(*second, *first);  // deterministic re-run, identical bytes

  const auto third = service.submit_encoded(query, WireEncoding::Json);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.response_cache_hits, 1u);
  EXPECT_EQ(stats.response_cache_misses, 2u);
  // A hit returns the cached buffer itself — no re-serialization.
  EXPECT_EQ(third.get(), second.get());
  // The cache contract: cached bytes == what a fresh submit produces now.
  EXPECT_EQ(*third, to_json(service.submit(query)));
}

TEST(ResponseCache, EncodingsShareOneEntryAndStayConsistent) {
  if (cache_disabled_by_env()) GTEST_SKIP() << kNoCache;
  DesignService service;
  const DesignQuery query = tiny_query();
  const auto json = warm_cache(service, query, WireEncoding::Json);
  ASSERT_TRUE(json);
  ASSERT_EQ(service.response_cache_size(), 1u);

  // The binary fetch of the same query is a hit on the same entry (filled
  // lazily from the cached struct — still zero re-search) ...
  const auto binary = service.submit_encoded(query, WireEncoding::Binary);
  EXPECT_EQ(service.stats().response_cache_hits, 1u);
  EXPECT_EQ(service.response_cache_size(), 1u);
  // ... and decodes to exactly the cached JSON answer.
  EXPECT_EQ(to_json(decode_design_response(*binary)), *json);
  // Both encodings now hit.
  const auto again = service.submit_encoded(query, WireEncoding::Binary);
  EXPECT_EQ(again.get(), binary.get());
  EXPECT_EQ(service.stats().response_cache_hits, 2u);
}

TEST(ResponseCache, StoreAppendInvalidatesTheEntry) {
  if (cache_disabled_by_env()) GTEST_SKIP() << kNoCache;
  ServiceConfig config;
  config.store_path = temp_store_path("cache_append.jsonl");
  DesignService service(config);
  const DesignQuery query = tiny_query();
  warm_cache(service, query, WireEncoding::Json);
  ASSERT_EQ(service.response_cache_size(), 1u);

  // A wider-budget query on the SAME evaluator scope (budget is not part
  // of the fingerprint) evaluates fresh points and appends them to the
  // store — the generation moves under the cached entry.
  DesignQuery wider = query;
  wider.budget.initial_points_per_dim = 3;
  wider.budget.max_evaluations = 48;
  service.submit(wider);

  const auto after = service.submit_encoded(query, WireEncoding::Json);
  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.response_cache_invalidations, 1u);
  // The invalidated repeat still answers correctly — and byte-identically
  // to a fresh submit against the enlarged store.
  EXPECT_EQ(*after, to_json(service.submit(query)));
}

TEST(ResponseCache, CompactionInvalidatesTheEntry) {
  if (cache_disabled_by_env()) GTEST_SKIP() << kNoCache;
  ServiceConfig config;
  config.store_path = temp_store_path("cache_compact.jsonl");
  DesignService service(config);
  const DesignQuery query = tiny_query();
  warm_cache(service, query, WireEncoding::Json);
  ASSERT_EQ(service.response_cache_size(), 1u);
  const ServiceStats before = service.stats();

  // Snapshot compaction rewrites the journal: same entries, new
  // generation — the cache must not assume the scope held still.
  service.store()->compact();
  const auto after = service.submit_encoded(query, WireEncoding::Json);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.response_cache_invalidations,
            before.response_cache_invalidations + 1);
  EXPECT_EQ(*after, to_json(service.submit(query)));
}

TEST(ResponseCache, AppendUnderAnotherScopeInvalidatesTheEntry) {
  // The store generation is one counter for the whole store, so an append
  // under any evaluator scope moves it. The cached entry of an untouched
  // scope is dropped and re-searched, and the answer it gives is the one
  // it gave before: its own points did not change.
  if (cache_disabled_by_env()) GTEST_SKIP() << kNoCache;
  ServiceConfig config;
  config.store_path = temp_store_path("cache_other_scope.jsonl");
  DesignService service(config);
  const DesignQuery query = tiny_query(1.0);
  const DesignQuery other = tiny_query(4.0);
  ASSERT_NE(query_fingerprint(query), query_fingerprint(other));
  const auto cached = warm_cache(service, query, WireEncoding::Json);
  ASSERT_EQ(service.response_cache_size(), 1u);
  const std::uint64_t generation = service.store()->generation();

  service.submit(other);
  ASSERT_GT(service.store()->generation(), generation);

  const ServiceStats before = service.stats();
  const auto after = service.submit_encoded(query, WireEncoding::Json);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.response_cache_invalidations,
            before.response_cache_invalidations + 1);
  EXPECT_EQ(stats.response_cache_hits, before.response_cache_hits);
  EXPECT_EQ(*after, *cached);
  EXPECT_EQ(*after, to_json(service.submit(query)));
}

TEST(ResponseCache, CapacityZeroDisablesCaching) {
  ServiceConfig config;
  config.response_cache_capacity = 0;
  DesignService service(config);
  const DesignQuery query = tiny_query();
  for (int i = 0; i < 3; ++i) {
    service.submit_encoded(query, WireEncoding::Json);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.response_cache_hits, 0u);
  EXPECT_EQ(service.response_cache_size(), 0u);
}

TEST(ResponseCache, FifoEvictionHonorsTheCapacity) {
  if (cache_disabled_by_env()) GTEST_SKIP() << kNoCache;
  ServiceConfig config;
  config.response_cache_capacity = 1;
  DesignService service(config);
  const DesignQuery a = tiny_query(1.0);
  const DesignQuery b = tiny_query(2.0);
  warm_cache(service, a, WireEncoding::Json);
  ASSERT_EQ(service.response_cache_size(), 1u);

  // Warming a second query evicts the first (FIFO) instead of growing.
  warm_cache(service, b, WireEncoding::Json);
  EXPECT_EQ(service.response_cache_size(), 1u);

  // `a` was evicted: its repeat is a miss again, not a hit.
  const std::size_t hits_before = service.stats().response_cache_hits;
  service.submit_encoded(a, WireEncoding::Json);
  EXPECT_EQ(service.stats().response_cache_hits, hits_before);
}

TEST(ResponseCache, ARecachedKeyIsEvictedByItsNewInsertion) {
  if (cache_disabled_by_env()) GTEST_SKIP() << kNoCache;
  ServiceConfig config;
  config.response_cache_capacity = 2;
  DesignService service(config);
  const DesignQuery a = tiny_query(1.0);
  const DesignQuery b = tiny_query(2.0);
  const DesignQuery c = tiny_query(3.0);
  warm_cache(service, a, WireEncoding::Json);
  warm_cache(service, b, WireEncoding::Json);
  ASSERT_EQ(service.response_cache_size(), 2u);

  // A wider search on a's scope grows its archive, so a's entry goes
  // stale; a's next repeat drops it and caches a again. Insertion order is
  // now b, a.
  DesignQuery wider = a;
  wider.budget.initial_points_per_dim = 3;
  wider.budget.max_evaluations = 48;
  service.submit(wider);
  const std::size_t invalidations =
      service.stats().response_cache_invalidations;
  service.submit_encoded(a, WireEncoding::Json);
  ASSERT_EQ(service.stats().response_cache_invalidations, invalidations + 1);
  ASSERT_EQ(service.response_cache_size(), 2u);

  // Caching c evicts the oldest insertion, b. The entry a had before its
  // invalidation must not count as an older insertion of a.
  warm_cache(service, c, WireEncoding::Json);
  EXPECT_EQ(service.response_cache_size(), 2u);
  const std::size_t hits = service.stats().response_cache_hits;
  service.submit_encoded(a, WireEncoding::Json);
  EXPECT_EQ(service.stats().response_cache_hits, hits + 1) << "a was evicted";
  service.submit_encoded(b, WireEncoding::Json);
  EXPECT_EQ(service.stats().response_cache_hits, hits + 1) << "b stayed";
}

TEST(ResponseCache, BatchDeduplicatesIdenticalEncodedQueries) {
  DesignService service;
  const DesignQuery query = tiny_query();
  warm_cache(service, query, WireEncoding::Json);

  std::vector<DesignService::EncodedQuery> items(4);
  for (auto& item : items) {
    item.query = query;
    item.encoding = WireEncoding::Json;
  }
  items[3].encoding = WireEncoding::Binary;
  const auto out = service.submit_batch_encoded(items);
  ASSERT_EQ(out.size(), 4u);
  // The three identical (query, encoding) pairs share one buffer.
  EXPECT_EQ(out[0].get(), out[1].get());
  EXPECT_EQ(out[1].get(), out[2].get());
  // The binary slot decodes to the same answer.
  EXPECT_EQ(to_json(decode_design_response(*out[3])), *out[0]);
}

}  // namespace
}  // namespace metacore::serve
