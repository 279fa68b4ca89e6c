// End-to-end tests for the epoll TCP design-query server on loopback:
// socket answers byte-identical to in-process DesignService answers,
// multiplexed out-of-order responses, malformed/oversized-frame survival,
// overload rejection under a tiny admission quota, graceful drain with
// queries in flight, survival of clients that vanish mid-query, the
// refusal count for connections over the cap, counted shedding when the
// process is out of file descriptors, and the I/O thread's query memo
// (its frame splitter, eviction, ordering, and byte parity with the
// parse-every-request path on seeded mutants).
#include <arpa/inet.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "serve/binary_codec.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"
#include "temp_dir.hpp"

namespace metacore::net {
namespace {

using namespace std::chrono_literals;

std::string temp_store_path(const char* name) {
  const std::string path = metacore::test::process_temp_dir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

/// Cheap Viterbi query (loose BER target, tiny budget) — seconds of CPU at
/// most, milliseconds when replayed from a warm store.
serve::DesignQuery tiny_query(double mbps = 1.0) {
  serve::DesignQuery query;
  query.kind = serve::QueryKind::Viterbi;
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

/// A deliberately slower query to hold the dispatcher busy.
serve::DesignQuery slow_query() {
  serve::DesignQuery query = tiny_query(7.0);
  query.ber_shards = 4;
  query.budget.initial_points_per_dim = 3;
  query.budget.max_evaluations = 96;
  return query;
}

ServerConfig loopback_config() {
  ServerConfig config;
  config.bind_address = "127.0.0.1";
  config.port = 0;  // ephemeral
  return config;
}

bool wait_until(const std::function<bool()>& condition,
                std::chrono::milliseconds timeout = 30s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (condition()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return condition();
}

/// True when METACORE_RESPONSE_CACHE=0 turns the response cache off for
/// every service in the process; the cases that expect cached answers then
/// have nothing to test.
bool cache_disabled_by_env() {
  const char* env = std::getenv("METACORE_RESPONSE_CACHE");
  return env != nullptr && std::strcmp(env, "0") == 0;
}

constexpr const char* kNoCache =
    "METACORE_RESPONSE_CACHE=0 disables the response cache this case tests";

/// One integer counter of the server's `stats` reply, read over `client`.
std::size_t stats_counter(DesignClient& client, const std::string& name) {
  const WireResponse stats = client.stats();
  const std::string key = "\"" + name + "\":";
  const std::size_t at = stats.stats_json.find(key);
  if (!stats.ok() || at == std::string::npos) {
    ADD_FAILURE() << "no counter " << name << " in " << stats.stats_json;
    return 0;
  }
  return std::stoull(stats.stats_json.substr(at + key.size()));
}

TEST(DesignServer, StartsOnEphemeralPortAndStopsIdempotently) {
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  EXPECT_EQ(server.port(), 0);
  server.start();
  EXPECT_GT(server.port(), 0);
  EXPECT_TRUE(server.running());
  server.shutdown();
  EXPECT_FALSE(server.running());
  server.shutdown();  // idempotent
}

TEST(DesignServer, StatsRequestCarriesServerAndServiceCounters) {
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  server.start();

  DesignClient client;
  client.connect("127.0.0.1", server.port());
  const WireResponse response = client.stats();
  ASSERT_TRUE(response.ok()) << response.reason;
  // Both counter families ride in one document — no side channel.
  EXPECT_NE(response.stats_json.find("\"server\":"), std::string::npos);
  EXPECT_NE(response.stats_json.find("\"service\":"), std::string::npos);
  EXPECT_NE(response.stats_json.find("\"coalesced\":"), std::string::npos);
  EXPECT_NE(response.stats_json.find("\"store\":{\"attached\":false}"),
            std::string::npos);
  EXPECT_NE(response.stats_json.find("\"accepted_connections\":1"),
            std::string::npos);
  server.shutdown();
}

TEST(DesignServer, SocketAnswerIsByteIdenticalToInProcess) {
  const serve::DesignQuery query = tiny_query();

  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  server.start();
  DesignClient client;
  client.connect("127.0.0.1", server.port());
  const WireResponse wire = client.query(query);
  ASSERT_TRUE(wire.ok()) << wire.reason;
  server.shutdown();

  // A fresh in-process service (same no-store starting state) must produce
  // exactly the bytes that crossed the wire.
  serve::DesignService reference;
  EXPECT_EQ(wire.response_json, serve::to_json(reference.submit(query)));
}

TEST(DesignServer, MultiplexedResponsesMatchTheirIds) {
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  server.start();
  DesignClient client;
  client.connect("127.0.0.1", server.port());

  // Three in-flight requests on one connection, collected in reverse
  // order: ids pair responses to requests, not arrival order.
  client.send_query("q-a", tiny_query(1.0));
  client.send_query("q-b", tiny_query(1.0));  // identical: coalesces
  client.send_stats("q-c");
  const WireResponse c = client.recv_matching("q-c");
  const WireResponse b = client.recv_matching("q-b");
  const WireResponse a = client.recv_matching("q-a");
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  EXPECT_TRUE(c.ok());
  // The two identical queries were deduplicated into one search and must
  // return byte-identical payloads.
  EXPECT_EQ(a.response_json, b.response_json);

  const serve::ServiceStats stats = service->stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_GE(stats.coalesced + (stats.searches_launched > 1 ? 1u : 0u), 1u);
  server.shutdown();
}

TEST(DesignServer, MalformedFramesGetErrorsAndTheConnectionSurvives) {
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  server.start();
  DesignClient client;
  client.connect("127.0.0.1", server.port());

  client.send_raw("this is not json");
  WireResponse err = client.recv_response();
  EXPECT_EQ(err.status, "error");
  EXPECT_EQ(err.id, "");
  EXPECT_FALSE(err.reason.empty());

  // Valid JSON, invalid envelope: the id is still recovered.
  client.send_raw("{\"id\":\"x9\",\"kind\":\"bogus\"}");
  err = client.recv_response();
  EXPECT_EQ(err.status, "error");
  EXPECT_EQ(err.id, "x9");

  // Same connection keeps working afterwards.
  const WireResponse stats = client.stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.stats_json.find("\"malformed_frames\":2"),
            std::string::npos);
  server.shutdown();
}

TEST(DesignServer, OversizedFramesAreDroppedAndTheConnectionSurvives) {
  ServerConfig config = loopback_config();
  config.max_frame_bytes = 512;
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, config);
  server.start();
  DesignClient client;
  client.connect("127.0.0.1", server.port());

  client.send_raw(std::string(4096, 'z'));
  const WireResponse err = client.recv_response();
  EXPECT_EQ(err.status, "error");
  EXPECT_NE(err.reason.find("exceeds"), std::string::npos);

  const WireResponse stats = client.stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.stats_json.find("\"oversized_frames\":1"),
            std::string::npos);
  server.shutdown();
}

TEST(DesignServer, ConcurrentConnectionsAreByteIdenticalAtAnyWidth) {
  const std::string store_path = temp_store_path("net_determinism.store");
  auto store = std::make_shared<serve::EvaluationStore>(store_path);

  // Four distinct queries, warmed into the store once; the reference bytes
  // are what a fresh in-process service answers out of the warm store.
  std::vector<serve::DesignQuery> unique;
  for (const double mbps : {1.0, 2.0, 3.0, 4.0}) unique.push_back(tiny_query(mbps));
  {
    serve::ServiceConfig config;
    config.store = store;
    serve::DesignService warmer(config);
    for (const auto& query : unique) warmer.submit(query);
  }
  std::vector<std::string> reference(unique.size());
  {
    serve::ServiceConfig config;
    config.store = store;
    serve::DesignService ref_service(config);
    for (std::size_t i = 0; i < unique.size(); ++i) {
      reference[i] = serve::to_json(ref_service.submit(unique[i]));
    }
  }

  // The mixed query set: 32 queries cycling over the four uniques.
  constexpr std::size_t kQueries = 32;
  for (const std::size_t connections : {std::size_t{1}, std::size_t{4},
                                        std::size_t{16}}) {
    serve::ServiceConfig config;
    config.store = store;
    auto service = std::make_shared<serve::DesignService>(config);
    DesignServer server(service, loopback_config());
    server.start();

    std::vector<std::vector<std::string>> got(connections);
    std::vector<std::thread> workers;
    for (std::size_t c = 0; c < connections; ++c) {
      workers.emplace_back([&, c] {
        DesignClient client;
        client.connect("127.0.0.1", server.port());
        std::vector<std::string> ids;
        for (std::size_t q = c; q < kQueries; q += connections) {
          const std::string id = "w" + std::to_string(q);
          client.send_query(id, unique[q % unique.size()]);
          ids.push_back(id);
        }
        for (const std::string& id : ids) {
          const WireResponse response = client.recv_matching(id);
          ASSERT_TRUE(response.ok()) << response.reason;
          got[c].push_back(response.response_json);
        }
      });
    }
    for (auto& worker : workers) worker.join();
    server.shutdown();

    for (std::size_t c = 0; c < connections; ++c) {
      std::size_t k = 0;
      for (std::size_t q = c; q < kQueries; q += connections, ++k) {
        EXPECT_EQ(got[c][k], reference[q % unique.size()])
            << "connections=" << connections << " query=" << q;
      }
    }
  }
  std::remove(store_path.c_str());
}

TEST(DesignServer, WorkerConnectionMatrixIsByteIdentical) {
  const std::string store_path = temp_store_path("net_matrix.store");

  // Four distinct queries, warmed once; the reference bytes are what a
  // fresh in-process service answers out of the warm store.
  std::vector<serve::DesignQuery> unique;
  for (const double mbps : {1.0, 2.0, 3.0, 4.0}) {
    unique.push_back(tiny_query(mbps));
  }
  {
    serve::ServiceConfig config;
    config.store = std::make_shared<serve::EvaluationStore>(store_path);
    serve::DesignService warmer(config);
    for (const auto& query : unique) warmer.submit(query);
  }
  std::vector<std::string> reference(unique.size());
  {
    serve::ServiceConfig config;
    config.store = std::make_shared<serve::EvaluationStore>(store_path);
    serve::DesignService ref_service(config);
    for (std::size_t i = 0; i < unique.size(); ++i) {
      reference[i] = serve::to_json(ref_service.submit(unique[i]));
    }
  }

  // The full decomposition matrix: every workers x connections x
  // wire-mode point must produce exactly the reference bytes for every
  // query. Odd connections negotiate the MCB1 binary mode (so both wire
  // modes run concurrently against one server); a binary answer decodes
  // and re-serializes to the same canonical bytes.
  constexpr std::size_t kQueries = 16;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    serve::ServiceConfig service_config;
    service_config.store = std::make_shared<serve::EvaluationStore>(store_path);
    auto service = std::make_shared<serve::DesignService>(service_config);
    ServerConfig server_config = loopback_config();
    server_config.search_workers = workers;
    DesignServer server(service, server_config);
    server.start();

    for (const std::size_t connections : {std::size_t{1}, std::size_t{4},
                                          std::size_t{16}}) {
      std::vector<std::vector<std::string>> got(connections);
      std::vector<std::thread> senders;
      for (std::size_t c = 0; c < connections; ++c) {
        senders.emplace_back([&, c] {
          DesignClient client;
          client.connect("127.0.0.1", server.port());
          if (c % 2 == 1) {
            ASSERT_TRUE(client.negotiate_binary());
          }
          std::vector<std::string> ids;
          for (std::size_t q = c; q < kQueries; q += connections) {
            const std::string id = "m" + std::to_string(q);
            client.send_query(id, unique[q % unique.size()]);
            ids.push_back(id);
          }
          for (const std::string& id : ids) {
            const WireResponse response = client.recv_matching(id);
            ASSERT_TRUE(response.ok()) << response.reason;
            got[c].push_back(response.response_json);
          }
        });
      }
      for (auto& sender : senders) sender.join();
      for (std::size_t c = 0; c < connections; ++c) {
        std::size_t k = 0;
        for (std::size_t q = c; q < kQueries; q += connections, ++k) {
          EXPECT_EQ(got[c][k], reference[q % unique.size()])
              << "workers=" << workers << " connections=" << connections
              << " query=" << q
              << " wire=" << (c % 2 == 1 ? "binary" : "text");
        }
      }
    }
    server.shutdown();
  }
  serve::EvaluationStore final_store(store_path);
  EXPECT_GT(final_store.size(), 0u);
  std::remove(store_path.c_str());
}

TEST(DesignServer, SameFingerprintQueriesKeepArrivalOrderAcrossWorkers) {
  // Two same-fingerprint queries pipelined back-to-back: the first (big
  // budget) evaluates the space cold; the second (small budget, same
  // evaluator scope) must run AFTER it and replay from the store. If
  // multi-worker dispatch ever reordered them, the second would run cold
  // (store_hits 0) — fingerprint routing makes the order a guarantee, not
  // a race.
  const std::string store_path = temp_store_path("net_order.store");
  serve::ServiceConfig service_config;
  service_config.store_path = store_path;
  auto service = std::make_shared<serve::DesignService>(service_config);
  ServerConfig config = loopback_config();
  config.search_workers = 8;
  DesignServer server(service, config);
  server.start();

  DesignClient client;
  client.connect("127.0.0.1", server.port());
  serve::DesignQuery big = tiny_query(6.0);
  big.budget.initial_points_per_dim = 3;
  big.budget.max_evaluations = 64;
  serve::DesignQuery small = tiny_query(6.0);  // same fingerprint
  small.budget.initial_points_per_dim = 2;
  small.budget.max_evaluations = 8;
  client.send_query("big", big);
  client.send_query("small", small);

  const WireResponse first = client.recv_matching("big");
  const WireResponse second = client.recv_matching("small");
  ASSERT_TRUE(first.ok()) << first.reason;
  ASSERT_TRUE(second.ok()) << second.reason;
  // The second query replayed at least part of the first one's work.
  EXPECT_EQ(second.response_json.find("\"store_hits\":0,"),
            std::string::npos)
      << second.response_json;
  server.shutdown();
  std::remove(store_path.c_str());
}

TEST(DesignServer, FastLaneAnswersCheapQueriesDuringASlowSearch) {
  auto service = std::make_shared<serve::DesignService>();
  ServerConfig config = loopback_config();
  config.search_workers = 1;  // one busy search worker: the worst case
  DesignServer server(service, config);
  server.start();

  DesignClient busy;
  busy.connect("127.0.0.1", server.port());
  busy.send_query("slow", slow_query());
  ASSERT_TRUE(wait_until([&] { return server.stats().in_flight >= 1; }));

  // With the search worker pinned, stats (inline on the I/O thread) and
  // archive_only probes (fast lane) must still answer promptly — their
  // latency stays flat instead of queueing behind the search.
  DesignClient probe;
  probe.connect("127.0.0.1", server.port());
  double worst_ms = 0.0;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const WireResponse stats = probe.stats();
    ASSERT_TRUE(stats.ok()) << stats.reason;
    serve::DesignQuery archive_probe = tiny_query();
    archive_probe.archive_only = true;
    const WireResponse archive = probe.query(archive_probe);
    ASSERT_TRUE(archive.ok()) << archive.reason;
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    worst_ms = std::max(worst_ms, ms);
  }
  // The slow search is still running: the cheap round trips above did not
  // wait for it.
  EXPECT_GE(server.stats().in_flight, 1u);
  EXPECT_LT(worst_ms, 5000.0);
  const WireResponse stats = probe.stats();
  EXPECT_NE(stats.stats_json.find("\"fast_lane_queries\":5"),
            std::string::npos)
      << stats.stats_json;
  EXPECT_NE(stats.stats_json.find("\"workers\":1"), std::string::npos);
  EXPECT_NE(stats.stats_json.find("\"worker_depths\":["), std::string::npos);

  EXPECT_TRUE(busy.recv_matching("slow").ok());
  server.shutdown();
}

TEST(DesignServer, CachedRepeatsAreAnsweredInlineOnTextAndBinaryWires) {
  if (cache_disabled_by_env()) GTEST_SKIP() << kNoCache;
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  server.start();
  const serve::DesignQuery query = tiny_query(4.0);

  DesignClient text;
  text.connect("127.0.0.1", server.port());
  // The cold run grows the scope's archive, so its repeat is the run that
  // gets cached; both go through a dispatch worker.
  ASSERT_TRUE(text.query(query).ok());
  ASSERT_TRUE(text.query(query).ok());
  EXPECT_EQ(stats_counter(text, "inline_answers"), 0u);
  const WireResponse text_hit = text.query(query);
  ASSERT_TRUE(text_hit.ok()) << text_hit.reason;
  EXPECT_EQ(stats_counter(text, "inline_answers"), 1u);
  EXPECT_EQ(text_hit.response_json,
            *service->submit_encoded(query, serve::WireEncoding::Json));

  DesignClient binary;
  binary.connect("127.0.0.1", server.port());
  ASSERT_TRUE(binary.negotiate_binary());
  // The entry has no binary bytes yet: a worker fills them, and the next
  // binary repeat is answered inline.
  ASSERT_TRUE(binary.query(query).ok());
  EXPECT_EQ(stats_counter(binary, "inline_answers"), 1u);
  const WireResponse binary_hit = binary.query(query);
  ASSERT_TRUE(binary_hit.ok()) << binary_hit.reason;
  EXPECT_EQ(stats_counter(binary, "inline_answers"), 2u);
  // The client decodes a binary body and re-serializes it canonically.
  EXPECT_EQ(binary_hit.response_json,
            serve::to_json(serve::decode_design_response(
                *service->submit_encoded(query, serve::WireEncoding::Binary))));
  EXPECT_EQ(binary_hit.response_json, text_hit.response_json);

  // Inline answers are served queries with a latency sample like any other.
  EXPECT_EQ(stats_counter(text, "queries_served"), 5u);
  EXPECT_EQ(stats_counter(text, "latency_samples"), 5u);
  server.shutdown();
}

TEST(DesignServer, ACachedRepeatPipelinedBehindAStoreAppendWaitsForIt) {
  if (cache_disabled_by_env()) GTEST_SKIP() << kNoCache;
  const std::string store_path = temp_store_path("net_inline_order.store");
  serve::ServiceConfig service_config;
  service_config.store_path = store_path;
  auto service = std::make_shared<serve::DesignService>(service_config);
  DesignServer server(service, loopback_config());
  server.start();
  DesignClient client;
  client.connect("127.0.0.1", server.port());

  const serve::DesignQuery repeat = tiny_query(5.0);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(client.query(repeat).ok());
  ASSERT_EQ(stats_counter(client, "inline_answers"), 1u);
  const std::size_t invalidations =
      service->stats().response_cache_invalidations;

  // A wider search on the same scope appends to the store. The cached
  // repeat pipelined right behind it must not be answered from the bytes
  // cached before the append: it runs after the search, finds its entry
  // stale, and answers afresh.
  serve::DesignQuery wider = repeat;
  wider.budget.initial_points_per_dim = 3;
  wider.budget.max_evaluations = 48;
  client.send_query("wider", wider);
  client.send_query("repeat", repeat);
  const WireResponse first = client.recv_response();
  const WireResponse second = client.recv_response();
  EXPECT_EQ(first.id, "wider");
  EXPECT_EQ(second.id, "repeat");
  ASSERT_TRUE(first.ok()) << first.reason;
  ASSERT_TRUE(second.ok()) << second.reason;
  EXPECT_EQ(service->stats().response_cache_invalidations, invalidations + 1);
  EXPECT_EQ(stats_counter(client, "inline_answers"), 1u);
  server.shutdown();
  EXPECT_EQ(second.response_json, serve::to_json(service->submit(repeat)));
  std::remove(store_path.c_str());
}

TEST(DesignServer, WithTheResponseCacheOffNothingIsAnsweredInline) {
  serve::ServiceConfig service_config;
  service_config.response_cache_capacity = 0;
  auto service = std::make_shared<serve::DesignService>(service_config);
  DesignServer server(service, loopback_config());
  server.start();
  DesignClient client;
  client.connect("127.0.0.1", server.port());
  std::string first;
  for (int i = 0; i < 3; ++i) {
    const WireResponse response = client.query(tiny_query(4.0));
    ASSERT_TRUE(response.ok()) << response.reason;
    if (i == 0) first = response.response_json;
    EXPECT_EQ(response.response_json, first);
  }
  EXPECT_EQ(stats_counter(client, "inline_answers"), 0u);
  EXPECT_EQ(stats_counter(client, "queries_served"), 3u);
  EXPECT_EQ(service->stats().response_cache_hits, 0u);
  server.shutdown();
}

TEST(DesignServer, MalformedQueryDocumentsKeepTheirErrorText) {
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  server.start();
  DesignClient client;
  client.connect("127.0.0.1", server.port());
  const std::pair<std::string, std::string> cases[] = {
      {R"({"id":"m1","kind":"query","query":"viterbi"})",
       R"(request: kind "query" requires a 'query' object member)"},
      {R"({"id":"m2","kind":"query","query":{"kind":"fpga"}})",
       R"(query: 'kind' must be "viterbi" or "iir")"},
      {R"({"id":"m3","kind":"query","query":{"kind":"viterbi","target_ber":"low"}})",
       R"(query: field 'target_ber' must be a number)"},
      {R"({"id":"m4","kind":"query","query":{"kind":"iir","budget":[]}})",
       R"(query: 'budget' must be an object)"},
      {R"({"id":"m5","kind":"query","query":{"kind":"viterbi","archive_only":1}})",
       R"(query: field 'archive_only' must be a boolean)"},
      {R"({"id":"m6","kind":"query","query":{"kind":"viterbi","constraints":{}}})",
       R"(query: 'constraints' must be an array)"},
      {R"({"id":"m7","kind":"query","query":{"kind":"viterbi","constraints":[3]}})",
       R"(query: each constraint must be an object)"},
      {R"({"id":"m8","kind":"query","query":{"kind":"viterbi","constraints":[{"kind":"side","metric":"ber","bound":1}]}})",
       R"(query: constraint 'kind' must be "upper" or "lower")"},
      {R"({"id":"m9","kind":"query","query":{"kind":"viterbi","constraints":[{"bound":1}]}})",
       R"(query: missing field "metric")"},
      {R"({"id":"m10","kind":"query","query":{"kind":"viterbi","constraints":[{"metric":"ber","bound":"1"}]}})",
       R"(query: field "bound" has the wrong type)"},
      {R"({"id":"m11","kind":"query","query":{"kind":"viterbi","minimize":7}})",
       R"(query: field 'minimize' must be a string)"},
  };
  for (const auto& [frame, message] : cases) {
    client.send_raw(frame);
    const WireResponse err = client.recv_response();
    EXPECT_EQ(err.status, "error") << frame;
    EXPECT_EQ(err.reason, message) << frame;
    EXPECT_EQ(err.id, frame.substr(7, frame.find('"', 7) - 7)) << frame;
  }
  EXPECT_EQ(stats_counter(client, "malformed_frames"),
            std::size(cases));
  server.shutdown();
}

// --- The I/O thread's query memo ------------------------------------------

/// The frame net::to_json(Request) writes for a query document `doc`.
std::string query_frame(const std::string& id, const std::string& doc) {
  return "{\"id\":\"" + id + "\",\"kind\":\"query\",\"query\":" + doc + "}";
}

TEST(QueryFrameSplit, SplitsTheLayoutClientsWrite) {
  Request request;
  request.id = "r17";
  request.query = tiny_query(2.0);
  const std::string frame = to_json(request);
  const std::optional<QueryFrameSplit> split = split_query_frame(frame);
  ASSERT_TRUE(split.has_value()) << frame;
  EXPECT_EQ(split->id, "r17");
  EXPECT_EQ(split->rest, serve::to_json(request.query));

  // A hand-written document is split the same way, byte for byte.
  // (The split views the frame, so every frame below outlives its split.)
  const std::string doc = R"({"kind":"viterbi","esn0_db":1.0,"budget":{}})";
  const std::string hand_frame = query_frame("7", doc);
  const auto hand = split_query_frame(hand_frame);
  ASSERT_TRUE(hand.has_value());
  EXPECT_EQ(hand->id, "7");
  EXPECT_EQ(hand->rest, doc);

  // Ids of one and kMaxRequestIdBytes bytes, any byte but '"' and '\'.
  for (const std::string& id :
       {std::string("a"), std::string(kMaxRequestIdBytes, 'x'),
        std::string("\x01 {}:,\t\x7f\xff")}) {
    const std::string id_frame = query_frame(id, doc);
    const auto ok = split_query_frame(id_frame);
    ASSERT_TRUE(ok.has_value()) << id;
    EXPECT_EQ(ok->id, id);
    EXPECT_EQ(ok->rest, doc);
  }
  // Members after the query stay in the rest: they are part of the bytes
  // the parse depends on.
  const std::string extra_frame = query_frame("e", doc + ",\"x\":1");
  const auto extra = split_query_frame(extra_frame);
  ASSERT_TRUE(extra.has_value());
  EXPECT_EQ(extra->rest, doc + ",\"x\":1");
  // The splitter does not judge the rest; an empty one is split too.
  const std::string empty_frame = query_frame("e", "");
  const auto empty = split_query_frame(empty_frame);
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->rest, "");
}

TEST(QueryFrameSplit, RejectsEveryOtherShape) {
  const std::string doc = serve::to_json(tiny_query());
  const std::string frames[] = {
      "",
      "{}",
      "{",
      "}",
      R"({"id":"a"})",
      R"({"id":"a","kind":"query","query":)",
      // The id: empty, too long, escaped, unterminated.
      query_frame("", doc),
      query_frame(std::string(kMaxRequestIdBytes + 1, 'x'), doc),
      query_frame("a\\\"b", doc),
      query_frame("a\\\\b", doc),
      query_frame("a\\u0062", doc),
      "{\"id\":\"" + std::string(2 * kMaxRequestIdBytes, 'x'),
      "{\"id\":\"abc",
      // Whitespace anywhere in the envelope, or after it.
      " " + query_frame("a", doc),
      query_frame("a", doc) + " ",
      query_frame("a", doc) + "\t",
      query_frame("a", doc) + "\r",
      "{ \"id\":\"a\",\"kind\":\"query\",\"query\":" + doc + "}",
      "{\"id\": \"a\",\"kind\":\"query\",\"query\":" + doc + "}",
      "{\"id\":\"a\" ,\"kind\":\"query\",\"query\":" + doc + "}",
      "{\"id\":\"a\",\"kind\":\"query\",\"query\" :" + doc + "}",
      // Other kinds, spellings, member orders and envelopes.
      R"({"id":"a","kind":"stats"})",
      R"({"id":"a","kind":"hello","wire":"binary"})",
      "{\"id\":\"a\",\"kind\":\"Query\",\"query\":" + doc + "}",
      "{\"id\":\"a\",\"kind\":\"stats\",\"query\":" + doc + "}",
      "{\"id\":\"a\",\"kind\":\"quer\\u0079\",\"query\":" + doc + "}",
      "{\"kind\":\"query\",\"id\":\"a\",\"query\":" + doc + "}",
      "{\"id\":\"a\",\"query\":" + doc + ",\"kind\":\"query\"}",
      "{\"ID\":\"a\",\"kind\":\"query\",\"query\":" + doc + "}",
      "{\"id\":1,\"kind\":\"query\",\"query\":" + doc + "}",
      "[\"id\",\"a\",\"kind\",\"query\",\"query\"," + doc + "]",
      // A frame that does not end with a brace. (One that lost only the
      // envelope's brace still ends with the document's: it is split, and
      // its rest never parses.)
      "{\"id\":\"a\",\"kind\":\"query\",\"query\":" + doc + "]",
      "{\"id\":\"a\",\"kind\":\"query\",\"query\":[" + doc + "]",
  };
  for (const std::string& frame : frames) {
    EXPECT_FALSE(split_query_frame(frame).has_value()) << frame;
  }
}

/// A bare text connection that reads replies as raw lines, for byte-exact
/// comparisons of whole reply frames.
class LineConnection {
 public:
  explicit LineConnection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    timeval timeout{60, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof(addr)) != 0) {
      if (fd_ >= 0) ::close(fd_);
      throw std::runtime_error("connect failed");
    }
  }
  ~LineConnection() { ::close(fd_); }
  LineConnection(const LineConnection&) = delete;
  LineConnection& operator=(const LineConnection&) = delete;

  /// Sends `frame` and returns the next reply line (without its newline).
  std::string roundtrip(const std::string& frame) {
    const std::string line = frame + "\n";
    if (::send(fd_, line.data(), line.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(line.size())) {
      throw std::runtime_error("send failed");
    }
    for (;;) {
      const std::size_t end = buffer_.find('\n');
      if (end != std::string::npos) {
        std::string reply = buffer_.substr(0, end);
        buffer_.erase(0, end + 1);
        return reply;
      }
      char buf[65536];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) throw std::runtime_error("no reply");
      buffer_.append(buf, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

// Seeded mutants of valid query frames, each sent twice to a server with
// the default response cache (and so the memo) and to one with the cache
// off, which parses every request: the two reply streams must be byte-
// identical, and the first server must have answered some from the memo.
TEST(DesignServer, QueryMemoRepliesMatchTheParseEveryRequestPath) {
  auto memo_service = std::make_shared<serve::DesignService>();
  serve::ServiceConfig cache_off;
  cache_off.response_cache_capacity = 0;
  auto plain_service = std::make_shared<serve::DesignService>(cache_off);
  DesignServer memo_server(memo_service, loopback_config());
  DesignServer plain_server(plain_service, loopback_config());
  memo_server.start();
  plain_server.start();
  LineConnection memo_conn(memo_server.port());
  LineConnection plain_conn(plain_server.port());

  // One searched scope and archive queries over it (cheap to answer, so
  // the run stays short), canonical and hand-written.
  const serve::DesignQuery search = tiny_query(3.0);
  std::vector<std::string> docs = {serve::to_json(search)};
  for (int k = 0; k < 3; ++k) {
    serve::DesignQuery archive = search;
    archive.archive_only = true;
    archive.constraints = {
        {search::Constraint::Kind::UpperBound, "ber", 0.02 + 0.005 * k},
        {search::Constraint::Kind::UpperBound, "area_mm2", 2.0 + k}};
    docs.push_back(serve::to_json(archive));
  }
  docs.push_back(
      R"({"kind":"viterbi","target_ber":0.01,"esn0_db":1.0,)"
      R"("throughput_mbps":3.0,"ber_shards":2,"budget":{)"
      R"("initial_points_per_dim":2,"max_resolution":0,"regions_per_level":1,)"
      R"("max_evaluations":16},"constraints":[{"kind":"upper","metric":"ber",)"
      R"("bound":0.03}],"archive_only":true})");
  const std::size_t archive_docs = docs.size() - 1;  // all but the search

  std::vector<std::string> memo_replies;
  std::vector<std::string> plain_replies;
  const auto send_twice = [&](const std::string& frame) {
    for (int i = 0; i < 2; ++i) {
      memo_replies.push_back(memo_conn.roundtrip(frame));
      plain_replies.push_back(plain_conn.roundtrip(frame));
    }
  };
  // The search first, so the archive queries have a front to answer from.
  for (std::size_t d = 0; d < docs.size(); ++d) {
    send_twice(query_frame("seed" + std::to_string(d), docs[d]));
  }

  util::CounterRng rng(0x9e3779b97f4a7c15ULL);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const std::string tails[] = {
      ",\"extra\":1",          ",\"id\":\"dup\"", ",\"id\":\"\"",
      ",\"kind\":\"stats\"",   ",\"kind\":\"hello\"",
      ",\"query\":{\"kind\":\"iir\"}", ",\"query\":7"};
  // Kind spellings other than the literal "query" (a stats reply carries
  // the counters that tell the two servers apart, so "stats" is left out).
  const std::string kinds[] = {"\"Query\"", "\"queryx\"", "\"hello\"",
                               "\"quer\\u0079\"", " \"query\"", "\"\""};
  for (int trial = 0; trial < 160; ++trial) {
    // Only archive documents are mutated inside (and only in their
    // numbers): a flipped member name could drop the budget and start a
    // full-size search.
    const std::size_t d = 1 + pick(archive_docs);
    const std::string& doc = docs[d];
    const std::string id = "m" + std::to_string(trial);
    std::string frame = query_frame(id, doc);
    switch (pick(9)) {
      case 0:  // a valid frame
        break;
      case 1: {  // a byte flip in the envelope
        const std::size_t envelope = frame.size() - doc.size();
        std::size_t at = pick(envelope);
        if (at == envelope - 1) at = frame.size() - 1;  // the final brace
        frame[at] = static_cast<char>(frame[at] ^ (1 << pick(8)));
        break;
      }
      case 2: {  // a byte flip in a number of the document
        std::vector<std::size_t> digits;
        const std::size_t from = frame.size() - doc.size() - 1;
        for (std::size_t i = from; i + 1 < frame.size(); ++i) {
          if (std::isdigit(static_cast<unsigned char>(frame[i]))) {
            digits.push_back(i);
          }
        }
        const std::size_t at = digits[pick(digits.size())];
        frame[at] = static_cast<char>(frame[at] ^ (1 << pick(8)));
        break;
      }
      case 3: {  // ids of 0, 1, 256 and 257 bytes
        const std::size_t lengths[] = {0, 1, kMaxRequestIdBytes,
                                       kMaxRequestIdBytes + 1};
        frame = query_frame(std::string(lengths[pick(4)], 'a' + pick(26)),
                            doc);
        break;
      }
      case 4:  // an id holding an escaped quote or backslash
        frame = query_frame(id + (pick(2) == 0 ? "\\\"" : "\\\\"), doc);
        break;
      case 5: {  // trailing whitespace
        const char* spaces[] = {" ", "\t", "  ", " \t "};
        frame += spaces[pick(4)];
        break;
      }
      case 6:  // extra or duplicate members after the query
        frame.insert(frame.size() - 1, tails[pick(std::size(tails))]);
        break;
      case 7: {  // kind variants
        const std::string literal = "\"kind\":\"query\"";
        frame.replace(frame.find(literal), literal.size(),
                      "\"kind\":" + kinds[pick(std::size(kinds))]);
        break;
      }
      case 8:  // a memoized document behind a new id
        frame = query_frame("n" + id, docs[pick(docs.size())]);
        break;
    }
    for (char& c : frame) {
      if (c == '\n') c = ' ';  // one frame per mutant
    }
    send_twice(frame);
  }

  ASSERT_EQ(memo_replies.size(), plain_replies.size());
  for (std::size_t i = 0; i < memo_replies.size(); ++i) {
    ASSERT_EQ(memo_replies[i], plain_replies[i]) << "reply " << i;
  }
  const ServerStats memo_stats = memo_server.stats();
  const ServerStats plain_stats = plain_server.stats();
  EXPECT_EQ(memo_stats.queries_received, plain_stats.queries_received);
  EXPECT_EQ(memo_stats.malformed_frames, plain_stats.malformed_frames);
  EXPECT_EQ(plain_stats.query_memo_hits, 0u);
  if (cache_disabled_by_env()) {
    EXPECT_EQ(memo_stats.query_memo_hits, 0u);
  } else {
    EXPECT_GT(memo_stats.query_memo_hits, 0u);
  }
  memo_server.shutdown();
  plain_server.shutdown();
}

/// Cheap distinct queries: archive probes over `n` distinct scopes.
std::vector<serve::DesignQuery> archive_probes(std::size_t n) {
  std::vector<serve::DesignQuery> probes;
  for (std::size_t i = 0; i < n; ++i) {
    serve::DesignQuery probe = tiny_query(1.0 + static_cast<double>(i));
    probe.archive_only = true;
    probes.push_back(probe);
  }
  return probes;
}

TEST(DesignServer, QueryMemoEvictsItsOldestEntryAtCapacity) {
  if (cache_disabled_by_env()) GTEST_SKIP() << kNoCache;
  serve::ServiceConfig service_config;
  service_config.response_cache_capacity = 4;
  auto service = std::make_shared<serve::DesignService>(service_config);
  DesignServer server(service, loopback_config());
  server.start();
  DesignClient client;
  client.connect("127.0.0.1", server.port());
  const std::vector<serve::DesignQuery> q = archive_probes(5);
  const auto hits = [&] { return server.stats().query_memo_hits; };

  for (const serve::DesignQuery& query : q) {
    ASSERT_TRUE(client.query(query).ok());
  }
  EXPECT_EQ(hits(), 0u);
  // q[0] was the oldest of five: evicted. Parsing it again memoizes it and
  // evicts q[1].
  ASSERT_TRUE(client.query(q[0]).ok());
  EXPECT_EQ(hits(), 0u);
  // What is held now is exactly four entries: q[2..4] and q[0].
  for (const std::size_t i : {2, 3, 4, 0}) {
    ASSERT_TRUE(client.query(q[i]).ok());
  }
  EXPECT_EQ(hits(), 4u);
  ASSERT_TRUE(client.query(q[1]).ok());
  EXPECT_EQ(hits(), 4u);
  EXPECT_EQ(server.stats().queries_received, 11u);
  server.shutdown();
}

// An entry may not hold much more than its canonical key: a frame padded
// past twice the key's length is answered as usual but never memoized.
TEST(DesignServer, QueryMemoSkipsPaddedFrames) {
  if (cache_disabled_by_env()) GTEST_SKIP() << kNoCache;
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  server.start();
  LineConnection conn(server.port());
  const std::string doc = serve::to_json(archive_probes(1).front());
  const std::string padded =
      query_frame("p", doc + std::string(2 * doc.size(), ' '));
  const std::string reply = conn.roundtrip(padded);
  EXPECT_NE(reply.find("\"status\":\"ok\""), std::string::npos) << reply;
  EXPECT_EQ(conn.roundtrip(padded), reply);
  EXPECT_EQ(server.stats().query_memo_hits, 0u);
  // The unpadded frame is memoized as usual.
  EXPECT_EQ(conn.roundtrip(query_frame("p", doc)), reply);
  EXPECT_EQ(conn.roundtrip(query_frame("p", doc)), reply);
  EXPECT_EQ(server.stats().query_memo_hits, 1u);
  server.shutdown();
}

TEST(DesignServer, AMemoHitPipelinedBehindAStoreAppendKeepsArrivalOrder) {
  if (cache_disabled_by_env()) GTEST_SKIP() << kNoCache;
  const std::string store_path = temp_store_path("net_memo_order.store");
  serve::ServiceConfig service_config;
  service_config.store_path = store_path;
  auto service = std::make_shared<serve::DesignService>(service_config);
  DesignServer server(service, loopback_config());
  server.start();
  DesignClient client;
  client.connect("127.0.0.1", server.port());

  // Three rounds cache the repeat's answer; the frame bytes after the id
  // are memoized from the first.
  const serve::DesignQuery repeat = tiny_query(6.5);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(client.query(repeat).ok());
  ASSERT_EQ(server.stats().query_memo_hits, 2u);

  // A wider search on scope S appends to the store; the memo-hit repeat
  // pipelined behind it must wait for it and answer afresh.
  serve::DesignQuery wider = repeat;
  wider.budget.initial_points_per_dim = 3;
  wider.budget.max_evaluations = 48;
  client.send_query("wider", wider);
  client.send_query("repeat", repeat);
  const WireResponse first = client.recv_response();
  const WireResponse second = client.recv_response();
  EXPECT_EQ(first.id, "wider");
  EXPECT_EQ(second.id, "repeat");
  ASSERT_TRUE(first.ok()) << first.reason;
  ASSERT_TRUE(second.ok()) << second.reason;
  EXPECT_EQ(server.stats().query_memo_hits, 3u);
  EXPECT_EQ(second.response_json,
            *service->submit_encoded(repeat, serve::WireEncoding::Json));
  server.shutdown();
  std::remove(store_path.c_str());
}

TEST(DesignServer, StatsAndHelloFramesNeverTouchTheQueryMemo) {
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  server.start();
  LineConnection conn(server.port());
  const std::string hello = R"({"id":"h","kind":"hello","wire":"text"})";
  const std::string stats = R"({"id":"s","kind":"stats"})";
  for (int i = 0; i < 3; ++i) {
    EXPECT_NE(conn.roundtrip(stats).find("\"status\":\"ok\""),
              std::string::npos);
  }
  // A hello after requests is an error however often it is repeated.
  for (int i = 0; i < 2; ++i) {
    EXPECT_NE(conn.roundtrip(hello).find("hello must precede"),
              std::string::npos);
  }
  const ServerStats after = server.stats();
  EXPECT_EQ(after.query_memo_hits, 0u);
  EXPECT_EQ(after.stats_requests, 3u);
  EXPECT_EQ(after.hello_requests, 2u);
  EXPECT_EQ(after.queries_received, 0u);
  server.shutdown();
}

TEST(DesignServer, AMemoHitQueryStillMakesALaterHelloAnError) {
  if (cache_disabled_by_env()) GTEST_SKIP() << kNoCache;
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  server.start();
  const std::string frame =
      query_frame("q", serve::to_json(archive_probes(1).front()));
  const std::string hello = R"({"id":"h","kind":"hello","wire":"text"})";
  {
    LineConnection first(server.port());
    EXPECT_NE(first.roundtrip(frame).find("\"status\":\"ok\""),
              std::string::npos);
  }
  // On a new connection the query is a memo hit, and it still counts as
  // the connection's first request.
  LineConnection second(server.port());
  EXPECT_NE(second.roundtrip(frame).find("\"status\":\"ok\""),
            std::string::npos);
  EXPECT_EQ(server.stats().query_memo_hits, 1u);
  EXPECT_EQ(second.roundtrip(hello),
            R"({"id":"h","status":"error","error":)"
            R"("hello must precede every query on the connection"})");
  // A hello first is still granted its reply.
  LineConnection third(server.port());
  EXPECT_EQ(third.roundtrip(hello),
            R"({"id":"h","status":"ok","wire":"text"})");
  server.shutdown();
}

TEST(DesignServer, MalformedRequestsAroundAMemoizedQueryKeepTheirErrorText) {
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  server.start();
  LineConnection conn(server.port());
  const std::string doc = serve::to_json(archive_probes(1).front());
  ASSERT_NE(conn.roundtrip(query_frame("ok", doc)).find("\"status\":\"ok\""),
            std::string::npos);
  const std::string long_id(kMaxRequestIdBytes + 1, 'z');
  const std::pair<std::string, std::string> cases[] = {
      // The memoized bytes behind ids the request grammar refuses.
      {query_frame("", doc),
       R"({"id":"","status":"error","error":"request: 'id' must be a non-empty string"})"},
      {query_frame(long_id, doc),
       R"({"id":"","status":"error","error":"request: 'id' exceeds 256 bytes"})"},
      // Bytes that never parsed are never memoized: the same error twice.
      {query_frame("m1", "\"viterbi\""),
       R"({"id":"m1","status":"error","error":"request: kind \"query\" requires a 'query' object member"})"},
      {query_frame("m2", R"({"kind":"fpga"})"),
       R"({"id":"m2","status":"error","error":"query: 'kind' must be \"viterbi\" or \"iir\""})"},
      {query_frame("m3", doc + "}"),
       R"({"id":"","status":"error","error":"request: parse error at byte )" +
           std::to_string(query_frame("m3", doc).size()) +
           R"(: trailing content after document"})"},
  };
  for (const auto& [frame, reply] : cases) {
    EXPECT_EQ(conn.roundtrip(frame), reply) << frame;
    EXPECT_EQ(conn.roundtrip(frame), reply) << frame;
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.malformed_frames, 2 * std::size(cases));
  EXPECT_EQ(stats.query_memo_hits, 0u);
  server.shutdown();
}

TEST(DesignClientRetry, BackoffScheduleIsDeterministicCappedAndDepthScaled) {
  RetryPolicy policy;
  policy.base_ms = 10.0;
  policy.cap_ms = 500.0;
  policy.depth_weight = 0.1;
  policy.jitter_key = 42;

  // Pure function: the same (attempt, depth, counter) replays exactly.
  EXPECT_EQ(retry_backoff_ms(policy, 0, 0, 0),
            retry_backoff_ms(policy, 0, 0, 0));
  // Half-jitter bounds: exp/2 <= backoff < exp.
  for (std::size_t attempt = 0; attempt < 12; ++attempt) {
    const double exp_ms =
        std::min(policy.cap_ms, policy.base_ms * std::pow(2.0, attempt));
    const double ms = retry_backoff_ms(policy, attempt, 0, attempt);
    EXPECT_GE(ms, exp_ms / 2.0) << attempt;
    EXPECT_LT(ms, exp_ms) << attempt;
  }
  // The queue-depth hint scales the wait: a deeply backed-up server earns
  // a longer backoff at the same attempt/counter.
  EXPECT_GT(retry_backoff_ms(policy, 0, 100, 7),
            retry_backoff_ms(policy, 0, 0, 7));
  // The cap is a real cap even with a huge depth hint.
  EXPECT_LT(retry_backoff_ms(policy, 20, 100000, 3), policy.cap_ms);
  // Distinct jitter keys desynchronize two otherwise-identical clients.
  RetryPolicy other = policy;
  other.jitter_key = 43;
  EXPECT_NE(retry_backoff_ms(policy, 2, 0, 5),
            retry_backoff_ms(other, 2, 0, 5));
}

TEST(DesignClientRetry, RetriesOverloadedRejectionsUntilAdmitted) {
  ServerConfig config = loopback_config();
  config.max_pending_queries = 1;
  config.search_workers = 1;
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, config);
  server.start();

  DesignClient busy;
  busy.connect("127.0.0.1", server.port());
  busy.send_query("slow", slow_query());
  ASSERT_TRUE(wait_until([&] { return server.stats().in_flight >= 1; }));
  busy.send_query("fill", tiny_query(2.0));  // occupies the 1-slot queue
  ASSERT_TRUE(wait_until([&] { return server.stats().queue_depth >= 1; }));

  // The retrying client is rejected at first (queue full behind the slow
  // search) and then admitted once the backlog drains — the caller sees
  // one ok response, never a rejection.
  DesignClient patient;
  patient.connect("127.0.0.1", server.port());
  RetryPolicy policy;
  policy.max_retries = 400;
  policy.base_ms = 5.0;
  policy.cap_ms = 50.0;
  policy.jitter_key = 7;
  patient.set_retry_policy(policy);
  const WireResponse response = patient.query(tiny_query(3.0));
  ASSERT_TRUE(response.ok()) << response.status << ": " << response.reason;
  const ClientStats& stats = patient.client_stats();
  EXPECT_GE(stats.overloaded_rejections, 1u);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_EQ(stats.gave_up, 0u);
  EXPECT_GT(stats.backoff_ms_total, 0.0);
  EXPECT_EQ(stats.queries_sent, stats.retries + 1);

  EXPECT_TRUE(busy.recv_matching("slow").ok());
  EXPECT_TRUE(busy.recv_matching("fill").ok());
  server.shutdown();
}

TEST(ServerConfigEnv, ParsesWorkerCount) {
  ::setenv("METACORE_SERVER_WORKERS", "4", 1);
  EXPECT_EQ(ServerConfig::from_env().search_workers, 4u);
  ::setenv("METACORE_SERVER_WORKERS", "0", 1);
  EXPECT_THROW(ServerConfig::from_env(), std::invalid_argument);
  ::setenv("METACORE_SERVER_WORKERS", "xyz", 1);
  EXPECT_THROW(ServerConfig::from_env(), std::invalid_argument);
  ::setenv("METACORE_SERVER_WORKERS", "999", 1);
  EXPECT_THROW(ServerConfig::from_env(), std::invalid_argument);
  ::unsetenv("METACORE_SERVER_WORKERS");
  EXPECT_EQ(ServerConfig::from_env().search_workers, 0u);  // auto
}

TEST(DesignServer, OverloadReturnsStructuredRejections) {
  ServerConfig config = loopback_config();
  config.max_pending_queries = 1;  // tiny admission quota
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, config);
  server.start();

  DesignClient busy;
  busy.connect("127.0.0.1", server.port());
  busy.send_query("slow", slow_query());
  // Wait until the dispatcher is actually inside submit_batch, so the
  // queue stays occupied by whatever we send next.
  ASSERT_TRUE(wait_until([&] { return server.stats().in_flight >= 1; }));

  DesignClient client;
  client.connect("127.0.0.1", server.port());
  client.send_query("fill", tiny_query(2.0));  // occupies the 1-slot queue
  for (int i = 0; i < 6; ++i) {
    client.send_query("burst" + std::to_string(i), tiny_query(3.0));
  }

  std::size_t rejected = 0;
  std::size_t ok = 0;
  for (int i = 0; i < 7; ++i) {
    const WireResponse response = client.recv_response();
    if (response.rejected()) {
      EXPECT_EQ(response.reason, "overloaded");
      ++rejected;
    } else {
      ASSERT_TRUE(response.ok()) << response.reason;
      ++ok;
    }
  }
  EXPECT_GE(rejected, 1u);
  EXPECT_GE(ok, 1u);
  EXPECT_EQ(rejected + ok, 7u);
  // The slow query itself completes normally.
  EXPECT_TRUE(busy.recv_matching("slow").ok());
  EXPECT_GE(server.stats().queries_rejected, rejected);
  server.shutdown();
}

TEST(DesignServer, ConnectionsOverTheCapAreRefusedAndCounted) {
  ServerConfig config = loopback_config();
  config.max_connections = 1;
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, config);
  server.start();

  DesignClient client;
  client.connect("127.0.0.1", server.port());
  ASSERT_TRUE(
      wait_until([&] { return server.stats().accepted_connections == 1; }));

  // The kernel completes the second handshake; the server then accepts the
  // socket and closes it at once, so the peer reads end-of-stream.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  timeval timeout{};
  timeout.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
  ASSERT_TRUE(
      wait_until([&] { return server.stats().refused_connections == 1; }));

  // The admitted connection still works and its stats reply carries the
  // refusal.
  const WireResponse response = client.stats();
  ASSERT_TRUE(response.ok()) << response.reason;
  EXPECT_NE(response.stats_json.find("\"refused_connections\":1"),
            std::string::npos)
      << response.stats_json;
  EXPECT_EQ(server.stats().accepted_connections, 1u);
  server.shutdown();
}

// A client that pipelines requests but never reads its responses: the
// server must stop reading it once its outbox reaches the cap, instead of
// queueing every response in memory, and must answer every request once
// the client does read.
TEST(DesignServer, OutboxStaysBoundedForAClientThatNeverReads) {
  ServerConfig config = loopback_config();
  config.max_frame_bytes = 512;
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, config);
  server.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  // A small receive buffer: the kernel absorbs little of what the server
  // writes, so unread responses pile up on the server side.
  const int small = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);

  // Each ~30-byte stats request is answered with a ~1 KB document: 20000
  // of them are ~20 MB of responses, far beyond the kernel buffers.
  constexpr std::size_t kRequests = 20000;
  const std::string request = "{\"id\":\"s\",\"kind\":\"stats\"}\n";
  std::string burst;
  for (std::size_t i = 0; i < kRequests; ++i) burst += request;
  std::size_t sent = 0;
  auto last_progress = std::chrono::steady_clock::now();
  while (sent < burst.size() &&
         std::chrono::steady_clock::now() - last_progress < 500ms) {
    const ssize_t n =
        ::send(fd, burst.data() + sent, burst.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      last_progress = std::chrono::steady_clock::now();
    } else {
      std::this_thread::sleep_for(1ms);
    }
  }
  // A request cut short by a full socket is never completed, so it is
  // never answered either.
  const std::size_t requests_sent = sent / request.size();

  // Let the I/O thread settle (no request handled for 200 ms), then check
  // the bound: the cap, plus the one response that crossed it.
  std::size_t handled = server.stats().stats_requests;
  for (int i = 0; i < 300; ++i) {
    std::this_thread::sleep_for(200ms);
    const std::size_t now = server.stats().stats_requests;
    if (now == handled) break;
    handled = now;
  }
  const std::size_t bound = kOutboxCapFrames * config.max_frame_bytes + 16384;
  EXPECT_LE(server.stats().outbox_bytes, bound);
  EXPECT_LT(server.stats().stats_requests, requests_sent);
  EXPECT_GE(server.stats().backpressure_pauses, 1u);

  // Now read: every request sent is answered, so the server resumed from
  // the frames it had buffered.
  std::size_t answered = 0;
  char buf[65536];
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (answered < requests_sent &&
         std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      answered += static_cast<std::size_t>(
          std::count(buf, buf + n, '\n'));
    } else if (n == 0) {
      break;
    } else {
      std::this_thread::sleep_for(1ms);
    }
  }
  EXPECT_EQ(answered, requests_sent);
  EXPECT_EQ(server.stats().stats_requests, requests_sent);
  ::close(fd);
  server.shutdown();
  EXPECT_EQ(server.stats().outbox_bytes, 0u);
}

// Only connections turned away at the cap count as refused: admitted ones
// that come and go, up to the cap, never do.
TEST(DesignServer, ConnectionsUnderTheCapAreNotCountedAsRefused) {
  ServerConfig config = loopback_config();
  config.max_connections = 2;
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, config);
  server.start();

  DesignClient steady;
  steady.connect("127.0.0.1", server.port());
  for (std::size_t round = 1; round <= 3; ++round) {
    DesignClient passing;
    passing.connect("127.0.0.1", server.port());
    const WireResponse response = passing.stats();
    ASSERT_TRUE(response.ok()) << response.reason;
    EXPECT_NE(response.stats_json.find("\"refused_connections\":0"),
              std::string::npos)
        << response.stats_json;
    passing.close();
    // Wait for the server to see the close, so the next connection is
    // under the cap again.
    ASSERT_TRUE(wait_until([&] {
      return server.stats().active_connections == 1 &&
             server.stats().accepted_connections == round + 1;
    }));
  }
  const WireResponse response = steady.stats();
  ASSERT_TRUE(response.ok()) << response.reason;
  EXPECT_EQ(server.stats().refused_connections, 0u);
  EXPECT_EQ(server.stats().accepted_connections, 4u);
  server.shutdown();
}

/// Lowers this process's soft RLIMIT_NOFILE and puts the old limit back on
/// every exit from the scope.
class ScopedFdLimit {
 public:
  explicit ScopedFdLimit(rlim_t soft) {
    if (::getrlimit(RLIMIT_NOFILE, &saved_) != 0) return;
    rlimit lowered = saved_;
    lowered.rlim_cur = std::min(soft, saved_.rlim_cur);
    lowered_ = ::setrlimit(RLIMIT_NOFILE, &lowered) == 0;
  }
  ~ScopedFdLimit() {
    if (lowered_) ::setrlimit(RLIMIT_NOFILE, &saved_);
  }
  ScopedFdLimit(const ScopedFdLimit&) = delete;
  ScopedFdLimit& operator=(const ScopedFdLimit&) = delete;
  bool lowered() const { return lowered_; }

 private:
  rlimit saved_{};
  bool lowered_ = false;
};

/// Descriptors closed on every exit from the scope.
struct ScopedFds {
  std::vector<int> fds;
  ~ScopedFds() {
    for (const int fd : fds) ::close(fd);
  }
};

/// The highest descriptor number this process has open.
int highest_open_fd() {
  int highest = 2;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    highest = std::max(highest, std::stoi(entry.path().filename().string()));
  }
  return highest;
}

// Out of file descriptors, the server sheds a pending connection instead
// of spinning on its readable listener: the client reads end-of-stream
// within 2 s, the shed is counted in ServerStats and the stats reply, and
// connections made before keep being served.
TEST(DesignServer, FdExhaustionShedsPendingConnectionsAndCountsThem) {
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  server.start();
  DesignClient steady;
  steady.connect("127.0.0.1", server.port());
  ASSERT_TRUE(
      wait_until([&] { return server.stats().accepted_connections == 1; }));

  ssize_t got = -1;
  {
    ScopedFdLimit limit(static_cast<rlim_t>(highest_open_fd()) + 1 + 8);
    ASSERT_TRUE(limit.lowered());
    // Take every descriptor left under the limit, then give one back for
    // the client socket: the server has none left to accept it with.
    ScopedFds filler;
    for (int fd; (fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC)) >= 0;) {
      filler.fds.push_back(fd);
    }
    ASSERT_EQ(errno, EMFILE);
    ASSERT_FALSE(filler.fds.empty());
    ::close(filler.fds.back());
    filler.fds.pop_back();

    ScopedFds client;
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    client.fds.push_back(fd);
    timeval timeout{};
    timeout.tv_sec = 2;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    char byte = 0;
    got = ::recv(fd, &byte, 1, 0);
  }
  EXPECT_EQ(got, 0) << "no end-of-stream within 2 s while out of fds";
  ASSERT_TRUE(
      wait_until([&] { return server.stats().shed_connections >= 1; }, 5s));

  const WireResponse response = steady.stats();
  ASSERT_TRUE(response.ok()) << response.reason;
  const std::string key = "\"shed_connections\":";
  const std::size_t at = response.stats_json.find(key);
  ASSERT_NE(at, std::string::npos) << response.stats_json;
  EXPECT_GE(std::stoul(response.stats_json.substr(at + key.size())), 1u)
      << response.stats_json;
  EXPECT_EQ(server.stats().accepted_connections, 1u);
  server.shutdown();
}

TEST(DesignServer, GracefulDrainFinishesInFlightAndFlushesTheStore) {
  const std::string store_path = temp_store_path("net_drain.store");
  serve::ServiceConfig service_config;
  service_config.store_path = store_path;
  auto service = std::make_shared<serve::DesignService>(service_config);
  DesignServer server(service, loopback_config());
  server.start();

  DesignClient client;
  client.connect("127.0.0.1", server.port());
  std::vector<std::string> ids;
  for (const double mbps : {1.0, 2.0, 3.0, 4.0}) {
    const std::string id = "d" + std::to_string(static_cast<int>(mbps));
    client.send_query(id, tiny_query(mbps));
    ids.push_back(id);
  }
  // Wait until all four frames cleared admission (queries_received counts
  // decoded query frames, and nothing rejects before the drain begins) —
  // otherwise shutdown() could race the client's sends and legitimately
  // answer a late frame with a `draining` rejection.
  ASSERT_TRUE(wait_until([&] {
    const ServerStats stats = server.stats();
    return stats.queries_received >= ids.size();
  }));
  ASSERT_EQ(server.stats().queries_rejected, 0u);

  // Drain while the batch is mid-flight: every admitted query must still
  // be answered before the server closes the connection. The join guard
  // keeps an unexpected client-side throw from terminating the process
  // with the drainer still joinable.
  struct JoinGuard {
    std::thread thread;
    ~JoinGuard() {
      if (thread.joinable()) thread.join();
    }
  } drainer{std::thread([&] { server.shutdown(); })};
  for (const std::string& id : ids) {
    const WireResponse response = client.recv_matching(id);
    EXPECT_TRUE(response.ok()) << response.reason;
  }
  EXPECT_THROW(client.recv_response(), std::runtime_error);  // clean EOF
  drainer.thread.join();
  EXPECT_FALSE(server.running());

  // New connections are refused after drain.
  DesignClient late;
  EXPECT_THROW(late.connect("127.0.0.1", server.port(), 2000),
               std::runtime_error);

  // The journaled evaluations survived the drain: a fresh store replays
  // them.
  serve::EvaluationStore reopened(store_path);
  EXPECT_GT(reopened.size(), 0u);
  std::remove(store_path.c_str());
}

TEST(DesignServer, ClientVanishingMidQueryDoesNotKillTheServer) {
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  server.start();

  {
    DesignClient doomed;
    doomed.connect("127.0.0.1", server.port());
    doomed.send_query("gone", slow_query());
    ASSERT_TRUE(wait_until([&] { return server.stats().in_flight >= 1; }));
    doomed.close();  // vanish while the query is executing
  }

  // The query still completes (and would have fed the store); only the
  // delivery is counted as dropped — and the server keeps serving.
  ASSERT_TRUE(
      wait_until([&] { return server.stats().dropped_responses >= 1; }));
  DesignClient client;
  client.connect("127.0.0.1", server.port());
  const WireResponse response = client.query(tiny_query());
  EXPECT_TRUE(response.ok()) << response.reason;
  server.shutdown();
  EXPECT_GE(server.stats().dropped_responses, 1u);
}

}  // namespace
}  // namespace metacore::net
