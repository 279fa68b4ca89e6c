// The MCB1 binary wire mode, bottom to top: bincode primitive round trips,
// lossless query/response codec round trips pinned against the canonical
// JSON writers, binary envelope round trips, the BinaryFrameDecoder state
// machine (split feeds, keep-alive padding, an exhaustive flip-every-byte
// corruption fuzz with resynchronization), the hello negotiation/downgrade
// matrix against a live server, a live-connection corruption fuzz (one
// error per damaged frame, connection survives), byte-identity of a binary
// answer against an in-process submit, and the explicit ClientStats
// lifetime (reset on reconnect).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "serve/binary_codec.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

namespace metacore::net {
namespace {

using namespace std::chrono_literals;
namespace bc = serve::bincode;

/// Cheap Viterbi query (loose BER target, tiny budget) — seconds of CPU at
/// most, milliseconds when replayed from a warm archive.
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

ServerConfig loopback_config() {
  ServerConfig config;
  config.bind_address = "127.0.0.1";
  config.port = 0;  // ephemeral
  return config;
}

// --- bincode primitives --------------------------------------------------

TEST(Bincode, VarintRoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  300,
                                  16383,
                                  16384,
                                  (1ull << 32) - 1,
                                  1ull << 32,
                                  (1ull << 63),
                                  std::numeric_limits<std::uint64_t>::max()};
  std::string out;
  for (const std::uint64_t v : values) bc::put_varint(out, v);
  bc::Reader reader{out, "test"};
  for (const std::uint64_t v : values) EXPECT_EQ(reader.varint(), v);
  EXPECT_TRUE(reader.done());
}

TEST(Bincode, ZigzagRoundTripsSignedExtremes) {
  const std::int64_t values[] = {0,
                                 -1,
                                 1,
                                 -2,
                                 63,
                                 -64,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  std::string out;
  for (const std::int64_t v : values) bc::put_zigzag(out, v);
  bc::Reader reader{out, "test"};
  for (const std::int64_t v : values) EXPECT_EQ(reader.zigzag(), v);
  EXPECT_TRUE(reader.done());
}

TEST(Bincode, F64IsBitExact) {
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           0.1,
                           1e-300,
                           -1e308,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()};
  std::string out;
  for (const double v : values) bc::put_f64(out, v);
  // Packed: a count byte plus only the non-zero tail of the bit image —
  // never more than 9 bytes, and the common quantized values stay tiny.
  ASSERT_LE(out.size(), 9 * std::size(values));
  bc::Reader reader{out, "test"};
  for (const double v : values) {
    const double got = reader.f64();
    std::uint64_t want_bits = 0, got_bits = 0;
    std::memcpy(&want_bits, &v, 8);
    std::memcpy(&got_bits, &got, 8);
    EXPECT_EQ(got_bits, want_bits);  // bit-exact, signed zero and NaN included
  }
  EXPECT_TRUE(reader.done());

  std::string small;
  bc::put_f64(small, 0.0);   // all-zero image: just the count byte
  bc::put_f64(small, 0.5);   // zero mantissa tail: count + 2 bytes
  EXPECT_EQ(small.size(), 1u + 3u);

  std::string bad;
  bc::put_u8(bad, 9);  // a count byte can never exceed 8
  bc::Reader bad_reader{bad, "test"};
  EXPECT_THROW(bad_reader.f64(), std::runtime_error);
}

TEST(Bincode, StringsRoundTripAndTruncationThrows) {
  std::string out;
  bc::put_string(out, "");
  bc::put_string(out, std::string("nul\0byte", 8));
  bc::Reader reader{out, "test"};
  EXPECT_EQ(reader.string(), "");
  EXPECT_EQ(reader.string(), std::string("nul\0byte", 8));
  EXPECT_TRUE(reader.done());

  // A length prefix pointing past the buffer must throw, not over-read.
  std::string bad;
  bc::put_varint(bad, 100);
  bad += "short";
  bc::Reader broken{bad, "test"};
  EXPECT_THROW(broken.string(), std::runtime_error);

  bc::Reader empty{std::string_view{}, "test"};
  EXPECT_THROW(empty.u8(), std::runtime_error);
  EXPECT_THROW(empty.varint(), std::runtime_error);
  EXPECT_THROW(empty.f64(), std::runtime_error);
}

// --- query/response document codecs --------------------------------------

std::vector<serve::DesignQuery> every_query_kind() {
  std::vector<serve::DesignQuery> queries;
  queries.push_back(tiny_query());  // plain Viterbi

  serve::DesignQuery rich = tiny_query(3.5);  // every optional field set
  rich.ber_lanes = 4;
  rich.minimize = "energy_nj";
  search::Constraint upper;
  upper.kind = search::Constraint::Kind::UpperBound;
  upper.metric = "area_mm2";
  upper.bound = 12.5;
  search::Constraint lower;
  lower.kind = search::Constraint::Kind::LowerBound;
  lower.metric = "throughput_mbps";
  lower.bound = 0.25;
  rich.constraints = {upper, lower};
  queries.push_back(rich);

  serve::DesignQuery iir;  // IIR scope
  iir.kind = serve::QueryKind::Iir;
  iir.sample_period_us = 2.0;
  iir.budget.max_evaluations = 32;
  queries.push_back(iir);

  serve::DesignQuery archive = tiny_query();  // archive probe
  archive.archive_only = true;
  queries.push_back(archive);
  return queries;
}

TEST(BinaryCodec, QueryRoundTripsEveryKindLosslessly) {
  for (const serve::DesignQuery& query : every_query_kind()) {
    const std::string bytes = serve::encode_binary(query);
    const serve::DesignQuery decoded = serve::decode_design_query(bytes);
    // decode(encode(x)) == x, pinned through the canonical JSON writer.
    EXPECT_EQ(serve::to_json(decoded), serve::to_json(query));
    // The encoding is canonical: re-encoding the decoded struct reproduces
    // the bytes exactly.
    EXPECT_EQ(serve::encode_binary(decoded), bytes);
  }
}

TEST(BinaryCodec, QueryDecodeRejectsBadVersionAndTrailingBytes) {
  std::string bytes = serve::encode_binary(tiny_query());
  std::string wrong_version = bytes;
  wrong_version[0] = static_cast<char>(serve::kBinaryCodecVersion + 1);
  EXPECT_THROW(serve::decode_design_query(wrong_version), std::runtime_error);
  EXPECT_THROW(serve::decode_design_query(bytes + "x"), std::runtime_error);
  EXPECT_THROW(serve::decode_design_query(bytes.substr(0, bytes.size() - 1)),
               std::runtime_error);
  EXPECT_THROW(serve::decode_design_query(std::string_view{}),
               std::runtime_error);
}

TEST(BinaryCodec, ResponseRoundTripsARealSearchAnswer) {
  // A genuine search response (front points, metrics, summary text) and a
  // genuine archive answer both survive encode/decode byte-exactly.
  serve::DesignService service;
  const serve::DesignQuery query = tiny_query();
  const serve::DesignResponse searched = service.submit(query);
  serve::DesignQuery probe = query;
  probe.archive_only = true;
  const serve::DesignResponse archived = service.submit(probe);

  for (const serve::DesignResponse* response : {&searched, &archived}) {
    const std::string bytes = serve::encode_binary(*response);
    const serve::DesignResponse decoded = serve::decode_design_response(bytes);
    EXPECT_EQ(serve::to_json(decoded), serve::to_json(*response));
    EXPECT_EQ(serve::encode_binary(decoded), bytes);
  }

  // The binary form is what the wire-byte win is made of: strictly smaller
  // than the canonical JSON for a real answer.
  EXPECT_LT(serve::encode_binary(searched).size(),
            serve::to_json(searched).size());
}

/// A hand-built MCB1 response whose best point carries the metrics
/// (table index, value) in the given order; table entry 0 is "".
std::string response_with_metrics(
    const std::vector<std::string>& names,
    const std::vector<std::pair<std::size_t, double>>& metrics) {
  std::string out;
  bc::put_u8(out, serve::kBinaryCodecVersion);
  bc::put_varint(out, names.size() + 1);
  bc::put_string(out, "");
  for (const std::string& name : names) bc::put_string(out, name);
  bc::put_u8(out, 1);                                  // flags: feasible
  for (int i = 0; i < 4; ++i) bc::put_varint(out, 0);  // counters
  bc::put_string(out, "area_mm2");
  bc::put_string(out, "ber");
  bc::put_varint(out, 1);  // indices
  bc::put_zigzag(out, 3);
  bc::put_varint(out, 1);  // values
  bc::put_f64(out, 0.5);
  bc::put_zigzag(out, 0);  // fidelity
  bc::put_u8(out, 1);      // feasible
  bc::put_f64(out, 1.0);   // confidence weight
  bc::put_varint(out, 0);  // failure reason ""
  bc::put_varint(out, metrics.size());
  for (const auto& [index, value] : metrics) {
    bc::put_varint(out, index);
    bc::put_f64(out, value);
  }
  bc::put_varint(out, 0);  // front
  bc::put_string(out, "");
  return out;
}

TEST(BinaryCodec, DecodesAHundredThousandShuffledMetricNamesQuickly) {
  // Names arrive in hostile (shuffled) order: building the sorted record
  // must not insert one at a time, which is quadratic (minutes here). An
  // optimized build decodes in well under 0.1 s; sanitizer builds run it
  // 10-40x slower, so their cap is scaled to match.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  constexpr auto kCap = 20s;
#else
  constexpr auto kCap = 2s;
#endif
  constexpr std::size_t kMetrics = 100'000;
  std::vector<std::string> names(kMetrics);
  for (std::size_t i = 0; i < kMetrics; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "m%06zu", i);
    names[i] = buf;
  }
  std::vector<std::pair<std::size_t, double>> metrics;
  for (std::size_t i = 0; i < kMetrics; ++i) {
    metrics.emplace_back(i + 1, static_cast<double>(i));
  }
  util::CounterRng rng(42);
  for (std::size_t i = kMetrics - 1; i > 0; --i) {
    std::swap(metrics[i], metrics[rng() % (i + 1)]);
  }
  const std::string bytes = response_with_metrics(names, metrics);

  const auto start = std::chrono::steady_clock::now();
  const serve::DesignResponse decoded = serve::decode_design_response(bytes);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, kCap);

  ASSERT_EQ(decoded.best.eval.metrics.size(), kMetrics);
  std::size_t i = 0;
  for (const auto& [name, value] : decoded.best.eval.metrics) {
    ASSERT_EQ(name, names[i]);
    ASSERT_EQ(value, static_cast<double>(i));
    ++i;
  }
}

TEST(BinaryCodec, RepeatedMetricNameKeepsItsFirstValue) {
  const std::vector<std::string> names = {"b", "a"};
  const serve::DesignResponse decoded = serve::decode_design_response(
      response_with_metrics(names, {{1, 1.0}, {2, 2.0}, {1, 3.0}, {2, 4.0}}));
  const search::MetricMap want = {{"a", 2.0}, {"b", 1.0}};
  EXPECT_EQ(decoded.best.eval.metrics, want);
}

// --- binary envelopes -----------------------------------------------------

TEST(BinaryEnvelope, RequestRoundTripsQueryAndStats) {
  Request query_request;
  query_request.id = "req-1";
  query_request.kind = RequestKind::Query;
  query_request.query = every_query_kind()[1];
  const Request decoded_query =
      decode_binary_request(encode_binary_request(query_request));
  EXPECT_EQ(decoded_query.id, "req-1");
  EXPECT_EQ(decoded_query.kind, RequestKind::Query);
  EXPECT_EQ(serve::to_json(decoded_query.query),
            serve::to_json(query_request.query));

  Request stats_request;
  stats_request.id = "req-2";
  stats_request.kind = RequestKind::Stats;
  const Request decoded_stats =
      decode_binary_request(encode_binary_request(stats_request));
  EXPECT_EQ(decoded_stats.id, "req-2");
  EXPECT_EQ(decoded_stats.kind, RequestKind::Stats);

  // Hello is text-only by design: it happens before the mode switch.
  Request hello;
  hello.id = "req-3";
  hello.kind = RequestKind::Hello;
  hello.wire = "binary";
  EXPECT_THROW(encode_binary_request(hello), std::logic_error);
}

TEST(BinaryEnvelope, RequestDecodeValidatesIdAndKind) {
  Request request;
  request.id = "ok";
  request.kind = RequestKind::Stats;
  std::string bytes = encode_binary_request(request);

  std::string wrong_version = bytes;
  wrong_version[0] = 99;
  EXPECT_THROW(decode_binary_request(wrong_version), std::runtime_error);
  std::string wrong_kind = bytes;
  wrong_kind[1] = 7;
  EXPECT_THROW(decode_binary_request(wrong_kind), std::runtime_error);
  // Stats carries no body; trailing bytes are malformed.
  EXPECT_THROW(decode_binary_request(bytes + "x"), std::runtime_error);

  Request empty_id;
  empty_id.kind = RequestKind::Stats;
  EXPECT_THROW(decode_binary_request(encode_binary_request(empty_id)),
               std::runtime_error);
  Request long_id;
  long_id.id = std::string(kMaxRequestIdBytes + 1, 'x');
  long_id.kind = RequestKind::Stats;
  EXPECT_THROW(decode_binary_request(encode_binary_request(long_id)),
               std::runtime_error);

  // Best-effort id recovery reads through the prefix even when the body is
  // broken, and returns "" when the prefix itself is unusable.
  Request broken_query;
  broken_query.id = "recover-me";
  broken_query.kind = RequestKind::Query;
  std::string broken = encode_binary_request(broken_query);
  broken.resize(broken.size() - 3);  // truncate inside the query document
  EXPECT_THROW(decode_binary_request(broken), std::runtime_error);
  EXPECT_EQ(best_effort_binary_request_id(broken), "recover-me");
  EXPECT_EQ(best_effort_binary_request_id("\x01"), "");
  EXPECT_EQ(best_effort_binary_request_id(""), "");
}

TEST(BinaryEnvelope, ResponseEnvelopesRoundTripEveryStatus) {
  serve::DesignService service;
  const serve::DesignResponse answer = service.submit(tiny_query());
  const std::string body = serve::encode_binary(answer);

  const WireResponse ok =
      parse_binary_wire_response(make_binary_design_response("a", body));
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.id, "a");
  // The decoded body re-serializes to exactly the text-mode answer — the
  // lossless pin the byte-identity tests stand on.
  EXPECT_EQ(ok.response_json, serve::to_json(answer));

  const WireResponse stats = parse_binary_wire_response(
      make_binary_stats_response("b", "{\"queries\":3}"));
  EXPECT_TRUE(stats.ok());
  EXPECT_EQ(stats.id, "b");
  EXPECT_EQ(stats.stats_json, "{\"queries\":3}");

  const WireResponse rejected = parse_binary_wire_response(
      make_binary_rejected_response("c", "overloaded", 17));
  EXPECT_TRUE(rejected.rejected());
  EXPECT_EQ(rejected.id, "c");
  EXPECT_EQ(rejected.reason, "overloaded");
  EXPECT_EQ(rejected.queue_depth, 17u);

  const WireResponse error =
      parse_binary_wire_response(make_binary_error_response("", "boom"));
  EXPECT_EQ(error.status, "error");
  EXPECT_EQ(error.id, "");
  EXPECT_EQ(error.reason, "boom");

  EXPECT_THROW(parse_binary_wire_response("not an envelope"),
               std::runtime_error);
}

TEST(BinaryEnvelope, ResponseBodyIsAContiguousSpliceableSuffix) {
  // The server splices pre-encoded (cached) response bytes straight into
  // the envelope; that only works if the body is the exact byte suffix.
  serve::DesignService service;
  const std::string body = serve::encode_binary(service.submit(tiny_query()));
  const std::string envelope = make_binary_design_response("id", body);
  ASSERT_GE(envelope.size(), body.size());
  EXPECT_EQ(envelope.substr(envelope.size() - body.size()), body);
}

// --- BinaryFrameDecoder ---------------------------------------------------

std::string framed(std::string_view payload) {
  std::string out;
  append_binary_frame(out, payload);
  return out;
}

TEST(BinaryFrameDecoder, DecodesFramesFedOneByteAtATime) {
  BinaryFrameDecoder decoder(kDefaultMaxFrameBytes, /*expect_preamble=*/false);
  const std::string stream = framed("first payload") + framed("") +
                             framed(std::string("\n#|binary\0ok", 12));
  std::vector<std::string> payloads;
  for (const char byte : stream) {
    decoder.feed(&byte, 1);
    while (auto frame = decoder.next()) {
      ASSERT_FALSE(frame->corrupt) << frame->reason;
      payloads.push_back(frame->payload);
    }
  }
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(payloads[0], "first payload");
  EXPECT_EQ(payloads[1], "");
  // Payload bytes are arbitrary: newlines, '#', '|', NUL all round-trip.
  EXPECT_EQ(payloads[2], std::string("\n#|binary\0ok", 12));
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(BinaryFrameDecoder, SkipsKeepAliveNewlinesBetweenFrames) {
  BinaryFrameDecoder decoder(kDefaultMaxFrameBytes, /*expect_preamble=*/false);
  decoder.feed("\n\n" + framed("a") + "\n\n\n" + framed("b") + "\n");
  auto a = decoder.next();
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(a->corrupt);
  EXPECT_EQ(a->payload, "a");
  auto b = decoder.next();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->payload, "b");
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(BinaryFrameDecoder, PreambleIsRequiredOnceWhenExpected) {
  BinaryFrameDecoder decoder(kDefaultMaxFrameBytes, /*expect_preamble=*/true);
  decoder.feed(std::string(kBinaryPreamble) + framed("hello"));
  auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_FALSE(frame->corrupt);
  EXPECT_EQ(frame->payload, "hello");

  BinaryFrameDecoder wrong(kDefaultMaxFrameBytes, /*expect_preamble=*/true);
  wrong.feed("MCBX" + framed("hello"));
  auto bad = wrong.next();
  ASSERT_TRUE(bad.has_value());
  EXPECT_TRUE(bad->corrupt);
  EXPECT_NE(bad->reason.find("preamble"), std::string::npos);
}

TEST(BinaryFrameDecoder, OversizedLengthIsCorruptNotAnUnboundedBuffer) {
  BinaryFrameDecoder decoder(64, /*expect_preamble=*/false);
  decoder.feed(framed(std::string(65, 'x')));
  auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->corrupt);
  EXPECT_NE(frame->reason.find("exceeds"), std::string::npos);
}

TEST(BinaryFrameDecoder, EveryByteFlipYieldsOneCorruptEventAndResyncs) {
  // Exhaustive single-byte corruption: flip each byte of frame A in turn,
  // follow with keep-alive padding (longer than the frame limit, so a
  // corrupted length field can never stall the decoder) and an intact
  // frame B. Invariant, for every flip position: exactly one corrupt
  // event, and B is always recovered.
  //
  // The payloads avoid '\n' so a shrunken length field cannot fake a valid
  // terminator inside A — the guarantee the deterministic server-side fuzz
  // below relies on as well.
  const std::string payload_a(40, 'a');
  const std::string payload_b = "survivor-frame-payload";
  const std::string frame_a = framed(payload_a);
  const std::string tail = std::string(300, '\n') + framed(payload_b);
  const std::size_t kMaxFrame = 256;

  for (std::size_t flip = 0; flip < frame_a.size(); ++flip) {
    std::string corrupted = frame_a;
    corrupted[flip] = static_cast<char>(corrupted[flip] ^ 0x01);
    BinaryFrameDecoder decoder(kMaxFrame, /*expect_preamble=*/false);
    decoder.feed(corrupted + tail);

    std::size_t corrupt_events = 0;
    std::vector<std::string> recovered;
    while (auto frame = decoder.next()) {
      if (frame->corrupt) {
        ++corrupt_events;
        EXPECT_FALSE(frame->reason.empty());
      } else {
        recovered.push_back(frame->payload);
      }
    }
    EXPECT_EQ(corrupt_events, 1u) << "flip at byte " << flip;
    ASSERT_EQ(recovered.size(), 1u) << "flip at byte " << flip;
    EXPECT_EQ(recovered[0], payload_b) << "flip at byte " << flip;
  }
}

// --- live server: negotiation, downgrade, corruption, identity ------------

TEST(BinaryWire, NegotiationDowngradeMatrix) {
  for (const bool server_binary : {true, false}) {
    auto service = std::make_shared<serve::DesignService>();
    ServerConfig config = loopback_config();
    config.enable_binary = server_binary;
    DesignServer server(service, config);
    server.start();

    DesignClient client;
    client.connect("127.0.0.1", server.port());
    // A declined hello is a downgrade, not a failure: the connection
    // simply stays in text mode and keeps working.
    EXPECT_EQ(client.negotiate_binary(), server_binary);
    EXPECT_EQ(client.wire() == serve::WireEncoding::Binary, server_binary);
    // Negotiating again is idempotent in both directions.
    EXPECT_EQ(client.negotiate_binary(), server_binary);

    const WireResponse answer = client.query(tiny_query());
    ASSERT_TRUE(answer.ok()) << answer.reason;
    EXPECT_FALSE(answer.response_json.empty());
    const WireResponse stats = client.stats();
    ASSERT_TRUE(stats.ok());
    EXPECT_FALSE(stats.stats_json.empty());

    const ServerStats server_stats = server.stats();
    EXPECT_EQ(server_stats.hello_requests, server_binary ? 1u : 2u);
    EXPECT_EQ(server_stats.binary_connections, server_binary ? 1u : 0u);
    server.shutdown();
  }
}

TEST(BinaryWire, HelloAfterAQueryIsAnErrorAndTheConnectionSurvives) {
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  server.start();

  DesignClient client;
  client.connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.stats().ok());  // any request pins the text mode

  Request hello;
  hello.id = "late";
  hello.kind = RequestKind::Hello;
  hello.wire = "binary";
  client.send_raw(to_json(hello));
  const WireResponse err = client.recv_matching("late");
  EXPECT_EQ(err.status, "error");
  EXPECT_NE(err.reason.find("hello"), std::string::npos);

  // The connection stayed text and stayed alive.
  const WireResponse answer = client.query(tiny_query());
  EXPECT_TRUE(answer.ok()) << answer.reason;
  server.shutdown();
}

TEST(BinaryWire, BinaryAnswerIsByteIdenticalToInProcess) {
  const serve::DesignQuery query = tiny_query();

  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  server.start();
  DesignClient client;
  client.connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.negotiate_binary());
  const WireResponse wire = client.query(query);
  ASSERT_TRUE(wire.ok()) << wire.reason;
  const WireResponse stats = client.stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats.stats_json.empty());
  server.shutdown();

  // A fresh in-process service (same no-store starting state) must produce
  // exactly the bytes the binary envelope decoded back into.
  serve::DesignService reference;
  EXPECT_EQ(wire.response_json, serve::to_json(reference.submit(query)));
}

TEST(BinaryWire, MalformedBinaryEnvelopeGetsAnErrorWithTheRecoveredId) {
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  server.start();
  DesignClient client;
  client.connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.negotiate_binary());
  // One normal request first: the client sends its "MCB1" preamble lazily
  // with the first binary frame, and send_bytes below bypasses that.
  ASSERT_TRUE(client.stats().ok());

  // A well-framed envelope whose query document is truncated: the frame
  // CRC passes, decode fails, and the error still carries the id.
  Request request;
  request.id = "bad-doc";
  request.kind = RequestKind::Query;
  request.query = tiny_query();
  std::string envelope = encode_binary_request(request);
  envelope.resize(envelope.size() - 2);
  std::string bytes;
  append_binary_frame(bytes, envelope);
  client.send_bytes(bytes);
  const WireResponse err = client.recv_matching("bad-doc");
  EXPECT_EQ(err.status, "error");
  EXPECT_FALSE(err.reason.empty());

  // Garbage that is not even an envelope: id unrecoverable, still answered.
  std::string garbage;
  append_binary_frame(garbage, "complete nonsense");
  client.send_bytes(garbage);
  const WireResponse anon = client.recv_response();
  EXPECT_EQ(anon.status, "error");
  EXPECT_EQ(anon.id, "");

  const WireResponse answer = client.query(tiny_query());
  EXPECT_TRUE(answer.ok()) << answer.reason;
  server.shutdown();
}

TEST(BinaryWireFuzz, EveryByteFlipGetsOneErrorAndTheConnectionSurvives) {
  // Live-connection variant of the decoder fuzz: flip every byte of a
  // well-formed binary stats request in turn on ONE connection. Each flip
  // must produce exactly one error envelope, and a follow-up request must
  // still be answered — the server never wedges, never disconnects, never
  // double-reports.
  auto service = std::make_shared<serve::DesignService>();
  ServerConfig config = loopback_config();
  config.max_frame_bytes = 512;  // bounds how far a corrupted length reads
  DesignServer server(service, config);
  server.start();

  DesignClient client;
  client.connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.negotiate_binary());
  // Establish the client-side "MCB1" preamble (sent lazily with the first
  // binary frame) before shipping raw corrupted bytes past the framer.
  ASSERT_TRUE(client.stats().ok());

  Request probe;
  probe.id = "fz";
  probe.kind = RequestKind::Stats;
  std::string frame;
  append_binary_frame(frame, encode_binary_request(probe));
  // Longer than max_frame_bytes + framing, so a corrupted length field can
  // never leave the server waiting for bytes that will not come.
  const std::string padding(600, '\n');

  for (std::size_t flip = 0; flip < frame.size(); ++flip) {
    std::string corrupted = frame;
    corrupted[flip] = static_cast<char>(corrupted[flip] ^ 0x01);
    client.send_bytes(corrupted + padding);

    const WireResponse err = client.recv_response();
    EXPECT_EQ(err.status, "error") << "flip at byte " << flip;
    EXPECT_FALSE(err.reason.empty()) << "flip at byte " << flip;

    const std::string id = client.next_id();
    client.send_stats(id);
    const WireResponse ok = client.recv_matching(id);
    EXPECT_TRUE(ok.ok()) << "flip at byte " << flip << ": " << ok.reason;
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.malformed_frames, frame.size());
  EXPECT_EQ(stats.accepted_connections, 1u);  // one connection throughout
  server.shutdown();
}

// --- ClientStats lifetime -------------------------------------------------

TEST(DesignClient, StatsAreResetByReconnectAndOnDemand) {
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  server.start();

  DesignClient client;
  client.connect("127.0.0.1", server.port());
  serve::DesignQuery probe = tiny_query();
  probe.archive_only = true;  // instant: no search behind the counter
  ASSERT_TRUE(client.query(probe).ok());
  EXPECT_EQ(client.client_stats().queries_sent, 1u);
  EXPECT_GT(client.client_stats().wire_bytes_sent, 0u);
  EXPECT_GT(client.client_stats().wire_bytes_received, 0u);

  // Reconnecting opens a fresh accounting window: nothing bleeds across,
  // retry/backoff counters included.
  client.connect("127.0.0.1", server.port());
  EXPECT_EQ(client.client_stats().queries_sent, 0u);
  EXPECT_EQ(client.client_stats().wire_bytes_sent, 0u);
  EXPECT_EQ(client.client_stats().wire_bytes_received, 0u);
  EXPECT_EQ(client.client_stats().retries, 0u);
  EXPECT_EQ(client.client_stats().overloaded_rejections, 0u);
  EXPECT_EQ(client.client_stats().gave_up, 0u);
  EXPECT_EQ(client.client_stats().backoff_ms_total, 0.0);
  // ... and the wire mode is back to text until negotiated again.
  EXPECT_EQ(client.wire(), serve::WireEncoding::Json);

  ASSERT_TRUE(client.query(probe).ok());
  EXPECT_EQ(client.client_stats().queries_sent, 1u);
  client.reset_stats();
  EXPECT_EQ(client.client_stats().queries_sent, 0u);
  EXPECT_EQ(client.client_stats().wire_bytes_sent, 0u);
  server.shutdown();
}

}  // namespace
}  // namespace metacore::net
