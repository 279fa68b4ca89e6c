// The traced run's per-layer probes. Each probe times calls into one
// module's public functions with the workload's own inputs and records a
// span around every call (or around a fixed-size batch of calls when one
// call is far shorter than a span's own cost). Spans stay in memory and
// are written out at exit; the metrics printed are computed from them.
//
// Layers probed, bottom up: util (crc32c), robust (journal replay, query
// parsing), comm (measure_ber, decode_frames), cost, core (one
// evaluation), exec (pool busy share inside a search), search (one
// search: cold, or replayed from the store on warm workloads), serve
// (store open/append/lookup, submit_encoded, response encoding).
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "comm/ber.hpp"
#include "comm/channel.hpp"
#include "comm/convolutional.hpp"
#include "comm/frame_decode.hpp"
#include "comm/simd/acs_kernel.hpp"
#include "comm/trellis.hpp"
#include "common.hpp"
#include "core/viterbi_metacore.hpp"
#include "cost/viterbi_cost.hpp"
#include "exec/thread_pool.hpp"
#include "robust/journal.hpp"
#include "search/multires_search.hpp"
#include "serve/binary_codec.hpp"
#include "serve/service.hpp"
#include "serve/store.hpp"
#include "span.hpp"
#include "util/crc32c.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

using Metrics = std::map<std::string, double>;

core::ViterbiRequirements requirements_of(const serve::DesignQuery& q) {
  core::ViterbiRequirements req;
  req.target_ber = q.target_ber;
  req.esn0_db = q.esn0_db;
  req.throughput_mbps = q.throughput_mbps;
  req.ber_shards = q.ber_shards;
  req.ber_lanes = q.ber_lanes;
  return req;
}

/// The BER run configuration ViterbiMetaCore::evaluate derives for a
/// fidelity level (recommended screening budget, decision threshold at the
/// target, shard and lane counts from the query, 4x length per level).
comm::BerRunConfig ber_config(const serve::DesignQuery& q, int fidelity) {
  comm::BerRunConfig cfg = core::ViterbiMetaCore::recommended_ber_config(
      q.target_ber);
  cfg.decision_ber = q.target_ber;
  cfg.shards = std::max(1, q.ber_shards);
  cfg.lanes = std::max(0, q.ber_lanes);
  const double scale = std::pow(4.0, std::max(0, fidelity));
  cfg.max_bits = static_cast<std::uint64_t>(
      std::min(static_cast<double>(cfg.max_bits) * scale, 2'000'000.0));
  cfg.min_bits = static_cast<std::uint64_t>(
      std::min(static_cast<double>(cfg.min_bits) * scale, 500'000.0));
  return cfg;
}

struct SearchProbe {
  std::size_t evaluator_calls = 0;
  std::size_t store_hits = 0;
  double wall_ms = 0.0;
  double busy_share = 0.0;
  std::uint64_t decoded_bits = 0;
  /// (point, fidelity) of every evaluator call, sorted.
  std::vector<std::pair<std::vector<double>, int>> points;
};

/// One search exactly as DesignService runs it for a Viterbi query
/// (multiresolution search, then the top-5 verification pass), with the
/// evaluator wrapped so every call is a span and a counted point.
SearchProbe probe_search(SpanRecorder& rec, const std::string& label,
                         const serve::DesignQuery& q,
                         std::shared_ptr<serve::EvaluationStore> store) {
  const core::ViterbiMetaCore metacore(requirements_of(q));
  search::SearchConfig config;
  config.initial_points_per_dim = q.budget.initial_points_per_dim;
  config.max_resolution = q.budget.max_resolution;
  config.regions_per_level = q.budget.regions_per_level;
  config.max_evaluations = q.budget.max_evaluations;
  config.store = store;
  config.store_fingerprint = metacore.evaluation_fingerprint();
  config.probabilistic_metric = "ber";
  const search::Objective objective = metacore.objective();
  const search::DesignSpace space = metacore.design_space();

  SearchProbe out;
  std::mutex mutex;
  std::int64_t search_span = -1;
  const std::string eval_name = label + ".evaluate";
  const search::EvaluateFn evaluate = [&](const std::vector<double>& point,
                                          int fidelity) {
    ScopedSpan span(rec, eval_name, 0, search_span);
    {
      std::lock_guard<std::mutex> lock(mutex);
      out.points.emplace_back(point, fidelity);
    }
    return metacore.evaluate(point, fidelity);
  };

  const std::uint64_t bits0 = comm::ber_decoded_bits_total();
  search::SearchResult result;
  {
    ScopedSpan span(rec, label, 0);
    search_span = span.id();
    search::MultiresolutionSearch engine(space, objective, evaluate, config);
    result = engine.run();
    result = search::verify_top_candidates(
        std::move(result), space, objective, evaluate, 5,
        config.max_resolution + 1, store.get(), config.store_fingerprint);
  }
  out.decoded_bits = comm::ber_decoded_bits_total() - bits0;
  out.evaluator_calls = out.points.size();
  out.store_hits = result.store_hits;
  out.wall_ms = rec.duration_ns(search_span) / 1e6;
  double busy_ns = 0.0;
  for (const double d : rec.durations_ns(eval_name)) busy_ns += d;
  const auto threads = static_cast<double>(exec::ThreadPool::global().size());
  out.busy_share = busy_ns / (threads * out.wall_ms * 1e6);
  std::sort(out.points.begin(), out.points.end());
  return out;
}

/// ViterbiMetaCore::evaluate and the two calls that make most of it
/// (comm::measure_ber, cost::evaluate_viterbi_cost), one after another at
/// every point the cold search evaluated.
void probe_evaluation(SpanRecorder& rec, const serve::DesignQuery& q,
                      const SearchProbe& cold, Metrics& m) {
  const core::ViterbiMetaCore metacore(requirements_of(q));
  for (const auto& [point, fidelity] : cold.points) {
    { ScopedSpan s(rec, "core.evaluate"); metacore.evaluate(point, fidelity); }
    const comm::DecoderSpec spec = metacore.decode_point(point);
    {
      ScopedSpan s(rec, "comm.measure_ber");
      comm::measure_ber(spec, q.esn0_db, ber_config(q, fidelity));
    }
    {
      ScopedSpan s(rec, "cost.evaluate");
      cost::ViterbiCostQuery cq;
      cq.spec = spec;
      cq.throughput_mbps = q.throughput_mbps;
      cost::evaluate_viterbi_cost(cq);
    }
  }
  const auto total = [&](const char* name) {
    double sum = 0.0;
    for (const double d : rec.durations_ns(name)) sum += d;
    return sum;
  };
  const double core_ns = total("core.evaluate");
  m["core.evaluation_ms"] = mean(rec.durations_ns("core.evaluate")) / 1e6;
  m["comm.measure_ber_ms"] = mean(rec.durations_ns("comm.measure_ber")) / 1e6;
  m["cost.evaluate_ms"] = mean(rec.durations_ns("cost.evaluate")) / 1e6;
  m["core.ber_share"] = total("comm.measure_ber") / core_ns;
  m["core.cost_share"] = total("cost.evaluate") / core_ns;
}

/// decode_frames throughput over the distinct decoder specs the cold
/// search evaluated, at one lane and at the dispatched tier's natural
/// lane count.
void probe_frames(SpanRecorder& rec, const serve::DesignQuery& q,
                  const SearchProbe& cold, Metrics& m) {
  const core::ViterbiMetaCore metacore(requirements_of(q));
  std::map<std::string, comm::DecoderSpec> specs;
  for (const auto& [point, fidelity] : cold.points) {
    const comm::DecoderSpec spec = metacore.decode_point(point);
    specs.emplace(spec.label(), spec);
  }
  constexpr std::size_t kFrames = 32, kBits = 1024;
  const std::size_t natural =
      comm::simd::natural_frame_lanes(comm::simd::dispatched_isa());
  std::map<std::size_t, std::pair<double, double>> per_lanes;  // bits, ns
  std::size_t n = 0;
  for (const auto& [label, spec] : specs) {
    if (n++ == 6) break;  // six codes keep the probe near a second
    const comm::Trellis trellis(spec.code);
    comm::AwgnChannel channel(q.esn0_db, 1.0, 7 + n);
    util::Random rng(util::substream_key(11, n));
    std::vector<std::vector<double>> samples;
    for (std::size_t f = 0; f < kFrames; ++f) {
      std::vector<int> bits(kBits);
      for (int& b : bits) b = rng.bernoulli(0.5) ? 1 : 0;
      comm::ConvolutionalEncoder encoder(spec.code);
      std::vector<double> symbols;
      for (const int c : encoder.encode(bits)) {
        symbols.push_back(channel.transmit(c ? 1.0 : -1.0));
      }
      samples.push_back(std::move(symbols));
    }
    std::vector<std::span<const double>> frames(samples.begin(), samples.end());
    for (const std::size_t lanes : {std::size_t{1}, natural}) {
      const std::string name =
          "comm.decode_frames.lanes" + std::to_string(lanes);
      for (int rep = 0; rep < 3; ++rep) {
        std::int64_t id = -1;
        {
          ScopedSpan s(rec, name);
          id = s.id();
          const auto out = comm::decode_frames(spec, trellis, 1.0,
                                               channel.noise_sigma(), frames,
                                               lanes);
          if (out.size() != kFrames) throw std::runtime_error("decode_frames");
        }
        per_lanes[lanes].first += static_cast<double>(kFrames * kBits);
        per_lanes[lanes].second += rec.duration_ns(id);
      }
    }
  }
  const auto rate = [&](std::size_t lanes) {
    const auto& [bits, ns] = per_lanes[lanes];
    return bits / (ns / 1e9);
  };
  m["comm.frame_bits_per_s.lanes1"] = rate(1);
  m["comm.frame_bits_per_s.natural"] = rate(natural);
}

/// Times `fn` in batches of `batch` calls (one span per batch) until
/// `min_ms` of batches have run; returns microseconds per call.
template <typename Fn>
double per_call_us(SpanRecorder& rec, const std::string& name,
                   std::size_t batch, double min_ms, Fn&& fn) {
  double ns = 0.0, calls = 0.0;
  std::size_t i = 0;
  while (ns < min_ms * 1e6 || calls < static_cast<double>(batch) * 3) {
    std::int64_t id = -1;
    {
      ScopedSpan s(rec, name);
      id = s.id();
      for (std::size_t k = 0; k < batch; ++k) fn(i++);
    }
    ns += rec.duration_ns(id);
    calls += static_cast<double>(batch);
  }
  return ns / calls / 1e3;
}

std::shared_ptr<serve::EvaluationStore> open_copy(const std::string& from,
                                                  const std::string& to) {
  fs::copy_file(from, to, fs::copy_options::overwrite_existing);
  return std::make_shared<serve::EvaluationStore>(to);
}

}  // namespace

/// `probe --workload W --queries F --prewarm F --warmup F --stream F
///        --cold-queries F --store P --work DIR --trace-out F`
int run_probe(const Args& args) {
  SpanRecorder rec(true);
  Metrics m;
  const std::string workload = args.str("workload");
  const std::string work = args.str("work");
  const std::string seeded = args.str("store");
  const std::vector<std::string> table = read_lines(args.str("queries"));
  const std::vector<std::size_t> stream = read_indices(args.str("stream"));
  const std::vector<std::string> cold_table =
      read_lines(args.str("cold-queries"));
  const auto parse = [](const std::string& doc) {
    return serve::parse_design_query(doc);
  };

  // comm / cost / core / exec: one cold search (the first cold_search
  // stream query; row 0 is its warm-up) into a fresh store, then its
  // evaluations replayed layer by layer.
  const serve::DesignQuery cold_q = parse(cold_table.at(1));
  const std::string cold_path = work + "/probe-cold.journal";
  fs::remove(cold_path);
  auto cold_store = std::make_shared<serve::EvaluationStore>(cold_path);
  const SearchProbe cold = probe_search(rec, "search.cold", cold_q, cold_store);
  m["comm.decoded_bits"] = static_cast<double>(cold.decoded_bits);
  m["exec.busy_share"] = cold.busy_share;
  probe_evaluation(rec, cold_q, cold, m);
  probe_frames(rec, cold_q, cold, m);

  // serve: opening the workload's seeded store (median of three).
  std::shared_ptr<serve::EvaluationStore> store;
  for (int rep = 0; rep < 3; ++rep) {
    store.reset();
    ScopedSpan s(rec, "serve.store_open");
    store = open_copy(seeded, work + "/probe-open.journal");
  }
  m["serve.store_open_ms"] = median(rec.durations_ns("serve.store_open")) / 1e6;

  // search: the cold search itself on cold_search; on the warm workloads,
  // the first prewarmed scope replayed from the seeded store.
  if (workload == "cold_search") {
    m["search.evaluations"] = static_cast<double>(cold.evaluator_calls);
    m["search.store_hits"] = static_cast<double>(cold.store_hits);
    m["search.wall_ms"] = cold.wall_ms;
  } else {
    const auto prewarm = read_indices(args.str("prewarm"));
    const SearchProbe replay = probe_search(
        rec, "search.replay", parse(table.at(prewarm.at(0))), store);
    m["search.evaluations"] = static_cast<double>(replay.evaluator_calls);
    m["search.store_hits"] = static_cast<double>(replay.store_hits);
    m["search.wall_ms"] = replay.wall_ms;
  }

  // serve: store lookups of keys the workload's scopes hold, and appends
  // of fresh keys to an empty store.
  {
    std::vector<std::tuple<std::string, std::vector<int>, int>> keys;
    const auto add_keys = [&](const serve::EvaluationStore& s,
                              const serve::DesignQuery& q) {
      const std::string fp = serve::query_fingerprint(q);
      for (const auto& [indices, fidelity, eval] : s.entries_for(fp)) {
        keys.emplace_back(fp, indices, fidelity);
      }
    };
    if (workload == "cold_search") {
      add_keys(*cold_store, cold_q);
    } else {
      for (const std::size_t i : read_indices(args.str("prewarm"))) {
        add_keys(*store, parse(table.at(i)));
      }
    }
    if (keys.empty()) throw std::runtime_error("no store keys to look up");
    serve::EvaluationStore& target =
        workload == "cold_search" ? *cold_store : *store;
    m["serve.store_lookup_us"] =
        per_call_us(rec, "serve.store_lookup.x1000", 1000, 50.0,
                    [&](std::size_t i) {
                      const auto& [fp, idx, fid] = keys[i % keys.size()];
                      if (!target.lookup(fp, idx, fid)) {
                        throw std::runtime_error("store lookup missed");
                      }
                    });
    const std::string append_path = work + "/probe-append.journal";
    fs::remove(append_path);
    serve::EvaluationStore fresh(append_path);
    search::Evaluation eval;
    eval.metrics = {{"area_mm2", 1.5}, {"ber", 0.004}};
    m["serve.store_append_us"] = per_call_us(
        rec, "serve.store_append.x100", 100, 20.0, [&](std::size_t i) {
          const std::vector<int> idx{static_cast<int>(i % 7),
                                     static_cast<int>(i / 7 % 11),
                                     static_cast<int>(i / 77)};
          fresh.record("perfbench-append-probe", idx, 0, eval);
        });
  }

  // serve: submit_encoded in-process on a service over a copy of the
  // seeded store, prewarmed exactly as the server is, then fed the
  // workload's stream in order (so the response cache sees the same
  // access pattern as over the socket).
  std::vector<serve::DesignResponse> responses;
  {
    serve::ServiceConfig config;
    config.store = open_copy(seeded, work + "/probe-service.journal");
    serve::DesignService service(config);
    for (const char* key : {"prewarm", "warmup"}) {
      if (!args.has(key)) continue;
      for (const std::size_t i : read_indices(args.str(key))) {
        service.submit_encoded(parse(table.at(i)), serve::WireEncoding::Json);
      }
    }
    const std::size_t limit = workload == "cold_search" ? 1 : 4000;
    std::vector<serve::DesignQuery> queries;
    for (std::size_t i = 0; i < std::min(limit, stream.size() * 4); ++i) {
      queries.push_back(parse(table.at(stream[i % stream.size()])));
    }
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ScopedSpan s(rec, "serve.submit_encoded", static_cast<std::int64_t>(i));
      service.submit_encoded(queries[i], serve::WireEncoding::Json);
    }
    m["serve.submit_encoded_us"] =
        median(rec.durations_ns("serve.submit_encoded")) / 1e3;
    for (std::size_t i = 0; i < std::min<std::size_t>(queries.size(), 16); ++i) {
      responses.push_back(service.submit(queries[i]));
    }
  }

  // serve: response encoding, text JSON against MCB1 binary.
  double json_bytes = 0.0, binary_bytes = 0.0;
  for (const serve::DesignResponse& r : responses) {
    json_bytes += static_cast<double>(serve::to_json(r).size());
    binary_bytes += static_cast<double>(serve::encode_binary(r).size());
  }
  m["serve.response_bytes_json"] = json_bytes / static_cast<double>(responses.size());
  m["serve.response_bytes_binary"] = binary_bytes / static_cast<double>(responses.size());
  m["serve.encode_json_us"] = per_call_us(
      rec, "serve.encode_json.x100", 100, 30.0, [&](std::size_t i) {
        if (serve::to_json(responses[i % responses.size()]).empty()) {
          throw std::runtime_error("empty encoding");
        }
      });
  m["serve.encode_binary_us"] = per_call_us(
      rec, "serve.encode_binary.x100", 100, 30.0, [&](std::size_t i) {
        if (serve::encode_binary(responses[i % responses.size()]).empty()) {
          throw std::runtime_error("empty encoding");
        }
      });

  // robust: query parsing on the workload's stream documents.
  m["robust.parse_query_us"] = per_call_us(
      rec, "robust.parse_query.x100", 100, 30.0, [&](std::size_t i) {
        parse(table.at(stream[i % stream.size()]));
      });

  // robust / util: journal replay and CRC32C over the seeded journal bytes.
  const std::string journal = read_file(seeded);
  const double mb = static_cast<double>(journal.size()) / 1e6;
  for (int rep = 0; rep < 3; ++rep) {
    ScopedSpan s(rec, "robust.read_journal");
    if (robust::read_journal_text(journal, "probe").records.empty()) {
      throw std::runtime_error("seeded journal has no records");
    }
  }
  m["robust.journal_replay_mb_per_s"] =
      mb / (median(rec.durations_ns("robust.read_journal")) / 1e9);
  std::uint32_t crc = 0;
  for (int rep = 0; rep < 5; ++rep) {
    ScopedSpan s(rec, "util.crc32c");
    crc ^= util::crc32c(journal.data(), journal.size());
  }
  m["util.crc32c_mb_per_s"] = mb / (median(rec.durations_ns("util.crc32c")) / 1e9);

  for (const char* name : {"probe-cold.journal", "probe-open.journal",
                           "probe-append.journal", "probe-service.journal"}) {
    fs::remove(work + "/" + name);
  }
  rec.write_jsonl(args.str("trace-out", ""));
  std::string out = "{\"crc\":" + std::to_string(crc) + ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : m) {
    out += std::string(first ? "" : ",") + "\"" + name + "\":" + num_json(value);
    first = false;
  }
  std::cout << out << "},\"spans\":" << rec.summary_json() << "}" << std::endl;
  return 0;
}

/// `host`: provenance of this build on this machine.
int run_host(const Args&) {
  const comm::simd::Isa isa = comm::simd::dispatched_isa();
  std::cout << "{\"isa\":\"" << comm::simd::to_string(isa)
            << "\",\"natural_lanes\":" << comm::simd::natural_frame_lanes(isa)
            << ",\"default_frame_lanes\":" << comm::default_frame_lanes()
            << ",\"crc32c_backend\":\"" << util::crc32c_backend() << "\"}"
            << std::endl;
  return 0;
}

}  // namespace perfbench
