#include "serve/service.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include <cstdlib>

#include "core/report.hpp"
#include "exec/thread_pool.hpp"
#include "robust/json.hpp"
#include "search/pareto.hpp"
#include "serve/binary_codec.hpp"

namespace metacore::serve {

namespace {

using robust::JsonValue;

constexpr const char* kWhat = "query";

double get_number(const JsonValue& obj, const std::string& key,
                  double fallback) {
  const JsonValue* v = obj.find(key);
  if (!v) return fallback;
  if (v->type != JsonValue::Type::Number) {
    throw std::runtime_error(std::string(kWhat) + ": field '" + key +
                             "' must be a number");
  }
  return v->number;
}

int get_int(const JsonValue& obj, const std::string& key, int fallback) {
  return static_cast<int>(get_number(obj, key, fallback));
}

bool get_bool(const JsonValue& obj, const std::string& key, bool fallback) {
  const JsonValue* v = obj.find(key);
  if (!v) return fallback;
  if (v->type != JsonValue::Type::Bool) {
    throw std::runtime_error(std::string(kWhat) + ": field '" + key +
                             "' must be a boolean");
  }
  return v->boolean;
}

std::string get_string(const JsonValue& obj, const std::string& key,
                       const std::string& fallback) {
  const JsonValue* v = obj.find(key);
  if (!v) return fallback;
  if (v->type != JsonValue::Type::String) {
    throw std::runtime_error(std::string(kWhat) + ": field '" + key +
                             "' must be a string");
  }
  return v->string;
}

core::ViterbiRequirements viterbi_requirements(const DesignQuery& query) {
  core::ViterbiRequirements req;
  req.target_ber = query.target_ber;
  req.esn0_db = query.esn0_db;
  req.throughput_mbps = query.throughput_mbps;
  req.ber_shards = query.ber_shards;
  req.ber_lanes = query.ber_lanes;
  return req;
}

search::Objective query_objective(const DesignQuery& query,
                                  search::Objective base) {
  if (!query.minimize.empty()) base.minimize = query.minimize;
  if (!query.constraints.empty()) base.constraints = query.constraints;
  return base;
}

std::string encode_response(const DesignResponse& response,
                            WireEncoding encoding) {
  return encoding == WireEncoding::Binary ? encode_binary(response)
                                          : to_json(response);
}

/// Cache cap: METACORE_RESPONSE_CACHE when set (0 disables), else the
/// configured value. Throws std::invalid_argument on a malformed value.
std::size_t cache_capacity_from_env(std::size_t configured) {
  const char* env = std::getenv("METACORE_RESPONSE_CACHE");
  if (env == nullptr || *env == '\0') return configured;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0') {
    throw std::invalid_argument(
        "service: METACORE_RESPONSE_CACHE must be a non-negative integer, "
        "got \"" +
        std::string(env) + "\"");
  }
  return static_cast<std::size_t>(value);
}

void write_point(std::string& out, const search::EvaluatedPoint& pt) {
  out += "{\"values\":[";
  for (std::size_t i = 0; i < pt.values.size(); ++i) {
    if (i > 0) out += ',';
    robust::append_double(out, pt.values[i]);
  }
  out += "],\"record\":";
  write_eval_record(out, pt.indices, pt.fidelity, pt.eval);
  out += '}';
}

std::size_t point_size_hint(const search::EvaluatedPoint& pt) {
  return 24 + 24 * pt.values.size() +
         eval_record_size_hint(pt.indices, pt.eval);
}

}  // namespace

std::string to_string(QueryKind kind) {
  return kind == QueryKind::Viterbi ? "viterbi" : "iir";
}

std::string query_fingerprint(const DesignQuery& query) {
  if (query.kind == QueryKind::Viterbi) {
    return core::ViterbiMetaCore(viterbi_requirements(query))
        .evaluation_fingerprint();
  }
  return core::IirMetaCore(
             core::paper_bandpass_requirements(query.sample_period_us))
      .evaluation_fingerprint();
}

std::string to_json(const DesignQuery& query) {
  std::string out;
  out.reserve(320 + query.minimize.size() + 64 * query.constraints.size());
  out += query.kind == QueryKind::Viterbi ? "{\"kind\":\"viterbi\""
                                          : "{\"kind\":\"iir\"";
  out += ",\"target_ber\":";
  robust::append_double(out, query.target_ber);
  out += ",\"esn0_db\":";
  robust::append_double(out, query.esn0_db);
  out += ",\"throughput_mbps\":";
  robust::append_double(out, query.throughput_mbps);
  out += ",\"ber_shards\":";
  robust::append_int(out, query.ber_shards);
  out += ",\"ber_lanes\":";
  robust::append_int(out, query.ber_lanes);
  out += ",\"sample_period_us\":";
  robust::append_double(out, query.sample_period_us);
  out += ",\"budget\":{\"initial_points_per_dim\":";
  robust::append_int(out, query.budget.initial_points_per_dim);
  out += ",\"max_resolution\":";
  robust::append_int(out, query.budget.max_resolution);
  out += ",\"regions_per_level\":";
  robust::append_int(out, query.budget.regions_per_level);
  out += ",\"max_evaluations\":";
  robust::append_int(out, query.budget.max_evaluations);
  out += "},\"minimize\":";
  robust::append_escaped(out, query.minimize);
  out += ",\"constraints\":[";
  for (std::size_t i = 0; i < query.constraints.size(); ++i) {
    const search::Constraint& c = query.constraints[i];
    if (i > 0) out += ',';
    out += c.kind == search::Constraint::Kind::UpperBound
               ? "{\"kind\":\"upper\",\"metric\":"
               : "{\"kind\":\"lower\",\"metric\":";
    robust::append_escaped(out, c.metric);
    out += ",\"bound\":";
    robust::append_double(out, c.bound);
    out += '}';
  }
  out += query.archive_only ? "],\"archive_only\":true}"
                            : "],\"archive_only\":false}";
  return out;
}

DesignQuery parse_design_query(const std::string& json) {
  return parse_design_query(robust::parse_json(json, kWhat));
}

DesignQuery parse_design_query(const JsonValue& doc) {
  if (doc.type != JsonValue::Type::Object) {
    throw std::runtime_error(std::string(kWhat) +
                             ": document must be an object");
  }
  DesignQuery query;
  const std::string kind = get_string(doc, "kind", "");
  if (kind == "viterbi") {
    query.kind = QueryKind::Viterbi;
  } else if (kind == "iir") {
    query.kind = QueryKind::Iir;
  } else {
    throw std::runtime_error(std::string(kWhat) +
                             ": 'kind' must be \"viterbi\" or \"iir\"");
  }
  query.target_ber = get_number(doc, "target_ber", query.target_ber);
  query.esn0_db = get_number(doc, "esn0_db", query.esn0_db);
  query.throughput_mbps =
      get_number(doc, "throughput_mbps", query.throughput_mbps);
  query.ber_shards = get_int(doc, "ber_shards", query.ber_shards);
  query.ber_lanes = get_int(doc, "ber_lanes", query.ber_lanes);
  query.sample_period_us =
      get_number(doc, "sample_period_us", query.sample_period_us);
  if (const JsonValue* budget = doc.find("budget")) {
    if (budget->type != JsonValue::Type::Object) {
      throw std::runtime_error(std::string(kWhat) +
                               ": 'budget' must be an object");
    }
    query.budget.initial_points_per_dim =
        get_int(*budget, "initial_points_per_dim",
                query.budget.initial_points_per_dim);
    query.budget.max_resolution =
        get_int(*budget, "max_resolution", query.budget.max_resolution);
    query.budget.regions_per_level =
        get_int(*budget, "regions_per_level", query.budget.regions_per_level);
    query.budget.max_evaluations = static_cast<std::size_t>(get_number(
        *budget, "max_evaluations",
        static_cast<double>(query.budget.max_evaluations)));
  }
  query.minimize = get_string(doc, "minimize", query.minimize);
  if (const JsonValue* constraints = doc.find("constraints")) {
    if (constraints->type != JsonValue::Type::Array) {
      throw std::runtime_error(std::string(kWhat) +
                               ": 'constraints' must be an array");
    }
    for (const JsonValue& entry : constraints->array) {
      if (entry.type != JsonValue::Type::Object) {
        throw std::runtime_error(std::string(kWhat) +
                                 ": each constraint must be an object");
      }
      search::Constraint c;
      const std::string ckind = get_string(entry, "kind", "upper");
      if (ckind == "upper") {
        c.kind = search::Constraint::Kind::UpperBound;
      } else if (ckind == "lower") {
        c.kind = search::Constraint::Kind::LowerBound;
      } else {
        throw std::runtime_error(
            std::string(kWhat) +
            ": constraint 'kind' must be \"upper\" or \"lower\"");
      }
      c.metric =
          robust::require(entry, "metric", JsonValue::Type::String, kWhat)
              .string;
      c.bound =
          robust::require(entry, "bound", JsonValue::Type::Number, kWhat)
              .number;
      query.constraints.push_back(std::move(c));
    }
  }
  query.archive_only = get_bool(doc, "archive_only", query.archive_only);
  return query;
}

std::string to_json(const DesignResponse& response) {
  std::size_t hint = 256 + response.front_x.size() + response.front_y.size() +
                     response.summary.size() + point_size_hint(response.best);
  for (const auto& pt : response.front) hint += point_size_hint(pt) + 1;
  std::string out;
  out.reserve(hint);
  out += response.feasible ? "{\"feasible\":true" : "{\"feasible\":false";
  out += response.from_archive ? ",\"from_archive\":true"
                               : ",\"from_archive\":false";
  out += ",\"best\":";
  write_point(out, response.best);
  out += ",\"evaluations\":";
  robust::append_int(out, response.evaluations);
  out += ",\"cache_hits\":";
  robust::append_int(out, response.cache_hits);
  out += ",\"store_hits\":";
  robust::append_int(out, response.store_hits);
  out += ",\"divergent_duplicates\":";
  robust::append_int(out, response.divergent_duplicates);
  out += response.store_degraded ? ",\"store_degraded\":true"
                                 : ",\"store_degraded\":false";
  out += ",\"front_x\":";
  robust::append_escaped(out, response.front_x);
  out += ",\"front_y\":";
  robust::append_escaped(out, response.front_y);
  out += ",\"front\":[";
  for (std::size_t i = 0; i < response.front.size(); ++i) {
    if (i > 0) out += ',';
    write_point(out, response.front[i]);
  }
  out += "],\"summary\":";
  robust::append_escaped(out, response.summary);
  out += '}';
  return out;
}

struct DesignService::InFlight {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  /// Submits waiting on this search; counted under registry_mutex_, so
  /// once the leader has unregistered the key the count is final.
  std::size_t waiters = 0;
  /// The leader's response, copied here only when waiters > 0.
  DesignResponse response;
  std::exception_ptr error;
};

DesignService::DesignService(ServiceConfig config)
    : cache_capacity_(cache_capacity_from_env(config.response_cache_capacity)) {
  if (config.store) {
    store_ = std::move(config.store);
  } else if (!config.store_path.empty()) {
    store_ = std::make_shared<EvaluationStore>(config.store_path);
  }
}

DesignResponse DesignService::submit(const DesignQuery& query) {
  return submit(query, to_json(query));
}

DesignResponse DesignService::submit(const DesignQuery& query,
                                     const std::string& key) {
  std::shared_ptr<InFlight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    auto it = in_flight_.find(key);
    if (it != in_flight_.end()) {
      flight = it->second;
      ++flight->waiters;
    } else {
      flight = std::make_shared<InFlight>();
      in_flight_.emplace(key, flight);
      leader = true;
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.queries;
    if (!leader) ++stats_.coalesced;
  }
  if (!leader) {
    std::unique_lock<std::mutex> lock(flight->mutex);
    flight->cv.wait(lock, [&] { return flight->done; });
    if (flight->error) std::rethrow_exception(flight->error);
    return flight->response;
  }

  DesignResponse response;
  std::exception_ptr error;
  try {
    response = run_query(query);
  } catch (...) {
    error = std::current_exception();
  }
  std::size_t waiters = 0;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    in_flight_.erase(key);
    waiters = flight->waiters;
  }
  if (waiters > 0) {
    {
      std::lock_guard<std::mutex> lock(flight->mutex);
      flight->done = true;
      if (!error) flight->response = response;
      flight->error = error;
    }
    flight->cv.notify_all();
  }
  if (error) std::rethrow_exception(error);
  return response;
}

std::vector<DesignResponse> DesignService::submit_batch(
    const std::vector<DesignQuery>& queries) {
  std::vector<DesignResponse> responses(queries.size());
  if (queries.empty()) return responses;

  // Deduplicate identical queries up front: each unique query runs exactly
  // once regardless of thread count (at METACORE_THREADS=1 the fan-out is
  // sequential, so in-flight coalescing alone could never fire — pre-dedup
  // is what keeps the response vector byte-identical at any thread count).
  std::map<std::string, std::size_t> first_of;
  std::vector<std::size_t> slot_of(queries.size());
  std::vector<std::size_t> unique;
  std::vector<const std::string*> unique_key;
  std::size_t duplicates = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto [it, inserted] = first_of.emplace(to_json(queries[i]), unique.size());
    if (inserted) {
      unique.push_back(i);
      unique_key.push_back(&it->first);
    } else {
      ++duplicates;
    }
    slot_of[i] = it->second;
  }
  if (duplicates > 0) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.queries += duplicates;
    stats_.coalesced += duplicates;
  }

  // Group distinct queries that share an evaluator fingerprint: they read
  // and feed the same store partition and archive, so they run sequentially
  // in batch order within the group (groups fan out in parallel). Without
  // this, whether query B's search hits entries recorded by query A's
  // would depend on scheduling — store_hits would vary with thread count.
  std::map<std::string, std::vector<std::size_t>> by_fingerprint;
  for (std::size_t u = 0; u < unique.size(); ++u) {
    by_fingerprint[query_fingerprint(queries[unique[u]])].push_back(u);
  }
  std::vector<const std::vector<std::size_t>*> groups;
  groups.reserve(by_fingerprint.size());
  for (const auto& [fingerprint, slots] : by_fingerprint) {
    groups.push_back(&slots);
  }

  std::vector<DesignResponse> unique_responses(unique.size());
  exec::parallel_for(groups.size(), [&](std::size_t g) {
    for (const std::size_t u : *groups[g]) {
      unique_responses[u] = submit(queries[unique[u]], *unique_key[u]);
    }
  });

  for (std::size_t i = 0; i < queries.size(); ++i) {
    responses[i] = unique_responses[slot_of[i]];
  }
  return responses;
}

std::shared_ptr<const std::string> DesignService::submit_encoded(
    const DesignQuery& query, WireEncoding encoding) {
  if (cache_capacity_ == 0) {
    return std::make_shared<const std::string>(
        encode_response(submit(query), encoding));
  }

  // An unconstructible query (bad requirements) has no evaluator scope to
  // stamp; skip the cache and let submit() raise the real error.
  std::string fingerprint;
  try {
    fingerprint = query_fingerprint(query);
  } catch (...) {
    return std::make_shared<const std::string>(
        encode_response(submit(query), encoding));
  }
  return submit_encoded(query, encoding, to_json(query), fingerprint);
}

std::shared_ptr<const std::string> DesignService::submit_encoded(
    const DesignQuery& query, WireEncoding encoding, const std::string& key,
    const std::string& fingerprint) {
  const auto slot = static_cast<std::size_t>(encoding);
  if (cache_capacity_ == 0) {
    return std::make_shared<const std::string>(
        encode_response(submit(query, key), encoding));
  }
  const Generation g0 = current_generation(fingerprint);
  {
    std::lock_guard<std::mutex> cache_lock(cache_mutex_);
    auto it = response_cache_.find(key);
    if (it != response_cache_.end()) {
      if (it->second.gen == g0) {
        // Valid entry: the scope has not moved since the cached run, so a
        // fresh submit() would reproduce these exact bytes. A missing
        // encoding is filled from the cached struct — still zero
        // re-search.
        auto& encoded = it->second.encoded[slot];
        if (!encoded) {
          encoded = std::make_shared<const std::string>(
              encode_response(it->second.response, encoding));
        }
        count_cache_hit();
        return encoded;
      }
      // The store or archive generation moved: the entry may no longer
      // match what a fresh run would answer (store_hits, archive
      // population). Drop it, and its place in the eviction order: a
      // re-cached key is a new insertion.
      response_cache_.erase(it);
      const auto queued =
          std::find(cache_fifo_.begin(), cache_fifo_.end(), key);
      if (queued != cache_fifo_.end()) cache_fifo_.erase(queued);
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.response_cache_invalidations;
    }
  }
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.response_cache_misses;
  }

  DesignResponse response = submit(query, key);
  const Generation g1 = current_generation(fingerprint);
  auto bytes = std::make_shared<const std::string>(
      encode_response(response, encoding));
  // Cache only runs that left their scope unchanged (g1 == g0): a cold
  // search appends to the store, so its repeat would answer differently
  // (store_hits) — the *repeat* is the run that becomes cacheable.
  if (g1 == g0) {
    std::lock_guard<std::mutex> cache_lock(cache_mutex_);
    auto [it, inserted] = response_cache_.try_emplace(key);
    if (inserted) {
      cache_fifo_.push_back(key);
      it->second.gen = g1;
      it->second.response = std::move(response);
      // FIFO eviction: the queue holds exactly the cached keys.
      while (response_cache_.size() > cache_capacity_) {
        response_cache_.erase(cache_fifo_.front());
        cache_fifo_.pop_front();
      }
    } else if (it->second.gen != g1) {
      it->second = CachedResponse{};
      it->second.gen = g1;
      it->second.response = std::move(response);
    }
    auto refreshed = response_cache_.find(key);
    if (refreshed != response_cache_.end() && refreshed->second.gen == g1) {
      refreshed->second.encoded[slot] = bytes;
    }
  }
  return bytes;
}

std::vector<std::shared_ptr<const std::string>>
DesignService::submit_batch_encoded(const std::vector<EncodedQuery>& items) {
  std::vector<std::shared_ptr<const std::string>> out(items.size());
  if (items.empty()) return out;

  // Deduplicate identical (query, encoding) pairs up front — same
  // rationale as submit_batch: byte-identical output at any thread count.
  // Each item's canonical key is computed at most once and carried down.
  std::map<std::pair<std::string, int>, std::size_t> first_of;
  std::vector<std::size_t> slot_of(items.size());
  std::vector<std::size_t> unique;
  std::vector<const std::string*> unique_key;
  std::size_t duplicates = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const EncodedQuery& item = items[i];
    auto [it, inserted] = first_of.emplace(
        std::make_pair(item.key.empty() ? to_json(item.query) : item.key,
                       static_cast<int>(item.encoding)),
        unique.size());
    if (inserted) {
      unique.push_back(i);
      unique_key.push_back(&it->first.first);
    } else {
      ++duplicates;
    }
    slot_of[i] = it->second;
  }
  if (duplicates > 0) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.queries += duplicates;
    stats_.coalesced += duplicates;
  }

  // Same-fingerprint queries run sequentially in batch order (see
  // submit_batch); distinct scopes fan out in parallel. An unconstructible
  // query throws here, failing the batch as a whole.
  std::map<std::string, std::vector<std::size_t>> by_fingerprint;
  for (std::size_t u = 0; u < unique.size(); ++u) {
    const EncodedQuery& item = items[unique[u]];
    by_fingerprint[item.fingerprint.empty() ? query_fingerprint(item.query)
                                            : item.fingerprint]
        .push_back(u);
  }
  std::vector<std::pair<const std::string*, const std::vector<std::size_t>*>>
      groups;
  groups.reserve(by_fingerprint.size());
  for (const auto& [fingerprint, slots] : by_fingerprint) {
    groups.emplace_back(&fingerprint, &slots);
  }

  std::vector<std::shared_ptr<const std::string>> unique_out(unique.size());
  exec::parallel_for(groups.size(), [&](std::size_t g) {
    const auto& [fingerprint, slots] = groups[g];
    for (const std::size_t u : *slots) {
      const EncodedQuery& item = items[unique[u]];
      unique_out[u] = submit_encoded(item.query, item.encoding, *unique_key[u],
                                     *fingerprint);
    }
  });

  for (std::size_t i = 0; i < items.size(); ++i) {
    out[i] = unique_out[slot_of[i]];
  }
  return out;
}

std::shared_ptr<const std::string> DesignService::lookup_encoded(
    const std::string& key, const std::string& fingerprint,
    WireEncoding encoding) {
  if (cache_capacity_ == 0) return nullptr;
  // The hit branch of submit_encoded, minus its writes: same generation
  // rule, and a missing encoding is a miss here, not a fill.
  const Generation gen = current_generation(fingerprint);
  std::shared_ptr<const std::string> bytes;
  {
    std::lock_guard<std::mutex> cache_lock(cache_mutex_);
    const auto it = response_cache_.find(key);
    if (it == response_cache_.end() || it->second.gen != gen) return nullptr;
    bytes = it->second.encoded[static_cast<std::size_t>(encoding)];
  }
  if (bytes) count_cache_hit();
  return bytes;
}

void DesignService::count_cache_hit() {
  std::lock_guard<std::mutex> stats_lock(stats_mutex_);
  ++stats_.queries;
  ++stats_.response_cache_hits;
}

std::size_t DesignService::response_cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return response_cache_.size();
}

DesignService::Generation DesignService::current_generation(
    const std::string& fingerprint) const {
  Generation gen{0, 0};
  if (store_) gen.first = store_->generation();
  std::shared_lock<std::shared_mutex> lock(archive_mutex_);
  const auto it = archive_generation_.find(fingerprint);
  gen.second = it == archive_generation_.end() ? 0 : it->second;
  return gen;
}

ServiceStats DesignService::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

std::string to_json(const ServiceStats& stats) {
  std::ostringstream os;
  os << "{\"queries\":" << stats.queries
     << ",\"searches_launched\":" << stats.searches_launched
     << ",\"coalesced\":" << stats.coalesced
     << ",\"archive_answers\":" << stats.archive_answers
     << ",\"evaluations\":" << stats.evaluations
     << ",\"cache_hits\":" << stats.cache_hits
     << ",\"store_hits\":" << stats.store_hits
     << ",\"response_cache_hits\":" << stats.response_cache_hits
     << ",\"response_cache_misses\":" << stats.response_cache_misses
     << ",\"response_cache_invalidations\":"
     << stats.response_cache_invalidations << '}';
  return os.str();
}

std::string DesignService::stats_json() const {
  std::string doc = to_json(stats());
  doc.pop_back();  // reopen the object to append the store member
  std::ostringstream os;
  os << doc << ",\"store\":{\"attached\":" << (store_ ? "true" : "false");
  if (store_) {
    const StoreStats ss = store_->stats();
    os << ",\"entries\":" << store_->size() << ",\"hits\":" << ss.hits
       << ",\"misses\":" << ss.misses << ",\"appends\":" << ss.appends
       << ",\"divergent_duplicates\":" << ss.divergent_duplicates
       << ",\"dropped_writes\":" << ss.dropped_writes
       << ",\"degraded\":" << (ss.degraded ? "true" : "false")
       << ",\"lock_contention\":" << ss.lock_contention;
  }
  os << "}}";
  return os.str();
}

std::size_t DesignService::archive_size(const DesignQuery& query) const {
  const std::string fingerprint = query_fingerprint(query);
  // The population answer_from_archive merges: distinct grid points over
  // the store's entries for the scope and the in-memory archive.
  std::set<std::vector<int>> points;
  if (store_) {
    for (auto& [indices, fidelity, eval] : store_->entries_for(fingerprint)) {
      points.insert(std::move(indices));
    }
  }
  std::shared_lock<std::shared_mutex> lock(archive_mutex_);
  auto it = archives_.find(fingerprint);
  if (it != archives_.end()) {
    for (const auto& [indices, pt] : it->second) points.insert(indices);
  }
  return points.size();
}

DesignResponse DesignService::run_query(const DesignQuery& query) {
  if (query.archive_only) return answer_from_archive(query);

  search::SearchConfig config;
  config.initial_points_per_dim = query.budget.initial_points_per_dim;
  config.max_resolution = query.budget.max_resolution;
  config.regions_per_level = query.budget.regions_per_level;
  config.max_evaluations = query.budget.max_evaluations;
  config.store = store_;

  DesignResponse response;
  response.front_x = "area_mm2";
  search::SearchResult result;
  std::string fingerprint;
  search::Objective objective;

  if (query.kind == QueryKind::Viterbi) {
    const core::ViterbiMetaCore metacore(viterbi_requirements(query));
    fingerprint = metacore.evaluation_fingerprint();
    config.store_fingerprint = fingerprint;
    objective = query_objective(query, metacore.objective());
    // BER stays under Bayesian guard only while the (possibly replaced)
    // constraint set actually bounds it.
    const bool ber_bounded = std::any_of(
        objective.constraints.begin(), objective.constraints.end(),
        [](const search::Constraint& c) {
          return c.metric == "ber" &&
                 c.kind == search::Constraint::Kind::UpperBound;
        });
    if (ber_bounded) config.probabilistic_metric = "ber";
    const search::DesignSpace space = metacore.design_space();
    search::MultiresolutionSearch engine(space, objective,
                                         metacore.evaluator(), config);
    result = engine.run();
    // Same final high-fidelity pass ViterbiMetaCore::search applies.
    result = search::verify_top_candidates(
        std::move(result), space, objective, metacore.evaluator(), 5,
        config.max_resolution + 1, config.store.get(),
        config.store_fingerprint);
    response.front_y = "ber";
  } else {
    const core::IirMetaCore metacore(
        core::paper_bandpass_requirements(query.sample_period_us));
    fingerprint = metacore.evaluation_fingerprint();
    config.store_fingerprint = fingerprint;
    objective = query_objective(query, metacore.objective());
    search::MultiresolutionSearch engine(metacore.design_space(), objective,
                                         metacore.evaluator(), config);
    result = engine.run();
    response.front_y = "passband_ripple_db";
  }

  absorb_history(fingerprint, result.history);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.searches_launched;
    stats_.evaluations += result.evaluations;
    stats_.cache_hits += result.cache_hits;
    stats_.store_hits += result.store_hits;
  }

  response.feasible = result.found_feasible;
  response.best = result.best;
  response.evaluations = result.evaluations;
  response.cache_hits = result.cache_hits;
  response.store_hits = result.store_hits;
  response.divergent_duplicates = result.divergent_duplicates;
  response.front =
      search::pareto_front(result.history, response.front_x, response.front_y);
  response.summary = core::summarize(result, objective);
  if (store_ && store_->degraded()) {
    response.store_degraded = true;
    response.summary +=
        "; STORE DEGRADED: evaluations from this query were not persisted";
  }
  return response;
}

DesignResponse DesignService::answer_from_archive(const DesignQuery& query) {
  DesignResponse response;
  response.from_archive = true;
  response.front_x = "area_mm2";

  std::string fingerprint;
  search::Objective objective;
  std::optional<search::DesignSpace> space;
  if (query.kind == QueryKind::Viterbi) {
    const core::ViterbiMetaCore metacore(viterbi_requirements(query));
    fingerprint = metacore.evaluation_fingerprint();
    objective = query_objective(query, metacore.objective());
    space.emplace(metacore.design_space());
    response.front_y = "ber";
  } else {
    const core::IirMetaCore metacore(
        core::paper_bandpass_requirements(query.sample_period_us));
    fingerprint = metacore.evaluation_fingerprint();
    objective = query_objective(query, metacore.objective());
    space.emplace(metacore.design_space());
    response.front_y = "passband_ripple_db";
  }

  // Population: persisted store entries overlaid with this service's
  // in-memory archive, keyed by grid indices, highest fidelity winning.
  // Same-fingerprint evaluations are bit-identical per (indices, fidelity),
  // so the merge is order-independent.
  std::map<std::vector<int>, search::EvaluatedPoint> population;
  const auto merge = [&population](search::EvaluatedPoint pt) {
    std::vector<int> key = pt.indices;
    // try_emplace leaves `pt` untouched when the key is already held.
    auto [it, inserted] =
        population.try_emplace(std::move(key), std::move(pt));
    if (!inserted && pt.fidelity > it->second.fidelity) {
      it->second = std::move(pt);
    }
  };
  if (store_) {
    for (auto& [indices, fidelity, eval] : store_->entries_for(fingerprint)) {
      search::EvaluatedPoint pt;
      pt.values = space->values_at(indices);
      pt.indices = std::move(indices);
      pt.fidelity = fidelity;
      pt.eval = std::move(eval);
      merge(std::move(pt));
    }
  }
  {
    std::shared_lock<std::shared_mutex> lock(archive_mutex_);
    auto it = archives_.find(fingerprint);
    if (it != archives_.end()) {
      for (const auto& [indices, pt] : it->second) merge(pt);
    }
  }

  std::vector<search::EvaluatedPoint> satisfying;
  const search::EvaluatedPoint* best = nullptr;
  search::RankKey best_key;
  for (const auto& [indices, pt] : population) {
    const search::RankKey key = objective.rank_key(pt.eval);
    if (!best || search::Objective::better(key, best_key)) {
      best = &pt;
      best_key = key;
    }
    if (key.feasible) satisfying.push_back(pt);
  }
  if (best) {
    response.best = *best;
    response.feasible = best_key.feasible;
  }
  response.front =
      search::pareto_front(satisfying, response.front_x, response.front_y);

  std::ostringstream os;
  os << "archive answer over " << population.size() << " stored points ("
     << satisfying.size() << " satisfy the constraints): ";
  if (!best) {
    os << "no archived evaluations for this evaluator scope";
  } else if (!response.feasible) {
    os << "no archived point satisfies the constraints; closest returned";
  } else {
    os << "best " << objective.minimize << " = ";
    robust::write_double(os, best->eval.metric(objective.minimize));
  }
  response.summary = os.str();
  if (store_ && store_->degraded()) {
    response.store_degraded = true;
    response.summary += "; STORE DEGRADED: journal writes are suspended";
  }

  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.archive_answers;
  }
  return response;
}

void DesignService::absorb_history(
    const std::string& fingerprint,
    const std::vector<search::EvaluatedPoint>& history) {
  std::unique_lock<std::shared_mutex> lock(archive_mutex_);
  auto& archive = archives_[fingerprint];
  bool changed = false;
  for (const search::EvaluatedPoint& pt : history) {
    // A point the store holds reaches archive answers through
    // entries_for; keeping a second copy here would only grow memory.
    // Store appends advance the store generation, so the cache-validity
    // stamp still moves whenever the merged population does.
    if (store_ && store_->contains(fingerprint, pt.indices, pt.fidelity)) {
      continue;
    }
    auto [it, inserted] = archive.emplace(pt.indices, pt);
    if (inserted) {
      changed = true;
    } else if (pt.fidelity > it->second.fidelity) {
      it->second = pt;
      changed = true;
    }
  }
  // Only an actual change advances the generation: a warm replay that
  // re-absorbs known points leaves cached serialized responses valid.
  if (changed) ++archive_generation_[fingerprint];
}

}  // namespace metacore::serve
