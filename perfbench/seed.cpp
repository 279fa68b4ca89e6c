// Store seeding, run before the server starts and outside every timed
// phase. Everything goes through the public EvaluationStore and
// DesignService APIs:
//
//   * a background journal of synthetic evaluator scopes (Viterbi
//     requirement points at another channel point than any workload
//     query), sized so that opening the store is a visible part of server
//     set-up;
//   * optionally, real searches for the warm workloads' scopes, so the
//     server can replay them from the store without calling the evaluator.
#include <cmath>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/viterbi_metacore.hpp"
#include "serve/service.hpp"
#include "serve/store.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// `seed --store P --seed N --background-scopes S
///       [--queries F --scopes F]`
int run_seed(const Args& args) {
  const std::string path = args.str("store");
  const auto seed = static_cast<std::uint64_t>(args.num("seed", 1));
  const auto scopes = static_cast<std::size_t>(args.num("background-scopes", 0));
  auto store = std::make_shared<serve::EvaluationStore>(path);

  util::Random rng(util::substream_key(seed, 0xBAC6));
  std::size_t records = 0;
  for (std::size_t s = 0; s < scopes; ++s) {
    core::ViterbiRequirements req;
    req.esn0_db = 3.0;  // workload queries all sit at 1.0 dB
    req.target_ber = 1e-3 * (1.0 + rng.uniform());
    req.throughput_mbps = 1.0 + static_cast<double>(s) * 1e-3 + rng.uniform() * 1e-4;
    req.ber_shards = 4;
    const core::ViterbiMetaCore metacore(req);
    const std::string fingerprint = metacore.evaluation_fingerprint();
    const search::DesignSpace space = metacore.design_space();
    const auto& params = space.parameters();
    std::set<std::pair<std::vector<int>, int>> keys;
    while (keys.size() < 40) {
      std::vector<int> indices;
      for (const auto& p : params) {
        indices.push_back(static_cast<int>(rng.uniform_index(p.values.size())));
      }
      keys.emplace(std::move(indices), keys.size() < 35 ? 0 : 1);
    }
    for (const auto& [indices, fidelity] : keys) {
      search::Evaluation eval;
      eval.feasible = rng.uniform() < 0.8;
      eval.metrics["ber"] = std::pow(10.0, -1.0 - 3.0 * rng.uniform());
      eval.metrics["area_mm2"] = 0.5 + 5.0 * rng.uniform();
      eval.metrics["cycles_per_bit"] = 1.0 + 10.0 * rng.uniform();
      eval.metrics["required_clock_mhz"] = 10.0 + 200.0 * rng.uniform();
      eval.metrics["cores"] = static_cast<double>(1 + rng.uniform_index(4));
      eval.confidence_weight = static_cast<double>(8000 + rng.uniform_index(100000));
      store->record(fingerprint, indices, fidelity, eval);
      ++records;
    }
  }

  std::size_t searched = 0;
  if (args.has("queries")) {
    const std::vector<std::string> table = read_lines(args.str("queries"));
    std::vector<serve::DesignQuery> batch;
    for (const std::size_t i : read_indices(args.str("scopes"))) {
      batch.push_back(serve::parse_design_query(table.at(i)));
    }
    serve::ServiceConfig config;
    config.store = store;
    serve::DesignService service(config);
    for (const serve::DesignResponse& r : service.submit_batch(batch)) {
      if (r.evaluations == 0) {
        throw std::runtime_error("seed search evaluated nothing");
      }
    }
    searched = batch.size();
  }
  std::cout << "{\"background_records\":" << records
            << ",\"searched_scopes\":" << searched
            << ",\"entries\":" << store->size() << "}" << std::endl;
  return 0;
}

}  // namespace perfbench
