// perfbench_tool: the compiled half of the benchmark; run.py calls it.
// Subcommands:
//
//   seed   write the evaluation store the server opens
//   load   closed-loop load generator against a running design server
//   probe  the traced run's per-layer probes, in-process
//   host   provenance: dispatched ISA, lane counts, CRC32C backend
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"

namespace perfbench {
int run_seed(const Args& args);
int run_load(const Args& args);
int run_probe(const Args& args);
int run_host(const Args& args);
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  try {
    const perfbench::Args args(argc, argv, 2);
    if (cmd == "seed") return perfbench::run_seed(args);
    if (cmd == "load") return perfbench::run_load(args);
    if (cmd == "probe") return perfbench::run_probe(args);
    if (cmd == "host") return perfbench::run_host(args);
    std::cerr << "usage: perfbench_tool seed|load|probe|host [--key value ...]\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_tool " << cmd << ": " << e.what() << "\n";
    return 1;
  }
}
