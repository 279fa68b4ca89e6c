// Runtime kernel dispatch: CPUID feature detection, the METACORE_SIMD
// environment override, and the atomically swappable kernel table. The
// selection is resolved once (first use) and cached; force_isa() re-points
// the table for tests and benchmarks. Loads are relaxed — the table entries
// are plain function pointers and the kernels themselves are stateless, so
// there is nothing to synchronize beyond the pointer value itself.
#include <atomic>
#include <cstdlib>
#include <stdexcept>

#include "comm/simd/acs_kernel.hpp"

namespace metacore::comm::simd {

namespace {

struct KernelTable {
  ViterbiAcsFn viterbi;
  MultiresAcsFn multires;
  FrameViterbiAcsFn frame_viterbi;
  FrameMultiresAcsFn frame_multires;
  QuantizeBlockFn quantize;
};

KernelTable table_for(Isa isa) {
  switch (isa) {
    case Isa::Scalar:
      return {detail::viterbi_acs_scalar, detail::multires_acs_scalar,
              detail::frame_viterbi_acs_scalar,
              detail::frame_multires_acs_scalar, detail::quantize_block_scalar};
#if METACORE_SIMD_HAVE_SSE4
    case Isa::Sse4:
      return {detail::viterbi_acs_sse4, detail::multires_acs_sse4,
              detail::frame_viterbi_acs_sse4, detail::frame_multires_acs_sse4,
              detail::quantize_block_sse4};
#endif
#if METACORE_SIMD_HAVE_AVX2
    case Isa::Avx2:
      return {detail::viterbi_acs_avx2, detail::multires_acs_avx2,
              detail::frame_viterbi_acs_avx2, detail::frame_multires_acs_avx2,
              detail::quantize_block_avx2};
#endif
#if METACORE_SIMD_HAVE_AVX512
    case Isa::Avx512:
      return {detail::viterbi_acs_avx512, detail::multires_acs_avx512,
              detail::frame_viterbi_acs_avx512,
              detail::frame_multires_acs_avx512, detail::quantize_block_avx512};
#endif
    default:
      throw std::runtime_error("simd: kernel tier not compiled in: " +
                               to_string(isa));
  }
}

bool cpu_supports(Isa isa) {
  switch (isa) {
    case Isa::Scalar:
      return true;
#if defined(__x86_64__) || defined(__i386__)
    case Isa::Sse4:
      return __builtin_cpu_supports("sse4.2") != 0;
    case Isa::Avx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Isa::Avx512:
      return __builtin_cpu_supports("avx512f") != 0;
#else
    case Isa::Sse4:
    case Isa::Avx2:
    case Isa::Avx512:
      return false;
#endif
  }
  return false;
}

Isa best_available() {
  if (isa_available(Isa::Avx512)) return Isa::Avx512;
  if (isa_available(Isa::Avx2)) return Isa::Avx2;
  if (isa_available(Isa::Sse4)) return Isa::Sse4;
  return Isa::Scalar;
}

/// Startup selection: METACORE_SIMD if set, else the best available tier.
Isa initial_isa() {
  const char* env = std::getenv("METACORE_SIMD");
  if (env == nullptr || *env == '\0') return best_available();
  const std::string value(env);
  Isa requested;
  if (value == "scalar") {
    requested = Isa::Scalar;
  } else if (value == "sse4") {
    requested = Isa::Sse4;
  } else if (value == "avx2") {
    requested = Isa::Avx2;
  } else if (value == "avx512") {
    requested = Isa::Avx512;
  } else {
    throw std::invalid_argument(
        "METACORE_SIMD must be 'scalar', 'sse4', 'avx2', or 'avx512', got '" +
        value + "'");
  }
  if (!isa_available(requested)) {
    throw std::runtime_error("METACORE_SIMD=" + value +
                             " requested but that tier is " +
                             (isa_compiled(requested)
                                  ? "not supported by this CPU"
                                  : "not compiled into this binary"));
  }
  return requested;
}

/// The dispatch state. The Isa enum and the kernel pointers are stored in
/// separate atomics, all written together under force_isa; readers only
/// ever need one pointer at a time, and every tier is bit-identical, so a
/// racing reader observing a mixed table is still correct (it merely runs
/// one step on the previous tier).
struct Dispatch {
  std::atomic<Isa> isa;
  std::atomic<ViterbiAcsFn> viterbi;
  std::atomic<MultiresAcsFn> multires;
  std::atomic<FrameViterbiAcsFn> frame_viterbi;
  std::atomic<FrameMultiresAcsFn> frame_multires;
  std::atomic<QuantizeBlockFn> quantize;

  Dispatch() {
    const Isa selected = initial_isa();
    const KernelTable table = table_for(selected);
    isa.store(selected, std::memory_order_relaxed);
    viterbi.store(table.viterbi, std::memory_order_relaxed);
    multires.store(table.multires, std::memory_order_relaxed);
    frame_viterbi.store(table.frame_viterbi, std::memory_order_relaxed);
    frame_multires.store(table.frame_multires, std::memory_order_relaxed);
    quantize.store(table.quantize, std::memory_order_relaxed);
  }
};

Dispatch& dispatch() {
  static Dispatch d;  // thread-safe magic-static init; throws propagate
  return d;
}

KernelTable table_for_checked(Isa isa) {
  if (!isa_available(isa)) {
    throw std::runtime_error("simd: tier unavailable: " + to_string(isa));
  }
  return table_for(isa);
}

}  // namespace

std::string to_string(Isa isa) {
  switch (isa) {
    case Isa::Scalar:
      return "scalar";
    case Isa::Sse4:
      return "sse4";
    case Isa::Avx2:
      return "avx2";
    case Isa::Avx512:
      return "avx512";
  }
  return "?";
}

bool isa_compiled(Isa isa) {
  switch (isa) {
    case Isa::Scalar:
      return true;
    case Isa::Sse4:
#if METACORE_SIMD_HAVE_SSE4
      return true;
#else
      return false;
#endif
    case Isa::Avx2:
#if METACORE_SIMD_HAVE_AVX2
      return true;
#else
      return false;
#endif
    case Isa::Avx512:
#if METACORE_SIMD_HAVE_AVX512
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool isa_available(Isa isa) { return isa_compiled(isa) && cpu_supports(isa); }

Isa dispatched_isa() {
  return dispatch().isa.load(std::memory_order_relaxed);
}

void force_isa(Isa isa) {
  if (!isa_available(isa)) {
    throw std::runtime_error("simd::force_isa: tier unavailable: " +
                             to_string(isa));
  }
  const KernelTable table = table_for(isa);
  Dispatch& d = dispatch();
  d.isa.store(isa, std::memory_order_relaxed);
  d.viterbi.store(table.viterbi, std::memory_order_relaxed);
  d.multires.store(table.multires, std::memory_order_relaxed);
  d.frame_viterbi.store(table.frame_viterbi, std::memory_order_relaxed);
  d.frame_multires.store(table.frame_multires, std::memory_order_relaxed);
  d.quantize.store(table.quantize, std::memory_order_relaxed);
}

std::size_t natural_frame_lanes(Isa isa) {
  switch (isa) {
    case Isa::Avx512:
      return 16;  // one ZMM register of int32 path metrics
    case Isa::Avx2:
      return 8;  // one YMM register
    case Isa::Sse4:
    case Isa::Scalar:
      return 4;  // one XMM register; scalar matches so lane counts agree
  }
  return 4;
}

std::size_t frame_vector_lanes(Isa isa, FrameMetric metric) {
  if (isa == Isa::Scalar) return 1;
  const std::size_t int32_lanes = natural_frame_lanes(isa);
  // A double takes two int32 slots of the same register.
  return metric == FrameMetric::Int32 ? int32_lanes : int32_lanes / 2;
}

Isa frame_kernel_isa(FrameMetric metric, std::size_t lanes, Isa ceiling) {
  for (auto tier = static_cast<int>(ceiling); tier > 0; --tier) {
    const auto isa = static_cast<Isa>(tier);
    if (isa_available(isa) && frame_vector_lanes(isa, metric) <= lanes) {
      return isa;
    }
  }
  return Isa::Scalar;
}

Isa frame_kernel_isa(FrameMetric metric, std::size_t lanes) {
  return frame_kernel_isa(metric, lanes, dispatched_isa());
}

ViterbiAcsFn viterbi_acs() {
  return dispatch().viterbi.load(std::memory_order_relaxed);
}
MultiresAcsFn multires_acs() {
  return dispatch().multires.load(std::memory_order_relaxed);
}
FrameViterbiAcsFn frame_viterbi_acs() {
  return dispatch().frame_viterbi.load(std::memory_order_relaxed);
}
FrameMultiresAcsFn frame_multires_acs() {
  return dispatch().frame_multires.load(std::memory_order_relaxed);
}
QuantizeBlockFn quantize_block() {
  return dispatch().quantize.load(std::memory_order_relaxed);
}

ViterbiAcsFn viterbi_acs(Isa isa) { return table_for_checked(isa).viterbi; }
MultiresAcsFn multires_acs(Isa isa) { return table_for_checked(isa).multires; }
FrameViterbiAcsFn frame_viterbi_acs(Isa isa) {
  return table_for_checked(isa).frame_viterbi;
}
FrameMultiresAcsFn frame_multires_acs(Isa isa) {
  return table_for_checked(isa).frame_multires;
}
QuantizeBlockFn quantize_block(Isa isa) {
  return table_for_checked(isa).quantize;
}

}  // namespace metacore::comm::simd
