// State-parallel and frame-parallel decoder kernels with runtime ISA
// dispatch. The decode hot path (Section 3.2's add-compare-select recursion)
// operates on the flat structure-of-arrays trellis view
// (`Trellis::pred_states` / `pred_symbols`) and per-step branch-metric
// tables, so one trellis step is a pure data-parallel butterfly update over
// all states. This layer provides that update as free-function kernels in
// four implementations — a portable scalar reference, SSE4.2, AVX2, and
// AVX-512 — selected once at startup by CPUID (overridable via
// METACORE_SIMD=scalar|sse4|avx2|avx512, or programmatically via force_isa
// for tests and benchmarks). Every implementation is bit-identical to the
// scalar reference: same compare-select tie-breaking (ties toward
// predecessor branch 0), same first-minimum semantics for the traceback
// start state, same survivor bytes.
//
// Two parallelization axes are provided:
//  * State-parallel kernels vectorize one frame's trellis step across its
//    states (gathered table reads; saturate only at large K).
//  * Frame-parallel kernels vectorize one state's update across L
//    *independent frames* whose path metrics are interleaved lane-major
//    (`acc[state * lanes + lane]`), so every vector load is contiguous and
//    small-K trellises still fill the vector width. See comm/frame_decode.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace metacore::comm::simd {

/// Instruction-set tiers, in dispatch preference order (highest wins).
enum class Isa : std::uint8_t { Scalar = 0, Sse4 = 1, Avx2 = 2, Avx512 = 3 };

std::string to_string(Isa isa);

/// True when the kernel TUs for `isa` were compiled into this binary (the
/// SSE4.2/AVX2/AVX-512 TUs are ISA-guarded in CMake and absent on non-x86
/// builds or with compilers lacking the -m flags).
bool isa_compiled(Isa isa);

/// True when `isa` is compiled in AND the running CPU supports it; Scalar
/// is always available.
bool isa_available(Isa isa);

/// The currently dispatched tier. Resolved once on first use: the
/// METACORE_SIMD environment override if set (invalid values throw
/// std::invalid_argument, unavailable tiers throw std::runtime_error),
/// otherwise the best available tier.
Isa dispatched_isa();

/// Re-points the dispatched kernels at `isa` (throws std::runtime_error if
/// unavailable). Test/benchmark hook: the equivalence matrix and the
/// simd-vs-scalar bench pass flip tiers inside one process. Not intended
/// for use while decoders are running on other threads.
void force_isa(Isa isa);

/// Natural frame-lane count for a tier: the number of int32 path metrics
/// one vector register holds (scalar/SSE4.2: 4, AVX2: 8, AVX-512: 16). The
/// frame-parallel decoders use this as the default lane count; any lane
/// count >= 1 is legal on every tier (vector-width chunks plus a scalar
/// tail), and the decoded output is lane-count-invariant by construction.
std::size_t natural_frame_lanes(Isa isa);

/// Path-metric element type of a frame-parallel kernel: int32 for the
/// Viterbi ACS, double for the multiresolution low-res ACS. It fixes how
/// many frames one vector register holds.
enum class FrameMetric : std::uint8_t { Int32, Double };

/// Frames one vector register of `isa` holds for `metric`: int32 takes
/// 16 / 8 / 4 on AVX-512 / AVX2 / SSE4.2, double takes 8 / 4 / 2; the
/// scalar reference handles 1 at a time.
std::size_t frame_vector_lanes(Isa isa, FrameMetric metric);

/// The tier a `lanes`-wide frame decoder runs its ACS kernel on: the
/// widest available tier at or below `ceiling` whose vector fits into
/// `lanes` (scalar when none does). A tier's kernel only vectorizes whole
/// vectors and finishes the rest in a scalar tail, so a 4-lane decoder on
/// an AVX-512 host runs the SSE4.2 int32 kernel instead of the AVX-512
/// one's all-scalar tail. Every tier is bit-identical, so this is a pure
/// throughput choice. The form without `ceiling` uses dispatched_isa(),
/// so a METACORE_SIMD or force_isa choice is never exceeded.
Isa frame_kernel_isa(FrameMetric metric, std::size_t lanes, Isa ceiling);
Isa frame_kernel_isa(FrameMetric metric, std::size_t lanes);

/// Result of one full ACS step: the running minimum over the updated path
/// metrics and the first state index achieving it (the traceback start
/// state; "first" matches std::min_element tie-breaking).
struct AcsStepResult {
  std::int32_t best_metric;
  std::uint32_t best_state;
};

/// One Viterbi ACS trellis step over `num_states` states with int32 path
/// metrics. For each state s, candidates are
///   acc[pred_state[2s+b]] + metric_by_pattern[pred_symbols[2s+b]], b=0,1;
/// the smaller wins (tie -> branch 0), the winning metric is written to
/// next_acc[s] and the winning branch index to survivor_row[s].
/// `acc`/`next_acc` must not alias.
using ViterbiAcsFn = AcsStepResult (*)(const std::int32_t* acc,
                                       std::int32_t* next_acc,
                                       const std::uint32_t* pred_state,
                                       const std::uint32_t* pred_symbols,
                                       const std::int32_t* metric_by_pattern,
                                       std::uint8_t* survivor_row,
                                       std::size_t num_states);

/// One multiresolution low-resolution ACS step (phase 1 of Section 3.3)
/// with double path metrics and pre-scaled branch metrics: candidates are
///   acc[pred_state[2s+b]] + scaled_metric_by_pattern[pred_symbols[2s+b]].
/// Besides next_acc and survivor_row, the winning branch's scaled metric is
/// written to winning_scaled_metric[s] (phase 2's correction term needs
/// it). No minimum is tracked: the floor scan runs after the high-res
/// refinement mutates the M best states.
using MultiresAcsFn = void (*)(const double* acc, double* next_acc,
                               const std::uint32_t* pred_state,
                               const std::uint32_t* pred_symbols,
                               const double* scaled_metric_by_pattern,
                               std::uint8_t* survivor_row,
                               double* winning_scaled_metric,
                               std::size_t num_states);

/// One frame-parallel Viterbi ACS trellis step: `lanes` independent frames'
/// int32 path metrics interleaved lane-major (frame l's metric for state s
/// at acc[s * lanes + l]; frame l's branch metric for symbol pattern p at
/// metric_by_pattern[p * lanes + l]; survivor byte at
/// survivor_row[s * lanes + l]). The trellis structure (pred_state /
/// pred_symbols, both indexed 2s+b) is shared by every lane, so all vector
/// loads are contiguous — no gathers. Semantics per lane are exactly
/// ViterbiAcsFn's: ties toward branch 0, and the per-lane running minimum /
/// first argmin state land in best_metric[l] / best_state[l].
using FrameViterbiAcsFn = void (*)(const std::int32_t* acc,
                                   std::int32_t* next_acc,
                                   const std::uint32_t* pred_state,
                                   const std::uint32_t* pred_symbols,
                                   const std::int32_t* metric_by_pattern,
                                   std::uint8_t* survivor_row,
                                   std::size_t num_states, std::size_t lanes,
                                   std::int32_t* best_metric,
                                   std::uint32_t* best_state);

/// Frame-parallel multiresolution low-res ACS step: the lane-major layout
/// of FrameViterbiAcsFn with double path metrics and per-lane winning
/// scaled branch metrics (winning_scaled_metric[s * lanes + l]). No minimum
/// is tracked, mirroring MultiresAcsFn.
using FrameMultiresAcsFn = void (*)(const double* acc, double* next_acc,
                                    const std::uint32_t* pred_state,
                                    const std::uint32_t* pred_symbols,
                                    const double* scaled_metric_by_pattern,
                                    std::uint8_t* survivor_row,
                                    double* winning_scaled_metric,
                                    std::size_t num_states, std::size_t lanes);

/// Batch quantization: out[i] = clamp(floor((rx[i] - offset) / step), 0,
/// max_level) for i in [0, count), computed branchlessly (the clamp happens
/// in the double domain before conversion, so the kernel is defined for any
/// finite input). Bit-identical to Quantizer::quantize per sample.
using QuantizeBlockFn = void (*)(const double* rx, int* out, std::size_t count,
                                 double step, double offset, int max_level);

/// The dispatched kernels (resolved per dispatched_isa()/force_isa()).
ViterbiAcsFn viterbi_acs();
MultiresAcsFn multires_acs();
FrameViterbiAcsFn frame_viterbi_acs();
FrameMultiresAcsFn frame_multires_acs();
QuantizeBlockFn quantize_block();

/// Per-tier kernel access for the equivalence tests; throws
/// std::runtime_error when `isa` is not available.
ViterbiAcsFn viterbi_acs(Isa isa);
MultiresAcsFn multires_acs(Isa isa);
FrameViterbiAcsFn frame_viterbi_acs(Isa isa);
FrameMultiresAcsFn frame_multires_acs(Isa isa);
QuantizeBlockFn quantize_block(Isa isa);

namespace detail {
// Kernel entry points per tier. The scalar reference is always compiled;
// the SSE4.2/AVX2/AVX-512 TUs exist only when CMake enabled them (the
// METACORE_SIMD_HAVE_* macros gate the dispatch table, never the callers).
AcsStepResult viterbi_acs_scalar(const std::int32_t* acc,
                                 std::int32_t* next_acc,
                                 const std::uint32_t* pred_state,
                                 const std::uint32_t* pred_symbols,
                                 const std::int32_t* metric_by_pattern,
                                 std::uint8_t* survivor_row,
                                 std::size_t num_states);
void multires_acs_scalar(const double* acc, double* next_acc,
                         const std::uint32_t* pred_state,
                         const std::uint32_t* pred_symbols,
                         const double* scaled_metric_by_pattern,
                         std::uint8_t* survivor_row,
                         double* winning_scaled_metric,
                         std::size_t num_states);
void quantize_block_scalar(const double* rx, int* out, std::size_t count,
                           double step, double offset, int max_level);
void frame_viterbi_acs_scalar(const std::int32_t* acc, std::int32_t* next_acc,
                              const std::uint32_t* pred_state,
                              const std::uint32_t* pred_symbols,
                              const std::int32_t* metric_by_pattern,
                              std::uint8_t* survivor_row,
                              std::size_t num_states, std::size_t lanes,
                              std::int32_t* best_metric,
                              std::uint32_t* best_state);
void frame_multires_acs_scalar(const double* acc, double* next_acc,
                               const std::uint32_t* pred_state,
                               const std::uint32_t* pred_symbols,
                               const double* scaled_metric_by_pattern,
                               std::uint8_t* survivor_row,
                               double* winning_scaled_metric,
                               std::size_t num_states, std::size_t lanes);

AcsStepResult viterbi_acs_sse4(const std::int32_t* acc, std::int32_t* next_acc,
                               const std::uint32_t* pred_state,
                               const std::uint32_t* pred_symbols,
                               const std::int32_t* metric_by_pattern,
                               std::uint8_t* survivor_row,
                               std::size_t num_states);
void multires_acs_sse4(const double* acc, double* next_acc,
                       const std::uint32_t* pred_state,
                       const std::uint32_t* pred_symbols,
                       const double* scaled_metric_by_pattern,
                       std::uint8_t* survivor_row,
                       double* winning_scaled_metric,
                       std::size_t num_states);
void quantize_block_sse4(const double* rx, int* out, std::size_t count,
                         double step, double offset, int max_level);
void frame_viterbi_acs_sse4(const std::int32_t* acc, std::int32_t* next_acc,
                            const std::uint32_t* pred_state,
                            const std::uint32_t* pred_symbols,
                            const std::int32_t* metric_by_pattern,
                            std::uint8_t* survivor_row,
                            std::size_t num_states, std::size_t lanes,
                            std::int32_t* best_metric,
                            std::uint32_t* best_state);
void frame_multires_acs_sse4(const double* acc, double* next_acc,
                             const std::uint32_t* pred_state,
                             const std::uint32_t* pred_symbols,
                             const double* scaled_metric_by_pattern,
                             std::uint8_t* survivor_row,
                             double* winning_scaled_metric,
                             std::size_t num_states, std::size_t lanes);

AcsStepResult viterbi_acs_avx2(const std::int32_t* acc, std::int32_t* next_acc,
                               const std::uint32_t* pred_state,
                               const std::uint32_t* pred_symbols,
                               const std::int32_t* metric_by_pattern,
                               std::uint8_t* survivor_row,
                               std::size_t num_states);
void multires_acs_avx2(const double* acc, double* next_acc,
                       const std::uint32_t* pred_state,
                       const std::uint32_t* pred_symbols,
                       const double* scaled_metric_by_pattern,
                       std::uint8_t* survivor_row,
                       double* winning_scaled_metric,
                       std::size_t num_states);
void quantize_block_avx2(const double* rx, int* out, std::size_t count,
                         double step, double offset, int max_level);
void frame_viterbi_acs_avx2(const std::int32_t* acc, std::int32_t* next_acc,
                            const std::uint32_t* pred_state,
                            const std::uint32_t* pred_symbols,
                            const std::int32_t* metric_by_pattern,
                            std::uint8_t* survivor_row,
                            std::size_t num_states, std::size_t lanes,
                            std::int32_t* best_metric,
                            std::uint32_t* best_state);
void frame_multires_acs_avx2(const double* acc, double* next_acc,
                             const std::uint32_t* pred_state,
                             const std::uint32_t* pred_symbols,
                             const double* scaled_metric_by_pattern,
                             std::uint8_t* survivor_row,
                             double* winning_scaled_metric,
                             std::size_t num_states, std::size_t lanes);

AcsStepResult viterbi_acs_avx512(const std::int32_t* acc,
                                 std::int32_t* next_acc,
                                 const std::uint32_t* pred_state,
                                 const std::uint32_t* pred_symbols,
                                 const std::int32_t* metric_by_pattern,
                                 std::uint8_t* survivor_row,
                                 std::size_t num_states);
void multires_acs_avx512(const double* acc, double* next_acc,
                         const std::uint32_t* pred_state,
                         const std::uint32_t* pred_symbols,
                         const double* scaled_metric_by_pattern,
                         std::uint8_t* survivor_row,
                         double* winning_scaled_metric,
                         std::size_t num_states);
void quantize_block_avx512(const double* rx, int* out, std::size_t count,
                           double step, double offset, int max_level);
void frame_viterbi_acs_avx512(const std::int32_t* acc, std::int32_t* next_acc,
                              const std::uint32_t* pred_state,
                              const std::uint32_t* pred_symbols,
                              const std::int32_t* metric_by_pattern,
                              std::uint8_t* survivor_row,
                              std::size_t num_states, std::size_t lanes,
                              std::int32_t* best_metric,
                              std::uint32_t* best_state);
void frame_multires_acs_avx512(const double* acc, double* next_acc,
                               const std::uint32_t* pred_state,
                               const std::uint32_t* pred_symbols,
                               const double* scaled_metric_by_pattern,
                               std::uint8_t* survivor_row,
                               double* winning_scaled_metric,
                               std::size_t num_states, std::size_t lanes);
}  // namespace detail

}  // namespace metacore::comm::simd
