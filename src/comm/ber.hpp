// Monte-Carlo bit-error-rate measurement: the "software simulation" arm of
// the paper's cost evaluation engine. Runs random data through
// encode -> BPSK -> AWGN -> decode and counts disagreements, with optional
// early termination once enough errors have been observed and Wilson
// confidence intervals on the estimate.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "comm/convolutional.hpp"
#include "comm/frame_decode.hpp"
#include "comm/multires_viterbi.hpp"
#include "comm/trellis.hpp"
#include "comm/viterbi.hpp"
#include "util/stats.hpp"

namespace metacore::comm {

/// The decoder taxonomy of the paper: pure hard decision, pure soft
/// decision (R2-bit), or multiresolution (R1-bit update, R2-bit refinement
/// of M paths).
enum class DecoderKind : std::uint8_t { Hard, Soft, Multires };

std::string to_string(DecoderKind kind);

/// Full specification of one decoder instance — the 8 parameters of the
/// paper's Table 2 plus the channel amplitude convention.
struct DecoderSpec {
  CodeSpec code;                 // K and G
  int traceback_depth = 15;      // L
  DecoderKind kind = DecoderKind::Hard;
  int low_res_bits = 1;          // R1 (multires only)
  int high_res_bits = 3;         // R2 (soft and multires)
  QuantizationMethod quantization = QuantizationMethod::AdaptiveSoft;  // Q
  int normalization_terms = 1;   // N (multires only)
  int num_high_res_paths = 1;    // M (multires only)

  /// Builds a decoder for the given channel conditions. The adaptive
  /// quantizer needs the true noise sigma, mirroring the paper's Es/N0-
  /// derived decision level D (Figure 4).
  std::unique_ptr<Decoder> make_decoder(const Trellis& trellis,
                                        double amplitude,
                                        double noise_sigma) const;

  /// Builds the frame-parallel counterpart: a lock-step decoder over
  /// `lanes` independent frames, each lane bit-identical to the decoder
  /// make_decoder would build (see comm/frame_decode.hpp). `lanes == 0`
  /// resolves via default_frame_lanes().
  std::unique_ptr<FrameDecoder> make_frame_decoder(const Trellis& trellis,
                                                   double amplitude,
                                                   double noise_sigma,
                                                   std::size_t lanes) const;

  std::string label() const;
};

/// Batch decode of independent frames through the frame-parallel SIMD
/// path. `frames[i]` holds raw channel samples (a multiple of
/// symbols_per_step); the result is exactly
/// `spec.make_decoder(trellis, amplitude, noise_sigma)->decode(frames[i])`
/// for every frame — block bits plus the flush tail, in input order —
/// regardless of `lanes` (0 = default_frame_lanes()). Ragged lengths are
/// handled by grouping similar-length frames into lane groups and
/// capturing each frame's flush at the step its samples end.
std::vector<std::vector<int>> decode_frames(
    const DecoderSpec& spec, const Trellis& trellis, double amplitude,
    double noise_sigma, std::span<const std::span<const double>> frames,
    std::size_t lanes = 0);

struct BerRunConfig {
  std::uint64_t max_bits = 200'000;   ///< simulation length cap per point
  std::uint64_t max_errors = 2'000;   ///< stop early once this many errors seen
  std::uint64_t min_bits = 10'000;    ///< never stop before this many bits
  std::uint64_t seed = 0xC0FFEE;      ///< base RNG seed
  /// Sequential decision test: when nonzero, the run also stops as soon as
  /// the Wilson 95% interval confidently separates from this threshold
  /// (upper bound < threshold/1.5 -> confident pass; lower bound >
  /// 1.5*threshold -> confident fail). Decision-directed runs finish in a
  /// fraction of max_bits on clear points; only borderline candidates pay
  /// the full budget. The resulting point estimate is mildly biased by the
  /// stopping rule — use it against thresholds, not as a curve sample.
  double decision_ber = 0.0;
  /// Number of independent simulation streams the run is split into. Each
  /// shard gets its own counter-based RNG stream (util::substream_key) and
  /// a 1/shards slice of the bit/error budgets; shards fan out across the
  /// exec thread pool and reduce in shard order, so the measurement is
  /// bit-identical for a given shard count regardless of thread count (and
  /// `shards = 1` reproduces the historical single-stream measurement
  /// exactly). Early-stopping rules apply per shard.
  int shards = 1;
  /// Upper bound on how many shards share one frame-parallel decoder (the
  /// SIMD lane axis; see comm/frame_decode.hpp). 0 = auto
  /// (default_frame_lanes(), i.e. the dispatched ISA's vector width or the
  /// METACORE_LANES override); 1 forces the degenerate one-stream-per-
  /// decoder path. How shards fill lanes and threads (frames x threads x
  /// lanes) is ber_lane_group_size's policy, and because every lane is
  /// bit-identical to a standalone decoder, this knob NEVER changes the
  /// measurement — only its throughput.
  int lanes = 0;
};

struct BerPoint {
  double esn0_db = 0.0;
  util::ProportionEstimate errors;  ///< bit errors over decoded bits
  double ber() const { return errors.rate(); }
};

/// Shards per frame-parallel decoder (lane group) in a sharded measure_ber
/// run of `spec`, with `lane_cap` the resolved BerRunConfig::lanes and
/// `pool_threads` the threads the call can fan out to: the global pool's
/// size at top level, 1 when called from inside pool work (where its
/// parallel_for runs inline) or on a serial pool. Groups fill the threads
/// (`ceil(shards / pool_threads)` shards each, capped by `lane_cap`), but a
/// Viterbi group is never narrower than the smallest lane count whose ACS
/// runs a vector kernel (simd::frame_kernel_isa; 4 on SSE4.2 and up). A
/// narrower group runs the scalar kernel; one vector group on one thread
/// costs a fraction of the CPU time of that many scalar groups on as many
/// threads, is faster outright at long constraint lengths, and needs no
/// cross-thread hand-off per measurement. Multires groups only fill the
/// threads, because their per-lane path refinement is scalar. Depends on
/// the dispatched (or forced) ISA, never on runtime load.
std::size_t ber_lane_group_size(const DecoderSpec& spec, std::size_t shards,
                                std::size_t lane_cap,
                                std::size_t pool_threads);

/// Measures BER for one decoder spec at one channel point.
BerPoint measure_ber(const DecoderSpec& spec, double esn0_db,
                     const BerRunConfig& config);

/// Measures a whole BER-vs-Es/N0 curve (one Figure-1/Figure-8 series).
std::vector<BerPoint> measure_ber_curve(const DecoderSpec& spec,
                                        const std::vector<double>& esn0_db_points,
                                        const BerRunConfig& config);

/// Process-wide count of decoded-and-counted bits across every measure_ber
/// stream since startup (monotone; thread-safe). Benchmark harnesses diff
/// it around a timed region to report decode throughput, e.g. the
/// decoded_bits_per_second field in BENCH_search.json.
///
/// Ordering guarantee: the counter uses relaxed atomics — it is a
/// statistics counter, never a synchronization point, so reads impose no
/// memory-ordering cost on the decode hot path. A diff taken around a
/// region whose worker threads have been joined (as the search benchmarks
/// do: measure_ber only returns after its shard tasks complete, and the
/// thread pool's task-completion handshake is an acquire/release edge) is
/// exact — every increment from inside the region is visible, and none can
/// leak in from outside it. Concurrent readers see a monotone,
/// possibly-stale value.
std::uint64_t ber_decoded_bits_total();

}  // namespace metacore::comm
