// Frame-parallel (lane-parallel) Viterbi decoding: L independent frames
// advance through their trellises in lock-step, with all per-state data
// interleaved lane-major — frame l's path metric for state s lives at
// acc[s * lanes + l] — so one SIMD ACS butterfly updates every frame at
// once from contiguous loads (see comm/simd/acs_kernel.hpp). This is the
// second multiplicative throughput axis on the decode hot path: the
// state-parallel kernels saturate only at large constraint lengths, while
// the lane axis is full-width at any K because the lanes are independent
// streams, the batching idiom production basestation decoders use.
//
// Every lane is bit-identical to a standalone single-frame decoder fed the
// same samples: the kernels replicate the scalar compare-select semantics
// per lane (ties toward branch 0, strict-< first-argmin for the traceback
// start state), renormalization fires per lane on the lane's own floor,
// and the shared lock-step structure (step counter, survivor ring rows,
// bits-emitted count) is identical across lanes by construction. The lane
// count is therefore a pure throughput knob — results never depend on it —
// which is what lets measure_ber regroup its shards into lanes without
// perturbing a single golden value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "comm/multires_viterbi.hpp"
#include "comm/quantizer.hpp"
#include "comm/simd/acs_kernel.hpp"
#include "comm/trellis.hpp"
#include "comm/viterbi.hpp"

namespace metacore::comm {

/// Default lane count for frame-parallel decoding: the METACORE_LANES
/// environment override when set (an integer in [1, 256]; invalid values
/// throw std::invalid_argument — METACORE_LANES=1 is the degenerate
/// single-lane path CI exercises), otherwise the dispatched ISA tier's
/// natural vector width in int32 path metrics (4 / 4 / 8 / 16 for
/// scalar / SSE4.2 / AVX2 / AVX-512).
std::size_t default_frame_lanes();

/// Abstract lock-step decoder over `lanes()` independent frames. All lanes
/// advance together: decode_chunk consumes the same number of trellis
/// steps from every lane and emits the same number of decoded bits to
/// every lane (the lock-step pipeline fill is shared). A lane whose frame
/// is shorter than the chunk being decoded can be fed arbitrary (e.g.
/// zero) samples past its end — its decoded prefix and flush are captured
/// at the moment the frame ends and later garbage never reaches them.
class FrameDecoder {
 public:
  virtual ~FrameDecoder() = default;

  virtual std::size_t lanes() const = 0;

  /// Advances every lane by `steps` trellis steps. `rx[l]` must hold
  /// steps * symbols_per_step raw channel samples for lane l; decoded bits
  /// are appended at out[l][0..written) where `written` (the return value,
  /// identical for all lanes) is at most `steps` and smaller while the
  /// traceback window fills. Chunk boundaries never change the decoded
  /// streams.
  virtual std::size_t decode_chunk(const double* const* rx, std::size_t steps,
                                   int* const* out) = 0;

  /// The bits still held in lane l's decoding window (final traceback from
  /// the lane's best end state) — the lane-parallel analog of
  /// Decoder::flush, except read-only: the same lane can be flushed at any
  /// step boundary and decoding can continue afterwards.
  virtual std::vector<int> flush(std::size_t lane) const = 0;

  virtual void reset() = 0;

  /// Metric renormalizations lane l has performed since reset (test
  /// instrumentation; must match the standalone decoder's count exactly).
  virtual std::int64_t normalizations(std::size_t lane) const = 0;

  virtual const Trellis& trellis() const = 0;

  /// The tier whose ACS kernel this decoder runs: fixed at construction to
  /// simd::frame_kernel_isa(metric, lanes()), the widest tier at or below
  /// the dispatched one whose vector fits the lane count.
  virtual simd::Isa kernel_isa() const = 0;
};

/// Frame-parallel counterpart of ViterbiDecoder (hard or soft decision by
/// the configured Quantizer), int32 path metrics with the same
/// renormalization bound and the same int32-envelope constructor check.
class FrameViterbiDecoder final : public FrameDecoder {
 public:
  FrameViterbiDecoder(const Trellis& trellis, int traceback_depth,
                      Quantizer quantizer, std::size_t lanes);

  std::size_t lanes() const override { return lanes_; }
  std::size_t decode_chunk(const double* const* rx, std::size_t steps,
                           int* const* out) override;
  std::vector<int> flush(std::size_t lane) const override;
  void reset() override;
  std::int64_t normalizations(std::size_t lane) const override {
    return normalizations_[lane];
  }
  const Trellis& trellis() const override { return *trellis_; }
  simd::Isa kernel_isa() const override { return kernel_isa_; }

  int traceback_depth() const { return traceback_depth_; }

  /// Test hook mirroring ViterbiDecoder's: lowers the renormalization
  /// threshold so equivalence tests can exercise the per-lane renorm path
  /// cheaply.
  void set_normalize_threshold_for_test(std::int64_t threshold) {
    norm_threshold_ = static_cast<std::int32_t>(threshold);
  }

 private:
  void fill_metric_tables(std::size_t step_in_chunk);

  const Trellis* trellis_;
  int traceback_depth_;
  Quantizer quantizer_;
  std::size_t lanes_;
  simd::Isa kernel_isa_;
  simd::FrameViterbiAcsFn acs_;

  /// Lane-major path metrics: entry s * lanes + l.
  std::vector<std::int32_t> acc_;
  std::vector<std::int32_t> next_acc_;
  /// Circular survivor store: entry (t % L) * states * lanes + s * lanes + l.
  std::vector<std::uint8_t> survivors_;
  /// Per-lane quantized sub-chunks (lane-major slabs of chunk_cap * n).
  std::vector<int> block_levels_;
  /// Lane-major branch-metric tables: entry pattern * lanes + l.
  std::vector<std::int32_t> metric_by_pattern_;
  std::vector<std::int32_t> best_metric_;  ///< per-lane running minimum
  std::vector<std::uint32_t> best_state_;  ///< per-lane first argmin state
  std::vector<std::uint32_t> tb_state_;    ///< traceback scratch
  std::vector<int> tb_bit_;                ///< traceback scratch
  std::int64_t steps_ = 0;
  std::int32_t norm_threshold_;
  std::vector<std::int64_t> normalizations_;
};

/// Frame-parallel counterpart of MultiresViterbiDecoder: the low-res ACS
/// phase runs through the lane-parallel kernel; the O(M) high-resolution
/// refinement and the correction term stay scalar per lane, replicating
/// the single-frame phase 2 exactly (same partial_sort over the same
/// values, so the same best-M order and the same refined metrics).
class FrameMultiresDecoder final : public FrameDecoder {
 public:
  FrameMultiresDecoder(const Trellis& trellis, const MultiresConfig& config,
                       double amplitude, double noise_sigma,
                       std::size_t lanes);

  std::size_t lanes() const override { return lanes_; }
  std::size_t decode_chunk(const double* const* rx, std::size_t steps,
                           int* const* out) override;
  std::vector<int> flush(std::size_t lane) const override;
  void reset() override;
  std::int64_t normalizations(std::size_t lane) const override {
    return normalizations_[lane];
  }
  const Trellis& trellis() const override { return *trellis_; }
  simd::Isa kernel_isa() const override { return kernel_isa_; }

  const MultiresConfig& config() const { return config_; }

  /// Test hook mirroring MultiresViterbiDecoder's.
  void set_normalize_threshold_for_test(double threshold) {
    norm_threshold_ = threshold;
  }

 private:
  int high_branch_metric(std::uint32_t expected_symbols,
                         const int* levels) const;
  void fill_scaled_low_metric_tables(std::size_t step_in_chunk);

  const Trellis* trellis_;
  MultiresConfig config_;
  Quantizer low_;
  Quantizer high_;
  double scale_;
  std::size_t lanes_;
  simd::Isa kernel_isa_;
  simd::FrameMultiresAcsFn acs_;

  std::vector<double> acc_;       ///< lane-major: entry s * lanes + l
  std::vector<double> next_acc_;
  std::vector<std::uint8_t> survivors_;
  std::vector<int> block_levels_low_;   ///< per-lane slabs
  std::vector<int> block_levels_high_;  ///< per-lane slabs
  std::vector<double> scaled_low_metric_by_pattern_;  ///< pattern * lanes + l
  std::vector<double> winning_scaled_metric_;         ///< s * lanes + l
  std::vector<std::uint32_t> order_;   ///< per-lane best-M selection scratch
  std::vector<double> high_metrics_;   ///< per-lane phase-2 scratch
  std::vector<std::uint32_t> best_state_;  ///< per-lane traceback start
  std::vector<std::uint32_t> tb_state_;    ///< traceback scratch
  std::vector<int> tb_bit_;                ///< traceback scratch
  std::int64_t steps_ = 0;
  double norm_threshold_;
  std::vector<std::int64_t> normalizations_;
};

}  // namespace metacore::comm
