// Frame-parallel decode layer: decode_frames / FrameDecoder must be
// bit-identical to the per-frame single-stream decoders for every decoder
// kind, constraint length, ISA tier, lane count, and ragged length mix —
// including per-lane renormalization counts, read-only mid-stream flushes,
// and the golden measure_ber values at every thread x lane combination.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/ber.hpp"
#include "comm/channel.hpp"
#include "comm/frame_decode.hpp"
#include "comm/simd/acs_kernel.hpp"
#include "comm/viterbi.hpp"
#include "exec/thread_pool.hpp"
#include "util/rng.hpp"

namespace metacore::comm {
namespace {

DecoderSpec make_spec(DecoderKind kind, int k) {
  DecoderSpec spec;
  spec.code = best_rate_half_code(k);
  spec.traceback_depth = 5 * k;
  spec.kind = kind;
  spec.low_res_bits = 1;
  spec.high_res_bits = 3;
  spec.num_high_res_paths = std::min(4, spec.code.num_states());
  spec.normalization_terms = 1;
  return spec;
}

std::vector<double> noisy_frame(const CodeSpec& code, std::size_t bits,
                                double esn0_db, std::uint64_t seed,
                                double* sigma) {
  util::Random rng(seed);
  std::vector<int> data(bits);
  for (auto& b : data) b = rng.bit() ? 1 : 0;
  ConvolutionalEncoder enc(code);
  BpskModulator mod;
  AwgnChannel channel(esn0_db, 1.0, seed ^ 0xABCD);
  *sigma = channel.noise_sigma();
  return channel.transmit(mod.modulate(enc.encode(data)));
}

/// Restores the dispatched ISA on scope exit.
class IsaGuard {
 public:
  IsaGuard() : saved_(simd::dispatched_isa()) {}
  ~IsaGuard() { simd::force_isa(saved_); }

 private:
  simd::Isa saved_;
};

/// Restores the configured global pool size on scope exit.
class ThreadGuard {
 public:
  ThreadGuard() = default;
  ~ThreadGuard() {
    exec::ThreadPool::set_global_threads(
        exec::ThreadPool::configured_threads());
  }
};

/// Saves and restores METACORE_LANES so lane-resolution tests behave the
/// same whether or not the suite itself was launched under a forced lane
/// count (the CI degenerate-lanes pass sets METACORE_LANES=1).
class LanesEnvGuard {
 public:
  LanesEnvGuard() {
    if (const char* value = std::getenv("METACORE_LANES")) saved_ = value;
  }
  ~LanesEnvGuard() {
    if (saved_.empty()) {
      ::unsetenv("METACORE_LANES");
    } else {
      ::setenv("METACORE_LANES", saved_.c_str(), 1);
    }
  }

 private:
  std::string saved_;
};

std::vector<simd::Isa> available_isas() {
  std::vector<simd::Isa> isas;
  for (const auto isa : {simd::Isa::Scalar, simd::Isa::Sse4, simd::Isa::Avx2,
                         simd::Isa::Avx512}) {
    if (simd::isa_available(isa)) isas.push_back(isa);
  }
  return isas;
}

/// Reference: each frame decoded by its own standalone single-frame decoder.
std::vector<std::vector<int>> decode_frames_reference(
    const DecoderSpec& spec, const Trellis& trellis, double sigma,
    const std::vector<std::vector<double>>& frames) {
  std::vector<std::vector<int>> out(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    out[i] = spec.make_decoder(trellis, 1.0, sigma)->decode(frames[i]);
  }
  return out;
}

std::vector<std::span<const double>> as_spans(
    const std::vector<std::vector<double>>& frames) {
  std::vector<std::span<const double>> spans;
  spans.reserve(frames.size());
  for (const auto& f : frames) spans.emplace_back(f);
  return spans;
}

// ---------------------------------------------------------------------------
// Lane-count resolution.

TEST(DefaultFrameLanes, FollowsDispatchedIsaWidth) {
  LanesEnvGuard env_guard;
  ASSERT_EQ(::unsetenv("METACORE_LANES"), 0);
  IsaGuard guard;
  for (const auto isa : available_isas()) {
    simd::force_isa(isa);
    EXPECT_EQ(default_frame_lanes(), simd::natural_frame_lanes(isa))
        << simd::to_string(isa);
    EXPECT_GE(default_frame_lanes(), 4u);
  }
}

TEST(DefaultFrameLanes, EnvOverrideAndValidation) {
  LanesEnvGuard env_guard;
  ASSERT_EQ(::setenv("METACORE_LANES", "3", 1), 0);
  EXPECT_EQ(default_frame_lanes(), 3u);
  ASSERT_EQ(::setenv("METACORE_LANES", "1", 1), 0);
  EXPECT_EQ(default_frame_lanes(), 1u);
  for (const char* bad : {"0", "-2", "257", "abc", "4x"}) {
    ASSERT_EQ(::setenv("METACORE_LANES", bad, 1), 0);
    EXPECT_THROW(default_frame_lanes(), std::invalid_argument) << bad;
  }
  // Empty means unset (the `METACORE_LANES= cmd` shell idiom).
  ASSERT_EQ(::setenv("METACORE_LANES", "", 1), 0);
  EXPECT_EQ(default_frame_lanes(),
            simd::natural_frame_lanes(simd::dispatched_isa()));
}

TEST(FrameDecoderCtor, RejectsDegenerateArguments) {
  const Trellis trellis(best_rate_half_code(5));
  const Quantizer q(QuantizationMethod::AdaptiveSoft, 3, 1.0, 0.5);
  EXPECT_THROW(FrameViterbiDecoder(trellis, 0, q, 4), std::invalid_argument);
  EXPECT_THROW(FrameViterbiDecoder(trellis, 25, q, 0), std::invalid_argument);
  EXPECT_NO_THROW(FrameViterbiDecoder(trellis, 25, q, 4));
}

// ---------------------------------------------------------------------------
// decode_frames vs per-frame decoders: every kind x K, ragged lengths
// (including shorter-than-traceback and empty frames), many lane counts.

struct FrameCase {
  DecoderKind kind;
  int k;
};

class FrameSweep : public ::testing::TestWithParam<FrameCase> {};

TEST_P(FrameSweep, BatchMatchesPerFrameAcrossLaneCounts) {
  const auto [kind, k] = GetParam();
  const DecoderSpec spec = make_spec(kind, k);
  const Trellis trellis(spec.code);

  // Ragged mix: long, medium, window-straddling, shorter-than-traceback
  // (5k - 1 steps), single-step, and empty frames, more frames than lanes.
  const std::size_t tb = static_cast<std::size_t>(spec.traceback_depth);
  const std::size_t lengths[] = {4'003, 1'024, tb,  tb - 1, 1'500,
                                 1,     0,     511, 2'048,  tb + 1};
  double sigma = 0.5;
  std::vector<std::vector<double>> frames;
  for (std::size_t i = 0; i < std::size(lengths); ++i) {
    frames.push_back(
        noisy_frame(spec.code, lengths[i], 1.0, 1000 * i + 17 + k, &sigma));
  }
  const auto reference = decode_frames_reference(spec, trellis, sigma, frames);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    // decode() emits one bit per step once the window fills, plus the tail.
    ASSERT_EQ(reference[i].size(), lengths[i] == 0 ? 0u : lengths[i]);
  }

  const auto spans = as_spans(frames);
  for (const std::size_t lanes : {1u, 2u, 3u, 5u, 8u, 16u}) {
    const auto batch = decode_frames(spec, trellis, 1.0, sigma, spans, lanes);
    ASSERT_EQ(batch.size(), frames.size()) << "lanes=" << lanes;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(batch[i], reference[i])
          << "lanes=" << lanes << " frame=" << i << " len=" << lengths[i];
    }
  }
}

TEST_P(FrameSweep, EveryIsaTierMatchesForcedScalar) {
  const auto [kind, k] = GetParam();
  const DecoderSpec spec = make_spec(kind, k);
  const Trellis trellis(spec.code);
  double sigma = 0.5;
  std::vector<std::vector<double>> frames;
  for (std::size_t i = 0; i < 6; ++i) {
    frames.push_back(
        noisy_frame(spec.code, 700 + 301 * i, 0.5, 31 * i + k, &sigma));
  }
  const auto spans = as_spans(frames);

  IsaGuard guard;
  simd::force_isa(simd::Isa::Scalar);
  const auto reference = decode_frames(spec, trellis, 1.0, sigma, spans, 4);
  // The scalar frame path itself must match per-frame decoding.
  EXPECT_EQ(reference, decode_frames_reference(spec, trellis, sigma, frames));

  for (const auto isa : available_isas()) {
    if (isa == simd::Isa::Scalar) continue;
    simd::force_isa(isa);
    for (const std::size_t lanes : {1u, 3u, 4u, 8u, 16u}) {
      EXPECT_EQ(decode_frames(spec, trellis, 1.0, sigma, spans, lanes),
                reference)
          << simd::to_string(isa) << " lanes=" << lanes;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndConstraintLengths, FrameSweep,
    ::testing::Values(FrameCase{DecoderKind::Hard, 3},
                      FrameCase{DecoderKind::Hard, 5},
                      FrameCase{DecoderKind::Hard, 7},
                      FrameCase{DecoderKind::Hard, 9},
                      FrameCase{DecoderKind::Soft, 3},
                      FrameCase{DecoderKind::Soft, 5},
                      FrameCase{DecoderKind::Soft, 7},
                      FrameCase{DecoderKind::Soft, 9},
                      FrameCase{DecoderKind::Multires, 3},
                      FrameCase{DecoderKind::Multires, 5},
                      FrameCase{DecoderKind::Multires, 7},
                      FrameCase{DecoderKind::Multires, 9}));

TEST(DecodeFrames, RejectsMisalignedFrames) {
  const DecoderSpec spec = make_spec(DecoderKind::Soft, 5);
  const Trellis trellis(spec.code);
  const std::vector<double> odd(3, 0.0);  // not a multiple of n = 2
  const std::vector<std::span<const double>> frames{odd};
  EXPECT_THROW(decode_frames(spec, trellis, 1.0, 0.5, frames, 4),
               std::invalid_argument);
  EXPECT_TRUE(decode_frames(spec, trellis, 1.0, 0.5, {}, 4).empty());
}

// ---------------------------------------------------------------------------
// Chunk invariance and read-only flush on the raw FrameDecoder interface.

TEST(FrameDecoder, ChunkBoundariesNeverChangeTheStreams) {
  const DecoderSpec spec = make_spec(DecoderKind::Soft, 5);
  const Trellis trellis(spec.code);
  constexpr std::size_t kLanes = 5;
  constexpr std::size_t kSteps = 3'000;
  double sigma = 0.5;
  std::vector<std::vector<double>> frames;
  for (std::size_t l = 0; l < kLanes; ++l) {
    frames.push_back(noisy_frame(spec.code, kSteps, 1.0, 7 * l + 3, &sigma));
  }

  auto run = [&](std::size_t chunk_steps) {
    auto decoder = spec.make_frame_decoder(trellis, 1.0, sigma, kLanes);
    std::vector<std::vector<int>> bits(kLanes, std::vector<int>(kSteps));
    std::vector<const double*> rx(kLanes);
    std::vector<int*> out(kLanes);
    std::size_t emitted = 0;
    for (std::size_t begin = 0; begin < kSteps; begin += chunk_steps) {
      const std::size_t steps = std::min(chunk_steps, kSteps - begin);
      for (std::size_t l = 0; l < kLanes; ++l) {
        rx[l] = frames[l].data() + begin * 2;
        out[l] = bits[l].data() + emitted;
      }
      emitted += decoder->decode_chunk(rx.data(), steps, out.data());
    }
    for (auto& b : bits) b.resize(emitted);
    for (std::size_t l = 0; l < kLanes; ++l) {
      const auto tail = decoder->flush(l);
      bits[l].insert(bits[l].end(), tail.begin(), tail.end());
    }
    return bits;
  };

  const auto reference = run(kSteps);  // one shot
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{24}, std::size_t{1021},
                                  std::size_t{1024}}) {
    EXPECT_EQ(run(chunk), reference) << "chunk=" << chunk;
  }
  // And each lane equals its standalone decode.
  for (std::size_t l = 0; l < kLanes; ++l) {
    EXPECT_EQ(reference[l],
              spec.make_decoder(trellis, 1.0, sigma)->decode(frames[l]))
        << "lane " << l;
  }
}

TEST(FrameDecoder, FlushIsReadOnlyAtEveryBoundary) {
  // Flushing mid-stream then continuing must not perturb later bits: decode
  // the same lanes twice, once flushing after every chunk, and compare.
  const DecoderSpec spec = make_spec(DecoderKind::Multires, 5);
  const Trellis trellis(spec.code);
  constexpr std::size_t kLanes = 3;
  constexpr std::size_t kSteps = 640;
  double sigma = 0.5;
  std::vector<std::vector<double>> frames;
  for (std::size_t l = 0; l < kLanes; ++l) {
    frames.push_back(noisy_frame(spec.code, kSteps, 1.0, 5 * l + 1, &sigma));
  }

  auto run = [&](bool flush_every_chunk) {
    auto decoder = spec.make_frame_decoder(trellis, 1.0, sigma, kLanes);
    std::vector<std::vector<int>> bits(kLanes, std::vector<int>(kSteps));
    std::vector<const double*> rx(kLanes);
    std::vector<int*> out(kLanes);
    std::size_t emitted = 0;
    for (std::size_t begin = 0; begin < kSteps; begin += 100) {
      const std::size_t steps = std::min<std::size_t>(100, kSteps - begin);
      for (std::size_t l = 0; l < kLanes; ++l) {
        rx[l] = frames[l].data() + begin * 2;
        out[l] = bits[l].data() + emitted;
      }
      emitted += decoder->decode_chunk(rx.data(), steps, out.data());
      if (flush_every_chunk) {
        for (std::size_t l = 0; l < kLanes; ++l) (void)decoder->flush(l);
      }
    }
    for (std::size_t l = 0; l < kLanes; ++l) {
      const auto tail = decoder->flush(l);
      bits[l].resize(emitted);
      bits[l].insert(bits[l].end(), tail.begin(), tail.end());
    }
    return bits;
  };

  EXPECT_EQ(run(true), run(false));
}

// ---------------------------------------------------------------------------
// Per-lane renormalization: with a lowered threshold every lane must report
// exactly the count its standalone decoder reports, even though the lanes
// renormalize at different steps.

TEST(FrameDecoder, PerLaneRenormMatchesStandaloneCounts) {
  const CodeSpec code = best_rate_half_code(5);
  const Trellis trellis(code);
  constexpr std::size_t kLanes = 6;
  constexpr std::size_t kSteps = 60'000;
  constexpr std::int64_t kThreshold = std::int64_t{1} << 12;
  double sigma = 0.5;
  const Quantizer quantizer(QuantizationMethod::AdaptiveSoft, 3, 1.0, sigma);

  std::vector<std::vector<double>> frames;
  for (std::size_t l = 0; l < kLanes; ++l) {
    // Different noise power per lane so renorm cadences diverge.
    frames.push_back(
        noisy_frame(code, kSteps, 0.5 * static_cast<double>(l), 911 + l,
                    &sigma));
  }

  IsaGuard guard;
  for (const auto isa : available_isas()) {
    simd::force_isa(isa);
    FrameViterbiDecoder frame_dec(trellis, 25, quantizer, kLanes);
    frame_dec.set_normalize_threshold_for_test(kThreshold);
    std::vector<std::vector<int>> bits(kLanes, std::vector<int>(kSteps));
    std::vector<const double*> rx(kLanes);
    std::vector<int*> out(kLanes);
    for (std::size_t l = 0; l < kLanes; ++l) {
      rx[l] = frames[l].data();
      out[l] = bits[l].data();
    }
    const std::size_t emitted =
        frame_dec.decode_chunk(rx.data(), kSteps, out.data());

    std::vector<std::int64_t> lane_norms;
    for (std::size_t l = 0; l < kLanes; ++l) {
      ViterbiDecoder solo(trellis, 25, quantizer);
      solo.set_normalize_threshold_for_test(kThreshold);
      std::vector<int> solo_bits(kSteps);
      solo_bits.resize(solo.decode_block(frames[l], solo_bits));
      ASSERT_EQ(solo_bits.size(), emitted);
      bits[l].resize(emitted);
      EXPECT_EQ(bits[l], solo_bits)
          << simd::to_string(isa) << " lane " << l;
      EXPECT_EQ(frame_dec.normalizations(l), solo.normalizations())
          << simd::to_string(isa) << " lane " << l;
      EXPECT_EQ(frame_dec.flush(l), solo.flush())
          << simd::to_string(isa) << " lane " << l;
      lane_norms.push_back(solo.normalizations());
      EXPECT_GT(solo.normalizations(), 0) << "lane " << l;
    }
    // The lanes genuinely renormalized on different cadences.
    EXPECT_GT(*std::max_element(lane_norms.begin(), lane_norms.end()),
              *std::min_element(lane_norms.begin(), lane_norms.end()));
  }
}

// ---------------------------------------------------------------------------
// Golden measure_ber values (copied from comm_kernel_equivalence_test's
// pre-kernel goldens) must survive every thread x lane combination, and
// lane-count choice must never change any sharded measurement.

TEST(FrameBerGolden, GoldenValuesHoldAtEveryThreadAndLaneCount) {
  ThreadGuard thread_guard;
  DecoderSpec hard5 = make_spec(DecoderKind::Hard, 5);
  DecoderSpec multires3 = make_spec(DecoderKind::Multires, 3);

  for (const int threads : {1, 2, 8}) {
    exec::ThreadPool::set_global_threads(static_cast<std::size_t>(threads));
    for (const int lanes : {0, 1, 2, 3, 5, 16}) {
      BerRunConfig cfg;
      cfg.max_bits = 20'000;
      cfg.min_bits = 10'000;
      cfg.max_errors = 2'000;
      cfg.shards = 8;
      cfg.lanes = lanes;
      const auto hard = measure_ber(hard5, 2.0, cfg);
      EXPECT_EQ(hard.errors.successes, 31ull)
          << "threads=" << threads << " lanes=" << lanes;
      EXPECT_EQ(hard.errors.trials, 20'000ull)
          << "threads=" << threads << " lanes=" << lanes;
      const auto multires = measure_ber(multires3, 2.0, cfg);
      EXPECT_EQ(multires.errors.successes, 24ull)
          << "threads=" << threads << " lanes=" << lanes;
      EXPECT_EQ(multires.errors.trials, 20'000ull)
          << "threads=" << threads << " lanes=" << lanes;
    }
  }
}

// measure_ber called from inside pool work (a search evaluating its grid
// in parallel) runs nested: its own parallel_for is inline, so it puts
// every shard up to the lane cap into one lane group. The goldens must hold
// on that path too, at every tier, thread count, and lane cap — including
// caps that are not a multiple of any vector width.
TEST(FrameBerGolden, GoldenValuesHoldWhenCalledFromPoolWork) {
  ThreadGuard thread_guard;
  IsaGuard isa_guard;
  const DecoderSpec hard5 = make_spec(DecoderKind::Hard, 5);
  const DecoderSpec multires3 = make_spec(DecoderKind::Multires, 3);
  const std::vector<int> lane_caps = {0, 1, 3, 4, 5, 12, 16, 20};

  for (const auto isa : available_isas()) {
    simd::force_isa(isa);
    for (const int threads : {1, 2, 4, 8}) {
      exec::ThreadPool::set_global_threads(static_cast<std::size_t>(threads));
      // One work item per (lane cap, decoder): both decoders at every cap.
      std::vector<BerPoint> points(2 * lane_caps.size());
      std::vector<char> nested(points.size(), 0);
      exec::parallel_for(points.size(), [&](std::size_t i) {
        BerRunConfig cfg;
        cfg.max_bits = 20'000;
        cfg.min_bits = 10'000;
        cfg.max_errors = 2'000;
        cfg.shards = 8;
        cfg.lanes = lane_caps[i / 2];
        nested[i] = exec::ThreadPool::on_worker_thread() ||
                    exec::ThreadPool::global().size() == 1;
        points[i] = measure_ber(i % 2 == 0 ? hard5 : multires3, 2.0, cfg);
      });
      for (std::size_t i = 0; i < points.size(); ++i) {
        const std::string label = simd::to_string(isa) +
                                  " threads=" + std::to_string(threads) +
                                  " lanes=" + std::to_string(lane_caps[i / 2]);
        EXPECT_TRUE(nested[i]) << label;
        EXPECT_EQ(points[i].errors.successes, i % 2 == 0 ? 31ull : 24ull)
            << label;
        EXPECT_EQ(points[i].errors.trials, 20'000ull) << label;
      }
    }
  }
}

// Lane-group policy: Viterbi groups fill the threads but never drop below
// one vector of the ACS kernel (4 lanes on SSE4.2 and up), except under
// the scalar tier or a lane cap below a vector; multires groups only fill
// the threads. The goldens hold at top level on every tier.
TEST(MeasureBerGrouping, ViterbiGroupsAreNeverNarrowerThanOneVector) {
  ThreadGuard thread_guard;
  IsaGuard isa_guard;
  const DecoderSpec hard5 = make_spec(DecoderKind::Hard, 5);
  const DecoderSpec soft7 = make_spec(DecoderKind::Soft, 7);
  const DecoderSpec multires5 = make_spec(DecoderKind::Multires, 5);

  for (const auto isa : available_isas()) {
    simd::force_isa(isa);
    const bool vector = isa != simd::Isa::Scalar;
    const std::string label = simd::to_string(isa);
    for (const DecoderSpec* spec : {&hard5, &soft7}) {
      // shards, lane cap, pool threads -> shards per group
      EXPECT_EQ(ber_lane_group_size(*spec, 4, 16, 4), vector ? 4u : 1u)
          << label;
      EXPECT_EQ(ber_lane_group_size(*spec, 8, 16, 4), vector ? 4u : 2u)
          << label;
      EXPECT_EQ(ber_lane_group_size(*spec, 5, 16, 4), vector ? 4u : 2u)
          << label;
      EXPECT_EQ(ber_lane_group_size(*spec, 64, 16, 4), 16u) << label;
      EXPECT_EQ(ber_lane_group_size(*spec, 4, 16, 1), 4u) << label;
      EXPECT_EQ(ber_lane_group_size(*spec, 2, 16, 4), 1u) << label;
      EXPECT_EQ(ber_lane_group_size(*spec, 4, 3, 4), 1u) << label;
      EXPECT_EQ(ber_lane_group_size(*spec, 4, 1, 4), 1u) << label;
    }
    EXPECT_EQ(ber_lane_group_size(multires5, 4, 16, 4), 1u) << label;
    EXPECT_EQ(ber_lane_group_size(multires5, 8, 16, 4), 2u) << label;
    EXPECT_EQ(ber_lane_group_size(multires5, 4, 16, 1), 4u) << label;

    exec::ThreadPool::set_global_threads(4);
    BerRunConfig cfg;
    cfg.max_bits = 20'000;
    cfg.min_bits = 10'000;
    cfg.max_errors = 2'000;
    cfg.shards = 8;
    const auto hard = measure_ber(hard5, 2.0, cfg);
    EXPECT_EQ(hard.errors.successes, 31ull) << label;
    EXPECT_EQ(hard.errors.trials, 20'000ull) << label;
  }
}

TEST(FrameBerGolden, DecisionStoppingIdenticalAcrossLaneCounts) {
  ThreadGuard thread_guard;
  exec::ThreadPool::set_global_threads(2);
  const DecoderSpec spec = make_spec(DecoderKind::Hard, 5);
  BerRunConfig cfg;
  cfg.max_bits = 100'000;
  cfg.min_bits = 8'192;
  cfg.max_errors = 1u << 30;
  cfg.decision_ber = 1e-2;
  cfg.shards = 8;
  cfg.lanes = 1;
  const auto reference = measure_ber(spec, 2.0, cfg);
  EXPECT_EQ(reference.errors.successes, 74ull);
  EXPECT_EQ(reference.errors.trials, 65'536ull);
  for (const int lanes : {0, 2, 5, 8, 16}) {
    cfg.lanes = lanes;
    const auto point = measure_ber(spec, 2.0, cfg);
    EXPECT_EQ(point.errors.successes, reference.errors.successes)
        << "lanes=" << lanes;
    EXPECT_EQ(point.errors.trials, reference.errors.trials)
        << "lanes=" << lanes;
  }
  cfg.lanes = -1;
  EXPECT_THROW(measure_ber(spec, 2.0, cfg), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Frame-kernel dispatch accessors and width fitting.

TEST(FrameKernelDispatch, AccessorsResolveOnEveryAvailableTier) {
  IsaGuard guard;
  for (const auto isa : available_isas()) {
    simd::force_isa(isa);
    EXPECT_NE(simd::frame_viterbi_acs(), nullptr) << simd::to_string(isa);
    EXPECT_NE(simd::frame_multires_acs(), nullptr) << simd::to_string(isa);
    EXPECT_EQ(simd::frame_viterbi_acs(), simd::frame_viterbi_acs(isa));
    EXPECT_EQ(simd::frame_multires_acs(), simd::frame_multires_acs(isa));
    EXPECT_GE(simd::natural_frame_lanes(isa), 4u);
  }
}

// Every (dispatched tier, lane count) pair runs the widest available tier
// at or below the dispatched one whose vector fits the lanes: a 4-lane
// decoder on AVX-512 runs SSE4.2 int32 and AVX2 double kernels instead of
// the AVX-512 kernels' scalar tail, and never a tier above the dispatch.
TEST(FrameDecoder, RunsTheWidestKernelTierThatFitsItsLanes) {
  IsaGuard guard;
  const Trellis trellis(best_rate_half_code(5));
  const Quantizer quantizer(QuantizationMethod::AdaptiveSoft, 3, 1.0, 0.5);
  const MultiresConfig config{25, 1, 3, QuantizationMethod::AdaptiveSoft, 4,
                              1};
  const auto widest_fitting = [](simd::FrameMetric metric, std::size_t lanes,
                                 simd::Isa ceiling) {
    simd::Isa best = simd::Isa::Scalar;
    for (const auto isa : available_isas()) {
      if (isa <= ceiling && simd::frame_vector_lanes(isa, metric) <= lanes) {
        best = std::max(best, isa);
      }
    }
    return best;
  };

  for (const auto dispatched : available_isas()) {
    simd::force_isa(dispatched);
    for (std::size_t lanes = 1; lanes <= 20; ++lanes) {
      const std::string label =
          simd::to_string(dispatched) + " lanes=" + std::to_string(lanes);
      const FrameViterbiDecoder viterbi(trellis, 25, quantizer, lanes);
      const FrameMultiresDecoder multires(trellis, config, 1.0, 0.5, lanes);
      EXPECT_EQ(viterbi.kernel_isa(),
                widest_fitting(simd::FrameMetric::Int32, lanes, dispatched))
          << label;
      EXPECT_EQ(multires.kernel_isa(),
                widest_fitting(simd::FrameMetric::Double, lanes, dispatched))
          << label;
      EXPECT_LE(viterbi.kernel_isa(), dispatched) << label;
      EXPECT_LE(multires.kernel_isa(), dispatched) << label;
      EXPECT_EQ(viterbi.kernel_isa(),
                simd::frame_kernel_isa(simd::FrameMetric::Int32, lanes))
          << label;
    }
  }

  // The vector widths the policy fits against.
  EXPECT_EQ(simd::frame_vector_lanes(simd::Isa::Scalar,
                                     simd::FrameMetric::Int32),
            1u);
  EXPECT_EQ(simd::frame_vector_lanes(simd::Isa::Avx512,
                                     simd::FrameMetric::Int32),
            16u);
  EXPECT_EQ(simd::frame_vector_lanes(simd::Isa::Avx512,
                                     simd::FrameMetric::Double),
            8u);
  EXPECT_EQ(simd::frame_vector_lanes(simd::Isa::Avx2,
                                     simd::FrameMetric::Double),
            4u);
  EXPECT_EQ(simd::frame_vector_lanes(simd::Isa::Sse4,
                                     simd::FrameMetric::Double),
            2u);
  if (simd::isa_available(simd::Isa::Avx512) &&
      simd::isa_available(simd::Isa::Avx2) &&
      simd::isa_available(simd::Isa::Sse4)) {
    EXPECT_EQ(simd::frame_kernel_isa(simd::FrameMetric::Int32, 4,
                                     simd::Isa::Avx512),
              simd::Isa::Sse4);
    EXPECT_EQ(simd::frame_kernel_isa(simd::FrameMetric::Double, 4,
                                     simd::Isa::Avx512),
              simd::Isa::Avx2);
    EXPECT_EQ(simd::frame_kernel_isa(simd::FrameMetric::Int32, 20,
                                     simd::Isa::Avx512),
              simd::Isa::Avx512);
    EXPECT_EQ(simd::frame_kernel_isa(simd::FrameMetric::Int32, 16,
                                     simd::Isa::Avx2),
              simd::Isa::Avx2);
  }
}

}  // namespace
}  // namespace metacore::comm
