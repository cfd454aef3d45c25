#include "dvbs2/rx/agc.hpp"
#include "dvbs2/rx/frame_sync.hpp"
#include "dvbs2/rx/freq_coarse.hpp"
#include "dvbs2/rx/freq_fine.hpp"
#include "dvbs2/rx/noise_estimator.hpp"
#include "dvbs2/rx/timing.hpp"

#include "common/rng.hpp"
#include "dvbs2/common/pilots.hpp"
#include "dvbs2/common/plh_framer.hpp"
#include "dvbs2/common/qpsk.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

namespace {

using namespace amp::dvbs2;

std::vector<std::complex<float>> random_qpsk(std::size_t count, amp::Rng& rng)
{
    std::vector<std::uint8_t> bits(count * 2);
    for (auto& b : bits)
        b = static_cast<std::uint8_t>(rng() & 1u);
    return QpskModem::modulate(bits);
}

TEST(Agc, NormalizesRms)
{
    Agc agc{1.0F};
    amp::Rng rng{1};
    for (int block = 0; block < 10; ++block) {
        auto samples = random_qpsk(1000, rng);
        for (auto& s : samples)
            s *= 0.25F;
        agc.apply(samples);
    }
    auto samples = random_qpsk(1000, rng);
    for (auto& s : samples)
        s *= 0.25F;
    agc.apply(samples);
    double power = 0.0;
    for (const auto& s : samples)
        power += std::norm(s);
    EXPECT_NEAR(power / 1000.0, 1.0, 0.05);
}

TEST(Agc, EmptyBlockIsNoop)
{
    Agc agc;
    std::vector<std::complex<float>> empty;
    agc.apply(empty);
    EXPECT_TRUE(empty.empty());
}

TEST(CoarseFreq, EstimatesAndRemovesOffset)
{
    amp::Rng rng{2};
    CoarseFreqSync sync;
    const double cfo = 4e-4; // cycles per sample
    double phase = 0.0;
    std::vector<std::complex<float>> clean_tail;
    std::vector<std::complex<float>> corrected_tail;
    for (int block = 0; block < 30; ++block) {
        auto symbols = random_qpsk(2000, rng);
        const auto clean = symbols;
        for (auto& s : symbols) {
            const auto rot = std::complex<float>{static_cast<float>(std::cos(phase)),
                                                 static_cast<float>(std::sin(phase))};
            s *= rot;
            phase += 2.0 * std::numbers::pi * cfo;
        }
        sync.synchronize(symbols);
        if (block == 29) {
            clean_tail = clean;
            corrected_tail = symbols;
        }
    }
    EXPECT_NEAR(sync.estimate(), cfo, 1e-4) << "estimate converges near the true CFO";
    // After convergence, the corrected block should match the clean block
    // coherently up to a fixed phase (the uncorrected drift across the
    // block would be 2*pi*cfo*2000 ~ 5 rad and would destroy coherence).
    std::complex<double> acc{0.0, 0.0};
    for (std::size_t i = 0; i < corrected_tail.size(); ++i) {
        const std::complex<double> r{corrected_tail[i].real(), corrected_tail[i].imag()};
        const std::complex<double> c{clean_tail[i].real(), clean_tail[i].imag()};
        acc += r * std::conj(c);
    }
    EXPECT_GT(std::abs(acc) / corrected_tail.size(), 0.8)
        << "corrected block coherently matches the clean block up to a fixed phase";
}

TEST(Timing, RecoversFractionalDelay)
{
    // Build a 2-sps signal with a half-sample-ish fractional delay by
    // interpolating an oversampled reference, then check the loop locks and
    // the extracted symbols match the transmitted ones.
    amp::Rng rng{3};
    const std::size_t count = 4000;
    const auto symbols = random_qpsk(count, rng);

    // 2 sps "received" stream with fractional delay 0.35 samples: linear
    // interpolation of a rectangular-pulse stream (adequate at high SNR for
    // a timing test without shaping).
    std::vector<std::complex<float>> stream(count * 2);
    for (std::size_t i = 0; i < count; ++i) {
        stream[2 * i] = symbols[i];
        stream[2 * i + 1] = symbols[i];
    }
    const float mu = 0.35F;
    std::vector<std::complex<float>> delayed(stream.size());
    delayed[0] = stream[0];
    for (std::size_t i = 1; i < stream.size(); ++i)
        delayed[i] = (1.0F - mu) * stream[i] + mu * stream[i - 1];

    TimingSync timing;
    SymbolExtractor extractor;
    std::vector<std::complex<float>> recovered;
    for (std::size_t start = 0; start < delayed.size(); start += 1000) {
        const std::size_t end = std::min(start + 1000, delayed.size());
        const std::vector<std::complex<float>> block(delayed.begin() + static_cast<std::ptrdiff_t>(start),
                                                     delayed.begin() + static_cast<std::ptrdiff_t>(end));
        const auto out = timing.synchronize(block);
        const auto syms = extractor.extract(out);
        recovered.insert(recovered.end(), syms.begin(), syms.end());
    }
    ASSERT_GT(recovered.size(), count - 8);

    // After convergence the recovered symbols should decide cleanly: find
    // the (small) alignment lag by correlation on the tail, then compare
    // hard decisions.
    const std::size_t tail_start = recovered.size() / 2;
    int best_lag = 0;
    double best_corr = -1.0;
    for (int lag = -4; lag <= 4; ++lag) {
        double corr = 0.0;
        int n = 0;
        for (std::size_t i = tail_start; i + 8 < recovered.size(); ++i) {
            const auto k = static_cast<std::ptrdiff_t>(i) + lag;
            if (k < 0 || k >= static_cast<std::ptrdiff_t>(count))
                continue;
            const auto p = recovered[i] * std::conj(symbols[static_cast<std::size_t>(k)]);
            corr += p.real();
            ++n;
        }
        if (n > 0 && corr / n > best_corr) {
            best_corr = corr / n;
            best_lag = lag;
        }
    }
    EXPECT_GT(best_corr, 0.8) << "recovered tail correlates with transmitted symbols (lag "
                              << best_lag << ")";
}

std::vector<std::complex<float>> make_plframes(int plframe, int count, int offset,
                                               amp::Rng& rng)
{
    // A stream of `count` PLFRAMEs preceded by `offset` random symbols.
    std::vector<std::complex<float>> stream = random_qpsk(static_cast<std::size_t>(offset), rng);
    for (int f = 0; f < count; ++f) {
        const auto header = PlhFramer::build_header(0x12);
        stream.insert(stream.end(), header.begin(), header.end());
        const auto payload =
            random_qpsk(static_cast<std::size_t>(plframe - PlhFramer::kHeaderSymbols), rng);
        stream.insert(stream.end(), payload.begin(), payload.end());
    }
    return stream;
}

TEST(FrameSync, FindsSofOffset)
{
    amp::Rng rng{4};
    const int plframe = 1000;
    const int interframe = 2;
    const int offset = 337;
    const auto stream = make_plframes(plframe, 8, offset, rng);

    FrameSyncCorrelator correlator{plframe, interframe};
    FrameAligner aligner{plframe, interframe, 0};
    bool found = false;
    for (std::size_t start = 0; start < stream.size(); start += 1500) {
        const std::size_t end = std::min(start + 1500, stream.size());
        const std::vector<std::complex<float>> block(stream.begin() + static_cast<std::ptrdiff_t>(start),
                                                     stream.begin() + static_cast<std::ptrdiff_t>(end));
        const auto window = correlator.process(block);
        const auto aligned = aligner.align(window);
        if (aligned.valid) {
            found = true;
            EXPECT_EQ(aligned.offset % plframe, offset % plframe);
            ASSERT_EQ(aligned.frames.size(), static_cast<std::size_t>(interframe * plframe));
            // The extracted frames must start with the SOF.
            const auto& sof = PlhFramer::sof_symbols();
            for (std::size_t j = 0; j < sof.size(); ++j) {
                EXPECT_NEAR(aligned.frames[j].real(), sof[j].real(), 1e-4);
                EXPECT_NEAR(aligned.frames[j].imag(), sof[j].imag(), 1e-4);
            }
            break;
        }
    }
    EXPECT_TRUE(found);
}

TEST(FrameSync, SurvivesConstantPhaseRotation)
{
    amp::Rng rng{5};
    const int plframe = 800;
    auto stream = make_plframes(plframe, 6, 123, rng);
    const std::complex<float> rotation{std::cos(0.9F), std::sin(0.9F)};
    for (auto& s : stream)
        s *= rotation;

    FrameSyncCorrelator correlator{plframe, 1};
    FrameAligner aligner{plframe, 1, 0};
    bool found = false;
    for (std::size_t start = 0; start < stream.size(); start += 1200) {
        const std::size_t end = std::min(start + 1200, stream.size());
        const std::vector<std::complex<float>> block(stream.begin() + static_cast<std::ptrdiff_t>(start),
                                                     stream.begin() + static_cast<std::ptrdiff_t>(end));
        const auto aligned = aligner.align(correlator.process(block));
        if (aligned.valid) {
            found = true;
            EXPECT_EQ(aligned.offset % plframe, 123 % plframe)
                << "differential correlation is rotation invariant";
            break;
        }
    }
    EXPECT_TRUE(found);
}

TEST(FineFreqPf, CorrectsLinearPhaseDriftAndRemovesPilots)
{
    amp::Rng rng{6};
    const PilotLayout layout{8100, 36, 1440};
    const int plframe = 90 + layout.total_symbols();

    // Build one PLFRAME with pilots, apply a linear phase drift.
    const auto payload = random_qpsk(8100, rng);
    const auto with_pilots = insert_pilots(payload, layout);
    auto frame = PlhFramer::insert((2 << 3) | 2, with_pilots);
    ASSERT_EQ(static_cast<int>(frame.size()), plframe);
    const double drift = 2.0 * std::numbers::pi * 2e-5; // rad per symbol
    for (std::size_t n = 0; n < frame.size(); ++n) {
        const double phi = 0.4 + drift * static_cast<double>(n);
        frame[n] *= std::complex<float>{static_cast<float>(std::cos(phi)),
                                        static_cast<float>(std::sin(phi))};
    }

    const FineFreqPf pf{plframe, layout};
    const auto corrected = pf.synchronize(frame);
    ASSERT_EQ(static_cast<int>(corrected.size()), 90 + 8100);

    // Payload symbols must now decide to the transmitted bits.
    const std::vector<std::complex<float>> out_payload(corrected.begin() + 90, corrected.end());
    EXPECT_EQ(QpskModem::hard_decide(out_payload), QpskModem::hard_decide(payload));
}

TEST(FineFreqPf, TracksResidualCfoPastTheLastPilotBlock)
{
    // A residual CFO turns the phase linearly across the frame. The ~900
    // payload symbols after the last pilot block have no anchor behind
    // them; holding the last anchor's phase there left a mean error of
    // ~0.3 rad at this CFO, against ~0 between the anchors.
    amp::Rng rng{11};
    const PilotLayout layout{8100, 36, 1440};
    const int plframe = 90 + layout.total_symbols();
    const auto payload = random_qpsk(8100, rng);
    auto frame = PlhFramer::insert((2 << 3) | 2, insert_pilots(payload, layout));
    const double cfo = 1e-4; // cycles per symbol
    for (std::size_t n = 0; n < frame.size(); ++n) {
        const double phi = 0.3 + 2.0 * std::numbers::pi * cfo * static_cast<double>(n);
        frame[n] *= std::complex<float>{static_cast<float>(std::cos(phi)),
                                        static_cast<float>(std::sin(phi))};
        frame[n] += std::complex<float>{0.05F * static_cast<float>(rng.normal()),
                                        0.05F * static_cast<float>(rng.normal())};
    }

    const FineFreqPf pf{plframe, layout};
    const auto corrected = pf.synchronize(frame);
    ASSERT_EQ(static_cast<int>(corrected.size()), 90 + 8100);

    // Mean signed phase error of the payload before and after the last
    // pilot block (5 blocks, so the tail starts after 5 x 1440 symbols).
    const std::size_t tail_start = 5 * 1440;
    double body = 0.0;
    double tail = 0.0;
    for (std::size_t k = 0; k < payload.size(); ++k) {
        const std::complex<double> out{corrected[90 + k].real(), corrected[90 + k].imag()};
        const std::complex<double> ref{payload[k].real(), payload[k].imag()};
        (k < tail_start ? body : tail) += std::arg(out * std::conj(ref));
    }
    body /= static_cast<double>(tail_start);
    tail /= static_cast<double>(payload.size() - tail_start);

    constexpr double kBound = 0.05; // rad
    EXPECT_LT(std::abs(body), kBound);
    EXPECT_LT(std::abs(tail), kBound) << "tail mean phase error " << tail << " rad";
}

TEST(FineFreqLr, ReducesResidualCfo)
{
    amp::Rng rng{7};
    const PilotLayout layout{8100, 36, 1440};
    const int plframe = 90 + layout.total_symbols();
    const double cfo = 3e-5; // cycles per symbol

    FineFreqLr lr{plframe};
    double phase = 0.0;
    for (int f = 0; f < 6; ++f) {
        const auto payload = random_qpsk(8100, rng);
        auto frame = PlhFramer::insert((2 << 3) | 2, insert_pilots(payload, layout));
        std::vector<std::complex<float>> frames;
        for (auto& s : frame) {
            s *= std::complex<float>{static_cast<float>(std::cos(phase)),
                                     static_cast<float>(std::sin(phase))};
            phase += 2.0 * std::numbers::pi * cfo;
        }
        frames = frame;
        lr.synchronize(frames);
    }
    EXPECT_NEAR(lr.estimate(), cfo, cfo * 0.5) << "L&R converges towards the true CFO";
}

TEST(NoiseEstimator, M2M4AccuracyOnQpsk)
{
    amp::Rng rng{8};
    for (const float sigma2 : {0.01F, 0.05F, 0.2F}) {
        auto symbols = random_qpsk(8100, rng);
        const float per_component = std::sqrt(sigma2 / 2.0F);
        for (auto& s : symbols)
            s += std::complex<float>{per_component * static_cast<float>(rng.normal()),
                                     per_component * static_cast<float>(rng.normal())};
        const auto estimate = NoiseEstimator::estimate(symbols);
        EXPECT_NEAR(estimate.sigma2, sigma2, sigma2 * 0.35F) << "sigma2=" << sigma2;
        EXPECT_NEAR(estimate.signal, 1.0F, 0.1F);
    }
}

TEST(NoiseEstimator, EmptyInputGivesDefaults)
{
    const auto estimate = NoiseEstimator::estimate({});
    EXPECT_FLOAT_EQ(estimate.sigma2, 1.0F);
}

} // namespace
