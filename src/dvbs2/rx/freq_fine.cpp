#include "dvbs2/rx/freq_fine.hpp"

#include "dvbs2/common/plh_framer.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace amp::dvbs2 {

namespace {

/// Modulation-stripped header: z[j] = r[j] * conj(ref[j]). The header is
/// fully known once the frame is aligned (SOF is constant; the PLS field is
/// constant for a fixed MODCOD, which holds in the evaluated configuration).
std::vector<std::complex<double>> strip_header(const std::complex<float>* frame,
                                               std::uint8_t pls)
{
    const auto header = PlhFramer::build_header(pls);
    std::vector<std::complex<double>> z(header.size());
    for (std::size_t j = 0; j < header.size(); ++j) {
        const std::complex<double> r{frame[j].real(), frame[j].imag()};
        const std::complex<double> ref{header[j].real(), header[j].imag()};
        z[j] = r * std::conj(ref);
    }
    return z;
}

constexpr std::uint8_t kPlsModcod2 = (2 << 3) | 2; // MODCOD 2, short frame

} // namespace

FineFreqLr::FineFreqLr(int frame_symbols, int autocorr_lags, float smoothing)
    : frame_symbols_(frame_symbols)
    , lags_(autocorr_lags)
    , smoothing_(smoothing)
{
    if (autocorr_lags < 1 || autocorr_lags >= 90)
        throw std::invalid_argument{"FineFreqLr: lags must be in [1, 89]"};
}

void FineFreqLr::synchronize(std::vector<std::complex<float>>& frames)
{
    if (frames.size() % static_cast<std::size_t>(frame_symbols_) != 0)
        throw std::invalid_argument{"FineFreqLr: input must hold whole frames"};
    const std::size_t frame_count = frames.size() / static_cast<std::size_t>(frame_symbols_);

    for (std::size_t f = 0; f < frame_count; ++f) {
        std::complex<float>* frame = frames.data() + f * static_cast<std::size_t>(frame_symbols_);

        // Luise & Reggiannini over the modulation-stripped header:
        // nu = 1/(pi (M+1)) * arg( sum_{m=1..M} R(m) ).
        const auto z = strip_header(frame, kPlsModcod2);
        std::complex<double> sum{0.0, 0.0};
        for (int m = 1; m <= lags_; ++m) {
            std::complex<double> r_m{0.0, 0.0};
            for (std::size_t j = static_cast<std::size_t>(m); j < z.size(); ++j)
                r_m += z[j] * std::conj(z[j - static_cast<std::size_t>(m)]);
            sum += r_m;
        }
        const double instant =
            std::arg(sum) / (std::numbers::pi * static_cast<double>(lags_ + 1));
        cfo_ += smoothing_ * (instant - cfo_);

        // Continuous-phase derotation across the contiguous frame stream.
        const double step = -2.0 * std::numbers::pi * cfo_;
        for (int n = 0; n < frame_symbols_; ++n) {
            const auto rotation = std::complex<float>{static_cast<float>(std::cos(phase_)),
                                                      static_cast<float>(std::sin(phase_))};
            frame[n] *= rotation;
            phase_ += step;
        }
        phase_ = std::fmod(phase_, 2.0 * std::numbers::pi);
    }
}

FineFreqPf::FineFreqPf(int frame_symbols, PilotLayout layout)
    : frame_symbols_(frame_symbols)
    , layout_(layout)
{
    if (frame_symbols != PlhFramerHeaderSymbols + layout.total_symbols())
        throw std::invalid_argument{"FineFreqPf: frame size does not match pilot layout"};
}

std::vector<std::complex<float>>
FineFreqPf::synchronize(const std::vector<std::complex<float>>& frames) const
{
    if (frames.size() % static_cast<std::size_t>(frame_symbols_) != 0)
        throw std::invalid_argument{"FineFreqPf: input must hold whole frames"};
    const std::size_t frame_count = frames.size() / static_cast<std::size_t>(frame_symbols_);

    std::vector<std::complex<float>> output;
    output.reserve(frame_count * static_cast<std::size_t>(output_frame_symbols()));

    const auto header_ref = PlhFramer::build_header(kPlsModcod2);
    const auto block_offsets = pilot_block_offsets(layout_);

    for (std::size_t f = 0; f < frame_count; ++f) {
        const std::complex<float>* frame =
            frames.data() + f * static_cast<std::size_t>(frame_symbols_);

        // Phase anchors: (center position, estimated phase) per known group.
        std::vector<std::pair<double, double>> anchors;
        anchors.reserve(block_offsets.size() + 1);

        std::complex<double> acc{0.0, 0.0};
        for (std::size_t j = 0; j < header_ref.size(); ++j) {
            const std::complex<double> r{frame[j].real(), frame[j].imag()};
            acc += r
                * std::conj(std::complex<double>{header_ref[j].real(), header_ref[j].imag()});
        }
        anchors.emplace_back((header_ref.size() - 1) / 2.0, std::arg(acc));

        const std::complex<double> pilot_ref{pilot_symbol().real(), pilot_symbol().imag()};
        for (const int offset : block_offsets) {
            const int start = PlhFramerHeaderSymbols + offset;
            std::complex<double> pacc{0.0, 0.0};
            for (int j = 0; j < layout_.block_symbols; ++j) {
                const auto& s = frame[start + j];
                pacc += std::complex<double>{s.real(), s.imag()} * std::conj(pilot_ref);
            }
            anchors.emplace_back(start + (layout_.block_symbols - 1) / 2.0, std::arg(pacc));
        }

        // Unwrap anchor phases so interpolation follows the slow drift.
        for (std::size_t a = 1; a < anchors.size(); ++a) {
            double delta = anchors[a].second - anchors[a - 1].second;
            while (delta > std::numbers::pi) {
                anchors[a].second -= 2.0 * std::numbers::pi;
                delta = anchors[a].second - anchors[a - 1].second;
            }
            while (delta < -std::numbers::pi) {
                anchors[a].second += 2.0 * std::numbers::pi;
                delta = anchors[a].second - anchors[a - 1].second;
            }
        }

        // Piecewise-linear phase profile over the frame. Past the last
        // anchor (the payload after the last pilot block) the residual CFO
        // keeps turning the phase, so follow the last two anchors' slope.
        auto phase_at = [&](double position) {
            if (position <= anchors.front().first)
                return anchors.front().second;
            if (position >= anchors.back().first) {
                if (anchors.size() < 2)
                    return anchors.back().second;
                const auto& [x0, y0] = anchors[anchors.size() - 2];
                const auto& [x1, y1] = anchors.back();
                return y1 + (position - x1) * (y1 - y0) / (x1 - x0);
            }
            for (std::size_t a = 1; a < anchors.size(); ++a) {
                if (position <= anchors[a].first) {
                    const double t = (position - anchors[a - 1].first)
                        / (anchors[a].first - anchors[a - 1].first);
                    return anchors[a - 1].second
                        + t * (anchors[a].second - anchors[a - 1].second);
                }
            }
            return anchors.back().second;
        };

        std::vector<std::complex<float>> corrected(static_cast<std::size_t>(frame_symbols_));
        for (int n = 0; n < frame_symbols_; ++n) {
            const double phi = phase_at(static_cast<double>(n));
            const std::complex<float> rotation{static_cast<float>(std::cos(-phi)),
                                               static_cast<float>(std::sin(-phi))};
            corrected[static_cast<std::size_t>(n)] = frame[n] * rotation;
        }

        // Consume the pilots: keep header + de-pilotized payload.
        output.insert(output.end(), corrected.begin(),
                      corrected.begin() + PlhFramerHeaderSymbols);
        const std::vector<std::complex<float>> with_pilots(
            corrected.begin() + PlhFramerHeaderSymbols, corrected.end());
        const auto payload = remove_pilots(with_pilots, layout_);
        output.insert(output.end(), payload.begin(), payload.end());
    }
    return output;
}

} // namespace amp::dvbs2
