// rx_stream: the paper's own end-to-end measure -- the 23-task DVB-S2
// receiver (dvbs2::ReceiverChain, real DSP) streaming through rt::Pipeline,
// saturating. The HeRAD plan is solved once from the per-task profile stored
// below, so every run executes the same plan; the little core is emulated by
// rt::SlowdownEmulator with the paper's Mac Studio little/big ratios. Tasks
// cost hundreds of microseconds to milliseconds, so dvbs2 kernels dominate,
// rt handoff is a small share, and core/svc run during set-up only.

#include "bench.hpp"
#include "stamps.hpp"

#include "dvbs2/profiles.hpp"
#include "dvbs2/receiver.hpp"
#include "dvbs2/tx/transmitter.hpp"
#include "plan/execution_plan.hpp"
#include "rt/pipeline.hpp"
#include "svc/solver_service.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <optional>
#include <stdexcept>

namespace ampbench {
namespace {

using namespace amp;

/// Big-core latency per receiver task (us, Table III order, interframe 1),
/// measured once with rt::profile_sequence over 40 frames on a 4-core Xeon
/// and frozen here so that every run schedules the same plan.
constexpr std::array<double, 23> kProfileBigUs = {
    2644.1, 22.7,  438.5, 258.1, 363.6, 579.4, 22.6,  11.2,  748.0, 20.7,  141.3, 176.8,
    260.7,  7.0,   10.3,  5.0,   14.2,  925.8, 724.6, 32.0,  12.1,  20.4,  5.0,
};
constexpr int kInterframe = 1;
constexpr std::uint64_t kWarmupFrames = 24;     ///< frame-sync acquisition, untimed
constexpr std::uint64_t kMinSegmentFrames = 8;
/// Inter-stage queue depth, in frames. The paper's runtime keeps adaptor
/// buffers short; with deep queues a saturated chain's latency is mostly
/// whichever queue happens to be full, which says little about the plan.
constexpr std::size_t kQueueCapacity = 2;
constexpr int kCompileSamples = 101; ///< plan compiles timed in the traced run
constexpr std::uint64_t kMaxReported = 8; ///< failed frames described on stderr

/// "Sync. Freq. Fine L&R - synchronize" -> "12_sync_freq_fine_l_r_synchronize".
std::string task_slug(int index, const std::string& name)
{
    char prefix[16];
    std::snprintf(prefix, sizeof prefix, "%02d_", index);
    std::string slug = prefix;
    bool sep = false;
    for (const char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
            if (sep && slug.back() != '_')
                slug += '_';
            slug += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
            sep = false;
        } else {
            sep = true;
        }
    }
    return slug;
}

class RxStream final : public Phase {
public:
    void setup(const PhaseOptions& options) override
    {
        pipeline_.reset();
        const std::uint64_t seed = options.seed;
        dvbs2::ReceiverConfig config;
        config.params.interframe = kInterframe;
        config.data_seed = seed * 0x9E3779B97F4A7C15ULL + 1;
        config.channel.seed = seed ^ 0xC4A11;
        receiver_.emplace(dvbs2::build_receiver_chain(config));
        log_ = std::make_unique<FrameLog>(receiver_->sequence.size());
        log_->keep_task_samples(options.tracer != nullptr);
        sequence_ = stamp_sequence(receiver_->sequence, *log_);

        const int total = std::clamp(options.nproc - 1, 2, 3);
        budget_ = core::Resources{total - 1, 1};
        const std::vector<double> factors =
            dvbs2::little_slowdown_factors(dvbs2::mac_studio_profile());
        std::vector<double> big(kProfileBigUs.begin(), kProfileBigUs.end());
        std::vector<double> little(big.size());
        for (std::size_t i = 0; i < big.size(); ++i)
            little[i] = big[i] * factors[i];
        chain_ = sequence_.to_core_chain(big, little);

        svc::ServiceConfig service_config;
        service_config.workers = 1;
        svc::SolverService service{service_config};
        svc::PlannedSchedule planned;
        {
            Span span{options.tracer, "svc.solve_planned", "svc"};
            planned = service.solve_planned(
                core::ScheduleRequest{chain_, budget_, core::Strategy::herad},
                plan::PlanOptions{kQueueCapacity});
        }
        if (!planned.ok())
            throw std::runtime_error{"rx_stream: no HeRAD plan for the stored profile"};
        predicted_period_us_ = planned.plan->period_us();
        solution_ = planned.result.solution;

        emulator_ = std::make_unique<rt::SlowdownEmulator>(factors);
        stamping_ = std::make_unique<StampingEmulator>(*emulator_, *log_);
        rt::PipelineConfig pipeline_config;
        pipeline_config.emulator = stamping_.get();
        const std::int64_t t0 = now_ns();
        {
            Span span{options.tracer, "rt.pipeline_setup", "rt"};
            // Workers spawn with the first segment (the run's warm-up).
            pipeline_ = std::make_unique<rt::Pipeline<dvbs2::DvbFrame>>(
                sequence_, *planned.plan, pipeline_config);
        }
        pipeline_setup_ms_ = static_cast<double>(now_ns() - t0) / 1e6;
        stage_first_.clear();
        for (const plan::PlanStage& stage : planned.plan->stages())
            stage_first_.push_back(stage.first);
        workers_ = planned.plan->worker_count();
    }

    PhaseResult run(const PhaseOptions& options) override
    {
        Tracer* tracer = options.tracer;
        const auto& counters = *receiver_->counters;
        // Frame sync locks during the warm-up; its last decoded frame fixes
        // the offset between pipeline frame ids and transmitted frame indices.
        std::optional<std::uint64_t> index_offset;
        const rt::RunResult warm = pipeline_->run_from(0, kWarmupFrames, [&](dvbs2::DvbFrame& frame) {
            if (frame.valid && frame.bits.size() >= 64)
                index_offset = dvbs2::extract_frame_index(frame.bits) - frame.seq;
        });
        if (!index_offset)
            throw std::runtime_error{"rx_stream: no frame decoded during the warm-up"};
        const std::uint64_t errors_before = counters.frame_errors.load();
        const std::uint64_t skipped_before = counters.frames_skipped.load();

        // The stream runs in segments of about one second each; every
        // segment is one throughput sample and the report takes medians.
        std::uint64_t next = kWarmupFrames;
        std::uint64_t expected = next;
        std::uint64_t requested = 0, delivered = 0, dropped = 0, bad = 0;
        std::vector<double> latency_ms, segment_fps, segment_p50_ms, handoff_us;
        double busy_us = 0.0, elapsed_s = 0.0;
        double fps_estimate = std::max(1.0, warm.fps());
        // The tasks' own names go when the phase does; the spans keep copies.
        std::vector<const char*> task_names;
        if (tracer != nullptr)
            for (int t = 1; t <= log_->tasks(); ++t)
                task_names.push_back(tracer->intern(sequence_.task(t).name()));
        const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
        while (segment_fps.empty() || now_ns() < deadline) {
            const auto frames = std::max<std::uint64_t>(
                kMinSegmentFrames, static_cast<std::uint64_t>(fps_estimate * kChunkSeconds));
            const std::size_t first_sample = latency_ms.size();
            const rt::RunResult run = pipeline_->run_from(next, next + frames, [&](dvbs2::DvbFrame& frame) {
                const std::int64_t now = now_ns();
                if (options.inject_fault != 0 && delivered == frames / 2)
                    inject(frame, options.inject_fault);
                const std::uint64_t seq = frame.seq;
                ++delivered;
                // In order, decoded (frame sync held) and carrying the next
                // transmitted frame's index; the Monitor checks its bits.
                const bool decoded = frame.valid && frame.bits.size() >= 64;
                const std::uint64_t index = decoded ? dvbs2::extract_frame_index(frame.bits) : 0;
                const bool wrong = seq != expected || !decoded || index != seq + *index_offset;
                if (wrong && bad < kMaxReported)
                    std::fprintf(stderr,
                                 "rx_stream: failed frame seq=%llu expected=%llu valid=%d bits=%zu "
                                 "index=%llu expected_index=%llu\n",
                                 static_cast<unsigned long long>(seq),
                                 static_cast<unsigned long long>(expected), frame.valid ? 1 : 0,
                                 frame.bits.size(), static_cast<unsigned long long>(index),
                                 static_cast<unsigned long long>(seq + *index_offset));
                bad += wrong ? 1 : 0;
                expected = seq + 1;
                latency_ms.push_back(static_cast<double>(now - log_->started(seq, 1)) / 1e6);
                if (tracer == nullptr)
                    return;
                const int n = log_->tasks();
                for (int t = 1; t <= n; ++t) {
                    tracer->record(task_names[static_cast<std::size_t>(t - 1)], "dvbs2",
                                   log_->started(seq, t), log_->ended(seq, t), seq);
                    busy_us += static_cast<double>(log_->ended(seq, t) - log_->started(seq, t)) / 1e3;
                }
                for (std::size_t s = 1; s < stage_first_.size(); ++s) {
                    const std::int64_t from = log_->ended(seq, stage_first_[s] - 1);
                    const std::int64_t to = log_->started(seq, stage_first_[s]);
                    tracer->record("rt.handoff", "rt", from, to, seq);
                    handoff_us.push_back(static_cast<double>(to - from) / 1e3);
                }
                tracer->record("rt.drain", "rt", log_->ended(seq, n), now, seq);
            });
            next += frames;
            expected = next;
            requested += frames;
            dropped += run.frames_dropped;
            elapsed_s += run.elapsed_seconds;
            segment_fps.push_back(run.fps());
            segment_p50_ms.push_back(median(std::vector<double>(
                latency_ms.begin() + static_cast<std::ptrdiff_t>(first_sample), latency_ms.end())));
            fps_estimate = std::max(1.0, run.fps());
        }

        PhaseResult result;
        result.attempted = requested;
        const std::uint64_t frame_errors = counters.frame_errors.load() - errors_before;
        const std::uint64_t frames_skipped = counters.frames_skipped.load() - skipped_before;
        const std::uint64_t monitor_errors = frame_errors + frames_skipped;
        if (monitor_errors + dropped != 0 || delivered != requested)
            std::fprintf(stderr,
                         "rx_stream: monitor frame_errors=%llu frames_skipped=%llu dropped=%llu "
                         "requested=%llu delivered=%llu\n",
                         static_cast<unsigned long long>(frame_errors),
                         static_cast<unsigned long long>(frames_skipped),
                         static_cast<unsigned long long>(dropped),
                         static_cast<unsigned long long>(requested),
                         static_cast<unsigned long long>(delivered));
        result.failed = std::min<std::uint64_t>(
            requested, bad + dropped + (requested - std::min(requested, delivered)) + monitor_errors);
        const double fps = across_chunks(segment_fps, true);
        result.cost = fps > 0.0 ? 1.0 / fps : 0.0;
        result.end_to_end = {{"rx_frames_per_s", fps, "1/s"}};
        // The latencies follow which stage the host slows down more than the
        // code, so they are reported per layer, without a bound.
        result.per_layer.push_back(
            {"rx_latency_p50_ms", across_chunks(segment_p50_ms, false), "ms"});
        result.per_layer.push_back({"rx_latency_p99_ms", quantile(latency_ms, 0.99), "ms"});
        for (int t = 1; t <= log_->tasks(); ++t)
            result.per_layer.push_back(
                {"dvbs2.task_us_p50." + task_slug(t, sequence_.task(t).name()),
                 median(log_->task_samples(t)), "us"});
        const double observed_period_us = delivered > 0 ? elapsed_s * 1e6 / static_cast<double>(delivered) : 0.0;
        result.per_layer.push_back(
            {"rt.busy_share", busy_us / (elapsed_s * 1e6 * workers_), "ratio"});
        result.per_layer.push_back(
            {"rt.period_ratio", observed_period_us / predicted_period_us_, "ratio"});
        result.per_layer.push_back({"rt.pipeline_setup_ms", pipeline_setup_ms_, "ms"});
        result.per_layer.push_back({"rt.rx_handoff_us_p50", quantile(handoff_us, 0.5), "us"});
        if (tracer != nullptr) {
            // The compile solve_planned did in set-up, timed on its own,
            // outside the window.
            std::vector<double> compile_us;
            for (int i = 0; i < kCompileSamples; ++i) {
                const std::int64_t t0 = now_ns();
                {
                    Span span{tracer, "plan.compile", "plan"};
                    (void)plan::ExecutionPlan::compile(chain_, solution_, plan::PlanOptions{kQueueCapacity});
                }
                compile_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
            }
            result.per_layer.push_back({"plan.compile_us_p50", median(compile_us), "us"});
        }
        return result;
    }

private:
    /// The smoke test's wrong answers: 1 reorders a frame, 2 delivers one
    /// undecoded (frame sync lost), 3 delivers a neighbouring transmitted
    /// frame in its place (payload index off by one).
    static void inject(dvbs2::DvbFrame& frame, int kind)
    {
        if (kind == 1)
            frame.seq += 1;
        else if (kind == 2)
            frame.valid = false;
        else if (!frame.bits.empty())
            frame.bits[std::min<std::size_t>(63, frame.bits.size() - 1)] ^= 1;
    }

    // Destruction order matters: the pipeline joins its workers first, then
    // the emulators and wrapped tasks it uses go, then the receiver tasks.
    std::optional<dvbs2::ReceiverChain> receiver_;
    std::unique_ptr<FrameLog> log_;
    rt::TaskSequence<dvbs2::DvbFrame> sequence_;
    std::unique_ptr<rt::SlowdownEmulator> emulator_;
    std::unique_ptr<StampingEmulator> stamping_;
    std::unique_ptr<rt::Pipeline<dvbs2::DvbFrame>> pipeline_;
    core::Resources budget_{};
    core::TaskChain chain_;
    core::Solution solution_;
    double predicted_period_us_ = 0.0;
    double pipeline_setup_ms_ = 0.0;
    std::vector<int> stage_first_;
    int workers_ = 1;
};

} // namespace

std::unique_ptr<Phase> make_rx_stream() { return std::make_unique<RxStream>(); }

} // namespace ampbench
