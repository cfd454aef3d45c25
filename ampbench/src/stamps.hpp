#pragma once
// Benchmark-side task wrappers for rt::Pipeline runs: every wrapped task
// stamps when it started and ended on each frame, so the drain thread can
// derive per-frame latency, per-task time and the stage-to-stage handoff
// (last task of stage k -> first task of stage k+1) without touching the
// runtime. End stamps are taken after the core emulator's slowdown spin, so
// an emulated little core's extra time counts as task time, not handoff.

#include "bench.hpp"

#include "rt/core_emulator.hpp"
#include "rt/task.hpp"

#include <memory>
#include <mutex>
#include <vector>

namespace ampbench {

/// Frame id of the task the calling worker is running (set by StampedTask,
/// read by StampingEmulator, which the pipeline calls right after it).
inline thread_local std::uint64_t tl_frame_seq = 0;

class FrameLog {
public:
    /// Ring depth; far above the frames any plan keeps in flight.
    static constexpr std::size_t kRing = 8192;

    explicit FrameLog(int tasks)
        : tasks_(tasks)
        , start_(kRing * static_cast<std::size_t>(tasks), 0)
        , end_(kRing * static_cast<std::size_t>(tasks), 0)
        , task_us_(static_cast<std::size_t>(tasks))
    {
    }

    /// Per-task process() time samples are kept only when enabled (traced run).
    void keep_task_samples(bool keep) noexcept { keep_samples_ = keep; }

    void start(std::uint64_t seq, int task, std::int64_t at) noexcept { start_[slot(seq, task)] = at; }
    void end(std::uint64_t seq, int task, std::int64_t at) noexcept { end_[slot(seq, task)] = at; }
    [[nodiscard]] std::int64_t started(std::uint64_t seq, int task) const noexcept
    {
        return start_[slot(seq, task)];
    }
    [[nodiscard]] std::int64_t ended(std::uint64_t seq, int task) const noexcept
    {
        return end_[slot(seq, task)];
    }

    void task_sample(int task, double us)
    {
        if (!keep_samples_)
            return;
        std::lock_guard lock{samples_mutex_};
        task_us_[static_cast<std::size_t>(task - 1)].push_back(us);
    }
    /// Samples of one task (1-based); read after the run has quiesced.
    [[nodiscard]] const std::vector<double>& task_samples(int task) const
    {
        return task_us_[static_cast<std::size_t>(task - 1)];
    }
    [[nodiscard]] int tasks() const noexcept { return tasks_; }

private:
    [[nodiscard]] std::size_t slot(std::uint64_t seq, int task) const noexcept
    {
        return (seq % kRing) * static_cast<std::size_t>(tasks_) + static_cast<std::size_t>(task - 1);
    }

    int tasks_;
    // Each (frame, task) cell is written by the one worker that runs the task
    // and read by the drain thread after the frame is delivered; the queue
    // handoffs order the two.
    std::vector<std::int64_t> start_;
    std::vector<std::int64_t> end_;
    bool keep_samples_ = false;
    std::mutex samples_mutex_; ///< guards task_us_
    std::vector<std::vector<double>> task_us_;
};

/// Wraps a task: stamps its start and times its process() call. Stateful
/// tasks stay non-replicable; replicable ones clone the inner task.
template <typename T>
class StampedTask final : public amp::rt::Task<T> {
public:
    StampedTask(amp::rt::Task<T>& inner, int index, FrameLog& log)
        : amp::rt::Task<T>(inner.name(), inner.stateful())
        , inner_(&inner)
        , index_(index)
        , log_(&log)
    {
    }

    void process(T& frame) override
    {
        tl_frame_seq = frame.seq;
        const std::int64_t t0 = now_ns();
        log_->start(frame.seq, index_, t0);
        inner_->process(frame);
        log_->task_sample(index_, static_cast<double>(now_ns() - t0) / 1e3);
    }

    [[nodiscard]] std::unique_ptr<amp::rt::Task<T>> clone() const override
    {
        if (this->stateful())
            return amp::rt::Task<T>::clone();
        auto copy = std::make_unique<StampedTask>(*inner_, index_, *log_);
        copy->owned_ = inner_->clone();
        copy->inner_ = copy->owned_.get();
        return copy;
    }

private:
    amp::rt::Task<T>* inner_;
    std::unique_ptr<amp::rt::Task<T>> owned_; ///< set on clones only
    int index_;
    FrameLog* log_;
};

/// Wraps every task of `source` (which must outlive the result).
template <typename T>
[[nodiscard]] amp::rt::TaskSequence<T> stamp_sequence(const amp::rt::TaskSequence<T>& source,
                                                      FrameLog& log)
{
    amp::rt::TaskSequence<T> wrapped;
    for (int i = 1; i <= source.size(); ++i)
        wrapped.push_back(std::make_unique<StampedTask<T>>(source.task(i), i, log));
    return wrapped;
}

/// Core emulator decorator: applies the inner emulator's slowdown, then
/// stamps the end of the task on the frame the worker is running.
class StampingEmulator final : public amp::rt::CoreEmulator {
public:
    StampingEmulator(amp::rt::CoreEmulator& inner, FrameLog& log)
        : inner_(inner)
        , log_(log)
    {
    }
    void after_task(int task_index, amp::core::CoreType worker_type,
                    std::chrono::nanoseconds elapsed) override
    {
        inner_.after_task(task_index, worker_type, elapsed);
        log_.end(tl_frame_seq, task_index, now_ns());
    }

private:
    amp::rt::CoreEmulator& inner_;
    FrameLog& log_;
};

} // namespace ampbench
