#pragma once
// Shared pieces of the ampsched benchmark driver: metric records, order
// statistics, the in-memory span tracer, and the phase interface every
// workload implements. See ../README.md for what each workload measures.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace ampbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// One reported number: name, value and unit, as printed in the report.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/// Length of a chunk of window, in seconds.
inline constexpr double kChunkSeconds = 1.0;
/// Number of chunks a window of `seconds` is cut into for across_chunks.
[[nodiscard]] int chunk_count(double seconds);

/// Combines one figure per chunk of a window (a second of stream, a segment)
/// into the reported value: the chunk at the better quartile, i.e. the 25th
/// percentile of the chunks when lower is better, the 75th when higher is.
[[nodiscard]] double across_chunks(std::vector<double> per_chunk, bool higher_is_better);

/// Splits `values` (in arrival order) into `chunks` contiguous runs of equal
/// length, takes the q-quantile of each, and combines them with
/// across_chunks (lower is better).
[[nodiscard]] double chunked_quantile(const std::vector<double>& values, int chunks, double q);

/// 64-bit FNV-1a over a byte range; the per-frame checksums use it.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t bytes,
                                  std::uint64_t hash = 0xcbf29ce484222325ULL) noexcept;

/// Spins (does not sleep) until `duration_ns` of wall time has passed.
void spin_for_ns(std::int64_t duration_ns) noexcept;

// ---------------------------------------------------------------------------
// Tracing: one span per public call the benchmark makes into a layer and per
// frame stage. Spans live in per-thread buffers and are written out once at
// exit; a disabled tracer costs one branch per span site.

/// Span names and layers are not copied: they are string literals or come
/// from Tracer::intern, so they outlive every span that points at them.
struct SpanRecord {
    const char* name = "";
    const char* layer = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1; ///< index of the enclosing span in the same thread buffer
    std::uint64_t id = 0;     ///< request or frame id
};

class Tracer {
public:
    [[nodiscard]] bool enabled() const noexcept { return enabled_; }
    void enable() noexcept { enabled_ = true; }

    /// Opens a span on the calling thread; returns its handle for close().
    [[nodiscard]] std::int64_t open(const char* name, const char* layer, std::uint64_t id);
    void close(std::int64_t handle) noexcept;
    /// Records a span whose ends were stamped elsewhere, possibly on other
    /// threads (frame stages); it has no parent.
    void record(const char* name, const char* layer, std::int64_t start_ns,
                std::int64_t end_ns, std::uint64_t id);
    /// A copy of `name` that lives as long as the tracer, for span names
    /// that are not string literals (the receiver's task names).
    [[nodiscard]] const char* intern(const std::string& name);

    /// Self time (span duration minus same-thread child spans) per layer, in ms.
    [[nodiscard]] std::vector<Metric> self_time_ms(const std::vector<std::string>& layers) const;
    /// Writes every span as CSV (thread,name,layer,start_ns,end_ns,parent,id).
    bool write_csv(const std::string& path) const;

private:
    struct ThreadBuffer {
        std::vector<SpanRecord> spans;
        std::vector<std::int64_t> stack;
    };
    ThreadBuffer& local();

    bool enabled_ = false;
    mutable std::mutex mutex_; ///< guards buffers_ (registration only)
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
    std::set<std::string> names_; ///< interned span names; guarded by mutex_
};

/// RAII span; a null or disabled tracer records nothing.
class Span {
public:
    Span(Tracer* tracer, const char* name, const char* layer, std::uint64_t id = 0)
        : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr)
        , handle_(tracer_ != nullptr ? tracer_->open(name, layer, id) : -1)
    {
    }
    ~Span()
    {
        if (tracer_ != nullptr)
            tracer_->close(handle_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    Tracer* tracer_;
    std::int64_t handle_;
};

// ---------------------------------------------------------------------------
// Workload phases. Every run executes all four phases so that the report
// always carries every end-to-end metric; the phase named by --workload is
// the primary one (it gets the longest window, the seeded inputs and the
// set-up repetitions), the others run shorter slices on fixed inputs.

struct PhaseOptions {
    std::uint64_t seed = 1; ///< inputs are a pure function of it
    double seconds = 1.0;  ///< measured window of this phase
    /// 0: none; k > 0: corrupt one answer with the phase's k-th kind of
    /// wrong answer, so the checks must catch it.
    int inject_fault = 0;
    int nproc = 1;
    Tracer* tracer = nullptr; ///< non-null only in the traced run
};

struct PhaseResult {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> end_to_end;
    std::vector<Metric> per_layer;
    /// Primary-cost figure the traced/untraced comparison uses
    /// (trace.overhead_share): time per unit of work, lower is better.
    double cost = 0.0;
};

/// A workload phase: set up (repeatable, timed for setup_s), then run.
class Phase {
public:
    virtual ~Phase() = default;
    /// Builds all inputs and state; may be called several times, each call
    /// replacing the previous state.
    virtual void setup(const PhaseOptions& options) = 0;
    /// Measures with the state the last setup() built.
    virtual PhaseResult run(const PhaseOptions& options) = 0;
};

std::unique_ptr<Phase> make_solve_mix();
std::unique_ptr<Phase> make_rx_stream();
std::unique_ptr<Phase> make_resize_churn();
std::unique_ptr<Phase> make_replay_sim();

} // namespace ampbench
