// ampbench: the ampsched benchmark driver.
//
//   ampbench --workload <solve_mix|rx_stream|resize_churn|replay_sim>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--inject-fault <k>] [--trace-dir <dir>] [--commit <id>]
//
// Every run sets up and measures the named workload phase and the other
// phases of kSecondaries. The named one is primary: it takes its inputs from
// --seed and measures for 40% of --seconds; the others split the rest evenly
// and run on seed-independent inputs. Each phase is set up several times;
// setup_s sums the medians.
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. The line before it carries host and build metadata. Unknown
// flags are errors.

#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <sstream>
#include <thread>

namespace {

using namespace ampbench;

constexpr const char* kWorkloads[] = {"solve_mix", "rx_stream", "resize_churn", "replay_sim"};
/// Phases that also run, on fixed inputs, when another phase is primary.
/// resize_churn runs only as the primary phase: rt::Pipeline's in-flight
/// shrink can hang the running segment (see README.md, "Known defect"),
/// and a phase that hangs some runs cannot ride along in every run.
constexpr const char* kSecondaries[] = {"solve_mix", "rx_stream", "replay_sim"};
constexpr int kSetupRepetitions = 11;
/// Inputs of the secondary phases, the same on every run.
constexpr std::uint64_t kSecondarySeed = 0x5EC0;
/// Share of --seconds the primary phase measures; the rest is split evenly.
constexpr double kPrimaryShare = 0.4;

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    int inject_fault = 0;
    std::string trace_dir;
    std::string commit = "unknown";
};

[[noreturn]] void usage_error(const std::string& message)
{
    std::fprintf(stderr, "ampbench: %s\n", message.c_str());
    std::exit(2);
}

bool parse_flag01(const std::string& name, const std::string& value)
{
    if (value == "0")
        return false;
    if (value == "1")
        return true;
    usage_error("--" + name + " takes 0 or 1, got '" + value + "'");
}

/// Kinds of deliberately wrong answer a workload can inject.
int fault_kinds(const std::string& workload) { return workload == "rx_stream" ? 3 : 1; }

Args parse_args(int argc, char** argv)
{
    Args args;
    std::map<std::string, std::function<void(const std::string&)>> flags{
        {"workload", [&](const std::string& v) { args.workload = v; }},
        {"seed",
         [&](const std::string& v) {
             char* end = nullptr;
             args.seed = std::strtoull(v.c_str(), &end, 10);
             if (v.empty() || *end != '\0' || v[0] == '-')
                 usage_error("--seed takes a non-negative integer, got '" + v + "'");
         }},
        {"seconds",
         [&](const std::string& v) {
             char* end = nullptr;
             args.seconds = std::strtod(v.c_str(), &end);
             if (v.empty() || *end != '\0' || !(args.seconds > 0.0) || args.seconds > 3600.0)
                 usage_error("--seconds takes a number in (0, 3600], got '" + v + "'");
         }},
        {"trace", [&](const std::string& v) { args.trace = parse_flag01("trace", v); }},
        {"inject-fault",
         [&](const std::string& v) {
             if (v.size() != 1 || v[0] < '0' || v[0] > '9')
                 usage_error("--inject-fault takes a digit, got '" + v + "'");
             args.inject_fault = v[0] - '0';
         }},
        {"trace-dir", [&](const std::string& v) { args.trace_dir = v; }},
        {"commit", [&](const std::string& v) { args.commit = v; }},
    };
    std::map<std::string, bool> seen;
    for (int i = 1; i < argc; ++i) {
        std::string token = argv[i];
        if (token.rfind("--", 0) != 0)
            usage_error("unexpected argument '" + token + "'");
        token = token.substr(2);
        std::string value;
        if (const auto eq = token.find('='); eq != std::string::npos) {
            value = token.substr(eq + 1);
            token = token.substr(0, eq);
        } else {
            if (i + 1 >= argc)
                usage_error("--" + token + " needs a value");
            value = argv[++i];
        }
        const auto it = flags.find(token);
        if (it == flags.end())
            usage_error("unknown flag --" + token);
        if (seen[token])
            usage_error("--" + token + " given twice");
        seen[token] = true;
        it->second(value);
    }
    for (const char* required : {"workload", "seed", "seconds", "trace"})
        if (!seen[required])
            usage_error(std::string{"missing --"} + required);
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads), args.workload)
        == std::end(kWorkloads))
        usage_error("unknown workload '" + args.workload + "'");
    if (args.inject_fault > fault_kinds(args.workload))
        usage_error("--inject-fault: " + args.workload + " has "
                    + std::to_string(fault_kinds(args.workload)) + " kinds of wrong answer");
    return args;
}

std::unique_ptr<Phase> make_phase(const std::string& name)
{
    if (name == "solve_mix")
        return make_solve_mix();
    if (name == "rx_stream")
        return make_rx_stream();
    if (name == "resize_churn")
        return make_resize_churn();
    return make_replay_sim();
}

// -- host and build metadata ------------------------------------------------

/// Times a fixed CPU-bound loop on `threads` threads at once; returns the
/// slowest thread's milliseconds.
double cpu_probe_ms(int threads)
{
    std::vector<double> ms(static_cast<std::size_t>(threads), 0.0);
    const auto body = [&](int t) {
        const std::int64_t t0 = now_ns();
        std::uint64_t x = 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(t);
        for (int i = 0; i < 20'000'000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        ms[static_cast<std::size_t>(t)] = static_cast<double>(now_ns() - t0) / 1e6 + static_cast<double>(x & 1) * 1e-12;
    };
    std::vector<std::thread> pool;
    for (int t = 1; t < threads; ++t)
        pool.emplace_back(body, t);
    body(0);
    for (auto& thread : pool)
        thread.join();
    return *std::max_element(ms.begin(), ms.end());
}

struct HostSample {
    double load1 = -1.0;
    double probe_1_ms = 0.0;
    double probe_n_ms = 0.0;
};

HostSample sample_host(int nproc)
{
    HostSample sample;
    double load[1] = {-1.0};
    if (getloadavg(load, 1) == 1)
        sample.load1 = load[0];
    sample.probe_1_ms = cpu_probe_ms(1);
    sample.probe_n_ms = cpu_probe_ms(std::max(1, nproc - 1));
    return sample;
}

std::string json_string(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string json_number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void print_host(const Args& args, int nproc, const HostSample& before, const HostSample& after)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    const bool sanitized = true;
#else
    const bool sanitized = false;
#endif
    const std::string build_type = AMPBENCH_BUILD_TYPE;
    const auto sample = [&](const HostSample& s) {
        const int n = std::max(1, nproc - 1);
        return std::string{"{\"load1\": "} + json_number(s.load1)
            + ", \"probe_1_thread_ms\": " + json_number(s.probe_1_ms)
            + ", \"probe_n_threads_ms\": " + json_number(s.probe_n_ms)
            + ", \"probe_threads\": " + std::to_string(n)
            + ", \"probe_scaling\": " + json_number(n * s.probe_1_ms / s.probe_n_ms) + "}";
    };
    std::printf("{\"host\": {\"nproc\": %d, \"before\": %s, \"after\": %s}, "
                "\"build\": {\"compiler\": %s, \"build_type\": %s, \"sanitizer\": %s, "
                "\"commit\": %s, \"warning\": %s}, \"workload\": %s, \"seed\": %llu}\n",
                nproc, sample(before).c_str(), sample(after).c_str(),
                json_string(__VERSION__).c_str(), json_string(build_type).c_str(),
                sanitized ? "true" : "false", json_string(args.commit).c_str(),
                build_type != "Release" || sanitized
                    ? "\"not a Release build: timings are not comparable\""
                    : "null",
                json_string(args.workload).c_str(), static_cast<unsigned long long>(args.seed));
}

/// Turns a hung phase into a prompt failure: after `limit` it names the
/// phase on stderr and ends the process without printing a result.
class Watchdog {
public:
    explicit Watchdog(std::chrono::seconds limit)
        : thread_{[this, limit] {
            std::unique_lock lock{mutex_};
            if (!done_cv_.wait_for(lock, limit, [this] { return done_; })) {
                std::fprintf(stderr, "ampbench: %s did not finish within %lld s\n", phase_.c_str(),
                             static_cast<long long>(limit.count()));
                std::_Exit(3);
            }
        }}
    {
    }
    ~Watchdog()
    {
        {
            std::lock_guard lock{mutex_};
            done_ = true;
        }
        done_cv_.notify_all();
        thread_.join();
    }
    Watchdog(const Watchdog&) = delete;
    Watchdog& operator=(const Watchdog&) = delete;

    void enter(const std::string& phase)
    {
        std::lock_guard lock{mutex_};
        phase_ = phase;
    }

private:
    std::mutex mutex_; ///< guards phase_ and done_
    std::condition_variable done_cv_;
    std::string phase_ = "start-up";
    bool done_ = false;
    std::thread thread_;
};

} // namespace

int main(int argc, char** argv)
{
    const Args args = parse_args(argc, argv);
    const int nproc = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    // Well inside the 180 s a run may take, yet far above any healthy run.
    Watchdog watchdog{std::chrono::seconds{static_cast<long long>(std::min(170.0, 40.0 + 4.0 * args.seconds))}};
    try {
        const HostSample before = sample_host(nproc);
        Tracer tracer;
        if (args.trace)
            tracer.enable();

        PhaseOptions options;
        options.seed = args.seed;
        options.inject_fault = args.inject_fault;
        options.nproc = nproc;

        // The primary phase first, then the others; each is set up several
        // times (set-up time is the median) before it measures.
        std::vector<std::string> order{args.workload};
        for (const char* name : kSecondaries)
            if (name != args.workload)
                order.emplace_back(name);
        const double secondary_share = (1.0 - kPrimaryShare) / static_cast<double>(order.size() - 1);
        std::vector<PhaseResult> results;
        double setup_s = 0.0;
        double overhead_share = 0.0;
        for (const std::string& name : order) {
            const bool primary = name == args.workload;
            PhaseOptions phase_options = options;
            phase_options.seed = primary ? args.seed : kSecondarySeed;
            phase_options.inject_fault = primary ? args.inject_fault : 0;
            phase_options.seconds = (primary ? kPrimaryShare : secondary_share) * args.seconds;
            phase_options.tracer = args.trace ? &tracer : nullptr;
            watchdog.enter(name + (primary ? " (primary)" : " (secondary)"));

            std::unique_ptr<Phase> phase = make_phase(name);
            std::vector<double> setups;
            for (int r = 0; r < kSetupRepetitions; ++r) {
                const std::int64_t t0 = now_ns();
                phase->setup(phase_options);
                setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
            }
            setup_s += median(setups);
            if (args.trace && primary) {
                // Same phase, same inputs, fresh state: an untraced half,
                // then a traced half; the cost ratio is the tracing overhead.
                PhaseOptions untraced_options = phase_options;
                untraced_options.tracer = nullptr;
                untraced_options.seconds /= 2;
                phase_options.seconds /= 2;
                phase->setup(untraced_options);
                const PhaseResult untraced = phase->run(untraced_options);
                phase->setup(phase_options);
                results.push_back(phase->run(phase_options));
                overhead_share = untraced.cost > 0.0 ? results.back().cost / untraced.cost - 1.0 : 0.0;
                results.back().attempted += untraced.attempted;
                results.back().failed += untraced.failed;
            } else {
                results.push_back(phase->run(phase_options));
            }
            results.back().per_layer.push_back({"setup_ms." + name, median(setups) * 1e3, "ms"});
        }
        const HostSample after = sample_host(nproc);

        std::uint64_t attempted = 0, failed = 0;
        std::vector<Metric> metrics;
        for (const PhaseResult& r : results) {
            attempted += r.attempted;
            failed += r.failed;
            const auto& chosen = args.trace ? r.per_layer : r.end_to_end;
            metrics.insert(metrics.end(), chosen.begin(), chosen.end());
        }
        if (args.trace) {
            metrics.push_back({"trace.overhead_share", overhead_share, "ratio"});
            const auto self = tracer.self_time_ms({"core", "svc", "plan", "rt", "dvbs2", "dsim"});
            metrics.insert(metrics.end(), self.begin(), self.end());
            const std::string path = args.trace_dir + "/" + args.workload + ".csv";
            if (!args.trace_dir.empty() && !tracer.write_csv(path))
                std::fprintf(stderr, "ampbench: could not write %s\n", path.c_str());
        } else {
            rusage usage{};
            getrusage(RUSAGE_SELF, &usage);
            metrics.push_back({"setup_s", setup_s, "s"});
            metrics.push_back({"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"});
        }

        print_host(args, nproc, before, after);
        std::ostringstream out;
        out << "{\"correct\": " << (failed == 0 ? "true" : "false") << ", \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics.size(); ++i)
            out << (i == 0 ? "" : ", ") << json_string(metrics[i].name) << ": {\"value\": "
                << json_number(metrics[i].value) << ", \"unit\": " << json_string(metrics[i].unit)
                << "}";
        out << "}}";
        std::printf("%s\n", out.str().c_str());
        return 0;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "ampbench: %s\n", error.what());
        return 1;
    }
}
