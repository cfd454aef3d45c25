#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>

namespace ampbench {

double quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

int chunk_count(double seconds)
{
    return std::max(1, static_cast<int>(std::lround(seconds / kChunkSeconds)));
}

double across_chunks(std::vector<double> per_chunk, bool higher_is_better)
{
    // Host interference only ever slows a chunk down, so the better quartile
    // of the chunks tracks the code; the median tracks the neighbours.
    return quantile(std::move(per_chunk), higher_is_better ? 0.75 : 0.25);
}

double chunked_quantile(const std::vector<double>& values, int chunks, double q)
{
    const std::size_t n = values.size();
    const auto k = static_cast<std::size_t>(std::max(1, chunks));
    if (n < k)
        return quantile(values, q);
    std::vector<double> per_chunk;
    for (std::size_t c = 0; c < k; ++c) {
        const auto first = values.begin() + static_cast<std::ptrdiff_t>(c * n / k);
        const auto last = values.begin() + static_cast<std::ptrdiff_t>((c + 1) * n / k);
        per_chunk.push_back(quantile(std::vector<double>(first, last), q));
    }
    return across_chunks(std::move(per_chunk), false);
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t hash) noexcept
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        hash ^= p[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

void spin_for_ns(std::int64_t duration_ns) noexcept
{
    const std::int64_t until = now_ns() + duration_ns;
    while (now_ns() < until) {
    }
}

Tracer::ThreadBuffer& Tracer::local()
{
    // One tracer lives for the whole process, so a per-thread cache of the
    // buffer pointer keyed by the owner is enough.
    thread_local const Tracer* owner = nullptr;
    thread_local ThreadBuffer* buffer = nullptr;
    if (owner != this) {
        std::lock_guard lock{mutex_};
        buffers_.push_back(std::make_unique<ThreadBuffer>());
        buffer = buffers_.back().get();
        buffer->spans.reserve(1024);
        owner = this;
    }
    return *buffer;
}

std::int64_t Tracer::open(const char* name, const char* layer, std::uint64_t id)
{
    ThreadBuffer& buffer = local();
    SpanRecord span;
    span.name = name;
    span.layer = layer;
    span.id = id;
    span.parent = buffer.stack.empty() ? -1 : buffer.stack.back();
    span.start_ns = now_ns();
    buffer.spans.push_back(span);
    const auto handle = static_cast<std::int64_t>(buffer.spans.size() - 1);
    buffer.stack.push_back(handle);
    return handle;
}

void Tracer::close(std::int64_t handle) noexcept
{
    ThreadBuffer& buffer = local();
    buffer.spans[static_cast<std::size_t>(handle)].end_ns = now_ns();
    if (!buffer.stack.empty())
        buffer.stack.pop_back();
}

void Tracer::record(const char* name, const char* layer, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t id)
{
    ThreadBuffer& buffer = local();
    SpanRecord span;
    span.name = name;
    span.layer = layer;
    span.id = id;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    buffer.spans.push_back(span);
}

const char* Tracer::intern(const std::string& name)
{
    std::lock_guard lock{mutex_};
    return names_.insert(name).first->c_str();
}

std::vector<Metric> Tracer::self_time_ms(const std::vector<std::string>& layers) const
{
    std::map<std::string, double> self_ns;
    for (const std::string& layer : layers)
        self_ns[layer] = 0.0;
    std::lock_guard lock{mutex_};
    for (const auto& buffer : buffers_) {
        const auto& spans = buffer->spans;
        std::vector<double> child_ns(spans.size(), 0.0);
        for (const SpanRecord& span : spans)
            if (span.parent >= 0)
                child_ns[static_cast<std::size_t>(span.parent)] +=
                    static_cast<double>(span.end_ns - span.start_ns);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const auto it = self_ns.find(spans[i].layer);
            if (it != self_ns.end())
                it->second += std::max(
                    0.0, static_cast<double>(spans[i].end_ns - spans[i].start_ns) - child_ns[i]);
        }
    }
    std::vector<Metric> out;
    for (const std::string& layer : layers)
        out.push_back({"trace.self_ms." + layer, self_ns[layer] / 1e6, "ms"});
    return out;
}

bool Tracer::write_csv(const std::string& path) const
{
    std::ofstream out{path};
    if (!out)
        return false;
    out << "thread,name,layer,start_ns,end_ns,parent,id\n";
    std::lock_guard lock{mutex_};
    for (std::size_t t = 0; t < buffers_.size(); ++t)
        for (const SpanRecord& span : buffers_[t]->spans)
            out << t << ',' << span.name << ',' << span.layer << ',' << span.start_ns << ','
                << span.end_ns << ',' << span.parent << ',' << span.id << '\n';
    return static_cast<bool>(out);
}

} // namespace ampbench
