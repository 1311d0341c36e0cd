#include "obs/trace.hpp"

#include "obs/metrics.hpp"
#include "sim/hash.hpp"

namespace bpd::obs {

Tracer::Tracer(const sim::EventQueue &eq, Level level,
               MetricsRegistry *metrics)
    : eq_(eq), level_(level)
{
    // Track 0 is a catch-all so a forgotten track() call still
    // produces a loadable trace.
    data_.tracks.emplace_back("misc");
    if (metrics) {
        hTotal_ = &metrics->histogram("obs", "req_total_ns");
        hUser_ = &metrics->histogram("obs", "req_user_ns");
        hKernel_ = &metrics->histogram("obs", "req_kernel_ns");
        hTranslate_ = &metrics->histogram("obs", "req_translate_ns");
        hDevice_ = &metrics->histogram("obs", "req_device_ns");
    }
}

std::uint64_t
replayDigest(const std::vector<ReplayRec> &ops)
{
    std::uint64_t h = sim::kFnvSeed;
    auto mix = [&h](std::uint64_t v) { h = sim::fnv(h, v); };
    mix(ops.size());
    for (const ReplayRec &r : ops) {
        mix(r.op);
        mix(r.engine);
        mix(r.lane);
        mix(r.proc);
        mix(r.tenant);
        mix(r.tid);
        // Mixed only when attributed so single-device digests match
        // captures that predate the device column.
        if (r.dev != 0)
            mix(r.dev);
        mix(r.file);
        mix(r.offset);
        mix(r.len);
        mix(r.aux);
        mix(r.issue);
        mix(r.complete);
        mix(static_cast<std::uint64_t>(r.result));
    }
    return h;
}

std::uint32_t Tracer::replayFile(const std::string &path)
{
    for (std::size_t i = 0; i < data_.files.size(); ++i)
        if (data_.files[i] == path)
            return static_cast<std::uint32_t>(i);
    data_.files.push_back(path);
    return static_cast<std::uint32_t>(data_.files.size() - 1);
}

void Tracer::replayUnsupported(const char *what)
{
    for (const std::string &w : data_.replayMissing)
        if (w == what)
            return;
    data_.replayMissing.emplace_back(what);
}

std::uint16_t Tracer::track(const std::string &name)
{
    for (std::size_t i = 0; i < data_.tracks.size(); ++i)
        if (data_.tracks[i] == name)
            return static_cast<std::uint16_t>(i);
    data_.tracks.push_back(name);
    return static_cast<std::uint16_t>(data_.tracks.size() - 1);
}

void Tracer::emit(SpanRec &rec)
{
    rec.tenant = tenantOf(rec.trace);
    ++spanCount_;
    if (sink_)
        sink_->onSpan(rec, data_.tracks);
    else
        data_.spans.push_back(rec);
}

void Tracer::span(std::uint16_t track, const char *name, TraceId trace,
                  Time start, Time end, std::initializer_list<Arg> args)
{
    SpanRec rec;
    rec.name = name;
    rec.trace = trace;
    rec.start = start;
    rec.end = end < start ? start : end;
    rec.track = track;
    rec.phase = 'X';
    for (const Arg &a : args) {
        if (rec.nargs == SpanRec::kMaxArgs)
            break;
        rec.args[rec.nargs++] = a;
    }
    emit(rec);
}

void Tracer::instant(std::uint16_t track, const char *name, TraceId trace,
                     std::initializer_list<Arg> args)
{
    SpanRec rec;
    rec.name = name;
    rec.trace = trace;
    rec.start = eq_.now();
    rec.end = rec.start;
    rec.track = track;
    rec.phase = 'i';
    for (const Arg &a : args) {
        if (rec.nargs == SpanRec::kMaxArgs)
            break;
        rec.args[rec.nargs++] = a;
    }
    emit(rec);
}

void Tracer::request(std::uint16_t track, const char *name, TraceId trace,
                     Time start, Time end, const RequestBreakdown &b)
{
    span(track, name, trace, start, end,
         {{"user_ns", static_cast<std::int64_t>(b.userNs)},
          {"kernel_ns", static_cast<std::int64_t>(b.kernelNs)},
          {"xlate_ns", static_cast<std::int64_t>(b.translateNs)},
          {"device_ns", static_cast<std::int64_t>(b.deviceNs)},
          {"bytes", static_cast<std::int64_t>(b.bytes)}});
    if (hTotal_) {
        hTotal_->record(end >= start ? end - start : 0);
        hUser_->record(b.userNs);
        hKernel_->record(b.kernelNs);
        hTranslate_->record(b.translateNs);
        hDevice_->record(b.deviceNs);
    }
}

} // namespace bpd::obs
