#include "kern/aio.hpp"

#include "sim/logging.hpp"

namespace bpd::kern {

namespace {

std::uint16_t
aioTrack(obs::Tracer &t, Pid pid)
{
    return t.track("libaio.p" + std::to_string(pid));
}

} // namespace

void
Aio::pread(Process &p, int fd, std::span<std::uint8_t> buf,
           std::uint64_t off, IoCb cb)
{
    // QD1 libaio = sync path + extra io_getevents round trip.
    obs::TraceId trace = 0;
    if (obs::Tracer *t = k_.tracer()) {
        trace = t->newTrace(p.pasid());
        cb = traceRequest(*t, aioTrack(*t, p.pid()), "libaio.pread", trace,
                          std::move(cb));
    }
    const Time extra = k_.cpu().scaled(k_.costs().aioExtraNs);
    k_.sysPread(p, fd, buf, off,
                [this, extra, cb = std::move(cb)](long long n,
                                                  IoTrace tr) {
                    k_.eq().after(extra, [n, tr, extra,
                                          cb = std::move(cb)]() mutable {
                        tr.kernelNs += extra;
                        cb(n, tr);
                    });
                },
                trace);
}

void
Aio::pwrite(Process &p, int fd, std::span<const std::uint8_t> buf,
            std::uint64_t off, IoCb cb)
{
    obs::TraceId trace = 0;
    if (obs::Tracer *t = k_.tracer()) {
        trace = t->newTrace(p.pasid());
        cb = traceRequest(*t, aioTrack(*t, p.pid()), "libaio.pwrite", trace,
                          std::move(cb));
    }
    const Time extra = k_.cpu().scaled(k_.costs().aioExtraNs);
    k_.sysPwrite(p, fd, buf, off,
                 [this, extra, cb = std::move(cb)](long long n,
                                                   IoTrace tr) {
                     k_.eq().after(extra, [n, tr, extra,
                                           cb = std::move(cb)]() mutable {
                         tr.kernelNs += extra;
                         cb(n, tr);
                     });
                 },
                 trace);
}

void
Aio::submitBatch(Process &p, std::vector<Op> ops, BatchCb cb)
{
    // Submissions pipeline through one io_submit call: fixed per-request
    // spacing instead of a full syscall each.
    const Time spacing = k_.cpu().scaled(800);
    auto shared = std::make_shared<BatchCb>(std::move(cb));
    for (std::size_t i = 0; i < ops.size(); i++) {
        const Op op = ops[i];
        k_.eq().after(i * spacing, [this, &p, op, i, shared]() {
            IoCb done = [shared, i](long long n, IoTrace tr) {
                (*shared)(i, n, tr);
            };
            obs::TraceId trace = 0;
            if (obs::Tracer *t = k_.tracer()) {
                trace = t->newTrace(p.pasid());
                done = traceRequest(
                    *t, aioTrack(*t, p.pid()),
                    op.write ? "libaio.pwrite" : "libaio.pread", trace,
                    std::move(done));
            }
            if (op.write) {
                k_.sysPwrite(p, op.fd,
                             std::span<const std::uint8_t>(op.buf.data(),
                                                           op.buf.size()),
                             op.off, std::move(done), trace);
            } else {
                k_.sysPread(p, op.fd, op.buf, op.off, std::move(done),
                            trace);
            }
        });
    }
}

} // namespace bpd::kern
