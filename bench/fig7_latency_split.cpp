/**
 * @file
 * Fig. 7: random-read latency breakdown (user / kernel / device /
 * translation) per block size, sync versus BypassD.
 *
 * With --trace FILE each (bs, engine) cell is captured as a Perfetto
 * process in one Chrome trace-event file; tools/trace_view reproduces
 * this table's per-layer breakdown from that trace.
 */

#include "bench/common.hpp"

using namespace bpd;
using namespace bpd::wl;

int
main(int argc, char **argv)
{
    bench::Cli cli("fig7_latency_split", bench::kObsFlags);
    if (int rc = cli.parse(argc, argv))
        return rc;

    bench::banner("Fig. 7", "random read latency breakdown");

    const std::uint32_t sizes[]
        = {4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10};

    std::printf("%-8s %-9s %10s %10s %10s %10s %10s\n", "bs", "engine",
                "user(ns)", "kernel(ns)", "xlate(ns)", "device(ns)",
                "total(ns)");
    for (std::uint32_t bs : sizes) {
        for (Engine e : {Engine::Sync, Engine::Bypassd}) {
            FioJob job;
            job.engine = e;
            job.rw = RwMode::RandRead;
            job.bs = bs;
            job.runtime = 8 * kMs;
            job.warmup = 1 * kMs;
            job.fileBytes = 1ull << 30;
            const std::string label = sim::strf(
                "fig7_%uk_%s", bs >> 10, toString(e));
            FioResult r = bench::runFio(job, {}, &cli.obs, label);
            std::printf("%-8u %-9s %10.0f %10.0f %10.0f %10.0f %10.0f\n",
                        bs >> 10, toString(e), r.avgUserNs,
                        r.avgKernelNs, r.avgTranslateNs, r.avgDeviceNs,
                        r.latency.mean());
        }
    }
    std::printf("\nPaper shape: sync spends ~3.8us in the kernel at "
                "every size;\nBypassD's user time is mostly the DMA "
                "buffer copy and grows with bs.\n");
    return cli.finish();
}
