/**
 * @file
 * Fig. 8: effect of the VBA translation latency on single-thread read
 * bandwidth. The IOMMU's component model is overridden with fixed
 * delays of 0/350/550/950/1350 ns; sync is the kernel baseline.
 */

#include "bench/common.hpp"

using namespace bpd;
using namespace bpd::wl;

int
main(int argc, char **argv)
{
    bench::Cli cli("fig8_translation_sweep", bench::kObsFlags);
    if (int rc = cli.parse(argc, argv))
        return rc;

    bench::banner("Fig. 8",
                  "read bandwidth vs VBA translation latency");

    const std::uint32_t sizes[]
        = {4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10};
    const std::int64_t delays[] = {0, 350, 550, 950, 1350};

    std::printf("%-14s", "config");
    for (std::uint32_t bs : sizes)
        std::printf(" %7uK", bs >> 10);
    std::printf("   (GB/s)\n");

    for (std::int64_t d : delays) {
        std::printf("%-14s", sim::strf("bypassd/%lldns", (long long)d)
                                 .c_str());
        for (std::uint32_t bs : sizes) {
            sys::SystemConfig cfg;
            cfg.iommu.fixedVbaLatencyNs = d;
            FioJob job;
            job.engine = Engine::Bypassd;
            job.rw = RwMode::RandRead;
            job.bs = bs;
            job.runtime = 8 * kMs;
            job.warmup = 1 * kMs;
            job.fileBytes = 1ull << 30;
            FioResult r = bench::runFio(
                job, cfg, &cli.obs,
                sim::strf("fig8_vba%lld_%uk", (long long)d, bs >> 10));
            std::printf(" %8.2f", r.bwBytesPerSec() / 1e9);
        }
        std::printf("\n");
    }
    std::printf("%-14s", "sync");
    for (std::uint32_t bs : sizes) {
        FioJob job;
        job.engine = Engine::Sync;
        job.rw = RwMode::RandRead;
        job.bs = bs;
        job.runtime = 8 * kMs;
        job.warmup = 1 * kMs;
        job.fileBytes = 1ull << 30;
        FioResult r = bench::runFio(
            job, {}, &cli.obs, sim::strf("fig8_sync_%uk", bs >> 10));
        std::printf(" %8.2f", r.bwBytesPerSec() / 1e9);
    }
    std::printf("\n\nPaper shape: bandwidth dips slightly as translation "
                "slows; even at\n1.35us BypassD clearly beats sync. "
                "350ns vs 550ns (cached vs uncached\nFTEs) differ "
                "minimally, so the IOTLB need not cache FTEs.\n");
    return cli.finish();
}
