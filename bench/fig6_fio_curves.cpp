/**
 * @file
 * Fig. 6: fio single-threaded QD1 random read/write latency versus
 * bandwidth for block sizes 4K-128K across the five engines.
 */

#include "bench/common.hpp"

using namespace bpd;
using namespace bpd::wl;

int
main(int argc, char **argv)
{
    bench::Cli cli("fig6_fio_curves", bench::kObsFlags);
    if (int rc = cli.parse(argc, argv))
        return rc;

    bench::banner("Fig. 6",
                  "FIO single-threaded random-access latency/bandwidth");

    const Engine engines[] = {Engine::Sync, Engine::Libaio,
                              Engine::IoUring, Engine::Spdk,
                              Engine::Bypassd};
    const std::uint32_t sizes[]
        = {4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10};

    for (RwMode rw : {RwMode::RandRead, RwMode::RandWrite}) {
        std::printf("\n--- random %s ---\n",
                    rw == RwMode::RandRead ? "read" : "write");
        std::printf("%-10s", "engine");
        for (std::uint32_t bs : sizes)
            std::printf("  %5uK lat/bw", bs >> 10);
        std::printf("\n");
        for (Engine e : engines) {
            std::printf("%-10s", toString(e));
            for (std::uint32_t bs : sizes) {
                FioJob job;
                job.engine = e;
                job.rw = rw;
                job.bs = bs;
                job.runtime = 8 * kMs;
                job.warmup = 1 * kMs;
                job.fileBytes = 1ull << 30;
                FioResult r = bench::runFio(
                    job, {}, &cli.obs,
                    sim::strf("fig6_%s_%s_%uk", toString(e),
                              rw == RwMode::RandRead ? "rd" : "wr",
                              bs >> 10));
                std::printf("  %5.1fus/%4.2fG",
                            r.latency.mean() / 1e3,
                            r.bwBytesPerSec() / 1e9);
            }
            std::printf("\n");
        }
    }
    std::printf("\nPaper shape: spdk < bypassd << io_uring < sync ~ "
                "libaio;\n4KB read: sync ~7.9us, bypassd ~4.6us (-42%%), "
                "spdk ~4.2us.\n");
    return cli.finish();
}
