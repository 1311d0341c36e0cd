/**
 * @file
 * Fig. 9: 4 KiB random-read latency and IOPS scaling with the number of
 * threads, all five engines, on the 24-HW-thread machine model.
 * io_uring needs an extra SQPOLL core per ring and collapses past 12
 * threads; the device saturates around 1.5 M IOPS.
 */

#include "bench/common.hpp"

using namespace bpd;
using namespace bpd::wl;

int
main(int argc, char **argv)
{
    bench::Cli cli("fig9_thread_scaling", bench::kObsFlags);
    if (int rc = cli.parse(argc, argv))
        return rc;

    bench::banner("Fig. 9", "random read latency and IOPS vs threads");

    const unsigned threads[] = {1, 2, 4, 8, 12, 16, 20, 24};
    const Engine engines[] = {Engine::Sync, Engine::Libaio,
                              Engine::IoUring, Engine::Spdk,
                              Engine::Bypassd};

    std::printf("%-10s", "engine");
    for (unsigned t : threads)
        std::printf(" %11s", sim::strf("%uT", t).c_str());
    std::printf("\n");

    for (Engine e : engines) {
        std::printf("%-10s", toString(e));
        for (unsigned t : threads) {
            FioJob job;
            job.engine = e;
            job.rw = RwMode::RandRead;
            job.bs = 4096;
            job.numJobs = t;
            job.runtime = 6 * kMs;
            job.warmup = 1 * kMs;
            job.fileBytes = 512ull << 20;
            FioResult r = bench::runFio(
                job, {}, &cli.obs, sim::strf("fig9_%s_%ut", toString(e), t));
            std::printf(" %5.1fu/%4.0fk", r.latency.mean() / 1e3,
                        r.iops() / 1e3);
        }
        std::printf("\n");
    }
    std::printf("\n(Each cell: mean latency (us) / IOPS (k).)\n"
                "Paper shape: userspace engines hold ~4-5us until the "
                "device saturates\n(~1.5M IOPS); io_uring latency blows "
                "up past 12 threads because each ring\npins an extra "
                "polling core on the 24-HW-thread machine.\n");
    return cli.finish();
}
