/**
 * @file
 * Fig. 13: WiredTiger YCSB throughput scaling with threads, for the
 * kernel baseline, XRP and BypassD. Store scaled from the paper's 1 B
 * records / 46 GB / 6 GB cache to 4 M records with a proportional cache.
 */

#include "apps/wiredtiger.hpp"
#include "bench/common.hpp"

using namespace bpd;
using namespace bpd::apps;

namespace {

double
runOne(WtEngine e, wl::Ycsb w, unsigned threads, bench::ObsCapture &obs)
{
    auto s = bench::makeSystem(16ull << 30);
    obs.attach(*s);
    WiredTigerConfig cfg;
    cfg.records = 4'000'000;
    cfg.cacheBytes = 28ull << 20; // ~13% of data, like 6GB/46GB
    cfg.engine = e;
    WiredTigerModel wt(*s, cfg);
    wt.setup();
    wt.run(w, threads, 4000 / threads); // untimed cache warmup
    const double kops = wt.run(w, threads, 2500).kops;
    obs.capture(sim::strf("fig13_%s_%s_%uT", toString(e), toString(w),
                          threads),
                *s);
    return kops;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Cli cli("fig13_wiredtiger_threads", bench::kObsFlags);
    if (int rc = cli.parse(argc, argv))
        return rc;

    bench::banner("Fig. 13", "WiredTiger YCSB throughput vs threads");

    const wl::Ycsb workloads[] = {wl::Ycsb::A, wl::Ycsb::B, wl::Ycsb::C,
                                  wl::Ycsb::D, wl::Ycsb::E, wl::Ycsb::F};
    const unsigned threads[] = {1, 2, 4, 8, 16};

    for (wl::Ycsb w : workloads) {
        std::printf("\n--- %s ---\n", toString(w));
        std::printf("%-9s", "engine");
        for (unsigned t : threads)
            std::printf(" %8s", sim::strf("%uT", t).c_str());
        std::printf("   (kops/s)\n");
        for (WtEngine e :
             {WtEngine::Sync, WtEngine::Xrp, WtEngine::Bypassd}) {
            std::printf("%-9s", toString(e));
            for (unsigned t : threads)
                std::printf(" %8.0f", runOne(e, w, t, cli.obs));
            std::printf("\n");
        }
    }
    std::printf("\nPaper shape: BypassD ~18%% over baseline and ~13%% "
                "over XRP on average,\nlargest at low thread counts; "
                "D (insert-heavy, cache-resident) shows\nlittle benefit; "
                "on E (scans) XRP cannot help but BypassD still does.\n");
    return cli.finish();
}
