/**
 * @file
 * Fig. 14: WiredTiger single-thread throughput with different cache
 * sizes, normalized to the kernel baseline. Scaled: the paper's
 * 2/4/6 GB caches over a 46 GB store become proportional fractions of
 * our 4 M-record store.
 */

#include "apps/wiredtiger.hpp"
#include "bench/common.hpp"

using namespace bpd;
using namespace bpd::apps;

namespace {

double
runOne(WtEngine e, wl::Ycsb w, std::uint64_t cacheBytes,
       bench::ObsCapture &obs)
{
    auto s = bench::makeSystem(16ull << 30);
    obs.attach(*s);
    WiredTigerConfig cfg;
    cfg.records = 2'000'000;
    cfg.cacheBytes = cacheBytes;
    cfg.engine = e;
    WiredTigerModel wt(*s, cfg);
    wt.setup();
    wt.run(w, 1, 120000); // untimed warmup to cache steady state
    const double kops = wt.run(w, 1, 25000).kops;
    obs.capture(sim::strf("fig14_%s_%s_%lluM", toString(e), toString(w),
                          (unsigned long long)(cacheBytes >> 20)),
                *s);
    return kops;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Cli cli("fig14_wiredtiger_cache", bench::kObsFlags);
    if (int rc = cli.parse(argc, argv))
        return rc;

    bench::banner("Fig. 14",
                  "WiredTiger throughput vs cache size (normalized)");

    // Paper: 2/4/6 GB of a 46 GB store (4.3%/8.7%/13%).
    struct CachePoint
    {
        const char *label;
        std::uint64_t bytes;
    };
    // ~5%/11%/22% of the ~90 MiB store (the paper's 2/4/6 GB of 46 GB).
    const CachePoint caches[] = {
        {"2GB~", 5ull << 20},
        {"4GB~", 10ull << 20},
        {"6GB~", 20ull << 20},
    };
    const wl::Ycsb workloads[] = {wl::Ycsb::A, wl::Ycsb::B, wl::Ycsb::C,
                                  wl::Ycsb::D, wl::Ycsb::E, wl::Ycsb::F};

    for (wl::Ycsb w : workloads) {
        std::printf("\n--- %s (normalized to sync) ---\n", toString(w));
        std::printf("%-9s", "engine");
        for (const auto &c : caches)
            std::printf(" %8s", c.label);
        std::printf("\n");
        std::vector<double> base;
        for (const auto &c : caches)
            base.push_back(runOne(WtEngine::Sync, w, c.bytes, cli.obs));
        std::printf("%-9s", "sync");
        for (std::size_t i = 0; i < std::size(caches); i++)
            std::printf(" %8.2f", 1.0);
        std::printf("\n");
        for (WtEngine e : {WtEngine::Xrp, WtEngine::Bypassd}) {
            std::printf("%-9s", toString(e));
            for (std::size_t i = 0; i < std::size(caches); i++) {
                const double k = runOne(e, w, caches[i].bytes, cli.obs);
                std::printf(" %8.2f", k / base[i]);
            }
            std::printf("\n");
        }
    }
    std::printf("\nPaper shape: XRP's advantage shrinks as the cache "
                "grows (fewer chained\nmisses to offload); BypassD's "
                "improvement is consistent across cache\nsizes because "
                "it accelerates every I/O.\n");
    return cli.finish();
}
