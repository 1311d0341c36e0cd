/**
 * @file
 * Fig. 16: KVell throughput and latency for YCSB A/B/C versus thread
 * count: KVell at QD1, KVell at QD64 (its default batching), and the
 * BypassD synchronous interface. Store scaled from 50 M x 1 KiB.
 */

#include "apps/kvell.hpp"
#include "bench/common.hpp"

using namespace bpd;
using namespace bpd::apps;

namespace {

KvellModel::Result
runOne(KvellEngine e, std::uint32_t qd, wl::Ycsb w, unsigned threads,
       bench::ObsCapture &obs, const char *variant)
{
    auto s = bench::makeSystem(32ull << 30);
    obs.attach(*s);
    KvellConfig cfg;
    cfg.records = 5'000'000;
    cfg.engine = e;
    cfg.queueDepth = qd;
    KvellModel kv(*s, cfg);
    kv.setup();
    KvellModel::Result r = kv.run(w, threads, 1500);
    obs.capture(sim::strf("fig16_%s_%s_%uT", variant, toString(w),
                          threads),
                *s);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Cli cli("fig16_kvell", bench::kObsFlags);
    if (int rc = cli.parse(argc, argv))
        return rc;

    bench::banner("Fig. 16", "KVell throughput and latency for YCSB");

    const unsigned threads[] = {1, 2, 4, 8, 16};
    struct Variant
    {
        const char *name;
        KvellEngine engine;
        std::uint32_t qd;
    };
    const Variant variants[] = {
        {"kvell_1", KvellEngine::Libaio, 1},
        {"kvell_64", KvellEngine::Libaio, 64},
        {"bypassd", KvellEngine::Bypassd, 1},
    };

    for (wl::Ycsb w : {wl::Ycsb::A, wl::Ycsb::B, wl::Ycsb::C}) {
        std::printf("\n--- %s ---\n", toString(w));
        std::printf("%-10s", "variant");
        for (unsigned t : threads)
            std::printf(" %15s", sim::strf("%uT", t).c_str());
        std::printf("\n");
        for (const Variant &v : variants) {
            std::printf("%-10s", v.name);
            for (unsigned t : threads) {
                KvellModel::Result r
                    = runOne(v.engine, v.qd, w, t, cli.obs, v.name);
                std::printf(" %6.0fk/%6.0fus", r.kops(),
                            r.latency.mean() / 1e3);
            }
            std::printf("\n");
        }
    }
    std::printf("\n(Each cell: throughput kops/s / mean latency us.)\n"
                "Paper shape: kvell_64 wins on raw throughput at "
                "latency two orders of\nmagnitude worse; BypassD beats "
                "kvell_1 (33%%/24%% on B/C) and approaches\nkvell_64 on "
                "write-heavy A because direct userspace writes dodge the "
                "ext4\nsame-file write serialization.\n");
    return cli.finish();
}
