/**
 * @file
 * Fig. 12: read throughput of a process over time. It starts on the
 * BypassD interface; at t=5s another process opens the same file in
 * buffered mode, the kernel revokes direct access (Section 3.6), and
 * the reader transparently falls back to the kernel interface with a
 * visible throughput drop.
 *
 * Runs with per-tenant attribution on and asserts the attribution
 * invariant after the run; --out writes a bypassd-bench-v1 JSON whose
 * scenario carries per-tenant iops/fmap/revocation fields. The drive
 * loop records a replay stream, so a --trace capture is replayable.
 */

#include "bench/common.hpp"
#include "bench/recording.hpp"

using namespace bpd;

int
main(int argc, char **argv)
{
    bench::Cli cli("fig12_revocation", bench::kOutFlags, "fig12");
    if (int rc = cli.parse(argc, argv))
        return rc;

    bench::banner("Fig. 12",
                  "read throughput over time with access revocation");

    auto s = bench::makeSystem(16ull << 30);
    cli.obs.attach(*s, "fig12_revocation");
    s->enableTenantAccounting();
    // At t=5s a second process opens the file via the kernel interface
    // (buffered), triggering revocation.
    const bench::RevocationRun run
        = bench::runRevocation(*s, 8 * kSec, 5 * kSec);
    bench::checkTenantSums(*s);
    cli.obs.capture("fig12_revocation", *s);

    std::printf("%8s %14s %12s\n", "t(s)", "throughput", "interface");
    for (std::size_t b = 0; b < run.throughput.buckets(); b++) {
        const double mbps = run.throughput.bucketRate(b) / 1e6;
        const Time t = run.throughput.bucketStart(b);
        std::printf("%8.2f %11.0fMB/s %12s\n",
                    static_cast<double>(t) / 1e9, mbps,
                    (run.revokeAt != 0 && t >= run.revokeAt) ? "kernel"
                                                             : "bypassd");
    }
    std::printf("\nRevocation at t=%.2fs; faults seen by UserLib: %llu; "
                "module revocations: %llu\n",
                static_cast<double>(run.revokeAt) / 1e9,
                (unsigned long long)run.readerFaults,
                (unsigned long long)s->module.revocations());
    std::printf("Paper shape: ~780MB/s on the BypassD interface dropping "
                "to ~500MB/s\non the kernel interface after revocation "
                "at t=5s.\n");

    bench::BenchJson json;
    bench::BenchJson::Scenario &sc = json.add("fig12_revocation");
    bench::BenchJson::field(sc, "events", s->eq.executed());
    bench::BenchJson::field(sc, "sim_ns", s->now());
    bench::BenchJson::field(sc, "device_ops", s->dev.totalOps());
    bench::BenchJson::field(sc, "revocations", s->module.revocations());
    bench::BenchJson::field(sc, "userlib_iommu_faults", run.readerFaults);
    bench::tenantFields(sc, *s, static_cast<double>(s->now()) / 1e9);
    return cli.finish(json);
}
