/**
 * @file
 * Host-cost probes for the layers that only the event loop reaches:
 * the SSD model (a benchmark-owned NvmeDevice at QD1 per queue pair) and
 * IOMMU translation / page-table walks (replayed over a workload's own
 * recorded offsets after its window, so the workload's digest and
 * counters are already taken).
 */

#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "bypassd/file_table.hpp"
#include "sim/logging.hpp"
#include "ssd/dispatcher.hpp"

namespace pb {

XlateProbe
probeTranslation(bpd::sys::System &s, bpd::kern::Process &p,
                 const std::string &path,
                 const std::vector<std::uint64_t> &offsets)
{
    constexpr unsigned kPasses = 4;
    XlateProbe x;
    bpd::InodeNum ino = 0;
    const bpd::fs::Inode *node = nullptr;
    if (s.ext4.resolve(path, &ino) == bpd::fs::FsStatus::Ok)
        node = s.ext4.inode(ino);
    const bpd::bypassd::FileTableCache *ft = nullptr;
    if (node)
        ft = static_cast<const bpd::bypassd::FileTableCache *>(
            node->fileTable.get());
    bpd::Vaddr vba = 0;
    if (ft) {
        const auto at = ft->attachments.find(p.pid());
        if (at != ft->attachments.end())
            vba = at->second.vba;
    }
    if (vba == 0 || offsets.empty()) {
        x.why = "no direct-path mapping or offsets to replay";
        return x;
    }
    const bpd::mem::PageTable &pt = p.aspace().pageTable();

    std::uint64_t ok = 0;
    const std::uint64_t t0 = hostNs();
    for (unsigned pass = 0; pass < kPasses; pass++)
        for (std::uint64_t off : offsets)
            ok += s.iommu
                      .translateVbaSync(p.pasid(), vba + off,
                                        bpd::kBlockBytes, false,
                                        ft->devId())
                      .ok;
    const std::uint64_t t1 = hostNs();
    for (unsigned pass = 0; pass < kPasses; pass++)
        for (std::uint64_t off : offsets)
            ok += pt.walk(vba + off).present;
    const std::uint64_t t2 = hostNs();

    x.samples = offsets.size() * kPasses;
    if (ok != 2 * x.samples) {
        x.why = "replayed translations faulted";
        return x;
    }
    x.ran = true;
    x.translateNs = static_cast<double>(t1 - t0) / x.samples;
    x.walkNs = static_cast<double>(t2 - t1) / x.samples;
    return x;
}

double
probeDevice(unsigned queuePairs, unsigned readPct, std::uint64_t seed)
{
    constexpr std::uint64_t kCommands = 200'000;
    constexpr std::uint64_t kSpanBlocks = (1ull << 30) / bpd::kBlockBytes;
    bpd::sim::EventQueue eq;
    bpd::ssd::BlockStore store(4ull << 30);
    bpd::iommu::Iommu mmu(eq);
    bpd::ssd::NvmeDevice dev(eq, store, mmu, 99,
                             bpd::ssd::SsdProfile::optaneP5800X(), seed);

    struct Lane
    {
        std::unique_ptr<bpd::ssd::CommandDispatcher> q;
        Gen gen{0};
        std::vector<std::uint8_t> buf;
    };
    std::vector<Lane> lanes(queuePairs);
    std::uint64_t issued = 0, completed = 0;
    std::function<void(Lane &)> submit = [&](Lane &l) {
        if (issued == kCommands)
            return;
        issued++;
        bpd::ssd::Command cmd;
        cmd.op = l.gen.percent(readPct) ? bpd::ssd::Op::Read
                                        : bpd::ssd::Op::Write;
        cmd.addr = l.gen.below(kSpanBlocks) * bpd::kBlockBytes;
        cmd.len = bpd::kBlockBytes;
        cmd.hostBuf = l.buf;
        const bool ok
            = l.q->submit(cmd, [&, lp = &l](const bpd::ssd::Completion &) {
                  completed++;
                  submit(*lp);
              });
        bpd::sim::panicIf(!ok, "device probe: queue full at QD1");
    };
    for (unsigned i = 0; i < queuePairs; i++) {
        lanes[i].q = std::make_unique<bpd::ssd::CommandDispatcher>(
            *dev.createQueuePair(bpd::kNoPasid, 8, false));
        lanes[i].gen = Gen(seed).fork(i);
        lanes[i].buf.assign(bpd::kBlockBytes, 0);
    }
    const std::uint64_t t0 = hostNs();
    for (Lane &l : lanes)
        submit(l);
    eq.run();
    const std::uint64_t t1 = hostNs();
    bpd::sim::panicIf(completed != kCommands,
                      "device probe: commands lost");
    return static_cast<double>(t1 - t0) / static_cast<double>(completed);
}

} // namespace pb
