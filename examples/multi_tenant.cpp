/**
 * @file
 * Multi-tenant SSD sharing: the scenario SPDK cannot serve. Three
 * tenants with different credentials share one NVMe device through the
 * BypassD interface; permissions are enforced by the IOMMU, a malicious
 * tenant's forged commands fault, and a kernel-interface open revokes
 * direct access cleanly.
 *
 *   build/examples/multi_tenant
 */

#include <cstdio>
#include <functional>

#include "system/system.hpp"

using namespace bpd;

namespace {

struct Tenant
{
    const char *name;
    kern::Process *proc;
    bypassd::UserLib *lib;
    int fd = -1;
    std::uint64_t ops = 0;
    Time totalLat = 0;
};

} // namespace

int
main()
{
    sim::setVerbose(false);
    sys::System s;

    // --- three tenants, each with its own uid and private file ---
    Tenant tenants[3] = {{"alice", nullptr, nullptr, -1, 0, 0},
                         {"bob", nullptr, nullptr, -1, 0, 0},
                         {"carol", nullptr, nullptr, -1, 0, 0}};
    for (unsigned i = 0; i < 3; i++) {
        Tenant &t = tenants[i];
        t.proc = &s.newProcess(1000 + i * 1000);
        t.lib = &s.userLib(*t.proc);
        const std::string path = std::string("/") + t.name + ".db";
        const int cfd
            = s.kernel.setupCreateFile(*t.proc, path, 32 << 20, i + 1);
        // Private file: 0600.
        s.ext4.inode(t.proc->file(cfd)->ino)->mode = 0600;
        s.kernel.sysClose(*t.proc, cfd, [](int) {});
        s.run();
        t.lib->open(path,
                    fs::kOpenRead | fs::kOpenWrite | fs::kOpenDirect,
                    0600, [&t](int f) { t.fd = f; });
        s.run();
        std::printf("%-6s opened %-10s direct=%s\n", t.name,
                    path.c_str(), t.lib->isDirect(t.fd) ? "yes" : "no");
    }

    // --- all three hammer the device concurrently ---
    const Time tEnd = s.now() + 20 * kMs;
    // Each tenant's closed read loop lives here, so it outlives s.run();
    // every completion re-arms its loop through a reference.
    std::function<void()> loops[3];
    for (unsigned i = 0; i < 3; i++) {
        Tenant &t = tenants[i];
        std::function<void()> &loop = loops[i];
        auto buf = std::make_shared<std::vector<std::uint8_t>>(4096);
        auto rng = std::make_shared<sim::Rng>(
            reinterpret_cast<std::uintptr_t>(&t));
        loop = [&, buf, rng]() {
            if (s.now() >= tEnd)
                return;
            const Time t0 = s.now();
            const std::uint64_t off
                = rng->nextUint((32 << 20) / 4096) * 4096;
            t.lib->pread(0, t.fd, *buf, off,
                         [&, t0](long long n, kern::IoTrace) {
                             if (n > 0) {
                                 t.ops++;
                                 t.totalLat += s.now() - t0;
                             }
                             loop();
                         });
        };
        loop();
    }
    s.run();
    std::printf("\n20ms of concurrent 4KB reads, one queue pair each:\n");
    for (const Tenant &t : tenants) {
        std::printf("  %-6s %6llu ops, avg %5.2fus "
                    "(device arbitration keeps it fair)\n",
                    t.name, (unsigned long long)t.ops,
                    static_cast<double>(t.totalLat)
                        / static_cast<double>(t.ops) / 1e3);
    }

    // --- bob tries to read alice's file ---
    std::printf("\nbob attacks:\n");
    int stolen = -1;
    tenants[1].lib->open("/alice.db", fs::kOpenRead | fs::kOpenDirect,
                         0600, [&](int f) { stolen = f; });
    s.run();
    std::printf("  open(/alice.db) as bob -> %s\n",
                stolen < 0 ? "EACCES (kernel refuses)" : "?!");

    // --- bob forges a raw NVMe command with a made-up VBA ---
    auto uq = s.module.createUserQueues(*tenants[1].proc, 32, 1 << 20);
    ssd::Command cmd;
    cmd.op = ssd::Op::Read;
    cmd.addr = 0x600000000ull; // guess
    cmd.addrIsVba = true;
    cmd.len = 4096;
    cmd.dmaIova = uq->dmaIova;
    cmd.useIova = true;
    ssd::Status st = ssd::Status::Success;
    uq->dispatcher->submit(cmd, [&](const ssd::Completion &c) {
        st = c.status;
    });
    s.run();
    std::printf("  forged VBA command -> %s\n",
                st == ssd::Status::TranslationFault
                    ? "IOMMU translation fault (no data moved)"
                    : "?!");
    s.module.destroyUserQueues(*tenants[1].proc, *uq);

    // --- a legacy process opens carol's file via the kernel ---
    std::printf("\nlegacy process opens /carol.db through the kernel:\n");
    kern::Process &legacy = s.newProcess(3000);
    int lfd = -1;
    s.kernel.sysOpen(legacy, "/carol.db", fs::kOpenRead, 0,
                     [&](int f) { lfd = f; });
    s.run();
    std::printf("  kernel open -> fd=%d; FTEs detached "
                "(revocations=%llu); carol learns on her next I/O:\n",
                lfd, (unsigned long long)s.module.revocations());

    // Carol keeps working, through the kernel now.
    std::vector<std::uint8_t> buf(4096);
    long long n = -1;
    tenants[2].lib->pread(0, tenants[2].fd, buf, 0,
                          [&](long long r, kern::IoTrace) { n = r; });
    s.run();
    std::printf("  carol's next read: %lld bytes via %s\n", n,
                tenants[2].lib->isDirect(tenants[2].fd) ? "bypassd"
                                                        : "kernel");
    return 0;
}
