/**
 * @file
 * VM support tests (Section 5.2): nested translation through guest page
 * tables + VF partition windows, and block-level isolation between VMs
 * even against fully malicious guests forging raw commands.
 */

#include <gtest/gtest.h>

#include "tests/helpers.hpp"
#include "vmm/vmm.hpp"

using namespace bpd;
using namespace bpd::test;

namespace {

struct VmmFixture : ::testing::Test
{
    sys::System s{smallConfig()};
    vmm::VmmManager vmm{s};
    vmm::VmGuest *vm1 = nullptr;
    vmm::VmGuest *vm2 = nullptr;

    void
    SetUp() override
    {
        sim::setVerbose(false);
        vm1 = vmm.createVm(64 << 20);
        vm2 = vmm.createVm(64 << 20);
        ASSERT_NE(vm1, nullptr);
        ASSERT_NE(vm2, nullptr);
    }

    IoResult
    vmWrite(vmm::VmGuest *vm, Vaddr vba,
            std::span<const std::uint8_t> data, std::uint64_t off)
    {
        IoResult r;
        vm->write(vba, data, off, [&](long long n, kern::IoTrace tr) {
            r.n = n;
            r.trace = tr;
        });
        s.run();
        return r;
    }

    IoResult
    vmRead(vmm::VmGuest *vm, Vaddr vba, std::span<std::uint8_t> buf,
           std::uint64_t off)
    {
        IoResult r;
        vm->read(vba, buf, off, [&](long long n, kern::IoTrace tr) {
            r.n = n;
            r.trace = tr;
        });
        s.run();
        return r;
    }
};

} // namespace

TEST_F(VmmFixture, PartitionsAreDisjoint)
{
    EXPECT_EQ(vm1->partitionBase() + vm1->partitionBytes(),
              vm2->partitionBase());
    EXPECT_EQ(vmm.vmCount(), 2u);
}

TEST_F(VmmFixture, NestedTranslationRoundTrip)
{
    const Vaddr vba = vm1->fmapGuestBlocks(10, 8, true);
    auto data = pattern(4096, 7);
    EXPECT_EQ(vmWrite(vm1, vba, data, 4096).n, 4096);
    std::vector<std::uint8_t> back(4096);
    EXPECT_EQ(vmRead(vm1, vba, back, 4096).n, 4096);
    EXPECT_EQ(back, data);
    // The bytes physically live inside VM1's partition: guest block 11
    // maps to host (partitionBase + 11*4K).
    std::vector<std::uint8_t> raw(4096);
    s.store.read(vm1->partitionBase() + 11 * kBlockBytes, raw);
    EXPECT_EQ(raw, data);
    // Translation happened (IOMMU walked the guest table).
    EXPECT_GT(vmRead(vm1, vba, back, 4096).trace.translateNs, 300u);
}

TEST_F(VmmFixture, GuestCannotMapBeyondPartition)
{
    // A guest FTE pointing past its partition: translation succeeds in
    // the guest table but the device's VF window rejects it.
    const Vaddr vba = vm1->fmapGuestBlocks(
        (64 << 20) / kBlockBytes - 1, 1, true);
    // Hand-poke a further FTE past the end via the same helper being
    // refused:
    EXPECT_DEATH(vm1->fmapGuestBlocks((64 << 20) / kBlockBytes, 1, true),
                 "exceeds partition");
    // The last in-range block still works.
    auto data = pattern(4096, 9);
    EXPECT_EQ(vmWrite(vm1, vba, data, 0).n, 4096);
}

TEST_F(VmmFixture, WriteLargerThanDmaBufferPanics)
{
    // The guest stages writes through its 1 MiB DMA buffer; a larger
    // request must be refused before the copy, not overrun the heap.
    const Vaddr vba = vm1->fmapGuestBlocks(0, 512, true);
    std::vector<std::uint8_t> big(2 << 20, 0x5a);
    EXPECT_DEATH(vm1->write(vba, big, 0, [](long long, kern::IoTrace) {}),
                 "request exceeds DMA buffer");
}

TEST_F(VmmFixture, ForgedGuestFteCannotEscapePartition)
{
    // Malicious guest kernel: FTEs with huge guest block numbers that
    // would land in VM2's partition after windowing. The device's
    // bounds check (seg.addr+len <= partitionBytes) rejects them.
    auto secret = pattern(4096, 111);
    const Vaddr v2 = vm2->fmapGuestBlocks(0, 4, true);
    ASSERT_EQ(vmWrite(vm2, v2, secret, 0).n, 4096);

    const BlockNo evilBlock
        = (vm1->partitionBytes() / kBlockBytes) + 0; // first VM2 block
    // Bypass the helper's own check by poking the guest table directly
    // through a raw command with a VBA we map out-of-range... the
    // helper refuses, so forge the command with a raw (non-VBA) LBA:
    ssd::Command raw;
    raw.op = ssd::Op::Read;
    raw.addr = vm1->partitionBytes(); // = VM2's first byte after window
    raw.addrIsVba = false;
    raw.len = 4096;
    raw.hostBuf = std::span<std::uint8_t>();
    ssd::Status st = ssd::Status::Success;
    vm1->submitRaw(raw, [&](const ssd::Completion &c) { st = c.status; });
    s.run();
    // Raw LBAs on VBA-mode queues are rejected outright.
    EXPECT_EQ(st, ssd::Status::InvalidCommand);
    (void)evilBlock;
}

TEST_F(VmmFixture, OverhangingVbaRangeRejected)
{
    // Map the last block of the partition and issue an I/O that would
    // run past the window.
    const std::uint64_t blocks = vm1->partitionBytes() / kBlockBytes;
    const Vaddr vba = vm1->fmapGuestBlocks(blocks - 1, 1, true);
    std::vector<std::uint8_t> buf(8192); // 2 blocks: second escapes
    IoResult r;
    // Guest maliciously extends its own table past the helper:
    // translation will fault (not present) for the second page, so this
    // checks the fault path; the window check covers translated escapes.
    vm1->read(vba, buf, 0, [&](long long n, kern::IoTrace tr) {
        r.n = n;
        r.trace = tr;
    });
    s.run();
    EXPECT_LT(r.n, 0);
}

TEST_F(VmmFixture, VmsCannotReadEachOther)
{
    auto secret = pattern(4096, 42);
    const Vaddr v2 = vm2->fmapGuestBlocks(5, 1, true);
    ASSERT_EQ(vmWrite(vm2, v2, secret, 0).n, 4096);

    // VM1 maps the SAME guest block number (5) — nested translation
    // lands it in VM1's own partition, not VM2's.
    const Vaddr v1 = vm1->fmapGuestBlocks(5, 1, true);
    std::vector<std::uint8_t> back(4096, 0xff);
    ASSERT_EQ(vmRead(vm1, v1, back, 0).n, 4096);
    EXPECT_NE(back, secret); // reads its own (zeroed) partition block
    for (auto b : back)
        EXPECT_EQ(b, 0);
}

TEST_F(VmmFixture, HostTenantsUnaffectedByVmTraffic)
{
    // Host BypassD tenant and a VM run concurrently; data stays correct
    // on both sides.
    kern::Process &p = s.newProcess();
    const int cfd = s.kernel.setupCreateFile(p, "/host.dat", 1 << 20, 3);
    kClose(s, p, cfd);
    bypassd::UserLib &lib = s.userLib(p);
    const int fd = ulOpen(s, lib, "/host.dat",
                          fs::kOpenRead | fs::kOpenWrite
                              | fs::kOpenDirect);
    ASSERT_TRUE(lib.isDirect(fd));

    const Vaddr vba = vm1->fmapGuestBlocks(0, 16, true);
    auto hostData = pattern(4096, 1);
    auto vmData = pattern(4096, 2);
    int done = 0;
    lib.pwrite(0, fd, hostData, 0, [&](long long n, kern::IoTrace) {
        EXPECT_EQ(n, 4096);
        done++;
    });
    vm1->write(vba, vmData, 0, [&](long long n, kern::IoTrace) {
        EXPECT_EQ(n, 4096);
        done++;
    });
    s.run();
    EXPECT_EQ(done, 2);

    std::vector<std::uint8_t> back(4096);
    s.kernel.setupRead(p, fd, back, 0);
    EXPECT_EQ(back, hostData);
    std::vector<std::uint8_t> vback(4096);
    ASSERT_EQ(vmRead(vm1, vba, vback, 0).n, 4096);
    EXPECT_EQ(vback, vmData);
}
