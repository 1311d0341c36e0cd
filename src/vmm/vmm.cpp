#include "vmm/vmm.hpp"

#include <cstring>

#include "sim/logging.hpp"

namespace bpd::vmm {

VmGuest::VmGuest(sys::System &host, DevAddr base, std::uint64_t bytes,
                 Pasid pasid)
    : host_(host), base_(base), bytes_(bytes), pasid_(pasid)
{
    guestPt_ = std::make_unique<mem::PageTable>(host_.frames);
    host_.iommu.bindPasid(pasid_, guestPt_.get());
    disp_ = host_.dev.openQueue(pasid_, 256, /*vbaMode=*/true, base_,
                                bytes_);
    sim::panicIf(disp_ == nullptr, "VF queue creation failed");
    dmaBuf_.assign(1 << 20, 0);
    host_.iommu.mapDma(pasid_, 0x9000000,
                       std::span<std::uint8_t>(dmaBuf_), true);
}

Vaddr
VmGuest::fmapGuestBlocks(BlockNo guestStart, std::uint64_t blocks,
                         bool writable)
{
    sim::panicIf((guestStart + blocks) * kBlockBytes > bytes_,
                 "guest mapping exceeds partition");
    const Vaddr vba = nextVba_;
    nextVba_ += ((blocks * kBlockBytes + mem::kPmdSpan - 1)
                 & ~(mem::kPmdSpan - 1))
                + mem::kPmdSpan;
    for (std::uint64_t i = 0; i < blocks; i++) {
        // Guest FTEs hold GUEST block numbers; the VF window supplies
        // the second (nested) translation step.
        guestPt_->set(vba + i * kBlockBytes,
                      mem::makeFte(guestStart + i, host_.dev.devId(),
                                   writable));
    }
    return vba;
}

void
VmGuest::funmapGuest(Vaddr vba, std::uint64_t blocks)
{
    for (std::uint64_t i = 0; i < blocks; i++)
        guestPt_->clear(vba + i * kBlockBytes);
    host_.iommu.invalidateRange(pasid_, vba, blocks * kBlockBytes);
}

void
VmGuest::read(Vaddr vba, std::span<std::uint8_t> buf, std::uint64_t off,
              kern::IoCb cb)
{
    io(ssd::Op::Read, vba + off, buf, std::move(cb));
}

void
VmGuest::write(Vaddr vba, std::span<const std::uint8_t> buf,
               std::uint64_t off, kern::IoCb cb)
{
    sim::panicIf(buf.size() > dmaBuf_.size(), "request exceeds DMA buffer");
    std::memcpy(dmaBuf_.data(), buf.data(), buf.size());
    io(ssd::Op::Write, vba + off,
       {const_cast<std::uint8_t *>(buf.data()), buf.size()},
       std::move(cb));
}

void
VmGuest::io(ssd::Op op, Vaddr vba, std::span<std::uint8_t> buf,
            kern::IoCb cb)
{
    ssd::Command cmd;
    cmd.op = op;
    cmd.addr = vba;
    cmd.addrIsVba = true;
    cmd.len = static_cast<std::uint32_t>(buf.size());
    cmd.dmaIova = 0x9000000;
    cmd.useIova = true;
    const Time start = host_.eq.now();
    submitRaw(cmd, [this, op, buf, start, cb = std::move(cb)](
                       const ssd::Completion &comp) {
        const bool read = op == ssd::Op::Read;
        kern::IoTrace tr;
        tr.deviceNs = comp.completeTime - start;
        if (read) // writes overlap translation with data-in
            tr.translateNs = comp.translateNs;
        if (comp.status != ssd::Status::Success) {
            cb(kern::errOf(fs::FsStatus::Access), tr);
            return;
        }
        if (read)
            std::memcpy(buf.data(), dmaBuf_.data(), buf.size());
        cb(static_cast<long long>(buf.size()), tr);
    });
}

void
VmGuest::submitRaw(const ssd::Command &cmd,
                   ssd::CommandDispatcher::CompletionFn fn)
{
    sim::panicIf(!disp_->submit(cmd, std::move(fn)),
                 "VF queue overflow");
}

VmmManager::VmmManager(sys::System &host)
    : host_(host)
{
    // Partitions start in the upper half of the device, away from the
    // host file system's allocations.
    nextBase_ = host_.cfg.deviceBytes / 2;
}

VmmManager::~VmmManager()
{
    for (auto &vm : vms_) {
        vm->disp_.reset(); // releases the VF queue pair
        host_.iommu.unmapDma(vm->guestPasid(), 0x9000000);
        host_.iommu.unbindPasid(vm->guestPasid());
    }
}

VmGuest *
VmmManager::createVm(std::uint64_t bytes)
{
    bytes = (bytes + kBlockBytes - 1) & ~(kBlockBytes - 1);
    if (nextBase_ + bytes > host_.cfg.deviceBytes)
        return nullptr;
    auto vm = std::unique_ptr<VmGuest>(
        new VmGuest(host_, nextBase_, bytes, nextGuestPasid_++));
    nextBase_ += bytes;
    VmGuest *raw = vm.get();
    vms_.push_back(std::move(vm));
    return raw;
}

} // namespace bpd::vmm
