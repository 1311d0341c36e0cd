/**
 * @file
 * BypassD in virtual machines (Section 5.2).
 *
 * A VM gets an SR-IOV/Scalable-IOV virtual function: a block-level
 * partition of the SSD. The guest OS builds File Table Entries with
 * *guest* block numbers; guest processes submit VBA commands on VF
 * queues. Translation is then nested: the IOMMU walks the guest page
 * table (VBA -> guest LBA) and the device's VF window relocates and
 * bounds-checks the result (guest LBA -> host LBA). Isolation between
 * VMs is at block level — no file sharing across VMs, exactly as the
 * paper states.
 *
 * The guest kernel is not re-instantiated in full: VmmManager plays the
 * part of the guest's BypassD module (building guest FTEs and queues),
 * which is the piece nested translation actually exercises.
 */

#ifndef BPD_VMM_VMM_HPP
#define BPD_VMM_VMM_HPP

#include <memory>
#include <vector>

#include "kern/kernel.hpp"
#include "mem/page_table.hpp"
#include "ssd/dispatcher.hpp"
#include "system/system.hpp"

namespace bpd::vmm {

/** A guest VM with its own VF partition and guest page table. */
class VmGuest
{
  public:
    DevAddr partitionBase() const { return base_; }
    std::uint64_t partitionBytes() const { return bytes_; }
    Pasid guestPasid() const { return pasid_; }

    /**
     * Guest-side fmap(): install FTEs mapping @p blocks guest blocks
     * starting at @p guestStart (partition-relative) at a fresh VBA.
     */
    Vaddr fmapGuestBlocks(BlockNo guestStart, std::uint64_t blocks,
                          bool writable);

    /** Remove a guest mapping. */
    void funmapGuest(Vaddr vba, std::uint64_t blocks);

    /** Direct read at a guest VBA. */
    void read(Vaddr vba, std::span<std::uint8_t> buf, std::uint64_t off,
              kern::IoCb cb);

    /** Direct write at a guest VBA. */
    void write(Vaddr vba, std::span<const std::uint8_t> buf,
               std::uint64_t off, kern::IoCb cb);

    /**
     * Escape hatch for attack tests: submit a raw command on the VF
     * queue (a malicious guest owns its queues).
     */
    void submitRaw(const ssd::Command &cmd,
                   ssd::CommandDispatcher::CompletionFn fn);

  private:
    friend class VmmManager;

    VmGuest(sys::System &host, DevAddr base, std::uint64_t bytes,
            Pasid pasid);

    /** Submit a data command on the VF queue, staged through dmaBuf_. */
    void io(ssd::Op op, Vaddr vba, std::span<std::uint8_t> buf,
            kern::IoCb cb);

    sys::System &host_;
    DevAddr base_;
    std::uint64_t bytes_;
    Pasid pasid_;

    std::unique_ptr<mem::PageTable> guestPt_;
    Vaddr nextVba_ = 0x40000000;

    std::unique_ptr<ssd::CommandDispatcher> disp_; //!< owns the VF queue
    std::vector<std::uint8_t> dmaBuf_;
};

/**
 * The host-side VMM: carves VF partitions and boots guests.
 */
class VmmManager
{
  public:
    explicit VmmManager(sys::System &host);
    ~VmmManager();

    /**
     * Create a VM with a @p bytes block partition.
     * @return nullptr when the device has no room left.
     */
    VmGuest *createVm(std::uint64_t bytes);

    std::size_t vmCount() const { return vms_.size(); }

  private:
    sys::System &host_;
    DevAddr nextBase_;
    Pasid nextGuestPasid_ = 0x8000;
    std::vector<std::unique_ptr<VmGuest>> vms_;
};

} // namespace bpd::vmm

#endif // BPD_VMM_VMM_HPP
