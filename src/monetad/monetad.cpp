#include "monetad/monetad.hpp"

#include "sim/logging.hpp"

namespace bpd::monetad {

MonetadEngine::MonetadEngine(kern::Kernel &k, MonetadConfig cfg)
    : k_(k), cfg_(cfg)
{
}

std::uint64_t
MonetadEngine::key(Pasid pasid, BlockNo extStart)
{
    return (static_cast<std::uint64_t>(pasid) << 40) ^ extStart;
}

ssd::CommandDispatcher &
MonetadEngine::queue(Tid tid, kern::Process &p)
{
    std::unique_ptr<ssd::CommandDispatcher> &q = queues_[tid];
    if (!q) {
        // Moneta-D hardware accepts raw block addresses from userspace
        // and checks them itself: a non-VBA queue models its channel.
        q = k_.device().openQueue(p.pasid(), 256, /*vbaMode=*/false);
        sim::panicIf(q == nullptr, "monetad channel failed");
    }
    return *q;
}

void
MonetadEngine::stallService()
{
    // The device stops serving requests while permission state changes
    // (Section 2: "it has to stop serving requests or temporarily
    // suspend permission checking").
    updates_++;
    serviceStalledUntil_ = std::max(serviceStalledUntil_, k_.eq().now())
                           + cfg_.updateStallNs;
}

bool
MonetadEngine::tableLookup(std::uint64_t k, bool needWrite)
{
    auto it = table_.find(k);
    if (it == table_.end()) {
        misses_++;
        return false;
    }
    if (needWrite && !it->second->writable) {
        misses_++;
        return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    hits_++;
    return true;
}

void
MonetadEngine::tableInsert(std::uint64_t k, bool writable)
{
    auto it = table_.find(k);
    if (it != table_.end()) {
        it->second->writable = it->second->writable || writable;
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    if (table_.size() >= cfg_.tableEntries) {
        table_.erase(lru_.back().key);
        lru_.pop_back();
    }
    lru_.push_front(Entry{k, writable});
    table_[k] = lru_.begin();
}

unsigned
MonetadEngine::installPermissions(kern::Process &p, fs::Inode &ino,
                                  bool writable)
{
    unsigned installed = 0;
    for (const fs::Extent &e : ino.extents.extents()) {
        tableInsert(key(p.pasid(), e.pblk), writable);
        installed++;
    }
    stallService();
    return installed;
}

void
MonetadEngine::revokePermissions(kern::Process &p, fs::Inode &ino)
{
    for (const fs::Extent &e : ino.extents.extents()) {
        auto it = table_.find(key(p.pasid(), e.pblk));
        if (it != table_.end()) {
            lru_.erase(it->second);
            table_.erase(it);
        }
    }
    stallService();
}

void
MonetadEngine::doIo(Tid tid, kern::Process &p, fs::Inode &ino, ssd::Op op,
                    std::span<std::uint8_t> buf, std::uint64_t off,
                    bool afterMiss, kern::IoCb cb)
{
    const Time start = k_.eq().now();
    const std::uint64_t n = buf.size();

    // Locate the extent (the library keeps the file map, like Moneta-D's
    // userspace library does).
    auto ext = ino.extents.lookup(off / kBlockBytes);
    if (!ext || (off + n + kBlockBytes - 1) / kBlockBytes
                    > ext->lblk + ext->count) {
        // Spanning extents: handled one extent at a time in Moneta-D;
        // for the model, require single-extent I/O.
        std::vector<fs::Seg> segs;
        if (k_.vfs().fs().mapRange(ino, off, n, &segs)
            != fs::FsStatus::Ok) {
            k_.eq().after(cfg_.submitNs, [cb = std::move(cb)]() {
                cb(kern::errOf(fs::FsStatus::Inval), kern::IoTrace{});
            });
            return;
        }
    }

    const std::uint64_t pkey = key(p.pasid(), ext->pblk);
    const bool needWrite = (op == ssd::Op::Write);

    // Wait out any in-progress permission update, then check the table.
    const Time stallWait
        = serviceStalledUntil_ > k_.eq().now()
              ? serviceStalledUntil_ - k_.eq().now()
              : 0;
    const Time preCost = k_.cpu().scaled(cfg_.submitNs) + stallWait
                         + cfg_.checkNs;

    if (!tableLookup(pkey, needWrite)) {
        if (afterMiss) {
            // Recovery failed to install usable permissions: no access.
            k_.eq().after(preCost, [cb = std::move(cb)]() {
                cb(kern::errOf(fs::FsStatus::Access), kern::IoTrace{});
            });
            return;
        }
        // Expensive miss handling: device interrupts the library, the
        // kernel validates and re-installs the record (Section 2).
        const bool allowed = fs::Ext4Fs::mayAccess(
            ino, p.creds(), op == ssd::Op::Read, needWrite);
        k_.eq().after(preCost + cfg_.missPenaltyNs,
                      [this, tid, &p, &ino, op, buf, off, allowed, pkey,
                       needWrite, cb = std::move(cb)]() mutable {
                          if (!allowed) {
                              cb(kern::errOf(fs::FsStatus::Access),
                                 kern::IoTrace{});
                              return;
                          }
                          tableInsert(pkey, needWrite);
                          doIo(tid, p, ino, op, buf, off,
                               /*afterMiss=*/true, std::move(cb));
                      });
        return;
    }

    // Hit: raw LBA command straight to the device.
    std::vector<fs::Seg> segs;
    fs::FsStatus st = k_.vfs().fs().mapRange(ino, off, n, &segs);
    if (st != fs::FsStatus::Ok) {
        k_.eq().after(preCost, [st, cb = std::move(cb)]() {
            cb(kern::errOf(st), kern::IoTrace{});
        });
        return;
    }
    k_.eq().after(preCost, [this, tid, &p, segs, buf, n, start,
                            op, cb = std::move(cb)]() {
        ssd::CommandDispatcher &q = queue(tid, p);
        auto remaining = std::make_shared<std::size_t>(segs.size());
        auto worst = std::make_shared<ssd::Status>(ssd::Status::Success);
        std::uint64_t soff = 0;
        for (const auto &seg : segs) {
            ssd::Command cmd;
            cmd.op = op;
            cmd.addr = seg.addr;
            cmd.addrIsVba = false;
            cmd.len = static_cast<std::uint32_t>(seg.len);
            cmd.hostBuf = buf.subspan(soff, seg.len);
            soff += seg.len;
            const bool ok = q.submit(
                cmd, [this, remaining, worst, n, start,
                      cb](const ssd::Completion &comp) {
                    if (comp.status != ssd::Status::Success)
                        *worst = comp.status;
                    if (--*remaining > 0)
                        return;
                    const Time reap = k_.cpu().scaled(cfg_.reapNs);
                    k_.eq().after(reap, [this, worst, n, start, cb]() {
                        kern::IoTrace tr;
                        tr.userNs = k_.eq().now() - start;
                        cb(*worst == ssd::Status::Success
                               ? static_cast<long long>(n)
                               : kern::errOf(fs::FsStatus::Inval),
                           tr);
                    });
                });
            sim::panicIf(!ok, "monetad queue overflow");
        }
    });
}

void
MonetadEngine::read(Tid tid, kern::Process &p, fs::Inode &ino,
                    std::span<std::uint8_t> buf, std::uint64_t off,
                    kern::IoCb cb)
{
    doIo(tid, p, ino, ssd::Op::Read, buf, off, false, std::move(cb));
}

void
MonetadEngine::write(Tid tid, kern::Process &p, fs::Inode &ino,
                     std::span<const std::uint8_t> buf, std::uint64_t off,
                     kern::IoCb cb)
{
    doIo(tid, p, ino, ssd::Op::Write,
         std::span<std::uint8_t>(const_cast<std::uint8_t *>(buf.data()),
                                 buf.size()),
         off, false, std::move(cb));
}

} // namespace bpd::monetad
