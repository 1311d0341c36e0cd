#include "system/system.hpp"

#include <algorithm>
#include <cinttypes>
#include <map>
#include <string>
#include <utility>

#include "sim/logging.hpp"

namespace bpd::sys {

namespace {

using TC = obs::TenantCounters;
using Slot = const ssd::DeviceSlot &;

/**
 * One counter the System exports from component stats. kCounters is
 * the one place that names a counter's metric key, the tenant slice
 * that shadows it and the source of its system total; collectMetrics()
 * exports it, verifyTenantSums() checks it and counterTotal() serves it
 * by key (obs::curatedCounters).
 */
struct CounterRow
{
    const char *group;
    const char *name;
    /** The tenant's slice; null when no tenant honestly owns the
     *  counter (a shared IOTLB hit may serve another tenant's fill). */
    std::uint64_t TC::*tenant;
    /** Per-slot hardware source, summed over the fleet for the total.
     *  Attributed ones also have a (device, tenant) axis. */
    std::uint64_t (*slot)(Slot);
    /** Otherwise: the System-wide total. */
    std::uint64_t (*total)(System &) = nullptr;
    /** Exported only while QoS is on (non-QoS key sets stay exact). */
    bool qosOnly = false;
};

constexpr CounterRow kCounters[] = {
    {"sim", "events_executed", nullptr, nullptr,
     [](System &s) { return s.eq.executed(); }},
    {"kern", "syscalls", &TC::kernSyscalls, nullptr,
     [](System &s) { return s.kernel.syscallCount(); }},
    {"ssd", "ops", &TC::ssdOps, [](Slot d) { return d.dev.totalOps(); }},
    {"ssd", "read_bytes", &TC::ssdReadBytes,
     [](Slot d) { return d.dev.readBytes(); }},
    {"ssd", "write_bytes", &TC::ssdWriteBytes,
     [](Slot d) { return d.dev.writeBytes(); }},
    {"ssd", "translation_faults", &TC::ssdTranslationFaults,
     [](Slot d) { return d.dev.translationFaults(); }},
    {"iommu", "vba_translations", &TC::iommuVbaTranslations,
     [](Slot d) { return d.iommu.vbaTranslations(); }},
    {"iommu", "vba_faults", &TC::iommuVbaFaults,
     [](Slot d) { return d.iommu.vbaFaults(); }},
    {"iommu", "page_walk_frames", &TC::iommuPageWalkFrames,
     [](Slot d) { return d.iommu.framesRead(); }},
    {"iommu", "iotlb_hits", nullptr,
     [](Slot d) { return d.iommu.iotlb().hits(); }},
    {"iommu", "iotlb_misses", nullptr,
     [](Slot d) { return d.iommu.iotlb().misses(); }},
    {"iommu", "walk_cache_hits", nullptr,
     [](Slot d) { return d.iommu.walkCache().hits(); }},
    {"iommu", "walk_cache_misses", nullptr,
     [](Slot d) { return d.iommu.walkCache().misses(); }},
    {"fs", "journal_commits", nullptr, nullptr,
     [](System &s) { return s.ext4.journal().committedTxns(); }},
    {"fs", "journal_records", &TC::fsJournalRecords, nullptr,
     [](System &s) { return s.ext4.journal().records(); }},
    {"fs", "metadata_ops", &TC::fsMetadataOps, nullptr,
     [](System &s) { return s.ext4.metadataOps(); }},
    {"fs", "page_cache_hits", &TC::fsPageCacheHits, nullptr,
     [](System &s) { return s.kernel.pageCache().hits(); }},
    {"fs", "page_cache_misses", &TC::fsPageCacheMisses, nullptr,
     [](System &s) { return s.kernel.pageCache().misses(); }},
    {"bypassd", "cold_fmaps", &TC::bypassdColdFmaps, nullptr,
     [](System &s) { return s.module.coldFmaps(); }},
    {"bypassd", "warm_fmaps", &TC::bypassdWarmFmaps, nullptr,
     [](System &s) { return s.module.warmFmaps(); }},
    {"bypassd", "rejected_fmaps", &TC::bypassdRejectedFmaps, nullptr,
     [](System &s) { return s.module.rejectedFmaps(); }},
    {"bypassd", "revoked_victims", &TC::bypassdRevokedVictims, nullptr,
     [](System &s) { return s.module.revokedVictims(); }},
    {"bypassd", "revocations", nullptr, nullptr,
     [](System &s) { return s.module.revocations(); }},
    {"qos", "admits", nullptr, nullptr,
     [](System &s) { return s.qos() ? s.qos()->admits() : 0; }, true},
    {"qos", "throttles", &TC::qosThrottles, nullptr,
     [](System &s) { return s.qos() ? s.qos()->throttles() : 0; }, true},
    {"qos", "throttled_bytes", &TC::qosThrottledBytes, nullptr,
     [](System &s) { return s.qos() ? s.qos()->throttledBytes() : 0; },
     true},
};

/** UserLib stats live per process (a process is a tenant). */
constexpr std::pair<const char *,
                    std::uint64_t (bypassd::UserLib::*)() const>
    kUserLibCounters[] = {
        {"direct_reads", &bypassd::UserLib::directReads},
        {"direct_writes", &bypassd::UserLib::directWrites},
        {"kernel_fallback_ops", &bypassd::UserLib::kernelFallbackOps},
        {"iommu_faults", &bypassd::UserLib::iommuFaults},
};

/** The rows with a (device, tenant) axis. */
constexpr bool
perDevice(const CounterRow &r)
{
    return r.tenant && r.slot;
}

/** @p get summed over every fleet slot: the one fold of hardware
 *  counters (slot 0's value when maxDevices == 1). */
std::uint64_t
foldSlots(const DeviceMap &devices, std::uint64_t (*get)(Slot))
{
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < devices.size(); i++)
        v += get(devices.slot(i));
    return v;
}

std::uint64_t
totalOf(System &s, const CounterRow &r)
{
    return r.slot ? foldSlots(s.devices, r.slot) : r.total(s);
}

void
addRow(TC &out, const TC &in)
{
    for (const CounterRow &r : kCounters)
        if (r.tenant)
            out.*r.tenant += in.*r.tenant;
}

/** "ssd.dev3"-style per-device group. */
std::string
devGroup(const char *group, DevId d)
{
    return sim::strf("%s.dev%u", group, unsigned(d));
}

} // namespace

DeviceMapConfig
System::mapCfgOf(const SystemConfig &c)
{
    DeviceMapConfig m;
    m.slotBytes = c.deviceBytes;
    m.maxDevices = std::max<std::size_t>(c.maxDevices, 1);
    m.onlineDevices = c.onlineDevices == 0
                          ? m.maxDevices
                          : std::min(c.onlineDevices, m.maxDevices);
    m.devIdBase = c.devId;
    m.seedBase = c.seed;
    m.ssd = c.ssd;
    m.iommu = c.iommu;
    m.slotSsd = c.slotSsd;
    return m;
}

System::System(SystemConfig config)
    : cfg(config),
      devices(eq, mapCfgOf(cfg)),
      iommu(devices.slot(0).iommu),
      store(devices.volume()),
      dev(devices.slot(0).dev),
      ext4(store, cfg.fs, &eq),
      vfs(ext4),
      kernel(eq, frames, iommu, vfs, dev, cfg.costs, cfg.kernel),
      aio(kernel),
      module(kernel)
{
    evictPending_.assign(devices.size(), false);
    // Slot 0 is the constructor-wired classic device; attach the other
    // boot-online slots to the kernel's routing table.
    const std::size_t online = cfg.onlineDevices == 0
                                   ? devices.size()
                                   : std::min<std::size_t>(
                                         cfg.onlineDevices,
                                         devices.size());
    for (std::size_t i = 1; i < online; i++)
        kernel.attachSlot(devices.slot(i).dev, devices.slot(i).iommu,
                          devices.slotBase(i));
    if (devices.size() > 1) {
        // Per-inode home-device placement: the file system allocates an
        // inode's blocks inside its home slot's block range, and the
        // BypassD module homes FTEs by the same map — one source of
        // truth, so extents never straddle devices. Single-device
        // systems keep the classic allocator bit-identically (null
        // placement).
        ext4.setPlacement([this](const fs::Inode &ino) {
            return devices.blockRange(devices.homeSlotOf(ino.ino));
        });
        module.setHomeSlot([this](const fs::Inode &ino) {
            return devices.homeSlotOf(ino.ino);
        });
    }
    if (cfg.healthMonitor) {
        // The hook fires at media-error completion time; eviction is
        // deferred one event so revocation never runs inside the
        // device's completion path. Slot 0 is never monitored: it
        // holds the file-system metadata and cannot be evicted.
        for (std::size_t i = 1; i < devices.size(); i++) {
            devices.slot(i).dev.setHealthHook(
                [this, i](std::uint64_t errors) {
                    if (errors < cfg.evictAfterMediaErrors
                        || evictPending_[i])
                        return;
                    evictPending_[i] = true;
                    eq.after(0, [this, i]() { evictDevice(i); });
                });
        }
    }
}

void
System::evictDevice(std::size_t slot)
{
    sim::panicIf(slot == 0, "slot 0 (metadata home) cannot be evicted");
    sim::panicIf(slot >= devices.size(),
                 "evictDevice: slot out of range");
    if (devices.evicted(slot))
        return;
    devices.slot(slot).dev.setEvicted(true);
    module.revokeSlot(slot);
}

std::size_t
System::plugDevice()
{
    const std::size_t next = kernel.slotCount();
    sim::panicIf(next >= devices.size(),
                 "plugDevice: no unattached slot left");
    kernel.attachSlot(devices.slot(next).dev, devices.slot(next).iommu,
                      devices.slotBase(next));
    devices.setPresent(next, true);
    return next;
}

DevId
System::deviceOfFile(const std::string &path) const
{
    InodeNum ino = 0;
    if (ext4.resolve(path, &ino) != fs::FsStatus::Ok)
        return 0;
    auto it = devices.homes().find(ino);
    if (it == devices.homes().end())
        return 0;
    return devices.slot(it->second).dev.devId();
}

System::~System()
{
    // Members destroy in reverse declaration order, so `module` is
    // gone by the time `kernel` drops its processes — and with them
    // any UserLib whose destructor unwinds user queues through the
    // module. Detach the shims here while every layer is still alive.
    kernel.forEachProcess(
        [](kern::Process &p) { p.userLibOwner.reset(); });
}

kern::Process &
System::newProcess(std::uint32_t uid, std::uint32_t gid)
{
    kern::Process &p = kernel.createProcess(fs::Credentials{uid, gid});
    if (tracer_) {
        obs::ReplayRec r;
        r.op = obs::ReplayRec::NewProcess;
        r.proc = p.pasid();
        r.aux = (static_cast<std::uint64_t>(uid) << 32) | gid;
        tracer_->replayMark(r, p.pasid());
    }
    return p;
}

obs::Tracer &
System::enableTracing(obs::Level level)
{
    if (tracer_)
        return *tracer_;
    tracer_ = std::make_unique<obs::Tracer>(eq, level, &metrics);
    obs::Tracer *t = tracer_.get();
    kernel.setTracer(t);
    // Wire every fleet slot (including not-yet-plugged ones, so
    // hot-plug needs no re-wiring).
    for (std::size_t i = 0; i < devices.size(); i++) {
        devices.slot(i).dev.setTracer(t);
        devices.slot(i).iommu.setTracer(t);
    }
    module.setTracer(t);
    // Journal commits show up as instants on their own "fs" track.
    const std::uint16_t fsTrack = t->track("fs");
    ext4.journal().setCommitObserver([t, fsTrack](std::size_t records) {
        if (t->wants(obs::Level::Layers))
            t->instant(fsTrack, "journal.commit", 0,
                       {{"records",
                         static_cast<std::int64_t>(records)}});
    });
    return *tracer_;
}

obs::TenantAccounting &
System::enableTenantAccounting()
{
    if (acctEnabled_)
        return acct_;
    acctEnabled_ = true;
    kernel.setTenantAccounting(&acct_);
    for (std::size_t i = 0; i < devices.size(); i++) {
        devices.slot(i).dev.setTenantAccounting(&acct_);
        devices.slot(i).iommu.setTenantAccounting(&acct_);
    }
    module.setTenantAccounting(&acct_);
    // The kernel names the tenant it is executing filesystem code for;
    // ext4/journal/page-cache read that slot at their attribution sites.
    const TenantId *active = kernel.activeTenantPtr();
    ext4.setTenantAccounting(&acct_, active);
    kernel.pageCache().setTenantAccounting(&acct_, active);
    // Either enable order works: a QoS registry enabled earlier starts
    // attributing throttles now.
    if (qos_)
        qos_->setAccounting(&acct_);
    return acct_;
}

qos::Registry &
System::enableQos()
{
    if (qos_)
        return *qos_;
    qos_ = std::make_unique<qos::Registry>(eq);
    kernel.setQos(qos_.get());
    // Wire every fleet slot (including not-yet-plugged ones, so
    // hot-plug needs no re-wiring).
    for (std::size_t i = 0; i < devices.size(); i++)
        devices.slot(i).dev.setQos(qos_.get());
    if (acctEnabled_)
        qos_->setAccounting(&acct_);
    return *qos_;
}

std::string
System::verifyTenantSums()
{
    if (!acctEnabled_)
        return {};
    // Direction 1: per attributed key, the sum over tenants equals the
    // system total (QoS off: both sides of the qos rows read 0).
    TC sum;
    acct_.forEach([&](TenantId, const TC &tc) { addRow(sum, tc); });
    for (const CounterRow &r : kCounters)
        if (r.tenant && sum.*r.tenant != totalOf(*this, r))
            return sim::strf("%s.%s: tenant sum %" PRIu64
                             " != system total %" PRIu64,
                             r.group, r.name, sum.*r.tenant,
                             totalOf(*this, r));

    // Directions 2 and 3: the per-device x per-tenant rows must fold
    // bit-exactly into (a) each tenant's device-attributable counters
    // and (b) each device's hardware counters.
    std::map<TenantId, TC> byTenant;
    std::map<DevId, TC> byDev;
    acct_.forEachDevice([&](DevId d, TenantId t, const TC &dc) {
        addRow(byTenant[t], dc);
        addRow(byDev[d], dc);
    });
    std::string err;
    auto check = [&err](const char *scope, std::uint64_t id,
                        const TC &fold, const TC &ref) {
        for (const CounterRow &r : kCounters)
            if (err.empty() && perDevice(r) && fold.*r.tenant != ref.*r.tenant)
                err = sim::strf("%s %" PRIu64 " %s.%s: device-fold %" PRIu64
                                " != reference %" PRIu64,
                                scope, id, r.group, r.name, fold.*r.tenant,
                                ref.*r.tenant);
    };
    acct_.forEach([&](TenantId t, const TC &tc) {
        check("tenant", t, byTenant[t], tc);
    });
    for (std::size_t i = 0; i < devices.size(); i++) {
        TC hw;
        for (const CounterRow &r : kCounters)
            if (perDevice(r))
                hw.*r.tenant = r.slot(devices.slot(i));
        const DevId d = devices.slot(i).dev.devId();
        check("device", d, byDev[d], hw);
    }
    return err;
}

std::uint64_t
System::counterTotal(const std::string &key)
{
    for (const CounterRow &r : kCounters)
        if (key == sim::strf("%s.%s", r.group, r.name))
            return totalOf(*this, r);
    sim::panic("counterTotal: no counter " + key);
}

void
System::collectMetrics()
{
    const bool fleet = devices.size() > 1;
    for (const CounterRow &r : kCounters)
        if (!r.qosOnly || qos_)
            metrics.counter(r.group, r.name).set(totalOf(*this, r));
    // Per-device groups and media errors: fleets only, so classic
    // single-device output keeps its exact key set.
    if (fleet)
        metrics.counter("ssd", "media_errors")
            .set(foldSlots(devices, [](Slot d) {
                return d.dev.mediaErrors();
            }));
    for (std::size_t i = 0; fleet && i < devices.size(); i++) {
        const ssd::DeviceSlot &slot = devices.slot(i);
        for (const CounterRow &r : kCounters)
            if (perDevice(r))
                metrics.counter(devGroup(r.group, slot.dev.devId()), r.name)
                    .set(r.slot(slot));
        const std::string g = devGroup("ssd", slot.dev.devId());
        metrics.counter(g, "media_errors").set(slot.dev.mediaErrors());
        metrics.counter(g, "evicted").set(slot.dev.evicted() ? 1 : 0);
    }
    for (const auto &[name, get] : kUserLibCounters) {
        std::uint64_t total = 0;
        kernel.forEachProcess([&](kern::Process &p) {
            if (!p.userLib)
                return;
            total += (p.userLib->*get)();
            if (acctEnabled_)
                metrics.tenant(p.pasid())
                    .counter("bypassd", name)
                    .set((p.userLib->*get)());
        });
        metrics.counter("bypassd", name).set(total);
    }
    metrics.gauge("ssd", "resident_bytes")
        .set(static_cast<double>(store.residentBytes()));
    metrics.gauge("sim", "now_ns").set(static_cast<double>(eq.now()));

    // Per-tenant scopes, under the keys of the totals they shadow.
    acct_.forEach([&](TenantId id, const TC &tc) {
        for (const CounterRow &r : kCounters)
            if (r.tenant && (!r.qosOnly || qos_))
                metrics.tenant(id).counter(r.group, r.name).set(tc.*r.tenant);
    });
    if (fleet)
        acct_.forEachDevice([&](DevId d, TenantId id, const TC &dc) {
            for (const CounterRow &r : kCounters)
                if (perDevice(r))
                    metrics.tenant(id)
                        .counter(devGroup(r.group, d), r.name)
                        .set(dc.*r.tenant);
        });
}

bypassd::UserLib &
System::userLib(kern::Process &p)
{
    if (p.userLib)
        return *p.userLib;
    // The process owns its shim: teardown happens with the process,
    // before its address space (see Process::userLibOwner).
    auto lib = std::make_shared<bypassd::UserLib>(kernel, module, p,
                                                  cfg.userlib);
    bypassd::UserLib *raw = lib.get();
    p.userLibOwner = std::move(lib);
    return *raw;
}

} // namespace bpd::sys
