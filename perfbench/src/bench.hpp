/**
 * @file
 * Shared pieces of perfbench: the seeded input generator,
 * the data-check shadow, per-site I/O tallies, the benchmark's own host
 * spans around calls into the layers, the streaming span aggregator
 * for the traced pass, and the per-round result every workload fills.
 *
 * The benchmark generates all load itself by calling the layers' public
 * entry points; nothing here reaches into simulator internals except
 * the read-only counters the Systems already expose.
 */

#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "sim/stats.hpp"
#include "system/system.hpp"

namespace pb {

using bpd::Time;
using bpd::kMs;

/** Host monotonic clock in nanoseconds. */
inline std::uint64_t
hostNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Heap allocations made so far by every thread of this process. */
std::uint64_t heapAllocs();

/** splitmix64 finaliser. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * The benchmark's own seeded generator (splitmix64). Every offset, op
 * choice and model seed derives from the --seed argument through one
 * of these, so a seed fixes the inputs completely.
 */
class Gen
{
  public:
    explicit Gen(std::uint64_t seed) : s_(seed) {}
    /** An independent stream keyed by @p salt. */
    Gen fork(std::uint64_t salt) const { return Gen(mix64(s_ ^ mix64(salt))); }
    std::uint64_t
    next()
    {
        s_ += 0x9e3779b97f4a7c15ull;
        return mix64(s_);
    }
    /** Uniform in [0, n), n > 0. */
    std::uint64_t below(std::uint64_t n) { return next() % n; }
    /** True with probability @p pct percent. */
    bool percent(unsigned pct) { return next() % 100 < pct; }

  private:
    std::uint64_t s_;
};

/** FNV-1a over 64-bit words (the digest of a round's simulated outputs). */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    void
    add(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; i++) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
};

/**
 * Shadow copy of every block the benchmark wrote or stamped. Block
 * contents are self-describing: word 0 is the write's tag, word 1 the
 * block key, the rest a pattern of both, so a check needs no stored
 * bytes. A read is exact when no write to its block overlapped it; a
 * read racing a write (or after overlapping writes whose landing order
 * the benchmark cannot know) must still hold one complete version written
 * to that block.
 */
class Shadow
{
  public:
    static constexpr std::size_t kBlock = bpd::kBlockBytes;

    struct Ticket
    {
        std::uint32_t region = 0;
        std::uint64_t block = 0;
        std::uint64_t tag = 0;
        std::uint32_t gen = 0;
        bool racy = false;
    };

    /** Register a region of @p blocks blocks (grows on demand). */
    std::uint32_t addRegion(std::uint64_t blocks);

    /**
     * Set-up: fill one randomly placed, store-extent-sized run of a
     * region with known versions, writing each block through
     * @p write(block, data). One extent keeps the memory the stamps
     * materialise small, whatever the region's size.
     */
    template <typename F>
    void
    stampRun(std::uint32_t region, std::uint64_t regionBlocks, Gen g,
             F &&write)
    {
        constexpr std::uint64_t run = bpd::ssd::BlockStore::kExtentBlocks;
        if (regionBlocks < run)
            return;
        std::vector<std::uint8_t> buf(kBlock);
        const std::uint64_t first = g.below(regionBlocks / run) * run;
        for (std::uint64_t b = first; b < first + run; b++) {
            Entry &e = at(region, b);
            e.tag = nextTag_++;
            fill(buf.data(), key(region, b), e.tag);
            write(b, std::span<const std::uint8_t>(buf));
        }
    }

    /** A write of @p data to the block is being issued. */
    void beginWrite(std::uint32_t region, std::uint64_t block,
                    std::span<std::uint8_t> data);
    void endWrite(std::uint32_t region, std::uint64_t block,
                  std::span<const std::uint8_t> data, bool ok);

    Ticket beginRead(std::uint32_t region, std::uint64_t block);
    /** Check a completed read; a mismatch is counted and described. */
    void endRead(const Ticket &t, std::span<const std::uint8_t> data);

    /**
     * Read back every block with a known final version through
     * @p readBack(region, block, out) and check it (end of a round).
     */
    template <typename F>
    void
    verifyAll(F &&readBack)
    {
        std::vector<std::uint8_t> buf(kBlock);
        for (std::uint32_t r = 0; r < regions_.size(); r++)
            for (std::uint64_t b = 0; b < regions_[r].size(); b++) {
                const Entry &e = regions_[r][b];
                if (e.tag == 0 || e.inflight || e.ambiguous)
                    continue;
                readBack(r, b, std::span<std::uint8_t>(buf));
                checks++;
                if (!matches(buf.data(), key(r, b), e.tag))
                    mismatch(r, b, "final read-back");
            }
    }

    std::uint64_t checks = 0; //!< reads and final read-backs checked
    std::uint64_t mismatches = 0;
    std::string firstMismatch;

  private:
    struct Entry
    {
        std::uint64_t tag = 0; //!< committed version; 0 = zero block
        std::uint32_t gen = 0; //!< bumped by every write issue
        std::uint16_t inflight = 0;
        bool ambiguous = false; //!< overlapping writes: order unknown
    };

    static std::uint64_t
    key(std::uint32_t region, std::uint64_t block)
    {
        return (static_cast<std::uint64_t>(region) << 40) | block;
    }
    static void fill(std::uint8_t *p, std::uint64_t key, std::uint64_t tag);
    static bool matches(const std::uint8_t *p, std::uint64_t key,
                        std::uint64_t tag);
    Entry &at(std::uint32_t region, std::uint64_t block);
    void mismatch(std::uint32_t region, std::uint64_t block,
                  const char *what);

    std::vector<std::vector<Entry>> regions_;
    std::uint64_t nextTag_ = 1;
};

/** The measured simulated window of a round. */
struct Window
{
    Time start = 0; //!< I/Os issued from here on are sampled
    Time end = 0;   //!< loops stop issuing here
    bool contains(Time issue, Time done) const
    {
        return issue >= start && done <= end;
    }
};

/**
 * Operation counts and latency samples of one site (one System's
 * clients). Fleet sites are touched only by their own shard thread.
 */
struct Tally
{
    std::uint64_t issued = 0;    //!< every op, fsync and open included
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t dataOps = 0;   //!< completed reads and writes
    std::uint64_t userWriteBytes = 0;
    std::uint64_t windowOps = 0; //!< completed data ops in the window
    std::vector<std::uint32_t> readNs, writeNs; //!< window latencies
    std::uint64_t fsyncs = 0;
    std::uint64_t fsyncNs = 0;
    std::string firstError;

    /** Book a finished data op; returns whether it succeeded. */
    bool data(const Window &w, Time issue, Time now, bool write,
              long long got, std::size_t want);
    /** Book a finished non-data op (fsync, open). */
    bool other(long long rc, const char *what);
    void merge(const Tally &o);
};

/** Which layer entry point a host span timed. */
enum class HostLayer : std::uint8_t { UserLib, Kernel, Fabric, RunLoop };
const char *toString(HostLayer l);

/** One benchmark-recorded span: host time around a call into a layer. */
struct HostSpan
{
    std::uint64_t req = 0; //!< request id (0 for the run loop)
    std::uint64_t start = 0;
    std::uint64_t durNs = 0;
    HostLayer layer = HostLayer::RunLoop;
};

/**
 * The benchmark's own in-memory host spans (traced pass only). Off, a
 * call is a branch plus the call itself.
 */
class HostSpans
{
  public:
    bool on = false;
    std::vector<HostSpan> spans;

    std::uint64_t nextReq() { return on ? ++lastReq_ : 0; }
    /** Ids continue after @p last (keeps sites' ids disjoint). */
    void idsAfter(std::uint64_t last) { lastReq_ = last; }

    template <typename F>
    void
    call(HostLayer layer, std::uint64_t req, F &&fn)
    {
        if (!on) {
            fn();
            return;
        }
        const std::uint64_t t0 = hostNs();
        fn();
        spans.push_back({req, t0, hostNs() - t0, layer});
    }

  private:
    std::uint64_t lastReq_ = 0;
};

/**
 * Streams a System's finished spans into per-layer sums, so the traced
 * pass keeps no span list: request envelopes give the Table-1 axes,
 * the nvme/fabric spans give queueing and transport time.
 */
class SpanAgg : public bpd::obs::SpanSink
{
  public:
    void onSpan(const bpd::obs::SpanRec &rec,
                const std::vector<std::string> &tracks) override;
    void merge(const SpanAgg &o);

    std::uint64_t spans = 0;
    std::uint64_t envelopes = 0;
    double userNs = 0, kernelNs = 0, xlateNs = 0, deviceNs = 0;
    std::uint64_t bypassdEnvelopes = 0;
    double bypassdUserNs = 0;
    std::uint64_t fabricEnvelopes = 0;
    double fabricTransportNs = 0; //!< envelope user_ns: all but device
    std::uint64_t rdmaPulls = 0;
    double rdmaNs = 0;
    double sqWaitNs = 0;
};

/** Layer counters summed over every System of a round, run phase only. */
struct Counters
{
    std::uint64_t events = 0;
    std::uint64_t devOps = 0, devWriteBytes = 0;
    std::uint64_t vbaTranslations = 0, vbaFaults = 0, framesRead = 0;
    std::uint64_t iotlbHits = 0, iotlbMisses = 0;
    std::uint64_t walkHits = 0, walkMisses = 0;
    std::uint64_t syscalls = 0, metadataOps = 0;
    std::uint64_t journalCommits = 0, journalRecords = 0;
    std::uint64_t fmaps = 0; //!< fmap calls: cold, warm and refused
    std::uint64_t revocations = 0;
    std::uint64_t directOps = 0, fallbackOps = 0;
    bool qos = false;
    std::uint64_t qosAdmits = 0, qosThrottles = 0;
    std::uint64_t fabricIos = 0, fabricDepthQueued = 0;
    bool fabric = false;

    /** Add @p s's layer counters (before probes touch the System). */
    void add(bpd::sys::System &s);
    /** Subtract a snapshot taken before the run: run-phase deltas. */
    void sub(const Counters &before);
};

/** Sharded-executor deltas over the measured run (fleets only). */
struct ExecStats
{
    bool used = false;
    unsigned shards = 1;
    std::uint64_t windows = 0, messages = 0;
    std::vector<std::uint64_t> shardEvents;
    double stallSec = 0; //!< summed over shards
};

/** Host cost of the translation probes, replayed after the window. */
struct XlateProbe
{
    bool ran = false;
    std::string why; //!< reason when not run
    std::uint64_t samples = 0;
    double translateNs = 0; //!< Iommu::translateVbaSync, per call
    double walkNs = 0;      //!< mem::PageTable::walk, per call
};

/** Knobs one round runs with. */
struct RoundCfg
{
    std::uint64_t seed = 1;
    bool traced = false;
    unsigned shards = 1;   //!< fleets only
    double windowScale = 1.0; //!< < 1 for the short shard check
    bool probe = false;    //!< run the translation probes at the end
};

/** Everything one workload round produced. */
struct Round
{
    bool traced = false;
    bool warmup = false;         //!< checked, but not in host medians
    double bootS = 0, populateS = 0, openS = 0;
    double runS = 0;             //!< wall of the run-loop call
    std::uint64_t allocs = 0;    //!< heap allocations during the run
    Window window;
    Tally io;
    Counters layers;
    ExecStats exec;
    SpanAgg spans;
    HostSpans host;              //!< merged host spans (traced)
    XlateProbe xlate;
    std::uint64_t digest = 0;
    std::uint64_t dataChecks = 0; //!< blocks compared with the shadow
    std::vector<std::string> failures;
    /** Capped tenant: completed window ops and its IOPS cap. */
    std::uint64_t cappedOps = 0, capIops = 0;
    /** Queue pairs and read share, for the device probe. */
    unsigned queuePairs = 0;
    unsigned readPct = 100;

    double setupS() const { return bootS + populateS + openS; }
    double hostNsPerIo() const
    {
        return io.dataOps ? runS * 1e9 / static_cast<double>(io.dataOps)
                          : 0;
    }
};

/** Record a failure unless @p s's tenant sums equal its totals. */
void checkTenantSums(Round &r, bpd::sys::System &s, const char *label);

/** Fold latency samples and counts into a digest. */
void digestTally(Fnv &h, const Tally &t);

/** Workloads (one file each). */
Round runDirectRandread(const RoundCfg &cfg);
Round runMixedRwRevoke(const RoundCfg &cfg);
Round runFabricFleetQos(const RoundCfg &cfg);

/** Replay direct-path offsets through the IOMMU and page table. */
XlateProbe probeTranslation(bpd::sys::System &s, bpd::kern::Process &p,
                            const std::string &path,
                            const std::vector<std::uint64_t> &offsets);

/** Host ns per completed command on a benchmark-owned device. */
double probeDevice(unsigned queuePairs, unsigned readPct,
                   std::uint64_t seed);

} // namespace pb

#endif // PERFBENCH_BENCH_HPP
