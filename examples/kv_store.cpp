/**
 * @file
 * A small persistent hash-table KV store built on the BypassD public
 * API, demonstrating coroutine-style straight-line I/O code over the
 * simulator (sim::Task / sim::Future) and the engine-speedup a real
 * application sees.
 *
 * Layout: one file; bucket b lives at byte b * 512; each 512 B bucket
 * holds up to 7 (key, value) pairs of 32+32 bytes plus a header.
 *
 *   build/examples/kv_store
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "sim/coro.hpp"
#include "sim/hash.hpp"
#include "system/system.hpp"

using namespace bpd;

namespace {

constexpr std::uint64_t kBuckets = 65536;
constexpr std::uint32_t kSlotBytes = 64;
constexpr std::uint32_t kSlots = 7;

struct Bucket
{
    std::uint32_t count;
    std::uint32_t pad;
    struct Slot
    {
        char key[32];
        char value[32];
    } slots[kSlots];
};
static_assert(sizeof(Bucket) <= 512);

/** The store: synchronous-looking API over the async UserLib. */
class TinyKv
{
  public:
    TinyKv(sys::System &s, bypassd::UserLib &lib, int fd)
        : s_(s), lib_(lib), fd_(fd)
    {
    }

    sim::Co<bool>
    put(std::string key, std::string value)
    {
        Bucket b = co_await load(key);
        // Update in place if present.
        for (std::uint32_t i = 0; i < b.count; i++) {
            if (key == b.slots[i].key) {
                setSlot(b.slots[i], key, value);
                co_await store(key, b);
                co_return true;
            }
        }
        if (b.count >= kSlots)
            co_return false; // bucket full (no chaining in the demo)
        setSlot(b.slots[b.count], key, value);
        b.count++;
        co_await store(key, b);
        co_return true;
    }

    sim::Co<std::string>
    get(std::string key)
    {
        Bucket b = co_await load(key);
        for (std::uint32_t i = 0; i < b.count; i++) {
            if (key == b.slots[i].key)
                co_return std::string(b.slots[i].value);
        }
        co_return std::string();
    }

  private:
    static void
    setSlot(Bucket::Slot &slot, const std::string &k,
            const std::string &v)
    {
        std::memset(&slot, 0, sizeof(slot));
        std::strncpy(slot.key, k.c_str(), sizeof(slot.key) - 1);
        std::strncpy(slot.value, v.c_str(), sizeof(slot.value) - 1);
    }

    std::uint64_t
    offsetOf(const std::string &key) const
    {
        const std::uint64_t h = sim::fnvBytes(
            reinterpret_cast<const std::uint8_t *>(key.data()), key.size());
        return (h % kBuckets) * 512;
    }

    sim::Co<Bucket>
    load(const std::string &key)
    {
        std::vector<std::uint8_t> raw(512);
        sim::Future<long long> done;
        lib_.pread(0, fd_, raw, offsetOf(key), [done](long long n,
                                                      kern::IoTrace) {
            done.resolve(n);
        });
        const long long n = co_await done;
        sim::panicIf(n < 0, "kv: read failed");
        Bucket b;
        std::memcpy(&b, raw.data(), sizeof(b));
        co_return b;
    }

    sim::Co<bool>
    store(const std::string &key, const Bucket &b)
    {
        std::vector<std::uint8_t> raw(512, 0);
        std::memcpy(raw.data(), &b, sizeof(b));
        sim::Future<long long> done;
        lib_.pwrite(0, fd_, raw, offsetOf(key), [done](long long n,
                                                       kern::IoTrace) {
            done.resolve(n);
        });
        co_return co_await done >= 0;
    }

    sys::System &s_;
    bypassd::UserLib &lib_;
    int fd_;
};

sim::Task
demo(sys::System &s, TinyKv &kv, Time *elapsed, std::uint64_t *ops)
{
    const Time start = s.now();
    std::uint64_t count = 0;

    // Populate.
    for (int i = 0; i < 200; i++) {
        const bool ok = co_await kv.put("user:" + std::to_string(i),
                                        "value-" + std::to_string(i * 7));
        sim::panicIf(!ok, "put failed");
        count++;
    }
    // Read back and verify a sample.
    for (int i = 0; i < 200; i += 20) {
        const std::string v
            = co_await kv.get("user:" + std::to_string(i));
        sim::panicIf(v != "value-" + std::to_string(i * 7),
                     "wrong value!");
        count++;
    }
    // Overwrite + re-read.
    co_await kv.put("user:42", "rewritten");
    const std::string v = co_await kv.get("user:42");
    sim::panicIf(v != "rewritten", "overwrite lost");
    count += 2;

    *elapsed = s.now() - start;
    *ops = count;
}

} // namespace

int
main()
{
    sim::setVerbose(false);
    sys::System s;
    kern::Process &proc = s.newProcess(1000);
    bypassd::UserLib &lib = s.userLib(proc);

    const int cfd = s.kernel.setupCreateFile(proc, "/tiny.kv",
                                             kBuckets * 512, 0);
    s.kernel.sysClose(proc, cfd, [](int) {});
    s.run();
    int fd = -1;
    lib.open("/tiny.kv", fs::kOpenRead | fs::kOpenWrite | fs::kOpenDirect,
             0644, [&](int f) { fd = f; });
    s.run();
    sim::panicIf(fd < 0, "open failed");
    std::printf("tiny.kv opened, direct=%s\n",
                lib.isDirect(fd) ? "yes" : "no");

    TinyKv kv(s, lib, fd);
    Time elapsed = 0;
    std::uint64_t ops = 0;
    demo(s, kv, &elapsed, &ops);
    s.run();

    std::printf("ran %llu KV ops in %.2fms simulated "
                "(avg %.2fus/op; puts are read-modify-write)\n",
                (unsigned long long)ops,
                static_cast<double>(elapsed) / 1e6,
                static_cast<double>(elapsed)
                    / static_cast<double>(ops) / 1e3);
    std::printf("partial-write serializations: %llu, direct ops: %llu "
                "reads + %llu writes\n",
                (unsigned long long)lib.partialSerialized(),
                (unsigned long long)lib.directReads(),
                (unsigned long long)lib.directWrites());
    return 0;
}
