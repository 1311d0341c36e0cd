/**
 * @file
 * A small persistent hash-table KV store built on the BypassD public
 * API, written as plain completion callbacks over UserLib, and the
 * engine speedup a real application sees.
 *
 * Layout: one file; bucket b lives at byte b * 512; each 512 B bucket
 * holds up to 7 (key, value) pairs of 32+32 bytes plus a header.
 *
 *   build/examples/kv_store
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

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

/**
 * The store over the async UserLib: every operation takes a completion
 * callback. A put is a read-modify-write of its bucket. One request is
 * in flight at a time, so a single bucket buffer serves them all.
 */
class TinyKv
{
  public:
    TinyKv(bypassd::UserLib &lib, int fd) : lib_(lib), fd_(fd) {}

    void
    put(const std::string &key, const std::string &value,
        std::function<void(bool)> done)
    {
        load(key, [this, key, value, done = std::move(done)](Bucket b) {
            // Update in place if present, else append.
            std::uint32_t i = 0;
            while (i < b.count && key != b.slots[i].key)
                i++;
            if (i == b.count) {
                if (b.count >= kSlots) {
                    done(false); // bucket full (no chaining in the demo)
                    return;
                }
                b.count++;
            }
            setSlot(b.slots[i], key, value);
            store(key, b, done);
        });
    }

    void
    get(const std::string &key, std::function<void(std::string)> done)
    {
        load(key, [key, done = std::move(done)](const Bucket &b) {
            for (std::uint32_t i = 0; i < b.count; i++) {
                if (key == b.slots[i].key) {
                    done(std::string(b.slots[i].value));
                    return;
                }
            }
            done(std::string());
        });
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

    void
    load(const std::string &key, std::function<void(Bucket)> done)
    {
        lib_.pread(0, fd_, raw_, offsetOf(key),
                   [this, done = std::move(done)](long long n,
                                                  kern::IoTrace) {
                       sim::panicIf(n < 0, "kv: read failed");
                       Bucket b;
                       std::memcpy(&b, raw_.data(), sizeof(b));
                       done(b);
                   });
    }

    void
    store(const std::string &key, const Bucket &b,
          std::function<void(bool)> done)
    {
        std::fill(raw_.begin(), raw_.end(), 0);
        std::memcpy(raw_.data(), &b, sizeof(b));
        lib_.pwrite(0, fd_, raw_, offsetOf(key),
                    [done = std::move(done)](long long n, kern::IoTrace) {
                        done(n >= 0);
                    });
    }

    bypassd::UserLib &lib_;
    int fd_;
    std::vector<std::uint8_t> raw_ = std::vector<std::uint8_t>(512);
};

/** The demo as a chain of callbacks: populate, verify, overwrite. */
class Demo
{
  public:
    Demo(sys::System &s, TinyKv &kv) : s_(s), kv_(kv), start_(s.now()) {}

    void start() { populate(0); }

    Time elapsed() const { return elapsed_; }
    std::uint64_t ops() const { return ops_; }

  private:
    static std::string
    key(int i)
    {
        return "user:" + std::to_string(i);
    }

    static std::string
    value(int i)
    {
        return "value-" + std::to_string(i * 7);
    }

    void
    populate(int i)
    {
        if (i == 200) {
            verify(0);
            return;
        }
        kv_.put(key(i), value(i), [this, i](bool ok) {
            sim::panicIf(!ok, "put failed");
            ops_++;
            populate(i + 1);
        });
    }

    /** Read back and check a sample. */
    void
    verify(int i)
    {
        if (i >= 200) {
            overwrite();
            return;
        }
        kv_.get(key(i), [this, i](const std::string &v) {
            sim::panicIf(v != value(i), "wrong value!");
            ops_++;
            verify(i + 20);
        });
    }

    void
    overwrite()
    {
        kv_.put("user:42", "rewritten", [this](bool) {
            kv_.get("user:42", [this](const std::string &v) {
                sim::panicIf(v != "rewritten", "overwrite lost");
                ops_ += 2;
                elapsed_ = s_.now() - start_;
            });
        });
    }

    sys::System &s_;
    TinyKv &kv_;
    Time start_;
    Time elapsed_ = 0;
    std::uint64_t ops_ = 0;
};

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

    TinyKv kv(lib, fd);
    Demo demo(s, kv);
    demo.start();
    s.run();
    const Time elapsed = demo.elapsed();
    const std::uint64_t ops = demo.ops();

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
