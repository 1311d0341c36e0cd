/**
 * @file
 * The one "bypassd-bench-v1" writer, shared by the bench binaries and
 * tools/trace_replay, plus the host-side clock and peak-RSS reads the
 * files carry. Standard-library only, so tools that link no simulator
 * layer can include it.
 */

#ifndef BPD_BENCH_BENCH_JSON_HPP
#define BPD_BENCH_BENCH_JSON_HPP

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

namespace bpd::bench {

/** Host monotonic clock in seconds (wall_sec deltas). */
inline double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Peak resident set size of this process so far, in bytes. */
inline std::uint64_t
peakRssBytes()
{
    struct rusage ru
    {
    };
    if (getrusage(RUSAGE_SELF, &ru) != 0 || ru.ru_maxrss <= 0)
        return 0;
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024; // Linux: KiB
}

/**
 * A "bypassd-bench-v1" document. Each scenario is a flat object of raw
 * JSON tokens, so tools/perf_report can diff any two files, whichever
 * binary wrote them (perf_harness, the figure and fabric benches,
 * trace_replay).
 */
struct BenchJson
{
    struct Scenario
    {
        std::string name;
        std::vector<std::pair<std::string, std::string>> fields;

        /** The raw token stored under @p k ("" when absent). */
        std::string
        get(const std::string &k) const
        {
            for (const auto &[key, v] : fields)
                if (key == k)
                    return v;
            return "";
        }
    };
    std::vector<Scenario> scenarios;

    Scenario &
    add(const std::string &name)
    {
        scenarios.push_back({name, {}});
        return scenarios.back();
    }

    static void
    field(Scenario &sc, const std::string &k, std::uint64_t v)
    {
        sc.fields.emplace_back(
            k, std::to_string(static_cast<unsigned long long>(v)));
    }

    /** Fixed-point field with @p digits decimals (host timings: 6). */
    static void
    fieldF(Scenario &sc, const std::string &k, double v, int digits = 3)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.*f", digits, v);
        sc.fields.emplace_back(k, buf);
    }

    /** The scenario digest as a quoted 16-hex-digit string. */
    static void
    digest(Scenario &sc, std::uint64_t h)
    {
        char buf[24];
        std::snprintf(buf, sizeof buf, "\"%016llx\"",
                      static_cast<unsigned long long>(h));
        sc.fields.emplace_back("digest", buf);
    }

    /**
     * Write the document. The header records the host's CPU count
     * (shard speedup is bounded by it) and @p peakRss, which
     * perf_report's --max-rss-growth budget reads.
     */
    bool
    write(const std::string &path, const std::string &label, bool quick,
          std::uint64_t peakRss) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return false;
        }
        std::fprintf(f, "{\n  \"schema\": \"bypassd-bench-v1\",\n");
        std::fprintf(f, "  \"label\": \"%s\",\n", label.c_str());
        std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
        std::fprintf(f, "  \"host_cpus\": %u,\n",
                     std::thread::hardware_concurrency());
        std::fprintf(f, "  \"peak_rss_bytes\": %llu,\n",
                     static_cast<unsigned long long>(peakRss));
        std::fprintf(f, "  \"scenarios\": [\n");
        for (std::size_t i = 0; i < scenarios.size(); i++) {
            const Scenario &sc = scenarios[i];
            std::fprintf(f, "    {\n      \"name\": \"%s\"",
                         sc.name.c_str());
            for (const auto &[k, v] : sc.fields)
                std::fprintf(f, ",\n      \"%s\": %s", k.c_str(),
                             v.c_str());
            std::fprintf(f, "\n    }%s\n",
                         i + 1 < scenarios.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        const bool ok = std::ferror(f) == 0;
        if (std::fclose(f) != 0 || !ok) {
            std::fprintf(stderr, "error writing %s\n", path.c_str());
            return false;
        }
        std::printf("wrote %s\n", path.c_str());
        return true;
    }
};

} // namespace bpd::bench

#endif // BPD_BENCH_BENCH_JSON_HPP
