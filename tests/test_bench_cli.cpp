/**
 * @file
 * bench::Cli, the one command-line parser of the bench binaries: each
 * declared flag set accepts exactly its flags, refusals exit 2, and the
 * generated usage line lists exactly what is accepted; finish() exits 1
 * when an output file cannot be written, and a standalone capture
 * streams the same spans --trace retains.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "obs/json.hpp"

using namespace bpd;
using bench::Cli;

namespace {

/** Parse @p args (without argv[0]) into @p cli; returns its status. */
int
parse(Cli &cli, std::vector<std::string> args)
{
    std::string prog = "bench";
    std::vector<char *> argv{prog.data()};
    for (std::string &a : args)
        argv.push_back(a.data());
    return cli.parse(static_cast<int>(argv.size()), argv.data());
}

struct FlagCase
{
    unsigned flag;
    std::vector<std::string> args; //!< the flag and a valid value
};

const std::vector<FlagCase> kAllFlags = {
    {bench::kQuick, {"--quick"}},
    {bench::kShards, {"--shards", "2"}},
    {bench::kLabel, {"--label", "x"}},
    {bench::kOut, {"--out", "x.json"}},
    {bench::kTrace, {"--trace", "t.json"}},
    {bench::kTraceStream, {"--trace-stream", "s.json"}},
    {bench::kMetrics, {"--metrics", "m.json"}},
    {bench::kTraceLevel, {"--trace-level", "2"}},
};

const unsigned kSets[] = {bench::kObsFlags, bench::kOutFlags,
                          bench::kFleetFlags};

bool
haveDevFull()
{
    std::FILE *f = std::fopen("/dev/full", "w");
    if (f)
        std::fclose(f);
    return f != nullptr;
}

/** Number of "ph":"X" events in the Chrome trace at @p path; -1 if it
 * does not parse. */
long
completeSpans(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return -1;
    std::string text;
    char buf[1 << 14];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    obs::json::Value root;
    std::string err;
    if (!obs::json::parse(text, root, err))
        return -1;
    const obs::json::Value *events = root.find("traceEvents");
    if (!events || !events->isArray())
        return -1;
    long spans = 0;
    for (const obs::json::Value &ev : events->arr) {
        const obs::json::Value *ph = ev.find("ph");
        spans += ph && ph->isString() && ph->str == "X";
    }
    return spans;
}

} // namespace

TEST(BenchCli, EachSetAcceptsExactlyItsFlags)
{
    for (unsigned set : kSets) {
        for (const FlagCase &fc : kAllFlags) {
            Cli cli("b", set);
            const bool member = (set & fc.flag) != 0;
            EXPECT_EQ(parse(cli, fc.args), member ? 0 : 2)
                << "set " << set << " flag " << fc.args[0];
        }
    }
}

TEST(BenchCli, UnknownFlagAndPositionalRefused)
{
    for (unsigned set : kSets) {
        Cli a("b", set);
        EXPECT_EQ(parse(a, {"--bogus"}), 2);
        Cli b("b", set);
        EXPECT_EQ(parse(b, {"positional"}), 2);
    }
}

TEST(BenchCli, MissingValueRefused)
{
    for (const FlagCase &fc : kAllFlags) {
        if (fc.args.size() < 2)
            continue;
        Cli cli("b", fc.flag);
        EXPECT_EQ(parse(cli, {fc.args[0]}), 2) << fc.args[0];
    }
}

TEST(BenchCli, ShardsMustBePositive)
{
    Cli zero("b", bench::kFleetFlags);
    EXPECT_EQ(parse(zero, {"--shards", "0"}), 2);
    Cli junk("b", bench::kFleetFlags);
    EXPECT_EQ(parse(junk, {"--shards", "x"}), 2);
    Cli ok("b", bench::kFleetFlags);
    EXPECT_EQ(parse(ok, {"--shards", "3", "--quick"}), 0);
    EXPECT_EQ(ok.shards, 3u);
    EXPECT_TRUE(ok.quick);
}

TEST(BenchCli, TraceStreamRefusedForFleetAcceptedForObs)
{
    Cli fleet("b", bench::kFleetFlags);
    EXPECT_EQ(parse(fleet, {"--trace-stream", "s.json"}), 2);
    Cli obs("b", bench::kObsFlags);
    EXPECT_EQ(parse(obs, {"--trace-stream", "s.json"}), 0);
    EXPECT_EQ(obs.obs.streamPath, "s.json");
    EXPECT_TRUE(obs.obs.enabled());
}

TEST(BenchCli, ValuesLandInTheirFields)
{
    Cli cli("b", bench::kFleetFlags, "default");
    EXPECT_EQ(cli.label, "default");
    EXPECT_EQ(parse(cli, {"--label", "ci", "--out", "o.json", "--trace",
                          "t.json", "--metrics", "m.json",
                          "--trace-level", "1"}),
              0);
    EXPECT_EQ(cli.label, "ci");
    EXPECT_EQ(cli.out, "o.json");
    EXPECT_EQ(cli.obs.tracePath, "t.json");
    EXPECT_EQ(cli.obs.metricsPath, "m.json");
    EXPECT_EQ(cli.obs.level, obs::Level::Requests);
    EXPECT_FALSE(cli.quick);
    EXPECT_EQ(cli.shards, 1u);
}

TEST(BenchCli, OwnSwitch)
{
    Cli cli("b", bench::kFleetFlags, "local", "--no-admission");
    EXPECT_EQ(parse(cli, {"--no-admission"}), 0);
    EXPECT_TRUE(cli.ownSwitchSet);
    Cli other("b", bench::kFleetFlags);
    EXPECT_EQ(parse(other, {"--no-admission"}), 2);
}

TEST(BenchCli, UsageListsExactlyTheAcceptedFlags)
{
    for (unsigned set : kSets) {
        const Cli cli("prog", set, "local", "--own");
        const std::string u = cli.usage();
        EXPECT_EQ(u.rfind("usage: prog ", 0), 0u) << u;
        std::set<std::string> listed;
        for (std::size_t p = u.find("[--"); p != std::string::npos;
             p = u.find("[--", p + 1)) {
            const std::size_t end = u.find_first_of(" ]", p);
            listed.insert(u.substr(p + 1, end - p - 1));
        }
        std::set<std::string> want{"--own"};
        for (const FlagCase &fc : kAllFlags)
            if (set & fc.flag)
                want.insert(fc.args[0]);
        EXPECT_EQ(listed, want) << u;
    }
}

TEST(BenchCli, FinishFailsWhenAnOutputCannotBeWritten)
{
    if (!haveDevFull())
        GTEST_SKIP() << "no /dev/full on this host";
    bench::BenchJson json;
    bench::BenchJson::field(json.add("s"), "events", 1);
    EXPECT_FALSE(json.write("/dev/full", "x", true, 0));

    Cli out("b", bench::kOutFlags);
    ASSERT_EQ(parse(out, {"--out", "/dev/full"}), 0);
    EXPECT_EQ(out.finish(json), 1);
    Cli metrics("b", bench::kObsFlags);
    ASSERT_EQ(parse(metrics, {"--metrics", "/dev/full"}), 0);
    EXPECT_EQ(metrics.finish(), 1);
    Cli trace("b", bench::kObsFlags);
    ASSERT_EQ(parse(trace, {"--trace", "/dev/full"}), 0);
    EXPECT_EQ(trace.finish(), 1);
}

TEST(BenchCli, StandaloneCaptureStreamsTheRetainedSpans)
{
    // A tracer with no System behind it, as fig5 and table4 use: its
    // spans are retained, and --trace-stream must still receive them.
    sim::EventQueue eq;
    obs::MetricsRegistry reg;
    obs::Tracer tr(eq, obs::Level::Device, &reg);
    const std::uint16_t track = tr.track("ats");
    Time at = 0;
    for (std::uint64_t n = 1; n <= 5; n++) {
        obs::RequestBreakdown b;
        b.translateNs = 100 * n;
        tr.request(track, "ats.translate", 0, at, at + b.translateNs, b);
        tr.span(tr.track("iommu"), "iommu.walk", 0, at, at + 50);
        at += b.translateNs;
    }
    tr.instant(track, "ats.done", 0);

    const std::string dir = ::testing::TempDir();
    const std::string retained = dir + "bpd_standalone_trace.json";
    const std::string streamed = dir + "bpd_standalone_stream.json";
    Cli cli("b", bench::kObsFlags);
    ASSERT_EQ(parse(cli, {"--trace", retained, "--trace-stream", streamed}),
              0);
    cli.obs.captureStandalone("standalone", tr, eq, reg);
    ASSERT_EQ(cli.finish(), 0);

    EXPECT_EQ(completeSpans(retained), 10);
    EXPECT_EQ(completeSpans(streamed), 10);
    std::remove(retained.c_str());
    std::remove(streamed.c_str());
}
