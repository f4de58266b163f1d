/**
 * @file
 * StatGroup serialization and lifecycle: the byte-stable JSON dump
 * (golden-file regression), key escaping, clear() dropping the key
 * set, and the StatCounter handle contract.
 */
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/stats.hpp"

using namespace diag;

namespace
{

StatGroup
sampleGroup()
{
    StatGroup g("diag");
    g.set("activations", 2307);
    g.set("ipc", 1.5);
    g.set("neg_count", -42);
    g.set("pi", 3.14159265358979);
    g.set("zero", 0);
    return g;
}

std::string
dumpJsonOf(const StatGroup &g)
{
    std::ostringstream os;
    g.dumpJson(os);
    return os.str();
}

TEST(StatsJson, MatchesGoldenFileByteForByte)
{
    std::ifstream in(std::string(DIAG_GOLDEN_DIR) + "/stats_dump.json",
                     std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing tests/golden/stats_dump.json";
    std::stringstream want;
    want << in.rdbuf();
    EXPECT_EQ(dumpJsonOf(sampleGroup()), want.str());
}

TEST(StatsJson, ByteStableAcrossDumpsAndInsertionOrder)
{
    const std::string a = dumpJsonOf(sampleGroup());
    // Same counters written in a different order: identical bytes.
    StatGroup g("diag");
    g.set("zero", 0);
    g.set("pi", 3.14159265358979);
    g.set("ipc", 1.5);
    g.set("neg_count", -42);
    g.set("activations", 2307);
    EXPECT_EQ(a, dumpJsonOf(g));
    EXPECT_EQ(a, dumpJsonOf(sampleGroup()));
}

TEST(StatsJson, IntegersRenderWithoutFraction)
{
    StatGroup g("g");
    g.set("count", 123456789.0);
    EXPECT_NE(dumpJsonOf(g).find("\"count\": 123456789}"),
              std::string::npos);
}

TEST(StatsJson, EscapesHostileKeys)
{
    StatGroup g("g");
    g.set("quote\"back\\slash", 1);
    const std::string out = dumpJsonOf(g);
    EXPECT_NE(out.find("quote\\\"back\\\\slash"), std::string::npos);
}

TEST(StatsClear, DropKeysForgetsTheSchema)
{
    StatGroup g = sampleGroup();
    g.clear();
    EXPECT_FALSE(g.has("activations"));
    EXPECT_TRUE(g.all().empty());
    EXPECT_EQ(dumpJsonOf(g),
              "{\"group\": \"diag\", \"counters\": {}}\n");
}

TEST(StatCounter, KeyIsAbsentUntilTheFirstInc)
{
    StatGroup g("g");
    StatCounter c(g, "events");
    EXPECT_FALSE(g.has("events"));
    c.inc();
    EXPECT_TRUE(g.has("events"));
    c.inc(2.5);
    EXPECT_EQ(g.get("events"), 3.5);
    EXPECT_EQ(g.all().size(), 1u);
}

TEST(StatCounter, ReadNeverCreatesTheKey)
{
    StatGroup g("g");
    StatCounter c(g, "events");
    EXPECT_EQ(c.read(), 0.0);
    EXPECT_FALSE(g.has("events"));
    // A value written through the group is visible before binding.
    g.set("events", 7);
    EXPECT_EQ(c.read(), 7.0);
    c.inc();
    EXPECT_EQ(c.read(), 8.0);
}

TEST(StatCounter, RebindsAndCountsFromZeroAfterDroppingKeys)
{
    StatGroup g("g");
    StatCounter c(g, "events");
    c.inc(5);
    g.clear();
    EXPECT_FALSE(g.has("events"));
    EXPECT_EQ(c.read(), 0.0);
    EXPECT_FALSE(g.has("events"));
    c.inc();
    EXPECT_TRUE(g.has("events"));
    EXPECT_EQ(g.get("events"), 1.0);
    EXPECT_EQ(c.read(), 1.0);
}

TEST(StatCounter, KeyBuiltAtRunTimeOutlivesItsSource)
{
    // Components bind "<prefix>.<event>" keys built at construction;
    // the handle keeps its own copy for later re-binds.
    StatGroup g("g");
    std::string prefix = "l1d";
    StatCounter c(g, prefix + ".reads");
    prefix = "overwritten";
    c.inc();
    g.clear();
    c.inc(2);
    EXPECT_EQ(g.get("l1d.reads"), 2.0);
    EXPECT_EQ(g.all().size(), 1u);
}

TEST(StatCounter, TwoHandlesOnOneKeyAddUp)
{
    StatGroup g("g");
    StatCounter a(g, "events");
    StatCounter b(g, "events");
    a.inc();
    b.inc(2);
    a.inc(3);
    g.inc("events", 4);
    EXPECT_EQ(g.get("events"), 10.0);
    EXPECT_EQ(a.read(), 10.0);
    EXPECT_EQ(b.read(), 10.0);
    EXPECT_EQ(g.all().size(), 1u);
}

} // namespace
