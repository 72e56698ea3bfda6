/** @file Unit tests for configuration and overrides. */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/logging.hh"

using namespace proteus;

TEST(Config, BaselineMatchesTable1)
{
    const SystemConfig cfg = baselineConfig();
    EXPECT_EQ(cfg.cores, 4u);
    EXPECT_EQ(cfg.cpu.robEntries, 224u);
    EXPECT_EQ(cfg.cpu.issueQueueEntries, 64u);
    EXPECT_EQ(cfg.cpu.loadQueueEntries, 72u);
    EXPECT_EQ(cfg.cpu.storeQueueEntries, 56u);
    EXPECT_EQ(cfg.caches.l1d.sizeBytes, 32u * 1024);
    EXPECT_EQ(cfg.caches.l2.sizeBytes, 256u * 1024);
    EXPECT_EQ(cfg.caches.l3.sizeBytes, 8u * 1024 * 1024);
    EXPECT_EQ(cfg.caches.l3.ways, 16u);
    EXPECT_TRUE(cfg.mem.nvmMode);
    EXPECT_EQ(cfg.mem.nvmReadTRCD, 29u);
    EXPECT_EQ(cfg.mem.nvmWriteTRCD, 109u);
    EXPECT_EQ(cfg.logging.logRegisters, 8u);
    EXPECT_EQ(cfg.logging.logQEntries, 16u);
    EXPECT_EQ(cfg.logging.lltEntries, 64u);
    EXPECT_EQ(cfg.logging.lltWays, 8u);
    EXPECT_EQ(cfg.memCtrl.lpqEntries, 256u);
    EXPECT_TRUE(cfg.memCtrl.adr);
}

TEST(Config, SlowNvmPreset)
{
    const SystemConfig cfg = slowNvmConfig();
    EXPECT_EQ(cfg.mem.nvmWriteTRCD, 240u);   // 300 ns at 800 MHz
    EXPECT_EQ(cfg.mem.nvmReadTRCD, 29u);     // reads unchanged
}

TEST(Config, DramPreset)
{
    const SystemConfig cfg = dramConfig();
    EXPECT_FALSE(cfg.mem.nvmMode);
}

TEST(Config, OverridesApply)
{
    SystemConfig cfg = baselineConfig();
    cfg.applyOverride("logging.logQEntries=8");
    EXPECT_EQ(cfg.logging.logQEntries, 8u);
    cfg.applyOverride("memCtrl.lpqEntries=32");
    EXPECT_EQ(cfg.memCtrl.lpqEntries, 32u);
    cfg.applyOverride("mem.nvmMode=false");
    EXPECT_FALSE(cfg.mem.nvmMode);
    cfg.applyOverride("mem.nvmWriteTRCD=240");
    EXPECT_EQ(cfg.mem.nvmWriteTRCD, 240u);
    // Drain thresholds take both ends of [0, 1].
    cfg.applyOverride("memCtrl.wpqDrainThreshold=0");
    EXPECT_EQ(cfg.memCtrl.wpqDrainThreshold, 0.0);
    cfg.applyOverride("memCtrl.lpqDrainThreshold=1");
    EXPECT_EQ(cfg.memCtrl.lpqDrainThreshold, 1.0);
}

TEST(Config, BadOverridesFatal)
{
    SystemConfig cfg = baselineConfig();
    EXPECT_THROW(cfg.applyOverride("nonsense"), FatalError);
    EXPECT_THROW(cfg.applyOverride("unknown.key=1"), FatalError);
    EXPECT_THROW(cfg.applyOverride("cpu.robEntries=abc"), FatalError);
    EXPECT_THROW(cfg.applyOverride("mem.nvmMode=maybe"), FatalError);
    // Numbers are checked like flags: no trailing text, sign, wrap or
    // truncation to the field's width.
    EXPECT_THROW(cfg.applyOverride("logging.logQEntries=8x"), FatalError);
    EXPECT_THROW(cfg.applyOverride("logging.atomTruncationEntries=-1"),
                 FatalError);
    EXPECT_THROW(cfg.applyOverride("cpu.robEntries=4294967296"),
                 FatalError);
    EXPECT_THROW(cfg.applyOverride("memCtrl.wpqDrainThreshold=0.5x"),
                 FatalError);
    EXPECT_THROW(cfg.applyOverride("faults.tornWriteRate=nan"),
                 FatalError);
    EXPECT_EQ(cfg.logging.logQEntries, baselineConfig().logging.logQEntries);
}

TEST(Config, ValidateNamesTheKey)
{
    const std::vector<LogScheme> every = allSchemes();
    const std::vector<LogScheme> proteusOnly = {LogScheme::Proteus,
                                                LogScheme::ProteusNoLWR};
    struct Case
    {
        const char *key;        ///< must appear in the fatal
        std::function<void(SystemConfig &)> set;
        std::vector<LogScheme> rejecting;
    };
    const std::vector<Case> cases = {
        {"cpu.fetchWidth", [](SystemConfig &c) { c.cpu.fetchWidth = 0; },
         every},
        {"cpu.robEntries", [](SystemConfig &c) { c.cpu.robEntries = 0; },
         every},
        {"cpu.issueQueueEntries",
         [](SystemConfig &c) { c.cpu.issueQueueEntries = 0; }, every},
        {"cpu.loadQueueEntries",
         [](SystemConfig &c) { c.cpu.loadQueueEntries = 0; }, every},
        {"cpu.storeQueueEntries",
         [](SystemConfig &c) { c.cpu.storeQueueEntries = 0; }, every},
        {"cpu.physIntRegs", [](SystemConfig &c) { c.cpu.physIntRegs = 32; },
         every},
        {"cpu.branchPredictorBits",
         [](SystemConfig &c) { c.cpu.branchPredictorBits = 0; }, every},
        {"cpu.branchPredictorBits",
         [](SystemConfig &c) { c.cpu.branchPredictorBits = 30; }, every},
        {"caches.l1d",
         [](SystemConfig &c) { c.caches.l1d = {3 * 64, 1, 4, 8, 8}; }, every},
        {"caches.l2", [](SystemConfig &c) { c.caches.l2.ways = 0; }, every},
        {"caches.l3",
         [](SystemConfig &c) { c.caches.l3.sizeBytes = 3u << 20; }, every},
        {"mem.banks", [](SystemConfig &c) { c.mem.banks = 0; }, every},
        {"mem.cpuPerMemCycle",
         [](SystemConfig &c) { c.mem.cpuPerMemCycle = 0; }, every},
        {"memCtrl.wpqEntries",
         [](SystemConfig &c) { c.memCtrl.wpqEntries = 0; }, every},
        {"memCtrl.wpqDrainThreshold",
         [](SystemConfig &c) { c.memCtrl.wpqDrainThreshold = -1; }, every},
        {"memCtrl.lpqDrainThreshold",
         [](SystemConfig &c) { c.memCtrl.lpqDrainThreshold = 5; }, every},
        {"logging.logAreaBytes",
         [](SystemConfig &c) { c.logging.logAreaBytes = 0; }, every},
        {"logging.logAreaBytes",
         [](SystemConfig &c) { c.logging.logAreaBytes = 1; }, every},
        {"logging.logAreaBytes",
         [](SystemConfig &c) { c.logging.logAreaBytes = 64; },
         {LogScheme::ATOM}},
        {"logging.logRegisters",
         [](SystemConfig &c) { c.logging.logRegisters = 0; }, proteusOnly},
        {"logging.logQEntries",
         [](SystemConfig &c) { c.logging.logQEntries = 0; }, proteusOnly},
        {"memCtrl.lpqEntries",
         [](SystemConfig &c) { c.memCtrl.lpqEntries = 0; }, proteusOnly},
        {"logging.lltEntries",
         [](SystemConfig &c) { c.logging.lltEntries = 0; }, proteusOnly},
        {"logging.lltWays",
         [](SystemConfig &c) { c.logging.lltWays = 0; }, proteusOnly},
        {"logging.lltWays",
         [](SystemConfig &c) {
             c.logging.lltEntries = 9;
             c.logging.lltWays = 2;
         },
         proteusOnly},
        {"faults.tornWriteRate",
         [](SystemConfig &c) { c.faults.tornWriteRate = 5; }, every},
        {"faults.readFlipRate",
         [](SystemConfig &c) { c.faults.readFlipRate = -0.1; }, every},
        {"faults.readFlipBitsMax",
         [](SystemConfig &c) { c.faults.readFlipBitsMax = 0; }, every},
        {"faults.eccCorrectBits",
         [](SystemConfig &c) { c.faults.eccCorrectBits = 9; }, every},
    };

    for (LogScheme scheme : allSchemes())
        EXPECT_NO_THROW(baselineConfig().validate(scheme));
    for (const Case &c : cases) {
        SystemConfig cfg = baselineConfig();
        c.set(cfg);
        for (LogScheme scheme : allSchemes()) {
            SCOPED_TRACE(std::string(c.key) + " under " + toString(scheme));
            if (std::find(c.rejecting.begin(), c.rejecting.end(), scheme) ==
                c.rejecting.end()) {
                // The scheme builds the part but never uses it.
                EXPECT_NO_THROW(cfg.validate(scheme));
                continue;
            }
            try {
                cfg.validate(scheme);
                ADD_FAILURE() << "accepted";
            } catch (const FatalError &e) {
                const std::string msg = e.what();
                EXPECT_NE(msg.find(c.key), std::string::npos) << msg;
                // A scheme-specific rule names the scheme too.
                if (c.rejecting != every) {
                    EXPECT_NE(msg.find(std::string("under ") +
                                       toString(scheme)),
                              std::string::npos)
                        << msg;
                }
            }
        }
    }
}

TEST(Config, SchemeNames)
{
    EXPECT_STREQ(toString(LogScheme::Proteus), "Proteus");
    EXPECT_STREQ(toString(LogScheme::PMEMPCommit), "PMEM+pcommit");
    EXPECT_EQ(parseScheme("proteus"), LogScheme::Proteus);
    EXPECT_EQ(parseScheme("PMEM+NOLOG"), LogScheme::PMEMNoLog);
    EXPECT_EQ(parseScheme("ideal"), LogScheme::PMEMNoLog);
    EXPECT_EQ(parseScheme("nolwr"), LogScheme::ProteusNoLWR);
    EXPECT_THROW(parseScheme("bogus"), FatalError);
}

TEST(Config, SchemeLists)
{
    const std::vector<LogScheme> all = allSchemes();
    ASSERT_EQ(all.size(), 6u);
    EXPECT_EQ(all.front(), LogScheme::PMEM);
    EXPECT_EQ(all.back(), LogScheme::ProteusNoLWR);
    EXPECT_EQ(parseSchemes("all"), all);
    EXPECT_EQ(parseSchemes("pmem,ATOM"),
              (std::vector<LogScheme>{LogScheme::PMEM, LogScheme::ATOM}));
    EXPECT_EQ(parseSchemes("Proteus+NoLWR"),
              std::vector<LogScheme>{LogScheme::ProteusNoLWR});
    EXPECT_THROW(parseSchemes(""), FatalError);
    EXPECT_THROW(parseSchemes(","), FatalError);
    EXPECT_THROW(parseSchemes("pmem,bogus"), FatalError);
}

TEST(Config, SoftwareSchemeClassification)
{
    EXPECT_TRUE(isSoftwareScheme(LogScheme::PMEM));
    EXPECT_TRUE(isSoftwareScheme(LogScheme::PMEMPCommit));
    EXPECT_TRUE(isSoftwareScheme(LogScheme::PMEMNoLog));
    EXPECT_FALSE(isSoftwareScheme(LogScheme::ATOM));
    EXPECT_FALSE(isSoftwareScheme(LogScheme::Proteus));
    EXPECT_FALSE(isSoftwareScheme(LogScheme::ProteusNoLWR));
}
