/** @file Unit tests for configuration and overrides. */

#include <gtest/gtest.h>

#include <string>

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
    // Drain thresholds are occupancy fractions: a negative one would
    // wrap when scaled to a queue size, one above 1 never drains.
    for (const char *key :
         {"memCtrl.wpqDrainThreshold", "memCtrl.lpqDrainThreshold"}) {
        for (const char *bad : {"-1", "5"}) {
            const std::string spec = std::string(key) + "=" + bad;
            try {
                cfg.applyOverride(spec);
                ADD_FAILURE() << spec << " was accepted";
            } catch (const FatalError &e) {
                EXPECT_NE(std::string(e.what()).find(key),
                          std::string::npos)
                    << e.what();
            }
        }
    }
    EXPECT_EQ(cfg.memCtrl.wpqDrainThreshold,
              baselineConfig().memCtrl.wpqDrainThreshold);
    EXPECT_EQ(cfg.memCtrl.lpqDrainThreshold,
              baselineConfig().memCtrl.lpqDrainThreshold);
    EXPECT_EQ(cfg.logging.logQEntries, baselineConfig().logging.logQEntries);
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
