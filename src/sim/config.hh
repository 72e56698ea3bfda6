/**
 * @file
 * System configuration structures. Default values reproduce Table 1 of
 * the paper (Skylake-like quad-core, DDR3-1600, NVM latency overrides)
 * and the Proteus structure sizes (8 LRs, 16-entry LogQ, 64-entry 8-way
 * LLT, 256-entry LPQ).
 */

#ifndef PROTEUS_SIM_CONFIG_HH
#define PROTEUS_SIM_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "faults/fault_config.hh"
#include "types.hh"

namespace proteus {

/**
 * Logging scheme under evaluation; matches the bars of Figure 6.
 */
enum class LogScheme
{
    PMEM,           ///< software undo logging, ADR (baseline of Fig. 6)
    PMEMPCommit,    ///< software undo logging with pcommit (no ADR)
    PMEMNoLog,      ///< logging removed entirely (the ideal upper bound)
    ATOM,           ///< hardware undo logging at store retirement [19]
    Proteus,        ///< SSHL with log write removal (this paper)
    ProteusNoLWR,   ///< SSHL without log write removal
};

/** @return a short printable name, e.g. "Proteus+NoLWR". */
const char *toString(LogScheme scheme);

/** Parse a scheme name (case-insensitive); throws FatalError if unknown. */
LogScheme parseScheme(const std::string &name);

/** Every scheme, in declaration order. */
std::vector<LogScheme> allSchemes();

/** Parse a comma list of scheme names, or "all"; throws FatalError on
 *  an unknown name or an empty list. */
std::vector<LogScheme> parseSchemes(const std::string &list);

/** @return true if the scheme uses software-generated logging code. */
bool isSoftwareScheme(LogScheme scheme);

/** Out-of-order core parameters (Table 1, "Processor" row). */
struct CpuConfig
{
    unsigned fetchWidth = 5;
    unsigned dispatchWidth = 5;
    unsigned issueWidth = 5;
    unsigned retireWidth = 5;
    unsigned robEntries = 224;
    unsigned fetchQueueEntries = 48;
    unsigned issueQueueEntries = 64;
    unsigned loadQueueEntries = 72;
    unsigned storeQueueEntries = 56;
    unsigned storeBufferEntries = 56;   ///< post-retirement store buffer
    unsigned intAluCount = 4;
    unsigned intMulCount = 1;
    unsigned memPortCount = 2;          ///< loads/stores issued per cycle
    unsigned intAluLatency = 1;
    unsigned intMulLatency = 3;
    unsigned branchMispredictPenalty = 14;
    unsigned branchPredictorBits = 12;  ///< gshare table = 2^bits entries
    unsigned physIntRegs = 180;         ///< physical integer registers
};

/** One cache level. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned ways = 8;
    unsigned latency = 4;       ///< access (hit) latency in cycles
    unsigned mshrs = 16;
    unsigned writebackBuffers = 16;
};

/** Whole memory-hierarchy shape (Table 1 cache rows). */
struct HierarchyConfig
{
    CacheConfig l1d{32 * 1024, 8, 4, 16, 16};
    CacheConfig l2{256 * 1024, 8, 12, 24, 24};
    CacheConfig l3{8 * 1024 * 1024, 16, 42, 48, 48};
    /** L3-to-MC link width in bytes per CPU cycle (Table 1). */
    unsigned l3ToMcBytesPerCycle = 16;
};

/**
 * DRAM timing (Table 1): DDR3-1600 at 800 MHz with a 3.4 GHz core. All
 * parameters are expressed in *memory* clock cycles and converted with
 * cpuPerMemCycle. NVM mode overrides tRCD per direction, following the
 * paper (50 ns read / 150 ns write at 800 MHz = 29 / 109 memory cycles).
 */
struct MemTimingConfig
{
    bool nvmMode = true;
    double cpuPerMemCycle = 4.25;   ///< 3.4 GHz / 800 MHz

    unsigned banks = 16;
    unsigned rowBufferBytes = 2048;
    std::uint64_t capacityBytes = 8ull << 30;

    unsigned tCAS = 11;
    unsigned tRCD = 11;
    unsigned tRP = 11;
    unsigned tRAS = 28;
    unsigned tRC = 39;
    unsigned tWR = 12;
    unsigned tWTR = 6;
    unsigned tRTP = 6;
    unsigned tRRD = 5;
    unsigned tFAW = 24;
    unsigned tBurst = 4;            ///< data-bus occupancy per 64B access

    unsigned nvmReadTRCD = 29;      ///< ~50 ns at 800 MHz
    unsigned nvmWriteTRCD = 109;    ///< ~150 ns at 800 MHz
};

/** Memory-controller queues and the persistency domain boundary. */
struct MemCtrlConfig
{
    unsigned readQueueEntries = 64;
    unsigned wpqEntries = 64;
    unsigned lpqEntries = 256;      ///< Proteus LPQ (Table 1)
    /**
     * ADR: WPQ/LPQ are battery-backed and inside the persistency domain,
     * so writes are durable on queue acceptance. When false, durability
     * requires NVM writeback and pcommit drains the WPQ (PMEM+pcommit).
     */
    bool adr = true;
    /** Drain regular writes when WPQ occupancy exceeds this fraction. */
    double wpqDrainThreshold = 0.5;
    /** Drain log writes when LPQ occupancy exceeds this fraction
     *  (Proteus keeps logs queued as long as possible). */
    double lpqDrainThreshold = 0.9;
};

/** Proteus / ATOM hardware structure sizes (Table 1, "Proteus" row). */
struct LoggingConfig
{
    LogScheme scheme = LogScheme::Proteus;
    unsigned logRegisters = 8;
    unsigned logQEntries = 16;
    unsigned lltEntries = 64;
    unsigned lltWays = 8;
    /** Per-thread circular log area size in bytes. */
    std::uint64_t logAreaBytes = 1ull << 20;
    /** ATOM: hardware log-truncation resource count; beyond this the MC
     *  falls back to manual one-by-one invalidation (Section 4.3). */
    unsigned atomTruncationEntries = 64;
};

/**
 * Observability hooks: interval stats sampling and trace-event output.
 * Both are off by default and cost nothing when off. Paths are per-run;
 * the parallel runner derives per-job file names for multi-job batches.
 */
struct ObservabilityConfig
{
    Tick statsInterval = 0;         ///< cycles between samples; 0 = off
    std::string statsOut;           ///< interval time-series file
    std::string traceEvents;        ///< Chrome Trace Event JSON file
    unsigned traceCategories = 0x1f;    ///< TraceCategory mask
    /** Trace ring-buffer capacity in events (oldest dropped beyond). */
    std::uint64_t traceRingEntries = 1ull << 18;
    /** Transaction flight-recorder output file ("" = recorder off
     *  unless txTrack forces it on). */
    std::string txStats;
    /** Run the flight recorder without writing a file (the parallel
     *  runner enables this and collects summaries in memory so a batch
     *  writes one combined file in submission order). */
    bool txTrack = false;
    /** Full event timelines retained for the K slowest transactions. */
    std::uint64_t txSlowest = 8;
};

/**
 * The online persistency-order checker (src/analysis/). Off by default
 * and entirely off the hot path when disabled: no checker object is
 * built and every instrumented site is a single null-pointer test.
 */
struct AnalysisConfig
{
    /** Build and attach the PersistChecker for this run. */
    bool check = false;
    /**
     * Mutation self-test: perturb the event stream targeting this rule
     * index (analysis::Rule) so the checker must flag it; -1 = off.
     */
    int mutateRule = -1;
    /** Seed selecting which qualifying edge the mutation hits. */
    std::uint64_t mutateSeed = 1;
    /** One-command repro line carried into violation reports. */
    std::string repro;
};

/** Top-level system description. */
struct SystemConfig
{
    unsigned cores = 4;
    CpuConfig cpu;
    HierarchyConfig caches;
    MemTimingConfig mem;
    MemCtrlConfig memCtrl;
    LoggingConfig logging;
    ObservabilityConfig obs;
    /** NVM media fault injection; disabled (all-zero rates) by default,
     *  in which case the MC builds no fault model and behavior is
     *  bit-identical to a faultless build. */
    faults::FaultConfig faults;
    /** Persistency-order checker wiring (src/analysis/). */
    AnalysisConfig analysis;
    std::uint64_t seed = 1;
    /**
     * Quiescence-driven cycle skipping in the simulation kernel. On by
     * default; results are bit-identical either way (the skip protocol
     * is observationally invisible), so this exists only as an escape
     * hatch and for A/B timing (`--no-cycle-skip`).
     */
    bool cycleSkip = true;

    /**
     * Apply a "key=value" override, e.g. "logging.logQEntries=8" or
     * "mem.nvmWriteTRCD=218". Throws FatalError on unknown keys.
     */
    void applyOverride(const std::string &spec);

    /**
     * The config gate: throw FatalError, naming the `--set` key (and
     * the scheme where the rule is scheme-specific), unless this config
     * can run under @p scheme. The LLT, LogQ, LPQ and log-register
     * rules bind only the Proteus schemes; the others build those parts
     * but never use them. runKey and FullSystem's wiring call it, so no
     * component re-checks a config value.
     */
    void validate(LogScheme scheme) const;
};

/** @return the Table 1 baseline configuration (fast NVM). */
SystemConfig baselineConfig();

/** @return Table 1 with slow NVM writes (300 ns, Section 7.1). */
SystemConfig slowNvmConfig();

/** @return Table 1 with plain DRAM timing (NVDIMM study, Section 7.2). */
SystemConfig dramConfig();

} // namespace proteus

#endif // PROTEUS_SIM_CONFIG_HH
