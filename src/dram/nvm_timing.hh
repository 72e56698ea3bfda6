/**
 * @file
 * Bank-level main-memory timing model (DRAMSim2-lite).
 *
 * Models per-bank row buffers, activate/precharge/CAS timing, write
 * recovery, activation-window constraints (tRRD/tFAW), and a shared data
 * bus. All external times are CPU ticks; Table 1 parameters are memory
 * cycles converted by cpuPerMemCycle. In NVM mode the row activation
 * time (tRCD) is replaced per access direction with the paper's NVM
 * latencies: 29 memory cycles for reads, 109 for writes (50 ns / 150 ns
 * at 800 MHz); row-buffer hits remain DRAM-fast.
 */

#ifndef PROTEUS_DRAM_NVM_TIMING_HH
#define PROTEUS_DRAM_NVM_TIMING_HH

#include <deque>
#include <vector>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace proteus {

/** Passive bank/bus timing calculator driven by the memory controller. */
class NvmTiming
{
  public:
    NvmTiming(const MemTimingConfig &cfg, stats::StatRegistry &stats,
              const std::string &name);

    /** @return bank index servicing @p addr. */
    unsigned bankIndex(Addr addr) const;

    /** @return row index within the bank for @p addr. */
    std::uint64_t rowIndex(Addr addr) const;

    /** @return true if the bank can accept a command at @p now. */
    bool bankReady(Addr addr, Tick now) const;

    /** @return the tick at which bank @p bank (a bankIndex) accepts its
     *  next command. */
    Tick bankReadyAt(unsigned bank) const { return _banks[bank].readyAt; }

    /** @return true if @p addr hits the currently open row. */
    bool rowHit(Addr addr) const;

    /** @return true if row @p row (a rowIndex) is open in bank @p bank. */
    bool
    rowHit(unsigned bank, std::uint64_t row) const
    {
        return _banks[bank].rowOpen && _banks[bank].openRow == row;
    }

    /**
     * Accesses issued so far. Bank ready times and open rows change
     * only in issue(), so a caller that saw the same count twice knows
     * no bank state changed in between.
     */
    std::uint64_t issueCount() const { return _issues; }

    /**
     * Issue one 64B access. The bank must be ready (bankReady). Returns
     * the tick at which the access completes: data returned for reads,
     * write recovery done for writes.
     */
    Tick issue(Addr addr, bool is_write, Tick now);

    /** Totals used by the Figure 8 write-count study. */
    std::uint64_t totalWrites() const;
    std::uint64_t totalReads() const;

  private:
    struct Bank
    {
        bool rowOpen = false;
        std::uint64_t openRow = 0;
        Tick readyAt = 0;       ///< next command accepted at/after this
        Tick activatedAt = 0;   ///< last activate (for tRAS)
        Tick prechargeReadyAt = 0;  ///< earliest precharge (tWR/tRTP)
    };

    /** The timing parameters in CPU ticks, each rounded once from
     *  memory cycles at construction. */
    struct Ticks
    {
        Tick cas, rcd, nvmReadRcd, nvmWriteRcd, rp, ras, wr, rtp, rrd,
            faw, burst;
    };

    Tick reserveActivateSlot(Tick earliest);

    MemTimingConfig _cfg;
    Ticks _t;
    std::uint64_t _issues = 0;
    std::vector<Bank> _banks;
    Tick _busFreeAt = 0;
    std::deque<Tick> _recentActivates;  ///< for tRRD / tFAW

    stats::Scalar _reads;
    stats::Scalar _writes;
    stats::Scalar _rowHits;
    stats::Scalar _rowMisses;
    stats::Scalar _rowConflicts;
};

} // namespace proteus

#endif // PROTEUS_DRAM_NVM_TIMING_HH
