#include "nvm_timing.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace proteus {

NvmTiming::NvmTiming(const MemTimingConfig &cfg,
                     stats::StatRegistry &stats, const std::string &name)
    : _cfg(cfg), _banks(cfg.banks),
      _reads(stats, name + ".reads", "memory read accesses"),
      _writes(stats, name + ".writes", "memory write accesses"),
      _rowHits(stats, name + ".rowHits", "row buffer hits"),
      _rowMisses(stats, name + ".rowMisses", "accesses to closed rows"),
      _rowConflicts(stats, name + ".rowConflicts", "row buffer conflicts")
{
    const auto ticks = [&](unsigned mem_cycles) {
        return static_cast<Tick>(
            std::llround(mem_cycles * cfg.cpuPerMemCycle));
    };
    _t = Ticks{ticks(cfg.tCAS), ticks(cfg.tRCD), ticks(cfg.nvmReadTRCD),
               ticks(cfg.nvmWriteTRCD), ticks(cfg.tRP), ticks(cfg.tRAS),
               ticks(cfg.tWR), ticks(cfg.tRTP), ticks(cfg.tRRD),
               ticks(cfg.tFAW), ticks(cfg.tBurst)};
}

unsigned
NvmTiming::bankIndex(Addr addr) const
{
    // XOR-fold the row index into the bank bits (permutation-based
    // interleaving) so distinct hot regions spread across banks.
    const std::uint64_t col_group = addr / _cfg.rowBufferBytes;
    const std::uint64_t row = col_group / _cfg.banks;
    return static_cast<unsigned>((col_group ^ row) % _cfg.banks);
}

std::uint64_t
NvmTiming::rowIndex(Addr addr) const
{
    return addr / (static_cast<std::uint64_t>(_cfg.rowBufferBytes) *
                   _cfg.banks);
}

bool
NvmTiming::bankReady(Addr addr, Tick now) const
{
    return _banks[bankIndex(addr)].readyAt <= now;
}

bool
NvmTiming::rowHit(Addr addr) const
{
    return rowHit(bankIndex(addr), rowIndex(addr));
}

Tick
NvmTiming::reserveActivateSlot(Tick earliest)
{
    // Enforce tRRD between activates and at most four activates per
    // tFAW window. Only activates scheduled at or before the candidate
    // time constrain it: a long NVM activate reserved far in the
    // future must not serialize earlier activates on other banks.
    Tick t = earliest;
    const Tick rrd = _t.rrd;
    const Tick faw = _t.faw;

    bool moved = true;
    while (moved) {
        moved = false;
        Tick last_before = 0;
        unsigned in_faw = 0;
        Tick oldest_in_faw = 0;
        for (Tick a : _recentActivates) {
            if (a > t)
                continue;
            last_before = std::max(last_before, a);
            if (a + faw > t) {
                if (in_faw == 0)
                    oldest_in_faw = a;
                ++in_faw;
            }
        }
        if (last_before != 0 && last_before + rrd > t) {
            t = last_before + rrd;
            moved = true;
        } else if (in_faw >= 4) {
            t = oldest_in_faw + faw;
            moved = true;
        }
    }

    // Keep the window sorted and small.
    auto pos = std::lower_bound(_recentActivates.begin(),
                                _recentActivates.end(), t);
    _recentActivates.insert(pos, t);
    while (_recentActivates.size() > 8)
        _recentActivates.pop_front();
    return t;
}

Tick
NvmTiming::issue(Addr addr, bool is_write, Tick now)
{
    Bank &bank = _banks[bankIndex(addr)];
    const std::uint64_t row = rowIndex(addr);

    if (bank.readyAt > now)
        panic("NvmTiming::issue on a busy bank");
    ++_issues;

    // Row activation latency: in NVM mode this is where the slow cell
    // array shows up, per access direction (Section 5.1).
    const Tick t_rcd = !_cfg.nvmMode ? _t.rcd
        : (is_write ? _t.nvmWriteRcd : _t.nvmReadRcd);

    Tick data_start = now;
    if (bank.rowOpen && bank.openRow == row) {
        // Row-buffer hit: accesses stream at CAS + burst rate.
        ++_rowHits;
        data_start = now + _t.cas;
    } else if (!bank.rowOpen) {
        ++_rowMisses;
        const Tick act = reserveActivateSlot(now);
        bank.activatedAt = act;
        data_start = act + t_rcd + _t.cas;
    } else {
        ++_rowConflicts;
        // Precharge may not start before tRAS since the last activate
        // nor before read-to-precharge / write recovery have elapsed.
        const Tick pre_start = std::max(
            {now, bank.activatedAt + _t.ras, bank.prechargeReadyAt});
        const Tick act = reserveActivateSlot(pre_start + _t.rp);
        bank.activatedAt = act;
        data_start = act + t_rcd + _t.cas;
    }
    bank.rowOpen = true;
    bank.openRow = row;

    // Serialize on the shared data bus.
    data_start = std::max(data_start, _busFreeAt);
    const Tick data_end = data_start + _t.burst;
    _busFreeAt = data_end;

    // CAS commands pipeline: the next column access to the open row
    // may issue one burst after this one, even though its data arrives
    // a full CAS latency later. tWR / tRTP gate only a later precharge.
    bank.readyAt = data_start - _t.cas + _t.burst;
    const Tick to_pre = is_write ? _t.wr : _t.rtp;
    bank.prechargeReadyAt =
        std::max(bank.prechargeReadyAt, data_end + to_pre);

    if (is_write) {
        ++_writes;
        return data_end + _t.wr;
    }
    ++_reads;
    return data_end;
}

std::uint64_t
NvmTiming::totalWrites() const
{
    return static_cast<std::uint64_t>(_writes.value());
}

std::uint64_t
NvmTiming::totalReads() const
{
    return static_cast<std::uint64_t>(_reads.value());
}

} // namespace proteus
