#include "recovery.hh"

#include <algorithm>
#include <map>

#include "sim/logging.hh"

namespace proteus {

namespace {

bool
isAllZero(const std::uint8_t *bytes, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (bytes[i] != 0)
            return false;
    }
    return true;
}

/**
 * The bytes of the log slot at @p slot, read in place from its page,
 * or null when that page was never written: the slot then reads as
 * zero, which is neither a record nor torn. A slot straddling two
 * pages (an area not aligned to logEntrySize) is copied into @p buf.
 */
const std::uint8_t *
slotBytes(const MemoryImage &image, Addr slot,
          std::uint8_t (&buf)[logEntrySize])
{
    const std::size_t off = slot & (MemoryImage::pageBytes - 1);
    if (off + logEntrySize > MemoryImage::pageBytes) {
        image.read(slot, buf, logEntrySize);
        return buf;
    }
    const std::uint8_t *page =
        image.pageData(slot >> MemoryImage::pageBits);
    return page ? page + off : nullptr;
}

} // namespace

Recovery::LogScan
Recovery::scanLogContiguous(const MemoryImage &image, Addr log_start,
                            Addr log_end)
{
    LogScan scan;
    for (Addr slot = log_start; slot + logEntrySize <= log_end;
         slot += logEntrySize) {
        ++scan.slotsScanned;
        // The media ECC verdict outranks the parse: a poisoned slot may
        // still decode as a plausible record, and replaying it would
        // inject garbage. The writer fills this area contiguously, so
        // the scan stops here either way.
        if (image.isPoisoned(slot)) {
            scan.truncated = true;
            scan.poisonedSlots = 1;
            scan.firstPoisonedSlot = slot;
            break;
        }
        std::uint8_t buf[logEntrySize];
        const std::uint8_t *bytes = slotBytes(image, slot, buf);
        if (bytes == nullptr)
            break;              // a virgin page: the clean end
        const LogRecord rec = LogRecord::fromBytes(bytes);
        if (!rec.valid()) {
            // First invalid slot: the writer fills this area from the
            // base, so nothing live can follow. A nonzero slot is a
            // torn record — report, never parse past it.
            if (!isAllZero(bytes, logEntrySize)) {
                scan.truncated = true;
                scan.tornSlot = slot;
                scan.tornSlots = 1;
            }
            break;
        }
        scan.records.push_back(rec);
    }
    return scan;
}

Recovery::LogScan
Recovery::scanLogSparse(const MemoryImage &image, Addr log_start,
                        Addr log_end)
{
    LogScan scan;
    for (Addr slot = log_start; slot + logEntrySize <= log_end;
         slot += logEntrySize) {
        ++scan.slotsScanned;
        // Poison outranks the parse (see scanLogContiguous); in the
        // circular areas valid records may follow holes, so classify
        // the slot and keep scanning.
        if (image.isPoisoned(slot)) {
            ++scan.poisonedSlots;
            if (scan.firstPoisonedSlot == invalidAddr)
                scan.firstPoisonedSlot = slot;
            continue;
        }
        std::uint8_t buf[logEntrySize];
        const std::uint8_t *bytes = slotBytes(image, slot, buf);
        if (bytes == nullptr)
            continue;           // on a page nobody wrote: a hole
        const LogRecord rec = LogRecord::fromBytes(bytes);
        if (rec.valid()) {
            scan.records.push_back(rec);
        } else if (!isAllZero(bytes, logEntrySize)) {
            ++scan.tornSlots;
            if (scan.tornSlot == invalidAddr)
                scan.tornSlot = slot;
        }
    }
    return scan;
}

std::vector<LogRecord>
Recovery::scanLog(const MemoryImage &image, Addr log_start, Addr log_end)
{
    return scanLogSparse(image, log_start, log_end).records;
}

std::uint64_t
Recovery::undo(MemoryImage &image, const std::vector<LogRecord> &records)
{
    // Recovery must restore the *pre-transaction* value: when several
    // entries cover the same granule (LLT miss after eviction, or a
    // rescheduled thread), only the earliest in program order is
    // authoritative (Section 4.2).
    std::map<Addr, const LogRecord *> earliest;
    for (const LogRecord &rec : records) {
        auto [it, inserted] = earliest.emplace(rec.fromAddr, &rec);
        if (!inserted && rec.seq < it->second->seq)
            it->second = &rec;
    }
    for (const auto &[addr, rec] : earliest)
        image.write(addr, rec->data.data(), logDataSize);
    return earliest.size();
}

RecoveryResult
Recovery::recoverProteus(MemoryImage &image, Addr log_start, Addr log_end)
{
    RecoveryResult result;
    const LogScan scan = scanLogSparse(image, log_start, log_end);
    const auto &records = scan.records;
    result.entriesScanned = records.size();
    result.tornSlot = scan.tornSlot;
    result.tornSlots = scan.tornSlots;
    result.poisonedSlots = scan.poisonedSlots;
    result.firstPoisonedSlot = scan.firstPoisonedSlot;
    if (records.empty())
        return result;

    // Only the most recent transaction's entries are live: txIds are
    // monotonic within a thread (Section 4.3).
    TxId newest = 0;
    for (const LogRecord &rec : records)
        newest = std::max(newest, rec.txId);

    std::vector<LogRecord> live;
    bool committed = false;
    for (const LogRecord &rec : records) {
        if (rec.txId != newest)
            continue;
        live.push_back(rec);
        if (rec.committed())
            committed = true;
    }
    if (committed)
        return result;

    result.didUndo = true;
    result.undoneTx = newest;
    result.entriesApplied = undo(image, live);
    return result;
}

RecoveryResult
Recovery::recoverAtom(MemoryImage &image, Addr area_start, Addr area_end)
{
    RecoveryResult result;
    const TxId committed = image.read64(area_start);
    const LogScan scan =
        scanLogSparse(image, area_start + logEntrySize, area_end);
    const auto &records = scan.records;
    result.entriesScanned = records.size();
    result.tornSlot = scan.tornSlot;
    result.tornSlots = scan.tornSlots;
    result.poisonedSlots = scan.poisonedSlots;
    result.firstPoisonedSlot = scan.firstPoisonedSlot;

    std::vector<LogRecord> live;
    TxId newest = 0;
    for (const LogRecord &rec : records) {
        if (rec.txId > committed) {
            live.push_back(rec);
            newest = std::max(newest, rec.txId);
        }
    }
    if (live.empty())
        return result;

    result.didUndo = true;
    result.undoneTx = newest;
    result.entriesApplied = undo(image, live);
    return result;
}

RecoveryResult
Recovery::recoverSoftware(MemoryImage &image, Addr log_start,
                          Addr log_end, Addr log_flag_addr)
{
    RecoveryResult result;
    const TxId flagged = image.read64(log_flag_addr);
    if (flagged == 0)
        return result;  // no transaction was between steps 2 and 4

    // The software logger rewrites the area from its base every
    // transaction, so the scan stops at the first invalid slot rather
    // than parsing whatever stale bytes lie beyond a torn record.
    const LogScan scan = scanLogContiguous(image, log_start, log_end);
    const auto &records = scan.records;
    result.entriesScanned = records.size();
    result.truncatedTail = scan.truncated;
    result.tornSlot = scan.tornSlot;
    result.tornSlots = scan.tornSlots;
    result.poisonedSlots = scan.poisonedSlots;
    result.firstPoisonedSlot = scan.firstPoisonedSlot;

    std::vector<LogRecord> live;
    for (const LogRecord &rec : records) {
        if (rec.txId == flagged)
            live.push_back(rec);
    }
    result.didUndo = true;
    result.undoneTx = flagged;
    result.entriesApplied = undo(image, live);
    image.write64(log_flag_addr, 0);
    return result;
}

} // namespace proteus
