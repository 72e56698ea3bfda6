#include "tx_stats_io.hh"

#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>

#include "sim/json_util.hh"
#include "sim/logging.hh"

namespace proteus {
namespace obs {

namespace {

/**
 * Deterministic number formatting: every recorded value is a cycle
 * count or a sample count, so almost all doubles here are integral —
 * print those as integers (json::writeNumber's default 6-significant-
 * digit formatting would round large cycle counts). Non-integral
 * values (possible only after counts exceed 2^53) get round-trip
 * precision.
 */
void
num(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
        os << static_cast<long long>(v);
        return;
    }
    std::ostringstream tmp;
    tmp.precision(17);
    tmp << v;
    os << tmp.str();
}

void
writeSlots(std::ostream &os,
           const std::array<std::uint64_t, numTxSlots> &slots)
{
    os << "{";
    for (unsigned s = 0; s < numTxSlots; ++s) {
        if (s)
            os << ", ";
        os << "\"" << slotKey(static_cast<CommitBucket>(s))
           << "\": " << slots[s];
    }
    os << "}";
}

void
writeSnap(std::ostream &os, const TxStageSnap &s)
{
    os << "{\"count\": " << s.count << ", \"sum\": ";
    num(os, s.sum);
    os << ", \"min\": ";
    num(os, s.min);
    os << ", \"max\": ";
    num(os, s.max);
    os << ", \"p50\": ";
    num(os, s.p50);
    os << ", \"p95\": ";
    num(os, s.p95);
    os << ", \"p99\": ";
    num(os, s.p99);
    os << ", \"qhist\": [";
    for (std::size_t i = 0; i < s.qhist.size(); ++i) {
        if (i)
            os << ", ";
        os << "[";
        num(os, s.qhist[i].first);
        os << ", " << s.qhist[i].second << "]";
    }
    os << "]}";
}

void
writeStages(std::ostream &os,
            const std::array<TxStageSnap, numTxStages> &stages)
{
    os << "{";
    for (unsigned s = 0; s < numTxStages; ++s) {
        if (s)
            os << ", ";
        os << "\"" << toString(static_cast<TxStage>(s)) << "\": ";
        writeSnap(os, stages[s]);
    }
    os << "}";
}

void
writeTimeline(std::ostream &os, const TxTimeline &tl)
{
    os << "{\"core\": " << static_cast<unsigned>(tl.core)
       << ", \"tx\": " << tl.tx << ", \"begin\": " << tl.begin
       << ", \"commit\": " << tl.commit
       << ", \"latency\": " << tl.latency << ", \"critPath\": \""
       << slotKey(tl.critPath) << "\", \"slots\": ";
    writeSlots(os, tl.slots);
    os << ", \"events\": [";
    for (std::size_t i = 0; i < tl.events.size(); ++i) {
        const TxEvent &e = tl.events[i];
        if (i)
            os << ", ";
        os << "{\"at\": " << e.at << ", \"kind\": \"" << toString(e.kind)
           << "\", \"arg\": " << e.arg << "}";
    }
    os << "]}";
}

void
writeRow(std::ostream &os, const TxStatsRow &row)
{
    const TxStatsSummary &s = row.summary;
    os << "    {\"scheme\": " << json::quoted(row.scheme)
       << ", \"workload\": " << json::quoted(row.workload)
       << ", \"threads\": " << row.threads
       << ", \"scale\": " << row.scale
       << ", \"initScale\": " << row.initScale
       << ", \"seed\": " << row.seed << ", \"cycles\": " << row.cycles
       << ",\n     \"cpi\": ";
    writeSlots(os, row.cpi);
    os << ",\n     \"counters\": {\"committedTxs\": " << s.committedTxs
       << ", \"rollbacks\": " << s.rollbacks
       << ", \"openTxs\": " << s.openTxs
       << ", \"lockAcquires\": " << s.lockAcquires
       << ", \"logsCreated\": " << s.logsCreated
       << ", \"logsFiltered\": " << s.logsFiltered
       << ", \"logsAcked\": " << s.logsAcked
       << ", \"mcDataQueued\": " << s.mcDataQueued
       << ", \"mcLogQueued\": " << s.mcLogQueued
       << ", \"mcIssued\": " << s.mcIssued
       << ", \"mcDropped\": " << s.mcDropped
       << ", \"nvmPersists\": " << s.nvmPersists
       << ", \"postCommitPersists\": " << s.postCommitPersists << "}";
    if (row.faults.enabled) {
        const faults::FaultStatsSummary &f = row.faults;
        os << ",\n     \"faults\": {\"tornWrites\": " << f.tornWrites
           << ", \"wornWrites\": " << f.wornWrites
           << ", \"readFaults\": " << f.readFaults
           << ", \"eccCorrected\": " << f.eccCorrected
           << ", \"eccDetected\": " << f.eccDetected
           << ", \"silentFaults\": " << f.silentFaults
           << ", \"readRetries\": " << f.readRetries
           << ", \"retryBackoffCycles\": " << f.retryBackoffCycles
           << ", \"retriesExhausted\": " << f.retriesExhausted
           << ", \"poisonedLines\": " << f.poisonedLines << "}";
    }
    os << ",\n     \"slotTotal\": ";
    writeSlots(os, s.slotTotal);
    os << ",\n     \"slotInTx\": ";
    writeSlots(os, s.slotInTx);
    os << ",\n     \"critPath\": ";
    writeSlots(os, s.critPath);
    os << ",\n     \"stages\": ";
    writeStages(os, s.stages);
    os << ",\n     \"cores\": [";
    for (std::size_t c = 0; c < s.cores.size(); ++c) {
        if (c)
            os << ", ";
        writeStages(os, s.cores[c]);
    }
    os << "],\n     \"slowest\": [";
    for (std::size_t i = 0; i < s.slowest.size(); ++i) {
        if (i)
            os << ", ";
        writeTimeline(os, s.slowest[i]);
    }
    os << "]}";
}

} // namespace

void
writeTxStatsJson(std::ostream &os, const std::vector<TxStatsRow> &rows)
{
    os << "{\"version\": 1, \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        writeRow(os, rows[i]);
        os << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    os << "]}\n";
}

void
writeTxStatsCsv(std::ostream &os, const std::vector<TxStatsRow> &rows)
{
    os << "scheme,workload,stage,count,sum,min,max,p50,p95,p99\n";
    for (const TxStatsRow &row : rows) {
        for (unsigned s = 0; s < numTxStages; ++s) {
            const TxStageSnap &snap = row.summary.stages[s];
            os << row.scheme << "," << row.workload << ","
               << toString(static_cast<TxStage>(s)) << ","
               << snap.count << ",";
            num(os, snap.sum);
            os << ",";
            num(os, snap.min);
            os << ",";
            num(os, snap.max);
            os << ",";
            num(os, snap.p50);
            os << ",";
            num(os, snap.p95);
            os << ",";
            num(os, snap.p99);
            os << "\n";
        }
    }
}

void
writeTxStatsFile(const std::string &path,
                 const std::vector<TxStatsRow> &rows)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open --tx-stats output file: ", path);
    const bool csv = path.size() >= 4 &&
                     path.compare(path.size() - 4, 4, ".csv") == 0;
    if (csv)
        writeTxStatsCsv(os, rows);
    else
        writeTxStatsJson(os, rows);
    if (!os.flush())
        fatal("failed writing --tx-stats output file: ", path);
}

} // namespace obs
} // namespace proteus
