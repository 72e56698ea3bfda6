/**
 * @file
 * proteus-trace: record, inspect, and verify .ptrace trace snapshots.
 *
 *   proteus-trace record <workload> --out FILE [options]
 *   proteus-trace info   <file.ptrace>
 *   proteus-trace verify <file.ptrace>
 *
 * A recorded snapshot replays with proteus-sim replay (or any code
 * using loadTraceBundle) and produces bit-identical RunResults to
 * rebuilding the traces in-process — the round-trip tests assert this
 * for every scheme.
 */

#include <iostream>
#include <string>
#include <vector>

#include "harness/experiments.hh"
#include "harness/trace_io.hh"
#include "sim/logging.hh"

using namespace proteus;

namespace {

/** Record @p key's traces (with the oracle write history if asked)
 *  and save them to @p out. */
int
cmdRecord(const TraceBundleKey &key, const std::string &out,
          bool withHistory)
{
    if (out.empty())
        fatal("record requires --out FILE");
    std::cout << "recording " << key.describe() << "...\n";
    const auto bundle = TraceBundle::build(key, withHistory);
    saveTraceBundle(*bundle, out);

    const PtraceFileInfo info = inspectTraceFile(out);
    std::cout << "wrote " << out << " (" << info.fileBytes << " bytes, "
              << bundle->totalOps() << " micro-ops, "
              << bundle->totalTxs() << " transactions, "
              << (bundle->history ? bundle->history->events().size()
                                  : 0)
              << " history events)\n";
    return 0;
}

int
cmdInfo(const std::string &path)
{
    const PtraceFileInfo info = inspectTraceFile(path);
    std::cout << path << ": ptrace v" << info.version << ", "
              << info.fileBytes << " bytes\n"
              << "key:        " << info.key.describe() << "\n"
              << "micro-ops:  " << info.totalOps << "\n"
              << "payloads:   " << info.totalPayloads << "\n"
              << "txs:        " << info.totalTxs << "\n"
              << "vol pages:  " << info.volatilePages << "\n"
              << "nvm pages:  " << info.nvmPages << "\n"
              << "locks:      " << info.lockCount << "\n"
              << "history:    " << info.historyEvents << " events\n"
              << "sections:\n";
    bool all_ok = true;
    for (const PtraceSectionInfo &s : info.sections) {
        std::cout << "  " << s.tag << "  " << s.bytes << " bytes  crc "
                  << (s.crcOk ? "ok" : "MISMATCH") << "\n";
        all_ok = all_ok && s.crcOk;
    }
    return all_ok ? 0 : 1;
}

int
cmdVerify(const std::string &path)
{
    const std::vector<std::string> problems = verifyTraceFile(path);
    if (problems.empty()) {
        std::cout << path << ": OK\n";
        return 0;
    }
    for (const std::string &p : problems)
        std::cout << path << ": " << p << "\n";
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions size;          // the bench binaries' default size
    SystemConfig cfg = baselineConfig();
    LogScheme scheme = LogScheme::Proteus;
    WorkloadExtras extras;
    std::string out;
    bool withHistory = false;

    using namespace cli;
    return dispatch(argc, argv, {
        {"record", {"<workload>"},
         "execute the workload functionally and save its traces",
         {{text("--out", "FILE", "output path (required)", out),
           schemeOption(scheme),
           flag("--with-history",
                "also record the replayable write history (crash oracle)",
                withHistory),
           number("--log-area-bytes", "N",
                  "per-thread log area size in bytes",
                  cfg.logging.logAreaBytes),
           number("--elements-per-node", "N",
                  "linked-list elements per node (LL only)",
                  extras.ll.elementsPerNode)},
          sizeOptions(size.scale, size.initScale, size.threads, size.seed),
          specOptions(size.wlSpec, size.wlSpecFile)},
         [&](const std::vector<std::string> &args) {
             extras.gen = size.genSpec();
             return cmdRecord(runKey(size, cfg, parseWorkload(args[0]),
                                     scheme, extras),
                              out, withHistory);
         }},
        {"info", {"<file>"},
         "print a snapshot's header, sections, and counters", {},
         [](const std::vector<std::string> &args) {
             return cmdInfo(args[0]);
         }},
        {"verify", {"<file>"}, "CRC-check and cross-validate a snapshot",
         {},
         [](const std::vector<std::string> &args) {
             return cmdVerify(args[0]);
         }},
    });
}
