/**
 * @file
 * proteus-trace: record, inspect, and verify .ptrace trace snapshots.
 *
 *   proteus-trace record <workload> --out FILE [--scheme S]
 *                 [--with-history] [--scale N] [--init-scale N]
 *                 [--threads N] [--seed N]
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

#include "harness/trace_bundle.hh"
#include "harness/trace_io.hh"
#include "sim/logging.hh"
#include "sim/parse_number.hh"
#include "workloads/workload.hh"

using namespace proteus;

namespace {

int
usage()
{
    std::cout
        << "usage: proteus-trace <command> [args]\n\n"
        << "commands:\n"
        << "  record <workload>  execute the workload functionally and "
        << "save its traces\n"
        << "  info <file>        print a snapshot's header, sections, "
        << "and counters\n"
        << "  verify <file>      CRC-check and cross-validate a "
        << "snapshot\n\n"
        << "options (record):\n"
        << "  --out FILE         output path (required)\n"
        << "  --scheme S         pmem | pmem+pcommit | pmem+nolog |\n"
        << "                     atom | proteus | proteus+nolwr "
        << "(default proteus)\n"
        << "  --with-history     also record the replayable write "
        << "history (crash oracle)\n"
        << "  --scale N          divide Table 2 SimOps (default 200)\n"
        << "  --init-scale N     divide Table 2 InitOps (default 1)\n"
        << "  --threads N        simulated cores (default 4)\n"
        << "  --seed N           workload RNG seed (default 1)\n"
        << "  --log-area-bytes N per-thread log area size "
        << "(default 1 MiB)\n"
        << "  --elements-per-node N  linked-list elements per node "
        << "(LL only)\n"
        << "  --wl-spec k=v,...  generated-workload spec (workload "
        << "'gen')\n"
        << "  --wl-spec-file F   spec file; --wl-spec overrides on "
        << "top\n";
    return 2;
}

int
cmdRecord(int argc, char **argv)
{
    if (argc < 3) {
        std::cerr << "record requires a workload\n";
        return usage();
    }
    TraceBundleKey key;
    key.kind = parseWorkload(argv[2]);
    key.params.scale = 200;     // the bench binaries' default size
    std::string out;
    std::string wl_spec;
    std::string wl_spec_file;
    bool with_history = false;

    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal(arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--out") {
            out = value();
        } else if (arg == "--scheme") {
            key.scheme = parseScheme(value());
        } else if (arg == "--with-history") {
            with_history = true;
        } else if (arg == "--scale") {
            key.params.scale = parseUnsigned<unsigned>(arg, value());
        } else if (arg == "--init-scale") {
            key.params.initScale = parseUnsigned<unsigned>(arg, value());
        } else if (arg == "--threads") {
            key.params.threads = parseUnsigned<unsigned>(arg, value());
        } else if (arg == "--seed") {
            key.params.seed = parseUnsigned<std::uint64_t>(arg, value());
        } else if (arg == "--log-area-bytes") {
            key.params.logAreaBytes =
                parseUnsigned<std::uint64_t>(arg, value());
        } else if (arg == "--elements-per-node") {
            key.llOpts.elementsPerNode =
                parseUnsigned<unsigned>(arg, value());
        } else if (arg == "--wl-spec") {
            wl_spec = value();
        } else if (arg == "--wl-spec-file") {
            wl_spec_file = value();
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            return usage();
        }
    }
    if (out.empty())
        fatal("record requires --out FILE");
    if (key.params.scale == 0)
        fatal("--scale must be >= 1");
    if (key.params.initScale == 0)
        fatal("--init-scale must be >= 1");
    if (!wl_spec_file.empty())
        key.gen = wlgen::GenSpec::parseFile(wl_spec_file);
    if (!wl_spec.empty())
        key.gen = wlgen::GenSpec::parse(wl_spec, key.gen);

    std::cout << "recording " << key.describe() << "...\n";
    const auto bundle = TraceBundle::build(key, nullptr, with_history);
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
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    try {
        if (command == "record")
            return cmdRecord(argc, argv);
        if ((command == "info" || command == "verify") && argc >= 3)
            return command == "info" ? cmdInfo(argv[2])
                                     : cmdVerify(argv[2]);
        if (command == "--help" || command == "-h")
            return usage();
        std::cerr << "unknown command: " << command << "\n";
        return usage();
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    } catch (const PanicError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
}
