/**
 * @file
 * Kernel micro-benchmark: wall-clock cost of Simulator::run() over
 * idle-heavy vs. busy-heavy synthetic activity traces, with
 * quiescence-driven cycle skipping on and off.
 *
 * Each scenario drives a handful of synthetic devices that alternate
 * between a busy span (ticked work) and an idle span (waiting on a
 * self-scheduled event), the same shape as cores stalled on persist
 * ordering while the memory controller waits on a completion event.
 * Results land in BENCH_kernel.json (one row per scenario x mode) so
 * the kernel's perf trajectory is tracked across PRs. The benchmark
 * also cross-checks that per-cycle accounting and device work are
 * bit-identical between the two modes and fails loudly if not.
 */

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "harness/options.hh"
#include "sim/simulator.hh"

using namespace proteus;

namespace {

/**
 * A device following a fixed busy/idle activity trace: tick busySpan
 * cycles of work, then sleep idleSpan cycles on a self-scheduled wake
 * event, repeat. observedCycles counts every cycle the device lived
 * through (ticked or skipped) and must equal sim.now() at the end in
 * both modes — the micro-scale version of the invisibility invariant.
 */
class SyntheticDevice : public Ticked
{
  public:
    SyntheticDevice(Simulator &sim, const std::string &name,
                    Tick busySpan, Tick idleSpan, Tick startDelay)
        : _sim(sim), _name(name), _busySpan(busySpan),
          _idleSpan(idleSpan)
    {
        if (startDelay == 0)
            _busyLeft = _busySpan;
        else
            _sim.schedule(startDelay, [this]() { _busyLeft = _busySpan; });
    }

    void
    tick(Tick) override
    {
        ++observedCycles;
        if (_busyLeft == 0)
            return;
        ++work;
        if (--_busyLeft == 0)
            _sim.schedule(_idleSpan, [this]() { _busyLeft = _busySpan; });
    }

    Tick
    nextWake(Tick now) override
    {
        // Busy: can't skip. Idle: progress requires the wake event, and
        // the kernel never skips past a scheduled event, so report
        // "never" rather than predicting the event tick ourselves.
        return _busyLeft > 0 ? now : maxTick;
    }

    void
    accountSkipped(Tick from, Tick to) override
    {
        observedCycles += to - from;
    }

    const std::string &componentName() const override { return _name; }

    std::uint64_t observedCycles = 0;
    std::uint64_t work = 0;

  private:
    Simulator &_sim;
    std::string _name;
    Tick _busySpan;
    Tick _idleSpan;
    Tick _busyLeft = 0;
};

struct Scenario
{
    std::string name;
    Tick busySpan;
    Tick idleSpan;
};

struct Row
{
    std::string scenario;
    bool cycleSkip;
    double wallMs;
    std::uint64_t simCycles;
    std::uint64_t kernelSteps;
    std::uint64_t skippedCycles;
    std::uint64_t work;
};

Row
runScenario(const Scenario &sc, bool cycleSkip, Tick cycles,
            unsigned devices)
{
    Simulator sim;
    sim.setCycleSkip(cycleSkip);
    std::vector<std::unique_ptr<SyntheticDevice>> devs;
    for (unsigned i = 0; i < devices; ++i) {
        // Stagger starts so devices are not lockstep-aligned; global
        // idle then requires genuinely overlapping idle spans.
        devs.push_back(std::make_unique<SyntheticDevice>(
            sim, sc.name + ".dev" + std::to_string(i), sc.busySpan,
            sc.idleSpan, i * (sc.busySpan + 1)));
        sim.addTicked(devs.back().get());
    }

    const auto start = std::chrono::steady_clock::now();
    sim.run(cycles);
    const auto stop = std::chrono::steady_clock::now();

    Row row;
    row.scenario = sc.name;
    row.cycleSkip = cycleSkip;
    row.wallMs = std::chrono::duration<double, std::milli>(stop - start)
                     .count();
    row.simCycles = sim.now();
    row.kernelSteps = sim.kernelSteps();
    row.skippedCycles = sim.skippedCycles();
    row.work = 0;
    for (const auto &d : devs) {
        row.work += d->work;
        if (d->observedCycles != sim.now()) {
            std::cerr << "FAIL: " << d->componentName() << " observed "
                      << d->observedCycles << " cycles, kernel ran to "
                      << sim.now() << "\n";
            std::exit(1);
        }
    }
    return row;
}

void
writeJson(const std::string &path, const std::vector<Row> &rows)
{
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        out << "  {\"scenario\": \"" << r.scenario << "\", "
            << "\"cycleSkip\": " << (r.cycleSkip ? "true" : "false")
            << ", \"wallMs\": " << std::fixed << std::setprecision(3)
            << r.wallMs << ", \"simCycles\": " << r.simCycles
            << ", \"kernelSteps\": " << r.kernelSteps
            << ", \"skippedCycles\": " << r.skippedCycles << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "]\n";
}

} // namespace

int
main(int argc, char **argv)
{
    return cli::run([&] {
        Tick cycles = 20'000'000;
        unsigned devices = 4;
        std::string jsonPath = "BENCH_kernel.json";
        cli::OptionTable(cli::programName(argv[0]) + " [options]")
            .add(cli::number("--cycles", "N", "simulated cycles per run",
                             cycles))
            .add(cli::number("--devices", "N", "synthetic devices",
                             devices))
            .add(cli::text("--json", "FILE", "results as JSON", jsonPath))
            .parse(argc, argv);

        // Idle-heavy mirrors a persist-ordering stall (short bursts between
        // long event-bound waits); busy-heavy keeps devices ticking almost
        // every cycle so skipping can only add overhead.
        const std::vector<Scenario> scenarios{
            {"idle_heavy", /*busySpan=*/4, /*idleSpan=*/1000},
            {"busy_heavy", /*busySpan=*/1000, /*idleSpan=*/4},
        };

        std::vector<Row> rows;
        std::cout << "kernel micro-benchmark: " << cycles << " cycles, "
                  << devices << " devices\n\n"
                  << std::left << std::setw(12) << "scenario" << std::setw(10)
                  << "skip" << std::setw(12) << "wall ms" << std::setw(14)
                  << "kernelSteps" << std::setw(15) << "skippedCycles"
                  << "speedup\n";
        for (const Scenario &sc : scenarios) {
            const Row off = runScenario(sc, false, cycles, devices);
            const Row on = runScenario(sc, true, cycles, devices);
            if (on.work != off.work || on.simCycles != off.simCycles) {
                std::cerr << "FAIL: " << sc.name
                          << " diverged between modes (work " << on.work
                          << " vs " << off.work << ")\n";
                return 1;
            }
            for (const Row &r : {off, on}) {
                std::cout << std::left << std::setw(12) << r.scenario
                          << std::setw(10) << (r.cycleSkip ? "on" : "off")
                          << std::setw(12) << std::fixed
                          << std::setprecision(1) << r.wallMs << std::setw(14)
                          << r.kernelSteps << std::setw(15) << r.skippedCycles
                          << std::setprecision(2)
                          << (r.cycleSkip ? off.wallMs / r.wallMs : 1.0)
                          << "x\n";
                rows.push_back(r);
            }
        }
        writeJson(jsonPath, rows);
        std::cout << "\nwrote " << jsonPath << "\n";
        return 0;
    });
}
