#include "system.hh"

#include "sim/logging.hh"

namespace proteus {

FullSystem::FullSystem(const SystemConfig &cfg, WorkloadKind kind,
                       const WorkloadParams &params,
                       const WorkloadExtras &extras)
    : _cfg(cfg)
{
    TraceBundleKey key;
    key.kind = kind;
    key.scheme = _cfg.logging.scheme;
    key.params = params;
    key.llOpts = extras.ll;
    key.gen = extras.gen;
    // The checker needs the write history to classify store kinds for
    // the software schemes' LogBeforeData rule.
    auto bundle =
        TraceBundle::build(key, /*want_history=*/cfg.analysis.check);

    // The bundle is private to this system, so its heap can be mutated
    // in place — exactly the pre-bundle behavior, with no image copy.
    _heap = bundle->heap;
    _bundle = std::move(bundle);
    wire();
}

FullSystem::FullSystem(const SystemConfig &cfg,
                       std::shared_ptr<const TraceBundle> bundle)
    : _cfg(cfg)
{
    if (!bundle)
        fatal("FullSystem: null trace bundle");
    // Shared bundle: this machine needs its own mutable heap (timing
    // applies durable writes to the NVM image), so copy the bundle's;
    // the copy shares pages until this machine writes them.
    _heap = std::make_shared<PersistentHeap>(*bundle->heap);
    _bundle = std::move(bundle);
    wire();
}

void
FullSystem::wire()
{
    // The bundle's key is the machine's identity: the scheme its traces
    // were recorded under, that scheme's persistency domain (only
    // PMEM+pcommit is the pre-ADR design), one core per thread, and the
    // log-area size the threads recorded with (ATOM's areas match it).
    const TraceBundleKey &key = _bundle->key;
    _cfg.logging.scheme = key.scheme;
    _cfg.memCtrl.adr = key.scheme != LogScheme::PMEMPCommit;
    _cfg.cores = key.params.threads;
    _cfg.logging.logAreaBytes = key.params.logAreaBytes;
    _cfg.validate(key.scheme);

    _sim = std::make_unique<Simulator>();
    _sim->setCycleSkip(_cfg.cycleSkip);

    // Components read the stream pointer at construction; with no
    // subscriber it stays null and every emission site is one branch.
    const bool tracing = !_cfg.obs.traceEvents.empty();
    const bool tracking = !_cfg.obs.txStats.empty() || _cfg.obs.txTrack;
    if (tracing || tracking || _cfg.analysis.check)
        _sim->setEventStream(&_events);

    // Timing phase wiring. Registration order defines intra-cycle
    // evaluation: memory first, then cores.
    _mc = std::make_unique<MemCtrl>(*_sim, _cfg, _heap->nvmImage());
    _caches = std::make_unique<CacheHierarchy>(*_sim, _cfg, *_mc,
                                               _heap->nvmImage());
    _locks = std::make_unique<LockManager>(*_sim);

    _sim->addTicked(_mc.get());
    for (unsigned t = 0; t < _cfg.cores; ++t) {
        const TraceBundle::ThreadTrace &tt = _bundle->threads[t];
        _cores.push_back(std::make_unique<Core>(
            *_sim, _cfg, static_cast<CoreId>(t), tt.trace, *_caches,
            *_mc, *_locks));
        _cores.back()->bindLogArea(tt.logStart, tt.logEnd);
        if (_cfg.logging.scheme == LogScheme::ATOM) {
            const Addr area =
                _heap->allocLogArea(_cfg.logging.logAreaBytes);
            const Addr end = area + _cfg.logging.logAreaBytes;
            _mc->bindAtomLogArea(static_cast<CoreId>(t), area, end);
            _atomAreas.emplace_back(area, end);
        } else {
            _atomAreas.emplace_back(invalidAddr, invalidAddr);
        }
        _sim->addTicked(_cores.back().get());
    }

    if (_cfg.obs.statsInterval > 0) {
        _sampler = std::make_unique<IntervalStatsSampler>(
            *_sim, _cfg.obs.statsInterval, _cfg.obs.statsOut);
        _sampler->start();
    }

    // The event stream's subscribers. The transaction flight recorder's
    // file output (when obs.txStats is set) is written by the caller
    // (runExperiment / runBatch) so batches can combine rows into one
    // deterministic file.
    if (tracking) {
        _txTracker = std::make_unique<obs::TxTracker>(
            _sim->statsRegistry(), _cfg.cores,
            static_cast<unsigned>(_cfg.obs.txSlowest));
        _events.subscribe(_txTracker.get());
    }

    // The persistency-order checker. In mutation mode a StreamMutator
    // subscribes in its place and forwards a perturbed stream to it,
    // so the checker must catch the injected violation while the other
    // subscribers still see the real stream.
    if (_cfg.analysis.check) {
        _checker = std::make_unique<analysis::PersistChecker>(
            _cfg.logging.scheme, _cfg.memCtrl.adr, _cfg.analysis.repro);
        for (unsigned t = 0; t < _cfg.cores; ++t) {
            const TraceBundle::ThreadTrace &tt = _bundle->threads[t];
            _checker->addLogArea(tt.logStart, tt.logEnd,
                                 static_cast<CoreId>(t));
            _checker->addLogArea(_atomAreas[t].first,
                                 _atomAreas[t].second,
                                 static_cast<CoreId>(t));
        }
        if (_bundle->history)
            _checker->bindWriteHistory(*_bundle->history);

        SimEventSubscriber *checker = _checker.get();
        if (_cfg.analysis.mutateRule >= 0 &&
            static_cast<unsigned>(_cfg.analysis.mutateRule) <
                analysis::numRules) {
            _mutator = std::make_unique<analysis::StreamMutator>(
                static_cast<analysis::Rule>(_cfg.analysis.mutateRule),
                _cfg.analysis.mutateSeed, *_checker);
            for (unsigned t = 0; t < _cfg.cores; ++t) {
                const TraceBundle::ThreadTrace &tt = _bundle->threads[t];
                _mutator->addLogArea(tt.logStart, tt.logEnd);
                _mutator->addLogArea(_atomAreas[t].first,
                                     _atomAreas[t].second);
            }
            checker = _mutator.get();
        }
        _events.subscribe(checker);
    }

    if (tracing) {
        _traceSink = std::make_unique<TraceEventSink>(
            _cfg.obs.traceEvents, _cfg.obs.traceCategories,
            static_cast<std::size_t>(_cfg.obs.traceRingEntries));
        _traceRecorder = std::make_unique<obs::TraceEventRecorder>(
            *_traceSink, _cfg.cores, _cfg.faults.enabled());
        _events.subscribe(_traceRecorder.get());
    }
}

FullSystem::~FullSystem()
{
    finishObservability();
}

Workload &
FullSystem::workload()
{
    if (!_bundle->workload)
        fatal("FullSystem: this system runs a trace bundle loaded from "
              "a file; no workload object is available");
    return *_bundle->workload;
}

void
FullSystem::finishObservability()
{
    if (_sampler)
        _sampler->finish();
    if (_txTracker)
        _txTracker->finish();
    if (_traceSink) {
        _traceRecorder->finish(_sim->now());
        _traceSink->flush();
    }
}

bool
FullSystem::done() const
{
    for (const auto &core : _cores) {
        if (!core->done())
            return false;
    }
    return true;
}

RunResult
FullSystem::snapshotResult() const
{
    RunResult r;
    r.finished = done();
    r.cycles = _sim->now();
    r.nvmWrites = _mc->nvmWrites();
    r.nvmReads = _mc->nvmReads();
    r.logWritesDropped = _mc->droppedLogWrites();
    std::uint64_t llt_lookups = 0;
    std::uint64_t llt_misses = 0;
    for (const auto &core : _cores) {
        r.retiredOps += core->retiredOps();
        r.frontendStallCycles += core->frontendStallCycles();
        r.committedTxs += core->committedTxs().size();
        r.cpi += core->cpiStack();
        llt_lookups += core->llt().lookups();
        llt_misses += core->llt().misses();
    }
    r.lltMissRate = llt_lookups
        ? static_cast<double>(llt_misses) / llt_lookups
        : 0.0;
    if (const faults::FaultModel *fm = _mc->faultModel())
        r.faultStats = fm->summary(_heap->nvmImage());
    return r;
}

RunResult
FullSystem::run(Tick max_cycles)
{
    const bool ok = _sim->runUntil([this]() { return done(); },
                                   max_cycles);
    RunResult r = snapshotResult();
    r.finished = ok;
    if (!ok)
        warn("FullSystem: simulation hit the cycle limit before the "
             "traces drained");
    if (_txTracker) {
        r.txStats = std::make_shared<obs::TxStatsSummary>(
            _txTracker->summary());
    }
    if (_checker) {
        r.check = std::make_shared<analysis::CheckOutcome>(
            _checker->outcome());
    }
    finishObservability();
    return r;
}

void
FullSystem::runFor(Tick cycles)
{
    _sim->run(cycles);
}

void
FullSystem::crashNow()
{
    _sim->events().clear();
}

MemoryImage
FullSystem::crashImage() const
{
    return crashImage(_cfg.memCtrl.adr);
}

MemoryImage
FullSystem::crashImage(bool with_adr) const
{
    MemoryImage image = _heap->nvmImage();
    if (with_adr)
        _mc->applyBatteryDrain(image);
    return image;
}

} // namespace proteus
