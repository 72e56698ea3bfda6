/**
 * @file
 * Scheme-aware trace codegen: the "compiler" of the paper.
 *
 * Workloads execute functionally against the PersistentHeap through this
 * builder; every access is simultaneously applied to the heap and
 * recorded as micro-ops, expanded per logging scheme:
 *
 *  - PMEM / PMEM+pcommit (Figure 2): declared undo-log regions are
 *    copied to the software log with loads/stores and persisted with
 *    clwb+sfence (step 1); a logFlag store marks the transaction live
 *    (step 2); data stores are followed by per-block clwb and sfence at
 *    commit (step 3); the flag is cleared and persisted (step 4). The
 *    pcommit variant adds pcommit+sfence after every persist point.
 *  - PMEM+nolog: data stores with clwb+sfence only (the ideal case).
 *  - ATOM: plain stores inside tx-begin/tx-end; hardware logs.
 *  - Proteus (Figure 4): each store expands to log-load LRn, addr;
 *    log-flush LRn, (LTA)+; st addr. The 32-byte pre-store granule is
 *    captured into the log payload exactly as the hardware log-load
 *    would read it.
 *
 * Dependency realism: load() returns a Value carrying the logical
 * register that holds the result; passing it as the address dependency
 * of a subsequent access creates the pointer-chasing chains the timing
 * core honors through renaming.
 */

#ifndef PROTEUS_TRACE_TRACE_BUILDER_HH
#define PROTEUS_TRACE_TRACE_BUILDER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "heap/persistent_heap.hh"
#include "isa/trace.hh"
#include "sim/config.hh"
#include "sim/types.hh"

namespace proteus {

/** A functional value paired with the register that will hold it. */
struct Value
{
    std::uint64_t v = 0;
    std::int16_t reg = noReg;
};

/**
 * How a recorded write relates to the active scheme's failure-safety
 * machinery — what the crash-consistency oracle may assume about it.
 */
enum class ObservedWrite
{
    /** Undo-logged: rolled back if the transaction does not commit. */
    Logged,
    /**
     * Not undo-logged but persisted by commit (storeInit under software
     * logging, every store under pmem+nolog): an uncommitted
     * transaction leaves it in an unpredictable state.
     */
    Unlogged,
    /** storeRaw: neither logged nor ordered by any persist barrier. */
    Raw,
};

/**
 * Observer of the program-level writes a TraceBuilder records. The
 * crash-consistency oracle implements this to learn, in the global
 * round-robin recording order (= the functional serialization), which
 * transaction wrote which bytes, the pre- and post-write values, and
 * how the active scheme treats the write (ObservedWrite). Callbacks
 * fire only while recording, never during the conservative-logging dry
 * run, and never for replayOps.
 */
class TraceWriteObserver
{
  public:
    virtual ~TraceWriteObserver() = default;

    /** A durable transaction was opened on @p thread. */
    virtual void onTxBegin(CoreId thread, TxId tx) = 0;

    /** The transaction's commit sequence was recorded. */
    virtual void onTxEnd(CoreId thread, TxId tx) = 0;

    /**
     * @p size bytes at @p addr changed from @p before to @p after.
     * @p tx is 0 for writes outside any transaction.
     */
    virtual void onStore(CoreId thread, TxId tx, Addr addr,
                         unsigned size, std::uint64_t before,
                         std::uint64_t after, ObservedWrite kind) = 0;
};

/** Records one thread's micro-op trace while executing functionally. */
class TraceBuilder
{
  public:
    TraceBuilder(PersistentHeap &heap, LogScheme scheme, CoreId thread);

    /** Bind the software-managed circular log area (Section 4.1). */
    void setLogArea(Addr start, Addr end);
    Addr logAreaStart() const { return _logStart; }
    Addr logAreaEnd() const { return _logEnd; }
    /** Per-thread logFlag word used by the Figure 2 protocol. */
    Addr logFlagAddr() const { return _logFlagAddr; }

    /** While false, accesses update the heap without recording
     *  (functional warmup of the paper's InitOps). */
    void setRecording(bool on) { _recording = on; }
    bool recording() const { return _recording; }

    /** Attach a write observer (crash oracle); nullptr detaches. */
    void setWriteObserver(TraceWriteObserver *obs)
    {
        _writeObserver = obs;
    }

    /// @name Program-level operations
    /// @{
    /** Load @p size bytes; @p addr_dep threads a pointer-chase chain. */
    Value load(Addr addr, unsigned size, Value addr_dep = {});

    /** Transactional persistent store, expanded per scheme. */
    void store(Addr addr, unsigned size, std::uint64_t value,
               Value dep = {});

    /**
     * Store that initializes freshly allocated memory. Software undo
     * logging skips it (the paper assumes failure-safe allocation, so
     * unreachable new nodes need no undo entry); hardware schemes still
     * log it because the hardware cannot distinguish fresh memory.
     */
    void storeInit(Addr addr, unsigned size, std::uint64_t value,
                   Value dep = {});

    /** Plain store with no logging expansion (volatile or metadata). */
    void storeRaw(Addr addr, unsigned size, std::uint64_t value,
                  Value dep = {});

    /** Integer work (key compares, pointer arithmetic). */
    Value alu(Value a = {}, Value b = {});
    Value mul(Value a = {}, Value b = {});

    /**
     * Emit @p n ALU micro-ops modeling straight-line computation
     * (allocation bookkeeping, hashing, call overhead) with moderate
     * ILP: four independent dependency chains.
     */
    void work(unsigned n);

    /**
     * Emit @p n serially dependent L1-resident loads modeling
     * pointer-heavy runtime work (allocator metadata walks, library
     * call chains). Each load's address register depends on the
     * previous load, so the chain costs roughly n x L1 latency.
     */
    void workChase(unsigned n);

    /**
     * Emit @p n serially dependent loads striding through a shared
     * arena larger than the L3: each one models a cold NVM read (the
     * dominant cost of real operations at the paper's working-set
     * sizes).
     */
    void workChaseCold(unsigned n);

    /** Conditional branch at static site @p site with outcome @p taken. */
    void branch(std::uint32_t site, bool taken, Value dep = {});

    /** @p ticket is the global grant order for this lock, assigned at
     *  trace-generation time (fair ticket lock). */
    void lockAcquire(Addr lock_addr, std::uint64_t ticket);
    void lockRelease(Addr lock_addr);
    /// @}

    /// @name Durable transactions
    /// @{
    /** Open a durable transaction; @return its id (monotonic/thread). */
    TxId beginTx();

    /**
     * Software undo logging (Figure 2 step 1): declare that the bytes
     * at [@p addr, @p addr + size) may be modified by this transaction.
     * Ignored by hardware schemes (they log dynamically). Must precede
     * the first store of the transaction.
     */
    void declareLogged(Addr addr, unsigned size);

    /** Commit: emits the scheme's persist/commit sequence + tx-end. */
    void endTx();
    /// @}

    /**
     * Discover what a mutation touches without recording it.
     *
     * Runs @p fn with recording suppressed, tracking every 32B granule
     * it reads or writes, then rolls the heap back to its prior state.
     * The caller can then emit the conservative undo-log declares of a
     * software logger ("log all nodes that could be modified") before
     * re-running @p fn for real. @p fn must be deterministic, must not
     * allocate or free heap memory, and must not begin/end
     * transactions.
     */
    struct TouchSet
    {
        std::set<Addr> readGranules;
        std::set<Addr> writtenGranules;
    };
    TouchSet collectTouched(const std::function<void()> &fn);

    /** Number of transactions begun (committed or recorded). */
    std::uint64_t txCount() const { return _txCounter; }

    const Trace &trace() const { return _trace; }
    Trace takeTrace() { return std::move(_trace); }

    PersistentHeap &heap() { return *_heap; }

    /**
     * Point this builder at @p heap under @p scheme — how a copy of a
     * populated workload's builder is bound to its own heap copy and
     * to the scheme it records for. Only legal between operations,
     * with recording off and no observer attached.
     */
    void rebind(PersistentHeap &heap, LogScheme scheme);

    /** First txId this thread uses (txIds are monotonic per thread). */
    TxId baseTxId() const;

  private:
    std::int16_t nextValueReg();
    std::int16_t nextLogReg();
    void emit(MicroOp mop);
    void emitLoad(Addr addr, unsigned size, std::int16_t dst,
                  std::int16_t addr_reg);
    void emitStoreOp(Addr addr, unsigned size, std::uint64_t value,
                     std::int16_t dep_reg);
    void emitClwb(Addr block);
    void emitSFence();
    void emitPersistBarrier();  ///< sfence [+ pcommit + sfence]
    void swEmitLogEntry(Addr granule);
    void recordUndo(Addr addr, unsigned size);
    void swOpenTxIfNeeded();    ///< Figure 2 steps 1-2 closing
    Addr swNextLogSlot();

    /** Read the pre-image and notify the attached write observer. */
    void notifyWrite(Addr addr, unsigned size, std::uint64_t value,
                     ObservedWrite kind);

    PersistentHeap *_heap;
    LogScheme _scheme;
    CoreId _thread;
    Trace _trace;
    bool _recording = false;
    TraceWriteObserver *_writeObserver = nullptr;

    /** Rotating logical registers: r0..r19 values, r24..r31 LRs. */
    static constexpr std::int16_t firstValueReg = 0;
    static constexpr std::int16_t numValueRegs = 20;
    static constexpr std::int16_t firstLogReg = 24;
    std::int16_t _valueRegCursor = 0;
    std::int16_t _logRegCursor = 0;

    static constexpr std::uint64_t scratchBytes = 4096;
    Addr _scratch = invalidAddr;
    std::uint64_t _scratchCursor = 0;
    std::uint64_t _coldCursor = 0;

    Addr _logStart = invalidAddr;
    Addr _logEnd = invalidAddr;
    Addr _logCursor = invalidAddr;
    Addr _logFlagAddr = invalidAddr;

    /// @name Per-transaction state
    /// @{
    bool _inTx = false;
    bool _collecting = false;
    TouchSet *_touchSet = nullptr;
    std::vector<std::pair<Addr, std::array<std::uint8_t, 8>>> _undoLog;
    TxId _currentTx = 0;
    std::uint64_t _txCounter = 0;
    std::uint64_t _swSeqInTx = 0;
    bool _swFlagSet = false;        ///< Figure 2 step 2 done
    std::set<Addr> _swLoggedGranules;
    std::set<Addr> _dirtyBlocks;    ///< for step-3 clwbs
    /// @}
};

} // namespace proteus

#endif // PROTEUS_TRACE_TRACE_BUILDER_HH
