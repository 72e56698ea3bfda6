/**
 * @file
 * The declarative persistency-order rule set checked per scheme.
 *
 * Each rule is an ordering invariant of the logging protocol under
 * evaluation. Which rules are armed depends on the scheme (hardware
 * schemes expose log-entry and marker events; software schemes are
 * checked through the MC write stream) and on whether the persistency
 * domain includes the controller queues (ADR) or only the NVM array
 * (PMEM+pcommit).
 */

#ifndef PROTEUS_ANALYSIS_RULES_HH
#define PROTEUS_ANALYSIS_RULES_HH

#include <array>
#include <cstdint>
#include <string>

#include "sim/config.hh"

namespace proteus {
namespace analysis {

/** The checkable ordering invariants, in stable report order. */
enum class Rule : unsigned
{
    /** An undo-log entry covering a granule must be durable before any
     *  data write touching that granule is accepted at the MC while
     *  the writing transaction is still in flight. */
    LogBeforeData = 0,
    /** Every log record created for a transaction must be durable
     *  (acknowledged) by the transaction's durability point. */
    EntriesBeforeTxEnd,
    /** LPQ flash-clears and tx-end marker operations may only happen
     *  for a transaction whose durable commit has been announced. */
    FlashClearAfterCommit,
    /** Within each MC queue (WPQ, LPQ), writes to the same block must
     *  issue to — and complete at — the NVM array in acceptance order. */
    FifoPerAddress,
    /** Every transactional persistent store must be durable by the
     *  transaction's durability point: accepted at the MC under ADR,
     *  written back to the array without ADR (pcommit semantics). */
    DurableByCommit,
    /** Lockset race detection: two cores writing overlapping bytes
     *  with no common lock held. */
    LockDiscipline,
};

constexpr unsigned numRules = 6;

/** @return the stable kebab-case rule name used in reports and JSON. */
const char *toString(Rule rule);

/** One-line description for the CLI rule table. */
const char *describe(Rule rule);

/**
 * Which rules are armed for @p scheme. @p have_history: a
 * TraceWriteObserver write history is bound, which lets the checker
 * distinguish undo-logged stores from fresh-allocation (storeInit)
 * stores and arms LogBeforeData for the software schemes too. The
 * persistency domain arms nothing: DurableByCommit adapts its
 * durability witness to it instead.
 */
std::array<bool, numRules> rulesForScheme(LogScheme scheme,
                                          bool have_history);

} // namespace analysis
} // namespace proteus

#endif // PROTEUS_ANALYSIS_RULES_HH
