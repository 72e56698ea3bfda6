#include "rules.hh"

#include "sim/logging.hh"

namespace proteus {
namespace analysis {

const char *
toString(Rule rule)
{
    switch (rule) {
      case Rule::LogBeforeData:         return "log-before-data";
      case Rule::EntriesBeforeTxEnd:    return "entries-before-txend";
      case Rule::FlashClearAfterCommit: return "flashclear-after-commit";
      case Rule::FifoPerAddress:        return "fifo-per-address";
      case Rule::DurableByCommit:       return "durable-by-commit";
      case Rule::LockDiscipline:        return "lock-discipline";
    }
    panic("unknown Rule");
}

const char *
describe(Rule rule)
{
    switch (rule) {
      case Rule::LogBeforeData:
        return "undo-log entry durable before its data write is "
               "accepted while the transaction is in flight";
      case Rule::EntriesBeforeTxEnd:
        return "every log record created for a tx acknowledged durable "
               "by the tx durability point";
      case Rule::FlashClearAfterCommit:
        return "LPQ flash-clear / tx-end marker only after the durable "
               "commit was announced";
      case Rule::FifoPerAddress:
        return "per-queue same-block writes issue and persist in "
               "acceptance order";
      case Rule::DurableByCommit:
        return "every transactional persistent store durable (ADR: MC "
               "acceptance; no-ADR: array writeback) by tx end";
      case Rule::LockDiscipline:
        return "no two cores write overlapping bytes without a common "
               "lock";
    }
    panic("unknown Rule");
}

std::array<bool, numRules>
rulesForScheme(LogScheme scheme, bool have_history)
{
    std::array<bool, numRules> armed{};
    const auto arm = [&armed](Rule r) {
        armed[static_cast<unsigned>(r)] = true;
    };

    // Scheme-independent invariants.
    arm(Rule::FifoPerAddress);
    arm(Rule::DurableByCommit);
    arm(Rule::LockDiscipline);

    switch (scheme) {
      case LogScheme::PMEM:
      case LogScheme::PMEMPCommit:
        // Software undo logging: log entries are ordinary stores into
        // the per-thread log area, parsed out of the MC write stream.
        // Only the write history can tell a logged store from a fresh
        // allocation (storeInit), so the rule arms with it.
        if (have_history)
            arm(Rule::LogBeforeData);
        break;
      case LogScheme::PMEMNoLog:
        break;      // the ideal bound logs nothing, by construction
      case LogScheme::ATOM:
        arm(Rule::LogBeforeData);
        arm(Rule::EntriesBeforeTxEnd);
        break;
      case LogScheme::Proteus:
        arm(Rule::LogBeforeData);
        arm(Rule::EntriesBeforeTxEnd);
        arm(Rule::FlashClearAfterCommit);
        break;
      case LogScheme::ProteusNoLWR:
        arm(Rule::LogBeforeData);
        arm(Rule::EntriesBeforeTxEnd);
        // No flash-clears happen without log write removal; marker
        // bookkeeping still flows through FlashClearAfterCommit's
        // sites, but the rule stays unarmed to keep "checks" honest.
        break;
    }
    return armed;
}

} // namespace analysis
} // namespace proteus
