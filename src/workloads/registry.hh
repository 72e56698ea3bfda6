/**
 * @file
 * Workload factory registry.
 *
 * Each workload contributes one WorkloadRegistration — its kind, CLI
 * names, a one-line summary, its extra knobs, and a builder function —
 * via a plain registration function defined next to the workload
 * class. factory.cc aggregates those functions into the registry
 * explicitly (not via static initializers, which a static archive may
 * silently drop) and implements makeWorkload / toString /
 * parseWorkload / allPaperWorkloads on top of it.
 */

#ifndef PROTEUS_WORKLOADS_REGISTRY_HH
#define PROTEUS_WORKLOADS_REGISTRY_HH

#include "workload.hh"

namespace proteus {

using WorkloadBuilder = std::unique_ptr<Workload> (*)(
    PersistentHeap &, LogScheme, const WorkloadParams &,
    const WorkloadExtras &);

/** One factory entry; see `proteus-sim list`. */
struct WorkloadRegistration
{
    WorkloadKind kind;
    const char *abbrev;     ///< Table 2 abbreviation, e.g. "QE"
    const char *cliName;    ///< long CLI spelling, e.g. "queue"
    const char *summary;    ///< one line for `proteus-sim list`
    const char *knobs;      ///< extra knobs beyond WorkloadParams
    bool paper;             ///< member of allPaperWorkloads()
    WorkloadBuilder build;
};

/** Every registered workload, in listing order. */
const std::vector<WorkloadRegistration> &workloadRegistry();

/** Registry entry for @p kind; throws FatalError if unregistered. */
const WorkloadRegistration &workloadInfo(WorkloadKind kind);

/// @name Per-workload registration entries
/// Aggregated explicitly by factory.cc; defined in each workload's
/// translation unit so the entry lives next to the class it builds.
/// @{
WorkloadRegistration queueWorkloadRegistration();
WorkloadRegistration hashMapWorkloadRegistration();
WorkloadRegistration stringSwapWorkloadRegistration();
WorkloadRegistration avlTreeWorkloadRegistration();
WorkloadRegistration bTreeWorkloadRegistration();
WorkloadRegistration rbTreeWorkloadRegistration();
WorkloadRegistration linkedListWorkloadRegistration();
WorkloadRegistration genWorkloadRegistration();
/// @}

} // namespace proteus

#endif // PROTEUS_WORKLOADS_REGISTRY_HH
