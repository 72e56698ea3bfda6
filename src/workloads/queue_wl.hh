/**
 * @file
 * QE: enqueue/dequeue in 8 shared linked-list queues (Table 2).
 */

#ifndef PROTEUS_WORKLOADS_QUEUE_WL_HH
#define PROTEUS_WORKLOADS_QUEUE_WL_HH

#include "workload.hh"

namespace proteus {

/** Eight persistent FIFO queues guarded by per-queue locks. */
class QueueWorkload : public CloneableWorkload<QueueWorkload>
{
  public:
    QueueWorkload(PersistentHeap &heap, LogScheme scheme,
                  const WorkloadParams &params);

    std::string name() const override { return "QE"; }
    std::uint64_t initOps() const override
    {
        return 20000 / _params.initScale;
    }
    std::uint64_t simOps() const override
    {
        return 50000 / _params.scale;
    }
    std::string serialize(const MemoryImage &image) const override;
    std::string checkInvariants(const MemoryImage &image) const override;

    static constexpr unsigned numQueues = 8;
    static constexpr unsigned nodeBytes = 64;

  protected:
    void allocateStructures() override;
    void doInitOp(unsigned thread) override;
    void doOp(unsigned thread) override;

  private:
    /** Header layout: [0] head, [8] tail, [16] count. */
    Addr header(unsigned q) const { return _headers[q]; }

    void enqueue(unsigned thread, unsigned q, std::uint64_t value);
    void dequeue(unsigned thread, unsigned q);
    void runOp(unsigned thread, bool init_only);

    std::vector<Addr> _headers;
    std::vector<Addr> _locks;
    std::uint64_t _nextValue = 1;
};

} // namespace proteus

#endif // PROTEUS_WORKLOADS_QUEUE_WL_HH
