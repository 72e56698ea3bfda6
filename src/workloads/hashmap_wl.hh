/**
 * @file
 * HM: insert or delete entries in 16 chained hash maps (Table 2).
 */

#ifndef PROTEUS_WORKLOADS_HASHMAP_WL_HH
#define PROTEUS_WORKLOADS_HASHMAP_WL_HH

#include "workload.hh"

namespace proteus {

/** Sixteen persistent chained hash maps with per-map locks. */
class HashMapWorkload : public CloneableWorkload<HashMapWorkload>
{
  public:
    HashMapWorkload(PersistentHeap &heap, LogScheme scheme,
                    const WorkloadParams &params);

    std::string name() const override { return "HM"; }
    std::uint64_t initOps() const override
    {
        return 100000 / _params.initScale;
    }
    std::uint64_t simOps() const override
    {
        return 20000 / _params.scale;
    }
    std::string serialize(const MemoryImage &image) const override;
    std::string checkInvariants(const MemoryImage &image) const override;

    static constexpr unsigned numMaps = 16;
    static constexpr unsigned numBuckets = 1024;    ///< per map
    static constexpr unsigned nodeBytes = 64;

  protected:
    void allocateStructures() override;
    void doInitOp(unsigned thread) override;
    void doOp(unsigned thread) override;

  private:
    Addr bucketAddr(unsigned m, std::uint64_t key) const;
    void insert(unsigned thread, unsigned m, std::uint64_t key,
                std::uint64_t val);
    void erase(unsigned thread, unsigned m, std::uint64_t key);
    std::uint64_t randomKey(unsigned thread);

    std::vector<Addr> _buckets;     ///< per-map bucket array base
    std::vector<Addr> _locks;
};

} // namespace proteus

#endif // PROTEUS_WORKLOADS_HASHMAP_WL_HH
