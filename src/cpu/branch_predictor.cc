#include "branch_predictor.hh"

namespace proteus {

BranchPredictor::BranchPredictor(unsigned index_bits,
                                 stats::StatRegistry &stats,
                                 const std::string &name)
    : _counters(std::size_t{1} << index_bits, 1),
      _historyMask((std::size_t{1} << index_bits) - 1),
      _predictions(stats, name + ".predictions", "branches predicted"),
      _mispredictions(stats, name + ".mispredictions",
                      "branches mispredicted")
{
}

std::size_t
BranchPredictor::index(std::uint32_t static_pc) const
{
    return (static_pc ^ _history) & _historyMask;
}

bool
BranchPredictor::predict(std::uint32_t static_pc) const
{
    return _counters[index(static_pc)] >= 2;
}

void
BranchPredictor::update(std::uint32_t static_pc, bool taken,
                        bool predicted)
{
    ++_predictions;
    if (taken != predicted)
        ++_mispredictions;

    std::uint8_t &ctr = _counters[index(static_pc)];
    if (taken && ctr < 3)
        ++ctr;
    else if (!taken && ctr > 0)
        --ctr;
    _history = ((_history << 1) | (taken ? 1 : 0)) & _historyMask;
}

double
BranchPredictor::accuracy() const
{
    const double total = _predictions.value();
    return total > 0 ? 1.0 - _mispredictions.value() / total : 1.0;
}

} // namespace proteus
