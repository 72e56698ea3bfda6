/**
 * @file
 * The fault-config rules, shared by the --faults parser and
 * SystemConfig::validate so both spellings accept the same values.
 * Header-only: the base sim library calls it without linking the
 * faults library.
 */

#ifndef PROTEUS_FAULTS_FAULT_RULES_HH
#define PROTEUS_FAULTS_FAULT_RULES_HH

#include <string>

#include "faults/fault_config.hh"
#include "sim/logging.hh"

namespace proteus {
namespace faults {

/** How a fault rule's fatal names a field: its --faults spec key
 *  ("--faults torn") or its --set key ("faults.tornWriteRate"). */
enum class FaultSpelling { Spec, Set };

/**
 * Throw FatalError unless @p cfg is a usable fault config: both rates
 * in [0, 1], at least one flipped bit per read fault, and ECC
 * correction no stronger than detection.
 */
inline void
checkFaultRules(const FaultConfig &cfg, FaultSpelling spelling)
{
    const auto name = [spelling](const char *spec, const char *set) {
        return spelling == FaultSpelling::Spec
                   ? std::string("--faults ") + spec
                   : std::string("faults.") + set;
    };
    // Written so that NaN fails too.
    if (!(cfg.tornWriteRate >= 0.0 && cfg.tornWriteRate <= 1.0))
        fatal(name("torn", "tornWriteRate"), ": rate must lie in [0, 1], "
              "got ", cfg.tornWriteRate);
    if (!(cfg.readFlipRate >= 0.0 && cfg.readFlipRate <= 1.0))
        fatal(name("readflip", "readFlipRate"), ": rate must lie in "
              "[0, 1], got ", cfg.readFlipRate);
    if (cfg.readFlipBitsMax == 0)
        fatal(name("bits", "readFlipBitsMax"), ": must be at least 1");
    if (cfg.eccCorrectBits > cfg.eccDetectBits)
        fatal(name("correct", "eccCorrectBits"), " (", cfg.eccCorrectBits,
              ") must not exceed ", name("detect", "eccDetectBits"), " (",
              cfg.eccDetectBits, ")");
}

} // namespace faults
} // namespace proteus

#endif // PROTEUS_FAULTS_FAULT_RULES_HH
