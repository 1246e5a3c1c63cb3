/// \file checks.hpp
/// Output checks that do not trust the program under test: a plain scalar
/// statevector reference (no qirkit `sim` code) with a chi-square test on
/// marginals, the properties each corpus family must have, and structural
/// checks of compiled QIR text.
#pragma once

#include "corpus.hpp"

#include <complex>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Histogram = std::map<std::string, std::uint64_t>;

/// Final state of a measurement-terminal circuit (measurements skipped;
/// qubit q is bit q of the amplitude index).
[[nodiscard]] std::vector<std::complex<double>> referenceState(const Circuit& circuit);

/// Upper tail probability of the chi-square distribution.
[[nodiscard]] double chiSquareSurvival(double statistic, unsigned dof);

/// Checks one run's histogram against what the program's family must
/// produce. Returns an empty string when it passes, else the reason.
[[nodiscard]] std::string checkHistogram(const Program& program, const Histogram& histogram);

/// Coupling graph of a hardware target (row-major grid numbering).
struct Target {
  std::string name;
  unsigned qubits = 0;
  unsigned rows = 0; ///< 0 for a line
  unsigned cols = 0;
  [[nodiscard]] bool adjacent(unsigned a, unsigned b) const;
};

/// The line and grid targets a toolchain program is mapped onto.
[[nodiscard]] std::vector<Target> targetsFor(unsigned qubits);

/// Checks compiled QIR: every two-qubit call lies on a target edge, and
/// Ex. 4 programs carry exactly the unrolled number of h calls.
[[nodiscard]] std::string checkCompiled(const Program& program, const Target& target,
                                        const std::string& qirText);

/// Number of call sites of \p callee in QIR text.
[[nodiscard]] unsigned countCalls(const std::string& qirText, const std::string& callee);

} // namespace perfbench
