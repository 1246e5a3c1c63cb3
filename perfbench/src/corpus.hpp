/// \file corpus.hpp
/// Seeded workload corpus of the end-to-end benchmark. Every program is
/// generated here as text (OpenQASM 2 or QIR) from the benchmark's own
/// circuit model, so the program under test receives only generated
/// input, and the output checks (checks.hpp) can reason about the model
/// instead of about the program's own parse of it.
///
/// The seed changes angles, basis states, integer constants and shot seeds;
/// it never changes a program's gate kinds, qubit pairs, size or shot
/// count, so runs with different seeds do the same amount of work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64, the benchmark's own generator (independent of qirkit's).
class Rng {
public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  unsigned below(unsigned bound) {
    return static_cast<unsigned>(next() % bound);
  }

private:
  std::uint64_t state_;
};

enum class OpKind { H, X, Y, Z, S, Sdg, T, Tdg, RX, RY, RZ, CX, CZ, Swap, Measure, Reset };

struct Op {
  OpKind kind = OpKind::H;
  unsigned q0 = 0;
  unsigned q1 = 0;     // second qubit of CX/CZ/Swap
  double angle = 0;    // RX/RY/RZ
  unsigned bit = 0;    // Measure: flattened classical bit
  int condReg = -1;    // >= 0: applied only when creg condReg == condValue
  unsigned condValue = 0;
};

/// A circuit over `qubits` qubits and classical registers `cregs` (sizes;
/// bits are flattened in declaration order, bit 0 leftmost in a histogram
/// key).
struct Circuit {
  unsigned qubits = 0;
  std::vector<unsigned> cregs;
  std::vector<Op> ops;

  [[nodiscard]] unsigned bits() const;
};

enum class Format { Qasm, Qir };

/// What the output check expects of a program (checks.cpp).
enum class Expect {
  Fixed,       ///< every shot returns `fixed`
  Ghz,         ///< only all-zeros / all-ones, balanced
  Reference,   ///< marginals agree with the scalar reference (chi-square)
  RepCode,     ///< syndromes fixed by the error, data bits agree, P(1..1)
  ActiveReset, ///< feedback tail: first bit balanced, second always 1
  Compile,     ///< toolchain: checked on the emitted modules
};

struct Program {
  std::string name;
  Format format = Format::Qasm;
  std::string text;
  /// Model of what the program does (the unrolled circuit for loops).
  /// Empty for toolchain inputs checked structurally.
  Circuit circuit;
  Expect expect = Expect::Reference;
  std::string fixed;                  ///< Expect::Fixed
  double theta = 0;                   ///< Expect::RepCode: RY(theta) input
  std::vector<std::string> syndromes; ///< Expect::RepCode: per round
  unsigned hCalls = 0;                ///< toolchain Ex. 4: unrolled h calls
  std::uint64_t shots = 1024;
  std::uint64_t seed = 1;             ///< shot seed passed to the run
};

[[nodiscard]] std::string toQasm(const Circuit& circuit);
/// Static addressing (`inttoptr (i64 k to ptr)`), adaptive-profile
/// branches for conditioned ops, one result_record_output per bit.
[[nodiscard]] std::string toQir(const Circuit& circuit);
/// Dynamic addressing: qubit and result arrays from the runtime, element
/// pointers passed to every call (the qirkit exporter's dynamic dialect).
[[nodiscard]] std::string toQirDynamic(const Circuit& circuit);

/// run-sample: terminal-measurement circuits at 14-18 qubits, 1024 shots.
[[nodiscard]] std::vector<Program> runSampleCorpus(std::uint64_t seed);
/// run-feedback: feedback-dependent programs at <= 8 qubits, resimulated.
[[nodiscard]] std::vector<Program> runFeedbackCorpus(std::uint64_t seed);
/// serve-mixed: the programs clients resubmit (12-14 qubits).
[[nodiscard]] std::vector<Program> serveKnownCorpus(std::uint64_t seed);
/// serve-mixed: the `index`-th never-seen program of a client stream.
[[nodiscard]] Program serveFreshProgram(std::uint64_t seed, std::uint64_t index);
/// toolchain: loop programs, dynamic addressing and QASM round trips.
[[nodiscard]] std::vector<Program> toolchainCorpus(std::uint64_t seed);

} // namespace perfbench
