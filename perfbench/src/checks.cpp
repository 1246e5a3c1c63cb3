#include "checks.hpp"

#include <cmath>
#include <cstdlib>
#include <numbers>
#include <stdexcept>

namespace perfbench {

namespace {

using Amp = std::complex<double>;

/// Significance of every statistical check. A run makes a few dozen
/// checks, so a correct program fails one with probability ~1e-6.
constexpr double kAlpha = 1e-7;
/// Two-sided normal quantile of kAlpha (binomial bounds).
constexpr double kZ = 5.33;

void apply1(std::vector<Amp>& s, unsigned q, Amp m00, Amp m01, Amp m10, Amp m11) {
  const std::size_t bit = std::size_t{1} << q;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if ((i & bit) == 0) {
      const Amp a = s[i];
      const Amp b = s[i | bit];
      s[i] = m00 * a + m01 * b;
      s[i | bit] = m10 * a + m11 * b;
    }
  }
}

std::string fail(const Program& p, const std::string& why) {
  return p.name + ": " + why;
}

bool withinBinomial(std::uint64_t k, std::uint64_t n, double p) {
  const double mean = static_cast<double>(n) * p;
  const double sd = std::sqrt(static_cast<double>(n) * p * (1 - p));
  return std::abs(static_cast<double>(k) - mean) <= kZ * sd + 1;
}

/// Regularized lower incomplete gamma P(a, x) by its series; upper Q(a, x)
/// by the Lentz continued fraction where the series converges slowly.
double gammaP(double a, double x) {
  if (x <= 0) {
    return 0;
  }
  const double lnPre = -x + a * std::log(x) - std::lgamma(a);
  if (x < a + 1) {
    double term = 1 / a;
    double sum = term;
    for (int n = 1; n < 1000; ++n) {
      term *= x / (a + n);
      sum += term;
      if (std::abs(term) < std::abs(sum) * 1e-15) {
        break;
      }
    }
    return sum * std::exp(lnPre);
  }
  double b = x + 1 - a;
  double c = 1e300;
  double d = 1 / b;
  double h = d;
  for (int i = 1; i < 1000; ++i) {
    const double an = -i * (i - a);
    b += 2;
    d = an * d + b;
    if (std::abs(d) < 1e-300) {
      d = 1e-300;
    }
    c = b + an / c;
    if (std::abs(c) < 1e-300) {
      c = 1e-300;
    }
    d = 1 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1) < 1e-15) {
      break;
    }
  }
  return 1 - std::exp(lnPre) * h;
}

/// Chi-square test of observed outcome counts on `qubits` against the
/// reference marginal. Bins expected below 5 counts are pooled.
std::string chiSquareMarginal(const Program& p, const std::vector<Amp>& state,
                              const Histogram& h, const std::vector<unsigned>& qubits) {
  const std::size_t outcomes = std::size_t{1} << qubits.size();
  std::vector<double> prob(outcomes, 0);
  for (std::size_t i = 0; i < state.size(); ++i) {
    std::size_t k = 0;
    for (std::size_t j = 0; j < qubits.size(); ++j) {
      k |= ((i >> qubits[j]) & 1U) << j;
    }
    prob[k] += std::norm(state[i]);
  }
  std::vector<double> observed(outcomes, 0);
  for (const auto& [key, count] : h) {
    std::size_t k = 0;
    for (std::size_t j = 0; j < qubits.size(); ++j) {
      k |= static_cast<std::size_t>(key[qubits[j]] == '1') << j;
    }
    observed[k] += static_cast<double>(count);
  }
  const double shots = static_cast<double>(p.shots);
  double stat = 0;
  unsigned bins = 0;
  double pooledObserved = 0;
  double pooledExpected = 0;
  for (std::size_t k = 0; k < outcomes; ++k) {
    const double expected = shots * prob[k];
    if (prob[k] < 1e-12 && observed[k] > 0) {
      return fail(p, "outcome of probability 0 observed on marginal qubits");
    }
    if (expected < 5) {
      pooledObserved += observed[k];
      pooledExpected += expected;
      continue;
    }
    stat += (observed[k] - expected) * (observed[k] - expected) / expected;
    ++bins;
  }
  if (pooledExpected >= 1e-9) {
    stat += (pooledObserved - pooledExpected) * (pooledObserved - pooledExpected) /
            pooledExpected;
    ++bins;
  }
  if (bins >= 2 && chiSquareSurvival(stat, bins - 1) < kAlpha) {
    return fail(p, "marginal disagrees with the reference (chi-square " +
                       std::to_string(stat) + ", " + std::to_string(bins - 1) +
                       " dof)");
  }
  return {};
}

/// Qubit index of a static QIR operand (`ptr null` / `ptr inttoptr (i64 k
/// to ptr)`), advancing \p pos past it; -1 when not static.
long parseOperand(const std::string& s, std::size_t& pos) {
  while (pos < s.size() && (s[pos] == ' ' || s[pos] == ',')) {
    ++pos;
  }
  if (s.compare(pos, 8, "ptr null") == 0) {
    pos += 8;
    return 0;
  }
  static const std::string kPrefix = "ptr inttoptr (i64 ";
  if (s.compare(pos, kPrefix.size(), kPrefix) != 0) {
    return -1;
  }
  pos += kPrefix.size();
  char* end = nullptr;
  const long v = std::strtol(s.c_str() + pos, &end, 10);
  pos = static_cast<std::size_t>(end - s.c_str());
  const std::size_t close = s.find(')', pos);
  if (close == std::string::npos) {
    return -1;
  }
  pos = close + 1;
  return v;
}

} // namespace

std::vector<Amp> referenceState(const Circuit& c) {
  std::vector<Amp> s(std::size_t{1} << c.qubits, Amp{0, 0});
  s[0] = 1;
  const double r = 1 / std::numbers::sqrt2;
  const Amp i1{0, 1};
  for (const Op& op : c.ops) {
    if (op.condReg >= 0 || op.kind == OpKind::Reset) {
      throw std::logic_error("reference: feedback is not modelled");
    }
    const double ch = std::cos(op.angle / 2);
    const double sh = std::sin(op.angle / 2);
    switch (op.kind) {
    case OpKind::H: apply1(s, op.q0, r, r, r, -r); break;
    case OpKind::X: apply1(s, op.q0, 0, 1, 1, 0); break;
    case OpKind::Y: apply1(s, op.q0, 0, -i1, i1, 0); break;
    case OpKind::Z: apply1(s, op.q0, 1, 0, 0, -1); break;
    case OpKind::S: apply1(s, op.q0, 1, 0, 0, i1); break;
    case OpKind::Sdg: apply1(s, op.q0, 1, 0, 0, -i1); break;
    case OpKind::T: apply1(s, op.q0, 1, 0, 0, std::polar(1.0, std::numbers::pi / 4)); break;
    case OpKind::Tdg: apply1(s, op.q0, 1, 0, 0, std::polar(1.0, -std::numbers::pi / 4)); break;
    case OpKind::RX: apply1(s, op.q0, ch, -i1 * sh, -i1 * sh, ch); break;
    case OpKind::RY: apply1(s, op.q0, ch, -sh, sh, ch); break;
    case OpKind::RZ: apply1(s, op.q0, std::polar(1.0, -op.angle / 2), 0, 0,
                            std::polar(1.0, op.angle / 2)); break;
    case OpKind::CX:
    case OpKind::CZ:
    case OpKind::Swap: {
      const std::size_t a = std::size_t{1} << op.q0;
      const std::size_t b = std::size_t{1} << op.q1;
      for (std::size_t i = 0; i < s.size(); ++i) {
        if (op.kind == OpKind::CX && (i & a) != 0 && (i & b) == 0) {
          std::swap(s[i], s[i | b]);
        } else if (op.kind == OpKind::CZ && (i & a) != 0 && (i & b) != 0) {
          s[i] = -s[i];
        } else if (op.kind == OpKind::Swap && (i & a) != 0 && (i & b) == 0) {
          std::swap(s[i], (s[(i & ~a) | b]));
        }
      }
      break;
    }
    case OpKind::Measure:
    case OpKind::Reset: break;
    }
  }
  return s;
}

double chiSquareSurvival(double statistic, unsigned dof) {
  return 1 - gammaP(dof / 2.0, statistic / 2);
}

std::string checkHistogram(const Program& p, const Histogram& h) {
  const unsigned bits = p.circuit.bits();
  std::uint64_t total = 0;
  for (const auto& [key, count] : h) {
    if (key.size() != bits) {
      return fail(p, "outcome '" + key + "' has the wrong width");
    }
    total += count;
  }
  if (total != p.shots) {
    return fail(p, "histogram holds " + std::to_string(total) + " of " +
                       std::to_string(p.shots) + " shots");
  }
  switch (p.expect) {
  case Expect::Fixed:
    if (h.size() != 1 || h.begin()->first != p.fixed) {
      return fail(p, "expected '" + p.fixed + "' on every shot");
    }
    return {};
  case Expect::Ghz: {
    const std::string zeros(bits, '0');
    const std::string ones(bits, '1');
    for (const auto& [key, count] : h) {
      if (key != zeros && key != ones) {
        return fail(p, "GHZ produced '" + key + "'");
      }
    }
    const auto it = h.find(zeros);
    const std::uint64_t k = it == h.end() ? 0 : it->second;
    if (!withinBinomial(k, p.shots, 0.5)) {
      return fail(p, "GHZ outcomes unbalanced: " + std::to_string(k) + " zeros");
    }
    return {};
  }
  case Expect::Reference: {
    const std::vector<Amp> state = referenceState(p.circuit);
    const unsigned n = p.circuit.qubits;
    for (const std::vector<unsigned>& group :
         {std::vector<unsigned>{0, 1, 2}, std::vector<unsigned>{n - 3, n - 2, n - 1}}) {
      if (std::string why = chiSquareMarginal(p, state, h, group); !why.empty()) {
        return why;
      }
    }
    return {};
  }
  case Expect::RepCode: {
    std::string prefix;
    for (const std::string& s : p.syndromes) {
      prefix += s;
    }
    std::uint64_t ones = 0;
    for (const auto& [key, count] : h) {
      if (key.compare(0, prefix.size(), prefix) != 0) {
        return fail(p, "syndrome '" + key.substr(0, prefix.size()) +
                           "' is not fixed by the error (expected '" + prefix + "')");
      }
      const std::string data = key.substr(prefix.size());
      if (data != "000" && data != "111") {
        return fail(p, "corrected data bits disagree: '" + data + "'");
      }
      ones += data == "111" ? count : 0;
    }
    const double s = std::sin(p.theta / 2);
    if (!withinBinomial(ones, p.shots, s * s)) {
      return fail(p, "P(111) off sin^2(theta/2): " + std::to_string(ones) + " of " +
                         std::to_string(p.shots));
    }
    return {};
  }
  case Expect::ActiveReset: {
    std::uint64_t ones = 0;
    for (const auto& [key, count] : h) {
      if (key != "01" && key != "11") {
        return fail(p, "active reset produced '" + key + "'");
      }
      ones += key == "11" ? count : 0;
    }
    if (!withinBinomial(ones, p.shots, 0.5)) {
      return fail(p, "first measurement unbalanced: " + std::to_string(ones));
    }
    return {};
  }
  case Expect::Compile: break;
  }
  return fail(p, "no histogram check for a toolchain program");
}

bool Target::adjacent(unsigned a, unsigned b) const {
  if (a >= qubits || b >= qubits || a == b) {
    return false;
  }
  if (rows == 0) {
    return a + 1 == b || b + 1 == a;
  }
  const unsigned ra = a / cols, ca = a % cols, rb = b / cols, cb = b % cols;
  return (ra == rb && (ca + 1 == cb || cb + 1 == ca)) ||
         (ca == cb && (ra + 1 == rb || rb + 1 == ra));
}

std::vector<Target> targetsFor(unsigned qubits) {
  unsigned rows = static_cast<unsigned>(std::sqrt(static_cast<double>(qubits)));
  rows = std::max(rows, 2U);
  const unsigned cols = (qubits + rows - 1) / rows;
  return {Target{"line:" + std::to_string(qubits), qubits, 0, 0},
          Target{"grid:" + std::to_string(rows) + "x" + std::to_string(cols),
                 rows * cols, rows, cols}};
}

unsigned countCalls(const std::string& text, const std::string& callee) {
  const std::string needle = "call void @" + callee + "(";
  unsigned n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

std::string checkCompiled(const Program& p, const Target& t, const std::string& text) {
  if (p.hCalls != 0) {
    const unsigned h = countCalls(text, "__quantum__qis__h__body");
    if (h != p.hCalls) {
      return fail(p, "Ex. 4 unrolled to " + std::to_string(h) + " h calls, expected " +
                         std::to_string(p.hCalls));
    }
  }
  for (const char* gate : {"__quantum__qis__cnot__body", "__quantum__qis__cz__body",
                           "__quantum__qis__swap__body"}) {
    const std::string needle = "call void @" + std::string(gate) + "(";
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos)) {
      pos += needle.size();
      const long a = parseOperand(text, pos);
      const long b = parseOperand(text, pos);
      if (a < 0 || b < 0) {
        return fail(p, std::string("non-static operand on ") + gate + " after mapping");
      }
      if (!t.adjacent(static_cast<unsigned>(a), static_cast<unsigned>(b))) {
        return fail(p, std::string(gate) + " on (" + std::to_string(a) + "," +
                           std::to_string(b) + ") is not an edge of " + t.name);
      }
    }
  }
  return {};
}

} // namespace perfbench
