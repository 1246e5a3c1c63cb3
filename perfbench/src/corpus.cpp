#include "corpus.hpp"

#include <cmath>
#include <cstdio>
#include <numbers>
#include <set>
#include <stdexcept>

namespace perfbench {

unsigned Circuit::bits() const {
  unsigned n = 0;
  for (const unsigned size : cregs) {
    n += size;
  }
  return n;
}

namespace {

constexpr double kPi = std::numbers::pi;

/// `%.17e` keeps every bit of the angle and is valid in both OpenQASM and
/// LLVM assembly (which requires a decimal point in the mantissa).
std::string real(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17e", v);
  return buf;
}

bool isTwoQubit(OpKind k) {
  return k == OpKind::CX || k == OpKind::CZ || k == OpKind::Swap;
}
bool isRotation(OpKind k) {
  return k == OpKind::RX || k == OpKind::RY || k == OpKind::RZ;
}

const char* qasmName(OpKind k) {
  switch (k) {
  case OpKind::H: return "h";
  case OpKind::X: return "x";
  case OpKind::Y: return "y";
  case OpKind::Z: return "z";
  case OpKind::S: return "s";
  case OpKind::Sdg: return "sdg";
  case OpKind::T: return "t";
  case OpKind::Tdg: return "tdg";
  case OpKind::RX: return "rx";
  case OpKind::RY: return "ry";
  case OpKind::RZ: return "rz";
  case OpKind::CX: return "cx";
  case OpKind::CZ: return "cz";
  case OpKind::Swap: return "swap";
  case OpKind::Measure: return "measure";
  case OpKind::Reset: return "reset";
  }
  return "?";
}

const char* qisName(OpKind k) {
  switch (k) {
  case OpKind::H: return "__quantum__qis__h__body";
  case OpKind::X: return "__quantum__qis__x__body";
  case OpKind::Y: return "__quantum__qis__y__body";
  case OpKind::Z: return "__quantum__qis__z__body";
  case OpKind::S: return "__quantum__qis__s__body";
  case OpKind::Sdg: return "__quantum__qis__s__adj";
  case OpKind::T: return "__quantum__qis__t__body";
  case OpKind::Tdg: return "__quantum__qis__t__adj";
  case OpKind::RX: return "__quantum__qis__rx__body";
  case OpKind::RY: return "__quantum__qis__ry__body";
  case OpKind::RZ: return "__quantum__qis__rz__body";
  case OpKind::CX: return "__quantum__qis__cnot__body";
  case OpKind::CZ: return "__quantum__qis__cz__body";
  case OpKind::Swap: return "__quantum__qis__swap__body";
  case OpKind::Measure: return "__quantum__qis__mz__body";
  case OpKind::Reset: return "__quantum__qis__reset__body";
  }
  return "?";
}

std::string qisSignature(OpKind k) {
  const std::string name = qisName(k);
  if (isRotation(k)) {
    return "declare void @" + name + "(double, ptr)";
  }
  if (isTwoQubit(k) || k == OpKind::Measure) {
    return "declare void @" + name + "(ptr, ptr)";
  }
  return "declare void @" + name + "(ptr)";
}

std::string staticPtr(unsigned index) {
  return index == 0 ? "ptr null"
                    : "ptr inttoptr (i64 " + std::to_string(index) + " to ptr)";
}

/// Flattened bit index -> (register, offset).
std::pair<unsigned, unsigned> locateBit(const Circuit& c, unsigned bit) {
  for (unsigned r = 0; r < c.cregs.size(); ++r) {
    if (bit < c.cregs[r]) {
      return {r, bit};
    }
    bit -= c.cregs[r];
  }
  throw std::logic_error("classical bit out of range");
}

unsigned regBase(const Circuit& c, unsigned reg) {
  unsigned base = 0;
  for (unsigned r = 0; r < reg; ++r) {
    base += c.cregs[r];
  }
  return base;
}

std::string labelGlobals(unsigned bits) {
  std::string s;
  for (unsigned b = 0; b < bits; ++b) {
    const std::string label = "r" + std::to_string(b);
    s += "@lbl." + label + " = internal constant [" +
         std::to_string(label.size() + 1) + " x i8] c\"" + label + "\\00\"\n";
  }
  return s;
}

std::string entryAttributes(const Circuit& c, const char* profile) {
  return "attributes #0 = { \"entry_point\" \"qir_profiles\"=\"" +
         std::string(profile) + "\" \"required_num_qubits\"=\"" +
         std::to_string(c.qubits) + "\" \"required_num_results\"=\"" +
         std::to_string(c.bits()) + "\" }\n";
}

Op gate(OpKind kind, unsigned q0, unsigned q1 = 0, double angle = 0) {
  Op op;
  op.kind = kind;
  op.q0 = q0;
  op.q1 = q1;
  op.angle = angle;
  return op;
}

Op measure(unsigned q, unsigned bit) {
  Op op = gate(OpKind::Measure, q);
  op.bit = bit;
  return op;
}

Op inverse(Op op) {
  switch (op.kind) {
  case OpKind::S: op.kind = OpKind::Sdg; break;
  case OpKind::Sdg: op.kind = OpKind::S; break;
  case OpKind::T: op.kind = OpKind::Tdg; break;
  case OpKind::Tdg: op.kind = OpKind::T; break;
  case OpKind::RX:
  case OpKind::RY:
  case OpKind::RZ: op.angle = -op.angle; break;
  default: break;
  }
  return op;
}

void measureAll(Circuit& c) {
  c.cregs = {c.qubits};
  for (unsigned q = 0; q < c.qubits; ++q) {
    c.ops.push_back(measure(q, q));
  }
}

/// RX(pi) or RX(0) on every qubit: a seeded basis state whose gate count
/// does not depend on the seed. Returns its key.
std::string prepareBasis(Circuit& c, Rng& rng) {
  std::string key(c.qubits, '0');
  for (unsigned q = 0; q < c.qubits; ++q) {
    const bool one = (rng.next() & 1U) != 0;
    c.ops.push_back(gate(OpKind::RX, q, 0, one ? kPi : 0));
    key[q] = one ? '1' : '0';
  }
  return key;
}

void appendQft(Circuit& c) {
  const unsigned n = c.qubits;
  for (unsigned t = 0; t < n; ++t) {
    c.ops.push_back(gate(OpKind::H, t));
    for (unsigned ctl = t + 1; ctl < n; ++ctl) {
      // Controlled phase CP(l) up to global phase.
      const double l = kPi / static_cast<double>(1U << (ctl - t));
      c.ops.push_back(gate(OpKind::RZ, ctl, 0, l / 2));
      c.ops.push_back(gate(OpKind::RZ, t, 0, l / 2));
      c.ops.push_back(gate(OpKind::CX, ctl, t));
      c.ops.push_back(gate(OpKind::RZ, t, 0, -l / 2));
      c.ops.push_back(gate(OpKind::CX, ctl, t));
    }
  }
  for (unsigned q = 0; q < n / 2; ++q) {
    c.ops.push_back(gate(OpKind::Swap, q, n - 1 - q));
  }
}

void appendInverse(Circuit& c, std::size_t from) {
  const std::size_t end = c.ops.size();
  for (std::size_t i = end; i-- > from;) {
    c.ops.push_back(inverse(c.ops[i]));
  }
}

/// One random layer: a single-qubit gate on every qubit and n/2 CX/CZ
/// pairs. Gate kinds and pairs come from \p shape, angles from \p angles;
/// callers seed `shape` with a constant so that the workload seed changes
/// values, never the structure (and so never the work done).
void appendRandomLayer(Circuit& c, Rng& shape, Rng& angles) {
  static constexpr OpKind kOneQubit[] = {OpKind::H,  OpKind::S,  OpKind::T,
                                         OpKind::RX, OpKind::RY, OpKind::RZ};
  for (unsigned q = 0; q < c.qubits; ++q) {
    const OpKind k = kOneQubit[shape.below(6)];
    c.ops.push_back(gate(k, q, 0, isRotation(k) ? angles.uniform() * 2 * kPi : 0));
  }
  for (unsigned p = 0; p < c.qubits / 2; ++p) {
    const unsigned a = shape.below(c.qubits);
    const unsigned b = (a + 1 + shape.below(c.qubits - 1)) % c.qubits;
    c.ops.push_back(gate(shape.below(4) == 0 ? OpKind::CZ : OpKind::CX, a, b));
  }
}

Program fromCircuit(std::string name, Format format, Circuit c, Expect expect) {
  Program p;
  p.name = std::move(name);
  p.format = format;
  p.text = format == Format::Qasm ? toQasm(c) : toQir(c);
  p.circuit = std::move(c);
  p.expect = expect;
  return p;
}

Program ghzProgram(unsigned n, Format format) {
  Circuit c;
  c.qubits = n;
  c.ops.push_back(gate(OpKind::H, 0));
  for (unsigned q = 0; q + 1 < n; ++q) {
    c.ops.push_back(gate(OpKind::CX, q, q + 1));
  }
  measureAll(c);
  return fromCircuit("ghz" + std::to_string(n), format, std::move(c), Expect::Ghz);
}

Program qftInverseProgram(unsigned n, Format format, Rng& rng) {
  Circuit c;
  c.qubits = n;
  const std::string key = prepareBasis(c, rng);
  const std::size_t from = c.ops.size();
  appendQft(c);
  appendInverse(c, from);
  measureAll(c);
  Program p = fromCircuit("qft-inverse" + std::to_string(n), format, std::move(c),
                          Expect::Fixed);
  p.fixed = key;
  return p;
}

Program mirrorProgram(unsigned n, unsigned layers, Format format, Rng& rng) {
  Circuit c;
  c.qubits = n;
  const std::string key = prepareBasis(c, rng);
  const std::size_t from = c.ops.size();
  Rng shape(n * 1000 + layers);
  for (unsigned l = 0; l < layers; ++l) {
    appendRandomLayer(c, shape, rng);
  }
  appendInverse(c, from);
  measureAll(c);
  Program p = fromCircuit("mirror" + std::to_string(n), format, std::move(c),
                          Expect::Fixed);
  p.fixed = key;
  return p;
}

Program randomProgram(unsigned n, unsigned layers, Format format, Rng& rng) {
  Circuit c;
  c.qubits = n;
  Rng shape(n * 1000 + layers + 7);
  for (unsigned l = 0; l < layers; ++l) {
    appendRandomLayer(c, shape, rng);
  }
  measureAll(c);
  return fromCircuit("random" + std::to_string(n), format, std::move(c),
                     Expect::Reference);
}

/// Hardware-efficient ansatz: RY/RZ on every qubit, then a CX ladder.
Program heaProgram(unsigned n, unsigned layers, Format format, Rng& rng) {
  Circuit c;
  c.qubits = n;
  for (unsigned l = 0; l < layers; ++l) {
    for (unsigned q = 0; q < n; ++q) {
      c.ops.push_back(gate(OpKind::RY, q, 0, rng.uniform() * 2 * kPi));
      c.ops.push_back(gate(OpKind::RZ, q, 0, rng.uniform() * 2 * kPi));
    }
    for (unsigned q = 0; q + 1 < n; ++q) {
      c.ops.push_back(gate(OpKind::CX, q, q + 1));
    }
  }
  measureAll(c);
  return fromCircuit("hea" + std::to_string(n), format, std::move(c),
                     Expect::Reference);
}

/// The variational loop as a front end emits it: a counted QIR loop whose
/// body applies RY(i * step) to every qubit and a CX ladder. The model is
/// the unrolled circuit.
Program variationalLoopProgram(unsigned n, unsigned iterations, Rng& rng) {
  const double step = 0.05 + 0.3 * rng.uniform();
  Circuit c;
  c.qubits = n;
  for (unsigned i = 0; i < iterations; ++i) {
    const double theta = static_cast<double>(i) * step;
    for (unsigned q = 0; q < n; ++q) {
      c.ops.push_back(gate(OpKind::RY, q, 0, theta));
    }
    for (unsigned q = 0; q + 1 < n; ++q) {
      c.ops.push_back(gate(OpKind::CX, q, q + 1));
    }
  }
  measureAll(c);

  std::string s = labelGlobals(n);
  s += "\ndefine void @main() #0 {\nentry:\n  br label %header\nheader:\n"
       "  %i = phi i64 [ 0, %entry ], [ %i.next, %latch ]\n"
       "  %cond = icmp slt i64 %i, " +
       std::to_string(iterations) +
       "\n  br i1 %cond, label %kernel, label %exit\nkernel:\n"
       "  %fi = sitofp i64 %i to double\n"
       "  %theta = fmul double %fi, " +
       real(step) + "\n";
  for (unsigned q = 0; q < n; ++q) {
    s += "  call void @__quantum__qis__ry__body(double %theta, " + staticPtr(q) + ")\n";
  }
  for (unsigned q = 0; q + 1 < n; ++q) {
    s += "  call void @__quantum__qis__cnot__body(" + staticPtr(q) + ", " +
         staticPtr(q + 1) + ")\n";
  }
  s += "  br label %latch\nlatch:\n  %i.next = add i64 %i, 1\n  br label %header\n"
       "exit:\n";
  for (unsigned q = 0; q < n; ++q) {
    s += "  call void @__quantum__qis__mz__body(" + staticPtr(q) + ", " +
         staticPtr(q) + ")\n";
  }
  for (unsigned q = 0; q < n; ++q) {
    s += "  call void @__quantum__rt__result_record_output(" + staticPtr(q) +
         ", ptr @lbl.r" + std::to_string(q) + ")\n";
  }
  s += "  ret void\n}\n\n"
       "declare void @__quantum__qis__ry__body(double, ptr)\n"
       "declare void @__quantum__qis__cnot__body(ptr, ptr)\n"
       "declare void @__quantum__qis__mz__body(ptr, ptr)\n"
       "declare void @__quantum__rt__result_record_output(ptr, ptr)\n\n" +
       entryAttributes(c, "base_profile");

  Program p;
  p.name = "variational" + std::to_string(n);
  p.format = Format::Qir;
  p.text = std::move(s);
  p.circuit = std::move(c);
  p.expect = Expect::Reference;
  return p;
}

/// §IV.B bit-flip repetition code over `rounds` syndrome rounds: encode
/// RY(theta)|0> on qubits 0-2, inject X on `errorQubit` (>= 3: none)
/// before round `errorRound`, extract the syndrome into ancillas 3-4
/// (measured, then reset between rounds), correct by classical feedback,
/// and read out the data block.
Program repetitionCodeProgram(double theta, unsigned errorQubit, unsigned errorRound,
                              unsigned rounds, Format format) {
  Circuit c;
  c.qubits = 5;
  for (unsigned r = 0; r < rounds; ++r) {
    c.cregs.push_back(2);
  }
  c.cregs.push_back(3);
  c.ops.push_back(gate(OpKind::RY, 0, 0, theta));
  c.ops.push_back(gate(OpKind::CX, 0, 1));
  c.ops.push_back(gate(OpKind::CX, 0, 2));
  static constexpr const char* kSyndrome[] = {"10", "11", "01", "00"};
  std::vector<std::string> syndromes;
  for (unsigned r = 0; r < rounds; ++r) {
    const bool inject = r == errorRound && errorQubit < 3;
    if (inject) {
      c.ops.push_back(gate(OpKind::X, errorQubit));
    }
    syndromes.emplace_back(inject ? kSyndrome[errorQubit] : "00");
    c.ops.push_back(gate(OpKind::CX, 0, 3));
    c.ops.push_back(gate(OpKind::CX, 1, 3));
    c.ops.push_back(gate(OpKind::CX, 1, 4));
    c.ops.push_back(gate(OpKind::CX, 2, 4));
    c.ops.push_back(measure(3, 2 * r));
    c.ops.push_back(measure(4, 2 * r + 1));
    // Syndrome value (bit 0 = parity(q0,q1)) selects the flipped qubit.
    static constexpr unsigned kValue[] = {1, 3, 2};
    for (unsigned q = 0; q < 3; ++q) {
      Op fix = gate(OpKind::X, q);
      fix.condReg = static_cast<int>(r);
      fix.condValue = kValue[q];
      c.ops.push_back(fix);
    }
    if (r + 1 < rounds) {
      c.ops.push_back(gate(OpKind::Reset, 3));
      c.ops.push_back(gate(OpKind::Reset, 4));
    }
  }
  for (unsigned q = 0; q < 3; ++q) {
    c.ops.push_back(measure(q, 2 * rounds + q));
  }
  const std::string error = errorQubit < 3 ? "x" + std::to_string(errorQubit) : "none";
  Program p = fromCircuit("repcode-r" + std::to_string(rounds) + "-" + error, format,
                          std::move(c), Expect::RepCode);
  p.theta = theta;
  p.syndromes = std::move(syndromes);
  return p;
}

/// Measure H|0>, run a `ops`-long chain of integer adds on the result, and
/// apply X when the chain says the result was 0: the second measurement
/// then reads 1 on every shot (an active reset to |1>).
Program activeResetProgram(unsigned ops, Rng& rng) {
  std::string s = labelGlobals(2);
  s += "\ndefine void @main() #0 {\nentry:\n"
       "  call void @__quantum__qis__h__body(ptr null)\n"
       "  call void @__quantum__qis__mz__body(ptr null, ptr null)\n"
       "  %r = call i1 @__quantum__qis__read_result__body(ptr null)\n"
       "  %v0 = zext i1 %r to i64\n";
  std::uint64_t sum = 0;
  for (unsigned i = 1; i <= ops; ++i) {
    const unsigned k = 1 + rng.below(9);
    sum += k;
    s += "  %v" + std::to_string(i) + " = add i64 %v" + std::to_string(i - 1) + ", " +
         std::to_string(k) + "\n";
  }
  s += "  %c = icmp eq i64 %v" + std::to_string(ops) + ", " + std::to_string(sum) +
       "\n  br i1 %c, label %then, label %continue\nthen:\n"
       "  call void @__quantum__qis__x__body(ptr null)\n"
       "  br label %continue\ncontinue:\n"
       "  call void @__quantum__qis__mz__body(ptr null, " +
       staticPtr(1) +
       ")\n"
       "  call void @__quantum__rt__result_record_output(ptr null, ptr @lbl.r0)\n"
       "  call void @__quantum__rt__result_record_output(" +
       staticPtr(1) +
       ", ptr @lbl.r1)\n  ret void\n}\n\n"
       "declare void @__quantum__qis__h__body(ptr)\n"
       "declare void @__quantum__qis__x__body(ptr)\n"
       "declare void @__quantum__qis__mz__body(ptr, ptr)\n"
       "declare i1 @__quantum__qis__read_result__body(ptr)\n"
       "declare void @__quantum__rt__result_record_output(ptr, ptr)\n\n";
  Circuit c;
  c.qubits = 1;
  c.cregs = {2};
  s += entryAttributes(c, "adaptive_profile");
  Program p;
  p.name = "active-reset-tail" + std::to_string(ops);
  p.format = Format::Qir;
  p.text = std::move(s);
  p.circuit = std::move(c);
  p.expect = Expect::ActiveReset;
  return p;
}

/// The paper's Ex. 4: H on qubits 0..n-1 through an alloca/load/store
/// counted loop, as a front end emits it.
Program ex4LoopProgram(unsigned n) {
  Program p;
  p.name = "ex4-loop" + std::to_string(n);
  p.format = Format::Qir;
  p.expect = Expect::Compile;
  p.hCalls = n;
  p.circuit.qubits = n;
  p.text = "declare void @__quantum__qis__h__body(ptr)\n\n"
           "define void @main() #0 {\nentry:\n"
           "  %i = alloca i32, align 4\n  store i32 0, ptr %i, align 4\n"
           "  br label %for.header\nfor.header:\n"
           "  %1 = load i32, ptr %i, align 4\n"
           "  %cond = icmp slt i32 %1, " +
           std::to_string(n) +
           "\n  br i1 %cond, label %body, label %exit\nbody:\n"
           "  %2 = load i32, ptr %i, align 4\n  %q64 = sext i32 %2 to i64\n"
           "  %q = inttoptr i64 %q64 to ptr\n"
           "  call void @__quantum__qis__h__body(ptr %q)\n"
           "  %3 = load i32, ptr %i, align 4\n  %4 = add nsw i32 %3, 1\n"
           "  store i32 %4, ptr %i, align 4\n  br label %for.header\n"
           "exit:\n  ret void\n}\n\nattributes #0 = { \"entry_point\" }\n";
  return p;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  Rng r(seed ^ (stream * 0xd1b54a32d192ed03ULL));
  return r.next();
}

} // namespace

std::string toQasm(const Circuit& c) {
  std::string s = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[" +
                  std::to_string(c.qubits) + "];\n";
  for (unsigned r = 0; r < c.cregs.size(); ++r) {
    s += "creg c" + std::to_string(r) + "[" + std::to_string(c.cregs[r]) + "];\n";
  }
  for (const Op& op : c.ops) {
    if (op.condReg >= 0) {
      s += "if(c" + std::to_string(op.condReg) + "==" + std::to_string(op.condValue) +
           ") ";
    }
    const std::string q0 = "q[" + std::to_string(op.q0) + "]";
    if (op.kind == OpKind::Measure) {
      const auto [reg, idx] = locateBit(c, op.bit);
      s += "measure " + q0 + " -> c" + std::to_string(reg) + "[" +
           std::to_string(idx) + "];\n";
    } else if (isTwoQubit(op.kind)) {
      s += std::string(qasmName(op.kind)) + " " + q0 + ",q[" + std::to_string(op.q1) +
           "];\n";
    } else if (isRotation(op.kind)) {
      s += std::string(qasmName(op.kind)) + "(" + real(op.angle) + ") " + q0 + ";\n";
    } else {
      s += std::string(qasmName(op.kind)) + " " + q0 + ";\n";
    }
  }
  return s;
}

std::string toQir(const Circuit& c) {
  std::string body;
  std::set<OpKind> used;
  bool readsResults = false;
  unsigned tmp = 0;
  unsigned blocks = 0;
  for (const Op& op : c.ops) {
    used.insert(op.kind);
    std::string call = "  call void @" + std::string(qisName(op.kind)) + "(";
    if (isRotation(op.kind)) {
      call += "double " + real(op.angle) + ", " + staticPtr(op.q0);
    } else if (isTwoQubit(op.kind)) {
      call += staticPtr(op.q0) + ", " + staticPtr(op.q1);
    } else if (op.kind == OpKind::Measure) {
      call += staticPtr(op.q0) + ", " + staticPtr(op.bit);
    } else {
      call += staticPtr(op.q0);
    }
    call += ")\n";
    if (op.condReg < 0) {
      body += call;
      continue;
    }
    // creg == value, bit by bit over the register's results.
    readsResults = true;
    const unsigned base = regBase(c, static_cast<unsigned>(op.condReg));
    std::string cond;
    for (unsigned j = 0; j < c.cregs[op.condReg]; ++j) {
      std::string bit = "%t" + std::to_string(tmp++);
      body += "  " + bit + " = call i1 @__quantum__qis__read_result__body(" +
              staticPtr(base + j) + ")\n";
      if (((op.condValue >> j) & 1U) == 0) {
        const std::string neg = "%t" + std::to_string(tmp++);
        body += "  " + neg + " = xor i1 " + bit + ", true\n";
        bit = neg;
      }
      if (cond.empty()) {
        cond = bit;
      } else {
        const std::string both = "%t" + std::to_string(tmp++);
        body += "  " + both + " = and i1 " + cond + ", " + bit + "\n";
        cond = both;
      }
    }
    const std::string k = std::to_string(blocks++);
    body += "  br i1 " + cond + ", label %then" + k + ", label %cont" + k + "\nthen" +
            k + ":\n" + call + "  br label %cont" + k + "\ncont" + k + ":\n";
  }
  for (unsigned b = 0; b < c.bits(); ++b) {
    body += "  call void @__quantum__rt__result_record_output(" + staticPtr(b) +
            ", ptr @lbl.r" + std::to_string(b) + ")\n";
  }
  std::string s = labelGlobals(c.bits()) + "\ndefine void @main() #0 {\nentry:\n" +
                  body + "  ret void\n}\n\n";
  for (const OpKind k : used) {
    s += qisSignature(k) + "\n";
  }
  if (readsResults) {
    s += "declare i1 @__quantum__qis__read_result__body(ptr)\n";
  }
  s += "declare void @__quantum__rt__result_record_output(ptr, ptr)\n\n";
  return s + entryAttributes(c, readsResults ? "adaptive_profile" : "base_profile");
}

std::string toQirDynamic(const Circuit& c) {
  std::string body = "  %qa = alloca ptr, align 8\n"
                     "  %q0 = call ptr @__quantum__rt__qubit_allocate_array(i64 " +
                     std::to_string(c.qubits) +
                     ")\n  store ptr %q0, ptr %qa, align 8\n"
                     "  %ca = alloca ptr, align 8\n"
                     "  %c0 = call ptr @__quantum__rt__array_create_1d(i32 1, i64 " +
                     std::to_string(c.bits()) +
                     ")\n  store ptr %c0, ptr %ca, align 8\n";
  std::set<OpKind> used;
  unsigned tmp = 0;
  const auto element = [&](const char* array, unsigned index) {
    const std::string base = "%e" + std::to_string(tmp++);
    const std::string elt = "%e" + std::to_string(tmp++);
    body += "  " + base + " = load ptr, ptr " + array + ", align 8\n  " + elt +
            " = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr " + base +
            ", i64 " + std::to_string(index) + ")\n";
    return "ptr " + elt;
  };
  for (const Op& op : c.ops) {
    if (op.condReg >= 0) {
      throw std::logic_error("dynamic printer: conditions unsupported");
    }
    used.insert(op.kind);
    std::string args;
    if (isRotation(op.kind)) {
      args = "double " + real(op.angle) + ", " + element("%qa", op.q0);
    } else if (isTwoQubit(op.kind)) {
      const std::string a = element("%qa", op.q0);
      args = a + ", " + element("%qa", op.q1);
    } else if (op.kind == OpKind::Measure) {
      const std::string a = element("%qa", op.q0);
      args = a + ", " + element("%ca", op.bit);
    } else {
      args = element("%qa", op.q0);
    }
    body += "  call void @" + std::string(qisName(op.kind)) + "(" + args + ")\n";
  }
  for (unsigned b = 0; b < c.bits(); ++b) {
    const std::string r = element("%ca", b);
    body += "  call void @__quantum__rt__result_record_output(" + r + ", ptr @lbl.r" +
            std::to_string(b) + ")\n";
  }
  body += "  %qr = load ptr, ptr %qa, align 8\n"
          "  call void @__quantum__rt__qubit_release_array(ptr %qr)\n";
  std::string s = labelGlobals(c.bits()) + "\ndefine void @main() #0 {\nentry:\n" +
                  body + "  ret void\n}\n\n"
                  "declare ptr @__quantum__rt__qubit_allocate_array(i64)\n"
                  "declare ptr @__quantum__rt__array_create_1d(i32, i64)\n"
                  "declare ptr @__quantum__rt__array_get_element_ptr_1d(ptr, i64)\n"
                  "declare void @__quantum__rt__qubit_release_array(ptr)\n";
  for (const OpKind k : used) {
    s += qisSignature(k) + "\n";
  }
  s += "declare void @__quantum__rt__result_record_output(ptr, ptr)\n\n";
  return s + "attributes #0 = { \"entry_point\" }\n";
}

std::vector<Program> runSampleCorpus(std::uint64_t seed) {
  Rng rng(mix(seed, 1));
  std::vector<Program> corpus;
  corpus.push_back(ghzProgram(16, Format::Qasm));
  corpus.push_back(ghzProgram(18, Format::Qir));
  corpus.push_back(qftInverseProgram(14, Format::Qasm, rng));
  corpus.push_back(qftInverseProgram(16, Format::Qir, rng));
  corpus.push_back(mirrorProgram(16, 24, Format::Qasm, rng));
  corpus.push_back(mirrorProgram(18, 12, Format::Qir, rng));
  corpus.push_back(heaProgram(14, 8, Format::Qasm, rng));
  corpus.push_back(heaProgram(16, 6, Format::Qir, rng));
  corpus.push_back(randomProgram(14, 24, Format::Qasm, rng));
  corpus.push_back(variationalLoopProgram(14, 8, rng));
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    corpus[i].shots = 1024;
    corpus[i].seed = mix(seed, 100 + i);
  }
  return corpus;
}

std::vector<Program> runFeedbackCorpus(std::uint64_t seed) {
  Rng rng(mix(seed, 2));
  std::vector<Program> corpus;
  for (unsigned err = 0; err <= 3; ++err) {
    const double theta = 0.6 + 1.9 * rng.uniform();
    corpus.push_back(repetitionCodeProgram(theta, err, 0, 1,
                                           err % 2 == 0 ? Format::Qasm : Format::Qir));
  }
  // Three rounds: an error on q0 before round 2, and on q2 before round 3.
  for (unsigned v = 0; v < 2; ++v) {
    const double theta = 0.6 + 1.9 * rng.uniform();
    corpus.push_back(repetitionCodeProgram(theta, v == 0 ? 0 : 2, v + 1, 3,
                                           v == 0 ? Format::Qasm : Format::Qir));
  }
  for (const unsigned ops : {10U, 100U, 1000U}) {
    corpus.push_back(activeResetProgram(ops, rng));
  }
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    corpus[i].shots = 2000;
    corpus[i].seed = mix(seed, 200 + i);
  }
  return corpus;
}

std::vector<Program> serveKnownCorpus(std::uint64_t seed) {
  Rng rng(mix(seed, 3));
  std::vector<Program> corpus;
  for (unsigned i = 0; i < 24; ++i) {
    const Format f = i % 2 == 0 ? Format::Qasm : Format::Qir;
    switch (i % 6) {
    case 0: corpus.push_back(randomProgram(12, 16, f, rng)); break;
    case 1: corpus.push_back(ghzProgram(14, f)); break;
    case 2: corpus.push_back(qftInverseProgram(12, f, rng)); break;
    case 3: corpus.push_back(mirrorProgram(13, 10, f, rng)); break;
    case 4: corpus.push_back(heaProgram(12, 6, f, rng)); break;
    default: corpus.push_back(randomProgram(13, 12, f, rng)); break;
    }
    corpus.back().name += "-" + std::to_string(i);
    corpus.back().shots = 1024;
    corpus.back().seed = mix(seed, 300 + i);
  }
  return corpus;
}

Program serveFreshProgram(std::uint64_t seed, std::uint64_t index) {
  Rng rng(mix(seed, 1000 + index));
  Program p = randomProgram(12, 16, index % 2 == 0 ? Format::Qasm : Format::Qir, rng);
  p.name = "fresh-" + std::to_string(index);
  p.shots = 1024;
  p.seed = rng.next();
  return p;
}

std::vector<Program> toolchainCorpus(std::uint64_t seed) {
  Rng rng(mix(seed, 4));
  std::vector<Program> corpus;
  corpus.push_back(ex4LoopProgram(256));
  corpus.push_back(ex4LoopProgram(1024));
  corpus.push_back(variationalLoopProgram(8, 16, rng));

  Circuit qft;
  qft.qubits = 10;
  for (unsigned q = 0; q < qft.qubits; ++q) {
    // Never 0 or a multiple of pi, so the circuit optimizer removes none.
    qft.ops.push_back(gate(OpKind::RY, q, 0, 0.2 + 2.5 * rng.uniform()));
  }
  appendQft(qft);
  measureAll(qft);
  Program dynamic;
  dynamic.name = "qft10-dynamic";
  dynamic.format = Format::Qir;
  dynamic.text = toQirDynamic(qft);
  dynamic.circuit = std::move(qft);
  corpus.push_back(std::move(dynamic));

  corpus.push_back(randomProgram(10, 12, Format::Qasm, rng));
  corpus.back().name = "roundtrip-random10";
  for (Program& p : corpus) {
    p.expect = Expect::Compile;
  }
  return corpus;
}

} // namespace perfbench
