/// \file main.cpp
/// End-to-end benchmark of qirkit: program text in, histogram (or
/// compiled text) out, through the same public calls `qirkit run`,
/// `qirkit serve` and `qirkit compile` make. One workload per invocation;
/// the last line of stdout is the JSON result. See ../README.md.
///
///   perfbench --workload W --seed N --seconds S --trace 0|1
///             --qirkit PATH --workdir DIR [--llvm-as PATH]

#include "checks.hpp"
#include "corpus.hpp"
#include "probe.hpp"
#include "spans.hpp"

#include "ir/module.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "qasm/parser.hpp"
#include "qasm/printer.hpp"
#include "qir/compile.hpp"
#include "qir/exporter.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "support/telemetry/request_trace.hpp"
#include "support/telemetry/telemetry.hpp"
#include "vm/cache.hpp"
#include "vm/executor.hpp"

#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <spawn.h>
#include <sstream>
#include <stdexcept>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char** environ;

namespace pb = perfbench;
using namespace qirkit;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string qirkit;
  std::string workdir;
  std::string llvmAs = "/usr/lib/llvm-14/bin/llvm-as";
};

/// Set-ups a run times besides its first (see SetupClock).
constexpr int kSetupRepeats = 8;
struct Sample {
  std::size_t group = 0; // program (or program class) the job ran
  double ms = 0;
  double rel = 0; // ms over the adjacent probes' ms (untraced runs)
};

/// Per-layer counts gathered beside the spans (traced run only).
struct LayerCounts {
  std::map<std::string, double> sum;
  std::map<std::string, double> n;
  void add(const std::string& key, double v) {
    sum[key] += v;
    n[key] += 1;
  }
  [[nodiscard]] double mean(const std::string& key) const {
    const auto it = n.find(key);
    return it == n.end() || it->second == 0 ? 0 : sum.at(key) / it->second;
  }
  [[nodiscard]] double total(const std::string& key) const {
    const auto it = sum.find(key);
    return it == sum.end() ? 0 : it->second;
  }
  void merge(const LayerCounts& o) {
    for (const auto& [k, v] : o.sum) {
      sum[k] += v;
    }
    for (const auto& [k, v] : o.n) {
      n[k] += v;
    }
  }
};

/// Everything one worker thread produced.
struct Worker {
  std::vector<Sample> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::unique_ptr<pb::SpanRecorder> spans;
  LayerCounts counts;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) {
      errors.push_back(what);
    }
  }
};

struct RunResult {
  std::vector<Worker> workers;
  double wallS = 0; // the timed section
  double setupS = 0;
  double peakRssMb = 0;
  double outInstructions = 0;
  std::vector<std::string> checkErrors;
  std::vector<std::string> notes;
  telemetry::Snapshot telemetryDelta;
};

// -- helpers -----------------------------------------------------------------

[[noreturn]] void die(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n";
  std::exit(2);
}

double seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string layerOfStage(const telemetry::RequestStage& s) {
  if (s.name == "compile") {
    return s.note == "miss" ? "vm.compile" : "vm.cache.hit";
  }
  if (s.name == "analyze") {
    return "vm.analysis";
  }
  if (s.name == "execute") {
    return s.note.rfind("sample", 0) == 0 ? "sim.sample" : "vm.execute";
  }
  if (s.name == "queue") {
    return "service.queue_wait";
  }
  return "service." + s.name;
}

/// Runs argv with stdout to \p outPath; returns the exit status.
int spawnToFile(const std::vector<std::string>& argv, const std::string& outPath) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, outPath.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, 2, (outPath + ".err").c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> cargv;
  for (const std::string& a : argv) {
    cargv.push_back(const_cast<char*>(a.c_str()));
  }
  cargv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, cargv[0], &actions, nullptr, cargv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    return -1;
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) {
    die("cannot write " + path);
  }
}

/// The histogram lines `qirkit run` / `qirkit submit` print.
pb::Histogram parseCliHistogram(const std::string& out) {
  pb::Histogram h;
  std::istringstream in(out);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("shots:", 0) == 0) {
      continue;
    }
    const std::size_t colon = line.rfind(": ");
    if (colon != std::string::npos) {
      h[line.substr(0, colon)] = std::stoull(line.substr(colon + 2));
    }
  }
  return h;
}

pb::Histogram histogramOf(const service::json::Value& root) {
  pb::Histogram h;
  if (const service::json::Value* hist = root.find("histogram")) {
    for (const auto& [bits, count] : hist->object) {
      h[bits] = static_cast<std::uint64_t>(count.number);
    }
  }
  return h;
}

/// Set-up times are stated at the speed of a host on which the reference
/// probe takes this long, as job_rel is stated in probe times: the host's
/// slow phases move raw set-up medians by 30% between sets of runs.
constexpr double kProbeRefMs = 1.0;

/// Times a set-up in pieces: corpus generation (or daemon start), then one
/// warm-up per program, each piece against the probes run before and after
/// it (as ProbeClock does for jobs). setup_s sums each piece's fastest
/// relative time over all the set-ups of a run, times kProbeRefMs. A
/// shared host's slow phases last seconds, so the set-ups are spread over
/// the run: on run-* and toolchain, one before the timed section and
/// kSetupRepeats evenly spaced between its rounds (untraced runs only:
/// set-up jobs would enter the traced run's telemetry); on serve-mixed,
/// whose connections do not pause, half before the timed section and half
/// after it. A set-up is deterministic per seed, so every one rebuilds the
/// same state.
class SetupClock {
public:
  /// Runs \p setUp \p times times; it calls lap() as each piece ends.
  void time(const std::function<void()>& setUp, int times = 1) {
    for (int rep = 0; rep < times; ++rep) {
      piece_ = 0;
      probeMs_ = pb::probeMs();
      t0_ = pb::nowNs();
      setUp();
    }
  }
  /// Spaces kSetupRepeats set-ups evenly over [start, end).
  void spread(std::uint64_t start, std::uint64_t end) {
    every_ = (end - start) / kSetupRepeats;
    next_ = start + every_ / 2;
  }
  /// Called between rounds of the timed loop: runs \p setUp when the next
  /// spaced set-up is due.
  void between(const std::function<void()>& setUp) {
    if (every_ != 0 && pb::nowNs() >= next_) {
      time(setUp);
      next_ += every_;
    }
  }
  void lap() {
    const double ms = static_cast<double>(pb::nowNs() - t0_) * 1e-6;
    const double probe = pb::probeMs();
    const double rel = ms / ((probeMs_ + probe) / 2);
    probeMs_ = probe;
    if (piece_ == fastest_.size()) {
      fastest_.push_back(rel);
    } else {
      fastest_[piece_] = std::min(fastest_[piece_], rel);
    }
    ++piece_;
    t0_ = pb::nowNs();
  }
  /// Seconds.
  [[nodiscard]] double total() const {
    return std::accumulate(fastest_.begin(), fastest_.end(), 0.0) * kProbeRefMs * 1e-3;
  }

private:
  std::vector<double> fastest_; // per piece, in probe times
  std::size_t piece_ = 0;
  double probeMs_ = 0; // the probe before the current piece
  std::uint64_t t0_ = 0;
  std::uint64_t every_ = 0; // 0: no set-ups in the timed section
  std::uint64_t next_ = 0;
};

// -- the run path: what one `qirkit run` process does ------------------------

std::unique_ptr<ir::Module> loadProgram(ir::Context& ctx, const pb::Program& p,
                                        pb::SpanRecorder* rec, std::uint64_t job,
                                        LayerCounts* counts) {
  if (p.format == pb::Format::Qasm) {
    circuit::Circuit c = [&] {
      const pb::Scope s(rec, "qasm.parse", job);
      return qasm::parse(p.text);
    }();
    const pb::Scope s(rec, "qir.export", job);
    qir::ExportOptions options;
    options.addressing = qir::Addressing::Static;
    return qir::exportCircuit(ctx, c, options);
  }
  if (counts != nullptr) {
    counts->add("ir.parse.bytes", static_cast<double>(p.text.size()));
  }
  const pb::Scope s(rec, "ir.parse", job);
  return ir::parseModule(ctx, p.text, p.name);
}

/// The compile options vm::runShots derives from \p options.
vm::CompileOptions compileOptionsOf(const vm::ShotOptions& options) {
  return {.fuseGates = options.fusion,
          .dispatch = options.dispatch,
          .superinstructions = options.dispatch == vm::DispatchMode::Threaded};
}

/// Instructions of the QIR module the front end hands the executor: what
/// qir::exportCircuit emits for OpenQASM input, the parsed module for QIR.
double moduleSize(const pb::Program& p) {
  ir::Context ctx;
  return static_cast<double>(loadProgram(ctx, p, nullptr, 0, nullptr)->instructionCount());
}

/// What one job hands back: its histogram, its wall time and, when the batch
/// did not take the path its workload exists to measure, why.
struct JobOutput {
  pb::Histogram histogram;
  double ms = 0;
  std::string pathError;
};

/// The path check: run-sample must be served by the sampling path and
/// run-feedback by per-shot resimulation, both on the VM. A silent fallback
/// would give right histograms while the figures stop measuring the path.
std::string checkPath(const pb::Program& p, const vm::ShotBatchResult& r, bool wantSampled) {
  if (r.degradedToInterp) {
    return p.name + ": degraded to the interpreter: " + r.degradeReason;
  }
  if (r.sampleFallback) {
    return p.name + ": sampling path fell back to resimulation: " + r.sampleFallbackReason;
  }
  if (r.sampled != wantSampled) {
    return p.name + (wantSampled ? ": not served by the sampling path"
                                 : ": served by the sampling path, expected resimulation");
  }
  return {};
}

/// One cold `qirkit run` job with the CLI defaults and its own cache. Its
/// time runs from the first call to the histogram in hand; the traced run's
/// extra warm-cache lookup comes after it.
JobOutput runJob(const pb::Program& p, bool wantSampled, Worker& w, std::uint64_t job) {
  pb::SpanRecorder* rec = w.spans.get();
  const std::uint64_t t0 = pb::nowNs();
  ir::Context ctx;
  vm::CompileCache cache;
  std::unique_ptr<ir::Module> module;
  vm::ShotOptions options;
  options.shots = p.shots;
  options.seed = p.seed;
  options.cache = &cache;
  std::optional<telemetry::RequestTrace> trace;
  if (rec != nullptr) {
    trace.emplace("bench", p.name);
    options.requestTrace = &*trace;
  }
  vm::ShotBatchResult result;
  {
    const pb::Scope jobScope(rec, "job", job);
    module = loadProgram(ctx, p, rec, job, rec != nullptr ? &w.counts : nullptr);
    const pb::Scope runScope(rec, "vm.run", job);
    result = vm::runShots(*module, options);
    if (rec != nullptr) {
      for (const telemetry::RequestStage& s : trace->stages()) {
        rec->add(layerOfStage(s), s.startNs, s.startNs + s.durNs, rec->current(), job);
        if (s.name == "compile") {
          w.counts.add("compile.hit", s.note != "miss" ? 1 : 0);
        }
      }
    }
  }
  JobOutput out;
  out.ms = static_cast<double>(pb::nowNs() - t0) * 1e-6;
  if (rec != nullptr) {
    w.counts.add("runtime.gates_per_shot", static_cast<double>(result.lastShotStats.gatesApplied));
    w.counts.add("runtime.measurements_per_shot",
                 static_cast<double>(result.lastShotStats.measurements));
    w.counts.add("runtime.shots", static_cast<double>(result.completedShots));
    // A warm-cache lookup of the same program: what a resubmission pays.
    const pb::Scope s(rec, "vm.cache.hit", job);
    (void)cache.getOrCompile(*module, compileOptionsOf(options));
  }
  if (result.failedShots != 0 || result.deadlineExceeded) {
    throw std::runtime_error(p.name + ": " + std::to_string(result.failedShots) +
                             " shot(s) failed");
  }
  out.pathError = checkPath(p, result, wantSampled);
  out.histogram = std::move(result.histogram);
  return out;
}

/// Post-run check that the harness measures what a CLI user gets: the real
/// `qirkit run` and `qirkit submit` give the in-process histograms.
void checkAgainstCli(const Args& args, const std::vector<pb::Program>& corpus,
                     const std::vector<pb::Histogram>& expected, RunResult& out) {
  const std::string dir = args.workdir + "/cli-" + std::to_string(getpid());
  std::filesystem::create_directories(dir);
  const std::string socket = dir + "/s.sock";
  service::ServerOptions options;
  options.socketPath = socket;
  options.runners = 1;
  options.poolThreads = 1;
  service::Server server(std::move(options));
  server.start();
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const pb::Program& p = corpus[i];
    const std::string file =
        dir + "/p" + std::to_string(i) + (p.format == pb::Format::Qasm ? ".qasm" : ".ll");
    writeFile(file, p.text);
    const std::string shots = std::to_string(p.shots);
    const std::string seed = std::to_string(p.seed);
    const std::vector<std::vector<std::string>> commands = {
        {args.qirkit, "run", file, "--shots", shots, "--seed", seed},
        {args.qirkit, "submit", file, "--socket", socket, "--shots", shots, "--seed",
         seed}};
    for (const auto& argv : commands) {
      const std::string outPath = dir + "/out.txt";
      const int rc = spawnToFile(argv, outPath);
      if (rc != 0) {
        out.checkErrors.push_back(p.name + ": qirkit " + argv[1] + " exited " +
                                  std::to_string(rc));
      } else if (parseCliHistogram(readFile(outPath)) != expected[i]) {
        out.checkErrors.push_back(p.name + ": qirkit " + argv[1] +
                                  " histogram differs from the in-process run");
      }
    }
  }
  server.stop();
  std::filesystem::remove_all(dir);
  out.notes.push_back("cli check: qirkit run + submit on " +
                      std::to_string(corpus.size()) + " programs");
}

RunResult runWorkload(const Args& args, bool feedback) {
  RunResult out;
  std::vector<pb::Program> corpus;
  std::vector<pb::Histogram> expected;
  SetupClock setups;
  std::vector<std::string> pathErrors;
  Worker warmup;
  const auto setUp = [&] {
    corpus = feedback ? pb::runFeedbackCorpus(args.seed) : pb::runSampleCorpus(args.seed);
    expected.assign(corpus.size(), {});
    pathErrors.assign(corpus.size(), {});
    setups.lap();
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      JobOutput o = runJob(corpus[i], !feedback, warmup, 0); // warm-up; checked below
      expected[i] = std::move(o.histogram);
      pathErrors[i] = std::move(o.pathError);
      setups.lap();
    }
  };
  setups.time(setUp);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    if (std::string why = pb::checkHistogram(corpus[i], expected[i]); !why.empty()) {
      out.checkErrors.push_back(why);
    }
    if (!pathErrors[i].empty()) {
      out.checkErrors.push_back(pathErrors[i]);
    }
  }

  out.workers.resize(1);
  Worker& w = out.workers[0];
  if (args.trace) {
    w.spans = std::make_unique<pb::SpanRecorder>();
  }
  const telemetry::Snapshot before = telemetry::snapshot();
  const std::uint64_t start = pb::nowNs();
  const auto deadline = start + static_cast<std::uint64_t>(args.seconds * 1e9);
  if (!args.trace) {
    setups.spread(start, deadline);
  }
  pb::ProbeClock probe(!args.trace);
  std::uint64_t job = 0;
  while (pb::nowNs() < deadline) {
    setups.between(setUp);
    probe.reset();
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      ++w.attempted;
      ++job;
      try {
        probe.before();
        const JobOutput o = runJob(corpus[i], !feedback, w, job);
        w.samples.push_back({i, o.ms, probe.after(o.ms)});
        if (!o.pathError.empty()) {
          out.checkErrors.push_back(o.pathError);
        }
        if (o.histogram != expected[i]) {
          out.checkErrors.push_back(corpus[i].name + ": histogram changed between runs");
        }
      } catch (const std::exception& e) {
        w.fail(e.what());
        probe.reset();
      }
    }
  }
  out.wallS = seconds(pb::nowNs() - start);
  out.peakRssMb = peakRssMb();
  out.telemetryDelta = telemetry::diff(before, telemetry::snapshot());
  out.setupS = setups.total();

  for (const pb::Program& p : corpus) {
    out.outInstructions += moduleSize(p);
  }
  checkAgainstCli(args, corpus, expected, out);
  return out;
}

// -- serve-mixed: a live daemon in a closed loop -----------------------------

constexpr int kConnections = 2;
constexpr std::size_t kPerRound = 8; // 7 resubmissions + 1 never-seen program
constexpr std::size_t kFreshChecked = 8; // fresh programs per client re-run in process

struct ServeState {
  std::unique_ptr<service::Server> server;
  std::vector<pb::Program> known;
  std::vector<std::string> ids;
  std::vector<pb::Histogram> expected;
};

service::json::Value submit(service::Client& client, const service::SubmitRequest& req,
                            pb::SpanRecorder* rec, std::uint64_t job, LayerCounts* counts) {
  const std::string line = service::submitRequestJson(req);
  std::string response;
  int roundtrip = -1;
  if (rec != nullptr) {
    roundtrip = rec->open("service.roundtrip", job);
  }
  response = client.call(line);
  if (rec != nullptr) {
    rec->close();
  }
  service::json::Value root = [&] {
    const pb::Scope s(rec, "service.json_parse", job);
    return service::json::parse(response);
  }();
  const service::json::Value* ok = root.find("ok");
  if (ok == nullptr || !ok->isBool() || !ok->boolean) {
    throw std::runtime_error("submit failed: " + response.substr(0, 200));
  }
  if (rec != nullptr) {
    counts->add("service.response_bytes", static_cast<double>(response.size()));
    counts->add("runtime.gates_per_shot",
                static_cast<double>(root.find("gates_per_shot")->asU64("gates_per_shot")));
    counts->add("runtime.measurements_per_shot",
                static_cast<double>(
                    root.find("measurements_per_shot")->asU64("measurements_per_shot")));
    counts->add("runtime.shots", static_cast<double>(req.shots));
    if (const service::json::Value* stages = root.find("stages")) {
      for (const service::json::Value& st : stages->array) {
        telemetry::RequestStage s;
        s.name = st.find("stage")->string;
        const service::json::Value* note = st.find("note");
        s.note = note != nullptr ? note->string : "";
        s.durNs = st.find("dur_ns")->asU64("dur_ns");
        const std::uint64_t begin = rec->spans()[static_cast<std::size_t>(roundtrip)].startNs;
        rec->add(layerOfStage(s), begin, begin + s.durNs, roundtrip, job);
        if (s.name == "compile") {
          counts->add("compile.hit", s.note != "miss" ? 1 : 0);
        }
      }
    }
  }
  return root;
}

/// The served counterpart of checkPath: every serve-mixed program has
/// terminal measurements, so the daemon must sample it on the VM.
std::string checkServedPath(const std::string& name, const service::json::Value& root) {
  if (const service::json::Value* why = root.find("degraded")) {
    return name + ": served on the interpreter: " + why->string;
  }
  if (const service::json::Value* why = root.find("sample_fallback")) {
    return name + ": served by resimulation after a sampling fault: " + why->string;
  }
  const service::json::Value* sampled = root.find("sampled");
  if (sampled == nullptr || !sampled->isBool() || !sampled->boolean) {
    return name + ": not served by the sampling path";
  }
  return {};
}

ServeState serveSetup(const Args& args, const std::string& socket, SetupClock& clock) {
  ServeState st;
  st.known = pb::serveKnownCorpus(args.seed);
  service::ServerOptions options;
  options.socketPath = socket;
  options.runners = 2;
  options.poolThreads = 1;
  st.server = std::make_unique<service::Server>(std::move(options));
  st.server->start();
  service::Client client(socket);
  clock.lap();
  for (const pb::Program& p : st.known) {
    service::SubmitRequest req;
    req.tenant = "warmup";
    req.program = p.text;
    req.shots = p.shots;
    req.seed = p.seed;
    const service::json::Value root = submit(client, req, nullptr, 0, nullptr);
    st.ids.push_back(root.find("program_id")->string);
    st.expected.push_back(histogramOf(root));
    clock.lap();
  }
  return st;
}

/// In-process reference: the same program, seed and shots through
/// vm::runShots.
pb::Histogram inProcess(const pb::Program& p) {
  ir::Context ctx;
  const auto module = loadProgram(ctx, p, nullptr, 0, nullptr);
  vm::ShotOptions options;
  options.shots = p.shots;
  options.seed = p.seed;
  vm::CompileCache cache;
  options.cache = &cache;
  return vm::runShots(*module, options).histogram;
}

RunResult serveWorkload(const Args& args) {
  RunResult out;
  const std::string socket = args.workdir + "/serve-" + std::to_string(getpid()) + ".sock";
  ServeState st;
  SetupClock setups;
  const auto setUp = [&] {
    st = ServeState{};
    st = serveSetup(args, socket, setups);
  };
  setups.time(setUp, kSetupRepeats / 2);
  for (std::size_t i = 0; i < st.known.size(); ++i) {
    if (std::string why = pb::checkHistogram(st.known[i], st.expected[i]); !why.empty()) {
      out.checkErrors.push_back(why);
    }
  }

  out.workers.resize(kConnections);
  std::vector<std::vector<std::pair<std::uint64_t, pb::Histogram>>> fresh(kConnections);
  std::vector<std::vector<std::string>> mismatches(kConnections);
  const telemetry::Snapshot before = telemetry::snapshot();
  std::barrier sync(kConnections + 1);
  std::uint64_t start = 0;
  std::uint64_t deadline = 0;
  const std::size_t groups = st.known.size() + 1; // + the never-seen class
  std::vector<std::thread> threads;
  for (int t = 0; t < kConnections; ++t) {
    threads.emplace_back([&, t] {
      Worker& w = out.workers[static_cast<std::size_t>(t)];
      if (args.trace) {
        w.spans = std::make_unique<pb::SpanRecorder>();
      }
      service::Client client(socket);
      pb::ProbeClock probe(!args.trace);
      sync.arrive_and_wait();
      std::uint64_t job = static_cast<std::uint64_t>(t) << 40U;
      for (std::uint64_t round = 0; pb::nowNs() < deadline; ++round) {
        for (std::size_t k = 0; k < kPerRound; ++k) {
          ++w.attempted;
          ++job;
          const bool isFresh = k + 1 == kPerRound;
          const std::uint64_t freshIndex = round * kConnections + static_cast<std::uint64_t>(t);
          const std::size_t knownIndex =
              (round * (kPerRound - 1) + k + static_cast<std::size_t>(t) * 12) %
              st.known.size();
          std::optional<pb::Program> newProgram;
          if (isFresh) {
            newProgram = pb::serveFreshProgram(args.seed, freshIndex);
          }
          const pb::Program& p = isFresh ? *newProgram : st.known[knownIndex];
          service::SubmitRequest req;
          req.tenant = "client" + std::to_string(t);
          req.shots = p.shots;
          req.seed = p.seed;
          if (!isFresh && (round + k) % 2 == 1) {
            req.programRef = st.ids[knownIndex];
          } else {
            req.program = p.text;
          }
          probe.before();
          const std::uint64_t t0 = pb::nowNs();
          try {
            service::json::Value root;
            {
              const pb::Scope jobScope(w.spans.get(), "job", job);
              root = submit(client, req, w.spans.get(), job, &w.counts);
            }
            const double ms = static_cast<double>(pb::nowNs() - t0) * 1e-6;
            pb::Histogram h = histogramOf(root);
            w.samples.push_back({isFresh ? groups - 1 : knownIndex, ms, probe.after(ms)});
            if (std::string why = checkServedPath(p.name, root); !why.empty()) {
              mismatches[t].push_back(why);
            }
            if (isFresh) {
              if (fresh[t].size() < kFreshChecked) {
                fresh[t].emplace_back(freshIndex, std::move(h));
              }
            } else if (h != st.expected[knownIndex]) {
              mismatches[t].push_back(p.name + ": served histogram changed");
            }
          } catch (const std::exception& e) {
            w.fail(e.what());
            probe.reset();
          }
        }
      }
    });
  }
  start = pb::nowNs();
  deadline = start + static_cast<std::uint64_t>(args.seconds * 1e9);
  sync.arrive_and_wait();
  for (std::thread& th : threads) {
    th.join();
  }
  out.wallS = seconds(pb::nowNs() - start);
  out.peakRssMb = peakRssMb();
  out.telemetryDelta = telemetry::diff(before, telemetry::snapshot());
  st.server->stop();
  setups.time(setUp, kSetupRepeats / 2);
  out.setupS = setups.total();
  st.server->stop();

  for (const auto& m : mismatches) {
    out.checkErrors.insert(out.checkErrors.end(), m.begin(), m.end());
  }
  for (std::size_t i = 0; i < st.known.size(); ++i) {
    if (inProcess(st.known[i]) != st.expected[i]) {
      out.checkErrors.push_back(st.known[i].name + ": served histogram differs in process");
    }
  }
  for (const auto& list : fresh) {
    for (const auto& [index, h] : list) {
      const pb::Program p = pb::serveFreshProgram(args.seed, index);
      if (std::string why = pb::checkHistogram(p, h); !why.empty()) {
        out.checkErrors.push_back(why);
      }
      if (inProcess(p) != h) {
        out.checkErrors.push_back(p.name + ": served histogram differs in process");
      }
    }
  }
  for (const pb::Program& p : st.known) {
    out.outInstructions += moduleSize(p);
  }
  return out;
}

// -- toolchain: the §III.B compile route, no simulation ----------------------

struct Compiled {
  std::string qir;
  std::string qasm; // round trips only
  std::size_t instructions = 0;
};

Compiled compileJob(const pb::Program& p, const pb::Target& target, Worker& w,
                    std::uint64_t job) {
  pb::SpanRecorder* rec = w.spans.get();
  LayerCounts* counts = rec != nullptr ? &w.counts : nullptr;
  ir::Context ctx;
  Compiled out;
  const pb::Scope jobScope(rec, "job", job);
  std::unique_ptr<ir::Module> module = loadProgram(ctx, p, rec, job, counts);
  {
    const pb::Scope s(rec, "passes.transform", job);
    qir::transformDirect(*module);
  }
  if (counts != nullptr) {
    counts->add("passes.instructions_out", static_cast<double>(module->instructionCount()));
  }
  qir::CompileOptions options;
  options.runClassicalPipeline = false; // transformDirect ran above
  options.target = target.rows == 0 ? circuit::Target::line(target.qubits)
                                    : circuit::Target::grid(target.rows, target.cols);
  options.outputAddressing = qir::Addressing::Static;
  qir::CompileResult result = [&] {
    const pb::Scope s(rec, "qir.compile_to_target", job);
    return qir::compileToTarget(ctx, *module, options);
  }();
  if (counts != nullptr) {
    counts->add("circuit.swaps", static_cast<double>(result.swapsInserted));
  }
  {
    const pb::Scope s(rec, "ir.verify", job);
    const std::vector<std::string> errors = ir::verifyModule(*result.module);
    if (!errors.empty()) {
      throw std::runtime_error(p.name + ": emitted module fails verification: " +
                               errors.front());
    }
  }
  {
    const pb::Scope s(rec, "ir.print", job);
    out.qir = ir::printModule(*result.module);
  }
  if (p.format == pb::Format::Qasm) {
    const pb::Scope s(rec, "qasm.print", job);
    out.qasm = qasm::print(result.circuit);
  }
  out.instructions = result.module->instructionCount();
  return out;
}

/// Emitted modules must assemble under real LLVM; reports skipped, never
/// passed, when llvm-as is not installed.
void checkWithLlvmAs(const Args& args, const std::vector<std::string>& modules,
                     RunResult& out) {
  if (access(args.llvmAs.c_str(), X_OK) != 0) {
    out.notes.push_back("llvm-as check: SKIPPED (" + args.llvmAs + " not found)");
    return;
  }
  const std::string dir = args.workdir + "/llvm-" + std::to_string(getpid());
  std::filesystem::create_directories(dir);
  for (std::size_t i = 0; i < modules.size(); ++i) {
    const std::string file = dir + "/m" + std::to_string(i) + ".ll";
    writeFile(file, modules[i]);
    const int rc = spawnToFile({args.llvmAs, "-opaque-pointers", "-o", file + ".bc", file},
                               dir + "/out.txt");
    if (rc != 0) {
      out.checkErrors.push_back("emitted module " + std::to_string(i) +
                                " does not assemble under llvm-as: " +
                                readFile(dir + "/out.txt.err").substr(0, 300));
    }
  }
  std::filesystem::remove_all(dir);
  out.notes.push_back("llvm-as check: ran on " + std::to_string(modules.size()) +
                      " modules");
}

RunResult toolchainWorkload(const Args& args) {
  RunResult out;
  std::vector<pb::Program> corpus;
  std::vector<std::pair<std::size_t, pb::Target>> jobs;
  std::vector<Compiled> expected;
  SetupClock setups;
  Worker warmup;
  const auto setUp = [&] {
    corpus = pb::toolchainCorpus(args.seed);
    jobs.clear();
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      for (const pb::Target& t : pb::targetsFor(corpus[i].circuit.qubits)) {
        jobs.emplace_back(i, t);
      }
    }
    expected.clear();
    setups.lap();
    for (const auto& [i, t] : jobs) {
      expected.push_back(compileJob(corpus[i], t, warmup, 0));
      setups.lap();
    }
  };
  setups.time(setUp);
  std::vector<std::string> modules;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const pb::Program& p = corpus[jobs[j].first];
    if (std::string why = pb::checkCompiled(p, jobs[j].second, expected[j].qir);
        !why.empty()) {
      out.checkErrors.push_back(why);
    }
    if (p.format == pb::Format::Qasm) {
      std::size_t measures = 0;
      for (std::size_t pos = expected[j].qasm.find("measure ");
           pos != std::string::npos; pos = expected[j].qasm.find("measure ", pos + 1)) {
        ++measures;
      }
      if (measures != p.circuit.bits()) {
        out.checkErrors.push_back(p.name + ": round trip kept " +
                                  std::to_string(measures) + " of " +
                                  std::to_string(p.circuit.bits()) + " measurements");
      }
    }
    modules.push_back(expected[j].qir);
    out.outInstructions += static_cast<double>(expected[j].instructions);
  }

  out.workers.resize(1);
  Worker& w = out.workers[0];
  if (args.trace) {
    w.spans = std::make_unique<pb::SpanRecorder>();
  }
  const telemetry::Snapshot before = telemetry::snapshot();
  const std::uint64_t start = pb::nowNs();
  const auto deadline = start + static_cast<std::uint64_t>(args.seconds * 1e9);
  if (!args.trace) {
    setups.spread(start, deadline);
  }
  pb::ProbeClock probe(!args.trace);
  std::uint64_t job = 0;
  while (pb::nowNs() < deadline) {
    setups.between(setUp);
    probe.reset();
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      ++w.attempted;
      ++job;
      probe.before();
      const std::uint64_t t0 = pb::nowNs();
      try {
        const Compiled c = compileJob(corpus[jobs[j].first], jobs[j].second, w, job);
        const double ms = static_cast<double>(pb::nowNs() - t0) * 1e-6;
        w.samples.push_back({j, ms, probe.after(ms)});
        if (c.qir != expected[j].qir || c.qasm != expected[j].qasm) {
          out.checkErrors.push_back(corpus[jobs[j].first].name +
                                    ": compiled output changed between runs");
        }
      } catch (const std::exception& e) {
        w.fail(e.what());
        probe.reset();
      }
    }
  }
  out.wallS = seconds(pb::nowNs() - start);
  out.peakRssMb = peakRssMb();
  out.telemetryDelta = telemetry::diff(before, telemetry::snapshot());
  out.setupS = setups.total();
  checkWithLlvmAs(args, modules, out);
  return out;
}

// -- metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The q-quantile of each program's job times (\p field: wall or relative),
/// combined across programs by geometric mean, so that every program weighs
/// the same whatever its size.
double perProgram(const std::vector<Sample>& samples, double q,
                  double Sample::*field = &Sample::ms) {
  std::map<std::size_t, std::vector<double>> byGroup;
  for (const Sample& s : samples) {
    byGroup[s.group].push_back(s.*field);
  }
  double logSum = 0;
  for (const auto& [g, v] : byGroup) {
    logSum += std::log(quantile(v, q));
  }
  return byGroup.empty() ? 0 : std::exp(logSum / static_cast<double>(byGroup.size()));
}

/// job_rel: each job's wall time over the probe's (probe.hpp) beside it;
/// per program the median, geometric mean over programs. The host these
/// runs share slows the process by up to 2x for tens of seconds at a time,
/// through contention a compute loop does not see but allocation-heavy work
/// does; the probe slows with the jobs, so the ratio holds where wall time
/// does not. Wall-time figures go to stderr.
std::vector<Metric> endToEnd(const RunResult& r, const std::vector<Sample>& all) {
  std::fprintf(stderr, "wall job_ms: fastest %.4f, median %.4f (per program, geometric mean)\n",
               perProgram(all, 0.0), perProgram(all, 0.5));
  return {
      {"job_rel", perProgram(all, 0.5, &Sample::rel), "probe"},
      {"out_instructions", r.outInstructions, "instructions"},
      {"peak_rss_mb", r.peakRssMb, "MB"},
      {"setup_s", r.setupS, "s"},
  };
}

struct LayerStat {
  double count = 0;
  double totalNs = 0;
  double selfNs = 0;
};

std::vector<Metric> perLayer(const RunResult& r, const std::vector<Sample>& samples) {
  std::map<std::string, LayerStat> layers;
  LayerCounts counts;
  for (const Worker& w : r.workers) {
    counts.merge(w.counts);
    const std::vector<pb::Span>& spans = w.spans->spans();
    std::vector<double> childNs(spans.size(), 0);
    for (const pb::Span& s : spans) {
      if (s.parent >= 0) {
        childNs[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.endNs - s.startNs);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      LayerStat& l = layers[spans[i].name];
      const double dur = static_cast<double>(spans[i].endNs - spans[i].startNs);
      l.count += 1;
      l.totalNs += dur;
      l.selfNs += std::max(0.0, dur - childNs[i]);
    }
  }
  const auto selfMs = [&](const std::string& name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0 : it->second.selfNs / it->second.count * 1e-6;
  };
  const auto totalMs = [&](const std::string& name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0 : it->second.totalNs / it->second.count * 1e-6;
  };
  const auto totalS = [&](const std::string& name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0 : it->second.totalNs * 1e-9;
  };
  const telemetry::Snapshot& t = r.telemetryDelta;
  const double jobs = static_cast<double>(samples.size());
  std::vector<double> ms;
  for (const Sample& s : samples) {
    ms.push_back(s.ms);
  }
  const auto perJob = [&](const char* name) {
    return jobs == 0 ? 0 : static_cast<double>(t.value(name)) / jobs;
  };
  double dispatched = 0;
  for (const char* c : {"vm.dispatch.arithmetic", "vm.dispatch.call_external",
                        "vm.dispatch.call_internal", "vm.dispatch.control_flow",
                        "vm.dispatch.data", "vm.dispatch.fused", "vm.dispatch.memory"}) {
    dispatched += static_cast<double>(t.value(c));
  }
  const double executeS = totalS("vm.execute") + totalS("sim.sample");
  const auto ratio = [](double a, double b) { return b == 0 ? 0 : a / b; };
  const double parseBytes = counts.total("ir.parse.bytes");
  const double programHits = static_cast<double>(t.value("serve.programs.hits"));
  const double programMisses = static_cast<double>(t.value("serve.programs.misses"));

  // Layer table on stderr, with the dominant layer by total self time.
  const double jobTotal = layers.count("job") != 0 ? layers["job"].totalNs : 0;
  std::vector<std::pair<double, std::string>> bySelf;
  for (const auto& [name, l] : layers) {
    bySelf.emplace_back(l.selfNs, name);
  }
  std::sort(bySelf.rbegin(), bySelf.rend());
  std::fprintf(stderr, "%-24s %8s %12s %12s %7s\n", "layer", "calls", "self_ms/call",
               "total_ms", "share");
  for (const auto& [selfNs, name] : bySelf) {
    const LayerStat& l = layers[name];
    std::fprintf(stderr, "%-24s %8.0f %12.4f %12.1f %6.1f%%\n", name.c_str(), l.count,
                 l.selfNs / l.count * 1e-6, l.totalNs * 1e-6,
                 jobTotal == 0 ? 0 : 100 * selfNs / jobTotal);
  }
  for (const auto& [selfNs, name] : bySelf) {
    if (name != "job") {
      std::fprintf(stderr, "dominant layer: %s (%.1f%% of job time)\n", name.c_str(),
                   jobTotal == 0 ? 0 : 100 * selfNs / jobTotal);
      break;
    }
  }

  return {
      {"qasm.parse_ms", selfMs("qasm.parse"), "ms"},
      {"qir.export_ms", selfMs("qir.export"), "ms"},
      {"ir.parse_ms", selfMs("ir.parse"), "ms"},
      {"ir.parse_mb_per_s", ratio(parseBytes / 1e6, totalS("ir.parse")), "MB/s"},
      {"vm.compile_ms", selfMs("vm.compile"), "ms"},
      {"vm.analysis_ms", selfMs("vm.analysis"), "ms"},
      {"vm.cache.hit_ms", selfMs("vm.cache.hit"), "ms"},
      {"vm.cache.hit_ratio", counts.mean("compile.hit"), "ratio"},
      {"vm.execute_ms", selfMs("vm.execute"), "ms"},
      {"vm.dispatch.instructions", jobs == 0 ? 0 : dispatched / jobs, "instructions"},
      {"vm.dispatch.instr_per_s", ratio(dispatched, executeS), "instr/s"},
      {"vm.dispatch.superinstr_share",
       ratio(static_cast<double>(t.value("vm.dispatch.superinstr")), dispatched), "ratio"},
      {"runtime.shots_per_s", ratio(counts.total("runtime.shots"), executeS), "shots/s"},
      {"runtime.gates_per_shot", counts.mean("runtime.gates_per_shot"), "gates"},
      {"runtime.measurements_per_shot", counts.mean("runtime.measurements_per_shot"),
       "measurements"},
      {"sim.gate_applications", perJob("sim.statevector.gate_applications"), "count"},
      {"sim.fusion.ops_fused", perJob("sim.fusion.ops_fused"), "count"},
      {"sim.fusion.sweeps_saved", perJob("sim.fusion.sweeps_saved"), "count"},
      {"sim.kernel.blocked_sweeps", perJob("sim.kernel.blocked_sweeps"), "count"},
      {"sim.sample_ms", selfMs("sim.sample"), "ms"},
      {"sim.peak_bytes", static_cast<double>(t.value("sim.statevector.peak_bytes")),
       "bytes"},
      {"service.roundtrip_ms", totalMs("service.roundtrip"), "ms"},
      {"service.server_ms", totalMs("service.roundtrip") - selfMs("service.roundtrip"),
       "ms"},
      {"service.framing_ms", selfMs("service.roundtrip"), "ms"},
      {"service.admission_ms", selfMs("service.admission"), "ms"},
      {"service.queue_wait_ms", selfMs("service.queue_wait"), "ms"},
      {"service.registry_hit_ratio", ratio(programHits, programHits + programMisses),
       "ratio"},
      {"service.response_kb", counts.mean("service.response_bytes") / 1024, "KB"},
      {"service.json_parse_ms", selfMs("service.json_parse"), "ms"},
      {"passes.transform_ms", selfMs("passes.transform"), "ms"},
      {"passes.instructions_out", counts.mean("passes.instructions_out"), "instructions"},
      {"qir.compile_to_target_ms", selfMs("qir.compile_to_target"), "ms"},
      {"circuit.swaps", counts.mean("circuit.swaps"), "count"},
      {"ir.verify_ms", selfMs("ir.verify"), "ms"},
      {"ir.print_ms", selfMs("ir.print"), "ms"},
      {"qasm.print_ms", selfMs("qasm.print"), "ms"},
      {"trace.job_ms", perProgram(samples, 0.0), "ms"},
      {"trace.jobs_per_s", jobs / r.wallS, "jobs/s"},
      {"trace.latency_ms_p50", quantile(ms, 0.5), "ms"},
      {"trace.latency_ms_p95", quantile(ms, 0.95), "ms"},
  };
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--qirkit") {
      a.qirkit = value;
    } else if (key == "--workdir") {
      a.workdir = value;
    } else if (key == "--llvm-as") {
      a.llvmAs = value;
    } else {
      die("unknown option " + key);
    }
  }
  if (a.workload.empty() || a.workdir.empty() || a.qirkit.empty() || a.seconds <= 0) {
    die("usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
        "--qirkit PATH --workdir DIR [--llvm-as PATH]");
  }
  return a;
}

} // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  std::filesystem::create_directories(args.workdir);
  if (args.trace) {
    telemetry::setEnabled(true);
  }
  RunResult r;
  try {
    if (args.workload == "run-sample" || args.workload == "run-feedback") {
      r = runWorkload(args, args.workload == "run-feedback");
    } else if (args.workload == "serve-mixed") {
      r = serveWorkload(args);
    } else if (args.workload == "toolchain") {
      r = toolchainWorkload(args);
    } else {
      die("unknown workload '" + args.workload + "'");
    }
  } catch (const std::exception& e) {
    die(std::string("set-up or check failed: ") + e.what());
  }

  std::vector<Sample> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Worker& w : r.workers) {
    samples.insert(samples.end(), w.samples.begin(), w.samples.end());
    attempted += w.attempted;
    failed += w.failed;
    for (const std::string& e : w.errors) {
      std::cerr << "failed: " << e << "\n";
    }
  }
  for (const std::string& n : r.notes) {
    std::cerr << n << "\n";
  }
  for (std::size_t i = 0; i < r.checkErrors.size() && i < 20; ++i) {
    std::cerr << "CHECK FAILED: " << r.checkErrors[i] << "\n";
  }
  if (r.checkErrors.size() > 20) {
    std::cerr << "... and " << r.checkErrors.size() - 20 << " more failed checks\n";
  }
  const std::vector<Metric> metrics = args.trace ? perLayer(r, samples) : endToEnd(r, samples);
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (r.checkErrors.empty() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << metrics[i].name << "\": {\"value\": "
         << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}
