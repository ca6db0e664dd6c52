// wecbench — the workload process of the end-to-end benchmark (README.md).
// run.py starts a fresh wecbench for every repetition, so peak RSS and CPU
// time describe one workload alone.
//
//   wecbench prepare --workload W --seed N --dir D [--trace]
//   wecbench setup   --workload W --seed N --dir D --t0-ns T
//   wecbench rep     --workload W --seed N --dir D --t0-ns T [--trace]
//
// prepare  Untimed, once per invocation: the functional interpreter's
//          instruction count and checksum for every kernel, the checksum
//          check of every full-fidelity point, the pre-filled result cache
//          of `service`, and with --trace the sampled grid's IPC error
//          against full fidelity.
// setup    One set-up-time sample: from T (run.py's CLOCK_MONOTONIC stamp
//          taken before it launched this process) until the first point is
//          built and loaded, or on `service` until wecsimd answers health.
// rep      One timed repetition of the workload. With --trace the calls are
//          wrapped in spans and the benchmark then makes the harness's
//          internal calls itself, directly, on the same points, to measure
//          the layers (README.md, "Traced run").
//
// D is the directory the process works in (it chdirs there); every path
// below is relative to it. Each mode prints one JSON object on stdout and
// exits 0, or explains on stderr and exits 1.
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "core/sampled.h"
#include "core/sim_config.h"
#include "core/simulator.h"
#include "func/interpreter.h"
#include "harness/journal.h"
#include "harness/parallel.h"
#include "obs/integrity.h"
#include "obs/json.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/queue.h"
#include "spans.h"
#include "workloads/workload.h"

extern char** environ;

namespace wecbench {
namespace {

using wecsim::Cycle;
using wecsim::FlatMemory;
using wecsim::JobSpec;
using wecsim::JsonValue;
using wecsim::PaperConfig;
using wecsim::PointSpec;
using wecsim::RunMeasurement;
using wecsim::RunRecord;
using wecsim::SampledResult;
using wecsim::SampledSimulator;
using wecsim::SimError;
using wecsim::SimResult;
using wecsim::Simulator;
using wecsim::StaConfig;
using wecsim::Workload;
using wecsim::WorkloadParams;

// ---------------------------------------------------------------------------
// Workloads

struct Point {
  std::string kernel;  // paper name, e.g. "181.mcf"
  std::string key;     // unique within its kernel
  std::string config_name;
  uint32_t tus = 8;
  StaConfig config;
};

struct Grid {
  WorkloadParams params;
  std::vector<Point> points;  // submission order
  bool sampled = false;       // SampledSimulator with auto-planned windows
  bool service = false;       // through wecsimd, one job per kernel
};

// The grids README.md describes; see there for why each was chosen.
Grid make_grid(const std::string& workload, uint32_t seed) {
  Grid g;
  g.params.seed = seed;
  std::vector<std::string> kernels;
  std::vector<PaperConfig> configs(std::begin(wecsim::kAllPaperConfigs),
                                   std::end(wecsim::kAllPaperConfigs));
  std::vector<uint32_t> tus = {8};
  uint32_t mem_lat = 200;
  if (workload == "compute") {
    g.params.scale = 4;
    kernels = {"175.vpr", "164.gzip", "183.equake", "177.mesa"};
  } else if (workload == "memwall") {
    g.params.scale = 4;
    kernels = {"181.mcf", "197.parser"};
    mem_lat = 500;
  } else if (workload == "sampled") {
    g.params.scale = 32;
    g.sampled = true;
    kernels = wecsim::workload_names();
    configs = {PaperConfig::kOrig, PaperConfig::kWthWpWec};
  } else if (workload == "service") {
    g.params.scale = 1;
    g.service = true;
    kernels = wecsim::workload_names();
    tus = {2, 4, 8};
  } else {
    throw SimError("unknown workload '" + workload +
                   "' (compute, memwall, sampled, service)");
  }
  for (const std::string& kernel : kernels) {
    for (PaperConfig c : configs) {
      for (uint32_t t : tus) {
        Point p;
        p.kernel = kernel;
        p.config_name = wecsim::paper_config_name(c);
        p.tus = t;
        p.key = g.service ? p.config_name + ".t" + std::to_string(t)
                          : p.config_name;
        p.config = wecsim::point_config(
            PointSpec{p.key, p.config_name, t, g.service ? 0 : mem_lat});
        p.config.sampling.enabled = g.sampled;
        g.points.push_back(std::move(p));
      }
    }
  }
  return g;
}

std::vector<std::string> kernels_of(const Grid& g) {
  std::vector<std::string> out;
  for (const Point& p : g.points) {
    if (std::find(out.begin(), out.end(), p.kernel) == out.end()) {
      out.push_back(p.kernel);
    }
  }
  return out;
}

// One wecsimd job per kernel, its points in grid order.
std::vector<JobSpec> service_jobs(const Grid& g) {
  std::vector<JobSpec> jobs;
  for (const std::string& kernel : kernels_of(g)) {
    JobSpec job;
    job.client = "perfbench";
    job.name = "svc-" + kernel;
    job.workload = kernel;
    job.scale = g.params.scale;
    job.seed = static_cast<uint32_t>(g.params.seed);
    for (const Point& p : g.points) {
      if (p.kernel == kernel) {
        job.points.push_back(PointSpec{p.key, p.config_name, p.tus, 0});
      }
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

// ---------------------------------------------------------------------------
// Output: one flat JSON object, numbers with every digit.

class Out {
 public:
  Out& num(const std::string& k, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(k, buf);
  }
  Out& num(const std::string& k, uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Out& str(const std::string& k, const std::string& v) {
    return raw(k, "\"" + wecsim::json_escape(v) + "\"");
  }
  Out& raw(const std::string& k, const std::string& json) {
    s_ += (s_.size() > 1 ? "," : "") + ("\"" + wecsim::json_escape(k) + "\":") +
          json;
    return *this;
  }
  std::string done() const { return s_ + "}"; }

 private:
  std::string s_ = "{";
};

std::string hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SimError("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Peak RSS in KiB of this process and of its largest reaped child. The
// process's own figure is VmHWM, the high-water mark of its image since
// exec: ru_maxrss would also count the driver's image it was forked from.
uint64_t peak_rss_kib() {
  uint64_t self = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) self = std::stoull(line.substr(6));
  }
  rusage ru{};
  ::getrusage(RUSAGE_CHILDREN, &ru);
  return std::max<uint64_t>(self, static_cast<uint64_t>(ru.ru_maxrss));
}

double seconds_since(int64_t t0_ns) {
  return static_cast<double>(mono_ns() - t0_ns) * 1e-9;
}

// ---------------------------------------------------------------------------
// Direct calls into the layers (prepare, and the traced replay)

struct Reference {
  uint64_t instrs = 0;    // architectural dynamic instruction count
  uint64_t checksum = 0;  // value left at Workload::checksum_addr
};

Reference interpret(const std::string& kernel, const WorkloadParams& params,
                    Spans& spans) {
  Workload w = wecsim::make_workload(kernel, params);
  FlatMemory mem;
  mem.load_program(w.program);
  w.init(mem);
  wecsim::Interpreter interp(w.program, mem);
  wecsim::FuncResult r;
  {
    Spans::Scope s(spans, "func.run");
    r = interp.run();
  }
  if (!r.halted) throw SimError("interpreter did not halt on " + kernel);
  return Reference{r.instrs_total, mem.read_u64(w.checksum_addr)};
}

std::map<std::string, Reference> interpret_all(const Grid& g, Spans& spans) {
  std::map<std::string, Reference> out;
  for (const std::string& k : kernels_of(g)) {
    out[k] = interpret(k, g.params, spans);
  }
  return out;
}

struct FullRun {
  SimResult result;
  uint64_t parallel_cycles = 0;
  uint64_t checksum = 0;
  uint64_t skipped_cycles = 0;
  uint64_t skip_jumps = 0;
};

// A full-fidelity point through the public Simulator API, caches empty at
// the start as in the harness.
FullRun simulate_full(const Point& p, const WorkloadParams& params,
                      Spans& spans, int point) {
  Workload w = [&] {
    Spans::Scope s(spans, "workloads.build", point);
    return wecsim::make_workload(p.kernel, params);
  }();
  std::unique_ptr<Simulator> sim;
  {
    Spans::Scope s(spans, "core.load", point);
    StaConfig config = p.config;
    config.sampling.enabled = false;
    sim = std::make_unique<Simulator>(w.program, config);
    w.init(sim->memory());
  }
  FullRun out;
  {
    Spans::Scope s(spans, "core.run", point);
    out.result = sim->run();
  }
  out.parallel_cycles = sim->stats().value("sta.parallel_cycles");
  out.checksum = sim->memory().read_u64(w.checksum_addr);
  out.skipped_cycles = sim->processor().skipped_cycles();
  out.skip_jumps = sim->processor().skip_jumps();
  return out;
}

struct SampledRun {
  SampledResult result;
  uint64_t skipped_cycles = 0;
};

SampledRun simulate_sampled(const Point& p, const WorkloadParams& params,
                            Spans& spans, int point) {
  Workload w = [&] {
    Spans::Scope s(spans, "workloads.build", point);
    return wecsim::make_workload(p.kernel, params);
  }();
  std::unique_ptr<SampledSimulator> sim;
  {
    Spans::Scope s(spans, "core.load", point);
    sim = std::make_unique<SampledSimulator>(w.program, p.config);
    w.init(sim->memory());
  }
  SampledRun out;
  {
    Spans::Scope s(spans, "sampled.run", point);
    out.result = sim->run();
  }
  out.skipped_cycles = sim->skipped_cycles();
  return out;
}

// Everything up to the first point being ready to simulate: the program is
// built and loaded into a fresh simulator, which is then discarded.
void load_first_point(const Grid& g, Spans& spans) {
  const Point& p = g.points.front();
  Workload w = [&] {
    Spans::Scope s(spans, "workloads.build", 0);
    return wecsim::make_workload(p.kernel, g.params);
  }();
  Spans::Scope s(spans, "core.load", 0);
  if (g.sampled) {
    SampledSimulator sim(w.program, p.config);
    w.init(sim.memory());
  } else {
    Simulator sim(w.program, p.config);
    w.init(sim.memory());
  }
}

// ---------------------------------------------------------------------------
// wecsimd as a child process

std::string sibling_exe(const char* name) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) throw SimError("cannot resolve /proc/self/exe");
  std::string self(buf, static_cast<size_t>(n));
  return self.substr(0, self.rfind('/') + 1) + name;
}

constexpr const char* kSocket = "./wecsimd.sock";

// One worker, and the client, daemon and worker all confined to one CPU.
// On a virtual machine whose host is busy, every idle CPU that a process
// wakes costs steal time: with two workers spread over the CPUs, wall time
// nearly doubled in busy phases while CPU time barely moved (README.md,
// "Steadiness").
constexpr int kWorkers = 1;

// Confines this process, and so the wecsimd and workers it starts, to the
// last kWorkers CPUs it may use.
void confine_to_worker_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  cpu_set_t mine;
  CPU_ZERO(&mine);
  int n = 0;
  for (int c = CPU_SETSIZE - 1; c >= 0 && n < kWorkers; --c) {
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &mine);
      ++n;
    }
  }
  if (n == kWorkers) ::sched_setaffinity(0, sizeof mine, &mine);
}

// A wecsimd child serving kSocket with kWorkers workers. The destructor kills
// and reaps it if drain() did not, so no path leaves it running.
class Daemon {
 public:
  Daemon(const std::string& state_dir, const std::string& cache_dir) {
    const std::string exe = sibling_exe("wecsimd");
    const std::string workers = std::to_string(kWorkers);
    std::fflush(stdout);
    std::fflush(stderr);
    pid_ = ::fork();
    if (pid_ < 0) throw SimError("fork failed");
    if (pid_ == 0) {
      const int log = ::open("daemon.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log >= 0) {
        ::dup2(log, 1);
        ::dup2(log, 2);
      }
      if (!cache_dir.empty()) ::setenv("WECSIM_CACHE_DIR", cache_dir.c_str(), 1);
      ::execl(exe.c_str(), exe.c_str(), "--socket", kSocket, "--workers",
              workers.c_str(), state_dir.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Polls health every millisecond until wecsimd answers.
  void wait_ready() {
    const int64_t deadline = mono_ns() + 30'000'000'000;
    for (;;) {
      try {
        wecsim::ServiceClient probe(kSocket);
        probe.set_timeout_ms(2000);
        if (probe.health().at("ok").as_bool()) return;
      } catch (const SimError&) {
      }
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        throw SimError("wecsimd exited before answering health (daemon.log)");
      }
      if (mono_ns() > deadline) throw SimError("wecsimd never answered health");
      ::usleep(1000);
    }
  }

  // Asks wecsimd to drain and waits for it to exit; it must exit 0 (idle).
  void drain(wecsim::ServiceClient& client) {
    client.drain();
    const int64_t deadline = mono_ns() + 30'000'000'000;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) != pid_) {
      if (mono_ns() > deadline) throw SimError("wecsimd did not drain");
      ::usleep(2000);
    }
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw SimError("wecsimd drained with status " + std::to_string(status));
    }
  }

 private:
  pid_t pid_ = -1;
};

// ---------------------------------------------------------------------------
// Per-layer metrics from the traced replay (README.md, per-layer table)

struct LayerSums {
  double run_s = 0.0;  // Σ Simulator::run
  uint64_t cycles = 0;
  uint64_t tu_cycles = 0;
  uint64_t arch = 0;
  uint64_t committed = 0;
  uint64_t branches = 0, mispredicts = 0, wrong_path_loads = 0;
  uint64_t skipped = 0, jumps = 0, wrong_threads = 0;
  uint64_t l1d_accesses = 0, l1d_misses = 0, l1d_wrong_misses = 0;
  uint64_t side_hits = 0, wec_fills = 0, wec_used = 0;
  uint64_t l2_accesses = 0, l2_misses = 0;
  std::map<std::string, std::pair<uint64_t, double>> per_kernel;  // arch, s
};

void add_full(LayerSums& s, const Point& p, const FullRun& r, uint64_t arch,
              double run_s) {
  const SimResult& x = r.result;
  s.run_s += run_s;
  s.cycles += x.cycles;
  s.tu_cycles += x.cycles * p.tus;
  s.arch += arch;
  s.committed += x.committed;
  s.branches += x.branches;
  s.mispredicts += x.mispredicts;
  s.wrong_path_loads += x.wrong_path_loads;
  s.skipped += r.skipped_cycles;
  s.jumps += r.skip_jumps;
  s.wrong_threads += x.wrong_threads;
  s.l1d_accesses += x.l1d_accesses;
  s.l1d_misses += x.l1d_misses;
  s.l1d_wrong_misses += x.l1d_wrong_misses;
  s.side_hits += x.side_hits;
  uint64_t used = 0;
  for (uint64_t u : x.wec.used) used += u;
  s.wec_fills += x.wec.total_fills();
  s.wec_used += used;
  s.l2_accesses += x.l2_accesses;
  s.l2_misses += x.l2_misses;
  auto& k = s.per_kernel[p.kernel];
  k.first += arch;
  k.second += run_s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Short kernel name for metric names: "181.mcf" -> "mcf".
std::string short_name(const std::string& kernel) {
  return kernel.substr(kernel.find('.') + 1);
}

void emit_full_layers(Out& o, const LayerSums& s) {
  o.num("core.run_s", s.run_s);
  o.num("core.ns_per_tu_cycle", ratio(s.run_s * 1e9, s.tu_cycles));
  o.num("core.us_per_instr", ratio(s.run_s * 1e6, s.arch));
  for (const auto& [kernel, v] : s.per_kernel) {
    o.num("core.minstr_per_s." + short_name(kernel),
          ratio(v.first / 1e6, v.second));
  }
  o.num("core.sim_cycles", s.cycles);
  o.num("core.arch_instrs", s.arch);
  o.num("core.useful_commit_share", ratio(s.arch, s.committed));
  o.num("cpu.mispredict_rate", ratio(s.mispredicts, s.branches));
  o.num("cpu.wrong_path_loads", s.wrong_path_loads);
  o.num("sta.skipped_share", ratio(s.skipped, s.cycles));
  o.num("sta.cycles_per_jump", ratio(s.skipped, s.jumps));
  o.num("sta.wrong_threads", s.wrong_threads);
  o.num("mem.l1d_miss_rate", ratio(s.l1d_misses, s.l1d_accesses));
  o.num("mem.side_hit_share",
        ratio(s.side_hits, s.l1d_misses + s.l1d_wrong_misses));
  o.num("mem.wec_used_share", ratio(s.wec_used, s.wec_fills));
  o.num("mem.l2_miss_rate", ratio(s.l2_misses, s.l2_accesses));
}

void emit_span_layers(Out& o, const Spans& spans) {
  const auto totals = spans.totals();
  const auto mean_ms = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0
                              : ratio(it->second.total_s * 1e3, it->second.count);
  };
  o.num("workloads.build_ms", mean_ms("workloads.build"));
  o.num("core.load_ms", mean_ms("core.load"));
  // Self time per layer: span time minus the spans nested in it.
  std::map<std::string, double> self;
  for (const auto& [name, t] : totals) {
    self[name.substr(0, name.find('.'))] += t.self_s;
  }
  for (const auto& [layer, s] : self) o.num("self_s." + layer, s);
}

// True when two simulations of a point agree on every deterministic count.
bool same_result(const SimResult& a, uint64_t a_parallel, const SimResult& b,
                 uint64_t b_parallel) {
  return wecsim::measurement_digest(RunMeasurement{a, a_parallel, 0.0}) ==
         wecsim::measurement_digest(RunMeasurement{b, b_parallel, 0.0});
}

// Replays every full-fidelity point through the public Simulator API,
// emits the core/cpu/sta/mem layer metrics, and returns how many points
// `matches` rejects.
uint64_t replay_full(const Grid& g, Spans& spans, Out& layers,
                     const std::function<bool(size_t, const FullRun&)>& matches) {
  const auto refs = interpret_all(g, spans);
  LayerSums sums;
  uint64_t mismatches = 0;
  for (size_t i = 0; i < g.points.size(); ++i) {
    Spans::Scope pt(spans, "bench.point", static_cast<int>(i));
    const Point& p = g.points[i];
    const FullRun r = simulate_full(p, g.params, spans, static_cast<int>(i));
    if (!matches(i, r)) ++mismatches;
    add_full(sums, p, r, refs.at(p.kernel).instrs,
             spans.durations("core.run").back());
  }
  emit_full_layers(layers, sums);
  return mismatches;
}

// The sampled grid's replay: SampledSimulator per point, checked against the
// runner's memoized estimate, plus the interpreter over every program.
uint64_t replay_sampled(const Grid& g, wecsim::ExperimentRunner& runner,
                        Spans& spans, Out& layers) {
  const auto refs = interpret_all(g, spans);
  uint64_t mismatches = 0, arch = 0, extrapolated = 0, measure = 0;
  uint64_t measure_all = 0, skipped = 0, windows = 0;
  Cycle detailed = 0;
  for (size_t i = 0; i < g.points.size(); ++i) {
    Spans::Scope pt(spans, "bench.point", static_cast<int>(i));
    const Point& p = g.points[i];
    const SampledRun r = simulate_sampled(p, g.params, spans, static_cast<int>(i));
    const SampledResult& s = r.result;
    const RunMeasurement& m = runner.run(p.kernel, p.key, p.config);
    if (s.extrapolated_cycles != m.sim.cycles ||
        s.extrapolated_committed != m.sim.committed ||
        s.extrapolated_parallel_cycles != m.parallel_cycles ||
        s.func_instrs != refs.at(p.kernel).instrs) {
      ++mismatches;
    }
    arch += s.func_instrs;
    extrapolated += s.extrapolated_cycles;
    detailed += s.detailed_cycles;
    windows += s.windows.size();
    skipped += r.skipped_cycles;
    for (const wecsim::SampleWindow& w : s.windows) {
      measure += static_cast<uint64_t>(std::max<int64_t>(0, w.measure_commits));
      measure_all += w.measure_commits_all;
    }
  }
  const auto totals = spans.totals();
  uint64_t func_instrs = 0;
  for (const auto& [k, ref] : refs) func_instrs += ref.instrs;
  layers.num("core.sim_cycles", static_cast<uint64_t>(detailed));
  layers.num("core.arch_instrs", arch);
  layers.num("core.useful_commit_share", ratio(measure, measure_all));
  layers.num("sta.skipped_share", ratio(skipped, detailed));
  layers.num("func.minstr_per_s",
             ratio(func_instrs / 1e6, totals.at("func.run").total_s));
  layers.num("sampled.run_s", totals.at("sampled.run").total_s);
  layers.num("sampled.detailed_share", ratio(detailed, extrapolated));
  layers.num("sampled.windows", windows);
  return mismatches;
}

// ---------------------------------------------------------------------------
// Modes

struct Args {
  std::string mode;
  std::string workload;
  uint32_t seed = 42;
  std::string dir;
  int64_t t0_ns = 0;
  bool trace = false;
};

// prepare: see the file comment.
std::string run_prepare(const Grid& g, const Args& a) {
  Spans off(false);
  const auto refs = interpret_all(g, off);
  Out o;
  uint64_t arch = 0;
  for (const Point& p : g.points) arch += refs.at(p.kernel).instrs;
  o.num("arch_instrs", arch);

  // Every full-fidelity point must leave the interpreter's checksum. The
  // sampled grid's points are checked at full fidelity only in the traced
  // run, which simulates them anyway for the IPC error.
  std::vector<std::string> errors;
  const bool full_check = !g.sampled || a.trace;
  std::vector<FullRun> full(full_check ? g.points.size() : 0);
  std::vector<SampledRun> sampled(g.sampled && a.trace ? g.points.size() : 0);
  if (full_check) {
    wecsim::parallel_for(g.points.size(), 2, [&](size_t i) {
      Spans none(false);
      full[i] = simulate_full(g.points[i], g.params, none, -1);
      if (!sampled.empty()) {
        sampled[i] = simulate_sampled(g.points[i], g.params, none, -1);
      }
    });
    for (size_t i = 0; i < full.size(); ++i) {
      const Point& p = g.points[i];
      if (!full[i].result.halted ||
          full[i].checksum != refs.at(p.kernel).checksum) {
        errors.push_back(p.kernel + "|" + p.key);
      }
    }
  }
  o.num("checked", static_cast<uint64_t>(full.size()));
  std::string err = "[";
  for (const std::string& e : errors) {
    err += (err.size() > 1 ? ",\"" : "\"") + wecsim::json_escape(e) + "\"";
  }
  o.raw("checksum_errors", err + "]");

  // Sampled accuracy: the worst point's |sampled IPC - full IPC| / full IPC,
  // IPC counting architectural instructions only.
  if (!sampled.empty()) {
    double worst = 0.0;
    for (size_t i = 0; i < sampled.size(); ++i) {
      const double full_ipc =
          ratio(refs.at(g.points[i].kernel).instrs, full[i].result.cycles);
      worst = std::max(worst, std::fabs(sampled[i].result.ipc - full_ipc) /
                                  full_ipc * 100.0);
    }
    o.num("ipc_err_pct", worst);
  }

  // service: a result cache already holding the orig points, as when a new
  // figure reuses earlier baselines. run.py copies it for every repetition.
  if (g.service) {
    if (::mkdir("cache", 0755) != 0) throw SimError("cannot create cache");
    wecsim::ExperimentRunner runner(g.params, std::string("cache"));
    uint64_t cached = 0;
    for (const Point& p : g.points) {
      if (p.config_name == "orig") {
        runner.run(p.kernel, p.key, p.config);
        ++cached;
      }
    }
    // The runner only warns when a store fails; the cache must be complete.
    wecsim::ExperimentRunner check(g.params, std::string("cache"));
    for (const Point& p : g.points) {
      if (p.config_name == "orig") {
        check.run(p.kernel, p.key, p.config);
        if (!check.records().empty()) throw SimError("result cache incomplete");
      }
    }
    o.num("cached_points", cached);
  }
  return o.done();
}

std::string run_setup(const Grid& g, const Args& a) {
  Spans off(false);
  Out o;
  if (g.service) {
    Daemon daemon("state", "");
    daemon.wait_ready();
    o.num("setup_s", seconds_since(a.t0_ns));
    wecsim::ServiceClient client(kSocket);
    daemon.drain(client);
  } else {
    wecsim::ParallelExperimentRunner runner(g.params, 1, std::string());
    runner.set_state_dir("");
    load_first_point(g, off);
    o.num("setup_s", seconds_since(a.t0_ns));
  }
  return o.done();
}

// rep on compute, memwall and sampled: the harness runner the figure benches
// use, one job, result cache and journal off.
std::string run_harness_rep(const Grid& g, const Args& a, Spans& spans) {
  std::unique_ptr<wecsim::ParallelExperimentRunner> runner;
  {
    Spans::Scope s(spans, "bench.setup");
    {
      Spans::Scope r(spans, "harness.ready");
      runner = std::make_unique<wecsim::ParallelExperimentRunner>(
          g.params, 1, std::string());
      runner->set_state_dir("");
    }
    load_first_point(g, spans);
  }
  const double setup_s = seconds_since(a.t0_ns);

  const int64_t t_a = mono_ns();
  {
    Spans::Scope s(spans, "bench.timed");
    for (size_t i = 0; i < g.points.size(); ++i) {
      Spans::Scope sub(spans, "harness.submit", static_cast<int>(i));
      runner->submit(g.points[i].kernel, g.points[i].key, g.points[i].config);
    }
    {
      Spans::Scope d(spans, "harness.drain");
      runner->drain();
    }
    Spans::Scope r(spans, "harness.report");
    runner->write_report("report.json", "perfbench-" + a.workload);
  }
  const double wall_s = seconds_since(t_a);

  // Outputs: every point halted (the runner quarantines one that does not)
  // and none was quarantined.
  const std::vector<RunRecord>& records = runner->records();
  uint64_t failed = runner->quarantined_count();
  uint64_t cycles = 0, committed = 0, func_instrs = 0, windows = 0;
  uint64_t detailed = 0;
  double run_seconds = 0.0, ci95 = 0.0;
  for (const RunRecord& r : records) {
    if (!r.result.halted) ++failed;
    cycles += r.result.cycles;
    committed += r.result.committed;
    func_instrs += r.sampling.func_instrs;
    windows += r.sampling.windows.size();
    detailed += r.sampling.detailed_cycles;
    run_seconds += r.run_seconds;
    ci95 = std::max(ci95, r.sampling.ci95_pct);
  }
  if (records.size() != g.points.size()) {
    failed += g.points.size() - std::min(g.points.size(), records.size());
  }

  Out o;
  o.num("setup_s", setup_s);
  o.num("wall_s", wall_s);
  o.num("points", static_cast<uint64_t>(g.points.size()));
  o.num("failed", failed);
  o.num("peak_rss_kib", peak_rss_kib());
  o.str("digest", hex64(wecsim::fnv1a64(read_file("report.json"))));
  std::string counts = Out()
                           .num("cycles", cycles)
                           .num("committed", committed)
                           .num("func_instrs", func_instrs)
                           .num("windows", windows)
                           .num("detailed_cycles", detailed)
                           .num("ci95_pct", ci95)
                           .done();
  o.raw("counts", counts);
  if (!spans.enabled()) return o.done();

  // Traced replay: the calls drain() makes internally, made directly on the
  // same points, each result checked against the runner's memoized one.
  Out layers;
  uint64_t mismatches = 0;
  if (g.sampled) {
    Spans::Scope replay(spans, "bench.replay");
    mismatches = replay_sampled(g, *runner, spans, layers);
    layers.num("sampled.ci95_pct", ci95);
  } else {
    Spans::Scope replay(spans, "bench.replay");
    mismatches = replay_full(g, spans, layers, [&](size_t i, const FullRun& r) {
      const Point& p = g.points[i];
      const RunMeasurement& m = runner->run(p.kernel, p.key, p.config);
      return same_result(r.result, r.parallel_cycles, m.sim, m.parallel_cycles);
    });
  }
  const auto totals = spans.totals();
  layers.num("harness.point_overhead_ms",
             (totals.at("harness.drain").total_s - run_seconds) * 1e3 /
                 static_cast<double>(g.points.size()));
  layers.num("harness.report_ms", totals.at("harness.report").total_s * 1e3);
  layers.num("harness.failures",
             static_cast<uint64_t>(runner->failures().size()));
  emit_span_layers(layers, spans);
  o.num("replay_mismatches", mismatches);
  o.raw("layers", layers.done());
  return o.done();
}

// Counts "running" journal entries per point: each one past the first is a
// worker restart.
uint64_t worker_restarts(const std::string& journal) {
  std::map<std::string, uint64_t> running;
  std::vector<std::string> warnings;
  wecsim::scan_sealed_lines(
      journal,
      [&](const JsonValue& doc) {
        if (doc.at("ev").as_string() == "running") {
          ++running[doc.at("key").as_string()];
        }
      },
      warnings);
  uint64_t restarts = 0;
  for (const auto& [key, n] : running) restarts += n > 1 ? n - 1 : 0;
  return restarts;
}

// rep on service: one client in a closed loop, one job at a time, against
// wecsimd with a pre-filled result cache.
std::string run_service_rep(const Grid& g, const Args& a, Spans& spans) {
  const std::vector<JobSpec> jobs = service_jobs(g);
  std::unique_ptr<Daemon> daemon;
  const int64_t t_spawn = mono_ns();
  {
    Spans::Scope s(spans, "bench.setup");
    Spans::Scope d(spans, "service.start");
    daemon = std::make_unique<Daemon>("state", "cache");
    daemon->wait_ready();
  }
  const double setup_s = seconds_since(a.t0_ns);
  const double ready_s = seconds_since(t_spawn);

  wecsim::ServiceClient client(kSocket);
  client.set_timeout_ms(60000);
  std::vector<std::string> ids;
  std::vector<JsonValue> statuses;
  std::vector<double> job_s;
  uint64_t polls = 0;
  const int64_t t_a = mono_ns();
  {
    Spans::Scope s(spans, "bench.timed");
    for (const JobSpec& job : jobs) {
      Spans::Scope j(spans, "client.job");
      const int64_t t_job = mono_ns();
      JsonValue reply;
      {
        Spans::Scope sub(spans, "client.submit");
        reply = client.submit(job);
      }
      if (!reply.at("ok").as_bool()) {
        throw SimError("submit rejected: " + reply.at("error").as_string());
      }
      ids.push_back(reply.at("job").as_string());
      // ServiceClient::wait's policy (status every 50 ms until done), with
      // the polls counted.
      Spans::Scope w(spans, "client.wait");
      const int64_t deadline = mono_ns() + 120'000'000'000;
      for (;;) {
        JsonValue st;
        {
          Spans::Scope p(spans, "client.status");
          st = client.status(ids.back());
          ++polls;
        }
        if (st.at("ok").as_bool() && st.at("state").as_string() == "done") {
          statuses.push_back(std::move(st));
          break;
        }
        if (mono_ns() > deadline) {
          throw SimError("job " + ids.back() + " did not finish");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      job_s.push_back(seconds_since(t_job));
    }
  }
  const double wall_s = seconds_since(t_a);
  daemon->drain(client);
  daemon.reset();

  // Outputs: every job done with zero failed points and no worker restart;
  // the digest covers the six job reports.
  uint64_t failed = 0, cached = 0, restarts = 0, cycles = 0, committed = 0;
  double run_seconds = 0.0;
  std::string reports;
  std::map<std::pair<std::string, std::string>, RunRecord> records;
  for (size_t j = 0; j < jobs.size(); ++j) {
    const JsonValue& st = statuses[j];
    for (const JsonValue& pt : st.at("points").items()) {
      if (pt.has("provenance") && pt.at("provenance").as_string() == "cached") {
        ++cached;
      }
    }
    const std::string journal = wecsim::job_journal_path("state", ids[j]);
    restarts += worker_restarts(journal);
    // A point counts as failed unless the job journal holds it as done.
    uint64_t done = 0;
    const wecsim::JournalReplay replay = wecsim::JournalReplay::load(journal);
    for (const auto& [key, e] : replay.points) {
      if (e.state != wecsim::JournalReplay::State::kDone) continue;
      ++done;
      if (e.fresh) run_seconds += e.measurement.run_seconds;
    }
    failed += jobs[j].points.size() - std::min<uint64_t>(done, jobs[j].points.size());
    const std::string report = read_file(st.at("report").as_string());
    reports += report;
    const JsonValue doc = wecsim::parse_json(report);
    for (const JsonValue& run : doc.at("runs").items()) {
      RunRecord r = wecsim::parse_run_record(run);
      cycles += r.result.cycles;
      committed += r.result.committed;
      records[{r.workload, r.config_key}] = std::move(r);
    }
  }
  failed += restarts;

  Out o;
  o.num("setup_s", setup_s);
  o.num("wall_s", wall_s);
  o.num("points", static_cast<uint64_t>(g.points.size()));
  o.num("failed", failed);
  o.num("peak_rss_kib", peak_rss_kib());
  o.str("digest", hex64(wecsim::fnv1a64(reports)));
  o.raw("counts", Out()
                      .num("cycles", cycles)
                      .num("committed", committed)
                      .num("cached", cached)
                      .num("worker_restarts", restarts)
                      .done());
  if (!spans.enabled()) return o.done();

  // Traced replay of every point in this process; the fresh points are
  // checked against the job reports' records (cached points have none).
  Out layers;
  uint64_t mismatches = 0;
  {
    Spans::Scope replay(spans, "bench.replay");
    mismatches = replay_full(g, spans, layers, [&](size_t i, const FullRun& r) {
      const auto it = records.find({g.points[i].kernel, g.points[i].key});
      return it == records.end() || same_result(r.result, 0, it->second.result, 0);
    });
  }
  std::sort(job_s.begin(), job_s.end());
  const auto totals = spans.totals();
  layers.num("service.ready_ms", ready_s * 1e3);
  layers.num("service.submit_ms", totals.at("client.submit").total_s * 1e3 /
                                      static_cast<double>(jobs.size()));
  layers.num("service.job_s_p50",
             job_s.size() % 2 == 1
                 ? job_s[job_s.size() / 2]
                 : (job_s[job_s.size() / 2 - 1] + job_s[job_s.size() / 2]) / 2);
  layers.num("service.job_s_max", job_s.back());
  layers.num("service.point_overhead_ms",
             (wall_s * kWorkers - run_seconds) * 1e3 /
                 static_cast<double>(g.points.size()));
  layers.num("service.cached_share",
             ratio(cached, static_cast<double>(g.points.size())));
  layers.num("service.worker_restarts", restarts);
  layers.num("service.status_polls", polls);
  layers.num("harness.failures", failed);
  emit_span_layers(layers, spans);
  o.num("replay_mismatches", mismatches);
  o.raw("layers", layers.done());
  return o.done();
}

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) throw SimError("usage: wecbench prepare|setup|rep --workload W "
                               "--seed N --dir D [--t0-ns T] [--trace]");
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw SimError(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = next();
    } else if (arg == "--seed") {
      const std::string v = next();
      char* end = nullptr;
      const unsigned long long s = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || s > 0xffffffffull) {
        throw SimError("--seed expects an integer in [0, 2^32), got '" + v + "'");
      }
      a.seed = static_cast<uint32_t>(s);
    } else if (arg == "--dir") {
      a.dir = next();
    } else if (arg == "--t0-ns") {
      a.t0_ns = std::stoll(next());
    } else if (arg == "--trace") {
      a.trace = true;
    } else {
      throw SimError("unknown argument '" + arg + "'");
    }
  }
  if (a.dir.empty()) throw SimError("--dir is required");
  if (a.mode != "prepare" && a.t0_ns == 0) {
    a.t0_ns = mono_ns();
  }
  return a;
}

// Inherited WECSIM_* variables would change what is measured (cache, skip,
// sampling, profiling, tracing, journal, jobs, faults, checking), so none
// reaches the simulator; wecsimd gets only the cache dir set explicitly.
void clear_wecsim_env() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("WECSIM_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& n : names) ::unsetenv(n.c_str());
}

int main_impl(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  clear_wecsim_env();
  const Grid g = make_grid(a.workload, a.seed);
  if (::chdir(a.dir.c_str()) != 0) throw SimError("cannot enter " + a.dir);
  if (g.service && a.mode != "prepare") confine_to_worker_cpus();
  std::string out;
  if (a.mode == "prepare") {
    out = run_prepare(g, a);
  } else if (a.mode == "setup") {
    out = run_setup(g, a);
  } else if (a.mode == "rep") {
    Spans spans(a.trace);
    out = g.service ? run_service_rep(g, a, spans)
                    : run_harness_rep(g, a, spans);
    if (a.trace && !spans.write_jsonl("spans.jsonl")) {
      throw SimError("cannot write spans.jsonl");
    }
  } else {
    throw SimError("unknown mode '" + a.mode + "' (prepare, setup, rep)");
  }
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace wecbench

int main(int argc, char** argv) {
  try {
    return wecbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wecbench: %s\n", e.what());
    return 1;
  }
}
