// Benchmark driver: runs ONE workload in this process and prints its
// metrics (README.md).  run.py builds and launches it:
//
//   perfbench_driver --workload W --seed S --seconds T --trace 0|1 --out DIR
//
// --trace 0 reports the end-to-end metrics (setup_s, solve_s, cpu_s,
// peak_rss_mb) from untraced solves.  --trace 1 reports the per-layer
// metrics: it alternates untraced and traced solves (for trace.overhead),
// attaches an obs::Registry to read the counters the program exports,
// records obs::TraceSink spans around every public call, and writes the
// merged Chrome trace to DIR at the end.  The last stdout line holds
// correct, attempted, failed and the measured values by metric name, from
// which run.py makes the result object; the line before it carries the
// host fingerprint and the per-solve samples.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/runtime_metrics.hpp"
#include "obs/span.hpp"
#include "scale/batch_executor.hpp"
#include "workloads.hpp"

namespace {

using namespace ftcc;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

// ---- measurement primitives --------------------------------------------

/// Wall clock plus the process's rusage at one instant.  start() reads
/// the clock last and stop() reads it first, so the getrusage call stays
/// outside the timed interval.
struct Snap {
  Clock::time_point wall;
  rusage ru{};
  static Snap start() {
    Snap s;
    getrusage(RUSAGE_SELF, &s.ru);
    s.wall = Clock::now();
    return s;
  }
  static Snap stop() {
    Snap s;
    s.wall = Clock::now();
    getrusage(RUSAGE_SELF, &s.ru);
    return s;
  }
};

double tv_s(const timeval& t) {
  return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
}

/// One timed interval: wall, user+sys CPU, involuntary context switches
/// and minor page faults of the whole process.
struct Sample {
  double wall_s = 0, cpu_s = 0, nivcsw = 0, minflt = 0;
  static Sample between(const Snap& a, const Snap& b) {
    Sample s;
    s.wall_s = std::chrono::duration<double>(b.wall - a.wall).count();
    s.cpu_s = tv_s(b.ru.ru_utime) + tv_s(b.ru.ru_stime) -
              tv_s(a.ru.ru_utime) - tv_s(a.ru.ru_stime);
    s.nivcsw = static_cast<double>(b.ru.ru_nivcsw - a.ru.ru_nivcsw);
    s.minflt = static_cast<double>(b.ru.ru_minflt - a.ru.ru_minflt);
    return s;
  }
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

template <typename F>
std::vector<double> field(const std::vector<Sample>& v, F f) {
  std::vector<double> out;
  for (const Sample& s : v) out.push_back(f(s));
  return out;
}

// ---- result document ---------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
};

struct Result {
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  /// Measured values by metric name; run.py adds the units from
  /// BENCHMARK.json.
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<Sample> setups, solves;

  /// Records one verified operation; `why` empty = accepted.
  void check(const std::string& why, std::uint64_t ops = 1,
             std::uint64_t failed_ops = 1) {
    attempted += ops;
    if (why.empty()) return;
    failed += failed_ops;
    if (errors.size() < 8) errors.push_back(why);
  }
};

std::string read_first_line(const std::string& path,
                            const std::string& prefix = "") {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const auto colon = prefix.empty() ? std::string::npos : line.find(':');
    return colon == std::string::npos ? line : line.substr(colon + 2);
  }
  return "unknown";
}

/// Host fingerprint: an unsteady run can then be traced to the machine.
std::string host_json() {
  std::string llc = "unknown";
  for (int idx = 3; idx >= 0 && llc == "unknown"; --idx)
    llc = read_first_line("/sys/devices/system/cpu/cpu0/cache/index" +
                          std::to_string(idx) + "/size");
  std::ostringstream o;
  o << "{\"cpu\":\"" << obs::json_escape(read_first_line("/proc/cpuinfo",
                                                         "model name"))
    << "\",\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"llc\":\"" << obs::json_escape(llc) << "\",\"thp\":\""
    << obs::json_escape(read_first_line(
           "/sys/kernel/mm/transparent_hugepage/enabled"))
    << "\",\"compiler\":\"" << obs::json_escape(PERFBENCH_COMPILER)
    << "\",\"flags\":\"" << obs::json_escape(PERFBENCH_FLAGS) << "\"}";
  return o.str();
}

/// Shortest decimal that round-trips: every digit as measured.
std::string num(double x) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, x);
  return std::string(buf, res.ptr);
}

std::string samples_json(const std::vector<Sample>& v) {
  std::ostringstream o;
  o << "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    o << (i ? "," : "") << "{\"wall_s\":" << num(v[i].wall_s)
      << ",\"cpu_s\":" << num(v[i].cpu_s)
      << ",\"nivcsw\":" << v[i].nivcsw << ",\"minflt\":" << v[i].minflt << "}";
  o << "]";
  return o.str();
}

void print(const Args& a, const Result& r) {
  std::ostringstream d;
  d << "{\"perfbench\":\"detail-v1\",\"workload\":\"" << a.workload
    << "\",\"seed\":" << a.seed << ",\"trace\":" << (a.trace ? 1 : 0)
    << ",\"host\":" << host_json() << ",\"setup_count\":" << r.setups.size()
    << ",\"setups\":"
    << samples_json(r.setups.size() <= 8 ? r.setups : std::vector<Sample>{})
    << ",\"solves\":" << samples_json(r.solves) << ",\"errors\":[";
  for (std::size_t i = 0; i < r.errors.size(); ++i)
    d << (i ? "," : "") << "\"" << obs::json_escape(r.errors[i]) << "\"";
  d << "]}";
  std::cout << d.str() << "\n";

  std::ostringstream o;
  o << "{\"correct\":" << (r.failed == 0 && r.attempted > 0 ? "true" : "false")
    << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
    << ",\"values\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i)
    o << (i ? "," : "") << "\"" << r.metrics[i].first
      << "\":" << num(r.metrics[i].second);
  o << "}}";
  std::cout << o.str() << std::endl;
}

/// End-to-end metrics, identical names on every workload.
void end_to_end(Result& r) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  r.metrics = {
      {"setup_s", median(field(r.setups, [](auto& s) { return s.wall_s; }))},
      {"solve_s", median(field(r.solves, [](auto& s) { return s.wall_s; }))},
      {"cpu_s", median(field(r.solves, [](auto& s) { return s.cpu_s; }))},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0},
  };
}

/// The traced run's solve schedule: untraced and traced solves alternate
/// (so trace.overhead compares like with like) until the time is up.
struct TracedSolves {
  std::vector<Sample> untraced, traced;
  void add_common(std::vector<std::pair<std::string, double>>& have) const {
    have.push_back({"proc.nivcsw",
                    median(field(traced, [](auto& s) { return s.nivcsw; }))});
    have.push_back({"proc.minflt",
                    median(field(traced, [](auto& s) { return s.minflt; }))});
    const double u = median(field(untraced, [](auto& s) { return s.wall_s; }));
    const double t = median(field(traced, [](auto& s) { return s.wall_s; }));
    have.push_back({"trace.overhead", u > 0 ? t / u - 1 : 0});
  }
};

/// Runs solve(traced) per the run's schedule.  Untraced runs do at least
/// kMinSolves solves; every run stops starting solves after kHardStop
/// seconds, so even a slow host finishes a run well inside three minutes.
constexpr int kMinSolves = 3;
constexpr double kHardStop = 120;

template <typename Solve>
void solve_loop(const Args& a, Result& r, TracedSolves& ts, Solve&& solve) {
  const auto t0 = Clock::now();
  for (int i = 0;; ++i) {
    const double el = seconds_since(t0);
    if (el > kHardStop && i > 0) break;
    if (a.trace) {
      if (i >= 2 && el >= a.seconds) break;
      const bool traced = i % 2 == 1;
      const Sample s = solve(traced);
      (traced ? ts.traced : ts.untraced).push_back(s);
      r.solves.push_back(s);
    } else {
      if (i >= kMinSolves && el >= a.seconds) break;
      r.solves.push_back(solve(false));
    }
  }
}

// ---- scale-random / scale-torus ----------------------------------------

/// Set-up repetitions: each rebuilds graph, inputs and executor from
/// scratch (the previous instance is freed first, so peak RSS is one
/// instance's), and setup_s is their median.  They run at the start and
/// at one and two thirds of the run, so they sample the host's fast and
/// slow spells like the solves do (see SetupSampler).
constexpr int kScaleSetups = 3;

struct ScaleInstance {
  explicit ScaleInstance(Graph g) : in(std::move(g)) {}
  ScaleInputs in;
  std::unique_ptr<BatchExecutor<DeltaSquaredColoring>> ex;
};

Result run_scale(const Args& a, Topology topo, obs::TraceSink* sink) {
  Result r;
  std::unique_ptr<ScaleInstance> inst;
  std::vector<double> build, construct, minflt_construct;
  const auto set_up = [&] {
    inst.reset();
    obs::Span span(sink, "setup", "bench");
    const Snap s0 = Snap::start();
    {
      obs::Span g(sink, "graph_gen.build", "graph_gen");
      const auto b0 = Clock::now();
      Graph graph = make_scale_graph(topo, kScaleNodes, a.seed);
      build.push_back(seconds_since(b0));
      inst = std::make_unique<ScaleInstance>(std::move(graph));
    }
    {
      obs::Span g(sink, "inputs.generate", "bench");
      make_scale_ids_and_crashes(topo, a.seed, inst->in);
    }
    {
      obs::Span g(sink, "batch.construct", "batch");
      const Snap c0 = Snap::start();
      inst->ex = std::make_unique<BatchExecutor<DeltaSquaredColoring>>(
          inst->in.graph, inst->in.ids, inst->in.crashes);
      const Sample c = Sample::between(c0, Snap::stop());
      construct.push_back(c.wall_s);
      minflt_construct.push_back(c.minflt);
    }
    r.setups.push_back(Sample::between(s0, Snap::stop()));
  };
  set_up();

  std::optional<std::pair<std::uint64_t, std::uint64_t>> first;  // sweeps, acts
  std::vector<double> reset_s, sweep1_s, rest_s, mat_s;
  std::uint64_t reads = 0, crashed = 0, reg_acts = 0, reg_sweeps = 0;
  TracedSolves ts;
  const auto t0 = Clock::now();
  solve_loop(a, r, ts, [&](bool traced) {
    if (r.setups.size() < kScaleSetups &&
        seconds_since(t0) >= a.seconds * static_cast<double>(r.setups.size()) /
                                 kScaleSetups)
      set_up();
    const Graph& g = inst->in.graph;
    auto& ex = *inst->ex;
    obs::TraceSink* t = traced ? sink : nullptr;
    obs::Registry reg;
    obs::BatchMetrics bm;
    if (traced) bm = obs::BatchMetrics::create(reg);
    ExecutionResult<DeltaSquaredColoring::Output> res;
    std::uint64_t acts = 0;
    const Snap s0 = Snap::start();
    Clock::time_point t1, t2, t3;
    {
      obs::Span solve(t, "solve", "bench");
      {
        obs::Span sp(t, "batch.reset", "batch");
        ex.reset(g, inst->in.ids, inst->in.crashes);
        if (traced) ex.attach_metrics(&bm);
      }
      t1 = Clock::now();
      {
        obs::Span sp(t, "batch.sweep", "batch");
        acts += ex.sweep();
      }
      t2 = Clock::now();
      while (!ex.frontier_empty() && ex.now() < kMaxSweeps) {
        obs::Span sp(t, "batch.sweep", "batch");
        acts += ex.sweep();
      }
      t3 = Clock::now();
      obs::Span sp(t, "batch.materialize", "batch");
      res = ex.run(kMaxSweeps);
    }
    const Snap s4 = Snap::stop();
    {
      obs::Span sp(t, "verify", "bench");
      std::string why = verify_scale(inst->in, res);
      if (why.empty() && acts != res.total_activations())
        why = "sweep() returns disagree with the result's activations";
      if (why.empty() && first &&
          (first->first != res.steps || first->second != acts))
        why = "sweeps or activations differ from the run's first solve";
      if (!first) first = {res.steps, acts};
      r.check(why);
    }
    if (traced) {
      reset_s.push_back(seconds_between(s0.wall, t1));
      sweep1_s.push_back(seconds_between(t1, t2));
      rest_s.push_back(seconds_between(t2, t3));
      mat_s.push_back(seconds_between(t3, s4.wall));
      reads = 0;
      for (NodeId v = 0; v < g.node_count(); ++v)
        reads += res.activations[v] * static_cast<std::uint64_t>(g.degree(v));
      crashed = static_cast<std::uint64_t>(
          std::count(res.crashed.begin(), res.crashed.end(), true));
      reg_acts = reg.counter("batch.activations").value();
      reg_sweeps = reg.counter("batch.sweeps").value();
      if (reg_acts != acts || reg_sweeps != res.steps)
        r.check("obs batch counters disagree with the run", 0);
    }
    return Sample::between(s0, s4);
  });

  if (!a.trace) {
    end_to_end(r);
    return r;
  }
  const Graph& g = inst->in.graph;
  const double n = static_cast<double>(g.node_count());
  const double sweep_time = median(sweep1_s) + median(rest_s);
  std::vector<std::pair<std::string, double>> have = {
      {"graph_gen.build_s", median(build)},
      {"graph_gen.edges", static_cast<double>(g.edge_count())},
      {"graph.bytes_per_node", static_cast<double>(g.heap_bytes()) / n},
      {"batch.construct_s", median(construct)},
      {"batch.minflt_setup", median(minflt_construct)},
      {"batch.reset_s", median(reset_s)},
      {"batch.sweep1_s", median(sweep1_s)},
      {"batch.sweep_rest_s", median(rest_s)},
      {"batch.ns_per_read", sweep_time * 1e9 / static_cast<double>(reads)},
      {"batch.macts_per_s", static_cast<double>(reg_acts) / sweep_time / 1e6},
      {"batch.materialize_s", median(mat_s)},
      {"batch.sweeps", static_cast<double>(reg_sweeps)},
      {"batch.activations", static_cast<double>(reg_acts)},
      {"batch.neighbour_reads", static_cast<double>(reads)},
      {"batch.crashed", static_cast<double>(crashed)},
      {"batch.bytes_per_node", static_cast<double>(inst->ex->heap_bytes()) / n},
      {"batch.minflt_solve",
       median(field(ts.traced, [](auto& s) { return s.minflt; }))},
  };
  ts.add_common(have);
  r.metrics = std::move(have);
  return r;
}

// ---- campaign -------------------------------------------------------------

/// Set-up of the campaign and modelcheck workloads takes nanoseconds to
/// microseconds, and the reference host switches between a fast state and
/// one about 1.6x slower for seconds at a time (README.md, "Noise").  A
/// block of set-ups timed in one place would land in one state.  So set-up
/// is timed in short batches, one before every solve, spread over the
/// whole run; batch k counts towards group k mod kSetupGroups, and setup_s
/// is the median of the groups' per-set-up means.  Each set-up in a batch
/// also releases the instance made 16 set-ups earlier.
constexpr int kSetupGroups = 3;
constexpr double kSetupBatchSeconds = 1e-3;

template <typename Make>
class SetupSampler {
 public:
  explicit SetupSampler(Make make) : make_(std::move(make)) {}

  void sample() {
    const Snap s0 = Snap::start();
    std::uint64_t n = 0;
    do {
      for (auto& slot : ring_) slot = make_();
      n += ring_.size();
    } while (seconds_since(s0.wall) < kSetupBatchSeconds);
    const Sample s = Sample::between(s0, Snap::stop());
    Group& g = groups_[batches_++ % kSetupGroups];
    g.wall_s += s.wall_s;
    g.cpu_s += s.cpu_s;
    g.count += n;
  }

  void report(Result& r) const {
    for (const Group& g : groups_) {
      if (g.count == 0) continue;
      Sample s;
      s.wall_s = g.wall_s / static_cast<double>(g.count);
      s.cpu_s = g.cpu_s / static_cast<double>(g.count);
      r.setups.push_back(s);
    }
  }

 private:
  struct Group {
    double wall_s = 0, cpu_s = 0;
    std::uint64_t count = 0;
  };
  Make make_;
  std::array<decltype(std::declval<Make&>()()), 16> ring_{};
  std::array<Group, kSetupGroups> groups_{};
  std::size_t batches_ = 0;
};

constexpr unsigned kJobs = 2;

Result run_campaign_workload(const Args& a, obs::TraceSink* sink) {
  Result r;
  const auto make = [&] {
    return make_campaign_options(a.seed, kCampaignTrials, kJobs);
  };
  SetupSampler setup(make);
  std::vector<CampaignOptions> sets;
  for (std::uint64_t k = 0; k < kCampaignSets; ++k)
    sets.push_back(make_campaign_options(a.seed, kCampaignTrials, kJobs, k));

  // The exact counts (fuzz.*) come from set 0, so they repeat across runs
  // at a fixed seed however many solves a run fits.
  std::vector<double> busy, busy_share, steps_mean, set0_traced_s;
  double trials = 0, ok = 0, censored = 0, report_bytes = 0;
  // ok, censored of each set's first solve
  std::vector<std::optional<std::pair<std::uint64_t, std::uint64_t>>> first(
      kCampaignSets);
  const auto one = [&](bool traced, unsigned jobs, std::uint64_t set) {
    obs::TraceSink* t = traced ? sink : nullptr;
    obs::Registry reg;
    CampaignOptions o = sets[set];
    o.jobs = jobs;
    if (traced) {
      o.metrics = &reg;
      o.trace = t;
    }
    const Snap s0 = Snap::start();
    CampaignReport rep;
    {
      obs::Span solve(t, jobs == kJobs ? "solve" : "solve.jobs1", "bench");
      obs::Span sp(t, "fuzz.run_campaign", "fuzz");
      rep = run_campaign(o);
    }
    const Sample s = Sample::between(s0, Snap::stop());
    {
      obs::Span sp(t, "verify", "bench");
      std::string why = verify_campaign(rep, o.trials);
      auto& f = first[set];
      if (why.empty() && f && (f->first != rep.ok || f->second != rep.censored))
        why = "ok/censored differ from the set's first solve";
      if (!f) f = {rep.ok, rep.censored};
      r.check(why, o.trials,
              std::max<std::uint64_t>(campaign_failed_trials(rep, o.trials), 1));
    }
    if (traced && jobs == kJobs) {
      if (set == 0) {
        set0_traced_s.push_back(s.wall_s);
        trials = static_cast<double>(reg.counter("fuzz.trials").value());
        ok = static_cast<double>(reg.counter("fuzz.trials.ok").value());
        censored =
            static_cast<double>(reg.counter("fuzz.trials.censored").value());
        report_bytes = static_cast<double>(rep.text.size());
      }
      if (reg.counter("fuzz.trials.ok").value() != rep.ok ||
          reg.counter("fuzz.trials.censored").value() != rep.censored)
        r.check("obs fuzz counters disagree with the report", 0);
      const auto& hist_us = reg.histogram("fuzz.trial_us");
      const auto& hist_steps = reg.histogram("fuzz.trial_steps");
      busy.push_back(static_cast<double>(hist_us.sum()) * 1e-6);
      busy_share.push_back(busy.back() / (jobs * s.wall_s));
      steps_mean.push_back(static_cast<double>(hist_steps.sum()) /
                           static_cast<double>(std::max<std::uint64_t>(
                               hist_steps.count(), 1)));
    }
    return s;
  };

  // Solve i runs set i mod kCampaignSets; in the traced run an untraced
  // and a traced solve share each set, so trace.overhead compares like
  // with like.
  TracedSolves ts;
  std::uint64_t solves = 0;
  solve_loop(a, r, ts, [&](bool traced) {
    setup.sample();
    const std::uint64_t i = a.trace ? solves / 2 : solves;
    ++solves;
    return one(traced, kJobs, i % kCampaignSets);
  });
  setup.report(r);
  if (!a.trace) {
    end_to_end(r);
    return r;
  }
  // jobs=1 vs jobs=2 on set 0; the jobs=1 solve is also the one whose
  // fuzz.trial spans reach the trace (run_campaign records them only when
  // the pool is single-threaded).
  const Sample single = one(true, 1, 0);
  std::vector<std::pair<std::string, double>> have = {
      {"fuzz.trial_busy_s", median(busy)},
      {"fuzz.trials", trials},
      {"fuzz.ok", ok},
      {"fuzz.censored", censored},
      {"fuzz.steps_mean", median(steps_mean)},
      {"fuzz.report_bytes", report_bytes},
      {"pool.busy_share", median(busy_share)},
      {"pool.speedup", single.wall_s / median(set0_traced_s)},
  };
  ts.add_common(have);
  r.metrics = std::move(have);
  return r;
}

// ---- modelcheck -----------------------------------------------------------

Result run_modelcheck(const Args& a, obs::TraceSink* sink) {
  Result r;
  const auto make = [&] {
    return std::make_unique<ModelChecker<SixColoring>>(
        SixColoring{}, make_cycle(kMcNodes), make_mc_ids(a.seed),
        make_mc_options());
  };
  SetupSampler setup(make);
  const auto mc = make();

  std::optional<ModelCheckResult> last;
  std::optional<std::pair<std::uint64_t, std::uint64_t>> first;
  std::vector<double> busy_share;
  const auto one = [&](bool traced, unsigned jobs) {
    obs::TraceSink* t = traced ? sink : nullptr;
    obs::Registry reg;
    const obs::McMetrics mm = obs::McMetrics::create(reg);
    mc->attach_metrics(traced ? &mm : nullptr);
    const Snap s0 = Snap::start();
    ModelCheckResult res;
    {
      obs::Span solve(t, jobs == kJobs ? "solve" : "solve.jobs1", "bench");
      obs::Span sp(t, "mc.run_reduced", "modelcheck");
      res = mc->run_reduced(jobs);
    }
    const Sample s = Sample::between(s0, Snap::stop());
    mc->attach_metrics(nullptr);
    {
      obs::Span sp(t, "verify", "bench");
      std::string why = verify_modelcheck(res);
      if (why.empty() && first &&
          (first->first != res.configs || first->second != res.transitions))
        why = "configs/transitions differ from the run's first solve";
      if (!first) first = {res.configs, res.transitions};
      if (why.empty() && traced &&
          reg.counter("mc.transitions").value() != res.transitions)
        why = "obs mc counters disagree with the result";
      r.check(why);
    }
    if (traced && jobs == kJobs) {
      busy_share.push_back(s.cpu_s / (jobs * s.wall_s));
      last = res;
    }
    return s;
  };

  TracedSolves ts;
  solve_loop(a, r, ts, [&](bool traced) {
    setup.sample();
    return one(traced, kJobs);
  });
  setup.report(r);
  if (!a.trace) {
    end_to_end(r);
    return r;
  }
  const Sample single = one(true, 1);
  const double two = median(field(ts.traced, [](auto& s) { return s.wall_s; }));
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  const ModelCheckResult& m = *last;
  std::vector<std::pair<std::string, double>> have = {
      {"mc.configs", d(m.configs)},
      {"mc.transitions", d(m.transitions)},
      {"mc.terminal", d(m.terminal_configs)},
      {"mc.store_entries", d(m.store_entries)},
      {"mc.sym_hits", d(m.sym_hits)},
      {"mc.commute_skipped", d(m.commute_skipped)},
      {"mc.store_bytes", d(m.store_bytes)},
      {"mc.bytes_per_state", d(m.store_bytes) / d(m.configs)},
      {"mc.new_per_transition", d(m.configs) / d(m.transitions)},
      {"mc.commute_pruned_share",
       d(m.commute_skipped) / d(m.commute_skipped + m.transitions)},
      {"mc.configs_per_s", d(m.configs) / two},
      {"pool.busy_share", median(busy_share)},
      {"pool.speedup", single.wall_s / two},
  };
  ts.add_common(have);
  r.metrics = std::move(have);
  return r;
}

int usage(const char* why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload scale-random|scale-torus|"
               "campaign|modelcheck --seed N --seconds T --trace 0|1 --out DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--out") a.out = v;
      else return usage(("unknown flag " + k).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + k).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (!(a.seconds > 0)) return usage("--seconds must be positive");

  obs::TraceSink sink;
  obs::TraceSink* t = a.trace ? &sink : nullptr;
  if (t) t->process_name(0, "perfbench " + a.workload);
  Result r;
  if (a.workload == "scale-random") r = run_scale(a, Topology::random, t);
  else if (a.workload == "scale-torus") r = run_scale(a, Topology::torus, t);
  else if (a.workload == "campaign") r = run_campaign_workload(a, t);
  else if (a.workload == "modelcheck") r = run_modelcheck(a, t);
  else return usage(("unknown workload '" + a.workload + "'").c_str());

  if (t) {
    const std::string path =
        a.out + "/" + a.workload + "-seed" + std::to_string(a.seed) + ".trace.json";
    if (!sink.write(path)) {
      std::cerr << "perfbench_driver: cannot write " << path << "\n";
      return 1;
    }
  }
  print(a, r);
  return 0;
}
