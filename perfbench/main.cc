// perfbench: the end-to-end benchmark of the S2FA reproduction.
//
//   perfbench --workload dse|batch|stream --seed N --seconds S --trace 0|1
//             [--exec-threads T] [--quick]
//
// Every run sets up the deployed accelerators (set-up is repeated and its
// median reported as setup_s), then runs three phases through the public
// API:
//
//   dse     s2fa::BuildAccelerator on all 8 apps over many DSE seeds;
//   batch   BlazeRuntime::Map / Reduce over one full batch per app, checked
//           record by record against the JVM reference (apps::RunOnJvm);
//   stream  StreamSession::Run over a two-lane BlazeCluster, SVM requests
//           arriving open-loop at 0.5x, 1x, 1.5x and 2x modeled capacity.
//
// The three phases' fixed passes are interleaved in chunks, so every run
// reports every end-to-end metric; the phase named by --workload then runs on
// until --seconds of measuring have passed. Model-clock metrics (simulated
// HLS hours, modeled microseconds) come only from the fixed passes: they are
// a pure function of --seed and never of the host or of --exec-threads.
// Host-clock rates are total work over total time of the timed calls: the
// host this runs on switches between fast and slow states for a second or
// more at a time, and a median over such samples jumps between the states
// where a mean moves smoothly.
//
// --trace 1 adds the per-layer rows. They are timed from this file around
// calls into each layer's public functions, outside the end-to-end timed
// regions except where a hook must sit inside (the DSE evaluator wrapper
// and the accelerator invocation counter); trace.overhead_pct reports what
// those hooks cost.
//
// Output: one `metric ...` line per metric (name, value, unit, clock,
// workload, kind), failure notes on stderr, and as the last stdout line a
// JSON object {correct, attempted, failed, metrics} holding the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/app.h"
#include "apps/jvm_baseline.h"
#include "b2c/compiler.h"
#include "blaze/serialization.h"
#include "blaze/stream.h"
#include "dse/explorer.h"
#include "hls/estimator.h"
#include "kir/eval.h"
#include "kir/printer.h"
#include "merlin/transform.h"
#include "s2fa/framework.h"
#include "support/error.h"
#include "support/rng.h"
#include "tuner/space.h"

namespace {

using namespace s2fa;
using Clock = std::chrono::steady_clock;

// ---- fixed benchmark shape ------------------------------------------------

// DSE seed of the accelerators deployed for batch and stream (the `s2fa
// run` default): the deployed designs are part of the system under test,
// the data they process comes from --seed.
constexpr std::uint64_t kDeploySeed = 1;
// `s2fa run`'s relative tolerance against the JVM reference.
constexpr double kTolerance = 1e-4;
// Modeled capacity multiples the stream phase offers.
constexpr double kRates[] = {0.5, 1.0, 1.5, 2.0};
constexpr const char* kRateNames[] = {"0_5x", "1x", "1_5x", "2x"};
constexpr std::size_t kNumRates = 4;
// Stream requests per micro-batch: 2 requests of ~32 SVM rows fill ~6% of
// the kernel's 1024-slot task loop.
constexpr std::size_t kStreamBatchMax = 2;
constexpr std::int64_t kStreamMinRows = 16;
constexpr std::int64_t kStreamMaxRows = 48;
constexpr int kStreamLanes = 2;
constexpr const char* kStreamKernel = "svm";

struct Shape {
  int setup_reps = 3;          // set-ups per run; setup_s is their median
  int dse_seeds = 40;          // fixed DSE set: 8 apps x 40 seeds
  double batch_min_s = 0.1;    // repeat each app's call to at least this
  std::size_t stream_records = 1000;  // requests per rate
};

Shape QuickShape() {
  Shape shape;
  shape.setup_reps = 1;
  shape.dse_seeds = 1;
  shape.batch_min_s = 0;
  shape.stream_records = 600;
  return shape;
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 1;
  Shape shape;
};

// ---- small helpers --------------------------------------------------------

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed ^ (salt * 0x9E3779B97F4A7C15ULL);
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Nearest-rank quantile; 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double AsNumber(const jvm::Value& v) {
  if (v.is_double()) return v.AsDouble();
  if (v.is_float()) return v.AsFloat();
  if (v.is_long()) return static_cast<double>(v.AsLong());
  return v.AsInt();
}

// Output records of `got` that differ from `want` anywhere by more than the
// relative tolerance (a record count mismatch fails every record).
std::size_t MismatchedRecords(const blaze::Dataset& got,
                              const blaze::Dataset& want) {
  const std::size_t records = std::max(got.num_records(), want.num_records());
  if (got.num_records() != want.num_records() ||
      got.num_columns() != want.num_columns()) {
    return std::max<std::size_t>(records, 1);
  }
  std::vector<char> bad(records, 0);
  for (std::size_t c = 0; c < got.num_columns(); ++c) {
    const blaze::Column& g = got.column(c);
    if (!want.HasField(g.field)) return std::max<std::size_t>(records, 1);
    const blaze::Column& w = want.ColumnByField(g.field);
    if (g.data.size() != w.data.size()) {
      return std::max<std::size_t>(records, 1);
    }
    const std::size_t stride = static_cast<std::size_t>(g.per_record);
    for (std::size_t n = 0; n < g.data.size(); ++n) {
      const double gv = AsNumber(g.data[n]);
      const double wv = AsNumber(w.data[n]);
      if (!(std::fabs(gv - wv) <= kTolerance * std::max(1.0, std::fabs(wv)))) {
        bad[n / stride] = 1;
      }
    }
  }
  return static_cast<std::size_t>(std::count(bad.begin(), bad.end(), 1));
}

// ---- accounting and report --------------------------------------------------

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void Fail(std::size_t count, const std::string& what) {
    failed += count;
    std::fprintf(stderr, "perfbench: FAILED %zu: %s\n", count, what.c_str());
  }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string clock;     // host | model
  std::string workload;  // the workload whose load it measures, or "all"
  bool end_to_end = true;
};

class Report {
 public:
  void EndToEnd(const std::string& name, double value, const char* unit,
                const char* clock, const char* workload) {
    metrics_.push_back({name, value, unit, clock, workload, true});
  }
  void Layer(const std::string& name, double value, const char* unit,
             const char* clock, const char* workload) {
    metrics_.push_back({name, value, unit, clock, workload, false});
  }

  void Print(bool trace, const Tally& tally) const {
    for (const Metric& m : metrics_) {
      std::printf("metric %s value=%.17g unit=%s clock=%s workload=%s "
                  "kind=%s\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.clock.c_str(),
                  m.workload.c_str(), m.end_to_end ? "end_to_end" : "per_layer");
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                tally.failed == 0 ? "true" : "false", tally.attempted,
                tally.failed);
    bool first = true;
    for (const Metric& m : metrics_) {
      if (m.end_to_end == trace) continue;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
      first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
};

// ---- set-up -------------------------------------------------------------------

// One app deployed for the batch phase.
struct DeployedApp {
  apps::App app;
  Artifact artifact;  // built with kDeploySeed
  blaze::Dataset input;
  blaze::Dataset broadcast;
  bool has_broadcast = false;
  apps::JvmRunResult jvm;  // reference outputs and modeled JVM time
  double jvm_host_s = 0;

  const blaze::Dataset* bc() const {
    return has_broadcast ? &broadcast : nullptr;
  }
  bool reduce() const {
    return app.spec.pattern == kir::ParallelPattern::kReduce;
  }
};

// The stream phase's requests, shared by every rate.
struct StreamInputs {
  blaze::Dataset broadcast;               // SVM weights
  std::vector<blaze::Dataset> requests;   // kStreamMinRows..kStreamMaxRows rows
  std::vector<blaze::Dataset> expected;   // app.reference per request
  std::vector<double> jitter;             // arrival offset in [0, 1) slots
  double mean_rows = 0;
  double inv_us = 0;                      // modeled cost of one invocation
};

struct Bench {
  blaze::BlazeRuntime runtime;
  std::vector<DeployedApp> apps;
  StreamInputs stream;
};

std::string LaneId(int lane) { return "svm-lane" + std::to_string(lane); }

std::unique_ptr<Bench> SetUp(const Config& config) {
  auto bench = std::make_unique<Bench>();
  std::vector<apps::App> all = apps::AllApps();
  for (std::size_t i = 0; i < all.size(); ++i) {
    DeployedApp d;
    d.app = std::move(all[i]);
    FrameworkOptions options;
    options.dse.seed = kDeploySeed;
    options.dse.exec_threads = config.threads;
    d.artifact = BuildAccelerator(*d.app.pool, d.app.spec, options);
    RegisterWithBlaze(bench->runtime, d.app.name, d.artifact);

    Rng rng(Mix(config.seed, 100 + i));
    d.input = d.app.make_input(static_cast<std::size_t>(d.artifact.plan.batch),
                               rng);
    if (d.app.make_broadcast) {
      Rng brng(Mix(config.seed, 200 + i));
      d.broadcast = d.app.make_broadcast(brng);
      d.has_broadcast = true;
    }
    const Clock::time_point start = Clock::now();
    d.jvm = apps::RunOnJvm(d.app, d.input, d.bc());
    d.jvm_host_s = Since(start);
    bench->apps.push_back(std::move(d));
  }

  const DeployedApp* svm = nullptr;
  for (const DeployedApp& d : bench->apps) {
    if (d.app.name == "SVM") svm = &d;
  }
  if (svm == nullptr) throw std::runtime_error("SVM app missing");
  for (int lane = 0; lane < kStreamLanes; ++lane) {
    RegisterWithBlaze(bench->runtime, LaneId(lane), svm->artifact);
  }
  StreamInputs& s = bench->stream;
  Rng rng(Mix(config.seed, 300));
  Rng brng(Mix(config.seed, 301));
  s.broadcast = svm->app.make_broadcast(brng);
  std::size_t rows = 0;
  for (std::size_t i = 0; i < config.shape.stream_records; ++i) {
    const auto n = static_cast<std::size_t>(
        rng.NextInt(kStreamMinRows, kStreamMaxRows));
    rows += n;
    s.requests.push_back(svm->app.make_input(n, rng));
    s.expected.push_back(svm->app.reference(s.requests.back(), &s.broadcast));
    s.jitter.push_back(rng.NextDouble());
  }
  s.mean_rows = static_cast<double>(rows) /
                static_cast<double>(config.shape.stream_records);
  s.inv_us = bench->runtime.PerInvocationCost(LaneId(0)).total_us;
  return bench;
}

// ---- phases -----------------------------------------------------------------------

// Counts accelerator invocations through the runtime's fault-injection hook,
// which Map and Reduce call once per attempt. It never injects a fault.
class InvocationCounter {
 public:
  InvocationCounter(blaze::BlazeRuntime& runtime, bool enabled)
      : runtime_(runtime), enabled_(enabled) {
    if (enabled_) {
      runtime_.SetFaultInjector([this](const std::string&, std::size_t, int) {
        ++count_;
        return false;
      });
    }
  }
  ~InvocationCounter() {
    if (enabled_) runtime_.SetFaultInjector(nullptr);
  }
  InvocationCounter(const InvocationCounter&) = delete;
  InvocationCounter& operator=(const InvocationCounter&) = delete;

  std::size_t count() const { return count_.load(); }

 private:
  blaze::BlazeRuntime& runtime_;
  bool enabled_;
  std::atomic<std::size_t> count_{0};
};

// A phase is run as numbered units. Units below fixed_units() are the fixed
// pass every run makes, and the only source of model-clock metrics; the home
// phase keeps running further units until the measuring window closes.
class Phase {
 public:
  virtual ~Phase() = default;
  virtual std::size_t fixed_units() const = 0;
  virtual void Unit(std::size_t u) = 0;
  virtual void Finish(Report& report, bool home) = 0;
};

// ---- dse: BuildAccelerator on every app, one DSE seed per unit ---------------

class DsePhase : public Phase {
 public:
  DsePhase(const Config& config, const Bench& bench, Tally& tally)
      : config_(config), bench_(bench), tally_(tally) {}

  std::size_t fixed_units() const override {
    return static_cast<std::size_t>(config_.shape.dse_seeds);
  }

  void Unit(std::size_t u) override {
    const bool fixed = u < fixed_units();
    for (const DeployedApp& d : bench_.apps) {
      Build(d.app, Mix(config_.seed, 1000 + u), fixed, config_.trace && fixed,
            config_.trace && u == 0);
    }
  }

  void Finish(Report& report, bool home) override;

 private:
  // The traced decomposition, summed over traced builds.
  struct Layers {
    std::size_t builds = 0;
    double wall_s = 0, compile_s = 0, space_s = 0, run_s = 0;
    double apply_s = 0, estimate_s = 0;
    double busy_s = 0;  // inside the Merlin+HLS evaluator, all threads
    std::size_t eval_calls = 0;
    std::vector<double> ratios;  // traced / plain wall time, per build
  };
  // Configs one traced build evaluated, kept for the per-point replay.
  struct ReplaySet {
    kir::Kernel kernel;
    std::vector<merlin::DesignConfig> configs;
  };

  void Build(const apps::App& app, std::uint64_t dse_seed, bool fixed,
             bool traced, bool keep_configs);
  void TracedBuild(const apps::App& app, const FrameworkOptions& options,
                   const Artifact& plain, double plain_ms, bool keep_configs);

  const Config& config_;
  const Bench& bench_;
  Tally& tally_;
  std::vector<double> build_ms_;  // every plain BuildAccelerator call
  std::vector<double> sim_hours_, qor_us_;
  std::size_t evaluations_ = 0, reclaim_grants_ = 0, retries_ = 0;
  std::size_t cache_hits_ = 0, cache_lookups_ = 0;
  Layers layers_;
  std::vector<ReplaySet> replay_;
};

// One plain build (timed), its gates, and with `traced` its decomposition.
void DsePhase::Build(const apps::App& app, std::uint64_t dse_seed, bool fixed,
                     bool traced, bool keep_configs) {
  FrameworkOptions options;
  options.dse.seed = dse_seed;
  options.dse.exec_threads = config_.threads;
  ++tally_.attempted;
  Artifact artifact;
  const Clock::time_point start = Clock::now();
  try {
    artifact = BuildAccelerator(*app.pool, app.spec, options);
  } catch (const std::exception& e) {
    tally_.Fail(1, "build " + app.name + ": " + e.what());
    return;
  }
  const double ms = Since(start) * 1e3;
  build_ms_.push_back(ms);

  // Gate: Merlin + HLS on the reported best config reproduce its cost.
  const tuner::EvalOutcome again =
      MakeHlsEvaluator(artifact.generated_kernel, options.hls)(
          artifact.exploration.best_config);
  if (!again.feasible || again.cost != artifact.exploration.best_cost) {
    tally_.Fail(1, "best config of " + app.name +
                       " does not reproduce its cost");
  }
  if (fixed) {
    const dse::DseResult& r = artifact.exploration;
    sim_hours_.push_back(r.elapsed_minutes / 60.0);
    qor_us_.push_back(artifact.best_hls.exec_us);
    evaluations_ += r.evaluations;
    reclaim_grants_ += r.reclaim_grants.size();
    retries_ += r.resilience.retries;
    cache_hits_ += r.cache_stats.hits;
    cache_lookups_ += r.cache_stats.lookups;
  }
  if (traced) {
    try {
      TracedBuild(app, options, artifact, ms, keep_configs);
    } catch (const std::exception& e) {
      tally_.Fail(1, "traced build " + app.name + ": " + e.what());
    }
  }
}

// BuildAccelerator's steps (s2fa/framework.cc) called one by one, each
// layer's call timed and the Merlin+HLS evaluator wrapped. It must reach the
// plain build's best design.
void DsePhase::TracedBuild(const apps::App& app,
                           const FrameworkOptions& options,
                           const Artifact& plain, double plain_ms,
                           bool keep_configs) {
  std::atomic<std::int64_t> busy_ns{0};
  std::atomic<std::size_t> calls{0};
  std::mutex configs_mu;
  std::vector<merlin::DesignConfig> configs;

  const Clock::time_point start = Clock::now();
  Clock::time_point t = start;
  kir::Kernel kernel = b2c::CompileKernel(*app.pool, app.spec);
  const double compile_s = Since(t);
  const std::string c_source = kir::EmitC(kernel);
  t = Clock::now();
  const tuner::DesignSpace space = tuner::BuildDesignSpace(kernel);
  const double space_s = Since(t);
  const blaze::SerializationPlan plan = blaze::MakeSerializationPlan(kernel);
  const std::string helper = blaze::RenderScalaHelper(plan);

  const tuner::EvalFn inner = MakeHlsEvaluator(kernel, options.hls);
  const tuner::EvalFn wrapped = [&](const merlin::DesignConfig& config) {
    const Clock::time_point begin = Clock::now();
    tuner::EvalOutcome outcome = inner(config);
    busy_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - begin)
                   .count();
    ++calls;
    if (keep_configs) {
      std::lock_guard<std::mutex> lock(configs_mu);
      configs.push_back(config);
    }
    return outcome;
  };
  t = Clock::now();
  const dse::DseResult result =
      dse::RunS2faDse(space, kernel, wrapped, options.dse);
  const double run_s = Since(t);
  if (!result.found_feasible) {
    tally_.Fail(1, "traced DSE found no feasible design for " + app.name);
    return;
  }
  t = Clock::now();
  merlin::TransformResult best = merlin::ApplyDesign(kernel, result.best_config);
  const double apply_s = Since(t);
  t = Clock::now();
  const hls::HlsResult best_hls = hls::EstimateHls(best.kernel, options.hls);
  const double estimate_s = Since(t);
  const std::string best_c = kir::EmitC(best.kernel);
  const double wall_s = Since(start);

  Layers& l = layers_;
  ++l.builds;
  l.wall_s += wall_s;
  l.compile_s += compile_s;
  l.space_s += space_s;
  l.run_s += run_s;
  l.apply_s += apply_s;
  l.estimate_s += estimate_s;
  l.busy_s += static_cast<double>(busy_ns.load()) * 1e-9;
  l.eval_calls += calls.load();
  l.ratios.push_back(wall_s * 1e3 / plain_ms);
  if (!(result.best_config == plain.exploration.best_config) ||
      result.best_cost != plain.exploration.best_cost ||
      best_hls.exec_us != plain.best_hls.exec_us) {
    tally_.Fail(1, "traced DSE diverged from BuildAccelerator on " + app.name);
  }
  if (keep_configs) replay_.push_back({std::move(kernel), std::move(configs)});
}

void DsePhase::Finish(Report& report, bool home) {
  report.EndToEnd("dse_build_ms_p50", Median(build_ms_), "ms", "host", "dse");
  report.EndToEnd("dse_build_ms_p95", Quantile(build_ms_, 0.95), "ms", "host",
                  "dse");
  report.EndToEnd("dse_sim_hours_mean", Mean(sim_hours_), "h", "model", "dse");
  report.EndToEnd("dse_qor_geomean_us", GeoMean(qor_us_), "us", "model",
                  "dse");
  std::printf("dse: %zu builds, %zu in the fixed set\n", build_ms_.size(),
              sim_hours_.size());
  if (!config_.trace) return;

  const double n = static_cast<double>(std::max<std::size_t>(sim_hours_.size(), 1));
  const Layers& l = layers_;
  const double traced = static_cast<double>(std::max<std::size_t>(l.builds, 1));
  report.Layer("b2c.compile_us", l.compile_s * 1e6 / traced, "us", "host", "dse");
  report.Layer("tuner.space_us", l.space_s * 1e6 / traced, "us", "host", "dse");
  report.Layer("dse.run_ms", l.run_s * 1e3 / traced, "ms", "host", "dse");
  report.Layer("dse.eval_calls", static_cast<double>(l.eval_calls) / traced,
               "count", "host", "dse");
  report.Layer("dse.eval_busy_ms", l.busy_s * 1e3 / traced, "ms", "host",
               "dse");
  report.Layer("dse.thread_util", Ratio(l.busy_s, l.run_s * config_.threads),
               "ratio", "host", "dse");
  report.Layer("cache.hit_ratio",
               Ratio(static_cast<double>(cache_hits_),
                     static_cast<double>(cache_lookups_)),
               "ratio", "model", "dse");
  report.Layer("dse.evals_per_build", static_cast<double>(evaluations_) / n,
               "count", "model", "dse");
  report.Layer("dse.reclaim_grants", static_cast<double>(reclaim_grants_) / n,
               "count", "model", "dse");
  report.Layer("resilience.retries", static_cast<double>(retries_), "count",
               "model", "dse");
  const double attributed =
      l.compile_s + l.space_s + l.run_s + l.apply_s + l.estimate_s;
  report.Layer("trace.unattributed_pct.dse",
               100.0 * Ratio(l.wall_s - attributed, l.wall_s), "%", "host",
               "dse");

  // Per design point: the first seed's evaluated configs replayed through
  // Merlin, then the HLS estimator.
  const hls::EstimatorOptions hls_options;
  double apply_s = 0, estimate_s = 0;
  std::size_t points = 0;
  for (const ReplaySet& set : replay_) {
    for (const merlin::DesignConfig& cfg : set.configs) {
      try {
        Clock::time_point t = Clock::now();
        const merlin::TransformResult tr = merlin::ApplyDesign(set.kernel, cfg);
        const double a = Since(t);
        t = Clock::now();
        const hls::HlsResult h = hls::EstimateHls(tr.kernel, hls_options);
        estimate_s += Since(t);
        apply_s += a;
        ++points;
        (void)h;
      } catch (const InvalidArgument&) {
        // An illegal factor combination; the evaluator fails it fast too.
      }
    }
  }
  const double p = static_cast<double>(std::max<std::size_t>(points, 1));
  report.Layer("merlin.apply_us", apply_s * 1e6 / p, "us", "host", "dse");
  report.Layer("hls.estimate_us", estimate_s * 1e6 / p, "us", "host", "dse");
  if (home) {
    // Each traced build against the plain build of the same seed just
    // before it.
    report.Layer("trace.overhead_pct", 100.0 * (Median(l.ratios) - 1.0), "%",
                 "host", "dse");
  }
}

// Medians of the same work timed alternately without and with a trace hook.
struct Paired {
  std::vector<double> plain_s, hooked_s;
  double overhead_pct() const {
    return plain_s.empty() || hooked_s.empty()
               ? 0.0
               : 100.0 * (Median(hooked_s) / Median(plain_s) - 1.0);
  }
};

// ---- batch: Map / Reduce over one full batch, one app per unit ----------------

class BatchPhase : public Phase {
 public:
  BatchPhase(const Config& config, Bench& bench, Tally& tally)
      : config_(config), bench_(bench), tally_(tally),
        apps_(bench.apps.size()) {}

  // Two units per app, so each app is timed at two points of the run.
  std::size_t fixed_units() const override { return 2 * bench_.apps.size(); }
  void Unit(std::size_t u) override;
  void Finish(Report& report, bool home) override;

 private:
  // The batch split: one call's batches replayed through SerializeBatch ->
  // Evaluator::Run -> DeserializeBatch, the parts Map is made of.
  struct Split {
    double resolve_s = 0, serialize_s = 0, eval_s = 0, deserialize_s = 0;
    double total() const {
      return resolve_s + serialize_s + eval_s + deserialize_s;
    }
  };
  struct AppCalls {
    std::vector<double> call_s;    // plain calls, every unit
    blaze::ExecutionStats stats;   // first call (model clock)
    Paired hook;                   // the app's first unit, traced runs only
    Split split;                   // summed over `replays`
    std::size_t replays = 0;
  };

  void Call(const DeployedApp& d, AppCalls& calls, bool traced, bool hooked);
  Split ReplaySplit(const DeployedApp& d);

  const Config& config_;
  Bench& bench_;
  Tally& tally_;
  std::vector<AppCalls> apps_;
};

// One timed call, its output checked against the JVM reference.
void BatchPhase::Call(const DeployedApp& d, AppCalls& calls, bool traced,
                      bool hooked) {
  const std::size_t records = d.input.num_records();
  InvocationCounter counter(bench_.runtime, hooked);
  blaze::ExecutionStats stats;
  const Clock::time_point start = Clock::now();
  const blaze::Dataset out =
      d.reduce() ? bench_.runtime.Reduce(d.app.name, d.input, d.bc(), &stats)
                 : bench_.runtime.Map(d.app.name, d.input, d.bc(), &stats);
  const double s = Since(start);
  if (calls.call_s.empty() && calls.hook.hooked_s.empty()) calls.stats = stats;
  if (hooked) {
    calls.hook.hooked_s.push_back(s);
    if (counter.count() != stats.invocations) {
      tally_.Fail(1, "invocation hook of " + d.app.name +
                         " disagrees with its ExecutionStats");
    }
  } else {
    calls.call_s.push_back(s);
    if (traced) calls.hook.plain_s.push_back(s);
  }
  tally_.attempted += records;
  const std::size_t bad = MismatchedRecords(out, d.jvm.output);
  if (bad > 0) {
    // A reduce's single output stands for every record it combined.
    tally_.Fail(d.reduce() ? records : bad,
                d.app.name + " differs from the JVM reference");
  }
}

// Repeats the app's call until it has run batch_min_s. In a traced run the
// app's first unit alternates calls with and without the invocation hook,
// then replays the split right after, so all are timed in the same stretch
// of the run.
void BatchPhase::Unit(std::size_t u) {
  const std::size_t i = u % bench_.apps.size();
  const bool traced = config_.trace && u < bench_.apps.size();
  const DeployedApp& d = bench_.apps[i];
  AppCalls& calls = apps_[i];
  const Clock::time_point start = Clock::now();
  std::size_t n = 0;
  do {
    Call(d, calls, traced, traced && n % 2 == 1);
    ++n;
  } while (Since(start) < config_.shape.batch_min_s || (traced && n < 2));
  if (!traced) return;
  do {
    const Split one = ReplaySplit(d);
    calls.split.resolve_s += one.resolve_s;
    calls.split.serialize_s += one.serialize_s;
    calls.split.eval_s += one.eval_s;
    calls.split.deserialize_s += one.deserialize_s;
    ++calls.replays;
  } while (calls.split.total() < config_.shape.batch_min_s);
}

BatchPhase::Split BatchPhase::ReplaySplit(const DeployedApp& d) {
  const blaze::RegisteredAccelerator& accel =
      bench_.runtime.manager().Get(d.app.name);
  const blaze::SerializationPlan& plan = accel.plan;
  const std::size_t records = d.input.num_records();
  Split split;
  Clock::time_point t = Clock::now();
  kir::Evaluator evaluator(accel.design);
  split.resolve_s = Since(t);
  blaze::Dataset out = blaze::MakeOutputShell(plan, d.reduce() ? 1 : records);
  const std::size_t batch = static_cast<std::size_t>(plan.batch);
  for (std::size_t first = 0; first < records; first += batch) {
    const std::size_t count = std::min(batch, records - first);
    kir::BufferMap buffers;
    t = Clock::now();
    blaze::SerializeBatch(plan, d.input, first, count, buffers, d.bc());
    split.serialize_s += Since(t);
    t = Clock::now();
    evaluator.Run({{"N", jvm::Value::OfInt(static_cast<std::int32_t>(count))}},
                  buffers);
    split.eval_s += Since(t);
    t = Clock::now();
    // A reduce's partial is one record; the host combine is not replayed.
    blaze::DeserializeBatch(plan, buffers, d.reduce() ? 0 : first, count, out);
    split.deserialize_s += Since(t);
  }
  if (!d.reduce() && MismatchedRecords(out, d.jvm.output) > 0) {
    tally_.Fail(1, "batch split replay of " + d.app.name +
                       " differs from the JVM reference");
  }
  return split;
}

void BatchPhase::Finish(Report& report, bool home) {
  std::vector<double> rec_per_s, speedup;
  for (std::size_t i = 0; i < bench_.apps.size(); ++i) {
    const DeployedApp& d = bench_.apps[i];
    const AppCalls& c = apps_[i];
    const double records = static_cast<double>(d.input.num_records());
    rec_per_s.push_back(records / Mean(c.call_s));
    speedup.push_back(d.jvm.total_ns / 1e3 / c.stats.total_us);
    std::printf("batch %s: %zu records, %zu calls, mean %.3f ms\n",
                d.app.name.c_str(), d.input.num_records(), c.call_s.size(),
                Mean(c.call_s) * 1e3);
  }
  report.EndToEnd("batch_rec_per_s_geomean", GeoMean(rec_per_s), "1/s",
                  "host", "batch");
  report.EndToEnd("batch_model_speedup_geomean", GeoMean(speedup), "x",
                  "model", "batch");
  if (!config_.trace) return;

  double map_total = 0, parts_total = 0, records_total = 0, slots = 0;
  std::vector<double> hook_ratios;
  for (std::size_t i = 0; i < bench_.apps.size(); ++i) {
    const DeployedApp& d = bench_.apps[i];
    const AppCalls& c = apps_[i];
    const std::string& name = d.app.name;
    const double records = static_cast<double>(d.input.num_records());
    const double r = static_cast<double>(std::max<std::size_t>(c.replays, 1));
    const Split& sum = c.split;
    const double map_s = Mean(c.hook.plain_s);
    const double parts_s = sum.total() / r;
    map_total += map_s;
    parts_total += parts_s;
    records_total += records;
    slots += static_cast<double>(c.stats.invocations) *
             static_cast<double>(d.artifact.plan.batch);
    hook_ratios.push_back(1.0 + c.hook.overhead_pct() / 100.0);
    report.Layer("blaze.map_ns_per_rec." + name, map_s * 1e9 / records, "ns",
                 "host", "batch");
    report.Layer("blaze.serialize_ns_per_rec." + name,
                 sum.serialize_s / r * 1e9 / records, "ns", "host", "batch");
    report.Layer("kir.resolve_us." + name, sum.resolve_s / r * 1e6, "us",
                 "host", "batch");
    report.Layer("kir.eval_ns_per_rec." + name,
                 sum.eval_s / r * 1e9 / records, "ns", "host", "batch");
    report.Layer("blaze.deserialize_ns_per_rec." + name,
                 sum.deserialize_s / r * 1e9 / records, "ns", "host", "batch");
    report.Layer("blaze.unattributed_pct." + name,
                 100.0 * Ratio(map_s - parts_s, map_s), "%", "host", "batch");
    report.Layer("blaze.model_us_per_rec." + name, c.stats.total_us / records,
                 "us", "model", "batch");
    report.Layer("jvm.interp_ns_per_rec." + name, d.jvm_host_s * 1e9 / records,
                 "ns", "host", "batch");
  }
  report.Layer("kir.slot_use_ratio.batch", Ratio(records_total, slots),
               "ratio", "host", "batch");
  report.Layer("trace.unattributed_pct.batch",
               100.0 * Ratio(map_total - parts_total, map_total), "%", "host",
               "batch");
  if (home) {
    report.Layer("trace.overhead_pct", 100.0 * (GeoMean(hook_ratios) - 1.0),
                 "%", "host", "batch");
  }
}

// ---- stream: one StreamSession at one offered rate per unit -------------------

class StreamPhase : public Phase {
 public:
  StreamPhase(const Config& config, Bench& bench, Tally& tally)
      : config_(config), bench_(bench), tally_(tally), rates_(kNumRates) {}

  std::size_t fixed_units() const override { return kNumRates; }
  void Unit(std::size_t u) override;
  void Finish(Report& report, bool home) override;

 private:
  struct Outcome {  // the model-clock result of one session
    double p50_us = 0, p99_us = 0, goodput = 0, watermark_us = 0;
    std::size_t shed = 0, rows_served = 0;
    bool operator==(const Outcome&) const = default;
  };
  struct Rate {
    Outcome outcome;            // from the fixed unit
    blaze::StreamStats stats;   // from the fixed unit, scalar fields only
    std::size_t cluster_batches = 0, commit_conflicts = 0;
    std::vector<double> session_s;  // host time of every session
    // Traced fixed unit: accelerator invocations in its session, and Map
    // on one micro-batch of their mean size, without and with the hook.
    std::size_t invocations = 0;
    Paired invocation;
  };

  blaze::StreamOptions Options() const;
  // Offered requests per modeled second at 1x: every lane closes a
  // kStreamBatchMax-request micro-batch per invocation charge.
  double Capacity() const {
    return kStreamLanes * static_cast<double>(kStreamBatchMax) /
           bench_.stream.inv_us * 1e6;
  }
  void TimeInvocation(Rate& rate);

  const Config& config_;
  Bench& bench_;
  Tally& tally_;
  std::vector<Rate> rates_;
};

blaze::StreamOptions StreamPhase::Options() const {
  // bench_stream's thresholds, scaled off the invocation charge.
  const double inv_us = bench_.stream.inv_us;
  blaze::StreamOptions options;
  options.batch_max_records = kStreamBatchMax;
  options.batch_age_us = 2 * inv_us;
  options.slo_us = 50 * inv_us;
  options.deadline_headroom_us = inv_us;
  options.codel_target_us = 5 * inv_us;
  options.codel_interval_us = 5 * inv_us;
  options.brownout_onset_us = 10 * inv_us;
  options.shed_onset_us = 20 * inv_us;
  return options;
}

void StreamPhase::Unit(std::size_t u) {
  const std::size_t index = u % kNumRates;
  const bool fixed = u < fixed_units();
  const StreamInputs& s = bench_.stream;
  const std::size_t n = s.requests.size();
  Rate& rate = rates_[index];

  blaze::ClusterOptions cluster_options;
  cluster_options.exec_threads = config_.threads;
  cluster_options.queue_capacity = std::size_t{1} << 20;
  blaze::BlazeCluster cluster(bench_.runtime, cluster_options);
  for (int lane = 0; lane < kStreamLanes; ++lane) {
    cluster.AddReplica(cluster.AddShard(), kStreamKernel, LaneId(lane));
  }
  const blaze::StreamOptions options = Options();
  // Open loop: request i arrives at a uniform point of its own slot of the
  // fixed inter-arrival time, so the rate is exact and the order is kept.
  const double inter_us = 1e6 / (Capacity() * kRates[index]);
  blaze::ArrivalSchedule schedule;
  for (std::size_t i = 0; i < n; ++i) {
    schedule.phases.push_back(
        {"default", (static_cast<double>(i) + s.jitter[i]) * inter_us,
         inter_us, 1});
  }
  const blaze::StreamGenerator generator = [&s](std::size_t ordinal) {
    blaze::StreamRecord record;
    record.kernel = kStreamKernel;
    record.input = s.requests[ordinal];
    record.broadcast = &s.broadcast;
    return record;
  };

  blaze::StreamSession session(cluster, options);
  const bool traced = config_.trace && fixed;
  InvocationCounter counter(bench_.runtime, traced);
  const Clock::time_point start = Clock::now();
  const std::vector<blaze::StreamRecordOutcome> outs =
      session.Run(schedule, generator);
  rate.session_s.push_back(Since(start));

  // Gates: nothing lost, outputs match the reference, watermark monotone.
  const blaze::StreamStats& stats = session.stats();
  tally_.attempted += n;
  const std::size_t accounted =
      stats.committed + stats.committed_host + stats.shed_total();
  if (outs.size() != n || stats.arrivals != n || accounted != n ||
      stats.watermark_trace.size() != n) {
    tally_.Fail(n > accounted ? n - accounted : 1,
                std::string("stream lost records at ") + kRateNames[index]);
  }
  Outcome outcome;
  std::size_t good = 0, mismatched = 0;
  for (const blaze::StreamRecordOutcome& out : outs) {
    if (blaze::IsStreamShed(out.outcome)) continue;
    if (out.seq >= n || MismatchedRecords(out.output, s.expected[out.seq]) > 0) {
      ++mismatched;
      continue;
    }
    outcome.rows_served += out.output.num_records();
    if (out.latency_us <= options.slo_us) ++good;
  }
  if (mismatched > 0) {
    tally_.Fail(mismatched, "stream outputs differ from the SVM reference");
  }
  std::size_t regressions = 0;
  double last = 0;
  for (const auto& [seq, at] : stats.watermark_trace) {
    (void)seq;
    if (at < last) ++regressions;
    last = std::max(last, at);
  }
  if (regressions > 0) tally_.Fail(regressions, "stream watermark regressed");

  outcome.p50_us = stats.LatencyQuantile(0.5);
  outcome.p99_us = stats.LatencyQuantile(0.99);
  outcome.goodput = static_cast<double>(good) / static_cast<double>(n);
  outcome.watermark_us = stats.watermark_us;
  outcome.shed = stats.shed_total();
  if (!fixed) {
    if (!(outcome == rate.outcome)) {
      tally_.Fail(1, std::string("stream model-clock outcome changed between "
                                 "sessions at ") + kRateNames[index]);
    }
    return;
  }
  rate.outcome = outcome;
  rate.stats = stats;
  rate.stats.latencies_us.clear();
  rate.stats.watermark_trace.clear();
  rate.cluster_batches = cluster.stats().batches;
  rate.commit_conflicts = cluster.stats().commit_conflicts;
  if (traced) {
    rate.invocations = counter.count();
    TimeInvocation(rate);
  }
}

// Map on one micro-batch of the session's mean invocation size, timed
// alternately without and with the invocation hook.
void StreamPhase::TimeInvocation(Rate& rate) {
  if (rate.invocations == 0) return;
  const StreamInputs& s = bench_.stream;
  const std::size_t rows = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(static_cast<double>(rate.outcome.rows_served) /
                         static_cast<double>(rate.invocations))));
  std::vector<const blaze::Dataset*> parts;
  std::size_t have = 0;
  for (std::size_t i = 0; i < s.requests.size() && have < rows; ++i) {
    parts.push_back(&s.requests[i]);
    have += s.requests[i].num_records();
  }
  const blaze::Dataset micro = blaze::SliceRecords(
      blaze::ConcatDatasets(parts), 0, std::min(have, rows));
  const Clock::time_point start = Clock::now();
  for (std::size_t k = 0; k < 10 || Since(start) < 0.1; ++k) {
    const bool hooked = k % 2 == 1;
    InvocationCounter counter(bench_.runtime, hooked);
    const Clock::time_point t = Clock::now();
    bench_.runtime.Map(LaneId(0), micro, &s.broadcast);
    (hooked ? rate.invocation.hooked_s : rate.invocation.plain_s)
        .push_back(Since(t));
  }
}

void StreamPhase::Finish(Report& report, bool home) {
  const StreamInputs& s = bench_.stream;
  const double slo_us = Options().slo_us;
  // Sizing: the offered rates must span the overload ladder.
  if (rates_.front().outcome.shed != 0) {
    tally_.Fail(1, "stream sizing: the 0.5x rate shed records");
  }
  if (rates_.back().outcome.shed == 0) {
    tally_.Fail(1, "stream sizing: the 2x rate shed nothing");
  }
  double host_s = 0, max_rate = 0;
  for (std::size_t i = 0; i < kNumRates; ++i) {
    const Rate& r = rates_[i];
    host_s += Mean(r.session_s);
    if (r.outcome.p99_us <= slo_us && r.outcome.goodput >= 0.99) {
      max_rate = std::max(max_rate, kRates[i] * Capacity() * s.mean_rows);
    }
    std::printf("stream %s: %zu sessions, mean %.3f s, shed %zu, p99 %.1f "
                "us (slo %.1f)\n",
                kRateNames[i], r.session_s.size(), Mean(r.session_s),
                r.outcome.shed, r.outcome.p99_us, slo_us);
  }
  const double arrivals = static_cast<double>(s.requests.size() * kNumRates);
  report.EndToEnd("stream_host_us_per_rec", host_s * 1e6 / arrivals, "us",
                  "host", "stream");
  report.EndToEnd("stream_p50_us_1x", rates_[1].outcome.p50_us, "us", "model",
                  "stream");
  report.EndToEnd("stream_p99_us_1x", rates_[1].outcome.p99_us, "us", "model",
                  "stream");
  report.EndToEnd("stream_goodput_2x", rates_[3].outcome.goodput, "ratio",
                  "model", "stream");
  report.EndToEnd("stream_max_rate_in_slo", max_rate, "1/s", "model",
                  "stream");
  if (!config_.trace) return;

  std::size_t rows = 0, invocations = 0, dispatched = 0;
  std::size_t cluster_batches = 0, conflicts = 0, queue_full = 0;
  double session_s = 0, invocation_s = 0;
  std::vector<double> hook_ratios;
  for (std::size_t i = 0; i < kNumRates; ++i) {
    const Rate& r = rates_[i];
    const blaze::StreamStats& st = r.stats;
    const std::string rate = kRateNames[i];
    rows += r.outcome.rows_served;
    invocations += r.invocations;
    dispatched += st.batches_dispatched;
    cluster_batches += r.cluster_batches;
    conflicts += r.commit_conflicts;
    queue_full += st.shed_queue_full;
    session_s += r.session_s.front();
    invocation_s +=
        static_cast<double>(r.invocations) * Median(r.invocation.plain_s);
    hook_ratios.push_back(1.0 + r.invocation.overhead_pct() / 100.0);
    const auto count = [&](const char* name, std::size_t value) {
      report.Layer(std::string("stream.") + name + "." + rate,
                   static_cast<double>(value), "count", "model", "stream");
    };
    report.Layer("stream.recs_per_batch." + rate,
                 Ratio(static_cast<double>(st.committed + st.committed_host),
                       static_cast<double>(st.batches_dispatched +
                                           st.batches_host)),
                 "count", "model", "stream");
    count("close_count", st.close_count);
    count("close_age", st.close_age);
    count("close_deadline", st.close_deadline);
    count("shed_unmeetable", st.shed_unmeetable);
    count("shed_brownout", st.shed_brownout);
    count("shed_retry_budget", st.shed_retry_budget);
    count("batches_host", st.batches_host);
    count("codel_engagements", st.codel_engagements);
    report.Layer("stream.max_queue_delay_us." + rate, st.max_queue_delay_us,
                 "us", "model", "stream");
  }
  report.Layer("stream.shed_queue_full", static_cast<double>(queue_full),
               "count", "model", "stream");
  report.Layer("cluster.dispatch_per_batch",
               Ratio(static_cast<double>(cluster_batches),
                     static_cast<double>(dispatched)),
               "ratio", "model", "stream");
  report.Layer("cluster.commit_conflicts", static_cast<double>(conflicts),
               "count", "model", "stream");
  const double inv = static_cast<double>(invocations);
  const double plan_batch = static_cast<double>(
      bench_.runtime.manager().Get(LaneId(0)).plan.batch);
  report.Layer("kir.slot_use_ratio.stream",
               Ratio(static_cast<double>(rows), inv * plan_batch), "ratio",
               "host", "stream");
  report.Layer("blaze.map_us_per_invocation.stream",
               Ratio(invocation_s, inv) * 1e6, "us", "host", "stream");
  report.Layer("stream.serving_self_pct",
               100.0 * (1.0 - Ratio(invocation_s, session_s)), "%", "host",
               "stream");
  if (home) {
    report.Layer("trace.overhead_pct", 100.0 * (GeoMean(hook_ratios) - 1.0),
                 "%", "host", "stream");
  }
}

// ---- driver ---------------------------------------------------------------------

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload dse|batch|stream "
               "--seed N --seconds S --trace 0|1 [--exec-threads T] "
               "[--quick]\n",
               why);
  return 2;
}

bool ParseNumber(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(out);
}

// Runs the three phases' fixed units cut into kChunks interleaved chunks, so
// each phase's samples spread over the whole run and a slow stretch of the
// host moves every metric a little instead of one metric a lot. The home
// phase then runs further units until --seconds have passed.
void Measure(const Config& config, Bench& bench, Tally& tally, Report& report) {
  constexpr std::size_t kChunks = 8;
  DsePhase dse(config, bench, tally);
  BatchPhase batch(config, bench, tally);
  StreamPhase stream(config, bench, tally);
  const std::vector<std::pair<std::string, Phase*>> phases = {
      {"dse", &dse}, {"batch", &batch}, {"stream", &stream}};
  std::vector<std::size_t> next(phases.size(), 0);
  std::size_t home = 0;
  while (phases[home].first != config.workload) ++home;

  const Clock::time_point start = Clock::now();
  for (std::size_t c = 1; c <= kChunks; ++c) {
    for (std::size_t p = 0; p < phases.size(); ++p) {
      const std::size_t end = phases[p].second->fixed_units() * c / kChunks;
      while (next[p] < end) phases[p].second->Unit(next[p]++);
    }
  }
  const double fixed_s = Since(start);
  while (Since(start) < config.seconds) {
    phases[home].second->Unit(next[home]++);
  }
  std::printf("measured %.2f s: fixed units %.2f s, then %zu more %s units\n",
              Since(start), fixed_s,
              next[home] - phases[home].second->fixed_units(),
              config.workload.c_str());
  for (std::size_t p = 0; p < phases.size(); ++p) {
    phases[p].second->Finish(report, p == home);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  config.threads = static_cast<int>(std::min(4u, hw));
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      config.shape = QuickShape();
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    double number = 0;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed" && ParseNumber(value, number) && number >= 0) {
      config.seed = static_cast<std::uint64_t>(number);
      have_seed = true;
    } else if (arg == "--seconds" && ParseNumber(value, number) &&
               number > 0) {
      config.seconds = number;
      have_seconds = true;
    } else if (arg == "--trace" && (std::string(value) == "0" ||
                                    std::string(value) == "1")) {
      config.trace = std::string(value) == "1";
      have_trace = true;
    } else if (arg == "--exec-threads" && ParseNumber(value, number) &&
               number >= 1 && number <= hw) {
      config.threads = static_cast<int>(number);
    } else {
      return Usage(("bad argument " + arg + " " + value).c_str());
    }
  }
  if (config.workload != "dse" && config.workload != "batch" &&
      config.workload != "stream") {
    return Usage("--workload must be dse, batch or stream");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }

  Tally tally;
  Report report;
  try {
    std::vector<double> setup_s;
    std::unique_ptr<Bench> bench;
    for (int rep = 0; rep < config.shape.setup_reps; ++rep) {
      bench.reset();
      const Clock::time_point start = Clock::now();
      bench = SetUp(config);
      setup_s.push_back(Since(start));
    }
    report.EndToEnd("setup_s", Median(setup_s), "s", "host", "all");
    Measure(config, *bench, tally, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: aborted: %s\n", e.what());
    return 1;
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report.EndToEnd("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
                  "MB", "host", "all");
  report.Print(config.trace, tally);
  return 0;
}
