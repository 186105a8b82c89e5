// rofs_perfbench: runs one benchmark workload as a single-threaded
// exp::Experiment and prints one JSON line with its host cost and its
// simulated result record. perfbench/run.py drives it, one process per
// experiment, and turns the lines into the benchmark's metrics.
//
//   rofs_perfbench --workload NAME --seed N [--metrics 0|1] [--traced 0|1]
//
// Every layer is measured from outside the simulator, through public
// seams only:
//   - Experiment::set_instrument + OpGenerator::on_op / mode(): a wall
//     timestamp at the first op of each generator mode gives the phase
//     boundaries (init -> fill -> measure); traced runs also count ops
//     per phase.
//   - A forwarding alloc::Allocator (traced runs) times every public
//     allocator entry point and attributes the time to the current phase.
//   - sim::RetiredDispatchedEvents(): events dispatched by the run.
//   - The obs metric registry (--metrics 1): simulated fs/disk/sched work.
//
// Exit codes: 0 with {"ok":true,...}; 1 with {"ok":false,...} when the
// experiment returns an error Status; 2 on a usage error or when a ROFS_*
// environment knob that would change the run is set.

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "alloc/allocator.h"
#include "alloc/extent_allocator.h"
#include "alloc/fixed_block_allocator.h"
#include "alloc/restricted_buddy.h"
#include "disk/disk_system.h"
#include "exp/experiment.h"
#include "exp/run_record.h"
#include "fs/cache_policy.h"
#include "sched/scheduler.h"
#include "sim/event_queue.h"
#include "util/random.h"
#include "util/units.h"
#include "workload/op_generator.h"
#include "workload/workloads.h"

using namespace rofs;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration<double>(t - t0).count();
}

/// Phases of one run, in the order they happen.
enum Phase { kInit = 0, kFill = 1, kMeasure = 2, kNumPhases = 3 };
constexpr const char* kPhaseNames[kNumPhases] = {"init", "fill", "measure"};

/// Time and call counts of the allocator's public entry points.
struct AllocCost {
  double seconds[kNumPhases] = {0, 0, 0};
  uint64_t extend_calls = 0;
  uint64_t extend_failed = 0;
  uint64_t truncate_calls = 0;
  uint64_t delete_calls = 0;
  /// free_du(), OnCreateFile(), name() and CheckConsistency().
  uint64_t other_calls = 0;

  uint64_t calls() const {
    return extend_calls + truncate_calls + delete_calls + other_calls;
  }
  double total_seconds() const {
    return seconds[kInit] + seconds[kFill] + seconds[kMeasure];
  }
};

/// Forwards every public Allocator entry point to the policy under test
/// and charges its wall time to the phase `*phase` names. Allocator::stats()
/// is non-virtual and Experiment reads it for the alloc.* record fields, so
/// the inner policy's stats are copied after every call that can move them.
/// set_tracer() is non-virtual too, so with metrics on the policy's own obs
/// alloc events are not recorded; no benchmark metric reads them.
class TimedAllocator final : public alloc::Allocator {
 public:
  TimedAllocator(std::unique_ptr<alloc::Allocator> inner, const int* phase,
                 AllocCost* cost)
      : Allocator(inner->total_du()), inner_(std::move(inner)),
        phase_(phase), cost_(cost) {}

  std::string name() const override {
    Timer t(this, &cost_->other_calls);
    return inner_->name();
  }
  uint64_t free_du() const override {
    Timer t(this, &cost_->other_calls);
    return inner_->free_du();
  }
  void OnCreateFile(alloc::FileAllocState* f) override {
    {
      Timer t(this, &cost_->other_calls);
      inner_->OnCreateFile(f);
    }
    stats_ = inner_->stats();
  }
  Status Extend(alloc::FileAllocState* f, uint64_t want_du) override {
    Status s;
    {
      Timer t(this, &cost_->extend_calls);
      s = inner_->Extend(f, want_du);
    }
    if (!s.ok()) ++cost_->extend_failed;
    stats_ = inner_->stats();
    return s;
  }
  uint64_t TruncateTail(alloc::FileAllocState* f, uint64_t n_du) override {
    uint64_t freed;
    {
      Timer t(this, &cost_->truncate_calls);
      freed = inner_->TruncateTail(f, n_du);
    }
    stats_ = inner_->stats();
    return freed;
  }
  void DeleteFile(alloc::FileAllocState* f) override {
    {
      Timer t(this, &cost_->delete_calls);
      inner_->DeleteFile(f);
    }
    stats_ = inner_->stats();
  }
  uint64_t CheckConsistency() const override {
    Timer t(this, &cost_->other_calls);
    return inner_->CheckConsistency();
  }

 protected:
  // TruncateTail and DeleteFile are forwarded whole, so the base class's
  // free path never runs on the wrapper.
  void FreeRun(uint64_t, uint64_t) override { std::abort(); }

 private:
  /// Counts one call and adds its wall time to the current phase.
  class Timer {
   public:
    Timer(const TimedAllocator* a, uint64_t* counter)
        : a_(a), start_(Clock::now()) {
      ++*counter;
    }
    ~Timer() {
      a_->cost_->seconds[*a_->phase_] +=
          std::chrono::duration<double>(Clock::now() - start_).count();
    }
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

   private:
    const TimedAllocator* a_;
    Clock::time_point start_;
  };

  std::unique_ptr<alloc::Allocator> inner_;
  const int* phase_;
  AllocCost* cost_;
};

/// Phase boundaries seen from OpGenerator::on_op: the wall time of the
/// first op executed in each generator mode, and (traced runs) op counts
/// per phase.
struct PhaseClock {
  workload::OpMode measured_mode = workload::OpMode::kApplication;
  bool has_fill = true;
  bool count_ops = false;
  int phase = kInit;
  std::optional<Clock::time_point> first_op[4];
  uint64_t ops[kNumPhases] = {0, 0, 0};

  void OnOp(workload::OpMode mode) {
    const auto m = static_cast<size_t>(mode);
    if (!first_op[m]) {
      first_op[m] = Clock::now();
      if (mode == measured_mode) {
        phase = kMeasure;
      } else if (has_fill && mode == workload::OpMode::kFill) {
        phase = kFill;
      }
    }
    if (count_ops) ++ops[phase];
  }
};

/// The TP workload with every user population multiplied by `factor`, as
/// the fig7 scheduling grid scales offered load.
workload::WorkloadSpec ScaledTp(uint32_t factor) {
  workload::WorkloadSpec spec =
      workload::MakeWorkload(workload::WorkloadKind::kTransactionProcessing);
  for (workload::FileTypeSpec& type : spec.types) type.num_users *= factor;
  return spec;
}

/// fig8's small-file churn mix with sequential-burst access; `pressure`
/// multiplies the file population.
workload::WorkloadSpec CacheWorkloadSeq(uint32_t pressure) {
  workload::WorkloadSpec w;
  w.name = "cache-seq";
  workload::FileTypeSpec files;
  files.name = "files";
  files.num_files = 150 * pressure;
  files.num_users = 8;
  files.process_time_ms = 20;
  files.hit_frequency_ms = 20;
  files.rw_bytes_mean = KiB(8);
  files.extend_bytes_mean = KiB(8);
  files.truncate_bytes = KiB(8);
  files.initial_bytes_mean = KiB(64);
  files.initial_bytes_dev = KiB(16);
  files.read_ratio = 0.55;
  files.write_ratio = 0.15;
  files.extend_ratio = 0.20;
  files.delete_ratio = 0.5;
  files.access = workload::AccessPattern::kSequentialBurst;
  w.types.push_back(files);
  return w;
}

exp::Experiment::AllocatorFactory ExtentFirstFit(workload::WorkloadKind kind,
                                                 int num_ranges) {
  alloc::ExtentAllocatorConfig cfg;
  cfg.range_means_du.clear();
  for (uint64_t bytes : workload::ExtentRangeMeansBytes(kind, num_ranges)) {
    cfg.range_means_du.push_back(bytes / kKiB);
  }
  cfg.fit = alloc::FitPolicy::kFirstFit;
  return [cfg](uint64_t total_du) -> std::unique_ptr<alloc::Allocator> {
    return std::make_unique<alloc::ExtentAllocator>(total_du, cfg);
  };
}

/// The experiment settings every workload starts from, pinned here rather
/// than read from the environment: the paper's harness defaults with the
/// short measurement windows the figure benches' smoke runs use.
exp::ExperimentConfig PinnedConfig(uint64_t seed) {
  exp::ExperimentConfig cfg;
  cfg.warmup_ms = 5'000;
  cfg.min_measure_ms = 20'000;
  cfg.max_measure_ms = 60'000;
  cfg.seq_min_measure_ms = 40'000;
  cfg.seq_max_measure_ms = 200'000;
  cfg.stable_tolerance_pp = 1.0;
  cfg.seed = seed;
  return cfg;
}

/// One benchmark workload: everything needed to build its Experiment.
struct Workload {
  workload::WorkloadSpec spec;
  exp::Experiment::AllocatorFactory factory;
  disk::DiskSystemConfig disk;
  exp::ExperimentConfig config;
  /// Allocation test (RunAllocationTest) instead of the application test.
  bool allocation_test = false;
};

StatusOr<Workload> MakeBenchWorkload(const std::string& name,
                                     uint64_t seed) {
  Workload w;
  w.config = PinnedConfig(seed);
  const auto tp = workload::WorkloadKind::kTransactionProcessing;
  if (name == "fill_extent") {
    // fig7 cell "TPx1 fcfs extent" with a 5 s throughput sample interval.
    // The fill ends after 20 chunks of 10 sample intervals without
    // progress, so this keeps the cell's fill mechanism (99.4% of Extend
    // calls fail, half the time in the allocator) at half its cost, and a
    // run holds enough experiments for a steady median. At 2.5 s some
    // seeds touch the band at a chunk boundary and skip the churn.
    w.spec = ScaledTp(1);
    w.config.sample_interval_ms = 5'000;
    w.factory = ExtentFirstFit(tp, 3);
    w.disk = disk::DiskSystemConfig::Array(8);
    ROFS_ASSIGN_OR_RETURN(w.disk.scheduler, sched::ParseSchedulerSpec("fcfs"));
  } else if (name == "fill_cache") {
    // fig8 cell "seq lru p4", metrics on as fig8_cache_pressure has them.
    w.spec = CacheWorkloadSeq(4);
    alloc::RestrictedBuddyConfig rb;
    rb.block_sizes_du = {1, 8, 64, 1024};
    rb.grow_factor = 1;
    rb.clustered = false;
    w.factory = [rb](uint64_t total_du) -> std::unique_ptr<alloc::Allocator> {
      return std::make_unique<alloc::RestrictedBuddyAllocator>(total_du, rb);
    };
    w.disk = disk::DiskSystemConfig::Array(2);
    for (auto& g : w.disk.disks) g.cylinders = 200;
    w.config.obs.metrics = true;
    w.config.fs_options.cache_bytes = MiB(8);
    ROFS_ASSIGN_OR_RETURN(w.config.fs_options.cache_policy,
                          fs::ParseCachePolicySpec("lru"));
    w.config.fs_options.readahead_pages = 4;
    w.config.fs_options.writeback_dirty_max = 64;
  } else if (name == "io_cscan") {
    // Deep C-SCAN queues over a scattered layout; set-up does no fill
    // (the band's lower edge sits below the initial utilization) and a
    // fixed long window makes measurement nearly the whole run.
    w.spec = ScaledTp(64);
    w.factory = [](uint64_t total_du) -> std::unique_ptr<alloc::Allocator> {
      return std::make_unique<alloc::FixedBlockAllocator>(
          total_du,
          workload::FixedBlockBytesFor(
              workload::WorkloadKind::kTransactionProcessing) /
              kKiB);
    };
    w.disk = disk::DiskSystemConfig::Array(8);
    ROFS_ASSIGN_OR_RETURN(w.disk.scheduler,
                          sched::ParseSchedulerSpec("cscan"));
    w.config.fill_lower = 0.05;
    w.config.min_measure_ms = 600'000;
    w.config.max_measure_ms = 600'000;
  } else if (name == "alloc_extent") {
    // The paper's allocation test (Fig 4 / Table 4 kind of cell): TS,
    // extent first-fit, 3 ranges, until the first allocation failure.
    const auto ts = workload::WorkloadKind::kTimeSharing;
    w.spec = workload::MakeWorkload(ts);
    w.factory = ExtentFirstFit(ts, 3);
    w.disk = disk::DiskSystemConfig::Array(8);
    w.allocation_test = true;
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  return w;
}

/// Host memory high-water mark of this process (VmHWM), in KiB.
uint64_t PeakRssKib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

[[noreturn]] void UsageError(const std::string& message) {
  std::fprintf(stderr, "rofs_perfbench: %s\n", message.c_str());
  std::exit(2);
}

/// Parses a 0/1 flag value.
bool ParseBool(const std::string& flag, const char* value) {
  if (std::strcmp(value, "0") == 0) return false;
  if (std::strcmp(value, "1") == 0) return true;
  UsageError(flag + " takes 0 or 1, got '" + value + "'");
}

}  // namespace

int main(int argc, char** argv) {
  // The benchmark pins its own configuration; a knob the figure benches
  // read from the environment must not silently change what is measured.
  for (const char* knob :
       {"ROFS_FAST", "ROFS_SIM_THREADS", "ROFS_SIM_WHEEL", "ROFS_METRICS"}) {
    const char* v = std::getenv(knob);
    if (v != nullptr && v[0] != '\0') {
      UsageError(std::string(knob) +
                 " is set; unset it, the benchmark pins its configuration");
    }
  }

  std::string name;
  std::optional<uint64_t> seed;
  std::optional<bool> metrics;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) UsageError("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      name = value;
    } else if (flag == "--seed") {
      char* end = nullptr;
      errno = 0;
      const unsigned long long n = std::strtoull(value, &end, 10);
      if (value[0] == '\0' || value[0] == '-' || *end != '\0' ||
          errno != 0) {
        UsageError(std::string("bad --seed '") + value + "'");
      }
      seed = n;
    } else if (flag == "--metrics") {
      metrics = ParseBool(flag, value);
    } else if (flag == "--traced") {
      traced = ParseBool(flag, value);
    } else {
      UsageError("unknown flag " + flag);
    }
  }
  if (name.empty() || !seed) UsageError("--workload and --seed are required");

  // Benchmark seed n runs on the figure benches' replicate stream n
  // (seed 0 is their first replicate's seed).
  const uint64_t sim_seed = SplitSeed(1, *seed);
  if (sim_seed == 0) UsageError("seed maps to the reserved simulator seed 0");
  StatusOr<Workload> made = MakeBenchWorkload(name, sim_seed);
  if (!made.ok()) UsageError(made.status().ToString());
  Workload w = std::move(*made);
  if (metrics) w.config.obs.metrics = *metrics;

  PhaseClock phases;
  phases.measured_mode = w.allocation_test ? workload::OpMode::kFill
                                           : workload::OpMode::kApplication;
  phases.has_fill = !w.allocation_test;
  phases.count_ops = traced;
  AllocCost alloc_cost;
  if (traced) {
    w.factory = [inner = std::move(w.factory), &phases,
                 &alloc_cost](uint64_t total_du) {
      return std::make_unique<TimedAllocator>(inner(total_du), &phases.phase,
                                              &alloc_cost);
    };
  }

  const uint64_t events_before = sim::RetiredDispatchedEvents();
  const Clock::time_point t0 = Clock::now();
  exp::Experiment experiment(std::move(w.spec), std::move(w.factory), w.disk,
                             w.config);
  experiment.set_instrument([&phases](workload::OpGenerator* gen) {
    gen->on_op = [&phases, gen](const workload::OpRecord&) {
      phases.OnOp(gen->mode());
    };
  });
  Status status;
  exp::RunRecord record;
  if (w.allocation_test) {
    auto result = experiment.RunAllocationTest();
    if (result.ok()) record = result->ToRecord();
    status = result.status();
  } else {
    auto result = experiment.RunApplicationTest();
    if (result.ok()) record = result->ToRecord();
    status = result.status();
  }
  const Clock::time_point t_end = Clock::now();
  const uint64_t events = sim::RetiredDispatchedEvents() - events_before;

  if (!status.ok()) {
    std::printf("{\"ok\": false, \"error\": \"%s\"}\n",
                JsonEscape(status.ToString()).c_str());
    return 1;
  }
  const auto measured = static_cast<size_t>(phases.measured_mode);
  if (!phases.first_op[measured]) {
    std::printf("{\"ok\": false, \"error\": \"no op ran in the measured "
                "mode\"}\n");
    return 1;
  }
  record.Set("sim.events", static_cast<double>(events));

  // Phase boundaries: set-up ends at the first op in the measured mode;
  // the fill starts at the first fill-mode op (none when the band is
  // already reached, or in an allocation test).
  const Clock::time_point setup_end = *phases.first_op[measured];
  const auto fill_mode = static_cast<size_t>(workload::OpMode::kFill);
  const Clock::time_point fill_start =
      phases.has_fill && phases.first_op[fill_mode] &&
              *phases.first_op[fill_mode] < setup_end
          ? *phases.first_op[fill_mode]
          : setup_end;
  const double phase_s[kNumPhases] = {SecondsSince(t0, fill_start),
                                      SecondsSince(fill_start, setup_end),
                                      SecondsSince(setup_end, t_end)};

  std::string out = "{\"ok\": true";
  out += ", \"workload\": \"" + name + "\"";
  out += ", \"traced\": " + std::string(traced ? "true" : "false");
  out += ", \"metrics\": " +
         std::string(w.config.obs.metrics ? "true" : "false");
  out += ", \"wall_s\": " + Num(SecondsSince(t0, t_end));
  out += ", \"setup_s\": " + Num(SecondsSince(t0, setup_end));
  out += ", \"peak_rss_kib\": " + std::to_string(PeakRssKib());
  out += ", \"phases\": {";
  for (int p = 0; p < kNumPhases; ++p) {
    if (p > 0) out += ", ";
    out += "\"" + std::string(kPhaseNames[p]) + "\": {\"s\": " +
           Num(phase_s[p]) + ", \"ops\": " + std::to_string(phases.ops[p]) +
           ", \"alloc_s\": " + Num(alloc_cost.seconds[p]) + "}";
  }
  out += "}";
  out += ", \"alloc\": {\"extend_calls\": " +
         std::to_string(alloc_cost.extend_calls) +
         ", \"extend_failed\": " + std::to_string(alloc_cost.extend_failed) +
         ", \"truncate_calls\": " + std::to_string(alloc_cost.truncate_calls) +
         ", \"delete_calls\": " + std::to_string(alloc_cost.delete_calls) +
         ", \"calls\": " + std::to_string(alloc_cost.calls()) +
         ", \"self_s\": " + Num(alloc_cost.total_seconds()) + "}";
  out += ", \"record\": " + record.ToJson();
  out += "}";
  std::printf("%s\n", out.c_str());
  return 0;
}
