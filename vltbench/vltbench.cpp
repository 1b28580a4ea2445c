// vltbench — end-to-end and per-layer host benchmark of vltsim over three
// workloads: vector-threads, lane-threads and sweep. README.md in this
// directory defines every metric, why each workload exists, and how a
// performance change names the one metric it claims.
//
//   vltbench --workload NAME --seed N --seconds S --trace 0|1
//            --reference FILE --scratch DIR
//
// Every workload is a grid of sweep cells run through campaign::Campaign
// (result cache and journal on, in DIR). Each iteration runs the grid
// cold — every cell simulated, in an order permuted by --seed — then
// warm, where every cell is a cache hit. Iterations repeat until S
// seconds have passed. Host times are per-cell medians over iterations;
// end-to-end ones are corrected by the run's host slowdown, measured with
// a fixed loop (HostReference) timed between the phases.
// With --trace 1 each iteration also replays every cell through the
// machine's public calls (Processor construction, init_memory, build,
// run_phase, verify) and the campaign layer's (RunResult JSON, result
// cache, journal), timing each call from outside the simulator.
//
// Once per run, untimed, every cell is simulated again with event skip
// on and off and the RunResult::to_json() bytes are compared; the same
// pass runs the untimed baseline cells model_err_pct needs.
//
// A human-readable summary goes to stderr. The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exit status: 0 when every check passed, 1 when a check failed, 2 on
// bad arguments or an unusable reference file.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "campaign/result_cache.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "machine/processor.hpp"
#include "machine/simulator.hpp"
#include "workloads/workload.hpp"

using namespace vlt;
using machine::MachineConfig;
using machine::RunResult;
using workloads::Variant;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// User plus system CPU time of the whole process so far, in ms.
double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
}

// --- statistics ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One timed cell run: host cost per simulated kcycle, weighted by the
/// kcycles it simulated.
struct CostSample {
  double us_per_kcycle;
  double kcycles;
};

/// Cycle-weighted nearest-rank percentile (q in (0, 1]): the cost below
/// which a share q of all simulated cycles ran. Weighting by cycles keeps
/// the percentile inside a cell's distribution instead of on the edge
/// between two cells, where a pooled unweighted percentile of a grid
/// with equal samples per cell lands (at p90, exactly, for 20 cells).
double weighted_percentile(std::vector<CostSample> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end(), [](const CostSample& a, const CostSample& b) {
    return a.us_per_kcycle < b.us_per_kcycle;
  });
  double total = 0.0;
  for (const CostSample& s : v) total += s.kcycles;
  double acc = 0.0;
  for (const CostSample& s : v) {
    acc += s.kcycles;
    if (acc >= q * total) return s.us_per_kcycle;
  }
  return v.back().us_per_kcycle;
}

/// Samples whose cost lies strictly above `threshold`.
std::size_t count_above(const std::vector<CostSample>& v, double threshold) {
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [threshold](const CostSample& s) {
        return s.us_per_kcycle > threshold;
      }));
}

/// Per-cell sample series of one named quantity. The reported value of a
/// host time is the sum over cells of each cell's median: the host cost
/// of one pass over the grid, robust to single slow iterations.
class CellSeries {
 public:
  explicit CellSeries(std::size_t cells) : samples_(cells) {}
  void add(std::size_t cell, double v) { samples_[cell].push_back(v); }
  double median(std::size_t cell) const { return ::median(samples_[cell]); }
  double sum_of_medians() const {
    double s = 0.0;
    for (std::size_t i = 0; i < samples_.size(); ++i) s += median(i);
    return s;
  }

 private:
  std::vector<std::vector<double>> samples_;
};

// --- workload definitions --------------------------------------------------

using campaign::Cell;

/// "workload/config/variant", the cell's name in reports and reference.json.
std::string name(const Cell& cell) { return cell.key().to_string(); }

struct BenchWorkload {
  /// Reference figure (reference.json) behind model_err_pct.
  std::string figure;
  /// Applications whose reference speedups this workload checks.
  std::vector<std::string> apps;
  /// Cells timed in every iteration.
  campaign::SweepSpec grid;
  /// Cells simulated only in the untimed check pass (Figure 6's
  /// baselines).
  campaign::SweepSpec baselines;
  /// Campaign pool threads.
  unsigned threads = 1;
};

std::optional<BenchWorkload> define_workload(const std::string& workload) {
  BenchWorkload b;
  if (workload == "vector-threads") {
    // Figures 3 and 5: the paper's VLT grid, where the scalar units,
    // the vector unit and the barrier controller do the work.
    b.figure = "fig3";
    b.apps = workloads::vector_thread_apps();
    for (const std::string& app : b.apps) {
      b.grid.add(MachineConfig::base(), app, Variant::base());
      b.grid.add(MachineConfig::v2_cmp(), app, Variant::vector_threads(2));
      b.grid.add(MachineConfig::v4_cmp(), app, Variant::vector_threads(4));
      b.grid.add(MachineConfig::v2_smt(), app, Variant::vector_threads(2));
      b.grid.add(MachineConfig::v4_cmt(), app, Variant::vector_threads(4));
    }
  } else if (workload == "lane-threads") {
    // Figure 6's VLT side: scalar threads on the lanes, where the lane
    // cores and the memory hierarchy do the work.
    b.figure = "fig6";
    b.apps = workloads::scalar_thread_apps();
    for (const std::string& app : b.apps) {
      b.grid.add(MachineConfig::v4_cmt(), app, Variant::lane_threads(8));
      b.baselines.add(MachineConfig::cmt(), app, Variant::su_threads(4));
    }
  } else if (workload == "sweep") {
    // Short cells through the campaign pool: Figure 1's long-vector rows
    // plus the skip engine's stress row.
    b.figure = "fig1";
    b.apps = workloads::long_vector_apps();
    for (const std::string& app : b.apps)
      for (unsigned lanes : {1u, 2u, 4u, 8u})
        b.grid.add(MachineConfig::base(lanes), app, Variant::base());
    b.grid.add(MachineConfig::base(), "stallmark", Variant::base());
    b.grid.add(MachineConfig::v2_cmp(), "stallmark",
               Variant::vector_threads(2));
    b.grid.add(MachineConfig::v4_cmp(), "stallmark",
               Variant::vector_threads(4));
    b.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 2u);
  } else {
    return std::nullopt;
  }
  return b;
}

/// Least host time of one setup round. A round constructs the grid's
/// Workloads as many times as fit, and its setup time is the mean, so a
/// round of a millisecond-sized grid is not one timer-sized sample.
constexpr double kSetupRoundMs = 20.0;
/// Least number of timed-run samples beyond p90; the run goes on past
/// --seconds, by at most half as long again, until it has them.
constexpr std::size_t kMinTailSamples = 10;
/// Cache hits served per iteration in the warm phase (rounded up to whole
/// warm campaigns), so the warm phase lasts well over a millisecond.
constexpr std::size_t kWarmCellsPerIteration = 240;

/// Host times of the traced run, one per public call timed from outside
/// the layer that owns it.
constexpr const char* kLayerTimes[] = {
    "workloads.make_ms",           "machine.construct_ms",
    "func.init_memory_ms",         "isa.build_ms",
    "func.verify_ms",              "machine.run_phase_ms.serial",
    "machine.run_phase_ms.threaded", "common.to_json_ms",
    "common.from_json_ms",         "campaign.cache_store_ms",
    "campaign.cache_lookup_ms",    "campaign.journal_append_ms",
};

// --- host speed ----------------------------------------------------------------

/// A fixed workload that samples the host's speed: a set-associative cache
/// model (8192 sets x 4 ways, LRU by age) fed a fixed pseudo-random address
/// stream. Like the simulator, it is branchy integer code over a few hundred
/// KiB of tag state, so the host's speed swings move it the way they move
/// the simulator (README.md, "Host noise"). It runs twice per iteration,
/// while nothing else in the process runs, and never calls into the
/// simulator.
class HostReference {
 public:
  /// Host time of one pass, in ms.
  double time_ms() {
    std::fill(tags_.begin(), tags_.end(), ~0ull);
    std::fill(age_.begin(), age_.end(), 0);
    std::uint64_t x = 0x9E3779B97F4A7C15ull, hits = 0;
    const auto t = Clock::now();
    for (int i = 0; i < kAccesses; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const std::uint64_t line = (x & 0xFFFFFF) >> 6;
      std::uint64_t* way = &tags_[(line % kSets) * kWays];
      std::uint8_t* age = &age_[(line % kSets) * kWays];
      int hit = -1;
      for (int k = 0; k < kWays; ++k)
        if (way[k] == line) hit = k;
      if (hit < 0) {
        hit = 0;
        for (int k = 1; k < kWays; ++k)
          if (age[k] > age[hit]) hit = k;
        way[hit] = line;
      } else {
        ++hits;
      }
      for (int k = 0; k < kWays; ++k)
        if (age[k] < 255) ++age[k];
      age[hit] = 0;
    }
    const double ms = ms_since(t);
    sink_ = hits;  // keeps the loop from being optimised away
    return ms;
  }

 private:
  static constexpr int kSets = 8192, kWays = 4, kAccesses = 400000;
  std::vector<std::uint64_t> tags_ = std::vector<std::uint64_t>(kSets * kWays);
  std::vector<std::uint8_t> age_ = std::vector<std::uint8_t>(kSets * kWays);
  volatile std::uint64_t sink_ = 0;
};

/// A round figure near HostReference's time on the host this benchmark
/// was developed on (a 2.0 GHz 4-vCPU VM) when it ran fastest. A run's
/// host slowdown is the median of its HostReference times over this, and
/// every end-to-end host time is divided (a rate multiplied) by it, which
/// reports the run as if the host had run at that speed throughout.
constexpr double kReferenceNominalMs = 7.5;

// --- deterministic counts --------------------------------------------------

/// Sum of every counter named "<unit><index>.<leaf>" (e.g. "su3.l1d.misses"
/// for unit "su", leaf "l1d.misses").
std::uint64_t sum_indexed(const stats::Snapshot& s, const std::string& unit,
                          const std::string& leaf) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : s.counters) {
    if (name.rfind(unit, 0) != 0) continue;
    std::size_t i = unit.size();
    while (i < name.size() && name[i] >= '0' && name[i] <= '9') ++i;
    if (i > unit.size() && name.compare(i, std::string::npos, "." + leaf) == 0)
      total += value;
  }
  return total;
}

struct Counts {
  std::uint64_t cycles = 0, insts = 0, ticks = 0, scans = 0;
  std::uint64_t su_commits = 0, bpred_lookups = 0, bpred_miss = 0;
  std::uint64_t l1d_acc = 0, l1d_miss = 0, l1i_acc = 0, l1i_miss = 0;
  std::uint64_t vu_busy = 0, vu_partly = 0, vu_stalled = 0, vu_idle = 0;
  std::uint64_t element_ops = 0;
  std::uint64_t lane_commits = 0, lane_ic_acc = 0, lane_ic_miss = 0;
  std::uint64_t l2_acc = 0, l2_miss = 0, barrier_arrivals = 0;

  void add(const RunResult& r) {
    const stats::Snapshot& s = r.stats;
    cycles += r.cycles;
    insts += r.scalar_insts + r.vector_insts;
    ticks += r.ticks_executed;
    scans += r.scans;
    su_commits += sum_indexed(s, "su", "commit_scalar") +
                  sum_indexed(s, "su", "commit_vector");
    bpred_lookups += sum_indexed(s, "su", "bpred.lookups");
    bpred_miss += sum_indexed(s, "su", "bpred.mispredicts");
    l1d_acc += sum_indexed(s, "su", "l1d.accesses");
    l1d_miss += sum_indexed(s, "su", "l1d.misses");
    l1i_acc += sum_indexed(s, "su", "l1i.accesses");
    l1i_miss += sum_indexed(s, "su", "l1i.misses");
    vu_busy += s.counter("vu.datapath.busy");
    vu_partly += s.counter("vu.datapath.partly_idle");
    vu_stalled += s.counter("vu.datapath.stalled");
    vu_idle += s.counter("vu.datapath.all_idle");
    element_ops += r.element_ops;
    lane_commits += sum_indexed(s, "lane", "committed");
    lane_ic_acc += sum_indexed(s, "lane", "icache.accesses");
    lane_ic_miss += sum_indexed(s, "lane", "icache.misses");
    l2_acc += s.counter("l2.accesses");
    l2_miss += s.counter("l2.misses");
    barrier_arrivals += s.counter("barrier.arrivals");
  }
};

double ratio(std::uint64_t num, std::uint64_t den, double scale) {
  return den == 0 ? 0.0
                  : scale * static_cast<double>(num) / static_cast<double>(den);
}

// --- reference speedups ----------------------------------------------------

struct Reference {
  std::string app, baseline, target;  // "config/variant" of each cell
  double paper = 0.0;
};

/// Reads the held-out reference speedups of `figure` for `apps`.
std::optional<std::vector<Reference>> load_reference(
    const std::string& path, const std::string& figure,
    const std::vector<std::string>& apps, std::string* err) {
  std::ifstream in(path);
  if (!in) {
    *err = "cannot read " + path;
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::optional<Json> doc = Json::parse(text.str(), err);
  const Json* rows = doc ? doc->find("speedups") : nullptr;
  if (rows == nullptr || !rows->is_array()) {
    if (err->empty()) *err = path + ": no \"speedups\" array";
    return std::nullopt;
  }
  std::vector<Reference> out;
  for (const Json& row : rows->items()) {
    const Json* fig = row.find("figure");
    const Json* app = row.find("app");
    const Json* base = row.find("baseline");
    const Json* target = row.find("target");
    const Json* paper = row.find("paper");
    if (fig == nullptr || app == nullptr || base == nullptr ||
        target == nullptr || paper == nullptr || paper->as_double() <= 0.0) {
      *err = path + ": malformed speedup row " + row.dump();
      return std::nullopt;
    }
    if (fig->as_string() != figure ||
        std::find(apps.begin(), apps.end(), app->as_string()) == apps.end())
      continue;
    out.push_back({app->as_string(), base->as_string(), target->as_string(),
                   paper->as_double()});
  }
  if (out.empty()) {
    *err = path + ": no " + figure + " rows for this workload";
    return std::nullopt;
  }
  return out;
}

// --- traced replica ----------------------------------------------------------

/// Host time of each public call one replayed cell makes, plus the engine
/// ticks of its serial and threaded phases.
struct Replica {
  double make_ms = 0, construct_ms = 0, init_memory_ms = 0, build_ms = 0,
         verify_ms = 0, total_ms = 0;
  double phase_ms[2] = {0, 0};  // [0] serial, [1] threaded
  std::uint64_t phase_ticks[2] = {0, 0};
  Cycle cycles = 0;
  bool verified = false;
};

/// Replays Simulator::run for `cell` call by call: the same Processor
/// construction, memory image, program build, thread-switch overhead,
/// phases and golden check, each timed from outside the machine.
/// total_ms starts after make_workload, because Simulator::run, which it
/// is compared with, is handed an already constructed Workload.
Replica replay(const Cell& cell) {
  Replica rep;
  auto t = Clock::now();
  workloads::WorkloadPtr w = workloads::make_workload(cell.workload);
  rep.make_ms = ms_since(t);

  const auto start = Clock::now();
  t = Clock::now();
  machine::Processor proc(cell.config);
  rep.construct_ms = ms_since(t);

  t = Clock::now();
  w->init_memory(proc.memory());
  rep.init_memory_ms = ms_since(t);

  t = Clock::now();
  machine::ParallelProgram prog = w->build(cell.variant, cell.config.isa);
  rep.build_ms = ms_since(t);

  unsigned prev_threads = 1;
  for (const machine::Phase& phase : prog.phases) {
    if (phase.nthreads() != prev_threads)
      proc.charge_overhead(cell.config.phase_switch_overhead);
    prev_threads = phase.nthreads();
    const int slot = phase.mode == machine::PhaseMode::kSerial ? 0 : 1;
    const std::uint64_t ticks0 = proc.ticks_executed();
    t = Clock::now();
    proc.run_phase(phase);
    rep.phase_ms[slot] += ms_since(t);
    rep.phase_ticks[slot] += proc.ticks_executed() - ticks0;
  }
  rep.cycles = proc.now();

  t = Clock::now();
  rep.verified = !w->verify(proc.memory()).has_value();
  rep.verify_ms = ms_since(t);
  rep.total_ms = ms_since(start);
  return rep;
}

/// The public calls a campaign makes to key a cell before every cache
/// lookup (campaign::cell_cache_key, which is not public): construct the
/// Workload, build its input image and hash it, and build its programs.
/// A warm campaign makes them for every cache hit, so they are part of
/// the lookup's cost.
void cache_key_inputs(const Cell& cell) {
  workloads::WorkloadPtr w = workloads::make_workload(cell.workload);
  func::FuncMemory image;
  w->init_memory(image);
  image.content_hash();
  w->build(cell.variant, cell.config.isa);
}

// --- the benchmark -----------------------------------------------------------

struct Args {
  std::string workload, reference, scratch;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string format_number(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

class Bench {
 public:
  Bench(Args args, BenchWorkload wl, std::vector<Reference> refs)
      : args_(std::move(args)),
        wl_(std::move(wl)),
        refs_(std::move(refs)),
        n_(wl_.grid.size()),
        rng_(splitmix(args_.seed)) {
    for (std::size_t i = 0; i < n_; ++i) index_[name(cell(i))] = i;
    for (const char* name : kLayerTimes) layers_.try_emplace(name, n_);
    cache_dir_ = args_.scratch + "/cache";
    journal_path_ = args_.scratch + "/journal.jsonl";
  }

  int run() {
    std::filesystem::create_directories(args_.scratch);
    const std::chrono::duration<double> seconds(args_.seconds);
    const auto start = Clock::now();
    sample_host();
    do {
      setup_round();
      if (args_.trace)
        traced_iteration();
      else
        iteration();
      sample_host();
      ++iterations_;
    } while (Clock::now() < start + seconds ||
             (tail_samples() < kMinTailSamples &&
              Clock::now() < start + 1.5 * seconds));
    std::fprintf(stderr, "vltbench: %s, %zu iterations in %.1f s\n",
                 args_.workload.c_str(), iterations_, ms_since(start) / 1e3);
    // A thread of the process still running while the reference is timed
    // would slow the reference, and so inflate every corrected figure.
    if (ref_cpu_ms_ > 1.1 * ref_thread_ms_)
      fail("other threads of the process used CPU while the host reference "
           "ran: " + std::to_string(ref_cpu_ms_) + " ms of CPU in " +
           std::to_string(ref_thread_ms_) + " thread-ms");
    check_pass();
    std::filesystem::remove_all(args_.scratch);
    report();
    return failed_ == 0 ? 0 : 1;
  }

 private:
  static std::uint64_t splitmix(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  const Cell& cell(std::size_t i) const { return wl_.grid.cells()[i]; }

  void fail(const std::string& what) {
    ++failed_;
    if (failed_ <= 20)
      std::fprintf(stderr, "vltbench: FAIL %s\n", what.c_str());
  }

  /// One setup round: constructs every cell's Workload, host golden
  /// included, as many times as fit in kSetupRoundMs, and records the
  /// mean time of one construction of the grid. The last instances serve
  /// the untimed and traced runs.
  void setup_round() {
    const auto t = Clock::now();
    int reps = 0;
    do {
      workloads_.clear();
      for (const Cell& c : wl_.grid.cells())
        workloads_.push_back(workloads::make_workload(c.workload));
      ++reps;
    } while (ms_since(t) < kSetupRoundMs);
    setup_rounds_s_.push_back(ms_since(t) / 1e3 / reps);
  }

  /// Times HostReference on as many threads at once as the cold campaign
  /// runs, so a pool's other cores are sampled too, and records the mean.
  void sample_host() {
    const double cpu0 = process_cpu_ms();
    const auto t0 = Clock::now();
    std::vector<double> ms(references_.size());
    {
      std::vector<std::jthread> others;  // joined on leaving the scope
      for (std::size_t t = 1; t < references_.size(); ++t)
        others.emplace_back(
            [this, &ms, t] { ms[t] = references_[t].time_ms(); });
      ms[0] = references_[0].time_ms();
    }
    ref_thread_ms_ += ms_since(t0) * static_cast<double>(ms.size());
    ref_cpu_ms_ += process_cpu_ms() - cpu0;
    double sum = 0.0;
    for (double v : ms) sum += v;
    ref_ms_.push_back(sum / static_cast<double>(ms.size()));
  }

  /// Spec of the grid in this iteration's seed-permuted cell order.
  campaign::SweepSpec permuted_spec() {
    std::vector<std::size_t> order(n_);
    for (std::size_t i = 0; i < n_; ++i) order[i] = i;
    for (std::size_t i = n_; i > 1; --i)
      std::swap(order[i - 1], order[rng_.next_below(i)]);
    campaign::SweepSpec spec;
    for (std::size_t i : order)
      spec.add(cell(i).config, cell(i).workload, cell(i).variant);
    return spec;
  }

  /// Cold campaigns simulate on the workload's pool and journal what they
  /// simulate. Warm campaigns only read the cache, on one thread: they
  /// last a few ms, so waking pool threads would dominate their time.
  campaign::CampaignOptions options(bool cold) const {
    campaign::CampaignOptions o;
    o.threads = cold ? wl_.threads : 1;
    o.cache_dir = cache_dir_;
    if (cold) o.journal_path = journal_path_;
    return o;
  }

  /// Checks one campaign result against the cell's first result and
  /// returns the cell index.
  std::size_t check_result(const RunResult& r) {
    ++attempted_;
    const std::size_t i = index_.at(
        campaign::RunKey{r.workload, r.config, r.variant}.to_string());
    if (!r.ok() || !r.verified) {
      fail(name(cell(i)) + ": status " +
           machine::run_status_name(r.status) + " " + r.error);
      return i;
    }
    if (!first_[i]) {
      first_[i] = r;
      first_bytes_[i] = r.to_json().dump();
    } else if (r.cycles != first_[i]->cycles) {
      fail(name(cell(i)) + ": cycles changed between iterations");
    }
    return i;
  }

  /// Cold campaign: an empty cache, every cell simulated. Returns the
  /// campaign's wall time in ms.
  double cold_campaign(const campaign::SweepSpec& spec,
                       campaign::RunSet* out) {
    std::filesystem::remove_all(cache_dir_);
    const auto t = Clock::now();
    *out = campaign::Campaign(options(true)).run(spec);
    const double ms = ms_since(t);
    if (out->cache_hits() != 0) fail("cold campaign served a cache hit");
    for (const RunResult& r : out->results()) {
      const std::size_t i = check_result(r);
      if (r.ok() && r.cycles > 0) {
        cell_ms_.add(i, r.wall_ms);
        const double kcycles = static_cast<double>(r.cycles) / 1e3;
        costs_.push_back({r.wall_ms * 1e3 / kcycles, kcycles});
      }
    }
    return ms;
  }

  void iteration() {
    campaign::SweepSpec spec = permuted_spec();
    campaign::RunSet cold;
    const double cold_ms = cold_campaign(spec, &cold);
    cold_cells_per_s_.push_back(static_cast<double>(n_) * 1e3 / cold_ms);
    sample_host();

    const std::size_t reps = (kWarmCellsPerIteration + n_ - 1) / n_;
    const std::string cold_bytes = cold.to_json().dump();
    double warm_ms = 0.0;
    for (std::size_t k = 0; k < reps; ++k) {
      const auto t = Clock::now();
      campaign::RunSet warm = campaign::Campaign(options(false)).run(spec);
      warm_ms += ms_since(t);
      attempted_ += n_;
      if (warm.cache_hits() != n_ || !warm.all_ok())
        fail("warm campaign missed the cache");
      else if (k == 0 && warm.to_json().dump() != cold_bytes)
        fail("cached results differ from simulated ones");
    }
    warm_cells_per_s_.push_back(static_cast<double>(reps * n_) * 1e3 /
                                warm_ms);
  }

  void traced_iteration() {
    campaign::SweepSpec spec = permuted_spec();
    campaign::RunSet cold;
    const double cold_ms = cold_campaign(spec, &cold);
    double busy_ms = 0.0;
    for (const RunResult& r : cold.results()) busy_ms += r.wall_ms;
    pool_busy_pct_.push_back(100.0 * busy_ms / (wl_.threads * cold_ms));

    campaign::ResultCache cache(args_.scratch + "/layer-cache");
    campaign::Journal journal;
    journal.open(args_.scratch + "/layer-journal.jsonl",
                 campaign::spec_digest(spec), n_, {});
    for (const Cell& spec_cell : spec.cells()) {
      const std::size_t i = index_.at(name(spec_cell));
      const Cell& def = cell(i);

      // Untraced: the same run as one Simulator::run call.
      ++attempted_;
      auto t = Clock::now();
      RunResult r;
      try {
        r = machine::Simulator(def.config).run(*workloads_[i], def.variant);
      } catch (const SimError& e) {
        fail(name(def) + ": Simulator::run threw " + e.what());
        continue;
      }
      untraced_ms_.add(i, ms_since(t));
      if (r.to_json().dump() != first_bytes_[i]) {
        fail(name(def) + ": direct run differs from the campaign's");
        continue;
      }

      // Traced: the same run replayed call by call.
      ++attempted_;
      try {
        Replica rep = replay(def);
        if (rep.cycles != r.cycles || !rep.verified)
          fail(name(def) + ": replica reached " + std::to_string(rep.cycles) +
               " cycles, Simulator::run " + std::to_string(r.cycles));
        layer("workloads.make_ms").add(i, rep.make_ms);
        layer("machine.construct_ms").add(i, rep.construct_ms);
        layer("func.init_memory_ms").add(i, rep.init_memory_ms);
        layer("isa.build_ms").add(i, rep.build_ms);
        layer("func.verify_ms").add(i, rep.verify_ms);
        layer("machine.run_phase_ms.serial").add(i, rep.phase_ms[0]);
        layer("machine.run_phase_ms.threaded").add(i, rep.phase_ms[1]);
        traced_ms_.add(i, rep.total_ms);
        phase_ticks_[i][0] = rep.phase_ticks[0];
        phase_ticks_[i][1] = rep.phase_ticks[1];
      } catch (const SimError& e) {
        fail(name(def) + ": replica threw " + e.what());
      }

      // The campaign layer's per-cell calls on the same result.
      t = Clock::now();
      const std::string text = r.to_json().dump();
      layer("common.to_json_ms").add(i, ms_since(t));
      t = Clock::now();
      std::optional<Json> parsed = Json::parse(text);
      std::optional<RunResult> back =
          parsed ? RunResult::from_json(*parsed) : std::nullopt;
      layer("common.from_json_ms").add(i, ms_since(t));
      if (!back || back->to_json().dump() != text)
        fail(name(def) + ": JSON round trip changed the result");
      t = Clock::now();
      cache.store(i, r);
      layer("campaign.cache_store_ms").add(i, ms_since(t));
      t = Clock::now();
      cache_key_inputs(def);
      std::optional<RunResult> hit = cache.lookup(i);
      layer("campaign.cache_lookup_ms").add(i, ms_since(t));
      if (!hit || hit->to_json().dump() != text)
        fail(name(def) + ": result cache returned a different result");
      t = Clock::now();
      journal.append(i, spec_cell.key(), r);
      layer("campaign.journal_append_ms").add(i, ms_since(t));
    }
  }

  CellSeries& layer(const std::string& name) { return layers_.at(name); }

  /// Untimed: every cell (and baseline) with event skip on and off must
  /// serialize to the same bytes, and timed cells to their first result.
  void check_pass() {
    auto run_both = [this](const Cell& def, const workloads::Workload& w)
        -> std::optional<RunResult> {
      MachineConfig skip = def.config;
      MachineConfig oracle = def.config;
      skip.event_skip = true;
      oracle.event_skip = false;
      attempted_ += 2;
      RunResult a, b;
      try {
        a = machine::Simulator(skip).run(w, def.variant);
        b = machine::Simulator(oracle).run(w, def.variant);
      } catch (const SimError& e) {
        fail(name(def) + ": check pass threw " + e.what());
        return std::nullopt;
      }
      if (!a.ok() || !a.verified || !b.ok() || !b.verified) {
        fail(name(def) + ": check pass run failed: " + a.error + b.error);
        return std::nullopt;
      }
      if (a.to_json().dump() != b.to_json().dump()) {
        fail(name(def) + ": event skip on and off serialize differently");
        return std::nullopt;
      }
      return a;
    };
    for (std::size_t i = 0; i < n_; ++i) {
      std::optional<RunResult> r = run_both(cell(i), *workloads_[i]);
      if (!r) continue;
      if (!first_[i] || r->to_json().dump() != first_bytes_[i])
        fail(name(cell(i)) + ": check pass differs from timed runs");
      cycles_[name(cell(i))] = r->cycles;
    }
    for (const Cell& def : wl_.baselines.cells()) {
      workloads::WorkloadPtr w = workloads::make_workload(def.workload);
      if (std::optional<RunResult> r = run_both(def, *w))
        cycles_[name(def)] = r->cycles;
    }
  }

  /// Mean absolute error (%) of the simulated speedups against the
  /// held-out reference values; NaN when a needed cell failed.
  double model_err_pct() const {
    double sum = 0.0;
    for (const Reference& ref : refs_) {
      auto base = cycles_.find(ref.app + "/" + ref.baseline);
      auto target = cycles_.find(ref.app + "/" + ref.target);
      if (base == cycles_.end() || target == cycles_.end() ||
          target->second == 0)
        return std::nan("");
      const double sim = static_cast<double>(base->second) /
                         static_cast<double>(target->second);
      std::fprintf(stderr, "vltbench: %s %s speedup %.3f (paper %.2f)\n",
                   wl_.figure.c_str(), ref.app.c_str(), sim, ref.paper);
      sum += 100.0 * std::abs(sim - ref.paper) / ref.paper;
    }
    return sum / static_cast<double>(refs_.size());
  }

  /// Deterministic counts of the timed cells' first results.
  Counts counts() const {
    Counts c;
    for (const auto& r : first_)
      if (r) c.add(*r);
    return c;
  }

  /// Timed cell runs whose cost lies beyond p90.
  std::size_t tail_samples() const {
    if (args_.trace) return kMinTailSamples;  // the traced run reports no p90
    return count_above(costs_, weighted_percentile(costs_, 0.9));
  }

  std::vector<Metric> end_to_end() const {
    const Counts c = counts();
    // Every host time is corrected by the run's host slowdown: the median
    // HostReference time over its nominal. The uncorrected throughput goes
    // to stderr beside the host's measured speed.
    const double k = median(ref_ms_) / kReferenceNominalMs;
    const double raw_pass_s = cell_ms_.sum_of_medians() / 1e3;
    const double pass_s = raw_pass_s / k;
    std::fprintf(stderr,
                 "vltbench: host reference %.3f ms median over %zu samples "
                 "(range %.3f-%.3f, process CPU %.1f%% of reference "
                 "thread time), slowdown %.4f; uncorrected "
                 "sim_mcycles_per_s %.6g\n",
                 median(ref_ms_), ref_ms_.size(),
                 *std::min_element(ref_ms_.begin(), ref_ms_.end()),
                 *std::max_element(ref_ms_.begin(), ref_ms_.end()),
                 100.0 * ref_cpu_ms_ / ref_thread_ms_, k,
                 static_cast<double>(c.cycles) / raw_pass_s / 1e6);
    const double p50 = weighted_percentile(costs_, 0.5) / k;
    double p90 = weighted_percentile(costs_, 0.9) / k;
    const std::size_t tail = tail_samples();
    std::fprintf(stderr,
                 "vltbench: p50/p90 over %zu timed cell runs, %zu beyond p90\n",
                 costs_.size(), tail);
    if (tail < kMinTailSamples) p90 = std::nan("");  // too few to be steady
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return {
        {"sim_mcycles_per_s", static_cast<double>(c.cycles) / pass_s / 1e6,
         "Mcycles/s"},
        {"sim_minsts_per_s", static_cast<double>(c.insts) / pass_s / 1e6,
         "Minsts/s"},
        {"host_us_per_kcycle_p50", p50, "us"},
        {"host_us_per_kcycle_p90", p90, "us"},
        {"sweep_cells_per_s", median(cold_cells_per_s_) * k, "1/s"},
        {"cached_cells_per_s", median(warm_cells_per_s_) * k, "1/s"},
        {"setup_s", median(setup_rounds_s_) / k, "s"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
        {"model_err_pct", model_err_pct(), "%"},
    };
  }

  std::vector<Metric> per_layer() const {
    const Counts c = counts();
    std::vector<Metric> m;
    for (const auto& [name, series] : layers_)
      m.push_back({name, series.sum_of_medians(), "ms"});
    std::uint64_t ticks[2] = {0, 0};
    for (const auto& t : phase_ticks_) {
      ticks[0] += t[0];
      ticks[1] += t[1];
    }
    const double serial_ms = layers_.at("machine.run_phase_ms.serial")
                                 .sum_of_medians();
    const double threaded_ms = layers_.at("machine.run_phase_ms.threaded")
                                   .sum_of_medians();
    m.push_back({"machine.ns_per_tick.serial",
                 ticks[0] == 0 ? 0.0 : serial_ms * 1e6 / ticks[0], "ns"});
    m.push_back({"machine.ns_per_tick.threaded",
                 ticks[1] == 0 ? 0.0 : threaded_ms * 1e6 / ticks[1], "ns"});
    m.push_back({"campaign.pool_busy_pct", median(pool_busy_pct_), "%"});
    m.push_back({"trace.overhead_pct",
                 100.0 * (traced_ms_.sum_of_medians() /
                              untraced_ms_.sum_of_medians() -
                          1.0),
                 "%"});
    const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    m.push_back({"engine.ticks_per_kcycle", ratio(c.ticks, c.cycles, 1e3),
                 "count"});
    m.push_back({"engine.scans_per_kcycle", ratio(c.scans, c.cycles, 1e3),
                 "count"});
    m.push_back({"su.commits_per_kcycle", ratio(c.su_commits, c.cycles, 1e3),
                 "count"});
    m.push_back({"su.bpred.mispredict_pct",
                 ratio(c.bpred_miss, c.bpred_lookups, 100), "%"});
    m.push_back({"su.l1d.miss_pct", ratio(c.l1d_miss, c.l1d_acc, 100), "%"});
    m.push_back({"su.l1i.miss_pct", ratio(c.l1i_miss, c.l1i_acc, 100), "%"});
    const std::uint64_t lane_cycles =
        c.vu_busy + c.vu_partly + c.vu_stalled + c.vu_idle;
    m.push_back({"vu.busy_pct", ratio(c.vu_busy, lane_cycles, 100), "%"});
    m.push_back({"vu.stalled_pct", ratio(c.vu_stalled, lane_cycles, 100),
                 "%"});
    m.push_back({"vu.all_idle_pct", ratio(c.vu_idle, lane_cycles, 100), "%"});
    m.push_back({"vu.element_ops", u(c.element_ops), "count"});
    m.push_back({"lane.commits_per_kcycle",
                 ratio(c.lane_commits, c.cycles, 1e3), "count"});
    m.push_back({"lane.icache.miss_pct",
                 ratio(c.lane_ic_miss, c.lane_ic_acc, 100), "%"});
    m.push_back({"l2.accesses", u(c.l2_acc), "count"});
    m.push_back({"l2.miss_pct", ratio(c.l2_miss, c.l2_acc, 100), "%"});
    m.push_back({"barrier.arrivals", u(c.barrier_arrivals), "count"});
    m.push_back({"sim.cycles", u(c.cycles), "count"});
    m.push_back({"sim.insts", u(c.insts), "count"});
    return m;
  }

  void report() {
    const std::vector<Metric> metrics =
        args_.trace ? per_layer() : end_to_end();
    for (const Metric& m : metrics)
      if (!std::isfinite(m.value)) fail(m.name + " could not be computed");
    std::string out = "{\"correct\": ";
    out += failed_ == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (std::size_t k = 0; k < metrics.size(); ++k) {
      const Metric& m = metrics[k];
      std::fprintf(stderr, "vltbench: %-32s %14.6g %s\n", m.name.c_str(),
                   m.value, m.unit.c_str());
      if (k > 0) out += ", ";
      out += "\"" + m.name + "\": {\"value\": " +
             (std::isfinite(m.value) ? format_number(m.value) : "null") +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

  Args args_;
  BenchWorkload wl_;
  std::vector<Reference> refs_;
  std::size_t n_;
  Xorshift64 rng_;
  std::map<std::string, std::size_t> index_;
  std::string cache_dir_, journal_path_;

  std::vector<workloads::WorkloadPtr> workloads_;
  std::vector<std::optional<RunResult>> first_ =
      std::vector<std::optional<RunResult>>(n_);
  std::vector<std::string> first_bytes_ = std::vector<std::string>(n_);
  std::map<std::string, Cycle> cycles_;  // check-pass cycles by cell key

  std::size_t iterations_ = 0;
  std::uint64_t attempted_ = 0, failed_ = 0;
  std::vector<double> setup_rounds_s_;
  CellSeries cell_ms_{n_};
  std::vector<CostSample> costs_;
  std::vector<double> cold_cells_per_s_, warm_cells_per_s_;
  std::vector<HostReference> references_ =
      std::vector<HostReference>(wl_.threads);
  std::vector<double> ref_ms_;  // HostReference times, two per iteration
  // Wall time x reference threads, and process CPU time, over all samples.
  double ref_thread_ms_ = 0.0, ref_cpu_ms_ = 0.0;

  // Traced run.
  std::map<std::string, CellSeries> layers_;
  CellSeries untraced_ms_{n_}, traced_ms_{n_};
  std::vector<std::array<std::uint64_t, 2>> phase_ticks_ =
      std::vector<std::array<std::uint64_t, 2>>(n_);
  std::vector<double> pool_busy_pct_;
};

void usage() {
  std::fprintf(stderr,
               "usage: vltbench --workload vector-threads|lane-threads|sweep"
               " --seed N\n"
               "                --seconds S --trace 0|1 --reference FILE"
               " --scratch DIR\n");
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have[6] = {};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have[1] = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      have[2] = !value.empty() && *end == '\0' && a.seconds > 0;
    } else if (flag == "--trace") {
      a.trace = value == "1";
      have[3] = value == "0" || value == "1";
    } else if (flag == "--reference") {
      a.reference = value;
      have[4] = true;
    } else if (flag == "--scratch") {
      a.scratch = value;
      have[5] = !value.empty();
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || !std::all_of(std::begin(have), std::end(have),
                                    [](bool b) { return b; }))
    return std::nullopt;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    usage();
    return 2;
  }
  std::optional<BenchWorkload> wl = define_workload(args->workload);
  if (!wl) {
    std::fprintf(stderr, "vltbench: unknown workload '%s'\n",
                 args->workload.c_str());
    usage();
    return 2;
  }
  std::string err;
  std::optional<std::vector<Reference>> refs =
      load_reference(args->reference, wl->figure, wl->apps, &err);
  if (!refs) {
    std::fprintf(stderr, "vltbench: %s\n", err.c_str());
    return 2;
  }
  try {
    return Bench(*std::move(args), *std::move(wl), *std::move(refs)).run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vltbench: %s\n", e.what());
    return 2;
  }
}
