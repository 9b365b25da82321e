// perfbench — the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> --golden-dir <dir>
//   perfbench --workload <name> --record --golden-dir <dir>
//
// A run repeats timed passes of the workload for at least --seconds. Each
// pass streams the workload's cells through runner::run_sweep_streamed (one
// worker) into a runner::CsvCampaign, abandons the campaign halfway, resumes
// it, and finishes it. Every row is checked: invariants as it arrives, and
// its bytes against the recorded digest afterwards. With --trace 1 a traced
// pass then re-drives every cell through each layer's public entry points
// (redrive.hpp), followed by the fast-path and crypto twins and the layer
// probes. The last stdout line is one JSON object: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. Exit status is 1 when any
// check failed and 2 on a usage error.
//
// --record writes the golden row digests for every recorded base seed.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "probes.hpp"
#include "redrive.hpp"
#include "relay/flood_world.hpp"
#include "runner/campaign.hpp"
#include "runner/export.hpp"
#include "runner/runner.hpp"
#include "runner/scenario.hpp"
#include "spans.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;
namespace runner = crusader::runner;
namespace relay = crusader::relay;
namespace util = crusader::util;
using runner::ScenarioResult;
using runner::ScenarioSpec;

/// Base seeds with recorded row digests. A workload seed s runs under base
/// seed 1 + s mod kGoldenSeeds, so every run's rows are checked byte for
/// byte against a recorded digest.
constexpr std::uint64_t kGoldenSeeds = 8;
/// Set-up and resume are repeated this many times per pass; their metrics
/// are medians over every repetition of the run.
constexpr int kSetupReps = 5;
constexpr int kResumeReps = 5;
/// Traced passes per --trace 1 run, and runs per twin variant.
constexpr int kTracedReps = 3;
constexpr int kTwinReps = 2;
/// Failed rows reported in detail; the rest are only counted.
constexpr std::size_t kMaxReported = 10;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool record = false;
  std::string work_dir;
  std::string golden_dir;
};

[[noreturn]] void usage(const std::string& what) {
  std::cerr << "perfbench: " << what
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> --golden-dir <dir>\n"
               "       perfbench --workload <name> --record --golden-dir "
               "<dir>\nworkloads:";
  for (const auto& w : workloads()) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record") {
      args.record = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      const auto v = runner::parse_u64_strict(value);
      if (!v) usage("--seed must be a non-negative integer");
      args.seed = *v;
    } else if (flag == "--seconds") {
      const auto v = runner::parse_double_strict(value);
      if (!v || *v <= 0.0) usage("--seconds must be positive");
      args.seconds = *v;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--golden-dir") {
      args.golden_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (find_workload(args.workload) == nullptr)
    usage("unknown workload '" + args.workload + "'");
  if (args.golden_dir.empty()) usage("--golden-dir is required");
  if (!args.record && args.work_dir.empty()) usage("--work-dir is required");
  return args;
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A row's recorded digest: the low 32 bits of FNV-1a 64 over the CSV
/// record, newline included.
std::uint32_t row_digest(std::string_view record) {
  return static_cast<std::uint32_t>(fnv1a64(record));
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream os;
  os << is.rdbuf();
  return std::move(os).str();
}

/// Digests of every record after the header.
std::vector<std::uint32_t> csv_row_digests(const std::string& csv) {
  const auto ends = runner::csv_record_ends(csv);
  std::vector<std::uint32_t> out;
  for (std::size_t i = 1; i < ends.size(); ++i)
    out.push_back(row_digest(
        std::string_view(csv).substr(ends[i - 1], ends[i] - ends[i - 1])));
  return out;
}

std::string golden_path(const Args& args) {
  return (fs::path(args.golden_dir) / (args.workload + ".txt")).string();
}

/// Golden file: "seed <base_seed> rows <count>" then one 8-hex digest per
/// row, for each recorded base seed.
std::map<std::uint64_t, std::vector<std::uint32_t>> load_golden(
    const std::string& path) {
  std::map<std::uint64_t, std::vector<std::uint32_t>> golden;
  std::istringstream is(slurp(path));
  std::string line;
  std::vector<std::uint32_t>* rows = nullptr;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("seed ", 0) == 0) {
      rows = &golden[std::stoull(line.substr(5))];
      continue;
    }
    if (rows == nullptr || line.size() != 8)
      throw std::runtime_error("malformed golden file '" + path + "'");
    rows->push_back(static_cast<std::uint32_t>(std::stoul(line, nullptr, 16)));
  }
  return golden;
}

int record_golden(const Args& args, const Workload& workload) {
  std::ofstream os(golden_path(args), std::ios::binary | std::ios::trunc);
  os << "# perfbench row digests for workload " << workload.name
     << ": low 32 bits of FNV-1a 64 over each CSV record (newline\n"
        "# included), per base seed. Regenerate with perfbench --record.\n";
  const auto specs = workload.expand();
  for (std::uint64_t base = 1; base <= kGoldenSeeds; ++base) {
    runner::RunnerOptions options;
    options.base_seed = base;
    options.threads = 0;
    const auto report = runner::run_sweep(specs, options);
    os << "seed " << base << " rows " << report.results.size() << '\n';
    for (const auto& result : report.results) {
      std::ostringstream row;
      runner::write_csv_row(row, result);
      char hex[16];
      std::snprintf(hex, sizeof hex, "%08x", row_digest(row.str()));
      os << hex << '\n';
    }
    std::cerr << "recorded " << workload.name << " seed " << base << '\n';
  }
  return os ? 0 : 1;
}

/// The invariants every row must satisfy; empty when it does.
std::string row_invariant_failure(const ScenarioResult& r) {
  if (!r.error.empty()) return "error: " + r.error;
  if (r.timed_out) return "timed out";
  if (!r.feasible) return {};
  if (r.spec.dynamic()) return r.live ? std::string() : "dynamic row not live";
  const bool in_model = r.spec.f_actual <= r.spec.f;
  if (in_model && r.rounds_completed > 0 && !r.within_bound)
    return r.spec.world == runner::WorldKind::kTheorem5
               ? "lower bound not realized"
               : "in-model static row outside its bound";
  if (std::isfinite(r.local_skew) && std::isfinite(r.max_skew) &&
      r.local_skew > r.max_skew)
    return "local_skew > max_skew";
  return {};
}

/// Row checks of one run: every check of one row counts as attempted, and
/// every check it fails as failed.
struct Failures {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> reported;
  std::size_t unreported = 0;

  void fail(const std::string& where, std::size_t row, const std::string& why,
            const std::vector<ScenarioSpec>& specs) {
    ++failed;
    const std::string name =
        row < specs.size() ? specs[row].name() : std::string("?");
    if (reported.size() < kMaxReported)
      reported.push_back(where + " row " + std::to_string(row) + " (" + name +
                         "): " + why);
    else
      ++unreported;
  }
  /// Compares rows with reference digests, one check per row.
  void check_rows(const std::string& where,
                  const std::vector<std::uint32_t>& got,
                  const std::vector<std::uint32_t>& want,
                  const std::vector<ScenarioSpec>& specs) {
    const std::size_t rows = std::max(got.size(), want.size());
    attempted += rows;
    for (std::size_t i = 0; i < rows; ++i)
      if (i >= got.size() || i >= want.size() || got[i] != want[i])
        fail(where, i, "row bytes differ from the reference row", specs);
  }
};

double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB → MB
  return 0.0;
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

struct CampaignFiles {
  runner::CsvCampaign::Options options;

  CampaignFiles(const std::string& dir, const std::string& stem,
                std::uint64_t base_seed, std::size_t checkpoint_every) {
    options.csv_path = (fs::path(dir) / (stem + ".csv")).string();
    options.manifest_path = (fs::path(dir) / (stem + ".manifest")).string();
    options.checkpoint_every = checkpoint_every;
    options.base_seed = base_seed;
  }
  void remove() const {
    fs::remove(options.csv_path);
    fs::remove(options.manifest_path);
  }
  void write(const std::string& csv, const std::string& manifest) const {
    std::ofstream(options.csv_path, std::ios::binary | std::ios::trunc) << csv;
    std::ofstream(options.manifest_path, std::ios::binary | std::ios::trunc)
        << manifest;
  }
};

/// One untraced timed pass.
struct Pass {
  double wall_s = 0.0;
  /// Per spec index: host time and engine events of the cell's first run in
  /// the pass.
  std::vector<double> cell_s;
  std::vector<std::uint64_t> events;
  /// wall_s minus the cells' first runs: set-up, appends, resume, rows
  /// re-run after the resume, finish.
  double rest_s = 0.0;
  std::vector<double> setup_s;
  std::vector<double> resume_s;
  std::vector<ScenarioSpec> specs;
  std::string csv;
};

Pass timed_pass(const Workload& workload, const CampaignFiles& files,
                Failures& failures) {
  Pass pass;
  std::unique_ptr<runner::CsvCampaign> campaign;
  double setup_last = 0.0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    campaign.reset();
    files.remove();
    const auto t0 = now_ns();
    pass.specs = workload.expand();
    campaign = std::make_unique<runner::CsvCampaign>(files.options, pass.specs);
    setup_last = seconds_since(t0);
    pass.setup_s.push_back(setup_last);
  }
  const auto& specs = pass.specs;
  pass.cell_s.assign(specs.size(), -1.0);
  pass.events.assign(specs.size(), 0);

  runner::RunnerOptions options;
  options.base_seed = files.options.base_seed;
  options.threads = 1;

  std::size_t next = 0;
  std::int64_t last = 0;
  const auto sink = [&](const ScenarioResult& result) {
    const auto t = now_ns();
    if (pass.cell_s[next] < 0.0) {
      pass.cell_s[next] = static_cast<double>(t - last) * 1e-9;
      pass.events[next] = result.events;
    }
    ++failures.attempted;
    const std::string why = row_invariant_failure(result);
    if (!why.empty()) failures.fail("timed pass", next, why, specs);
    campaign->append(result);
    ++next;
    last = now_ns();
  };
  auto run = [&](std::size_t from, std::size_t to) {
    const std::vector<ScenarioSpec> slice(specs.begin() + from,
                                          specs.begin() + to);
    const auto t0 = now_ns();
    next = from;
    last = t0;
    runner::run_sweep_streamed(slice, options, sink);
    return seconds_since(t0);
  };

  // First half, then abandon without finish(): the manifest keeps its last
  // periodic checkpoint, exactly as after a kill.
  const std::size_t half = specs.size() / 2;
  double wall = setup_last + run(0, half);
  campaign.reset();
  const std::string abandoned_csv = slurp(files.options.csv_path);
  const std::string abandoned_manifest = slurp(files.options.manifest_path);
  double resume_last = 0.0;
  for (int rep = 0; rep < kResumeReps; ++rep) {
    campaign.reset();
    files.write(abandoned_csv, abandoned_manifest);
    const auto t0 = now_ns();
    campaign = std::make_unique<runner::CsvCampaign>(files.options, specs);
    resume_last = seconds_since(t0);
    pass.resume_s.push_back(resume_last);
  }
  wall += resume_last + run(campaign->resume_index(), specs.size());
  const auto t0 = now_ns();
  campaign->finish();
  campaign.reset();
  wall += seconds_since(t0);

  pass.wall_s = wall;
  pass.rest_s = wall;
  for (const double cell : pass.cell_s) pass.rest_s -= cell;
  pass.csv = slurp(files.options.csv_path);
  return pass;
}

/// What the traced pass measured, beyond its span log.
struct TracedPass {
  SpanLog log;
  double wall_s = 0.0;
  std::string csv;
  std::size_t cells = 0;  ///< re-drives (and appends), including re-run rows
  std::size_t checkpoints = 0;
  std::uint64_t io_bytes = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_lookups = 0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t sign_ops = 0;
  std::uint64_t verify_ops = 0;
  std::uint64_t signatures_carried = 0;
  std::uint64_t schedule_deltas = 0;
  std::uint64_t search_candidates = 0;
  std::size_t search_cells = 0;
  std::size_t search_useful = 0;
  /// Per delay kind: engine run seconds and events.
  std::map<crusader::sim::DelayKind, std::pair<double, std::uint64_t>> by_delay;
  /// Per real-crypto spec index (first re-drive): the pulse trace.
  std::map<std::size_t, crusader::sim::PulseTrace> traces;
  double max_horizon = 0.0;
  std::uint32_t busiest_n = 1;
  std::uint64_t busiest_events = 0;
};

/// Keeps the traced digest loop observable.
volatile std::uint64_t g_key_sink = 0;

TracedPass traced_pass(const Workload& workload, const CampaignFiles& files) {
  TracedPass tp;
  SpanLog& log = tp.log;
  files.remove();
  const std::uint64_t base = files.options.base_seed;
  const auto t0 = now_ns();
  std::vector<ScenarioSpec> specs;
  {
    Scoped span(&log, "runner", "expand");
    specs = workload.expand();
  }
  {
    Scoped span(&log, "runner", "keys");
    std::uint64_t acc = 0;
    for (const auto& spec : specs) acc ^= spec.key();
    g_key_sink = acc;
  }
  std::unique_ptr<runner::CsvCampaign> campaign;
  {
    Scoped span(&log, "io", "open");
    campaign = std::make_unique<runner::CsvCampaign>(files.options, specs);
  }
  std::uintmax_t manifest_size = fs::file_size(files.options.manifest_path);

  auto drive = [&](std::size_t from, std::size_t to,
                   relay::EffectiveCache& cache) {
    for (std::size_t i = from; i < to; ++i) {
      const ScenarioSpec& spec = specs[i];
      log.set_cell(static_cast<std::uint32_t>(i));
      const std::size_t first_span = log.spans().size();
      std::optional<Redriven> red;
      {
        Scoped span(&log, "runner", "cell");
        red.emplace(redrive(spec, base, &cache, &log));
      }
      {
        Scoped span(&log, "io", "append");
        campaign->append(red->result);
      }
      log.set_cell(kNoCell);
      const auto size = fs::file_size(files.options.manifest_path);
      if (size != manifest_size) ++tp.checkpoints;
      manifest_size = size;

      const auto& r = red->result;
      ++tp.cells;
      tp.events += r.events;
      tp.messages += r.messages;
      tp.sign_ops += r.sign_ops;
      tp.verify_ops += r.verify_ops;
      tp.signatures_carried += r.signatures_carried;
      tp.schedule_deltas += red->schedule_mutations;
      if (spec.relay_fault == relay::RelayFaultKind::kSearch &&
          r.attack_iters > 0) {
        ++tp.search_cells;
        tp.search_candidates += red->candidates;
        if (r.attack_best_seed != 0) ++tp.search_useful;
      }
      const double run_s = log.total_s("sim", "run", first_span);
      auto& delay = tp.by_delay[spec.delay];
      delay.first += run_s;
      delay.second += r.events;
      if (spec.crypto == runner::CryptoMode::kReal &&
          spec.world != runner::WorldKind::kTheorem5)
        tp.traces.emplace(i, std::move(red->trace));
      tp.max_horizon = std::max(tp.max_horizon, red->horizon);
      if (r.events > tp.busiest_events) {
        tp.busiest_events = r.events;
        tp.busiest_n = spec.n;
      }
    }
    tp.cache_hits += cache.hits();
    tp.cache_lookups += cache.hits() + cache.misses();
  };

  const std::size_t half = specs.size() / 2;
  {
    relay::EffectiveCache cache;
    drive(0, half, cache);
  }
  campaign.reset();
  {
    Scoped span(&log, "io", "reconcile");
    campaign = std::make_unique<runner::CsvCampaign>(files.options, specs);
  }
  {
    relay::EffectiveCache cache;
    drive(campaign->resume_index(), specs.size(), cache);
  }
  {
    Scoped span(&log, "io", "finish");
    campaign->finish();
  }
  campaign.reset();
  tp.wall_s = seconds_since(t0);
  tp.csv = slurp(files.options.csv_path);
  tp.io_bytes = fs::file_size(files.options.csv_path) +
                fs::file_size(files.options.manifest_path);
  return tp;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
       << (std::isfinite(metrics[i].value) ? metrics[i].value : 0.0)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  os << "}}";
  std::cout << os.str() << std::endl;
}

void print_table(const std::string& title, const std::vector<Metric>& metrics,
                 const std::map<std::string, std::string>& notes) {
  std::cout << title << '\n';
  for (const auto& m : metrics) {
    std::cout << "  " << std::left << std::setw(28) << m.name << std::right
              << std::setw(18) << std::setprecision(6) << m.value << "  "
              << std::left << std::setw(9) << m.unit << std::right;
    const auto note = notes.find(m.name);
    if (note != notes.end()) std::cout << "  " << note->second;
    std::cout << '\n';
  }
}

int run(const Args& args, const Workload& workload) {
  const std::uint64_t base_seed = 1 + args.seed % kGoldenSeeds;
  fs::create_directories(args.work_dir);
  const CampaignFiles files(args.work_dir, workload.name, base_seed,
                            workload.checkpoint_every);

  Failures failures;
  std::vector<std::uint32_t> golden;
  {
    const auto all = load_golden(golden_path(args));
    const auto it = all.find(base_seed);
    if (it == all.end())
      throw std::runtime_error("no recorded rows for base seed " +
                               std::to_string(base_seed));
    golden = it->second;
  }

  // Timed passes.
  std::vector<Pass> passes;
  std::vector<ScenarioSpec> specs;
  std::string csv;  ///< the last pass's campaign CSV
  double rss_mb = 0.0;
  const auto start = now_ns();
  while (passes.empty() || seconds_since(start) < args.seconds) {
    passes.push_back(timed_pass(workload, files, failures));
    // One campaign's peak: later passes only add allocator fragmentation.
    if (passes.size() == 1) rss_mb = peak_rss_mb();
    specs = std::move(passes.back().specs);
    csv = std::move(passes.back().csv);
    failures.check_rows("timed pass " + std::to_string(passes.size()),
                        csv_row_digests(csv), golden, specs);
  }

  // Thread identity (untimed): the same campaign at nproc workers must
  // write the one-worker CSV byte for byte.
  if (workload.thread_check) {
    runner::RunnerOptions options;
    options.base_seed = base_seed;
    options.threads = std::max(1u, std::thread::hardware_concurrency());
    const CampaignFiles mt(args.work_dir, "threads", base_seed,
                           workload.checkpoint_every);
    mt.remove();
    {
      runner::CsvCampaign campaign(mt.options, specs);
      runner::run_sweep_streamed(
          specs, options,
          [&](const ScenarioResult& result) { campaign.append(result); });
      campaign.finish();
    }
    failures.check_rows(
        "threads=" + std::to_string(options.threads),
        csv_row_digests(slurp(mt.options.csv_path)),
        csv_row_digests(csv), specs);
    mt.remove();
  }

  // Host speed on a shared machine drifts by tens of percent over seconds,
  // so every time is its fastest repeat in the run: each cell's fastest
  // pass, the fastest remainder, set-up and resume. The fastest repeat
  // estimates what the work costs; slow phases of the host only add to it.
  std::vector<double> best_cell_s(specs.size()), setup_s, resume_s;
  double best_rest = passes.front().rest_s;
  double best_wall = passes.front().wall_s;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    best_cell_s[i] = passes.front().cell_s[i];
    for (const auto& p : passes)
      best_cell_s[i] = std::min(best_cell_s[i], p.cell_s[i]);
  }
  for (const auto& p : passes) {
    best_wall = std::min(best_wall, p.wall_s);
    best_rest = std::min(best_rest, p.rest_s);
    setup_s.insert(setup_s.end(), p.setup_s.begin(), p.setup_s.end());
    resume_s.insert(resume_s.end(), p.resume_s.begin(), p.resume_s.end());
  }
  double cells_s = 0.0;
  std::uint64_t events = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    cells_s += best_cell_s[i];
    events += passes.back().events[i];
  }

  std::cout << "perfbench " << workload.name << ": seed " << args.seed
            << " (base seed " << base_seed << "), " << passes.size()
            << " timed passes of " << specs.size() << " cells, one worker\n";

  if (!args.trace) {
    util::Samples cells;
    for (const double t : best_cell_s) cells.add(t * 1e3);
    const std::string passes_note =
        "fastest of " + std::to_string(passes.size()) + " passes per cell";
    std::vector<Metric> metrics = {
        {"cells_per_s",
         static_cast<double>(specs.size()) / (cells_s + best_rest), "cells/s"},
        {"events_per_s", static_cast<double>(events) / cells_s, "events/s"},
        {"cell_ms_p50", cells.median(), "ms"},
        {"setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
    std::map<std::string, std::string> notes = {
        {"cells_per_s", passes_note},
        {"events_per_s", passes_note},
        {"cell_ms_p50", "n=" + std::to_string(cells.count()) + " cells, " +
                            passes_note},
        {"setup_s", "fastest of " + std::to_string(setup_s.size()) +
                        " set-ups"},
        {"peak_rss_mb", "n=1 (process peak after the first pass)"},
        {"resume_s", "fastest of " + std::to_string(resume_s.size()) +
                         " resumes"},
    };
    // Printed, not gated: a millisecond of file I/O whose run-to-run spread
    // on a shared host exceeds any bound the benchmark could fix.
    std::vector<Metric> shown = metrics;
    shown.push_back(
        {"resume_s", *std::min_element(resume_s.begin(), resume_s.end()),
         "s"});
    if (cells.count() >= 100) {
      shown.insert(shown.begin() + 3,
                   Metric{"cell_ms_p90", cells.quantile(0.9), "ms"});
      notes["cell_ms_p90"] = "n=" + std::to_string(cells.count()) + " cells";
    } else {
      std::cout << "  cell_ms_p90 not reported: " << cells.count()
                << " cells < 100\n";
    }
    shown.push_back(
        {"cell_fail_ratio",
         failures.attempted
             ? static_cast<double>(failures.failed) / failures.attempted
             : 0.0,
         "ratio"});
    notes["cell_fail_ratio"] = std::to_string(failures.failed) + "/" +
                               std::to_string(failures.attempted) +
                               " failed/attempted";
    print_table("end-to-end:", shown, notes);
    for (const auto& line : failures.reported)
      std::cout << "  FAILED " << line << '\n';
    if (failures.unreported)
      std::cout << "  ... and " << failures.unreported << " more\n";
    print_result(failures.failed == 0, failures.attempted, failures.failed,
                 metrics);
    return failures.failed == 0 ? 0 : 1;
  }

  // Traced pass: every row must match the untraced pass byte for byte.
  const CampaignFiles traced_files(args.work_dir, std::string(workload.name) +
                                                      "-traced",
                                   base_seed, workload.checkpoint_every);
  // The fastest of kTracedReps traced passes supplies every span metric,
  // for the same reason the timed passes keep their fastest repeats.
  const auto untraced_rows = csv_row_digests(csv);
  std::optional<TracedPass> tp_best;
  for (int rep = 0; rep < kTracedReps; ++rep) {
    TracedPass traced = traced_pass(workload, traced_files);
    failures.check_rows("traced pass", csv_row_digests(traced.csv),
                        untraced_rows, specs);
    if (!tp_best || traced.wall_s < tp_best->wall_s)
      tp_best = std::move(traced);
  }
  traced_files.remove();
  TracedPass& tp = *tp_best;
  const auto trace_file =
      (fs::path(args.work_dir) /
       (std::string(workload.name) + "-seed" + std::to_string(args.seed) +
        ".trace.json"))
          .string();
  tp.log.write_json(trace_file);

  // Twins: every non-Theorem-5 cell re-driven with the fast path on and
  // off, and every real-crypto cell also with the abstract PKI under the
  // same world seed. Each variant keeps its fastest engine run of
  // kTwinReps. The twins must leave every row unchanged, and the PKI twin
  // every pulse.
  double batch_on = 0.0, batch_off = 0.0, crypto_real = 0.0,
         crypto_abstract = 0.0;
  {
    relay::EffectiveCache cache;
    auto twin_run_s = [&](std::size_t i, const RedriveOptions& options,
                          const char* what,
                          const crusader::sim::PulseTrace* pulses) {
      double best = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < kTwinReps; ++rep) {
        SpanLog twin;
        const Redriven red =
            redrive(specs[i], base_seed, &cache, &twin, options);
        ++failures.attempted;
        std::ostringstream row;
        runner::write_csv_row(row, red.result);
        if (row_digest(row.str()) != untraced_rows.at(i) ||
            (pulses != nullptr && !same_trace(red.trace, *pulses)))
          failures.fail(what, i, "the twin changed the row or the pulses",
                        specs);
        best = std::min(best, twin.total_s("sim", "run"));
      }
      return best;
    };
    RedriveOptions off;
    off.fast_path = false;
    RedriveOptions abstract;
    abstract.force_abstract = true;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].world == runner::WorldKind::kTheorem5) continue;
      const double on = twin_run_s(i, {}, "fast-path twin", nullptr);
      batch_on += on;
      batch_off += twin_run_s(i, off, "fast-path twin", nullptr);
      const auto real = tp.traces.find(i);
      if (real != tp.traces.end()) {
        crypto_real += on;
        crypto_abstract +=
            twin_run_s(i, abstract, "crypto twin", &real->second);
      }
    }
  }

  const bool any_real = std::any_of(
      specs.begin(), specs.end(), [](const ScenarioSpec& s) {
        return s.crypto == runner::CryptoMode::kReal &&
               s.world != runner::WorldKind::kTheorem5;
      });
  const auto clock = clock_probe(tp.max_horizon);
  const double cells = static_cast<double>(std::max<std::size_t>(tp.cells, 1));
  auto ns_per_event = [&](crusader::sim::DelayKind kind) {
    const auto it = tp.by_delay.find(kind);
    return it == tp.by_delay.end() || it->second.second == 0
               ? 0.0
               : it->second.first * 1e9 /
                     static_cast<double>(it->second.second);
  };
  double runner_self = 0.0;
  {
    const auto self = tp.log.self_s();
    for (std::size_t i = 0; i < tp.log.spans().size(); ++i)
      if (std::string_view(tp.log.spans()[i].op) == "cell")
        runner_self += self[i];
  }

  std::vector<Metric> metrics = {
      {"runner.expand_ms", tp.log.total_s("runner", "expand") * 1e3, "ms"},
      {"runner.self_us_per_cell", runner_self * 1e6 / cells, "us"},
      {"relay.topology_build_s",
       tp.log.total_s("relay.analysis", "topology_build"), "s"},
      {"relay.analysis_s", tp.log.total_s("relay.analysis", "analyze"), "s"},
      {"relay.analysis_calls",
       static_cast<double>(tp.log.count("relay.analysis", "analyze")),
       "count"},
      {"relay.cache_hit_ratio",
       tp.cache_lookups ? static_cast<double>(tp.cache_hits) /
                              static_cast<double>(tp.cache_lookups)
                        : 0.0,
       "ratio"},
      {"relay.schedule_s", tp.log.total_s("relay.schedule", "generate"), "s"},
      {"relay.schedule_deltas", static_cast<double>(tp.schedule_deltas),
       "count"},
      {"relay.search_candidates", static_cast<double>(tp.search_candidates),
       "count"},
      {"relay.search_useful_ratio",
       tp.search_cells ? static_cast<double>(tp.search_useful) /
                             static_cast<double>(tp.search_cells)
                       : 0.0,
       "ratio"},
      {"sim.world_build_s", tp.log.total_s("sim", "world_build"), "s"},
      {"sim.run_s", tp.log.total_s("sim", "run"), "s"},
      {"sim.events", static_cast<double>(tp.events), "count"},
      {"sim.messages", static_cast<double>(tp.messages), "count"},
      {"sim.ns_per_event.random",
       ns_per_event(crusader::sim::DelayKind::kRandom), "ns"},
      {"sim.ns_per_event.split",
       ns_per_event(crusader::sim::DelayKind::kSplit), "ns"},
      {"sim.batch_gain", batch_on > 0.0 ? batch_off / batch_on : 0.0,
       "ratio"},
      {"crypto.sign_ops", static_cast<double>(tp.sign_ops), "count"},
      {"crypto.verify_ops", static_cast<double>(tp.verify_ops), "count"},
      {"crypto.signatures_carried",
       static_cast<double>(tp.signatures_carried), "count"},
      {"crypto.share",
       crypto_real > 0.0 ? 1.0 - crypto_abstract / crypto_real : 0.0,
       "ratio"},
      {"crypto.verify_ns",
       verify_ns(any_real ? crusader::crypto::Pki::Kind::kSymbolic
                          : crusader::crypto::Pki::Kind::kAbstract),
       "ns"},
      {"crypto.sha256_mb_per_s", sha256_mb_per_s(), "MB/s"},
      {"clock.local_ns", clock.local_ns, "ns"},
      {"clock.real_ns", clock.real_ns, "ns"},
      {"queue.ns_per_op", queue_ns_per_op(tp.busiest_n), "ns"},
      {"protocol.setup_us",
       tp.log.total_s("protocol", "make_setup") * 1e6 / cells, "us"},
      {"grade.skews_s", tp.log.total_s("grade", "skews"), "s"},
      {"grade.local_s", tp.log.total_s("grade", "local"), "s"},
      {"grade.kllo_s", tp.log.total_s("grade", "kllo"), "s"},
      {"io.append_us_per_row",
       tp.log.total_s("io", "append") * 1e6 /
           cells,
       "us"},
      {"io.bytes", static_cast<double>(tp.io_bytes), "B"},
      {"io.checkpoints", static_cast<double>(tp.checkpoints), "count"},
      {"io.reconcile_s", tp.log.total_s("io", "reconcile"), "s"},
      {"lowerbound.run_s", tp.log.total_s("lowerbound", "run_theorem5"), "s"},
      {"trace.overhead_ratio",
       tp.wall_s / best_wall, "ratio"},
  };
  for (const char* layer : kLayers)
    metrics.push_back(
        {std::string("self_s.") + layer, tp.log.layer_self_s(layer), "s"});

  std::cout << "traced pass: " << tp.cells << " cells, " << tp.wall_s
            << " s traced vs " << best_wall << " s untraced (fastest pass); spans in " << trace_file << '\n';
  std::cout << "per-layer self time over the traced pass:\n";
  for (const char* layer : kLayers) {
    const double self = tp.log.layer_self_s(layer);
    std::cout << "  " << std::left << std::setw(16) << layer << std::right
              << std::setw(12) << std::setprecision(6) << self << " s  "
              << std::setw(6) << std::setprecision(3)
              << 100.0 * self / tp.wall_s << " %\n";
  }
  print_table("per-layer metrics (traced pass, twins and probes):", metrics,
              {});
  for (const auto& line : failures.reported)
    std::cout << "  FAILED " << line << '\n';
  if (failures.unreported)
    std::cout << "  ... and " << failures.unreported << " more\n";
  print_result(failures.failed == 0, failures.attempted, failures.failed,
               metrics);
  return failures.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload& workload = *find_workload(args.workload);
  try {
    if (args.record) return record_golden(args, workload);
    return run(args, workload);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
