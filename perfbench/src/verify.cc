#include "perfbench/src/verify.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "perfbench/src/trace.h"
#include "src/dnsv/incremental.h"
#include "src/dnsv/pipeline.h"
#include "src/smt/query_cache.h"
#include "src/store/store.h"

namespace pb {
namespace {

using dnsv::EngineVersion;
using dnsv::VerificationReport;

constexpr int kSetupRepeats = 7;  // per batch; one batch before each of the first rounds
constexpr size_t kBugHuntIssues = 4;
// Re-verifies of the edited zone per round, each from the same warmed store.
// On the reference host one re-verify varied by a fifth between rounds, and
// a median of three per run did not hold still.
constexpr int kEditRepeats = 3;

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double StageSeconds(const VerificationReport& report, const std::string& name) {
  for (const dnsv::StageStats& stage : report.stages) {
    if (stage.stage == name) {
      return stage.seconds;
    }
  }
  return 0;
}

// Mean of the values between the first and third quartiles. This host
// switches between speed states within milliseconds, so short timings are
// bimodal, and a median would jump between the modes from run to run.
double InterquartileMean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t lo = values.size() / 4;
  size_t hi = values.size() - lo;
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) {
    sum += values[i];
  }
  return hi > lo ? sum / static_cast<double>(hi - lo) : 0;
}

// The solver layering a run actually used, read from its counters: only the
// layered stacks consult a query cache or the pre-solver.
std::string Layering(const VerificationReport& report) {
  const dnsv::SolverStats& s = report.solver;
  if (s.presolver_discharges > 0) {
    return "cache+presolve";
  }
  return s.cache_hits + s.cache_misses > 0 ? "cache" : "direct";
}

// Share of the wall clock the stages do not account for; the two
// explorations may run in parallel, so they count as their maximum.
double StageResidual(const VerificationReport& report, double wall) {
  double covered = 0;
  double explore = 0;
  for (const dnsv::StageStats& stage : report.stages) {
    if (stage.stage.rfind("explore.", 0) == 0) {
      explore = report.explored_in_parallel ? std::max(explore, stage.seconds)
                                            : explore + stage.seconds;
    } else {
      covered += stage.seconds;
    }
  }
  return 1.0 - (covered + explore) / wall;
}

struct Timed {
  VerificationReport report;
  double seconds = 0;
};

Timed Run(EngineVersion version, const dnsv::ZoneConfig& zone, const dnsv::VerifyOptions& options,
          std::vector<Span>* spans, uint32_t request) {
  dnsv::VerifyContext context;  // a fresh context: compile and lift are paid every run
  int64_t t0 = NowNs();
  Timed out;
  out.report = dnsv::RunVerifyPipeline(&context, version, zone, options);
  int64_t t1 = NowNs();
  out.seconds = Seconds(t1 - t0);
  if (spans != nullptr) {
    // Stages from the report; the explorations overlap when run in parallel.
    spans->push_back({request, "dnsv.run_verify_pipeline", -1, t0, t1});
    int parent = static_cast<int>(spans->size()) - 1;
    int64_t at = t0;
    for (const dnsv::StageStats& stage : out.report.stages) {
      int64_t length = static_cast<int64_t>(stage.seconds * 1e9);
      bool overlaps = out.report.explored_in_parallel && stage.stage == "explore.spec";
      int64_t start = overlaps ? spans->back().start_ns : at;
      spans->push_back({request, stage.stage == "compile"          ? "frontend.compile"
                                 : stage.stage == "lift"           ? "dns.lift"
                                 : stage.stage == "explore.engine" ? "sym.explore_engine"
                                 : stage.stage == "explore.spec"   ? "sym.explore_spec"
                                 : stage.stage == "compare"        ? "dnsv.compare"
                                 : stage.stage == "confirm"        ? "dnsv.confirm"
                                                                   : "dnsv.other_stage",
                        parent, start, start + length});
      at = std::max(at, start + length);
    }
  }
  return out;
}

}  // namespace

bool RunVerify(const VerifyArgs& args, Record* record) {
  std::vector<dnsv::ZoneConfig> zones;
  for (const std::string& path : {args.zone, args.edited, args.bughunt}) {
    dnsv::Result<dnsv::ZoneConfig> zone = LoadZone(path);
    if (!zone.ok()) {
      std::fprintf(stderr, "%s\n", zone.error().c_str());
      return false;
    }
    zones.push_back(std::move(zone).value());
  }
  const dnsv::ZoneConfig& kitchen = zones[0];
  const dnsv::ZoneConfig& edited = zones[1];
  const dnsv::ZoneConfig& bughunt = zones[2];
  std::vector<Span> spans;
  std::vector<Span>* traced = args.trace ? &spans : nullptr;
  uint32_t request = 0;

  // setup_s: compile + lift on a fresh context, in batches spread over the
  // run (one before each of the first rounds).
  std::vector<double> setup, compile_ms, lift_ms;
  auto time_setup = [&] {
    for (int i = 0; i < kSetupRepeats; ++i) {
      dnsv::VerifyContext context;
      int64_t t0 = NowNs();
      context.GetEngine(EngineVersion::kGolden);
      int64_t t1 = NowNs();
      dnsv::Result<std::shared_ptr<const dnsv::LiftedZone>> lifted =
          context.GetLiftedZone(EngineVersion::kGolden, kitchen);
      int64_t t2 = NowNs();
      if (!lifted.ok()) {
        record->Fail("lift failed: " + lifted.error());
      }
      setup.push_back(Seconds(t2 - t0));
      compile_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      lift_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    }
  };

  dnsv::VerifyOptions options;  // verify_zone's options
  options.use_summaries = true;
  options.store_mode = dnsv::StoreMode::kOff;

  // Case (c)'s oracle: a cold run of the edited zone with no store.
  std::string cold_edited;
  {
    dnsv::QueryCache cache;
    dnsv::VerifyOptions cold = options;
    cold.solver.layering = dnsv::SolverLayering::kCachePresolve;
    cold.solver.cache = &cache;
    Timed run = Run(EngineVersion::kGolden, edited, cold, nullptr, 0);
    if (!run.report.verified) {
      record->Fail("cold run of the edited zone did not verify");
    }
    cold_edited = dnsv::NormalizedReportText(run.report);
  }

  std::vector<double> clean_s, bug_s, edit_s, replay_ms, round_s;
  std::vector<double> explore_engine, explore_spec, compare, confirm, residual, overhead;
  std::vector<double> smt_queries, smt_z3, smt_solve;
  VerificationReport last_clean, last_edit;
  std::string bug_text;
  int64_t engine_paths = -1, spec_paths = -1;
  int64_t t_start = NowNs();
  int rounds = 0;
  while (rounds < args.min_rounds || Seconds(NowNs() - t_start) < args.seconds) {
    if (rounds < 3) {
      time_setup();
    }
    int64_t round_start = NowNs();
    // (a) golden x kitchen-sink: must verify.
    Timed a = Run(EngineVersion::kGolden, kitchen, options, traced, request++);
    ++record->attempted;
    if (!a.report.verified || a.report.aborted || !a.report.issues.empty()) {
      record->Fail("golden x kitchen-sink did not verify");
    }
    if (engine_paths >= 0 &&
        (engine_paths != a.report.engine_paths || spec_paths != a.report.spec_paths)) {
      record->Fail("path counts changed between identical runs");
    }
    engine_paths = a.report.engine_paths;
    spec_paths = a.report.spec_paths;
    clean_s.push_back(a.seconds);
    explore_engine.push_back(StageSeconds(a.report, "explore.engine"));
    explore_spec.push_back(StageSeconds(a.report, "explore.spec"));
    compare.push_back(StageSeconds(a.report, "compare"));
    residual.push_back(StageResidual(a.report, a.seconds));
    overhead.push_back(a.seconds / a.report.total_seconds - 1.0);
    smt_queries.push_back(static_cast<double>(a.report.solver.queries));
    smt_z3.push_back(static_cast<double>(a.report.solver.z3_checks));
    smt_solve.push_back(a.report.solver.solve_seconds);
    last_clean = std::move(a.report);

    // (b) v2.0 x bug-hunt: the four known issues, each confirmed on the
    // interpreter and visible on the wire, the same on every run.
    Timed b = Run(EngineVersion::kV2, bughunt, options, traced, request++);
    ++record->attempted;
    bool confirmed = b.report.issues.size() == kBugHuntIssues && !b.report.aborted;
    for (const dnsv::VerificationIssue& issue : b.report.issues) {
      confirmed = confirmed && issue.confirmed && issue.wire.reproduced;
    }
    std::string text = dnsv::NormalizedReportText(b.report);
    if (!confirmed || b.report.verified || (!bug_text.empty() && text != bug_text)) {
      record->Fail("v2.0 x bug-hunt did not report its 4 confirmed issues");
    }
    bug_text = text;
    bug_s.push_back(b.seconds);
    confirm.push_back(StageSeconds(b.report, "confirm"));
    record->info["layering.bug"] = Layering(b.report);

    // (c) a fresh store warmed by kitchen-sink; then, as a new process would
    // see it (the store on disk, an empty query cache that loads the
    // persisted entries), the edited zone, kEditRepeats times from the same
    // warmed copy; then the unchanged zone again, replayed from the store.
    std::filesystem::path root(args.store_root);
    std::filesystem::path dir = root / ("store-" + std::to_string(rounds));
    std::filesystem::path warmed = root / ("warmed-" + std::to_string(rounds));
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(warmed);
    dnsv::VerifyOptions stored = options;
    stored.store_mode = dnsv::StoreMode::kAuto;
    {
      dnsv::ArtifactStore store(dir.string());
      dnsv::QueryCache cache;  // per round, so no round starts warm
      stored.store = &store;
      stored.solver.cache = &cache;
      Timed warm = Run(EngineVersion::kGolden, kitchen, stored, nullptr, 0);
      if (!warm.report.verified) {
        record->Fail("golden x kitchen-sink did not verify with a store");
      }
    }
    std::filesystem::copy(dir, warmed, std::filesystem::copy_options::recursive);
    for (int repeat = 0; repeat < kEditRepeats; ++repeat) {
      std::filesystem::remove_all(dir);
      std::filesystem::copy(warmed, dir, std::filesystem::copy_options::recursive);
      dnsv::ArtifactStore store(dir.string());
      dnsv::QueryCache cache;
      stored.store = &store;
      stored.solver.cache = &cache;
      Timed edit = Run(EngineVersion::kGolden, edited, stored, traced, request++);
      ++record->attempted;
      if (!edit.report.verified || edit.report.incremental.replayed ||
          dnsv::NormalizedReportText(edit.report) != cold_edited) {
        record->Fail("re-verify of the edited zone differs from a cold run");
      }
      edit_s.push_back(edit.seconds);
      record->info["layering.edit"] = Layering(edit.report);
      last_edit = std::move(edit.report);
      if (repeat + 1 == kEditRepeats) {
        Timed replay = Run(EngineVersion::kGolden, kitchen, stored, traced, request++);
        ++record->attempted;
        if (!replay.report.verified || !replay.report.incremental.replayed) {
          record->Fail("re-verify of the unchanged zone was not replayed");
        }
        replay_ms.push_back(replay.seconds * 1e3);
      }
    }
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(warmed);
    round_s.push_back(Seconds(NowNs() - round_start));
    ++rounds;
  }
  record->info["layering.clean"] = Layering(last_clean);
  record->info["rounds"] = std::to_string(rounds);
  record->info["verify_clean_s"] = std::to_string(Median(clean_s));
  record->info["verify_bug_s"] = std::to_string(Median(bug_s));
  record->info["reverify_edit_s"] = std::to_string(Median(edit_s));
  record->info["round_s"] = JoinValues(round_s);
  record->info["edit_s"] = JoinValues(edit_s);

  // One op of the verify workload is a round: the three cases back to
  // back, as a release gate would run them.
  double total = 0;
  for (double r : round_s) {
    total += r;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  record->metrics["ops_per_s"] = static_cast<double>(round_s.size()) / total;
  record->metrics["op_p50_ms"] = Median(round_s) * 1e3;
  record->metrics["update_ms"] = Median(edit_s) * 1e3;
  record->metrics["setup_s"] = InterquartileMean(setup);
  record->metrics["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;

  if (args.trace) {
    const dnsv::SolverStats& edit_solver = last_edit.solver;
    double edit_queries = static_cast<double>(std::max<int64_t>(edit_solver.queries, 1));
    record->metrics["frontend.compile_ms"] = InterquartileMean(compile_ms);
    record->metrics["dns.lift_ms"] = InterquartileMean(lift_ms);
    record->metrics["sym.explore_engine_s"] = Median(explore_engine);
    record->metrics["sym.explore_spec_s"] = Median(explore_spec);
    record->metrics["sym.engine_paths"] = static_cast<double>(engine_paths);
    record->metrics["sym.spec_paths"] = static_cast<double>(spec_paths);
    record->metrics["dnsv.compare_s"] = Median(compare);
    record->metrics["dnsv.confirm_s"] = Median(confirm);
    record->metrics["dnsv.stage_residual"] = Median(residual);
    record->metrics["dnsv.verify_clean_s"] = Median(clean_s);
    record->metrics["dnsv.verify_bug_s"] = Median(bug_s);
    record->metrics["dnsv.reverify_edit_s"] = Median(edit_s);
    record->metrics["smt.queries"] = Median(smt_queries);
    record->metrics["smt.z3_checks"] = Median(smt_z3);
    record->metrics["smt.solve_s"] = Median(smt_solve);
    record->metrics["smt.presolve_ratio"] =
        static_cast<double>(edit_solver.presolver_discharges) / edit_queries;
    record->metrics["smt.cache_hit_ratio"] = static_cast<double>(edit_solver.cache_hits) / edit_queries;
    record->metrics["store.layers_reused"] = static_cast<double>(last_edit.incremental.layers_reused);
    record->metrics["store.functions_reused"] =
        static_cast<double>(last_edit.incremental.functions_reused);
    record->metrics["store.replay_ms"] = Median(replay_ms);
    record->metrics["trace.overhead_frac"] = Median(overhead);
    record->info["store.layers_total"] = std::to_string(last_edit.incremental.layers_total);
    record->info["store.functions_total"] = std::to_string(last_edit.incremental.functions_total);
    record->info["smt.edit_queries"] = std::to_string(edit_solver.queries);
    record->info["valid"] = "true";
    if (std::abs(Median(residual)) > 0.10) {
      record->Invalidate("verify stages account for the wall clock only to within " +
                         std::to_string(Median(residual)));
    }
    if (!WriteSpans(args.spans, spans)) {
      std::fprintf(stderr, "cannot write spans to %s\n", args.spans.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace pb
