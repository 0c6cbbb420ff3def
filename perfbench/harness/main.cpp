// Serving benchmark harness: sets up one workload's deployment, drives it
// with a closed-loop saturation phase and an open-loop paced phase, checks
// every answer, and prints a report whose last line is the JSON result.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--artifacts <dir>] [--work-dir <dir>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 adds a traced
// saturation round and prints the per-layer metrics instead. Exit status is
// 0 only when every correctness, coverage and trace gate passed.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "nn/gemm.hpp"
#include "report.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace {

using namespace pb;
using einet::runtime::InferenceOutcome;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string artifacts = "artifacts";
  std::string work_dir = ".";
};

// Set-ups per run (setup_s is their median): at least kMinSetups, more
// while their total stays under kSetupBudgetS, at most kMaxSetups.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 15;
constexpr double kSetupBudgetS = 2.0;
// The evaluation list is the same on every run: --seed orders it and times
// the arrivals, so accuracy and failed_ratio are identical across seeds.
constexpr std::uint64_t kEvalSeed = 0xE1E7;
// Saturation pieces per evaluation round, and paced-phase windows.
constexpr std::size_t kChunks = 8;
// Saturation segments (fresh server each).
constexpr std::size_t kSegments = 4;
constexpr std::size_t kWindows = 30;
// Per-thread trace ring for the traced round (events).
constexpr std::size_t kTraceRing = std::size_t{1} << 18;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--artifacts <dir>] [--work-dir <dir>]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        a.workload = v;
        have_workload = true;
        used = v.size();
      } else if (flag == "--seed") {
        a.seed = std::stoull(v, &used);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v, &used);
        if (!(a.seconds > 0.0 && a.seconds <= 600.0)) used = 0;
      } else if (flag == "--trace") {
        used = (v == "0" || v == "1") ? 1 : 0;
        a.trace = v == "1";
      } else if (flag == "--artifacts") {
        a.artifacts = v;
        used = v.size();
      } else if (flag == "--work-dir") {
        a.work_dir = v;
        used = v.size();
      } else {
        usage("unknown flag " + flag);
      }
      if (used != v.size()) usage("bad value for " + flag + ": " + v);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

/// The fixed evaluation list: every input with `per_item` deadlines drawn
/// from the serving budget mix (60% in [0, 0.4]·T, 40% in [0.4, 1.6]·T).
std::vector<Request> eval_list(std::size_t items, std::size_t per_item,
                               double horizon_ms) {
  einet::util::Rng rng{kEvalSeed};
  std::vector<Request> list;
  for (std::size_t p = 0; p < per_item; ++p)
    for (std::size_t i = 0; i < items; ++i) {
      const double d = rng.bernoulli(0.6)
                           ? rng.uniform(0.0, 0.4 * horizon_ms)
                           : rng.uniform(0.4 * horizon_ms, 1.6 * horizon_ms);
      list.push_back({.key = list.size(), .item = i, .deadline_ms = d});
    }
  return list;
}

bool same_outcome(const InferenceOutcome& a, const InferenceOutcome& b) {
  // planner_ms is wall-clock telemetry and excluded.
  return a.has_result == b.has_result && a.exit_index == b.exit_index &&
         a.correct == b.correct && a.result_time_ms == b.result_time_ms &&
         a.branches_executed == b.branches_executed &&
         a.searches_run == b.searches_run && a.completed == b.completed;
}

struct Gates {
  std::vector<std::string> failures;
  void check(bool ok, const std::string& what) {
    std::cout << "gate  " << (ok ? "ok    " : "FAILED") << "  " << what
              << "\n";
    if (!ok) failures.push_back(what);
  }
};

/// Time and process CPU when the closed loop asked for its next piece.
struct Mark {
  double t_us = 0.0;
  double cpu_s = 0.0;
  HostTicks ticks;
  std::size_t issued = 0;  // requests handed out before this mark
};

struct PhaseRun {
  std::string name;
  Phase phase;
  ServerReport server;
};

std::size_t count_fate(const Phase& p, Fate f) {
  std::size_t n = 0;
  for (const Answer& a : p.answers) n += a.fate == f;
  return n;
}

/// CPU placement: the load generator runs alone on the first allowed CPU;
/// the program's threads, created while the main thread is restricted to
/// the others, inherit the rest. This keeps the guest scheduler from
/// time-slicing the generator with the workers.
struct Placement {
  std::vector<int> generator;
  std::vector<int> program;
};

Placement placement() {
  Placement p;
  p.program = allowed_cpus();
  if (p.program.size() >= 2) {
    p.generator = {p.program.front()};
    p.program.erase(p.program.begin());
  } else {
    p.generator = p.program;
  }
  return p;
}

/// Drive one phase through a fresh server; `drive` runs the load on the
/// generator's CPU.
template <typename Drive>
PhaseRun run_phase(Workload& w, const Placement& cpus, const std::string& name,
                   Drive drive) {
  PhaseRun r;
  r.name = name;
  LoadTarget& target = w.start_server();
  set_thread_cpus(cpus.generator);
  drive(target, r.phase);
  set_thread_cpus(cpus.program);
  r.server = w.stop_server();
  return r;
}

/// Lifecycle, wire and reconciliation gates for one finished phase.
void check_phase(const PhaseRun& r, Gates& g) {
  const Phase& p = r.phase;
  const auto& s = r.server.snap;
  const std::size_t sent = p.answers.size();
  const std::size_t answered = count_fate(p, Fate::kAnswered);
  const std::size_t shed = count_fate(p, Fate::kShed);
  const std::size_t rejected = count_fate(p, Fate::kRejected);
  const std::string tag = r.name + ": ";
  g.check(p.transport_errors == 0 && count_fate(p, Fate::kError) == 0 &&
              count_fate(p, Fate::kPending) == 0,
          tag + "no transport errors and no lost responses");
  g.check(sent == answered + shed + rejected,
          tag + "sent == answered + shed + rejected");
  g.check(rejected == 0, tag + "no request rejected");
  g.check(s.submitted == sent && s.completed == answered && s.shed == shed &&
              s.rejected == rejected &&
              s.submitted == s.admitted + s.shed + s.rejected &&
              s.admitted == s.completed,
          tag + "server lifecycle counters match the harness");
  if (r.server.has_net) {
    const auto& n = r.server.net;
    g.check(n.protocol_errors == 0 && n.dropped_responses == 0 &&
                n.requests == sent && n.responses == sent,
            tag + "wire: every request framed and answered, no protocol error");
  }
  if (s.completed > 0) {
    const double stages = s.stage_admission.stats.mean() +
                          s.stage_queue.stats.mean() +
                          s.stage_assembler.stats.mean() +
                          s.stage_exec.stats.mean();
    const double e2e = s.end_to_end.stats.mean();
    g.check(std::abs(stages - e2e) <= std::max(0.5, 0.05 * e2e),
            tag + "stage means reconcile with end-to-end mean");
  }
}

double safe_div(double a, double b) { return b > 0.0 ? a / b : 0.0; }

int run(const Args& args) {
  const auto workload =
      make_workload(args.workload, args.artifacts, args.work_dir);
  Workload& w = *workload;
  const WorkloadConfig& cfg = w.config();
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  const ThreadBudget& b = cfg.budget;
  std::cout << "workload " << cfg.name << "  seed " << args.seed
            << "  seconds " << args.seconds << "  trace " << args.trace
            << "\nthreads  workers " << b.workers << " x gemm "
            << b.gemm_threads << " + program " << b.program_threads
            << " + generator " << b.generator << " = " << b.busy()
            << " busy of nproc " << nproc << "\n";
  if (b.busy() > nproc) {
    std::cerr << "perfbench: workload " << cfg.name << " needs " << b.busy()
              << " busy threads but nproc is " << nproc << "; refusing\n";
    return 2;
  }
  if (args.trace)
    einet::obs::Tracer::instance().set_ring_capacity(kTraceRing);
  const HostTicks ticks0 = read_host_ticks();

  // ---- Fixture and set-up -------------------------------------------------
  const double fixture_s = w.prepare(nproc);
  const Placement cpus = placement();
  set_thread_cpus(cpus.program);
  einet::nn::set_gemm_threads(b.gemm_threads);
  std::vector<SetupTimes> setups;
  double setup_total_s = 0.0;
  // Set-ups rotate over the program CPUs, so their median does not hinge on
  // how fast one vCPU happens to be.
  while (setups.size() < kMinSetups ||
         (setup_total_s < kSetupBudgetS && setups.size() < kMaxSetups)) {
    set_thread_cpus({cpus.program[setups.size() % cpus.program.size()]});
    setups.push_back(w.setup());
    setup_total_s += setups.back().total();
  }
  set_thread_cpus(cpus.program);
  const auto setup_median = [&setups](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return median(v);
  };
  std::vector<double> setup_totals;
  for (const SetupTimes& s : setups) setup_totals.push_back(s.total());
  const double setup_s = median(setup_totals);
  std::cout << "setup   fixture " << fixture_s << " s (not gated), median of "
            << setups.size() << " set-ups " << setup_s << " s\n";

  // ---- Evaluation list and references ------------------------------------
  const std::vector<Request> eval =
      eval_list(w.num_items(), cfg.deadlines_per_item, w.horizon_ms());
  std::map<std::size_t, InferenceOutcome> reference;
  for (const Request& r : eval)
    if (r.key % cfg.ref_stride == 0) reference[r.key] = w.reference(r);

  einet::util::Rng order{args.seed};
  const auto permuted = [&eval, &order] {
    std::vector<Request> round = eval;
    order.shuffle(round);
    return round;
  };
  // Saturation runs a fixed number of rounds of the evaluation list. It
  // hands the closed loop each round in kChunks pieces and marks time and
  // process CPU between pieces; rates are taken per piece and summarised by
  // their median, so a host stall spoils one piece, not the run.
  const auto saturation = [&](std::size_t max_rounds,
                              std::vector<Mark>& marks) {
    return [&, max_rounds](LoadTarget& t, Phase& p) {
      std::size_t rounds = 0;
      std::vector<Request> round;
      std::size_t chunk = 0;
      std::size_t issued = 0;
      t.closed(
          [&] {
            marks.push_back(
                {now_us(), process_cpu_s(), read_host_ticks(), issued});
            if (chunk == kChunks) {
              if (rounds == max_rounds) return std::vector<Request>{};
              chunk = 0;
            }
            if (chunk == 0) {
              round = permuted();
              ++rounds;
            }
            const std::size_t lo = round.size() * chunk / kChunks;
            const std::size_t hi = round.size() * ++chunk / kChunks;
            issued += hi - lo;
            return std::vector<Request>(round.begin() + lo, round.begin() + hi);
          },
          cfg.window, p);
    };
  };

  // ---- Phases -------------------------------------------------------------
  std::vector<PhaseRun> runs;
  // Two thirds of the run saturate (the gated rates), one third is paced.
  const double sat_s = args.seconds * 2.0 / 3.0;
  const double paced_s = args.seconds / 3.0;
  // Whole rounds of the evaluation list that take about `seconds` at `rps`.
  const auto rounds_for = [&eval](double seconds, double rps) {
    return static_cast<std::size_t>(std::max<long>(
        1, std::lround(seconds * rps / static_cast<double>(eval.size()))));
  };
  // Saturation runs in segments, each through a fresh server whose threads
  // the scheduler places anew: which vCPUs (and, unseen, which host cores)
  // the workers share moves CPU time per request by up to 30%, and pooling
  // the pieces of several placements keeps one placement from deciding the
  // run.
  const std::size_t seg_rounds = std::max<std::size_t>(
      1, rounds_for(sat_s, cfg.nominal_rps) / kSegments);
  const std::size_t sat_rounds = seg_rounds * kSegments;
  std::vector<std::vector<Mark>> sat_marks(kSegments);
  for (std::size_t seg = 0; seg < kSegments; ++seg) {
    runs.push_back(run_phase(w, cpus, "saturation " + std::to_string(seg + 1),
                             saturation(seg_rounds, sat_marks[seg])));
  }
  std::vector<Mark> traced_marks;
  std::optional<einet::obs::TraceReport> trace;
  if (args.trace) {
    auto& tracer = einet::obs::Tracer::instance();
    tracer.clear();
    tracer.set_enabled(true);
    runs.push_back(run_phase(w, cpus, "traced", saturation(1, traced_marks)));
    tracer.set_enabled(false);
    trace = tracer.collect();
  }
  const std::size_t passes = rounds_for(paced_s, cfg.paced_rps);
  std::vector<Request> paced_reqs;
  std::vector<double> offsets;
  double t_off = 0.0;
  for (std::size_t p = 0; p < passes; ++p)
    for (const Request& r : permuted()) {
      paced_reqs.push_back(r);
      t_off += -std::log(1.0 - order.uniform()) * 1e6 / cfg.paced_rps;
      offsets.push_back(t_off);
    }
  runs.push_back(run_phase(w, cpus, "paced", [&](LoadTarget& t, Phase& p) {
    t.open(paced_reqs, offsets, p);
  }));
  const HostTicks ticks1 = read_host_ticks();
  const PhaseRun& paced = runs.back();

  // ---- Correctness gates --------------------------------------------------
  Gates g;
  for (const PhaseRun& r : runs) check_phase(r, g);
  std::size_t ref_checked = 0, ref_mismatch = 0, det_mismatch = 0;
  std::vector<std::optional<InferenceOutcome>> first(eval.size());
  std::uint64_t sent = 0, errors = 0, with_result = 0, correct = 0;
  for (const PhaseRun& r : runs)
    for (const Answer& a : r.phase.answers) {
      ++sent;
      errors += a.fate == Fate::kError || a.fate == Fate::kPending ||
                a.fate == Fate::kRejected;
      const bool answered = a.fate == Fate::kAnswered;
      with_result += answered && a.outcome.has_result;
      correct += answered && a.outcome.has_result && a.outcome.correct;
      if (!answered && a.fate != Fate::kShed) continue;
      if (const auto it = reference.find(a.req.key); it != reference.end()) {
        ++ref_checked;
        const bool ok = answered ? same_outcome(a.outcome, it->second)
                                 : !it->second.has_result;
        ref_mismatch += !ok;
      }
      if (answered) {
        auto& f = first[a.req.key];
        if (!f) f = a.outcome;
        det_mismatch += !same_outcome(*f, a.outcome);
      }
    }
  g.check(ref_checked > 0 && ref_mismatch == 0,
          "reference check: " + std::to_string(ref_checked) +
              " sampled answers equal a single-threaded run (" +
              std::to_string(ref_mismatch) + " differ)");
  g.check(det_mismatch == 0,
          "every repeat of an evaluation key gives the same outcome");

  // Coverage: each workload must exercise the layers it is meant to.
  const auto& ps = paced.server.snap;
  std::uint64_t batches = 0, net_frames = 0, quant_int8 = 0, quant_fp32 = 0,
                quant_fallbacks = 0, net_errors = 0;
  for (const PhaseRun& r : runs) {
    batches += r.server.snap.batches;
    quant_int8 += r.server.snap.quant_int8;
    quant_fp32 += r.server.snap.quant_fp32;
    quant_fallbacks += r.server.snap.quant_fallbacks;
    net_errors += r.phase.transport_errors;
    if (r.server.has_net) {
      net_frames += r.server.net.frames_in;
      net_errors += r.server.net.protocol_errors + r.server.net.dropped_responses;
    }
  }
  const double int8_ratio =
      safe_div(static_cast<double>(quant_int8),
               static_cast<double>(quant_int8 + quant_fp32));
  const DeploymentFacts facts = w.facts();
  std::map<std::string, SpanStats> spans;
  if (trace)
    spans = analyze_spans(
        *trace, {"runtime.run", "runtime.live_run", "runtime.batched_run"});
  if (cfg.name == "replay-tcp") {
    g.check(net_frames > 0, "coverage: requests travel as net frames");
    g.check(batches == 0, "coverage: no micro-batches");
    if (trace)
      g.check(spans.count("runtime.conv") == 0,
              "coverage: no runtime.conv spans (no nn trunk)");
  } else if (cfg.name == "live-batch") {
    g.check(ps.batch_size.stats.mean() > 1.0,
            "coverage: paced batches hold more than one request on average");
    g.check(net_frames == 0, "coverage: no net frames");
  } else if (cfg.name == "live-int8") {
    g.check(int8_ratio == 1.0, "coverage: every task served by the int8 trunk");
    g.check(batches == 0, "coverage: no micro-batches");
    g.check(facts.scratch_overflows == 0,
            "coverage: no arena scratch overflows");
  }
  if (trace)
    g.check(trace->total_dropped == 0,
            "trace: no dropped events (" +
                std::to_string(trace->total_emitted) + " recorded)");

  // ---- End-to-end metrics -------------------------------------------------
  // Piece rates (requests/s) and CPU per request (ms). A piece's wall time
  // is counted net of the share the hypervisor stole from the VM's CPUs
  // meanwhile (/proc/stat), which the program cannot use.
  std::vector<double> piece_rps, piece_cpu_ms;
  const auto add_pieces = [&piece_rps, &piece_cpu_ms](
                              const std::vector<Mark>& marks) {
    for (std::size_t i = 1; i < marks.size(); ++i) {
      const auto n = static_cast<double>(marks[i].issued - marks[i - 1].issued);
      const double wall_s = (marks[i].t_us - marks[i - 1].t_us) * 1e-6;
      const double own =
          1.0 - steal_ratio(marks[i - 1].ticks, marks[i].ticks);
      piece_rps.push_back(n / (wall_s * own));
      piece_cpu_ms.push_back((marks[i].cpu_s - marks[i - 1].cpu_s) * 1e3 / n);
    }
  };
  for (const auto& marks : sat_marks) add_pieces(marks);
  const double throughput = median(piece_rps);
  const double cpu_ms = median(piece_cpu_ms);
  std::size_t sat_done = 0;
  double sat_batch_fill = 0.0;
  for (std::size_t seg = 0; seg < kSegments; ++seg) {
    sat_done += runs[seg].phase.answers.size();
    sat_batch_fill += runs[seg].server.snap.batch_size.stats.mean() / kSegments;
  }
  std::vector<double> latency_ms, late_ms, window_p50, window_p90;
  const std::size_t n_paced = paced.phase.answers.size();
  for (std::size_t wdx = 0; wdx < kWindows; ++wdx) {
    std::vector<double> lat;
    for (std::size_t i = n_paced * wdx / kWindows;
         i < n_paced * (wdx + 1) / kWindows; ++i) {
      const Answer& a = paced.phase.answers[i];
      late_ms.push_back((a.sent_us - a.due_us) * 1e-3);
      if (a.fate == Fate::kAnswered)
        lat.push_back((a.done_us - a.due_us) * 1e-3);
    }
    window_p50.push_back(quantile(lat, 0.5));
    window_p90.push_back(quantile(lat, 0.9));
    latency_ms.insert(latency_ms.end(), lat.begin(), lat.end());
  }
  const double accuracy = safe_div(static_cast<double>(correct),
                                   static_cast<double>(sent));
  const double failed_ratio = safe_div(static_cast<double>(sent - with_result),
                                       static_cast<double>(sent));
  const double steal = steal_ratio(ticks0, ticks1);
  std::cout << "phase   saturation: " << sat_done << " requests in "
            << sat_rounds << " rounds in " << kSegments
            << " segments, window " << cfg.window << ", mean batch "
            << sat_batch_fill << "\nphase   paced: " << paced.phase.answers.size()
            << " requests at " << cfg.paced_rps << " rps (" << passes
            << " passes of " << eval.size() << ")\n"
            << "diag    host.steal_ratio " << steal << "  load.late_ms p99 "
            << quantile(late_ms, 0.99) << " max " << quantile(late_ms, 1.0)
            << "\nlatency p50 " << median(window_p50) << " ms  p90 "
            << median(window_p90) << " ms (medians over " << kWindows
            << " windows)  p99 " << quantile(latency_ms, 0.99) << " ms over "
            << latency_ms.size() << " samples (not gated)\n";
  // Where paced latency goes: generator lateness, send-to-answer time, and
  // the server's own stage view.
  std::vector<double> service_ms;
  for (const Answer& a : paced.phase.answers)
    if (a.fate == Fate::kAnswered)
      service_ms.push_back((a.done_us - a.sent_us) * 1e-3);
  std::cout << "diag    paced late_ms p50 " << quantile(late_ms, 0.5) << " p90 "
            << quantile(late_ms, 0.9) << "  sent->answer p50 "
            << quantile(service_ms, 0.5) << " p90 "
            << quantile(service_ms, 0.9) << "  server e2e p50 "
            << ps.end_to_end.p50_ms << " p95 " << ps.end_to_end.p95_ms
            << "  queue p50 " << ps.stage_queue.p50_ms << "  exec p50 "
            << ps.stage_exec.p50_ms << " p95 " << ps.stage_exec.p95_ms << "\n";

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", "s", setup_s},
        {"throughput_rps", "1/s", throughput},
        {"cpu_ms_per_req", "ms", cpu_ms},
        {"accuracy", "ratio", accuracy},
        {"failed_ratio", "ratio", failed_ratio},
        {"rss_mb", "MiB", peak_rss_mb()},
    };
  } else {
    const PhaseRun& traced = runs[kSegments];
    const double executed =
        static_cast<double>(count_fate(traced.phase, Fate::kAnswered));
    double planner_ms = 0.0, branches = 0.0, searches = 0.0;
    for (const Answer& a : traced.phase.answers)
      if (a.fate == Fate::kAnswered) planner_ms += a.outcome.planner_ms;
    // Outcome shape over every executed answer of the run.
    double executed_all = 0.0, completed = 0.0, exit_sum = 0.0, exits = 0.0;
    for (const PhaseRun& r : runs)
      for (const Answer& a : r.phase.answers) {
        if (a.fate != Fate::kAnswered) continue;
        ++executed_all;
        branches += static_cast<double>(a.outcome.branches_executed);
        searches += static_cast<double>(a.outcome.searches_run);
        completed += a.outcome.completed;
        if (a.outcome.has_result) {
          exit_sum += static_cast<double>(a.outcome.exit_index);
          ++exits;
        }
      }
    const auto sp = [&spans](const char* name) -> const SpanStats& {
      static const SpanStats kNone;
      const auto it = spans.find(name);
      return it == spans.end() ? kNone : it->second;
    };
    std::vector<double> predict_us = sp("predictor.predict").durations_us;
    for (double d : sp("predictor.cache_predict").durations_us)
      predict_us.push_back(d);
    const double predict_calls =
        static_cast<double>(sp("predictor.predict").count +
                            sp("predictor.cache_predict").count);
    piece_rps.clear();
    add_pieces(traced_marks);
    const double traced_rps = median(piece_rps);
    const bool tcp = paced.server.has_net;
    const double submit_us =
        tcp ? ps.stage_admission.p50_ms * 1e3
            : quantile(sp("bench.submit").durations_us, 0.5);
    const double stage_sum =
        ps.stage_admission.stats.mean() + ps.stage_queue.stats.mean() +
        ps.stage_assembler.stats.mean() + ps.stage_exec.stats.mean();
    const double net_requests = static_cast<double>(paced.server.net.requests);
    metrics = {
        {"core.search_ms_per_req", "ms",
         safe_div(sp("search").total_us * 1e-3, executed)},
        {"core.search_us_per_search", "us",
         safe_div(sp("search").total_us, static_cast<double>(sp("search").count))},
        {"core.search_share", "ratio",
         safe_div(planner_ms, sp("bench.run").total_us * 1e-3)},
        {"predictor.predict_us.p50", "us", quantile(predict_us, 0.5)},
        {"predictor.calls_per_req", "count", safe_div(predict_calls, executed)},
        {"net.encode_us.mean", "us", mean(sp("bench.encode").durations_us)},
        {"net.decode_us.mean", "us", mean(sp("bench.decode").durations_us)},
        {"net.bytes_per_req", "B",
         safe_div(static_cast<double>(paced.server.net.bytes_in +
                                      paced.server.net.bytes_out),
                  net_requests)},
        {"net.respond_ms.p50", "ms", ps.stage_respond.p50_ms},
        {"net.errors", "count", static_cast<double>(net_errors)},
        {"serving.submit_us.p50", "us", submit_us},
        {"serving.queue_ms.p50", "ms", quantile(paced.server.queue_ms, 0.5)},
        {"serving.queue_ms.p90", "ms", quantile(paced.server.queue_ms, 0.9)},
        {"serving.exec_ms.p50", "ms", ps.stage_exec.p50_ms},
        {"serving.e2e_ms.p50", "ms", ps.end_to_end.p50_ms},
        {"serving.stage_gap_ms", "ms",
         std::abs(stage_sum - ps.end_to_end.stats.mean())},
        {"serving.queue_peak_depth", "count",
         static_cast<double>(ps.queue_peak_depth)},
        {"serving.shed", "count", static_cast<double>(ps.shed)},
        {"serving.rejected", "count", static_cast<double>(ps.rejected)},
        {"batch.count", "count", static_cast<double>(ps.batches)},
        {"batch.size.mean", "count", ps.batch_size.stats.mean()},
        {"batch.fill_ratio", "ratio",
         cfg.max_batch ? ps.batch_size.stats.mean() /
                             static_cast<double>(cfg.max_batch)
                       : 0.0},
        {"batch.assembler_ms.p50", "ms", ps.assembler_wait.p50_ms},
        {"batch.bypassed_ratio", "ratio",
         safe_div(static_cast<double>(ps.bypassed),
                  static_cast<double>(ps.batches))},
        {"runtime.run_ms.p50", "ms",
         quantile(sp("bench.run").durations_us, 0.5) * 1e-3},
        {"runtime.run_ms_per_req", "ms",
         safe_div(sp("bench.run").total_us * 1e-3, executed)},
        {"runtime.self_ms_per_req", "ms",
         safe_div(sp("bench.run").self_us * 1e-3, executed)},
        {"runtime.branches_per_req", "count", safe_div(branches, executed_all)},
        {"runtime.searches_per_req", "count", safe_div(searches, executed_all)},
        {"runtime.exit_index.mean", "index", safe_div(exit_sum, exits)},
        {"runtime.completed_ratio", "ratio", safe_div(completed, executed_all)},
        {"runtime.answered_ratio", "ratio",
         safe_div(static_cast<double>(with_result), static_cast<double>(sent))},
        {"nn.conv_ms_per_req", "ms",
         safe_div(sp("runtime.conv").total_us * 1e-3, executed)},
        {"nn.branch_ms_per_req", "ms",
         safe_div(sp("runtime.branch").total_us * 1e-3, executed)},
        {"nn.gemm_threads", "count",
         static_cast<double>(einet::nn::gemm_threads())},
        {"quant.int8_ratio", "ratio", int8_ratio},
        {"quant.fallbacks", "count", static_cast<double>(quant_fallbacks)},
        {"quant.weight_bytes", "B", static_cast<double>(facts.quant_weight_bytes)},
        {"memplan.arena_bytes_per_worker", "B",
         static_cast<double>(facts.arena_bytes_per_worker)},
        {"memplan.scratch_overflows", "count",
         static_cast<double>(facts.scratch_overflows)},
        {"memory.weight_bytes", "B", static_cast<double>(facts.weight_bytes)},
        {"setup.load_s", "s", setup_median(&SetupTimes::load_s)},
        {"setup.profile_s", "s", setup_median(&SetupTimes::profile_s)},
        {"setup.predictor_train_s", "s",
         setup_median(&SetupTimes::predictor_train_s)},
        {"setup.freeze_s", "s", setup_median(&SetupTimes::freeze_s)},
        {"setup.quantize_s", "s", setup_median(&SetupTimes::quantize_s)},
        {"setup.start_s", "s", setup_median(&SetupTimes::start_s)},
        {"setup.fixture_s", "s", fixture_s},
        {"obs.overhead_ratio", "ratio", safe_div(throughput, traced_rps)},
        {"obs.dropped_events", "count",
         static_cast<double>(trace->total_dropped)},
        {"host.steal_ratio", "ratio", steal},
        {"load.late_ms.p99", "ms", quantile(late_ms, 0.99)},
        {"load.late_ms.max", "ms", quantile(late_ms, 1.0)},
        {"latency.p50_ms", "ms", median(window_p50)},
        {"latency.p90_ms", "ms", median(window_p90)},
        {"latency.p99_ms", "ms", quantile(latency_ms, 0.99)},
        {"latency.samples", "count", static_cast<double>(latency_ms.size())},
    };
  }
  bool finite = true;
  for (const Metric& m : metrics) {
    std::cout << "metric  " << m.name << " = " << m.value << " " << m.unit
              << "\n";
    finite = finite && std::isfinite(m.value);
  }
  g.check(finite, "every metric is a finite number");
  const bool ok = g.failures.empty();
  std::cout << result_json(ok, sent, errors, metrics) << std::endl;
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
