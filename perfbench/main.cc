// perfbench — trace-replay benchmark of the real SAMS server.
//
//   perfbench --workload sinkhole|univ|ham_durable --seed N --seconds S
//             --trace 0|1 [--durability none|group|fsync]
//
// Replays the workload's seeded SMTP sessions with closed-loop sending
// MTAs against the fork-after-trust server in a child process, in
// epochs: each epoch replays the same sessions against a fresh server
// and store, and epochs follow each other until --seconds of them have
// been measured. Every epoch's acknowledged mail is checked against its
// store. Prints the medians over the epochs of the end-to-end metrics
// (--trace 0) or the per-layer ledger (--trace 1) as the last line of
// stdout, one JSON object. See README.md.
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "checks.h"
#include "client.h"
#include "dnsbl/blacklist_db.h"
#include "dnsbl/udp_daemon.h"
#include "layers.h"
#include "plan.h"
#include "server_child.h"
#include "util/stats.h"
#include "util/time.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr char kZone[] = "bl.perfbench.test";
constexpr int kDnsblDelayMs = 2;  // fixed DNSBL round trip
// Two sending MTAs: some concurrency at the server (two sessions in
// flight, shards and workers both busy) while the order in which the
// sessions reach the reputation gate stays close to the replay order.
constexpr int kClients = 2;
constexpr std::uint64_t kWarmUpRounds = 8;  // the warm-up epoch's rounds

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Unset: none for --trace 0, group commit for --trace 1 (README).
  std::optional<Durability> durability;
  std::string run_dir = ".bench_runs";  // scratch stores, traced output
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0) || a->seconds > 120) return false;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (flag == "--durability") {
      if (v == "none") {
        a->durability = Durability::kNone;
      } else if (v == "group") {
        a->durability = Durability::kGroup;
      } else if (v == "fsync") {
        a->durability = Durability::kFsync;
      } else {
        return false;
      }
    } else {
      return false;
    }
  }
  if (!have_workload) return false;
  if (!a->durability) {
    a->durability = a->trace ? Durability::kGroup : Durability::kNone;
  }
  for (const std::string& name : WorkloadNames()) {
    if (name == a->workload) return true;
  }
  return false;
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

// One server run: its client log, its child's report, and the checks.
struct Phase {
  ClientRun run;
  ServerReport server;
  MailReport mail;
  std::uint64_t dnsbl_queries = 0;
  std::uint64_t distinct_25s = 0;
  std::uint64_t duplicate_rounds = 0;  // DNS rounds beyond one per /25
  std::vector<std::string> errors;  // store-wide check failures
  std::uint64_t completed = 0;      // sessions that did not fail
  bool traced = false;
};

void Check(const Workload& wl, const std::string& store_dir, Phase& ph) {
  MailChecker checker([&wl](std::uint64_t s) { return BodyFor(wl, s); });
  std::unordered_set<std::uint32_t> prefixes;
  for (std::uint64_t s = 0; s < ph.run.attempted; ++s) {
    const SessionLog& log = ph.run.logs[s];
    const Plan& p = wl.At(s);
    checker.Attempted(s);
    if (log.connected) prefixes.insert(p.client_ip.value() >> 7);
    if (!log.transport_error.empty()) {
      checker.Fail(s, "transport: " + log.transport_error);
    }
    if (log.body_code != 250) continue;
    checker.ExpectAck(s, AcceptedMailboxes(p, log));
    if (p.listed) checker.Fail(s, "listed sender's mail acknowledged");
  }
  auto data_bytes = ReadStore(store_dir, checker);
  ph.mail = checker.Finish();
  ph.errors = ph.mail.errors;
  RunCounts seen;
  seen.daemon_queries = ph.dnsbl_queries;
  seen.distinct_25s = prefixes.size();
  if (data_bytes.ok()) {
    seen.data_file_bytes = *data_bytes;
  } else {
    ph.errors.push_back("reading the store: " + data_bytes.error().ToString());
  }
  CountReport counts = CheckCounts(ph.mail, seen, ph.server.values);
  ph.errors.insert(ph.errors.end(), counts.errors.begin(), counts.errors.end());
  ph.distinct_25s = seen.distinct_25s;
  ph.duplicate_rounds = counts.duplicate_rounds;
  ph.completed = ph.run.attempted - ph.mail.failed.size();
}

struct Timing {
  sams::util::Sampler session, rcpt_stall, ack;
};

Timing Timings(const Workload& wl, const Phase& ph) {
  Timing t;
  for (std::uint64_t s = 0; s < ph.run.attempted; ++s) {
    if (ph.mail.failed.contains(s)) continue;
    const SessionLog& log = ph.run.logs[s];
    t.session.Add(log.session_ms);
    if (!wl.At(s).pipelined && log.rcpt_stall_ms >= 0) {
      t.rcpt_stall.Add(log.rcpt_stall_ms);
    }
    if (log.ack_ms >= 0) t.ack.Add(log.ack_ms);
  }
  return t;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// One epoch's end-to-end figures (setup_s is the run's, added later).
// Means, not medians, of the per-session timings: the session and
// RCPT-stall distributions have two modes (a cached DNSBL verdict or
// none yet, 2 ms apart) and their medians sit between them.
std::vector<Metric> EpochMetrics(const Workload& wl, const Phase& ph) {
  const Timing t = Timings(wl, ph);
  const double secs = ph.run.elapsed_s;
  const double done = static_cast<double>(ph.completed);
  return {
      {"sessions_per_s", done / secs, "1/s"},
      {"stored_mails_per_s", static_cast<double>(ph.mail.stored_mails) / secs,
       "1/s"},
      {"stored_mb_per_s",
       static_cast<double>(ph.mail.stored_bytes) / 1e6 / secs, "MB/s"},
      {"rcpt_stall_mean_ms", t.rcpt_stall.mean(), "ms"},
      {"server_peak_rss_mb", ph.server.peak_rss_mb, "MB"},
      {"dnsbl_queries_per_session",
       static_cast<double>(ph.dnsbl_queries) /
           static_cast<double>(ph.run.attempted),
       "1/session"},
  };
}

// The epoch's figures that go to the ledger only: the timing
// percentiles, which sit between the modes or in the tail, the store's
// ack wait, which follows the virtual disk, and server CPU, which
// follows the host's load (see README).
std::vector<Metric> EpochLedger(const Workload& wl, const Phase& ph) {
  const Timing t = Timings(wl, ph);
  return {
      {"mta.session_p50_ms", t.session.Percentile(50), "ms"},
      {"mta.session_p99_ms", t.session.Percentile(99), "ms"},
      {"mta.rcpt_stall_p50_ms", t.rcpt_stall.Percentile(50), "ms"},
      {"mta.rcpt_stall_p99_ms", t.rcpt_stall.Percentile(99), "ms"},
      {"mta.ack_p50_ms", t.ack.Percentile(50), "ms"},
      {"mta.ack_p99_ms", t.ack.Percentile(99), "ms"},
      {"mta.server_cpu_us_per_session",
       ph.server.cpu_us / static_cast<double>(ph.completed), "us"},
  };
}

// Per metric, the median over `epochs` (all with the same metrics).
std::vector<Metric> Medians(const std::vector<std::vector<Metric>>& epochs) {
  std::vector<Metric> out;
  if (epochs.empty()) return out;
  for (std::size_t i = 0; i < epochs[0].size(); ++i) {
    sams::util::Sampler values;
    for (const auto& e : epochs) values.Add(e[i].value);
    out.push_back({epochs[0][i].name, values.Percentile(50),
                   epochs[0][i].unit});
  }
  return out;
}

std::string Json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream o;
  o.precision(10);
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    o << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": " << v
      << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  o << "}}";
  return o.str();
}

void Report(const Workload& wl, const Phase& ph, int epoch) {
  std::fprintf(stderr,
               "epoch %d%s%s %s: %llu sessions in %.3f s, %llu failed, "
               "%llu acked, %llu stored, %llu handoffs, %llu DNSBL queries "
               "(%llu /25s, %llu duplicate rounds), server CPU %.0f us/session\n",
               epoch, epoch == 0 ? " (warm-up)" : "",
               ph.traced ? " (traced)" : "", wl.name.c_str(),
               static_cast<unsigned long long>(ph.run.attempted),
               ph.run.elapsed_s,
               static_cast<unsigned long long>(ph.mail.failed.size()),
               static_cast<unsigned long long>(ph.mail.acked),
               static_cast<unsigned long long>(ph.mail.stored_mails),
               static_cast<unsigned long long>(ph.server.Get("server.delegations")),
               static_cast<unsigned long long>(ph.dnsbl_queries),
               static_cast<unsigned long long>(ph.distinct_25s),
               static_cast<unsigned long long>(ph.duplicate_rounds),
               ph.server.cpu_us / static_cast<double>(ph.completed));
  // Where the clients' time went: the dialogs that stalled 40 ms or
  // more (the Nagle fault in CHANGES.md) against all the others.
  double stalled_ms = 0;
  double other_ms = 0;
  std::uint64_t stalled = 0;
  for (const SessionLog& log : ph.run.logs) {
    if (log.session_ms >= 40) {
      stalled_ms += log.session_ms;
      ++stalled;
    } else {
      other_ms += log.session_ms;
    }
  }
  std::fprintf(stderr, "  %llu sessions took 40 ms or more, %.0f ms in all; "
               "the others %.0f ms\n",
               static_cast<unsigned long long>(stalled), stalled_ms, other_ms);
  for (const std::string& note : ph.mail.notes) {
    std::fprintf(stderr, "  failed %s\n", note.c_str());
  }
  for (const std::string& err : ph.errors) {
    std::fprintf(stderr, "  CHECK FAILED: %s\n", err.c_str());
  }
  if (ph.server.Get("trace.dropped") > 0) {
    std::fprintf(stderr,
                 "  the span ring overwrote %.0f of %.0f spans; the stage "
                 "figures cover the rest\n",
                 ph.server.Get("trace.dropped"), ph.server.Get("trace.recorded"));
  }
}

// Deletes a store, then has the filesystem discard its blocks now (at
// a journal commit) rather than during the next epoch.
void RemoveStore(const std::string& dir, const std::string& run_dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  if (const int fd = ::open(run_dir.c_str(), O_RDONLY | O_DIRECTORY);
      fd >= 0) {
    (void)::syncfs(fd);
    ::close(fd);
  }
}

int Main(int argc, char** argv) {
  const std::int64_t t_start = sams::util::MonotonicNanos();
  ::signal(SIGPIPE, SIG_IGN);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload sinkhole|univ|ham_durable "
                 "--seed N --seconds S --trace 0|1 "
                 "[--durability none|group|fsync]\n");
    return 2;
  }
  const std::string tag =
      args.workload + "-seed" + std::to_string(args.seed);
  const std::string scratch =
      args.run_dir + "/" + tag + "-pid" + std::to_string(::getpid());
  std::error_code ec;
  fs::remove_all(scratch, ec);
  fs::create_directories(scratch, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", scratch.c_str(),
                 ec.message().c_str());
    return 1;
  }

  // CPUs: the server gets the upper half, the load generator and the
  // DNSBL daemon the lower half.
  const std::vector<int> cpus = AllowedCpus();
  const std::size_t half = cpus.size() / 2;
  const std::vector<int> client_cpus(cpus.begin(), cpus.begin() + half);
  const std::vector<int> server_cpus(cpus.begin() + half, cpus.end());
  const int clients = std::max(
      1, std::min(kClients, static_cast<int>(cpus.size())));
  const std::size_t epoch_sessions = EpochSessions(args.workload);

  // Fork the server launcher before any thread starts.
  ServerChild launcher;
  {
    ServerOptions o;
    o.durability = *args.durability;
    o.shards = std::max(1, static_cast<int>(server_cpus.size()));
    o.workers = 4;
    o.cpus = server_cpus;
    o.span_capacity = (epoch_sessions + epoch_sessions / 8) * 14;
    if (auto err = launcher.Spawn(o); !err.ok()) {
      std::fprintf(stderr, "%s\n", err.ToString().c_str());
      return 1;
    }
  }
  PinToCpus(client_cpus);

  const Workload wl = MakeWorkload(args.workload, args.seed, epoch_sessions);
  std::vector<Ipv4> session_ips;
  session_ips.reserve(wl.size());
  for (std::uint64_t s = 0; s < wl.size(); ++s) {
    session_ips.push_back(wl.At(s).client_ip);
  }
  sams::dnsbl::BlacklistDb blacklist;
  for (const Ipv4 ip : wl.listed) blacklist.Add(ip);
  sams::dnsbl::UdpDnsblDaemon daemon(kZone, blacklist, 24 * 3600,
                                     kDnsblDelayMs);
  auto dns_port = daemon.Start();
  if (!dns_port.ok()) {
    std::fprintf(stderr, "dnsbl daemon: %s\n",
                 dns_port.error().ToString().c_str());
    return 1;
  }
  if (auto err = launcher.Configure(*dns_port, wl.mailboxes, wl.domain,
                                    session_ips);
      !err.ok()) {
    std::fprintf(stderr, "%s\n", err.ToString().c_str());
    daemon.Stop();
    return 1;
  }

  // Only the duplicate-RCPT probe may fail; any other failed session
  // fails the run.
  const auto probe = [&wl](std::uint64_t s) {
    return wl.At(s).kind == Kind::kProbe;
  };
  const std::string span_file = scratch + "/spans.txt";
  double setup_s = 0;
  double measured_s = 0;
  bool ok = true;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::vector<Metric>> untraced;  // end-to-end, per epoch
  std::vector<std::vector<Metric>> ledger;    // client-side ledger, per epoch
  sams::util::Sampler traced_cpu;
  Phase last_traced;
  double last_epoch_s = 0;
  // Epoch 0 warms up on the first kWarmUpRounds rounds (the first epoch
  // after start-up ran slower in every run) and is checked but not
  // measured. Measured epochs follow until the next one would end
  // further past --seconds than it starts short of it. With --trace 1,
  // traced and untraced epochs alternate, and there is at least one of
  // each.
  for (int e = 0; ok; ++e) {
    const bool more = e < 2 || measured_s + last_epoch_s / 2 < args.seconds;
    const bool need = args.trace && (e < 3 || traced_cpu.count() == 0);
    if (!more && !need) break;
    Phase ph;
    ph.traced = args.trace && e % 2 == 1;
    const bool warm_up = e == 0;
    const std::string store = scratch + "/store" + std::to_string(e);
    auto port = launcher.Start(store, ph.traced, span_file);
    if (!port.ok()) {
      std::fprintf(stderr, "%s\n", port.error().ToString().c_str());
      ok = false;
      break;
    }
    if (e == 0) setup_s = Seconds(sams::util::MonotonicNanos() - t_start);
    const std::uint64_t q0 = daemon.stats().queries.load();
    const std::uint64_t sessions =
        warm_up ? kWarmUpRounds * wl.round_size() : wl.size();
    ph.run = RunClosedLoop(wl, *port, clients, sessions);
    auto report = launcher.Stop();
    ph.dnsbl_queries = daemon.stats().queries.load() - q0;
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.error().ToString().c_str());
      ok = false;
      break;
    }
    ph.server = std::move(*report);
    Check(wl, store, ph);
    RemoveStore(store, args.run_dir);
    Report(wl, ph, e);
    correct = correct && Correct(ph.mail, ph.errors, probe);
    attempted += ph.run.attempted;
    failed += ph.mail.failed.size();
    if (warm_up) continue;
    last_epoch_s = ph.run.elapsed_s;
    measured_s += ph.run.elapsed_s;
    if (ph.traced) {
      traced_cpu.Add(ph.server.cpu_us / static_cast<double>(ph.completed));
      last_traced = std::move(ph);
      continue;
    }
    untraced.push_back(EpochMetrics(wl, ph));
    ledger.push_back(EpochLedger(wl, ph));
    std::fprintf(stderr, " ");
    for (const auto* ms : {&untraced.back(), &ledger.back()}) {
      for (const Metric& m : *ms) {
        std::fprintf(stderr, " %s=%.4g", m.name.c_str(), m.value);
      }
    }
    std::fprintf(stderr, "\n");
  }
  daemon.Stop();
  if (!ok) return 1;

  std::vector<Metric> e2e = {{"setup_s", setup_s, "s"}};
  for (const Metric& m : Medians(untraced)) e2e.push_back(m);
  std::vector<Metric> printed = e2e;
  if (args.trace) {
    LayerInputs in;
    in.wl = &wl;
    in.run = &last_traced.run;
    in.failed = &last_traced.mail.failed;
    in.server = &last_traced.server;
    for (const Metric& m : Medians(ledger)) {
      in.untraced.push_back({m.name, m.value, m.unit});
    }
    in.traced_cpu_us_per_session = traced_cpu.Percentile(50);
    in.durability = *args.durability;
    in.scratch_dir = scratch;
    printed.clear();
    for (const LayerMetric& m : PerLayerMetrics(in)) {
      printed.push_back({m.name, m.value, m.unit});
    }
    // The per-layer table, the untraced epochs' end-to-end figures for
    // reference, then every span of the last traced epoch.
    const std::string out_path = args.run_dir + "/traced-" + tag + ".txt";
    std::ofstream out(out_path);
    out << "# perfbench traced run: workload " << wl.name << ", seed "
        << args.seed << ", " << args.seconds << " s, " << wl.size()
        << " sessions per epoch\n"
        << "# per-layer metrics (traced epochs)\n";
    for (const Metric& m : printed) {
      out << m.name << ' ' << m.value << ' ' << m.unit << '\n';
    }
    out << "# end-to-end metrics (medians over the untraced epochs)\n";
    for (const Metric& m : e2e) {
      out << m.name << ' ' << m.value << ' ' << m.unit << '\n';
    }
    out << "# spans of the last traced epoch\n";
    std::ifstream spans(span_file);
    out << spans.rdbuf();
    std::fprintf(stderr, "per-layer table and spans: %s\n", out_path.c_str());
  }
  for (const Metric& m : printed) {
    std::fprintf(stderr, "  %-36s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  RemoveStore(scratch, args.run_dir);
  std::printf("%s\n", Json(correct, attempted, failed, printed).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
