#include "server_child.h"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

#include "mfs/store.h"
#include "mta/recipient_db.h"
#include "mta/smtp_server.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/stats.h"

namespace perfbench {
namespace {

using sams::util::Error;

constexpr char kZone[] = "bl.perfbench.test";

bool ReadFull(int fd, void* data, std::size_t n) {
  auto* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

bool WriteFull(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

// Sum of every registered counter called `name`, whatever its labels.
double CounterTotal(const sams::obs::Registry& registry,
                    const std::string& name) {
  double total = 0;
  for (const auto& f : registry.Families()) {
    if (f.name == name && f.counter != nullptr) {
      total += static_cast<double>(f.counter->value());
    }
  }
  return total;
}

const sams::obs::Histogram* FindHistogram(const sams::obs::Registry& registry,
                                          const std::string& name) {
  for (const auto& f : registry.Families()) {
    if (f.name == name && f.histogram != nullptr) return f.histogram;
  }
  return nullptr;
}

// Per-stage span durations, and every span written to `path`.
void SpanReport(const sams::obs::TraceSink& sink, const std::string& path,
                std::map<std::string, double>& out) {
  const std::vector<sams::obs::SpanRecord> spans = sink.Snapshot();
  std::map<std::string, sams::util::Sampler> by_stage;
  std::ofstream dump(path);
  dump << "# session stage start_ns end_ns duration_us\n";
  for (const auto& r : spans) {
    const char* name = sams::obs::StageName(r.stage);
    by_stage[name].Add(static_cast<double>(r.duration_ns()) / 1e6);
    dump << r.session_id << ' ' << name << ' ' << r.start_ns << ' '
         << r.end_ns << ' ' << static_cast<double>(r.duration_ns()) / 1e3
         << '\n';
  }
  for (auto& [stage, ms] : by_stage) {
    out["stage." + stage + ".count"] = static_cast<double>(ms.count());
    out["stage." + stage + ".p50_ms"] = ms.Percentile(50);
    out["stage." + stage + ".p99_ms"] = ms.Percentile(99);
  }
  out["trace.recorded"] = static_cast<double>(sink.recorded());
  out["trace.dropped"] = static_cast<double>(sink.dropped());
}

// What the launcher holds for every server it starts.
struct Config {
  std::uint16_t dnsbl_port = 0;
  std::string text;  // domain, then one mailbox per line
  std::vector<std::uint32_t> ips;
};

// How the launcher saw a server process end.
struct Exit {
  std::int32_t status = 0;
  std::int64_t cpu_us = 0;
  std::int64_t maxrss_kb = 0;
};

bool ReadString(int fd, std::string* s) {
  std::uint32_t len = 0;
  if (!ReadFull(fd, &len, sizeof(len))) return false;
  s->assign(len, '\0');
  return ReadFull(fd, s->data(), len);
}

bool WriteString(int fd, const std::string& s) {
  const auto len = static_cast<std::uint32_t>(s.size());
  return WriteFull(fd, &len, sizeof(len)) && WriteFull(fd, s.data(), len);
}

// One server process: serves until the parent says stop (or goes away),
// then reports its counters. Writes port 0 if it cannot start.
int ServeOnce(const ServerOptions& opts, const Config& conf,
              const std::string& store_dir, bool traced,
              const std::string& span_file, int ctl_fd, int report_fd) {
  std::istringstream lines(conf.text);
  std::string domain;
  std::getline(lines, domain);
  sams::mta::RecipientDb recipients;
  for (std::string box; std::getline(lines, box);) {
    recipients.AddMailbox(box, domain);
  }

  sams::mta::RealServerConfig cfg;
  cfg.architecture = sams::mta::Architecture::kForkAfterTrust;
  cfg.num_shards = opts.shards;
  cfg.worker_count = opts.workers;
  cfg.pregreet_delay_ms = 0;  // no banner hold: the loop has no fixed waits
  cfg.dnsbl.enabled = true;
  cfg.dnsbl.zones = {{kZone, conf.dnsbl_port}};
  const std::vector<std::uint32_t>& ips = conf.ips;
  cfg.dnsbl_ip_mapper = [&ips](const std::string& peer) {
    const auto ip = sams::util::Ipv4::Parse(peer);
    std::uint64_t s = 0;
    if (ip && SessionOfSource(*ip, &s) && s < ips.size()) {
      return sams::util::Ipv4(ips[s]);
    }
    return ip.value_or(sams::util::Ipv4());
  };
  cfg.reputation.enabled = true;

  const std::uint16_t no_port = 0;
  auto store =
      sams::mfs::MakeMfsStore(store_dir, StoreOptionsFor(opts.durability));
  if (!store.ok()) {
    std::fprintf(stderr, "store: %s\n", store.error().ToString().c_str());
    (void)WriteFull(report_fd, &no_port, sizeof(no_port));
    return 3;
  }
  sams::obs::Registry registry;
  std::unique_ptr<sams::obs::TraceSink> sink;
  auto server = std::make_unique<sams::mta::SmtpServer>(
      cfg, std::move(recipients), **store);
  if (traced) {
    sink = std::make_unique<sams::obs::TraceSink>(opts.span_capacity);
    (*store)->BindMetrics(registry);
    server->BindObservability(registry, sink.get());
  }
  auto port = server->Start();
  const std::uint16_t reply = port.ok() ? *port : 0;
  if (!port.ok()) {
    std::fprintf(stderr, "server: %s\n", port.error().ToString().c_str());
  }
  if (!WriteFull(report_fd, &reply, sizeof(reply)) || reply == 0) return 4;

  char stop = 0;
  (void)ReadFull(ctl_fd, &stop, 1);  // EOF (parent gone) stops too
  const int leftover = server->Drain(5'000);

  std::map<std::string, double> v;
  v["server.leftover_sessions"] = leftover;
  const auto& st = server->stats();
  v["server.connections"] = static_cast<double>(st.connections.load());
  v["server.mails_delivered"] = static_cast<double>(st.mails_delivered.load());
  v["server.delivery_errors"] = static_cast<double>(st.delivery_errors.load());
  v["server.delegations"] = static_cast<double>(st.delegations.load());
  v["server.master_closed"] = static_cast<double>(st.master_closed.load());
  v["server.overload_sheds"] = static_cast<double>(st.overload_sheds.load());
  v["server.worker_deaths"] = static_cast<double>(st.worker_deaths.load());
  const auto* dn = server->dnsbl_service();
  if (dn != nullptr) {
    const auto& ds = dn->stats();
    v["dnsbl.lookups"] = static_cast<double>(ds.lookups.load());
    v["dnsbl.cache_hits"] = static_cast<double>(ds.cache_hits.load());
    v["dnsbl.coalesced"] = static_cast<double>(ds.coalesced.load());
    v["dnsbl.queries_sent"] = static_cast<double>(ds.queries_sent.load());
    v["dnsbl.retries"] = static_cast<double>(ds.retries.load());
    v["dnsbl.timeouts"] = static_cast<double>(ds.timeouts.load());
    v["dnsbl.degraded"] = static_cast<double>(ds.degraded.load());
  }
  const auto* rep = server->reputation_engine();
  if (rep != nullptr) {
    const auto& rs = rep->stats();
    v["rep.evaluations"] = static_cast<double>(rs.evaluations.load());
    v["rep.accepts"] = static_cast<double>(rs.accepts.load());
    v["rep.greylists"] = static_cast<double>(rs.greylists.load());
    v["rep.rejects"] = static_cast<double>(rs.rejects.load());
  }
  const auto& ss = (*store)->stats();
  v["store.mails_delivered"] = static_cast<double>(ss.mails_delivered);
  v["store.bytes_written"] = static_cast<double>(ss.bytes_written);
  v["store.bytes_logical"] = static_cast<double>(ss.bytes_logical);
  v["store.fsyncs"] = static_cast<double>(ss.fsyncs);
  if (const auto* gc = (*store)->committer(); gc != nullptr) {
    const auto cs = gc->stats();
    v["commit.commits"] = static_cast<double>(cs.commits);
    v["commit.flushes"] = static_cast<double>(cs.flushes);
  }
  if (traced) {
    registry.Collect();
    v["mfs.fd_cache_hits"] =
        CounterTotal(registry, "sams_mfs_fd_cache_hits_total");
    v["mfs.fd_cache_misses"] =
        CounterTotal(registry, "sams_mfs_fd_cache_misses_total");
    if (const auto* h =
            FindHistogram(registry, "sams_smtp_dnsbl_rcpt_stall_ms")) {
      v["dnsbl.rcpt_wait_count"] = static_cast<double>(h->count());
      v["dnsbl.rcpt_wait_p99_ms"] = h->Percentile(99);
    }
    SpanReport(*sink, span_file, v);
  }
  server.reset();
  store->reset();

  std::ostringstream lines_out;
  lines_out.precision(17);
  for (const auto& [key, value] : v) lines_out << key << ' ' << value << '\n';
  return WriteString(report_fd, lines_out.str()) ? 0 : 5;
}

// The launcher: forks one server per 'n' command and reaps it; exits
// on EOF. It and every server die with their parent.
int LauncherMain(const ServerOptions& opts, int ctl_fd, int report_fd) {
  (void)::prctl(PR_SET_PDEATHSIG, SIGKILL);
  PinToCpus(opts.cpus);
  Config conf;
  for (char cmd = 0; ReadFull(ctl_fd, &cmd, 1);) {
    if (cmd == 'c') {
      std::uint32_t n_ips = 0;
      if (!ReadFull(ctl_fd, &conf.dnsbl_port, sizeof(conf.dnsbl_port)) ||
          !ReadString(ctl_fd, &conf.text) ||
          !ReadFull(ctl_fd, &n_ips, sizeof(n_ips))) {
        return 2;
      }
      conf.ips.resize(n_ips);
      if (!ReadFull(ctl_fd, conf.ips.data(), n_ips * sizeof(std::uint32_t))) {
        return 2;
      }
      continue;
    }
    std::uint8_t traced = 0;
    std::string store_dir;
    std::string span_file;
    if (cmd != 'n' || !ReadFull(ctl_fd, &traced, 1) ||
        !ReadString(ctl_fd, &store_dir) || !ReadString(ctl_fd, &span_file)) {
      return 2;
    }
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) return 3;
    if (pid == 0) {
      (void)::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int code = ServeOnce(opts, conf, store_dir, traced != 0,
                                 span_file, ctl_fd, report_fd);
      std::fflush(nullptr);
      ::_exit(code);
    }
    Exit ex;
    rusage ru{};
    int status = 0;
    pid_t r = -1;
    do {
      r = ::wait4(pid, &status, 0, &ru);
    } while (r < 0 && errno == EINTR);
    ex.status = r < 0 ? -1 : status;
    ex.cpu_us = (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1'000'000LL +
                ru.ru_utime.tv_usec + ru.ru_stime.tv_usec;
    ex.maxrss_kb = ru.ru_maxrss;
    if (!WriteFull(report_fd, &ex, sizeof(ex))) return 4;
  }
  return 0;
}

}  // namespace

sams::mfs::StoreOptions StoreOptionsFor(Durability d) {
  sams::mfs::StoreOptions o;
  o.fsync_each_mail = d == Durability::kFsync;
  o.group_commit = d == Durability::kGroup;
  o.volume.max_open_boxes = 128;
  return o;
}

void PinToCpus(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  (void)::sched_setaffinity(0, sizeof(set), &set);
}

ServerChild::~ServerChild() {
  if (ctl_fd_ >= 0) ::close(ctl_fd_);  // EOF: a server drains, then all exit
  if (pid_ > 0) {
    int status = 0;
    pid_t r = 0;
    for (int i = 0; i < 1500 && r == 0; ++i) {
      r = ::waitpid(pid_, &status, WNOHANG);
      if (r == 0) ::usleep(10'000);
    }
    if (r == 0) {
      ::kill(pid_, SIGKILL);  // a server still running dies with it
      ::waitpid(pid_, &status, 0);
    }
  }
  if (report_fd_ >= 0) ::close(report_fd_);
}

Error ServerChild::Spawn(const ServerOptions& opts) {
  int ctl[2];
  int report[2];
  if (::pipe2(ctl, O_CLOEXEC) != 0 || ::pipe2(report, O_CLOEXEC) != 0) {
    return sams::util::IoError(std::string("pipe: ") + std::strerror(errno));
  }
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    return sams::util::IoError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::close(ctl[1]);
    ::close(report[0]);
    const int code = LauncherMain(opts, ctl[0], report[1]);
    std::fflush(nullptr);
    ::_exit(code);
  }
  ::close(ctl[0]);
  ::close(report[1]);
  pid_ = pid;
  ctl_fd_ = ctl[1];
  report_fd_ = report[0];
  return sams::util::OkError();
}

Error ServerChild::Configure(std::uint16_t dnsbl_port,
                             const std::vector<std::string>& mailboxes,
                             const std::string& domain,
                             const std::vector<Ipv4>& session_ips) {
  std::string text = domain + "\n";
  for (const std::string& box : mailboxes) text += box + "\n";
  std::vector<std::uint32_t> ips;
  ips.reserve(session_ips.size());
  for (const Ipv4 ip : session_ips) ips.push_back(ip.value());
  const auto n_ips = static_cast<std::uint32_t>(ips.size());
  const char cmd = 'c';
  if (!WriteFull(ctl_fd_, &cmd, 1) ||
      !WriteFull(ctl_fd_, &dnsbl_port, sizeof(dnsbl_port)) ||
      !WriteString(ctl_fd_, text) ||
      !WriteFull(ctl_fd_, &n_ips, sizeof(n_ips)) ||
      !WriteFull(ctl_fd_, ips.data(), ips.size() * sizeof(std::uint32_t))) {
    return sams::util::Unavailable("server launcher is gone");
  }
  return sams::util::OkError();
}

sams::util::Result<std::uint16_t> ServerChild::Start(
    const std::string& store_dir, bool traced, const std::string& span_file) {
  const char cmd = 'n';
  const std::uint8_t flag = traced ? 1 : 0;
  std::uint16_t port = 0;
  if (!WriteFull(ctl_fd_, &cmd, 1) || !WriteFull(ctl_fd_, &flag, 1) ||
      !WriteString(ctl_fd_, store_dir) || !WriteString(ctl_fd_, span_file) ||
      !ReadFull(report_fd_, &port, sizeof(port))) {
    return sams::util::Unavailable("server launcher is gone");
  }
  if (port == 0) {
    Exit ex;
    (void)ReadFull(report_fd_, &ex, sizeof(ex));
    return sams::util::Unavailable("server failed to start");
  }
  return port;
}

sams::util::Result<ServerReport> ServerChild::Stop() {
  const char stop = 'q';
  std::string text;
  Exit ex;
  if (!WriteFull(ctl_fd_, &stop, 1) || !ReadString(report_fd_, &text) ||
      !ReadFull(report_fd_, &ex, sizeof(ex))) {
    return sams::util::Unavailable("server process exited abnormally");
  }
  if (!WIFEXITED(ex.status) || WEXITSTATUS(ex.status) != 0) {
    return sams::util::Unavailable("server process exited abnormally (status " +
                                   std::to_string(ex.status) + ")");
  }
  ServerReport report;
  std::istringstream in(text);
  std::string key;
  double value = 0;
  while (in >> key >> value) report.values[key] = value;
  report.cpu_us = static_cast<double>(ex.cpu_us);
  report.peak_rss_mb = static_cast<double>(ex.maxrss_kb) / 1024.0;
  return report;
}

}  // namespace perfbench
