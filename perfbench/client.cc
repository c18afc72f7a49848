#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <atomic>
#include <thread>
#include <vector>

#include "util/time.h"

namespace perfbench {
namespace {

constexpr int kIoTimeoutMs = 10'000;

double MsSince(std::int64_t t0) {
  return static_cast<double>(sams::util::MonotonicNanos() - t0) / 1e6;
}

// One client connection with a line reader for SMTP replies.
class Conn {
 public:
  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() { Close(); }

  bool Open(Ipv4 source, std::uint16_t port, std::string* err) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return Fail(err, "socket");
    const timeval tv{kIoTimeoutMs / 1000, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    // The sender writes each command group and each body in one call;
    // no Nagle hold on its side keeps the timings the server's.
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in src{};
    src.sin_family = AF_INET;
    src.sin_addr.s_addr = htonl(source.value());
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&src), sizeof(src)) != 0) {
      return Fail(err, "bind " + source.ToString());
    }
    sockaddr_in dst{};
    dst.sin_family = AF_INET;
    dst.sin_port = htons(port);
    dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&dst), sizeof(dst)) != 0) {
      return Fail(err, "connect");
    }
    return true;
  }

  bool Send(std::string_view bytes, std::string* err) {
    while (!bytes.empty()) {
      const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Fail(err, "send");
      }
      bytes.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }

  // The next reply's code; 0 on a clean EOF, -1 on error or timeout.
  int ReadReply(std::string* err) {
    for (;;) {
      const std::size_t eol = buf_.find("\r\n", pos_);
      if (eol != std::string::npos) {
        const std::string_view line(buf_.data() + pos_, eol - pos_);
        pos_ = eol + 2;
        if (line.size() < 3) {
          *err = "short reply line";
          return -1;
        }
        if (line.size() > 3 && line[3] == '-') continue;  // multi-line
        return (line[0] - '0') * 100 + (line[1] - '0') * 10 + (line[2] - '0');
      }
      if (pos_ > 0) {
        buf_.erase(0, pos_);
        pos_ = 0;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buf_.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) return 0;
      if (errno == EINTR) continue;
      Fail(err, errno == EAGAIN ? "reply timeout" : "recv");
      return -1;
    }
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  bool Fail(std::string* err, const std::string& what) {
    *err = what + ": " + std::strerror(errno);
    return false;
  }

  int fd_ = -1;
  std::string buf_;
  std::size_t pos_ = 0;
};

// Runs one session's dialog; fills `log`. Returns normally on every
// outcome; transport faults land in log.transport_error.
void RunSession(const Workload& wl, std::uint64_t s, std::uint16_t port,
                SessionLog& log) {
  const Plan& p = wl.At(s);
  log.ran = true;
  log.rcpt_codes.assign(p.rcpts.size(), 0);
  std::string& err = log.transport_error;
  const std::int64_t t0 = sams::util::MonotonicNanos();
  Conn conn;
  if (!conn.Open(SourceAddress(s), port, &err)) return;
  log.connected = true;

  // A reply the dialog expects. After a 554 the server hangs up (with a
  // reset when pipelined input is still unread): that ends a rejected
  // session; a hang-up anywhere else is a transport fault.
  int last = 0;
  const auto reply = [&](int* code) {
    const int c = conn.ReadReply(&err);
    if (c > 0) {
      last = c;
      if (code != nullptr) *code = c;
      return true;
    }
    if (last == 554) {
      err.clear();
    } else if (c == 0) {
      err = "server closed the connection";
    }
    return false;
  };
  const auto finish = [&] {
    conn.Close();
    log.session_ms = MsSince(t0);
  };

  int banner = 0;
  if (!reply(&banner)) return finish();
  if (banner != 220) {
    err = "banner " + std::to_string(banner);
    return finish();
  }
  const std::string helo = "HELO " + p.helo + "\r\n";
  const std::string mail = "MAIL FROM:<" + p.mail_from + ">\r\n";
  bool any_rcpt = false;
  if (p.pipelined) {
    std::string blast = helo + mail;
    for (const std::string& r : p.rcpts) blast += "RCPT TO:<" + r + ">\r\n";
    blast += "DATA\r\n";
    if (!conn.Send(blast, &err)) return finish();
    if (!reply(nullptr) || !reply(nullptr)) return finish();
    for (int& code : log.rcpt_codes) {
      if (!reply(&code)) return finish();
    }
    if (!reply(&log.data_code)) return finish();
  } else {
    if (!conn.Send(helo, &err) || !reply(nullptr)) return finish();
    if (p.kind == Kind::kUnfinished) return finish();  // abandons here
    if (!conn.Send(mail, &err) || !reply(nullptr)) return finish();
    for (std::size_t i = 0; i < p.rcpts.size(); ++i) {
      const std::int64_t t_rcpt = sams::util::MonotonicNanos();
      if (!conn.Send("RCPT TO:<" + p.rcpts[i] + ">\r\n", &err) ||
          !reply(&log.rcpt_codes[i])) {
        return finish();
      }
      if (i == 0) log.rcpt_stall_ms = MsSince(t_rcpt);
      if (log.rcpt_codes[i] == 554) {  // rejected: wait for the hang-up
        if (reply(nullptr)) err = "554 without a hang-up";
        return finish();
      }
      any_rcpt |= log.rcpt_codes[i] == 250;
    }
    if (p.body_bytes > 0 && any_rcpt) {
      if (!conn.Send("DATA\r\n", &err) || !reply(&log.data_code)) {
        return finish();
      }
    }
  }
  if (log.data_code == 354) {
    const std::string wire = DotStuff(BodyFor(wl, s));
    if (!conn.Send(wire, &err)) return finish();
    const std::int64_t t_sent = sams::util::MonotonicNanos();
    if (!reply(&log.body_code)) return finish();
    if (log.body_code == 250) log.ack_ms = MsSince(t_sent);
  }
  if (!conn.Send("QUIT\r\n", &err)) return finish();
  int bye = 0;
  if (reply(&bye) && bye != 221) err = "QUIT answered " + std::to_string(bye);
  finish();
}

}  // namespace

std::vector<std::string> AcceptedMailboxes(const Plan& p,
                                           const SessionLog& log) {
  std::vector<std::string> boxes;
  for (std::size_t i = 0; i < p.rcpts.size(); ++i) {
    if (log.rcpt_codes[i] == 250) {
      boxes.push_back(p.rcpts[i].substr(0, p.rcpts[i].find('@')));
    }
  }
  return boxes;
}

ClientRun RunClosedLoop(const Workload& wl, std::uint16_t port, int clients,
                        std::uint64_t sessions) {
  ClientRun run;
  std::atomic<std::uint64_t> next{0};
  const std::int64_t start = sams::util::MonotonicNanos();
  std::vector<double> cpu(static_cast<std::size_t>(clients), 0.0);
  run.logs.resize(sessions);

  const auto worker = [&](int id) {
    for (std::uint64_t s = next++; s < sessions; s = next++) {
      RunSession(wl, s, port, run.logs[s]);
    }
    rusage ru{};
    ::getrusage(RUSAGE_THREAD, &ru);
    cpu[static_cast<std::size_t>(id)] =
        static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
        static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < clients; ++i) threads.emplace_back(worker, i);
  for (std::thread& t : threads) t.join();
  run.elapsed_s =
      static_cast<double>(sams::util::MonotonicNanos() - start) / 1e9;
  run.attempted = sessions;
  for (const double c : cpu) run.cpu_us += c;
  return run;
}

}  // namespace perfbench
