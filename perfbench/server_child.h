// The server under test, in a child process of its own.
//
// Spawn forks a small launcher process first thing, before the parent
// starts any thread or synthesizes the workload, pins it to the
// server's CPUs, and leaves it waiting. Configure hands it the DNSBL
// port, the mailbox list and each session's trace address once. Each
// Start then forks a fresh server process from the launcher, which
// builds the real fork-after-trust mta::SmtpServer (new MFS store,
// async prefix DNSBL, reputation gate) and answers with its listening
// port. Stop drains that server, collects its counters, and has the
// launcher reap it with wait4, whose rusage gives the server's CPU time
// and peak RSS apart from the load generator's. Every server process
// starts from the same single-threaded image, so each epoch of a run
// meets the same cold server.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mfs/store.h"
#include "plan.h"
#include "util/result.h"

namespace perfbench {

// When the store makes a delivery durable: never (the page cache), in
// shared group-commit flush rounds, or with fsyncs inside each delivery.
enum class Durability { kNone, kGroup, kFsync };

// The MFS store options of the benchmark's server at `d`.
sams::mfs::StoreOptions StoreOptionsFor(Durability d);

struct ServerOptions {
  Durability durability = Durability::kNone;
  int shards = 2;
  int workers = 4;
  std::vector<int> cpus;         // empty = no pinning
  std::size_t span_capacity = 0; // traced servers' span ring
};

struct ServerReport {
  std::map<std::string, double> values;  // "group.name" -> value
  double cpu_us = 0;                     // child user+sys CPU
  double peak_rss_mb = 0;

  double Get(const std::string& key) const {
    const auto it = values.find(key);
    return it == values.end() ? 0.0 : it->second;
  }
};

// Pins the calling thread (and the threads it starts later) to `cpus`;
// no-op when empty.
void PinToCpus(const std::vector<int>& cpus);

class ServerChild {
 public:
  ServerChild() = default;
  ServerChild(const ServerChild&) = delete;
  ServerChild& operator=(const ServerChild&) = delete;
  // Stops the launcher (killing a server still running) and reaps it.
  ~ServerChild();

  // Forks the launcher. Call before any thread exists in this process.
  sams::util::Error Spawn(const ServerOptions& opts);
  // Passes the DNSBL port, the valid mailboxes (local parts @ domain)
  // and the trace address of each session (indexed by session number,
  // which the client's source address encodes).
  sams::util::Error Configure(std::uint16_t dnsbl_port,
                              const std::vector<std::string>& mailboxes,
                              const std::string& domain,
                              const std::vector<Ipv4>& session_ips);
  // Starts a fresh server on a new store at `store_dir`; returns its
  // SMTP port. A traced server binds an obs::Registry and a TraceSink
  // and writes every span to `span_file` when it stops.
  sams::util::Result<std::uint16_t> Start(const std::string& store_dir,
                                          bool traced,
                                          const std::string& span_file);
  // Drains and stops the server, then has the launcher reap it.
  sams::util::Result<ServerReport> Stop();

 private:
  pid_t pid_ = -1;      // the launcher
  int ctl_fd_ = -1;     // parent -> launcher and server
  int report_fd_ = -1;  // launcher and server -> parent
};

}  // namespace perfbench
