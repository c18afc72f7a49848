// Workload synthesis for the trace-replay benchmark.
//
// A Workload is the seeded list of SMTP sessions the sending MTAs
// replay, in order, against the real server: one epoch's worth. Every
// epoch of a run replays the same sessions against a fresh server, so
// each epoch does the same work whatever the server's speed. Session
// `s` is always the same dialog for a given (workload, seed): the
// client IP the trace assigns, the HELO/MAIL/RCPT commands, whether the
// dialog is pipelined, and the body (generated on demand from the
// session number, so large ham bodies never sit in memory all at once).
//
// Sessions come in whole rounds. On the spam workloads a round ends
// with one fixed probe session whose dialog repeats a valid RCPT; it
// does not depend on the seed, and the server acknowledges its mail
// without storing it (the duplicate-recipient fault). Every other
// session draws distinct recipients, so no seeded session trips that
// fault and the share of failed sessions is the same in every run.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/ipv4.h"

namespace perfbench {

using sams::util::Ipv4;

enum class Kind { kSpam, kHam, kBounce, kUnfinished, kProbe };

struct Plan {
  Kind kind = Kind::kSpam;
  bool pipelined = false;  // HELO..DATA sent in one write
  Ipv4 client_ip;          // the trace's address (what the DNSBL sees)
  bool listed = false;     // client_ip is on the blacklist
  std::string helo;
  std::string mail_from;
  std::vector<std::string> rcpts;  // full addresses, in dialog order
  std::uint32_t body_bytes = 0;    // 0 = the dialog never sends DATA
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  std::vector<Plan> plans;        // seeded sessions, replay order
  std::size_t round_seeded = 64;  // seeded sessions per round
  bool probe = false;             // each round ends with the probe
  Plan probe_plan;
  std::vector<Ipv4> listed;       // blacklist contents
  std::vector<std::string> mailboxes;  // local parts, all valid
  std::string domain = "dept.test";

  std::size_t round_size() const { return round_seeded + (probe ? 1 : 0); }
  // Sessions in one epoch (whole rounds).
  std::uint64_t size() const;
  // The plan of session `s` (0-based, in replay order, below size()).
  const Plan& At(std::uint64_t s) const;
};

// Names accepted by MakeWorkload.
const std::vector<std::string>& WorkloadNames();

// Seeded sessions in one epoch of workload `name`.
std::size_t EpochSessions(const std::string& name);

// Builds `name` from `seed` with `sessions` seeded sessions (rounded
// down to whole rounds). Aborts on an unknown name (callers validate
// with WorkloadNames).
Workload MakeWorkload(const std::string& name, std::uint64_t seed,
                      std::size_t sessions);

// The decoded body session `s` sends (what the store must hold).
// Empty when the plan has no DATA.
std::string BodyFor(const Workload& wl, std::uint64_t s);

// Session number carried in a body made by BodyFor; -1 if absent.
std::int64_t SessionOfBody(std::string_view body);

// RFC 5321 transparency: '.'-prefixed lines doubled, ".\r\n" appended.
// `body` must use CRLF line endings and end in CRLF (BodyFor's do).
std::string DotStuff(std::string_view body);

// Loopback source address the client binds for session `s`, and its
// inverse (false for an address outside the session range).
Ipv4 SourceAddress(std::uint64_t s);
bool SessionOfSource(Ipv4 source, std::uint64_t* s);

}  // namespace perfbench
