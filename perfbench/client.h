// Closed-loop sending MTAs for the trace-replay benchmark.
//
// Each client thread owns one connection at a time and waits for every
// reply before it sends the next command (or the next pipelined group),
// so a slow server receives less load. Sessions are taken in replay
// order from a shared cursor until the epoch's sessions are all done.
// Each session binds its own 127.0.0.0/8 source address
// (SourceAddress), which the server maps back to the trace's client IP.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "plan.h"

namespace perfbench {

struct SessionLog {
  bool ran = false;
  bool connected = false;
  std::string transport_error;  // empty = the dialog ran to its end
  std::vector<int> rcpt_codes;  // one per RCPT, in order (0 = no reply)
  int data_code = 0;            // reply to DATA (0 = not sent)
  int body_code = 0;            // reply after the body (250 = acked)
  double session_ms = -1;       // connect .. socket closed
  double rcpt_stall_ms = -1;    // first RCPT .. its reply (lockstep only)
  double ack_ms = -1;           // body sent .. its 250
};

struct ClientRun {
  std::vector<SessionLog> logs;  // indexed by session number
  std::uint64_t attempted = 0;   // sessions 0..attempted-1 ran
  double elapsed_s = 0;          // first connect .. last session done
  double cpu_us = 0;             // client threads' user+sys CPU
};

// Local parts of the RCPTs of session plan `p` that got 250.
std::vector<std::string> AcceptedMailboxes(const Plan& p,
                                           const SessionLog& log);

// Runs sessions 0..sessions-1 of `wl` with `clients` sending MTAs.
ClientRun RunClosedLoop(const Workload& wl, std::uint16_t port, int clients,
                        std::uint64_t sessions);

}  // namespace perfbench
