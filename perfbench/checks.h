// Output checks of the trace-replay benchmark.
//
// Every check compares the server's outputs with records the load
// generator kept on its own side of the socket: which RCPTs got 250,
// which mails got 250 after DATA, and the body each session sent
// (regenerated from the workload). The store is read back through the
// MFS volume API after the server process has exited.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "mfs/volume.h"
#include "util/result.h"

namespace perfbench {

struct MailReport {
  std::set<std::uint64_t> failed;   // sessions the store disagrees with
  // ...of which failed for a reason other than an acknowledged mail
  // missing from a mailbox (the duplicate-RCPT fault's only symptom).
  std::set<std::uint64_t> failed_otherwise;
  std::vector<std::string> errors;  // store-wide faults (no session)
  std::vector<std::string> notes;   // first few per-session mismatches
  std::uint64_t acked = 0;          // mails acknowledged with 250
  std::uint64_t stored_mails = 0;   // acked mails found in every mailbox
  std::uint64_t stored_bytes = 0;   // their body bytes
  std::uint64_t distinct_ids = 0;   // distinct mail ids in the store
  std::uint64_t failed_ids = 0;     // ...of which belong to failed sessions
  // Data-file bytes single-copy storage implies: one length-prefixed
  // record per session's mail, whatever its recipient count; and the
  // body bytes alone.
  std::uint64_t single_copy_bytes = 0;
  std::uint64_t single_copy_body_bytes = 0;
};

// Streams a store's mails past the acknowledgements.
class MailChecker {
 public:
  // `body_of(s)` is the body session s sent.
  explicit MailChecker(std::function<std::string(std::uint64_t)> body_of);

  // Session s ran and is known to the generator.
  void Attempted(std::uint64_t s);
  // Session s got 250 after DATA; `mailboxes` are the local parts of
  // the RCPTs that got 250.
  void ExpectAck(std::uint64_t s, const std::vector<std::string>& mailboxes);
  // Session s counts failed for a reason found outside the store.
  void Fail(std::uint64_t s, const std::string& why);

  // One mail read back from `mailbox`.
  void OnStored(const std::string& mailbox,
                const sams::mfs::MailReadResult& mail);

  MailReport Finish();

 private:
  struct Seen {
    std::string id;
    std::size_t size = 0;
  };
  void FailSession(std::uint64_t s, const std::string& why,
                   bool unstored_ack = false);

  std::function<std::string(std::uint64_t)> body_of_;
  std::set<std::uint64_t> attempted_;
  std::unordered_map<std::uint64_t, std::set<std::string>> expected_;
  // (session, mailbox) -> what was stored there.
  std::map<std::pair<std::uint64_t, std::string>, Seen> stored_;
  std::unordered_map<std::string, std::size_t> id_sizes_;
  std::unordered_map<std::string, std::uint64_t> id_session_;
  MailReport report_;
};

// Reads every mailbox under an MFS volume root into `checker` and
// returns the total size of the volume's data files (boxes/*.dat and
// shared.dat): the physical body bytes plus one length prefix per
// record.
sams::util::Result<std::uint64_t> ReadStore(const std::string& root,
                                            MailChecker& checker);

// What the run saw apart from the mail check.
struct RunCounts {
  std::uint64_t data_file_bytes = 0;  // ReadStore's result
  std::uint64_t daemon_queries = 0;   // received by the DNSBL daemon
  std::uint64_t distinct_25s = 0;     // among the addresses handed out
};

struct CountReport {
  std::vector<std::string> errors;
  std::uint64_t duplicate_rounds = 0;  // DNS rounds beyond one per /25
};

// The store-wide count checks, against the server child's counters
// (ServerReport::values, "group.name" -> value):
// - single copy: the data files hold one length-prefixed record per
//   stored mail, and the store's `bytes_written` equals their bodies;
// - the daemon received one query per DNS round the pipeline opened
//   (lookups - cache hits - coalesced) plus its retries, and every
//   distinct /25 got a round. A second round for a /25 is the
//   singleflight race (CHANGES.md): counted, not failed;
// - the server drained with no session left open.
CountReport CheckCounts(const MailReport& mail, const RunCounts& seen,
                        const std::map<std::string, double>& server);

// The run's verdict: no store-wide fault, and every failed session is
// one `excused(s)` names (the duplicate-RCPT probe) that failed only
// because its acknowledged mail is missing.
bool Correct(const MailReport& mail, const std::vector<std::string>& errors,
             const std::function<bool(std::uint64_t)>& excused);

}  // namespace perfbench
