// Self-test of the benchmark's checkers: each check must pass on a
// store that matches the acknowledgements and fail on each way a store
// can disagree with them. Runs against real MFS stores.
//
//   perfbench_selftest [scratch-dir]      (default .bench_runs/selftest)
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "mfs/mail_id.h"
#include "mfs/store.h"
#include "plan.h"
#include "smtp/dotstuff.h"
#include "util/rng.h"

namespace {

namespace fs = std::filesystem;
using perfbench::MailReport;

int failures = 0;

void Expect(bool cond, const std::string& what) {
  std::printf("%s  %s\n", cond ? "ok  " : "FAIL", what.c_str());
  if (!cond) ++failures;
}

// What the load generator saw: session -> mailboxes whose RCPT got 250
// (sessions 0..4 acknowledged; session 5 ran but was not).
const std::map<std::uint64_t, std::vector<std::string>> kAcked = {
    {0, {"user0000"}},
    {1, {"user0001", "user0002", "user0003"}},
    {2, {"user0004"}},
    {3, {"user0005", "user0006"}},
    {4, {"user0007"}},
};
constexpr std::uint64_t kUnackedSession = 5;

struct Store {
  std::string root;
  std::function<std::string(std::uint64_t)> body_of;
  // Mutations applied while filling the store.
  std::uint64_t drop = UINT64_MAX;         // acked mail never stored
  std::uint64_t corrupt = UINT64_MAX;      // one body byte changed
  bool extra = false;                      // unacked mail stored
  std::uint64_t per_recipient = UINT64_MAX;  // one copy per mailbox
};

// Fills a fresh MFS store and runs the mail check over it.
MailReport Run(const Store& st, std::uint64_t* data_bytes) {
  std::error_code ec;
  fs::remove_all(st.root, ec);
  fs::create_directories(st.root, ec);
  sams::util::Rng rng(42);
  {
    auto store = sams::mfs::MakeMfsStore(st.root);
    if (!store.ok()) {
      std::printf("FAIL  store: %s\n", store.error().ToString().c_str());
      ++failures;
      return {};
    }
    const auto deliver = [&](std::uint64_t s,
                             const std::vector<std::string>& boxes) {
      std::string body = st.body_of(s);
      if (s == st.corrupt) body[body.size() / 2] ^= 0x20;
      if (s == st.per_recipient) {
        for (const std::string& box : boxes) {
          const std::vector<std::string> one = {box};
          (void)(*store)->Deliver(sams::mfs::MailId::Generate(rng), body, one);
        }
        return;
      }
      (void)(*store)->Deliver(sams::mfs::MailId::Generate(rng), body, boxes);
    };
    for (const auto& [s, boxes] : kAcked) {
      if (s != st.drop) deliver(s, boxes);
    }
    if (st.extra) deliver(kUnackedSession, {"user0009"});
  }
  perfbench::MailChecker checker(st.body_of);
  for (std::uint64_t s = 0; s <= kUnackedSession; ++s) checker.Attempted(s);
  for (const auto& [s, boxes] : kAcked) checker.ExpectAck(s, boxes);
  auto bytes = perfbench::ReadStore(st.root, checker);
  *data_bytes = bytes.ok() ? *bytes : 0;
  if (!bytes.ok()) {
    std::printf("FAIL  read: %s\n", bytes.error().ToString().c_str());
    ++failures;
  }
  return checker.Finish();
}

bool Clean(const MailReport& r) { return r.failed.empty() && r.errors.empty(); }

// The verdict a run would print, with no session excused, and with
// session `probe` excused as the duplicate-RCPT probe.
bool Verdict(const MailReport& r, const std::vector<std::string>& errors) {
  return perfbench::Correct(r, errors, [](std::uint64_t) { return false; });
}
bool VerdictWithProbe(const MailReport& r, std::uint64_t probe) {
  return perfbench::Correct(r, {}, [probe](std::uint64_t s) {
    return s == probe;
  });
}

// Server counters consistent with `r`: 120 DNS rounds over 120 /25s,
// 3 retries, 123 daemon queries, and the store's bytes written.
std::map<std::string, double> Counters(const MailReport& r) {
  return {{"store.bytes_written", static_cast<double>(r.single_copy_body_bytes)},
          {"dnsbl.lookups", 1000},
          {"dnsbl.cache_hits", 800},
          {"dnsbl.coalesced", 80},
          {"dnsbl.retries", 3},
          {"server.leftover_sessions", 0}};
}

perfbench::RunCounts Seen(std::uint64_t data_bytes) {
  perfbench::RunCounts seen;
  seen.data_file_bytes = data_bytes;
  seen.daemon_queries = 123;
  seen.distinct_25s = 120;
  return seen;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : ".bench_runs/selftest";
  const perfbench::Workload wl =
      perfbench::MakeWorkload("ham_durable", 7, 64);
  Store st;
  st.root = dir + "/store";
  st.body_of = [&wl](std::uint64_t s) { return perfbench::BodyFor(wl, s); };
  std::uint64_t bytes = 0;

  // The bodies survive the client's dot-stuffing and the server's
  // decoder unchanged, and name their session.
  for (std::uint64_t s = 0; s <= kUnackedSession; ++s) {
    const std::string body = st.body_of(s);
    sams::smtp::DotStuffDecoder decoder;
    const std::string wire = perfbench::DotStuff(body);
    const auto fed = decoder.Feed(wire);
    Expect(fed.finished && fed.consumed == wire.size() &&
               decoder.body() == body &&
               perfbench::SessionOfBody(body) == static_cast<std::int64_t>(s),
           "session " + std::to_string(s) + " body round-trips DATA");
  }

  MailReport r = Run(st, &bytes);
  Expect(Clean(r) && r.stored_mails == kAcked.size() && Verdict(r, {}),
         "mail check passes on a matching store");
  const perfbench::CountReport base =
      perfbench::CheckCounts(r, Seen(bytes), Counters(r));
  Expect(base.errors.empty() && base.duplicate_rounds == 0,
         "count checks pass on matching counts");

  // Each count check, with one input off by one either way.
  struct OffByOne {
    std::string what;
    std::function<void(perfbench::RunCounts&, std::map<std::string, double>&,
                       int)>
        shift;
  };
  const std::vector<OffByOne> shifts = {
      {"data-file bytes (single copy)",
       [](auto& seen, auto&, int d) { seen.data_file_bytes += d; }},
      {"store bytes_written (single copy)",
       [](auto&, auto& server, int d) { server["store.bytes_written"] += d; }},
      {"daemon queries",
       [](auto& seen, auto&, int d) { seen.daemon_queries += d; }},
      {"pipeline retries",
       [](auto&, auto& server, int d) { server["dnsbl.retries"] += d; }},
      {"pipeline cache hits",
       [](auto&, auto& server, int d) { server["dnsbl.cache_hits"] += d; }},
      {"pipeline lookups",
       [](auto&, auto& server, int d) { server["dnsbl.lookups"] += d; }},
      {"pipeline coalesced lookups",
       [](auto&, auto& server, int d) { server["dnsbl.coalesced"] += d; }},
  };
  for (const OffByOne& o : shifts) {
    bool all_fail = true;
    for (const int d : {-1, +1}) {
      perfbench::RunCounts seen = Seen(bytes);
      auto server = Counters(r);
      o.shift(seen, server, d);
      const auto c = perfbench::CheckCounts(r, seen, server);
      all_fail = all_fail && !c.errors.empty() && !Verdict(r, c.errors);
    }
    Expect(all_fail, "count check fails: " + o.what + " off by one");
  }
  {
    perfbench::RunCounts seen = Seen(bytes);
    seen.distinct_25s += 1;  // a /25 that got no DNS round
    const auto c = perfbench::CheckCounts(r, seen, Counters(r));
    Expect(!c.errors.empty() && !Verdict(r, c.errors),
           "DNSBL check fails: a distinct /25 with no round");
    seen.distinct_25s -= 2;  // one /25 got two rounds: counted, not failed
    const auto d = perfbench::CheckCounts(r, seen, Counters(r));
    Expect(d.errors.empty() && d.duplicate_rounds == 1,
           "DNSBL check counts a second round for a /25 without failing");
    auto server = Counters(r);
    server["server.leftover_sessions"] = 1;
    const auto e = perfbench::CheckCounts(r, Seen(bytes), server);
    Expect(!e.errors.empty() && !Verdict(r, e.errors),
           "drain check fails: a session left open");
  }

  Store drop = st;
  drop.drop = 2;
  r = Run(drop, &bytes);
  Expect(r.failed.contains(2) && !Verdict(r, r.errors),
         "mail check fails the run: acknowledged mail removed");
  Expect(VerdictWithProbe(r, 2),
         "the probe's acknowledged-but-unstored mail alone does not");
  Expect(!VerdictWithProbe(r, 3),
         "an unstored mail of any session but the probe fails the run");

  Store corrupt = st;
  corrupt.corrupt = 3;
  r = Run(corrupt, &bytes);
  Expect(r.failed.contains(3) && !Verdict(r, r.errors) &&
             !VerdictWithProbe(r, 3),
         "mail check fails the run: one body byte changed, probe or not");

  Store extra = st;
  extra.extra = true;
  r = Run(extra, &bytes);
  Expect(r.failed.contains(kUnackedSession) && !Verdict(r, r.errors),
         "mail check fails the run: a mail that was never acknowledged");

  Store copies = st;
  copies.per_recipient = 1;
  r = Run(copies, &bytes);
  const perfbench::CountReport c =
      perfbench::CheckCounts(r, Seen(bytes), Counters(r));
  Expect(!c.errors.empty() && !Verdict(r, c.errors),
         "single-copy check fails the run: a mail stored once per recipient");

  perfbench::MailChecker transport(st.body_of);
  transport.Attempted(0);
  transport.Fail(0, "transport: connect");
  r = transport.Finish();
  Expect(!Verdict(r, r.errors) && !VerdictWithProbe(r, 0),
         "a transport error fails the run, probe or not");

  std::error_code ec;
  fs::remove_all(dir, ec);
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}
