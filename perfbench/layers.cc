#include "layers.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <memory>

#include "dnsbl/concurrent_cache.h"
#include "mfs/mail_id.h"
#include "mfs/store.h"
#include "mta/recipient_db.h"
#include "rep/reputation.h"
#include "smtp/dotstuff.h"
#include "smtp/server_session.h"
#include "util/fd.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/time.h"

namespace perfbench {
namespace {

// Replay sample caps: enough samples for a p99, small enough that the
// traced run stays within its time budget.
constexpr std::size_t kMaxReplaySessions = 20'000;
constexpr std::size_t kMaxDotstuffBytes = 32u << 20;
constexpr std::size_t kMaxDeliveries = 1'500;

// Stages the live server records spans for. The stage enum also has
// dnsbl and store_write, but only the simulator records those; their
// cost shows as dnsbl.rcpt_wait_p99_ms and mfs.deliver_us_*.
constexpr const char* kStages[] = {"accept", "banner",  "helo",
                                   "mail",   "rcpt",    "handoff",
                                   "data",   "delivery"};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::int64_t Now() { return sams::util::MonotonicNanos(); }

// Sessions of the run that did not fail, capped for the replays.
std::vector<std::uint64_t> ReplaySessions(const LayerInputs& in) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t s = 0; s < in.run->attempted; ++s) {
    if (out.size() >= kMaxReplaySessions) break;
    if (in.run->logs[s].ran && !in.failed->contains(s)) out.push_back(s);
  }
  return out;
}

std::string CommandBytes(const Plan& p) {
  std::string bytes = "HELO " + p.helo + "\r\n";
  if (p.kind != Kind::kUnfinished) {
    bytes += "MAIL FROM:<" + p.mail_from + ">\r\n";
    for (const std::string& r : p.rcpts) bytes += "RCPT TO:<" + r + ">\r\n";
  }
  return bytes + "QUIT\r\n";
}

// smtp.dialog_us_per_session, plus each session's real handoff payload
// (ServerSession::SerializeHandoff at its first valid RCPT).
double DialogReplay(const LayerInputs& in,
                    const std::vector<std::uint64_t>& sessions,
                    std::vector<std::string>* payloads) {
  sams::mta::RecipientDb db;
  for (const std::string& box : in.wl->mailboxes) db.AddMailbox(box, in.wl->domain);
  const auto run = [&](bool collect) {
    std::int64_t total = 0;
    for (const std::uint64_t s : sessions) {
      const Plan& p = in.wl->At(s);
      const std::string bytes = CommandBytes(p);
      sams::smtp::ServerSession::Hooks hooks;
      hooks.send = [](std::string) { return true; };
      hooks.validate_rcpt = [&db](const sams::smtp::Address& a) {
        return db.IsValid(a);
      };
      sams::smtp::ServerSession* self = nullptr;
      if (collect) {
        hooks.on_first_valid_rcpt = [&] {
          auto payload = self->SerializeHandoff();
          if (payload.ok()) payloads->push_back(std::move(*payload));
        };
      }
      const std::int64_t t0 = Now();
      sams::smtp::ServerSession session({}, std::move(hooks),
                                        SourceAddress(s).ToString());
      self = &session;
      session.Start();
      session.Feed(bytes);
      total += Now() - t0;
    }
    return total;
  };
  run(true);
  return Ratio(static_cast<double>(run(false)) / 1e3,
               static_cast<double>(sessions.size()));
}

// smtp.dotstuff_ns_per_byte over the DATA payloads the run sent.
double DotstuffReplay(const LayerInputs& in,
                      const std::vector<std::uint64_t>& sessions) {
  std::vector<std::string> wires;
  std::size_t bytes = 0;
  for (const std::uint64_t s : sessions) {
    if (in.run->logs[s].data_code != 354) continue;
    wires.push_back(DotStuff(BodyFor(*in.wl, s)));
    bytes += wires.back().size();
    if (bytes >= kMaxDotstuffBytes) break;
  }
  std::int64_t total = 0;
  std::size_t decoded = 0;
  for (const std::string& wire : wires) {
    sams::smtp::DotStuffDecoder decoder(
        sams::smtp::DotStuffDecoder::kDefaultMaxLineBytes);
    const std::int64_t t0 = Now();
    decoder.Feed(wire);
    total += Now() - t0;
    decoded += decoder.body().size();
  }
  return decoded > 0 ? Ratio(static_cast<double>(total),
                             static_cast<double>(bytes))
                     : 0.0;
}

// rep.evaluate_us over (address, dialog features) at the first RCPT.
double ReputationReplay(const LayerInputs& in,
                        const std::vector<std::uint64_t>& sessions) {
  sams::rep::RepConfig cfg;
  cfg.enabled = true;
  sams::rep::ReputationEngine engine(cfg);
  std::int64_t total = 0;
  std::size_t calls = 0;
  for (const std::uint64_t s : sessions) {
    const Plan& p = in.wl->At(s);
    if (p.rcpts.empty()) continue;
    sams::rep::DialogFeatures f;
    f.dnsbl_listed = p.listed;
    f.pipelined = p.pipelined ? static_cast<std::uint32_t>(p.rcpts.size() + 2)
                              : 0;
    f.helo_bare_ip = sams::util::Ipv4::Parse(p.helo).has_value();
    const std::int64_t now = static_cast<std::int64_t>(s) * 1'000'000;
    const std::int64_t t0 = Now();
    (void)engine.Evaluate(p.client_ip, f, p.mail_from, p.rcpts[0], now);
    total += Now() - t0;
    ++calls;
  }
  return Ratio(static_cast<double>(total) / 1e3, static_cast<double>(calls));
}

// dnsbl.cache_lookup_ns: Lookup (and Insert on a miss) per address.
double CacheReplay(const LayerInputs& in,
                   const std::vector<std::uint64_t>& sessions) {
  sams::dnsbl::ConcurrentPrefixCache cache(1u << 16,
                                           24LL * 3600 * 1'000'000'000);
  const sams::dnsbl::PrefixBitmap bitmap;
  std::int64_t total = 0;
  std::size_t ops = 0;
  const std::int64_t now = 1'000'000'000;
  for (const std::uint64_t s : sessions) {
    const sams::util::Prefix25 prefix(in.wl->At(s).client_ip);
    const std::int64_t t0 = Now();
    if (!cache.Lookup(prefix, now)) {
      cache.Insert(prefix, bitmap, now);
      ++ops;
    }
    total += Now() - t0;
    ++ops;
  }
  return Ratio(static_cast<double>(total), static_cast<double>(ops));
}

// util.fd_handoff_us: SendFdWithPayload + RecvFdWithPayload round trip.
double FdHandoffReplay(const std::vector<std::string>& payloads) {
  int pair[2];
  if (payloads.empty() ||
      ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, pair) != 0) {
    return 0.0;
  }
  const sams::util::UniqueFd a(pair[0]);
  const sams::util::UniqueFd b(pair[1]);
  const sams::util::UniqueFd passed(::open("/dev/null", O_RDONLY | O_CLOEXEC));
  std::int64_t total = 0;
  std::size_t trips = 0;
  for (const std::string& payload : payloads) {
    const std::int64_t t0 = Now();
    if (!sams::util::SendFdWithPayload(a.get(), passed.get(), payload).ok()) {
      break;
    }
    auto got = sams::util::RecvFdWithPayload(b.get());
    total += Now() - t0;
    if (!got.ok()) break;
    ++trips;
  }
  return Ratio(static_cast<double>(total) / 1e3, static_cast<double>(trips));
}

// mfs.deliver_us_p50/_p99: DeliverParts on a fresh store, same
// durability, with the run's acknowledged bodies and recipient lists.
void DeliverReplay(const LayerInputs& in, std::vector<LayerMetric>& out) {
  namespace fs = std::filesystem;
  const std::string root = in.scratch_dir + "/mfs-replay";
  std::error_code ec;
  fs::remove_all(root, ec);
  const sams::mfs::StoreOptions opts = StoreOptionsFor(in.durability);
  sams::util::Sampler us;
  {
    auto store = sams::mfs::MakeMfsStore(root, opts);
    if (store.ok()) {
      sams::util::Rng rng(in.wl->seed);
      for (std::uint64_t s = 0; s < in.run->attempted; ++s) {
        if (us.count() >= kMaxDeliveries) break;
        const SessionLog& log = in.run->logs[s];
        if (log.body_code != 250 || in.failed->contains(s)) continue;
        const std::vector<std::string> boxes =
            AcceptedMailboxes(in.wl->At(s), log);
        const std::string body = BodyFor(*in.wl, s);
        const std::string_view parts[] = {body};
        const auto id = sams::mfs::MailId::Generate(rng);
        const std::int64_t t0 = Now();
        const auto err = (*store)->DeliverParts(id, parts, boxes);
        const std::int64_t t1 = Now();
        if (err.ok()) us.Add(static_cast<double>(t1 - t0) / 1e3);
      }
    }
  }
  fs::remove_all(root, ec);
  out.push_back({"mfs.deliver_us_p50", us.Percentile(50), "us"});
  out.push_back({"mfs.deliver_us_p99", us.Percentile(99), "us"});
}

}  // namespace

std::vector<LayerMetric> PerLayerMetrics(const LayerInputs& in) {
  const ServerReport& sr = *in.server;
  const double sessions = static_cast<double>(in.run->attempted);
  std::vector<LayerMetric> out;
  for (const char* stage : kStages) {
    const std::string key = std::string("stage.") + stage;
    out.push_back({std::string("mta.stage.") + stage + ".p50_ms",
                   sr.Get(key + ".p50_ms"), "ms"});
    out.push_back({std::string("mta.stage.") + stage + ".p99_ms",
                   sr.Get(key + ".p99_ms"), "ms"});
  }
  double untraced_cpu = 0;
  for (const LayerMetric& m : in.untraced) {
    out.push_back(m);
    if (m.name == "mta.server_cpu_us_per_session") untraced_cpu = m.value;
  }
  out.push_back({"mta.handoffs_per_session",
                 Ratio(sr.Get("server.delegations"), sessions), "1/session"});
  out.push_back({"mta.pretrust_closed_per_session",
                 Ratio(sr.Get("server.master_closed"), sessions),
                 "1/session"});

  const std::vector<std::uint64_t> replay = ReplaySessions(in);
  std::vector<std::string> payloads;
  out.push_back({"smtp.dialog_us_per_session",
                 DialogReplay(in, replay, &payloads), "us"});
  out.push_back({"smtp.dotstuff_ns_per_byte", DotstuffReplay(in, replay),
                 "ns/B"});
  out.push_back({"rep.evaluate_us", ReputationReplay(in, replay), "us"});
  const double gates = sr.Get("rep.evaluations");
  out.push_back({"rep.reject_per_gate", Ratio(sr.Get("rep.rejects"), gates),
                 "ratio"});
  out.push_back({"rep.greylist_per_gate",
                 Ratio(sr.Get("rep.greylists"), gates), "ratio"});

  const double lookups = sr.Get("dnsbl.lookups");
  out.push_back({"dnsbl.cache_hit_ratio",
                 Ratio(sr.Get("dnsbl.cache_hits"), lookups), "ratio"});
  out.push_back({"dnsbl.coalesced_per_lookup",
                 Ratio(sr.Get("dnsbl.coalesced"), lookups), "ratio"});
  out.push_back({"dnsbl.rcpt_wait_p99_ms", sr.Get("dnsbl.rcpt_wait_p99_ms"),
                 "ms"});
  out.push_back({"dnsbl.cache_lookup_ns", CacheReplay(in, replay), "ns"});
  out.push_back({"util.fd_handoff_us", FdHandoffReplay(payloads), "us"});

  DeliverReplay(in, out);
  const double mails = sr.Get("store.mails_delivered");
  out.push_back({"mfs.fsyncs_per_mail", Ratio(sr.Get("store.fsyncs"), mails),
                 "1/mail"});
  out.push_back({"mfs.commit_batch_mean",
                 Ratio(sr.Get("commit.commits"), sr.Get("commit.flushes")),
                 "mails"});
  out.push_back({"mfs.bytes_written_per_logical_byte",
                 Ratio(sr.Get("store.bytes_written"),
                       sr.Get("store.bytes_logical")),
                 "ratio"});
  const double hits = sr.Get("mfs.fd_cache_hits");
  out.push_back({"mfs.fd_cache_hit_ratio",
                 Ratio(hits, hits + sr.Get("mfs.fd_cache_misses")), "ratio"});

  out.push_back({"loadgen.cpu_us_per_session",
                 Ratio(in.run->cpu_us, sessions), "us"});
  out.push_back({"obs.trace_overhead_share",
                 Ratio(in.traced_cpu_us_per_session - untraced_cpu,
                       untraced_cpu),
                 "ratio"});
  return out;
}

}  // namespace perfbench
