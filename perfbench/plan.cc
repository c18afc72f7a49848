#include "plan.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "loadgen/workload.h"
#include "trace/sinkhole.h"
#include "trace/univ.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using sams::util::Rng;

constexpr int kMailboxes = 1024;  // > the MFS fd cache (128 boxes)
constexpr int kHamRelays = 8;     // ham_durable: a few stable relays
constexpr std::uint32_t kSourceBase = 0x7F010000;  // 127.1.0.0
constexpr std::uint64_t kMaxSessions = 0x00FE0000;  // stays below 127.255/16
// Sessions per epoch: 32 rounds. An epoch takes five to six seconds on
// today's server with two sending MTAs, so a 30 s run's median is over
// five epochs.
constexpr std::size_t kSpamEpoch = 63 * 32;
constexpr std::size_t kHamEpoch = 64 * 32;

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a * 0x9E3779B97F4A7C15ULL ^ (b + 0x632BE59BD9B4E019ULL);
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 29;
  return x;
}

// The choices for an epoch's spam /24s. They are fixed, like the slices:
// the rate hangs on how many pipelined dialogs pass the gate (see
// README), and when the seed made these choices, per /24 or balanced
// as below, it moved that count by up to 15 % between seeds.
//
// - Listing: half the spam /24s, by whole /24, and never one in
//   `never_list`. Less than all of them, so part of the spam passes the
//   gate and is stored. By whole /24 because the reputation gate lets a
//   listed host through once its /24 has banked ham credit from
//   accepted neighbours, which makes the "no listed sender
//   acknowledged" check fail on a timing-dependent share of sessions
//   (see CHANGES.md). The /24s are ranked by their sessions in the
//   epoch and paired off down the ranking; the seed lists one of each
//   pair (by a hash), so the listed half carries half the sessions,
//   give or take the smaller of a pair.
// - Pipelining: each /24's spam dialogs alternate pipelined and
//   lockstep in replay order, a hash picking which comes first, so
//   half of them are pipelined (WorkloadConfig::spam_pipeline_frac).
class SpamChoices {
 public:
  static constexpr std::uint64_t kSeed = 20090622;  // ICDCS 2009

  SpamChoices(std::uint64_t seed,
              const std::vector<sams::trace::SessionSpec>& slice,
              const std::unordered_set<std::uint32_t>& never_list)
      : seed_(seed) {
    std::unordered_map<std::uint32_t, std::size_t> sessions;
    for (const sams::trace::SessionSpec& spec : slice) {
      const std::uint32_t net = spec.client_ip.value() >> 8;
      if (!never_list.contains(net)) ++sessions[net];
    }
    std::vector<std::pair<std::size_t, std::uint32_t>> ranked;
    for (const auto& [net, n] : sessions) ranked.emplace_back(n, net);
    std::sort(ranked.begin(), ranked.end(), std::greater<>());
    for (std::size_t i = 0; i < ranked.size(); i += 2) {
      const std::size_t pick = i + (Mix(seed, i) & 1);
      listed_.insert(ranked[std::min(pick, ranked.size() - 1)].second);
    }
  }

  bool Listed(Ipv4 ip) const { return listed_.contains(ip.value() >> 8); }

  bool NextPipelined(Ipv4 ip) {
    const std::uint32_t net = ip.value() >> 8;
    auto [it, fresh] = next_pipelined_.try_emplace(net, false);
    if (fresh) it->second = (Mix(seed_ ^ 0x5bd1e995, net) & 1) != 0;
    const bool pipelined = it->second;
    it->second = !pipelined;
    return pipelined;
  }

 private:
  std::uint64_t seed_;
  std::unordered_set<std::uint32_t> listed_;
  std::unordered_map<std::uint32_t, bool> next_pipelined_;
};

std::uint32_t LogNormalBytes(Rng& rng, double mu, double sigma) {
  const sams::loadgen::WorkloadConfig shape;
  const double v = std::min(static_cast<double>(shape.max_body_bytes),
                            rng.LogNormal(mu, sigma));
  return static_cast<std::uint32_t>(std::max(256.0, v));
}

std::uint32_t SpamBytes(Rng& rng) {
  const sams::loadgen::WorkloadConfig shape;
  return LogNormalBytes(rng, shape.spam_size_mu, shape.spam_size_sigma);
}

std::uint32_t HamBytes(Rng& rng) {
  const sams::loadgen::WorkloadConfig shape;
  return LogNormalBytes(rng, shape.ham_size_mu, shape.ham_size_sigma);
}

// `n` distinct valid recipients (a mail names each mailbox once).
std::vector<std::string> DistinctRcpts(Rng& rng, const Workload& wl, int n) {
  std::vector<std::string> out;
  std::unordered_set<std::int64_t> taken;
  const auto boxes = static_cast<std::int64_t>(wl.mailboxes.size());
  n = std::min<int>(n, static_cast<int>(boxes));
  while (static_cast<int>(out.size()) < n) {
    const std::int64_t pick = rng.UniformInt(0, boxes - 1);
    if (!taken.insert(pick).second) continue;
    out.push_back(wl.mailboxes[static_cast<std::size_t>(pick)] + "@" +
                  wl.domain);
  }
  return out;
}

Plan SpamPlan(Rng& rng, const Workload& wl, SpamChoices& choices, Ipv4 ip,
              int n_rcpts, std::uint64_t serial) {
  Plan p;
  p.kind = Kind::kSpam;
  p.pipelined = choices.NextPipelined(ip);
  p.client_ip = ip;
  p.listed = choices.Listed(ip);
  p.helo = ip.ToString();  // bare-IP HELO, the classic bot tell
  p.mail_from = "promo" + std::to_string(serial) + "@storm.example";
  p.rcpts = DistinctRcpts(rng, wl, n_rcpts);
  return p;
}

Plan HamPlan(Rng& rng, const Workload& wl, Ipv4 ip, int n_rcpts,
             std::uint64_t serial) {
  Plan p;
  p.kind = Kind::kHam;
  p.client_ip = ip;
  p.helo = "relay" + std::to_string(ip.value() % 997) + ".ham.example";
  p.mail_from = "news" + std::to_string(serial) + "@ham.example";
  p.rcpts = DistinctRcpts(rng, wl, n_rcpts);
  return p;
}

// `n` sessions from trace[begin, end). One contiguous slice of a few
// seconds' traffic covers a handful of spam campaigns, and campaigns
// differ a lot (botnet size, listed share, /24 density), so an epoch
// replays chunks of kChunk sessions from regions spread evenly over the
// trace instead, each in order from the start of its region. The
// slices do not depend on the seed: how many campaign starts (new /24s,
// which the reputation gate greylists) they hold sets the rate more
// than the server does.
std::vector<sams::trace::SessionSpec> Slice(
    const std::vector<sams::trace::SessionSpec>& trace, std::size_t begin,
    std::size_t n) {
  constexpr std::size_t kChunk = 128;
  const std::size_t span = trace.size() - begin;
  const std::size_t region = span / ((n + kChunk - 1) / kChunk);
  std::vector<sams::trace::SessionSpec> out;
  out.reserve(n);
  for (std::size_t start = 0; out.size() < n; start += region) {
    for (std::size_t i = 0; i < kChunk && out.size() < n; ++i) {
      out.push_back(trace[begin + (start + i) % span]);
    }
  }
  return out;
}

// The sinkhole trace at its published size (Table 1); the seed picks
// the recipients and the bodies' contents and order of sizes, not the
// botnet population, the slices, the listed /24s or the pipelined
// dialogs.
void BuildSinkhole(Workload& wl, std::size_t n) {
  const sams::trace::SinkholeModel model{sams::trace::SinkholeConfig{}};
  Rng rng(Mix(wl.seed, 11));
  const std::vector<sams::trace::SessionSpec> slice =
      Slice(model.sessions(), 0, n);
  SpamChoices choices(SpamChoices::kSeed, slice, {});
  wl.plans.reserve(n);
  std::unordered_set<Ipv4> listed;
  for (const sams::trace::SessionSpec& spec : slice) {
    Plan p = SpamPlan(rng, wl, choices, spec.client_ip, spec.n_rcpts,
                      wl.plans.size());
    if (p.listed) listed.insert(p.client_ip);
    wl.plans.push_back(std::move(p));
  }
  wl.listed.assign(listed.begin(), listed.end());
}

// The university trace at 1/16 of its published size, same mix and
// population density. Slices start after the model's opening stretch,
// in which every spam address appears once so that the unique-IP count
// of Table 1 is met; that stretch has no address reuse at all.
void BuildUniv(Workload& wl, std::size_t n) {
  constexpr std::size_t kScale = 16;
  sams::trace::UnivConfig cfg;
  cfg.n_connections /= kScale;
  cfg.n_spam_ips /= kScale;
  cfg.n_ham_ips /= kScale;
  const sams::trace::UnivModel model(cfg);
  const auto& trace = model.sessions();
  std::unordered_set<Ipv4> seen;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (seen.insert(trace[i].client_ip).second) begin = i + 1;
    if (seen.size() >= cfg.n_spam_ips + cfg.n_ham_ips) break;
  }
  // A /24 that holds a ham relay is never listed (see SpamChoices).
  std::unordered_set<std::uint32_t> ham_nets;
  for (const sams::trace::SessionSpec& spec : trace) {
    if (!spec.is_spam) ham_nets.insert(spec.client_ip.value() >> 8);
  }
  const std::vector<sams::trace::SessionSpec> slice = Slice(trace, begin, n);
  SpamChoices choices(SpamChoices::kSeed, slice, ham_nets);
  const auto listed_spam = [&](Ipv4 ip) { return choices.Listed(ip); };
  Rng rng(Mix(wl.seed, 12));
  wl.plans.reserve(n);
  std::unordered_set<Ipv4> listed;
  for (const sams::trace::SessionSpec& spec : slice) {
    const std::uint64_t serial = wl.plans.size();
    Plan p;
    switch (spec.kind) {
      case sams::trace::SessionKind::kUnfinished:
        p.kind = Kind::kUnfinished;
        p.client_ip = spec.client_ip;
        p.listed = listed_spam(spec.client_ip);
        p.helo = spec.client_ip.ToString();
        break;
      case sams::trace::SessionKind::kBounce:
        // Random-guessing spam: every RCPT names a mailbox that does
        // not exist, so the dialog ends at 550s and never sends DATA.
        p.kind = Kind::kBounce;
        p.client_ip = spec.client_ip;
        p.listed = listed_spam(spec.client_ip);
        p.helo = spec.client_ip.ToString();
        p.mail_from = "promo" + std::to_string(serial) + "@storm.example";
        for (int i = 0; i < spec.n_rcpts; ++i) {
          p.rcpts.push_back("guess" + std::to_string(rng.UniformInt(0, 99999)) +
                            "@" + wl.domain);
        }
        break;
      case sams::trace::SessionKind::kNormal:
        p = spec.is_spam
                ? SpamPlan(rng, wl, choices, spec.client_ip, spec.n_rcpts,
                           serial)
                : HamPlan(rng, wl, spec.client_ip, spec.n_rcpts, serial);
        p.listed = spec.is_spam && listed_spam(spec.client_ip);
        break;
    }
    if (p.listed) listed.insert(p.client_ip);
    wl.plans.push_back(std::move(p));
  }
  wl.listed.assign(listed.begin(), listed.end());
}

// Body sizes. Each kind's sizes are one fixed draw from its log-normal,
// and the seed deals them out to that kind's sessions: with sizes drawn
// per seed, the heavy ham tail moved univ's stored MB/s by 11.5 % of
// the median over ten seeds.
void DealBodySizes(Workload& wl) {
  Rng fixed(SpamChoices::kSeed);
  Rng deal(Mix(wl.seed, 14));
  for (const Kind kind : {Kind::kSpam, Kind::kHam}) {
    std::vector<Plan*> plans;
    for (Plan& p : wl.plans) {
      if (p.kind == kind) plans.push_back(&p);
    }
    for (std::size_t i = plans.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          deal.UniformInt(0, static_cast<std::int64_t>(i) - 1));
      std::swap(plans[i - 1], plans[j]);
    }
    for (Plan* p : plans) {
      p->body_bytes = kind == Kind::kSpam ? SpamBytes(fixed) : HamBytes(fixed);
    }
  }
}

void BuildHamDurable(Workload& wl, std::size_t n) {
  Rng rng(Mix(wl.seed, 13));
  std::vector<Ipv4> relays;
  std::unordered_set<std::uint32_t> halves;  // one relay per /25
  while (static_cast<int>(relays.size()) < kHamRelays) {
    const auto a = static_cast<std::uint8_t>(rng.UniformInt(1, 223));
    if (a == 10 || a == 127) continue;
    const Ipv4 ip(a, static_cast<std::uint8_t>(rng.UniformInt(0, 255)),
                  static_cast<std::uint8_t>(rng.UniformInt(0, 255)),
                  static_cast<std::uint8_t>(rng.UniformInt(1, 254)));
    if (halves.insert(ip.value() >> 7).second) relays.push_back(ip);
  }
  wl.plans.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Ipv4 ip = relays[static_cast<std::size_t>(
        rng.UniformInt(0, kHamRelays - 1))];
    // One or two recipients, the WorkloadModel ham shape.
    wl.plans.push_back(HamPlan(rng, wl, ip, rng.Bernoulli(0.25) ? 2 : 1, i));
  }
}

constexpr char kPattern[] =
    "Lorem ipsum dolor sit amet, consectetur adipiscing elit, sed do "
    "eiusmod tempor incididunt ut labore et dolore magna aliqua. Ut enim "
    "ad minim veniam, quis nostrud exercitation ullamco laboris nisi ut "
    "aliquip ex ea commodo consequat. Duis aute irure dolor in reprehen"
    "derit in voluptate velit esse cillum dolore eu fugiat nulla pariatur";

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"sinkhole", "univ",
                                                 "ham_durable"};
  return names;
}

std::size_t EpochSessions(const std::string& name) {
  return name == "ham_durable" ? kHamEpoch : kSpamEpoch;
}

std::uint64_t Workload::size() const {
  return plans.size() / round_seeded * round_size();
}

const Plan& Workload::At(std::uint64_t s) const {
  const std::uint64_t round = s / round_size();
  const std::uint64_t pos = s % round_size();
  if (pos == round_seeded) return probe_plan;
  return plans[round * round_seeded + pos];
}

Workload MakeWorkload(const std::string& name, std::uint64_t seed,
                      std::size_t sessions) {
  Workload wl;
  wl.name = name;
  wl.seed = seed;
  for (int i = 0; i < kMailboxes; ++i) {
    char box[16];
    std::snprintf(box, sizeof(box), "user%04d", i);
    wl.mailboxes.emplace_back(box);
  }
  if (name == "sinkhole") {
    wl.round_seeded = 63;
    wl.probe = true;
    BuildSinkhole(wl, sessions);
  } else if (name == "univ") {
    wl.round_seeded = 63;
    wl.probe = true;
    BuildUniv(wl, sessions);
  } else if (name == "ham_durable") {
    wl.round_seeded = 64;
    BuildHamDurable(wl, sessions);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", name.c_str());
    std::abort();
  }
  DealBodySizes(wl);
  // The probe: a well-behaved relay that names one mailbox twice. Its
  // inputs do not depend on the seed.
  Plan& probe = wl.probe_plan;
  probe.kind = Kind::kProbe;
  probe.client_ip = Ipv4(192, 0, 2, 25);
  probe.helo = "probe.perfbench.test";
  probe.mail_from = "probe@perfbench.test";
  probe.rcpts = {wl.mailboxes[0] + "@" + wl.domain,
                 wl.mailboxes[0] + "@" + wl.domain};
  probe.body_bytes = 600;
  return wl;
}

std::string BodyFor(const Workload& wl, std::uint64_t s) {
  const Plan& p = wl.At(s);
  if (p.body_bytes == 0) return {};
  Rng rng(Mix(p.kind == Kind::kProbe ? 0 : wl.seed, s));
  std::string body = "Message-ID: <" + std::to_string(s) + "." + wl.name +
                     "@perfbench.test>\r\nFrom: <" + p.mail_from +
                     ">\r\nSubject: session " + std::to_string(s) +
                     "\r\n\r\n";
  body.reserve(p.body_bytes + 96);
  constexpr std::size_t kPatternLen = sizeof(kPattern) - 1;
  while (body.size() < p.body_bytes) {
    // Every 16th line or so starts with '.', so DATA carries
    // dot-stuffing for the decoder to undo.
    if (rng.UniformInt(0, 15) == 0) body.push_back('.');
    const auto len = static_cast<std::size_t>(rng.UniformInt(20, 76));
    const auto off =
        static_cast<std::size_t>(rng.UniformInt(0, kPatternLen - len));
    body.append(kPattern + off, len);
    body.append("\r\n");
  }
  return body;
}

std::int64_t SessionOfBody(std::string_view body) {
  static constexpr std::string_view kTag = "Message-ID: <";
  if (body.substr(0, kTag.size()) != kTag) return -1;
  std::int64_t s = 0;
  std::size_t i = kTag.size();
  if (i >= body.size() || body[i] < '0' || body[i] > '9') return -1;
  for (; i < body.size() && body[i] >= '0' && body[i] <= '9'; ++i) {
    if (s > (INT64_MAX - 9) / 10) return -1;
    s = s * 10 + (body[i] - '0');
  }
  return i < body.size() && body[i] == '.' ? s : -1;
}

std::string DotStuff(std::string_view body) {
  std::string out;
  out.reserve(body.size() + body.size() / 32 + 3);
  bool line_start = true;
  for (const char c : body) {
    if (line_start && c == '.') out.push_back('.');
    out.push_back(c);
    line_start = c == '\n';
  }
  out.append(".\r\n");
  return out;
}

Ipv4 SourceAddress(std::uint64_t s) {
  return Ipv4(kSourceBase + static_cast<std::uint32_t>(s) + 1);
}

bool SessionOfSource(Ipv4 source, std::uint64_t* s) {
  const std::uint32_t v = source.value();
  if (v <= kSourceBase || v - kSourceBase - 1 >= kMaxSessions) return false;
  *s = v - kSourceBase - 1;
  return true;
}

}  // namespace perfbench
