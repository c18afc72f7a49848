#include "checks.h"

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "plan.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kRecordPrefixBytes = 4;  // DataFile length prefix
constexpr std::size_t kMaxNotes = 8;

}  // namespace

MailChecker::MailChecker(std::function<std::string(std::uint64_t)> body_of)
    : body_of_(std::move(body_of)) {}

void MailChecker::Attempted(std::uint64_t s) { attempted_.insert(s); }

void MailChecker::ExpectAck(std::uint64_t s,
                            const std::vector<std::string>& mailboxes) {
  ++report_.acked;
  expected_[s].insert(mailboxes.begin(), mailboxes.end());
}

void MailChecker::Fail(std::uint64_t s, const std::string& why) {
  FailSession(s, why);
}

void MailChecker::FailSession(std::uint64_t s, const std::string& why,
                              bool unstored_ack) {
  if (!unstored_ack) report_.failed_otherwise.insert(s);
  if (report_.failed.insert(s).second && report_.notes.size() < kMaxNotes) {
    report_.notes.push_back("session " + std::to_string(s) + ": " + why);
  }
}

void MailChecker::OnStored(const std::string& mailbox,
                           const sams::mfs::MailReadResult& mail) {
  const std::int64_t tagged = SessionOfBody(mail.body);
  if (tagged < 0 || !attempted_.contains(static_cast<std::uint64_t>(tagged))) {
    report_.errors.push_back("mail " + mail.id.str() + " in " + mailbox +
                             " belongs to no session that ran");
    return;
  }
  const auto s = static_cast<std::uint64_t>(tagged);
  const std::string& id = mail.id.str();
  auto [it, fresh] = id_sizes_.emplace(id, mail.body.size());
  if (!fresh && it->second != mail.body.size()) {
    report_.errors.push_back("mail id " + id + " stored with two sizes");
  }
  auto [owner, first_owner] = id_session_.emplace(id, s);
  if (!first_owner && owner->second != s) {
    report_.errors.push_back("mail id " + id + " shared by two sessions");
  }

  const auto exp = expected_.find(s);
  if (exp == expected_.end() || !exp->second.contains(mailbox)) {
    FailSession(s, "stored in " + mailbox + " without a 250 for it");
    return;
  }
  if (!stored_.emplace(std::make_pair(s, mailbox), Seen{id, mail.body.size()})
           .second) {
    FailSession(s, "stored twice in " + mailbox);
    return;
  }
  if (mail.body != body_of_(s)) {
    FailSession(s, "body in " + mailbox + " differs from the body sent");
  }
}

MailReport MailChecker::Finish() {
  for (const auto& [s, boxes] : expected_) {
    const std::string* id = nullptr;
    for (const std::string& box : boxes) {
      const auto it = stored_.find({s, box});
      if (it == stored_.end()) {
        FailSession(s, "acknowledged but missing from " + box,
                    /*unstored_ack=*/true);
        continue;
      }
      // One mail, one id, in every recipient's mailbox.
      if (id != nullptr && *id != it->second.id) {
        FailSession(s, "stored under two ids");
      }
      id = &it->second.id;
    }
  }
  std::set<std::string> failed_ids;
  for (const auto& [id, s] : id_session_) {
    if (report_.failed.contains(s)) failed_ids.insert(id);
  }
  for (const auto& [s, boxes] : expected_) {
    if (report_.failed.contains(s)) continue;
    ++report_.stored_mails;
    report_.stored_bytes += stored_.at({s, *boxes.begin()}).size;
  }
  report_.distinct_ids = id_sizes_.size();
  report_.failed_ids = failed_ids.size();
  // Single copy: each session's mail is one record, whatever the
  // number of mailboxes it reached.
  std::map<std::uint64_t, std::size_t> session_size;
  for (const auto& [key, seen] : stored_) session_size.emplace(key.first, seen.size);
  for (const auto& [s, size] : session_size) {
    report_.single_copy_body_bytes += size;
    report_.single_copy_bytes += kRecordPrefixBytes + size;
  }
  // Acked mails (apart from failed sessions) = distinct stored mails
  // (apart from those of failed sessions).
  std::uint64_t acked_ok = 0;
  for (const auto& [s, boxes] : expected_) {
    if (!report_.failed.contains(s)) ++acked_ok;
  }
  if (acked_ok != report_.distinct_ids - report_.failed_ids) {
    report_.errors.push_back(
        "acknowledged mails " + std::to_string(acked_ok) +
        " != distinct stored mails " +
        std::to_string(report_.distinct_ids - report_.failed_ids));
  }
  return report_;
}

sams::util::Result<std::uint64_t> ReadStore(const std::string& root,
                                            MailChecker& checker) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<std::string> boxes;
  std::uint64_t data_bytes = 0;
  for (const auto& entry : fs::directory_iterator(root + "/boxes", ec)) {
    const fs::path& p = entry.path();
    if (p.extension() == ".key") boxes.push_back(p.stem().string());
    if (p.extension() == ".dat") data_bytes += fs::file_size(p, ec);
  }
  if (ec) {
    return sams::util::IoError("listing " + root + "/boxes: " + ec.message());
  }
  if (fs::exists(root + "/shared.dat")) {
    data_bytes += fs::file_size(root + "/shared.dat", ec);
  }
  auto volume = sams::mfs::MfsVolume::Open(root);
  if (!volume.ok()) return volume.error();
  for (const std::string& box : boxes) {
    auto handle = (*volume)->MailOpen(box, "r");
    if (!handle.ok()) return handle.error();
    for (;;) {
      auto mail = (*volume)->MailRead(**handle);
      if (!mail.ok()) {
        if (mail.error().code() == sams::util::ErrorCode::kOutOfRange) break;
        return mail.error();
      }
      checker.OnStored(box, *mail);
    }
    (*volume)->MailClose(std::move(*handle));
  }
  return data_bytes;
}

CountReport CheckCounts(const MailReport& mail, const RunCounts& seen,
                        const std::map<std::string, double>& server) {
  const auto stat = [&server](const char* key) {
    const auto it = server.find(key);
    return it == server.end() ? 0 : static_cast<std::uint64_t>(it->second);
  };
  const auto n = [](std::uint64_t v) { return std::to_string(v); };
  CountReport out;
  if (seen.data_file_bytes != mail.single_copy_bytes) {
    out.errors.push_back("data files hold " + n(seen.data_file_bytes) +
                         " bytes, single copy means " +
                         n(mail.single_copy_bytes));
  }
  if (stat("store.bytes_written") != mail.single_copy_body_bytes) {
    out.errors.push_back("store reports " + n(stat("store.bytes_written")) +
                         " body bytes written, the mails read back hold " +
                         n(mail.single_copy_body_bytes));
  }
  const std::uint64_t retries = stat("dnsbl.retries");
  const std::uint64_t rounds =
      stat("dnsbl.lookups") - stat("dnsbl.cache_hits") - stat("dnsbl.coalesced");
  if (seen.daemon_queries != rounds + retries || rounds < seen.distinct_25s) {
    out.errors.push_back("DNSBL daemon received " + n(seen.daemon_queries) +
                         " queries for " + n(rounds) + " rounds over " +
                         n(seen.distinct_25s) + " distinct /25s and " +
                         n(retries) + " retries");
  }
  out.duplicate_rounds = rounds - std::min(rounds, seen.distinct_25s);
  if (stat("server.leftover_sessions") > 0) {
    out.errors.push_back("server drained with sessions still open");
  }
  return out;
}

bool Correct(const MailReport& mail, const std::vector<std::string>& errors,
             const std::function<bool(std::uint64_t)>& excused) {
  if (!errors.empty() || !mail.failed_otherwise.empty()) return false;
  for (const std::uint64_t s : mail.failed) {
    if (!excused(s)) return false;
  }
  return true;
}

}  // namespace perfbench
