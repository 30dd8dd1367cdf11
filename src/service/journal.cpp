#include "service/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "util/failpoint.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace fta::service {

namespace {

constexpr char kJournalFile[] = "journal.log";
constexpr char kSnapshotFile[] = "snapshot.bin";
constexpr char kSnapshotTmpFile[] = "snapshot.tmp";
/// Sanity cap on a single record: anything larger is treated as
/// corruption, not as a 4 GiB allocation request from a flipped bit.
constexpr std::uint32_t kMaxRecordBytes = 64u << 20;

// CRC-32 (IEEE 802.3, reflected), table-driven.
std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

std::uint32_t crc32(std::string_view data) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xffffffffu;
  for (const char ch : data) {
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xffu));
  out.push_back(static_cast<char>((v >> 8) & 0xffu));
  out.push_back(static_cast<char>((v >> 16) & 0xffu));
  out.push_back(static_cast<char>((v >> 24) & 0xffu));
}

std::uint32_t read_u32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(u[0]) |
         (static_cast<std::uint32_t>(u[1]) << 8) |
         (static_cast<std::uint32_t>(u[2]) << 16) |
         (static_cast<std::uint32_t>(u[3]) << 24);
}

std::string frame(const std::string& payload) {
  std::string out;
  out.reserve(payload.size() + 8);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, crc32(payload));
  out += payload;
  return out;
}

std::string put_payload(const JournalEntry& e) {
  std::string s = "{\"op\":\"put\",\"id\":\"" + util::json_escape(e.id) +
                  "\",\"tenant\":\"" + util::json_escape(e.tenant) +
                  "\",\"solver\":\"" + util::json_escape(e.solver) +
                  "\",\"version\":" + std::to_string(e.version) +
                  ",\"edits\":" + std::to_string(e.edits) + ",\"tree\":\"" +
                  util::json_escape(e.tree_text) + "\"}";
  return s;
}

void write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("journal write failed: ") +
                               std::strerror(errno));
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

void fsync_or_throw(int fd, const char* what) {
  if (::fsync(fd) != 0) {
    throw std::runtime_error(std::string("journal fsync failed (") + what +
                             "): " + std::strerror(errno));
  }
}

void fsync_dir(const std::string& dir) {
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return;  // best effort: the rename itself already landed
  ::fsync(dfd);
  ::close(dfd);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return data;
}

/// Makes `e` the live post-image of its resource unless `live` already
/// holds a newer one: concurrent edits of one resource may append their
/// post-images out of version order.
void keep_newest(std::map<std::string, JournalEntry>& live, JournalEntry e) {
  const auto it = live.find(e.id);
  if (it == live.end()) {
    live.emplace(e.id, std::move(e));
    return;
  }
  // Patch post-images omit the solver; the create record set it.
  if (e.solver.empty()) e.solver = it->second.solver;
  if (e.version >= it->second.version) it->second = std::move(e);
}

/// Applies framed records from `data` to `live` in order. Returns the
/// byte offset just past the last intact record (replay stops at the
/// first short frame, CRC mismatch, oversized length, or malformed
/// payload — everything before it is kept).
std::size_t apply_records(const std::string& data,
                          std::map<std::string, JournalEntry>& live,
                          std::size_t& applied) {
  std::size_t off = 0;
  while (data.size() - off >= 8) {
    const std::uint32_t len = read_u32(data.data() + off);
    const std::uint32_t crc = read_u32(data.data() + off + 4);
    if (len > kMaxRecordBytes || data.size() - off - 8 < len) break;
    const std::string_view payload(data.data() + off + 8, len);
    if (crc32(payload) != crc) break;
    util::JsonValue doc;
    try {
      doc = util::JsonValue::parse(payload);
    } catch (const util::JsonError&) {
      break;
    }
    const std::string op = doc.get_string("op", "");
    const std::string id = doc.get_string("id", "");
    if (id.empty()) break;
    if (op == "put") {
      JournalEntry e;
      e.id = id;
      e.tenant = doc.get_string("tenant", "");
      e.solver = doc.get_string("solver", "");
      e.tree_text = doc.get_string("tree", "");
      e.version = static_cast<std::uint64_t>(doc.get_number("version", 1));
      e.edits = static_cast<std::uint64_t>(doc.get_number("edits", 0));
      keep_newest(live, std::move(e));
    } else if (op == "del") {
      live.erase(id);
    } else {
      break;
    }
    ++applied;
    off += 8 + len;
  }
  return off;
}

}  // namespace

TreeJournal::TreeJournal(JournalOptions opts) : opts_(std::move(opts)) {}

TreeJournal::~TreeJournal() {
  if (fd_ >= 0) ::close(fd_);
}

std::vector<JournalEntry> TreeJournal::recover() {
  if (!enabled()) return {};
  std::lock_guard<std::mutex> lock(write_mutex_);
  std::filesystem::create_directories(opts_.dir);

  const std::string snap_path = opts_.dir + "/" + kSnapshotFile;
  const std::string log_path = opts_.dir + "/" + kJournalFile;

  // Snapshot first (it is the compacted prefix of the journal), then the
  // journal on top. Put records are post-images, so replaying journal
  // records already folded into the snapshot (crash between snapshot
  // rename and journal truncate) is idempotent.
  const std::string snap = read_file(snap_path);
  apply_records(snap, live_, stats_.snapshot_records);
  const std::string log = read_file(log_path);
  const std::size_t good = apply_records(log, live_, stats_.log_records);
  stats_.truncated_bytes = log.size() - good;

  // Open for appending; drop any torn tail so the next append starts at
  // a record boundary instead of extending a half-written frame.
  fd_ = ::open(log_path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("journal open failed: ") +
                             std::strerror(errno));
  }
  if (stats_.truncated_bytes > 0) {
    if (::ftruncate(fd_, static_cast<off_t>(good)) != 0) {
      throw std::runtime_error(std::string("journal truncate failed: ") +
                               std::strerror(errno));
    }
  }
  log_bytes_ = good;
  stats_.recovered = true;

  std::vector<JournalEntry> entries;
  entries.reserve(live_.size());
  for (const auto& [id, e] : live_) entries.push_back(e);
  return entries;
}

void TreeJournal::record_put(const JournalEntry& entry) {
  if (!enabled()) return;
  FTA_FAILPOINT("journal.append");
  JournalEntry e = entry;
  if (e.solver.empty()) {
    std::lock_guard<std::mutex> lock(write_mutex_);
    const auto it = live_.find(e.id);
    if (it != live_.end()) e.solver = it->second.solver;
  }
  append_payload(put_payload(e));
  std::lock_guard<std::mutex> lock(write_mutex_);
  keep_newest(live_, std::move(e));
  if (log_bytes_ >= opts_.compact_threshold_bytes) compact_locked();
}

void TreeJournal::record_delete(const std::string& id) {
  if (!enabled()) return;
  FTA_FAILPOINT("journal.append");
  append_payload("{\"op\":\"del\",\"id\":\"" + util::json_escape(id) + "\"}");
  std::lock_guard<std::mutex> lock(write_mutex_);
  live_.erase(id);
  if (log_bytes_ >= opts_.compact_threshold_bytes) compact_locked();
}

void TreeJournal::append_payload(const std::string& payload) {
  const std::string rec = frame(payload);
  std::uint64_t my_seq;
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (fd_ < 0) {
      throw std::runtime_error("journal: append before recover()");
    }
    write_all(fd_, rec.data(), rec.size());
    log_bytes_ += rec.size();
    my_seq = ++write_seq_;
    ++appended_;
  }
  if (!opts_.fsync) return;
  FTA_FAILPOINT("journal.fsync");
  // Group commit: if another appender's fsync already covered our write,
  // skip ours. `write_seq_` only advances after the corresponding write()
  // returned, so an fsync durably covers every sequence number at or
  // below the value read before it started.
  std::lock_guard<std::mutex> lock(sync_mutex_);
  if (synced_seq_ >= my_seq) return;
  std::uint64_t covered;
  {
    std::lock_guard<std::mutex> wlock(write_mutex_);
    covered = write_seq_;
  }
  fsync_or_throw(fd_, "append");
  ++fsyncs_;
  synced_seq_ = covered;
}

void TreeJournal::compact() {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(write_mutex_);
  compact_locked();
}

void TreeJournal::compact_locked() {
  FTA_FAILPOINT("journal.compact");
  const std::string tmp_path = opts_.dir + "/" + kSnapshotTmpFile;
  const std::string snap_path = opts_.dir + "/" + kSnapshotFile;

  std::string blob;
  for (const auto& [id, e] : live_) blob += frame(put_payload(e));

  const int sfd = ::open(tmp_path.c_str(),
                         O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (sfd < 0) {
    throw std::runtime_error(std::string("snapshot open failed: ") +
                             std::strerror(errno));
  }
  try {
    write_all(sfd, blob.data(), blob.size());
    fsync_or_throw(sfd, "snapshot");
  } catch (...) {
    ::close(sfd);
    throw;
  }
  ::close(sfd);
  if (std::rename(tmp_path.c_str(), snap_path.c_str()) != 0) {
    throw std::runtime_error(std::string("snapshot rename failed: ") +
                             std::strerror(errno));
  }
  fsync_dir(opts_.dir);

  // The snapshot now holds everything; restart the journal. A crash
  // before this truncate only replays idempotent post-images on top.
  if (::ftruncate(fd_, 0) != 0) {
    throw std::runtime_error(std::string("journal truncate failed: ") +
                             std::strerror(errno));
  }
  if (opts_.fsync) fsync_or_throw(fd_, "truncate");
  log_bytes_ = 0;
  ++compactions_;
}

std::uint64_t TreeJournal::appended_records() const {
  std::lock_guard<std::mutex> lock(write_mutex_);
  return appended_;
}

std::uint64_t TreeJournal::compactions() const {
  std::lock_guard<std::mutex> lock(write_mutex_);
  return compactions_;
}

std::uint64_t TreeJournal::fsyncs() const {
  std::lock_guard<std::mutex> lock(sync_mutex_);
  return fsyncs_;
}

}  // namespace fta::service
