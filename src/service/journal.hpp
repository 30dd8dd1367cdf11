// Crash-safe persistence for the /v1/trees resource store.
//
// An append-only journal plus a compacted snapshot, both in one
// directory. Every acknowledged mutation (create, patch, delete) appends
// one framed record *before* the HTTP response is sent; on boot the
// service replays snapshot + journal and restores every acknowledged
// resource byte-identically (same id, same tree text, same version and
// edit counters — hence the same etag).
//
// Framing: [u32 payload length][u32 CRC-32 of payload][payload], both
// integers little-endian, payload a single JSON object. Replay stops at
// the first short or CRC-mismatching record: a torn tail from a crash
// mid-append loses at most the unacknowledged record being written, never
// an acknowledged one (the ack happens after the fsync covering it).
//
// Durability: appends group-commit — concurrent writers share one fsync
// where possible instead of queueing one fsync per record. Compaction
// rewrites the snapshot (tmp + fsync + atomic rename) and truncates the
// journal; a crash between the two replays idempotent post-image records
// on top of the snapshot, converging to the same state.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace fta::service {

struct JournalOptions {
  std::string dir;    ///< Journal directory; empty disables persistence.
  bool fsync = true;  ///< fsync before acknowledging each mutation.
  /// Journal size that triggers snapshot compaction on the next append.
  std::size_t compact_threshold_bytes = 4u << 20;
};

/// Post-image of one live tree resource — everything needed to restore
/// the resource with an identical etag and quota accounting.
struct JournalEntry {
  std::string id;
  std::string tenant;
  /// Solver choice the resource was created under (create records only;
  /// patch records may leave it empty — the journal inherits the live
  /// entry's value so the restored pipeline matches the original).
  std::string solver;
  std::string tree_text;
  std::uint64_t version = 1;
  std::uint64_t edits = 0;
};

struct JournalRecoverStats {
  std::size_t snapshot_records = 0;
  std::size_t log_records = 0;
  /// Bytes of torn/corrupt journal tail dropped (and truncated away).
  std::size_t truncated_bytes = 0;
  bool recovered = false;
};

class TreeJournal {
 public:
  explicit TreeJournal(JournalOptions opts);
  ~TreeJournal();

  TreeJournal(const TreeJournal&) = delete;
  TreeJournal& operator=(const TreeJournal&) = delete;

  bool enabled() const noexcept { return !opts_.dir.empty(); }

  /// Replays snapshot + journal, truncates any torn tail, and opens the
  /// journal for appending. Must be called (once) before any record_*.
  /// Returns the live resources in id order.
  std::vector<JournalEntry> recover();
  const JournalRecoverStats& recover_stats() const noexcept { return stats_; }

  /// Durably records the post-image of a create or patch. Replay keeps
  /// each resource's highest version, whatever order its records were
  /// appended in. Throws std::runtime_error on I/O failure — the caller
  /// must fail the request rather than acknowledge an unpersisted
  /// mutation.
  void record_put(const JournalEntry& entry);
  void record_delete(const std::string& id);

  /// Rewrites the snapshot from live state and truncates the journal.
  /// Runs automatically past the size threshold; public for tests.
  void compact();

  std::uint64_t appended_records() const;
  std::uint64_t compactions() const;
  std::uint64_t fsyncs() const;

 private:
  void append_payload(const std::string& payload);
  void compact_locked();

  JournalOptions opts_;
  JournalRecoverStats stats_;

  mutable std::mutex write_mutex_;  ///< Serialises appends + compaction.
  int fd_ = -1;                     ///< journal.log, O_APPEND.
  std::size_t log_bytes_ = 0;
  std::map<std::string, JournalEntry> live_;  ///< For compaction.
  std::uint64_t appended_ = 0;
  std::uint64_t compactions_ = 0;

  mutable std::mutex sync_mutex_;  ///< Group-commit: one fsync covers a batch.
  std::uint64_t write_seq_ = 0;   // under write_mutex_
  std::uint64_t synced_seq_ = 0;  // under sync_mutex_
  std::uint64_t fsyncs_ = 0;      // under sync_mutex_
};

}  // namespace fta::service
