#include "src/runtime/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/common/check.h"
#include "src/event/stream_queue.h"
#include "src/net/ingest_gateway.h"
#include "src/runtime/audit.h"

namespace klink {
namespace {

/// Leading magic of an epoch file ("KLNKCPT1" little-endian); a file that
/// does not start with it is rejected before any structural parse.
constexpr uint64_t kCheckpointMagic = 0x3154504b4e4c4bull;

std::string EpochFileName(uint64_t epoch) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "epoch_%llu.ckpt",
                static_cast<unsigned long long>(epoch));
  return std::string(buf);
}

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty()) return name;
  return dir.back() == '/' ? dir + name : dir + "/" + name;
}

/// Writes `bytes` to `path` atomically: tmp file, flush + fsync, rename.
/// A crash mid-write leaves either the old file or a .tmp the reader never
/// looks at — never a torn file under the final name. The new name itself
/// survives a power loss only once the directory is fsync'd (SyncDir).
bool WriteFileAtomic(const std::string& path,
                     const std::vector<uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = bytes.empty() ||
            std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = ok && std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

/// fsyncs directory `dir`, making the renames inside it durable.
bool SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  return (::close(fd) == 0) && ok;
}

/// MANIFEST entries: epoch -> (file name, FNV-1a hash of the file).
using Manifest = std::map<uint64_t, std::pair<std::string, uint64_t>>;

/// Parses `dir`/MANIFEST, one "epoch file hash_hex" line per entry, up to
/// the first line that does not parse. A missing MANIFEST has no entries.
Manifest ReadManifest(const std::string& dir) {
  Manifest entries;
  std::ifstream in(JoinPath(dir, "MANIFEST"));
  uint64_t epoch = 0;
  uint64_t hash = 0;
  std::string file;
  while (in >> epoch >> file >> std::hex >> hash >> std::dec) {
    entries[epoch] = {file, hash};
  }
  return entries;
}

std::vector<uint8_t> ManifestBytes(const Manifest& manifest) {
  std::ostringstream out;
  for (const auto& [epoch, entry] : manifest) {
    char hash_hex[32];
    std::snprintf(hash_hex, sizeof(hash_hex), "%016llx",
                  static_cast<unsigned long long>(entry.second));
    out << epoch << " " << entry.first << " " << hash_hex << "\n";
  }
  const std::string text = out.str();
  return std::vector<uint8_t>(text.begin(), text.end());
}

bool ReadWholeFile(const std::string& path, std::vector<uint8_t>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return in.good() || in.eof();
}

}  // namespace

CheckpointCoordinator::CheckpointCoordinator(CheckpointConfig config)
    : config_(std::move(config)) {
  KLINK_CHECK(!config_.dir.empty());
  KLINK_CHECK_GT(config_.interval, 0);
  ::mkdir(config_.dir.c_str(), 0755);  // may already exist
  // Adopt any epochs a previous incarnation left behind, so the fallback
  // chain survives a restore and pruning sees the whole set.
  manifest_ = ReadManifest(config_.dir);
  if (!manifest_.empty()) last_durable_epoch_ = manifest_.rbegin()->first;
  writer_ = std::thread([this] { WriterLoop(); });
}

CheckpointCoordinator::~CheckpointCoordinator() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
    work_cv_.NotifyOne();
  }
  // Under the schedule explorer the writer still needs turns to drain its
  // queue and sign off; an uninstrumented join would deadlock against the
  // turn token. No-op in production.
  ScheduleQuiesceBeforeJoin({writer_.get_id()});
  writer_.join();
}

void CheckpointCoordinator::RegisterQuery(Query* query,
                                          std::vector<uint32_t> stream_ids,
                                          IngestGateway* gateway) {
  KLINK_CHECK(query != nullptr);
  if (gateway != nullptr) {
    KLINK_CHECK_EQ(stream_ids.size(), query->sources().size());
  }
  const QueryId id = query->id();
  KLINK_CHECK(queries_.count(id) == 0);  // one registration per tenant
  for (int i = 0; i < query->num_operators(); ++i) {
    Operator& op = query->op(i);
    op.SetBarrierObserver(this);
    op_index_[&op] = {id, i};
  }
  queries_.emplace(id, Registered{query, std::move(stream_ids), gateway});
}

void CheckpointCoordinator::DeregisterQuery(QueryId id) {
  const auto it = queries_.find(id);
  if (it == queries_.end()) return;
  for (int i = 0; i < it->second.query->num_operators(); ++i) {
    Operator& op = it->second.query->op(i);
    op.SetBarrierObserver(nullptr);
    op_index_.erase(&op);
  }
  queries_.erase(it);
  // Drop the tenant's slice from every in-flight epoch so (a) its state
  // never reaches a checkpoint finalized after it left and (b) epochs
  // waiting on its alignments can complete without them.
  MutexLock lock(&mu_);
  for (auto& [epoch, pending] : pending_) {
    const auto qit = pending.queries.find(id);
    if (qit == pending.queries.end()) continue;
    pending.expected_operators -=
        static_cast<int>(qit->second.op_blobs.size());
    pending.total_captured -= qit->second.captured;
    pending.queries.erase(qit);
  }
}

void CheckpointCoordinator::ResumeFrom(uint64_t epoch,
                                       TimeMicros checkpoint_time) {
  next_epoch_ = epoch + 1;
  next_checkpoint_time_ = checkpoint_time + config_.interval;
  next_time_armed_ = true;
}

void CheckpointCoordinator::OnCycleStart(TimeMicros now) {
  HandOverAligned();
  DeliverDurableEpochs();
  if (queries_.empty()) return;
  if (!next_time_armed_) {
    // First cycle: the first barrier fires one interval into the run.
    next_checkpoint_time_ = now + config_.interval;
    next_time_armed_ = true;
  }
  if (now < next_checkpoint_time_) return;
  InjectBarriers(now);
  while (next_checkpoint_time_ <= now) {
    next_checkpoint_time_ += config_.interval;
  }
}

void CheckpointCoordinator::HandOverAligned() {
  MutexLock lock(&mu_);
  // Barriers flow FIFO, so epochs align in epoch order and the first
  // incomplete one ends the sweep. An aligned epoch replaces the one still
  // queued behind the epoch being written: acks are cumulative prefixes,
  // so persisting the newer epoch covers the older one, and the engine
  // thread never waits for the writer's fsyncs here.
  while (!pending_.empty() && pending_.begin()->second.total_captured ==
                                  pending_.begin()->second.expected_operators) {
    if (queued_.has_value()) --unfinished_;
    queued_.emplace(pending_.begin()->first,
                    std::move(pending_.begin()->second));
    pending_.erase(pending_.begin());
    ++unfinished_;
    work_cv_.NotifyOne();
  }
}

void CheckpointCoordinator::DeliverDurableEpochs() {
  std::vector<DurableEpoch> delivered;
  {
    MutexLock lock(&mu_);
    delivered.swap(durable_);
  }
  for (const DurableEpoch& d : delivered) {
    last_durable_epoch_ = d.epoch;
    if (!ack_) continue;
    for (const auto& [stream_id, seq] : d.acks) ack_(stream_id, d.epoch, seq);
  }
}

void CheckpointCoordinator::Flush() {
  HandOverAligned();
  {
    MutexLock lock(&mu_);
    while (unfinished_ > 0) done_cv_.Wait(mu_);
  }
  DeliverDurableEpochs();
}

void CheckpointCoordinator::InjectBarriers(TimeMicros now) {
  const uint64_t epoch = next_epoch_++;
  PendingEpoch pending;
  pending.checkpoint_time = now;
  for (const auto& [id, reg] : queries_) {
    PendingQuery& pq = pending.queries[id];
    pq.op_blobs.resize(static_cast<size_t>(reg.query->num_operators()));
    pending.expected_operators += reg.query->num_operators();
    // The replay cursor is the gateway's delivered prefix at injection:
    // every element the engine has popped so far is pre-barrier, everything
    // after it will be replayed by the client on recovery.
    if (reg.gateway != nullptr) {
      for (const uint32_t stream_id : reg.stream_ids) {
        pq.cursors.emplace_back(stream_id,
                                reg.gateway->delivered_seq(stream_id));
      }
    }
    for (SourceOperator* src : reg.query->sources()) {
      const Event barrier = MakeCheckpointBarrier(epoch, now);
      src->input(0).Push(barrier);
      ++barriers_injected_;
    }
  }
  MutexLock lock(&mu_);
  pending_.emplace(epoch, std::move(pending));
}

void CheckpointCoordinator::OnBarrierAligned(Operator& op, uint64_t epoch) {
  const auto it = op_index_.find(&op);
  KLINK_CHECK(it != op_index_.end());  // barrier reached an unregistered op
  StateWriter w;
  op.Serialize(w);
  // Explorer decision point: the serialize-then-buffer capture may be
  // preempted here, interleaving with captures on other worker threads and
  // with the engine thread's inject/finalize sweep.
  SchedulePoint("ckpt.barrier-capture");
  MutexLock lock(&mu_);
  const auto pit = pending_.find(epoch);
  KLINK_CHECK(pit != pending_.end());
  // A registered query only sees barriers of epochs injected while it was
  // registered, so its slice must exist in the epoch's snapshot.
  const auto qit = pit->second.queries.find(it->second.first);
  KLINK_CHECK(qit != pit->second.queries.end());
  PendingQuery& pq = qit->second;
  std::vector<uint8_t>& blob =
      pq.op_blobs[static_cast<size_t>(it->second.second)];
  KLINK_CHECK(blob.empty());  // one alignment per (operator, epoch)
  blob = w.TakeBytes();
  KLINK_CHECK(!blob.empty());  // base Serialize always writes a header
  ++pq.captured;
  ++pit->second.total_captured;
}

void CheckpointCoordinator::WriterLoop() {
  // Participate in explored schedules (schedule_explorer tests); declared
  // before any lock scope so sign-off happens after the last unlock.
  ThreadScheduleScope sched("ckpt-writer");
  for (;;) {
    DurableEpoch done;
    PendingEpoch pending;
    {
      MutexLock lock(&mu_);
      while (!queued_.has_value() && !stopping_) work_cv_.Wait(mu_);
      if (!queued_.has_value()) return;  // stopping, nothing left to write
      done.epoch = queued_->first;
      pending = std::move(queued_->second);
      queued_.reset();
    }
    const bool durable = PersistEpoch(done.epoch, pending);
    for (const auto& [qid, pq] : pending.queries) {
      done.acks.insert(done.acks.end(), pq.cursors.begin(), pq.cursors.end());
    }
    MutexLock lock(&mu_);
    if (durable) durable_.push_back(std::move(done));
    --unfinished_;
    done_cv_.NotifyAll();
  }
}

bool CheckpointCoordinator::PersistEpoch(uint64_t epoch,
                                         const PendingEpoch& pending) {
  StateWriter w;
  w.PutU64(kCheckpointMagic);
  w.PutU64(epoch);
  w.PutI64(pending.checkpoint_time);
  // The epoch's own query-set snapshot, not the current registration set:
  // tenants that attached after injection are absent, tenants that
  // detached mid-epoch were already dropped by DeregisterQuery.
  w.PutU32(static_cast<uint32_t>(pending.queries.size()));
  for (const auto& [qid, pq] : pending.queries) {
    w.PutI64(static_cast<int64_t>(qid));
    w.PutU32(static_cast<uint32_t>(pq.cursors.size()));
    for (const auto& [stream_id, seq] : pq.cursors) {
      w.PutU32(stream_id);
      w.PutU64(seq);
    }
    w.PutU32(static_cast<uint32_t>(pq.op_blobs.size()));
    for (const std::vector<uint8_t>& blob : pq.op_blobs) {
      w.PutU64(blob.size());
      w.PutBytes(blob.data(), blob.size());
    }
  }
  const std::vector<uint8_t> bytes = w.TakeBytes();
  const uint64_t hash = Fnv1aBytes(bytes.data(), bytes.size());
  const std::string file = EpochFileName(epoch);
  const std::string path = JoinPath(config_.dir, file);
  if (!WriteFileAtomic(path, bytes)) {
    std::fprintf(stderr, "klink: checkpoint epoch %llu write failed\n",
                 static_cast<unsigned long long>(epoch));
    return false;
  }
  // The new MANIFEST lists this epoch and drops the oldest beyond
  // kKeepEpochs; their files go only once it is durable. Two, so a torn
  // newest checkpoint always leaves a complete predecessor to fall back to.
  constexpr size_t kKeepEpochs = 2;
  Manifest next = manifest_;
  next[epoch] = {file, hash};
  std::vector<std::string> retired;
  while (next.size() > kKeepEpochs) {
    retired.push_back(next.begin()->second.first);
    next.erase(next.begin());
  }
  const bool listed =
      WriteFileAtomic(JoinPath(config_.dir, "MANIFEST"), ManifestBytes(next));
  if (!listed || !SyncDir(config_.dir)) {
    std::fprintf(stderr,
                 "klink: checkpoint epoch %llu MANIFEST write or directory "
                 "sync failed\n",
                 static_cast<unsigned long long>(epoch));
    if (!listed) std::remove(path.c_str());  // no MANIFEST names it
    return false;
  }
  manifest_ = std::move(next);
  for (const std::string& name : retired) {
    std::remove(JoinPath(config_.dir, name).c_str());
  }
  return true;
}

bool LoadLatestCheckpoint(const std::string& dir, LoadedCheckpoint* out) {
  KLINK_CHECK(out != nullptr);
  const Manifest entries = ReadManifest(dir);
  // Newest first; a torn newest file falls back to its predecessor (the
  // coordinator keeps >= 2 complete epochs for exactly this case).
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    std::vector<uint8_t> bytes;
    if (!ReadWholeFile(JoinPath(dir, it->second.first), &bytes)) {
      std::fprintf(stderr, "klink: checkpoint epoch %llu unreadable, "
                   "falling back\n",
                   static_cast<unsigned long long>(it->first));
      continue;
    }
    const uint64_t computed = Fnv1aBytes(bytes.data(), bytes.size());
    if (computed != it->second.second) {
      if (AuditEnabledFromEnv()) {
        // Audit runs treat a hash mismatch as fatal: tmp+rename should make
        // torn files impossible, so a mismatch means writer corruption.
        KLINK_CHECK_EQ(computed, it->second.second);
      }
      std::fprintf(stderr, "klink: checkpoint epoch %llu hash mismatch, "
                   "falling back\n",
                   static_cast<unsigned long long>(it->first));
      continue;
    }
    StateReader r(bytes);
    const uint64_t magic = r.GetU64();
    const uint64_t file_epoch = r.GetU64();
    const TimeMicros checkpoint_time = r.GetI64();
    const uint32_t num_queries = r.GetU32();
    if (!r.ok() || magic != kCheckpointMagic || file_epoch != it->first) {
      std::fprintf(stderr, "klink: checkpoint epoch %llu malformed, "
                   "falling back\n",
                   static_cast<unsigned long long>(it->first));
      continue;
    }
    LoadedCheckpoint loaded;
    loaded.epoch = file_epoch;
    loaded.checkpoint_time = checkpoint_time;
    bool parsed = true;
    for (uint32_t q = 0; q < num_queries && parsed; ++q) {
      LoadedQueryState qs;
      qs.query_id = static_cast<QueryId>(r.GetI64());
      const uint32_t num_cursors = r.GetU32();
      for (uint32_t c = 0; c < num_cursors; ++c) {
        const uint32_t stream_id = r.GetU32();
        const uint64_t seq = r.GetU64();
        qs.cursors.emplace_back(stream_id, seq);
      }
      const uint32_t num_ops = r.GetU32();
      for (uint32_t o = 0; o < num_ops && parsed; ++o) {
        const uint64_t len = r.GetU64();
        if (!r.ok() || len > r.remaining()) {
          parsed = false;
          break;
        }
        std::vector<uint8_t> blob(static_cast<size_t>(len));
        for (size_t b = 0; b < blob.size(); ++b) blob[b] = r.GetU8();
        qs.op_blobs.push_back(std::move(blob));
      }
      if (!r.ok()) parsed = false;
      loaded.queries.push_back(std::move(qs));
    }
    if (!parsed || !r.ok() || !r.AtEnd()) {
      std::fprintf(stderr, "klink: checkpoint epoch %llu truncated, "
                   "falling back\n",
                   static_cast<unsigned long long>(it->first));
      continue;
    }
    *out = std::move(loaded);
    return true;
  }
  return false;
}

void RestoreQueryState(const LoadedQueryState& state, Query* query) {
  KLINK_CHECK(query != nullptr);
  KLINK_CHECK_EQ(static_cast<int>(state.op_blobs.size()),
                 query->num_operators());
  for (int i = 0; i < query->num_operators(); ++i) {
    const std::vector<uint8_t>& blob =
        state.op_blobs[static_cast<size_t>(i)];
    StateReader r(blob);
    query->op(i).Restore(r);
    KLINK_CHECK(r.ok());     // layout mismatch: topology differs from writer
    KLINK_CHECK(r.AtEnd());  // trailing bytes: writer serialized more state
  }
}

}  // namespace klink
