// MiniMPI — an in-process message-passing substrate.
//
// The paper's implementation uses MPI on a Cray T3E. This container has no
// MPI installation and one core, so we build the substrate ourselves: each
// rank is a std::thread with a mailbox; sends are buffered (copy + enqueue,
// never blocking — the transport cannot deadlock the pipelined
// factorization); receives block with (source, tag) matching including
// wildcards, exactly the subset of MPI-1 the paper's algorithms need
// (point-to-point, barrier, broadcast, reduce). Every rank keeps message
// and byte counters so the communication statistics the paper reports via
// Apprentice fall out of the run.
//
// Failure model: every payload carries an FNV-1a checksum verified on
// receive; receives (and barriers) honor a configurable timeout and raise
// Errc::comm with the blocked (src, tag) envelope instead of hanging; and
// a rank that dies poisons every mailbox so its peers unblock with
// Errc::comm rather than waiting forever — see docs/INTERNALS.md §9. A
// FaultInjector (dist/fault.hpp) can drop, delay, duplicate, corrupt, or
// kill-rank at a chosen send to exercise all of this deterministically.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "dist/fault.hpp"

namespace gesp::minimpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Reserved tag block for the sharded serving tier (serve/shard.cpp). The
/// factorization and solve tag spaces are all bounded by O(16·nsup), so a
/// high fixed block never collides with numeric traffic for any matrix an
/// in-process world can hold; keeping the constants here (with the other
/// envelope-level definitions) makes the reservation visible to anyone
/// adding a new tag family.
namespace serve_tags {
inline constexpr int kBase = 1 << 28;
inline constexpr int kRequest = kBase + 0;    ///< gateway -> owner rank
inline constexpr int kResponse = kBase + 1;   ///< owner rank -> gateway
inline constexpr int kReplicate = kBase + 2;  ///< gateway -> backup owner
inline constexpr int kReplicaAck = kBase + 3; ///< backup owner -> gateway
inline constexpr int kCollective = kBase + 4; ///< gateway -> all (DistSolver)
inline constexpr int kStop = kBase + 5;       ///< gateway -> all (drain+exit)
inline constexpr int kMetrics = kBase + 6;    ///< rank -> gateway (histogram)
inline constexpr int kReduce = kBase + 7;     ///< counter reduce (reduce_sum_vec)
}  // namespace serve_tags

/// FNV-1a over the payload — cheap, and any single flipped byte changes it.
std::uint64_t payload_checksum(const std::byte* data, std::size_t bytes);

/// A received message: envelope plus payload bytes.
struct Message {
  int src = -1;
  int tag = -1;
  std::uint64_t checksum = 0;  ///< FNV-1a of data, stamped at send time
  std::vector<std::byte> data;

  /// Reinterpret the payload as a vector of T. A size that is not a whole
  /// number of elements means the wire carried a mangled payload — a
  /// transport fault (Errc::comm), not a library bug.
  template <class T>
  std::vector<T> as() const {
    GESP_CHECK(data.size() % sizeof(T) == 0, Errc::comm,
               "mangled payload from src=" + std::to_string(src) +
                   " tag=" + std::to_string(tag) + ": " +
                   std::to_string(data.size()) +
                   " bytes is not a multiple of the element size " +
                   std::to_string(sizeof(T)));
    std::vector<T> out(data.size() / sizeof(T));
    if (!out.empty()) std::memcpy(out.data(), data.data(), data.size());
    return out;
  }
};

/// Per-rank communication counters.
struct CommStats {
  count_t messages_sent = 0;
  count_t bytes_sent = 0;
  count_t messages_received = 0;
  count_t bytes_received = 0;
};

/// Transport configuration (timeouts and chaos).
struct WorldOptions {
  /// Receive / barrier timeout in seconds; <= 0 waits forever. On expiry
  /// the blocked rank throws Errc::comm naming the (src, tag) it waited
  /// for — the deadlock watchdog.
  double recv_timeout_s = 0.0;
  /// Failure semantics when a rank dies. false (the collective default):
  /// poison every mailbox — any subsequent blocked receive anywhere throws
  /// Errc::comm, because a collective factorization cannot outlive a lost
  /// participant. true (the serving tier): record the rank in the dead set
  /// and wake all waiters, but poison nothing — a receive throws only when
  /// it provably cannot be satisfied (its named source is dead, or it is a
  /// wildcard receive while any rank is dead, which is how a collective
  /// episode inside a surviving world aborts). Sends to a dead rank are
  /// delivered to its unread mailbox and harmless. Already-queued messages
  /// from a dead rank remain receivable either way (drain semantics).
  bool survive_failures = false;
  /// Chaos hook applied to every send (see dist/fault.hpp).
  FaultInjector fault;
};

class World;

/// Per-rank communicator handle (valid for the duration of World::run).
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// Buffered send: copies the payload and returns immediately.
  void send(int dst, int tag, const void* data, std::size_t bytes);

  template <class T>
  void send_vec(int dst, int tag, const std::vector<T>& v) {
    send(dst, tag, v.data(), v.size() * sizeof(T));
  }

  /// Send a single POD value.
  template <class T>
  void send_value(int dst, int tag, const T& v) {
    send(dst, tag, &v, sizeof(T));
  }

  /// Blocking receive with (src, tag) matching; kAnySource / kAnyTag wild.
  /// Throws Errc::comm on timeout, checksum mismatch, or a poisoned world.
  Message recv(int src = kAnySource, int tag = kAnyTag);

  /// Non-blocking: true if a matching message is queued.
  bool probe(int src = kAnySource, int tag = kAnyTag) const;

  /// Synchronize all ranks. Throws Errc::comm if the world is poisoned or
  /// the timeout expires before every rank arrives.
  void barrier();

  /// Flat binomial-free broadcast (root sends to everyone else; the static
  /// schedules of the factorization prune destinations themselves).
  template <class T>
  std::vector<T> bcast(int root, int tag, const std::vector<T>& v) {
    if (rank_ == root) {
      for (int r = 0; r < size(); ++r)
        if (r != root) send_vec(r, tag, v);
      return v;
    }
    return recv(root, tag).as<T>();
  }

  /// Sum-reduce a double across ranks onto root.
  double reduce_sum(int root, int tag, double value);
  /// Max-reduction onto `root` (other ranks return their own value).
  /// NaN-propagating: if any contribution is NaN the root result is NaN.
  double reduce_max(int root, int tag, double value);
  /// Elementwise sum-reduce of a vector onto root (non-root ranks return
  /// their own contribution). `contributors` is the number of non-root
  /// ranks expected to send (-1 = size()-1); a degraded surviving world
  /// passes its alive count so the reduce never waits on the dead. The
  /// serving tier aggregates per-rank serve.* counters with this.
  std::vector<double> reduce_sum_vec(int root, int tag,
                                     std::span<const double> v,
                                     int contributors = -1);

  const CommStats& stats() const { return stats_; }

 private:
  friend class World;
  Comm(World& world, int rank) : world_(&world), rank_(rank) {}
  World* world_;
  int rank_;
  CommStats stats_;
};

/// One rank's outcome of a World::run_report call.
struct RankReport {
  CommStats stats;
  std::exception_ptr error;  ///< null if the rank body completed

  bool failed() const { return static_cast<bool>(error); }
  /// Errc carried by `error` if it is a gesp::Error; Errc::internal for
  /// foreign exceptions; meaningless when !failed().
  Errc error_code() const;
  /// What the rank threw, without a gesp::Error's category prefix; empty
  /// when !failed().
  std::string error_message() const;
};

/// The collection of mailboxes; World::run spawns one thread per rank.
class World {
 public:
  explicit World(int nprocs, const WorldOptions& opt = {});

  int size() const { return static_cast<int>(mailboxes_.size()); }
  const WorldOptions& options() const { return opt_; }

  /// Execute `body(comm)` on every rank concurrently; rethrows the first
  /// rank exception after joining. Returns per-rank comm statistics.
  std::vector<CommStats> run(const std::function<void(Comm&)>& body);

  /// Like run, but never throws on rank failure: every rank's exception is
  /// captured in its RankReport so callers can see exactly who failed and
  /// how (the chaos tests assert per-rank Errc::comm this way).
  std::vector<RankReport> run_report(const std::function<void(Comm&)>& body);

  /// Rank `src` died. Default mode: poison every mailbox and the barrier so
  /// all blocked peers throw Errc::comm instead of hanging. With
  /// WorldOptions::survive_failures: mark `src` dead and wake all waiters;
  /// only receives that depend on a dead rank throw. Idempotent.
  void poison(int src);

  /// Rank that first poisoned the world, or -1 if healthy.
  int failed_rank() const { return failed_rank_.load(); }

  /// Dead-rank observers (meaningful under survive_failures, where the
  /// world keeps running after a rank loss; in the default mode the whole
  /// run is poisoned at the first death anyway).
  bool is_dead(int rank) const {
    return (dead_mask_.load(std::memory_order_acquire) >>
            static_cast<unsigned>(rank)) & 1u;
  }
  std::uint64_t dead_mask() const {
    return dead_mask_.load(std::memory_order_acquire);
  }
  int alive_count() const;

 private:
  friend class Comm;
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Message> queue;
    bool poisoned = false;
  };
  void deliver(int dst, Message msg);

  WorldOptions opt_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::atomic<int> failed_rank_{-1};
  /// Bit r set = rank r died (survive_failures bookkeeping; worlds are
  /// capped at 64 ranks well before this in-process simulation is).
  std::atomic<std::uint64_t> dead_mask_{0};
  // Central barrier.
  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  long barrier_generation_ = 0;
};

}  // namespace gesp::minimpi
