#include "dist/minimpi.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <thread>

#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace gesp::minimpi {
namespace {

std::string envelope(int src, int tag) {
  const auto name = [](int v, int any) {
    return v == any ? std::string("any") : std::to_string(v);
  };
  return "(src=" + name(src, kAnySource) + ", tag=" + name(tag, kAnyTag) +
         ")";
}

/// Process-wide transport counters, resolved once (references stay valid
/// for the registry's lifetime, so the hot path is pure atomics).
struct TransportMetrics {
  metrics::Counter& messages_sent;
  metrics::Counter& bytes_sent;
  metrics::Counter& messages_received;
  metrics::Counter& bytes_received;
  metrics::Counter& checksum_failures;
  metrics::Counter& timeouts;
  metrics::Counter& poisonings;
  metrics::Counter& faults_injected;
  metrics::Histogram& message_bytes;
};

TransportMetrics& tm() {
  metrics::Registry& r = metrics::global();
  static TransportMetrics m{r.counter("minimpi.messages_sent"),
                            r.counter("minimpi.bytes_sent"),
                            r.counter("minimpi.messages_received"),
                            r.counter("minimpi.bytes_received"),
                            r.counter("minimpi.checksum_failures"),
                            r.counter("minimpi.timeouts"),
                            r.counter("minimpi.poisonings"),
                            r.counter("minimpi.faults_injected"),
                            r.histogram("minimpi.message_bytes")};
  return m;
}

}  // namespace

std::uint64_t payload_checksum(const std::byte* data, std::size_t bytes) {
  std::uint64_t h = 14695981039346656037ull;  // FNV offset basis
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= static_cast<std::uint64_t>(data[i]);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

Errc RankReport::error_code() const {
  if (!error) return Errc::internal;
  try {
    std::rethrow_exception(error);
  } catch (const Error& e) {
    return e.code();
  } catch (...) {
    return Errc::internal;
  }
}

std::string RankReport::error_message() const {
  if (!error) return {};
  try {
    std::rethrow_exception(error);
  } catch (const Error& e) {
    return e.message();  // error_code() carries the category
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

int Comm::size() const { return world_->size(); }

void Comm::send(int dst, int tag, const void* data, std::size_t bytes) {
  GESP_CHECK(dst >= 0 && dst < size(), Errc::invalid_argument,
             "send to invalid rank " + std::to_string(dst));
  Message msg;
  msg.src = rank_;
  msg.tag = tag;
  msg.data.resize(bytes);
  if (bytes > 0) std::memcpy(msg.data.data(), data, bytes);
  msg.checksum = payload_checksum(msg.data.data(), msg.data.size());
  const count_t ordinal = stats_.messages_sent;
  stats_.messages_sent++;
  stats_.bytes_sent += static_cast<count_t>(bytes);
  tm().messages_sent.inc();
  tm().bytes_sent.inc(static_cast<count_t>(bytes));
  tm().message_bytes.record(static_cast<double>(bytes));
  trace::instant_value("mpi", "send", static_cast<double>(bytes), dst);
  FaultInjector& fi = world_->opt_.fault;
  if (fi.armed()) {
    // The checksum was stamped above, so corruption below is detectable.
    const FaultSpec fired = fi.on_send(rank_, ordinal, msg.data);
    if (fired.kind != FaultKind::none) {
      tm().faults_injected.inc();
      trace::instant("mpi", "fault", static_cast<int>(fired.kind));
    }
    switch (fired.kind) {
      case FaultKind::drop:
        return;
      case FaultKind::kill_rank:
        throw_error(Errc::comm, "fault injection: rank " +
                                    std::to_string(rank_) + " killed at send #" +
                                    std::to_string(ordinal));
      case FaultKind::duplicate:
        world_->deliver(dst, msg);  // deliver a copy, then the original
        break;
      case FaultKind::delay:
        std::this_thread::sleep_for(
            std::chrono::duration<double>(fired.delay_s));
        break;
      case FaultKind::corrupt:  // payload already mutated in place
      case FaultKind::none:
        break;
    }
  }
  world_->deliver(dst, std::move(msg));
}

Message Comm::recv(int src, int tag) {
  GESP_TRACE_SPAN_ID("mpi", "recv", tag >= 0 ? tag : -1);
  auto& box = *world_->mailboxes_[rank_];
  std::unique_lock<std::mutex> lock(box.mu);
  auto match = [&](const Message& m) {
    return (src == kAnySource || m.src == src) &&
           (tag == kAnyTag || m.tag == tag);
  };
  const double timeout = world_->opt_.recv_timeout_s;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout > 0 ? timeout : 0));
  while (true) {
    for (auto it = box.queue.begin(); it != box.queue.end(); ++it) {
      if (match(*it)) {
        Message m = std::move(*it);
        box.queue.erase(it);
        stats_.messages_received++;
        stats_.bytes_received += static_cast<count_t>(m.data.size());
        tm().messages_received.inc();
        tm().bytes_received.inc(static_cast<count_t>(m.data.size()));
        const bool checksum_ok =
            payload_checksum(m.data.data(), m.data.size()) == m.checksum;
        if (!checksum_ok) tm().checksum_failures.inc();
        GESP_CHECK(checksum_ok, Errc::comm,
                   "payload checksum mismatch on rank " +
                       std::to_string(rank_) + " for message " +
                       envelope(m.src, m.tag) + ", " +
                       std::to_string(m.data.size()) + " bytes");
        return m;
      }
    }
    // No match queued: check for a dead peer before blocking.
    if (box.poisoned)
      throw_error(Errc::comm,
                  "rank " + std::to_string(rank_) + " unblocked from recv " +
                      envelope(src, tag) + ": rank " +
                      std::to_string(world_->failed_rank()) + " failed");
    if (world_->opt_.survive_failures && world_->dead_mask() != 0) {
      // Surviving world: fail only receives that depend on a dead rank —
      // a named dead source can never send again, and a wildcard receive
      // cannot prove its sender is alive (this is how collective episodes
      // abort while point-to-point serving from live ranks continues).
      if (src == kAnySource || world_->is_dead(src))
        throw_error(Errc::comm,
                    "rank " + std::to_string(rank_) +
                        " unblocked from recv " + envelope(src, tag) +
                        ": rank " + std::to_string(world_->failed_rank()) +
                        " is dead in a surviving world");
    }
    if (timeout > 0) {
      if (box.cv.wait_until(lock, deadline) == std::cv_status::timeout &&
          !box.poisoned) {
        bool matched = false;
        for (const auto& m : box.queue) matched = matched || match(m);
        if (!matched) {
          tm().timeouts.inc();
          throw_error(Errc::comm,
                      "recv timeout on rank " + std::to_string(rank_) +
                          " waiting for " + envelope(src, tag) + " after " +
                          std::to_string(timeout) + "s");
        }
      }
    } else {
      box.cv.wait(lock);
    }
  }
}

bool Comm::probe(int src, int tag) const {
  auto& box = *world_->mailboxes_[rank_];
  std::unique_lock<std::mutex> lock(box.mu);
  for (const auto& m : box.queue) {
    if ((src == kAnySource || m.src == src) &&
        (tag == kAnyTag || m.tag == tag))
      return true;
  }
  return false;
}

void Comm::barrier() {
  GESP_TRACE_SPAN("mpi", "barrier");
  std::unique_lock<std::mutex> lock(world_->barrier_mu_);
  auto check_poisoned = [&] {
    if (world_->failed_rank_.load() >= 0)
      throw_error(Errc::comm,
                  "rank " + std::to_string(rank_) +
                      " unblocked from barrier: rank " +
                      std::to_string(world_->failed_rank()) + " failed");
  };
  check_poisoned();
  const long gen = world_->barrier_generation_;
  if (++world_->barrier_count_ == world_->size()) {
    world_->barrier_count_ = 0;
    world_->barrier_generation_++;
    world_->barrier_cv_.notify_all();
    return;
  }
  const double timeout = world_->opt_.recv_timeout_s;
  auto arrived = [&] { return world_->barrier_generation_ != gen; };
  if (timeout > 0) {
    const bool ok = world_->barrier_cv_.wait_for(
        lock, std::chrono::duration<double>(timeout),
        [&] { return arrived() || world_->failed_rank_.load() >= 0; });
    if (!arrived()) {
      if (!ok) {
        tm().timeouts.inc();
        throw_error(Errc::comm, "barrier timeout on rank " +
                                    std::to_string(rank_) + " after " +
                                    std::to_string(timeout) + "s");
      }
      check_poisoned();
    }
  } else {
    world_->barrier_cv_.wait(
        lock, [&] { return arrived() || world_->failed_rank_.load() >= 0; });
    if (!arrived()) check_poisoned();
  }
}

double Comm::reduce_sum(int root, int tag, double value) {
  if (rank_ == root) {
    double sum = value;
    for (int r = 0; r < size() - 1; ++r) {
      const Message m = recv(kAnySource, tag);
      double v = 0;
      std::memcpy(&v, m.data.data(), sizeof(double));
      sum += v;
    }
    return sum;
  }
  send_value(root, tag, value);
  return value;
}

std::vector<double> Comm::reduce_sum_vec(int root, int tag,
                                         std::span<const double> v,
                                         int contributors) {
  std::vector<double> out(v.begin(), v.end());
  if (contributors < 0) contributors = size() - 1;
  if (rank_ == root) {
    for (int r = 0; r < contributors; ++r) {
      const Message m = recv(kAnySource, tag);
      const auto part = m.as<double>();
      GESP_CHECK(part.size() == out.size(), Errc::comm,
                 "reduce_sum_vec: contribution from rank " +
                     std::to_string(m.src) + " has " +
                     std::to_string(part.size()) + " elements, expected " +
                     std::to_string(out.size()));
      for (std::size_t i = 0; i < out.size(); ++i) out[i] += part[i];
    }
    return out;
  }
  send(root, tag, out.data(), out.size() * sizeof(double));
  return out;
}

double Comm::reduce_max(int root, int tag, double value) {
  if (rank_ == root) {
    double best = value;
    for (int r = 0; r < size() - 1; ++r) {
      const Message m = recv(kAnySource, tag);
      double v = 0;
      std::memcpy(&v, m.data.data(), sizeof(double));
      if (std::isnan(v))
        best = v;
      else if (!std::isnan(best))
        best = std::max(best, v);
    }
    return best;
  }
  send_value(root, tag, value);
  return value;
}

World::World(int nprocs, const WorldOptions& opt) : opt_(opt) {
  GESP_CHECK(nprocs > 0, Errc::invalid_argument, "need at least one rank");
  GESP_CHECK(nprocs <= 64, Errc::invalid_argument,
             "in-process worlds are capped at 64 ranks (dead-rank mask)");
  mailboxes_.reserve(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r)
    mailboxes_.push_back(std::make_unique<Mailbox>());
}

void World::deliver(int dst, Message msg) {
  auto& box = *mailboxes_[dst];
  {
    std::lock_guard<std::mutex> lock(box.mu);
    box.queue.push_back(std::move(msg));
  }
  box.cv.notify_one();
}

void World::poison(int src) {
  int expected = -1;
  if (failed_rank_.compare_exchange_strong(expected, src)) {
    tm().poisonings.inc();
    trace::instant("mpi", "poison", src);
  }
  dead_mask_.fetch_or(std::uint64_t{1} << static_cast<unsigned>(src),
                      std::memory_order_acq_rel);
  for (auto& box : mailboxes_) {
    {
      std::lock_guard<std::mutex> lock(box->mu);
      // A surviving world only records the death and wakes the waiters;
      // receives that do not depend on the dead rank keep working.
      if (!opt_.survive_failures) box->poisoned = true;
    }
    box->cv.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(barrier_mu_);
  }
  barrier_cv_.notify_all();
}

int World::alive_count() const {
  const std::uint64_t dead = dead_mask();
  int n = 0;
  for (int r = 0; r < size(); ++r)
    if (!((dead >> static_cast<unsigned>(r)) & 1u)) ++n;
  return n;
}

std::vector<RankReport> World::run_report(
    const std::function<void(Comm&)>& body) {
  const int P = size();
  // Reset failure state so a World can host several runs.
  failed_rank_.store(-1);
  dead_mask_.store(0);
  for (auto& box : mailboxes_) {
    std::lock_guard<std::mutex> lock(box->mu);
    box->poisoned = false;
    box->queue.clear();
  }
  {
    std::lock_guard<std::mutex> lock(barrier_mu_);
    barrier_count_ = 0;
  }
  std::vector<RankReport> reports(static_cast<std::size_t>(P));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    threads.emplace_back([&, r] {
      // One trace track per simulated rank (pid = rank in the viewer).
      trace::set_thread_track(r, 0);
      GESP_TRACE_SPAN_ID("mpi", "rank", r);
      Comm comm(*this, r);
      try {
        body(comm);
      } catch (...) {
        reports[r].error = std::current_exception();
        poison(r);  // unblock every peer still waiting on this rank
      }
      reports[r].stats = comm.stats();
    });
  }
  for (auto& t : threads) t.join();
  return reports;
}

std::vector<CommStats> World::run(const std::function<void(Comm&)>& body) {
  const auto reports = run_report(body);
  std::vector<CommStats> stats;
  stats.reserve(reports.size());
  for (const auto& r : reports) stats.push_back(r.stats);
  for (const auto& r : reports)
    if (r.error) std::rethrow_exception(r.error);
  return stats;
}

}  // namespace gesp::minimpi
