#include "dist/dist_lu.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "dense/kernels.hpp"
#include "numeric/block_index.hpp"
#include "sparse/coo.hpp"

namespace gesp::dist {
namespace {

// Tag layout. Factorization: K*8 + type; solves and gather live above the
// factorization range so a late message can never be mis-matched.
constexpr int kTagDiag = 0;
constexpr int kTagLIndex = 1;
constexpr int kTagLValue = 2;
constexpr int kTagUIndex = 3;
constexpr int kTagUValue = 4;
constexpr int kNumFactTags = 5;

int fact_tag(index_t K, int type) { return static_cast<int>(K) * 8 + type; }

struct SolveTags {
  int x_base, sum_base;
};

SolveTags lower_tags(index_t nsup) {
  const int n = static_cast<int>(nsup);
  return {n * 8, n * 9};
}
SolveTags upper_tags(index_t nsup) {
  const int n = static_cast<int>(nsup);
  return {n * 10, n * 11};
}
// Vector gather/broadcast tags (shared by the lower/upper replication —
// gather phases are barrier-separated, so reuse is safe).
int gather_vec_tag(index_t nsup) { return static_cast<int>(nsup) * 12; }
int bcast_vec_tag(index_t nsup) { return static_cast<int>(nsup) * 16; }
// Factor-gather tags (above everything else).
int gather_l_tag(index_t nsup) { return static_cast<int>(nsup) * 16 + 2; }
int gather_u_tag(index_t nsup) { return static_cast<int>(nsup) * 16 + 3; }

// Task types of the factorization schedule, in strict program order per K.
// kUpdNear(K) covers the update pairs whose destination lies in panel K+1
// (the blocks the next panel reads); kUpdRest(K) covers the remainder.
// Splitting them is what enables look-ahead: panel K+1 only depends on
// kUpdNear(K), while kUpdRest(K) may drain later. Every destination block
// still receives its updates in ascending source order (the kUpdRest chain
// plus the near/rest classification — see docs/INTERNALS.md §13), so the
// factors are bitwise identical under any interleaving.
enum TaskType {
  kDfac = 0,    // GETRF of my diagonal block (K,K)
  kLpan = 1,    // TRSM of my L blocks of column K + panel broadcast
  kUpan = 2,    // TRSM of my U blocks of row K + panel broadcast
  kUpdNear = 3, // update pairs with min(I,J) == K+1
  kUpdRest = 4, // update pairs with min(I,J) >  K+1
};

}  // namespace

template <class T>
DistributedLU<T>::DistributedLU(minimpi::Comm& comm, const ProcessGrid& grid,
                                std::shared_ptr<const symbolic::SymbolicLU> sym,
                                const sparse::CscMatrix<T>& A,
                                const DistOptions& opt)
    : grid_(grid), sym_(std::move(sym)), opt_(opt) {
  GESP_CHECK(grid_.nprocs() == comm.size(), Errc::invalid_argument,
             "process grid does not match communicator size");
  myrow_ = grid_.rank_row(comm.rank());
  mycol_ = grid_.rank_col(comm.rank());
  scatter_initial(A);
  factorize(comm, opt_);
  comm.barrier();
}

template <class T>
void DistributedLU<T>::refactorize(minimpi::Comm& comm,
                                   const sparse::CscMatrix<T>& A,
                                   const DistOptions& opt) {
  opt_ = opt;
  scatter_initial(A);  // resets owned blocks to zero, then scatters A
  factorize(comm, opt_);
  comm.barrier();
}

template <class T>
void DistributedLU<T>::scatter_initial(const sparse::CscMatrix<T>& A) {
  const symbolic::SymbolicLU& S = *sym_;
  const index_t N = S.nsup;
  diag_.resize(static_cast<std::size_t>(N));
  lblocks_.resize(static_cast<std::size_t>(N));
  ublocks_.resize(static_cast<std::size_t>(N));
  for (index_t K = 0; K < N; ++K) {
    const std::size_t b = static_cast<std::size_t>(S.block_cols(K));
    if (grid_.prow_of(K) == myrow_ && grid_.pcol_of(K) == mycol_)
      diag_[K].assign(b * b, T{});
    lblocks_[K].resize(S.L[K].size());
    if (grid_.pcol_of(K) == mycol_) {
      for (std::size_t bi = 0; bi < S.L[K].size(); ++bi)
        if (grid_.prow_of(S.L[K][bi].I) == myrow_)
          lblocks_[K][bi].assign(S.L[K][bi].rows.size() * b, T{});
    }
    ublocks_[K].resize(S.U[K].size());
    if (grid_.prow_of(K) == myrow_) {
      for (std::size_t uj = 0; uj < S.U[K].size(); ++uj)
        if (grid_.pcol_of(S.U[K][uj].J) == mycol_)
          ublocks_[K][uj].assign(b * S.U[K][uj].cols.size(), T{});
    }
  }
  // Scatter owned entries of A (the matrix is replicated on entry, as the
  // paper's pre-parallel-symbolic implementation does).
  for (index_t j = 0; j < S.n; ++j) {
    const index_t J = S.col_to_sn[j];
    const index_t cj = j - S.sn_start[J];
    const index_t bj = S.block_cols(J);
    for (index_t p = A.colptr[j]; p < A.colptr[j + 1]; ++p) {
      const index_t i = A.rowind[p];
      const index_t I = S.col_to_sn[i];
      if (grid_.owner(I, J) != grid_.rank_of(myrow_, mycol_)) continue;
      const T v = A.values[p];
      if (I == J) {
        diag_[J][(i - S.sn_start[J]) + cj * bj] = v;
      } else if (I > J) {
        // L block: locate block and row position.
        for (std::size_t bi = 0; bi < S.L[J].size(); ++bi) {
          if (S.L[J][bi].I != I) continue;
          const auto& rows = S.L[J][bi].rows;
          const auto it = std::lower_bound(rows.begin(), rows.end(), i);
          lblocks_[J][bi][(it - rows.begin()) +
                          cj * static_cast<index_t>(rows.size())] = v;
          break;
        }
      } else {
        for (std::size_t uj = 0; uj < S.U[I].size(); ++uj) {
          if (S.U[I][uj].J != J) continue;
          const auto& cols = S.U[I][uj].cols;
          const auto it = std::lower_bound(cols.begin(), cols.end(), j);
          ublocks_[I][uj][(i - S.sn_start[I]) +
                          (it - cols.begin()) * S.block_cols(I)] = v;
          break;
        }
      }
    }
  }
}

template <class T>
void DistributedLU<T>::factorize(minimpi::Comm& comm, const DistOptions& opt) {
  const symbolic::SymbolicLU& S = *sym_;
  const index_t N = S.nsup;
  const count_t msgs0 = comm.stats().messages_sent;
  const count_t bytes0 = comm.stats().bytes_sent;
  pivot_stats_ = {};
  lookahead_hits_ = 0;
  dense::PivotPolicy policy;
  policy.tiny_threshold = opt.tiny_threshold;

  // Static predicates — every rank evaluates these identically, which is
  // why no handshaking is ever needed.
  auto row_has_l = [&](index_t K, int r) {
    for (const auto& blk : S.L[K])
      if (grid_.prow_of(blk.I) == r) return true;
    return false;
  };
  auto col_has_u = [&](index_t K, int c) {
    for (const auto& blk : S.U[K])
      if (grid_.pcol_of(blk.J) == c) return true;
    return false;
  };
  auto l_needed_by_col = [&](index_t K, int c) {
    return opt.edag_pruning ? col_has_u(K, c) : true;
  };
  auto u_needed_by_row = [&](index_t K, int r) {
    return opt.edag_pruning ? row_has_l(K, r) : true;
  };

  // ---- build this rank's task list (construction order == the strict
  // program order: per K, DFAC < LPAN < UPAN < UPD-near < UPD-rest).
  struct Task {
    int type;
    index_t K;
    int pending = 0;
  };
  std::vector<Task> tasks;
  std::vector<int> task_of(static_cast<std::size_t>(N) * kNumFactTags, -1);
  auto tid = [&](index_t K, int type) -> int {
    return task_of[static_cast<std::size_t>(K) * kNumFactTags + type];
  };
  auto add_task = [&](int type, index_t K) {
    task_of[static_cast<std::size_t>(K) * kNumFactTags + type] =
        static_cast<int>(tasks.size());
    tasks.push_back({type, K, 0});
  };
  for (index_t K = 0; K < N; ++K) {
    const int kr = grid_.prow_of(K), kc = grid_.pcol_of(K);
    if (myrow_ == kr && mycol_ == kc) add_task(kDfac, K);
    if (mycol_ == kc && row_has_l(K, myrow_)) add_task(kLpan, K);
    if (myrow_ == kr && col_has_u(K, mycol_)) add_task(kUpan, K);
    bool near = false, rest = false;
    for (const auto& lb : S.L[K]) {
      if (grid_.prow_of(lb.I) != myrow_) continue;
      for (const auto& ub : S.U[K]) {
        if (grid_.pcol_of(ub.J) != mycol_) continue;
        (std::min(lb.I, ub.J) == K + 1 ? near : rest) = true;
      }
    }
    if (near) add_task(kUpdNear, K);
    if (rest) add_task(kUpdRest, K);
  }

  // ---- dependency counters.
  // Availability slots: a panel TRSM waits for its diagonal (local DFAC or
  // a diag message); an update task waits for the L and U panel data
  // (local LPAN/UPAN or the broadcast messages).
  for (auto& t : tasks) {
    if (t.type == kLpan || t.type == kUpan) t.pending += 1;
    if (t.type == kUpdNear || t.type == kUpdRest) t.pending += 2;
  }
  // The kUpdRest chain: this rank's rest-updates execute in ascending K,
  // and a near-update (or any later rest-update) waits for the last
  // rest-update with a smaller source. Combined with the near/rest split
  // this guarantees every destination block accumulates its updates in
  // ascending source order — the bitwise-determinism invariant.
  std::vector<index_t> rest_Ks;
  for (const auto& t : tasks)
    if (t.type == kUpdRest) rest_Ks.push_back(t.K);
  std::vector<std::vector<int>> chain_succ(tasks.size());
  for (std::size_t p = 0; p + 1 < rest_Ks.size(); ++p) {
    const int pred = tid(rest_Ks[p], kUpdRest);
    const int succ = tid(rest_Ks[p + 1], kUpdRest);
    chain_succ[pred].push_back(succ);
    tasks[succ].pending++;
  }
  for (const auto& t : tasks) {
    if (t.type != kUpdNear) continue;
    // Largest rest source strictly below this near-update's source.
    const auto it = std::lower_bound(rest_Ks.begin(), rest_Ks.end(), t.K);
    if (it == rest_Ks.begin()) continue;
    const int pred = tid(*(it - 1), kUpdRest);
    const int self = tid(t.K, kUpdNear);
    chain_succ[pred].push_back(self);
    tasks[self].pending++;
  }
  // Pair edges: each update pair writing a block of panel M blocks the
  // panel task of M that reads it (pair-granular: the update task
  // decrements once per pair as it applies them).
  for (index_t K = 0; K < N; ++K) {
    if (tid(K, kUpdNear) < 0 && tid(K, kUpdRest) < 0) continue;
    for (const auto& lb : S.L[K]) {
      if (grid_.prow_of(lb.I) != myrow_) continue;
      for (const auto& ub : S.U[K]) {
        if (grid_.pcol_of(ub.J) != mycol_) continue;
        int dest;
        if (lb.I == ub.J)
          dest = tid(lb.I, kDfac);
        else if (lb.I > ub.J)
          dest = tid(ub.J, kLpan);
        else
          dest = tid(lb.I, kUpan);
        GESP_ASSERT(dest >= 0, "update destination panel task missing");
        tasks[dest].pending++;
      }
    }
  }

  // ---- ready queue (pipelined mode): min-heap on the look-ahead priority.
  // Panel tasks of K+1 outrank the rest-updates of K ((K+1)*8+7 > (K+1)*8+2)
  // — that preference IS the look-ahead.
  auto prio = [](const Task& t) -> long {
    const long K = t.K;
    switch (t.type) {
      case kDfac: return K * 8 + 0;
      case kLpan: return K * 8 + 1;
      case kUpan: return K * 8 + 2;
      case kUpdNear: return K * 8 + 3;
      default: return (K + 1) * 8 + 7;  // kUpdRest yields to panel K+1
    }
  };
  using HeapItem = std::pair<long, int>;
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<HeapItem>>
      ready;
  auto dec = [&](int id) {
    if (id < 0) return;
    if (--tasks[id].pending == 0)
      ready.push({prio(tasks[id]), id});
  };

  // ---- message bookkeeping. First arrival wins (a duplicated chaos
  // delivery must not double-decrement a counter); index messages carry
  // structure every rank already knows statically, so they are drained
  // and discarded.
  //
  // Static pivoting means every rank can enumerate, without communication,
  // exactly which factorization messages will be addressed to it (the
  // paper's scalability property). The schedule stops *blocking* once its
  // tasks are done, so any message it was sent but never needed (e.g.
  // un-pruned broadcasts with edag_pruning off, or index messages) is
  // drained at the end — nothing may linger in the mailbox to pollute the
  // wildcard receives of the solve phase, and a dropped message is always
  // detected as a missing expected arrival.
  std::vector<std::vector<T>> diag_recv(static_cast<std::size_t>(N));
  std::vector<std::vector<T>> lrecv(static_cast<std::size_t>(N));
  std::vector<std::vector<T>> urecv(static_cast<std::size_t>(N));
  std::vector<unsigned char> seen(static_cast<std::size_t>(N) * kNumFactTags,
                                  0);
  std::size_t nexpected = 0;
  for (index_t K = 0; K < N; ++K) {
    const int kr = grid_.prow_of(K), kc = grid_.pcol_of(K);
    if ((mycol_ == kc && myrow_ != kr && row_has_l(K, myrow_)) ||
        (myrow_ == kr && mycol_ != kc && col_has_u(K, mycol_)))
      nexpected += 1;  // the factored diagonal block
    if (mycol_ != kc && row_has_l(K, myrow_) && l_needed_by_col(K, mycol_))
      nexpected += 2;  // L index + values from my process row's panel rank
    if (myrow_ != kr && col_has_u(K, mycol_) && u_needed_by_row(K, myrow_))
      nexpected += 2;  // U index + values from my process column's panel rank
  }
  std::size_t nseen = 0;
  auto handle = [&](minimpi::Message msg) {
    GESP_ASSERT(msg.tag >= 0 && msg.tag < static_cast<int>(N) * 8,
                "non-factorization message during factorize");
    const index_t K = static_cast<index_t>(msg.tag / 8);
    const int type = msg.tag % 8;
    auto& flag = seen[static_cast<std::size_t>(K) * kNumFactTags + type];
    if (flag) return;
    flag = 1;
    nseen++;
    switch (type) {
      case kTagDiag:
        diag_recv[K] = msg.template as<T>();
        dec(tid(K, kLpan));
        dec(tid(K, kUpan));
        break;
      case kTagLValue:
        lrecv[K] = msg.template as<T>();
        dec(tid(K, kUpdNear));
        dec(tid(K, kUpdRest));
        break;
      case kTagUValue:
        urecv[K] = msg.template as<T>();
        dec(tid(K, kUpdNear));
        dec(tid(K, kUpdRest));
        break;
      default:  // kTagLIndex / kTagUIndex: static structure, nothing to do
        break;
    }
  };

  // ---- task bodies (the arithmetic is identical to the strict loop:
  // same kernels, same scatter-add order).
  std::vector<index_t> rpos, cpos, idx;
  std::size_t rest_ptr = 0;  // rest-updates complete in ascending K

  auto note_lookahead = [&](index_t K) {
    if (rest_ptr < rest_Ks.size() && rest_Ks[rest_ptr] < K)
      lookahead_hits_++;
  };

  auto exec_dfac = [&](index_t K) {
    GESP_TRACE_SPAN_ID("dist", "panel", K);
    note_lookahead(K);
    const index_t b = S.block_cols(K);
    const int kr = grid_.prow_of(K), kc = grid_.pcol_of(K);
    dense::getrf(diag_[K].data(), b, b, policy, pivot_stats_);
    // Ship the factored diagonal block to the column / row peers that
    // hold L / U blocks of this panel.
    for (int r = 0; r < grid_.pr; ++r)
      if (r != kr && row_has_l(K, r))
        comm.send_vec(grid_.rank_of(r, kc), fact_tag(K, kTagDiag), diag_[K]);
    for (int c = 0; c < grid_.pc; ++c)
      if (c != kc && col_has_u(K, c))
        comm.send_vec(grid_.rank_of(kr, c), fact_tag(K, kTagDiag), diag_[K]);
    dec(tid(K, kLpan));
    dec(tid(K, kUpan));
  };

  auto exec_lpan = [&](index_t K) {
    GESP_TRACE_SPAN_ID("dist", "panel", K);
    note_lookahead(K);
    const index_t b = S.block_cols(K);
    const int kr = grid_.prow_of(K), kc = grid_.pcol_of(K);
    const bool own_diag = (myrow_ == kr && mycol_ == kc);
    const T* diag = own_diag ? diag_[K].data() : diag_recv[K].data();
    for (std::size_t bi = 0; bi < S.L[K].size(); ++bi) {
      if (lblocks_[K][bi].empty()) continue;
      const index_t m = static_cast<index_t>(S.L[K][bi].rows.size());
      dense::trsm_right_upper(diag, b, b, lblocks_[K][bi].data(), m, m);
    }
    // Pack my L blocks of column K (they are conceptually contiguous;
    // index[] and nzval[] travel as the paper's two messages).
    idx.clear();
    std::size_t total = 0;
    for (std::size_t bi = 0; bi < S.L[K].size(); ++bi) {
      if (lblocks_[K][bi].empty()) continue;
      idx.push_back(S.L[K][bi].I);
      idx.push_back(static_cast<index_t>(S.L[K][bi].rows.size()));
      total += lblocks_[K][bi].size();
    }
    std::vector<T> packed;
    packed.reserve(total);
    for (const auto& blk : lblocks_[K])
      packed.insert(packed.end(), blk.begin(), blk.end());
    for (int c = 0; c < grid_.pc; ++c) {
      if (c == kc || !l_needed_by_col(K, c)) continue;
      comm.send_vec(grid_.rank_of(myrow_, c), fact_tag(K, kTagLIndex), idx);
      comm.send_vec(grid_.rank_of(myrow_, c), fact_tag(K, kTagLValue),
                    packed);
    }
    if (!own_diag) diag_recv[K] = {};  // sole local user of the copy
    dec(tid(K, kUpdNear));
    dec(tid(K, kUpdRest));
  };

  auto exec_upan = [&](index_t K) {
    GESP_TRACE_SPAN_ID("dist", "panel", K);
    note_lookahead(K);
    const index_t b = S.block_cols(K);
    const int kr = grid_.prow_of(K), kc = grid_.pcol_of(K);
    const bool own_diag = (myrow_ == kr && mycol_ == kc);
    const T* diag = own_diag ? diag_[K].data() : diag_recv[K].data();
    for (std::size_t uj = 0; uj < S.U[K].size(); ++uj) {
      if (ublocks_[K][uj].empty()) continue;
      const index_t c = static_cast<index_t>(S.U[K][uj].cols.size());
      dense::trsm_left_lower_unit(diag, b, b, ublocks_[K][uj].data(), c, b);
    }
    idx.clear();
    std::size_t total = 0;
    for (std::size_t uj = 0; uj < S.U[K].size(); ++uj) {
      if (ublocks_[K][uj].empty()) continue;
      idx.push_back(S.U[K][uj].J);
      idx.push_back(static_cast<index_t>(S.U[K][uj].cols.size()));
      total += ublocks_[K][uj].size();
    }
    std::vector<T> packed;
    packed.reserve(total);
    for (const auto& blk : ublocks_[K])
      packed.insert(packed.end(), blk.begin(), blk.end());
    for (int r = 0; r < grid_.pr; ++r) {
      if (r == kr || !u_needed_by_row(K, r)) continue;
      comm.send_vec(grid_.rank_of(r, mycol_), fact_tag(K, kTagUIndex), idx);
      comm.send_vec(grid_.rank_of(r, mycol_), fact_tag(K, kTagUValue),
                    packed);
    }
    if (!own_diag) diag_recv[K] = {};
    dec(tid(K, kUpdNear));
    dec(tid(K, kUpdRest));
  };

  auto exec_upd = [&](index_t K, bool near_class, int self_id) {
    GESP_TRACE_SPAN_ID("dist", "update", K);
    const index_t b = S.block_cols(K);
    const int kr = grid_.prow_of(K), kc = grid_.pcol_of(K);
    // Panel data pointers: my own TRSM'd blocks when in the panel's
    // process column/row, else the packed broadcast payloads.
    std::vector<const T*> lptr(S.L[K].size(), nullptr);
    std::vector<const T*> uptr(S.U[K].size(), nullptr);
    if (mycol_ == kc) {
      for (std::size_t bi = 0; bi < S.L[K].size(); ++bi)
        if (!lblocks_[K][bi].empty()) lptr[bi] = lblocks_[K][bi].data();
    } else {
      std::size_t off = 0;
      for (std::size_t bi = 0; bi < S.L[K].size(); ++bi) {
        if (grid_.prow_of(S.L[K][bi].I) != myrow_) continue;
        lptr[bi] = lrecv[K].data() + off;
        off += S.L[K][bi].rows.size() * static_cast<std::size_t>(b);
      }
    }
    if (myrow_ == kr) {
      for (std::size_t uj = 0; uj < S.U[K].size(); ++uj)
        if (!ublocks_[K][uj].empty()) uptr[uj] = ublocks_[K][uj].data();
    } else {
      std::size_t off = 0;
      for (std::size_t uj = 0; uj < S.U[K].size(); ++uj) {
        if (grid_.pcol_of(S.U[K][uj].J) != mycol_) continue;
        uptr[uj] = urecv[K].data() + off;
        off += S.U[K][uj].cols.size() * static_cast<std::size_t>(b);
      }
    }
    // Rank-b update of the owned trailing blocks in this class. Distinct
    // pairs write distinct destinations, so the near/rest split cannot
    // change any accumulation order within one source K.
    for (std::size_t bi = 0; bi < S.L[K].size(); ++bi) {
      const index_t I = S.L[K][bi].I;
      if (grid_.prow_of(I) != myrow_ || lptr[bi] == nullptr) continue;
      const auto& src_rows = S.L[K][bi].rows;
      const index_t m = static_cast<index_t>(src_rows.size());
      for (std::size_t uj = 0; uj < S.U[K].size(); ++uj) {
        const index_t J = S.U[K][uj].J;
        if (grid_.pcol_of(J) != mycol_ || uptr[uj] == nullptr) continue;
        if ((std::min(I, J) == K + 1) != near_class) continue;
        const auto& src_cols = S.U[K][uj].cols;
        const index_t c = static_cast<index_t>(src_cols.size());
        // Destination block and the pair's positions in it: the diagonal
        // block of I (I == J), L block (I, J) (I > J) or U block (I, J).
        const index_t O = std::min(I, J);
        const index_t bO = S.block_cols(O);
        const index_t base = S.sn_start[O];
        T* dst;
        index_t ldd = bO;
        const index_t *rp, *cp;
        int waiting;  // the task this update feeds
        if (I == J) {
          waiting = tid(I, kDfac);
          dst = diag_[I].data();
          rp = numeric::detail::local_positions(src_rows, base, bO, rpos);
          cp = numeric::detail::local_positions(src_cols, base, bO, cpos);
        } else if (I > J) {
          const index_t dbi = numeric::detail::find_block(S.L[J], I);
          GESP_ASSERT(dbi >= 0, "missing destination L block");
          const auto& dst_rows = S.L[J][dbi].rows;
          waiting = tid(J, kLpan);
          dst = lblocks_[J][dbi].data();
          ldd = static_cast<index_t>(dst_rows.size());
          rp = numeric::detail::scatter_positions(src_rows, dst_rows, rpos);
          cp = numeric::detail::local_positions(src_cols, base, bO, cpos);
        } else {
          const index_t dbj = numeric::detail::find_block(S.U[I], J);
          GESP_ASSERT(dbj >= 0, "missing destination U block");
          waiting = tid(I, kUpan);
          dst = ublocks_[I][dbj].data();
          rp = numeric::detail::local_positions(src_rows, base, bO, rpos);
          cp = numeric::detail::scatter_positions(src_cols,
                                                  S.U[I][dbj].cols, cpos);
        }
        dense::gemm_minus_scatter(m, c, b, lptr[bi], m, uptr[uj], b, dst, ldd,
                                  rp, cp);
        dec(waiting);
      }
    }
    if (!near_class) rest_ptr++;
    for (int succ : chain_succ[self_id]) dec(succ);
    // Free the broadcast payloads once both update classes for K are done.
    const int other = near_class ? tid(K, kUpdRest) : tid(K, kUpdNear);
    if (other < 0 || tasks[other].pending < 0) {
      lrecv[K] = {};
      urecv[K] = {};
    }
  };

  auto execute = [&](int id) {
    Task& t = tasks[id];
    switch (t.type) {
      case kDfac: exec_dfac(t.K); break;
      case kLpan: exec_lpan(t.K); break;
      case kUpan: exec_upan(t.K); break;
      case kUpdNear: exec_upd(t.K, true, id); break;
      default: exec_upd(t.K, false, id); break;
    }
    t.pending = -1;  // mark done (distinguishes from ready)
  };

  // Seed the queue with the tasks that start ready.
  for (int id = 0; id < static_cast<int>(tasks.size()); ++id)
    if (tasks[id].pending == 0) ready.push({prio(tasks[id]), id});

  if (opt.pipelined) {
    // Message-driven scheduler: drain arrivals, then run the lowest-key
    // ready task; block for a message only when nothing is runnable.
    // Execution linearizes to the strict order (every dependency edge
    // points forward in the strict keys), so the loop cannot deadlock.
    std::size_t ndone = 0;
    while (ndone < tasks.size()) {
      while (comm.probe()) handle(comm.recv());
      if (!ready.empty()) {
        const int id = ready.top().second;
        ready.pop();
        execute(id);
        ndone++;
      } else {
        handle(comm.recv());
      }
    }
  } else {
    // Strict mode: replay the tasks in program order (the construction
    // order), blocking on messages until the head task is runnable — the
    // original per-K loop, expressed over the same task graph.
    for (int id = 0; id < static_cast<int>(tasks.size()); ++id) {
      while (tasks[id].pending > 0) handle(comm.recv());
      execute(id);
    }
  }

  // Drain every remaining message addressed to this rank (see above): the
  // mailbox must be empty of factorization traffic before the solve phase.
  while (nseen < nexpected) handle(comm.recv());

  metrics::global().counter("dist.msgs").inc(comm.stats().messages_sent -
                                             msgs0);
  metrics::global().counter("dist.bytes").inc(comm.stats().bytes_sent -
                                              bytes0);
  metrics::global().counter("dist.lookahead_hits").inc(lookahead_hits_);
}

template <class T>
double DistributedLU<T>::factor_entry_max() const {
  using std::abs;
  const symbolic::SymbolicLU& S = *sym_;
  double m = 0.0;
  for (index_t K = 0; K < S.nsup; ++K) {
    const index_t b = S.block_cols(K);
    if (!diag_[K].empty()) {
      for (index_t c = 0; c < b; ++c)
        for (index_t r = 0; r <= c; ++r)
          m = std::max(m, static_cast<double>(abs(diag_[K][r + c * b])));
    }
    for (const auto& blk : ublocks_[K])
      for (const T& v : blk)
        m = std::max(m, static_cast<double>(abs(v)));
  }
  return m;
}

template <class T>
void DistributedLU<T>::solve(minimpi::Comm& comm, std::span<const T> b,
                             std::span<T> x) {
  GESP_CHECK(b.size() == static_cast<std::size_t>(sym_->n) &&
                 x.size() == b.size(),
             Errc::invalid_argument, "solve dimension mismatch");
  BlockVector xb;
  scatter_vector(b, xb);
  solve_lower_dist(comm, xb);
  comm.barrier();
  solve_upper_dist(comm, xb);
  comm.barrier();
  gather_vector(comm, xb, x);
  comm.barrier();
}

template <class T>
void DistributedLU<T>::scatter_vector(std::span<const T> full,
                                      BlockVector& xb) const {
  const symbolic::SymbolicLU& S = *sym_;
  const index_t N = S.nsup;
  const int me = grid_.rank_of(myrow_, mycol_);
  xb.assign(static_cast<std::size_t>(N), {});
  for (index_t K = 0; K < N; ++K)
    if (grid_.owner(K, K) == me)
      xb[K].assign(full.begin() + S.sn_start[K],
                   full.begin() + S.sn_start[K + 1]);
}

template <class T>
void DistributedLU<T>::gather_vector(minimpi::Comm& comm,
                                     const BlockVector& xb,
                                     std::span<T> full) const {
  const symbolic::SymbolicLU& S = *sym_;
  const index_t N = S.nsup;
  const int me = comm.rank();
  const int gbase = gather_vec_tag(N);
  const int btag = bcast_vec_tag(N);
  if (me == 0) {
    std::fill(full.begin(), full.end(), T{});
    index_t expect = 0;
    for (index_t K = 0; K < N; ++K) {
      if (grid_.owner(K, K) == me)
        std::copy(xb[K].begin(), xb[K].end(), full.begin() + S.sn_start[K]);
      else
        expect++;
    }
    for (index_t k = 0; k < expect; ++k) {
      const minimpi::Message msg = comm.recv(minimpi::kAnySource,
                                             minimpi::kAnyTag);
      GESP_ASSERT(msg.tag >= gbase && msg.tag < gbase + static_cast<int>(N),
                  "unexpected message during vector gather");
      const index_t K = static_cast<index_t>(msg.tag - gbase);
      const auto vals = msg.template as<T>();
      std::copy(vals.begin(), vals.end(), full.begin() + S.sn_start[K]);
    }
    std::vector<T> fv(full.begin(), full.end());
    for (int r = 1; r < comm.size(); ++r) comm.send_vec(r, btag, fv);
  } else {
    for (index_t K = 0; K < N; ++K)
      if (grid_.owner(K, K) == me)
        comm.send_vec(0, gbase + static_cast<int>(K), xb[K]);
    const auto fv = comm.recv(0, btag).template as<T>();
    std::copy(fv.begin(), fv.end(), full.begin());
  }
}

template <class T>
void DistributedLU<T>::solve_lower_dist(minimpi::Comm& comm,
                                        BlockVector& xb) const {
  const symbolic::SymbolicLU& S = *sym_;
  const index_t N = S.nsup;
  const SolveTags tags = lower_tags(N);
  const int me = comm.rank();

  // Static counters (Fig 9): fmod[I] = my block modifications feeding
  // x(I); pending[K] = messages (plus my own flush) the diag owner of K
  // waits for before x(K) can be solved.
  std::vector<index_t> fmod(static_cast<std::size_t>(N), 0);
  std::vector<index_t> pending(static_cast<std::size_t>(N), 0);
  std::vector<std::set<int>> contributors(static_cast<std::size_t>(N));
  count_t my_blocks = 0;
  for (index_t K = 0; K < N; ++K) {
    for (const auto& blk : S.L[K]) {
      const int owner = grid_.owner(blk.I, K);
      contributors[blk.I].insert(owner);
      if (owner == me) {
        fmod[blk.I]++;
        my_blocks++;
      }
    }
  }
  index_t my_diags = 0;
  for (index_t K = 0; K < N; ++K) {
    if (grid_.owner(K, K) != me) continue;
    my_diags++;
    // One decrement per contributing rank: remote ranks send an lsum
    // message, my own contribution flushes locally.
    pending[K] = static_cast<index_t>(contributors[K].size());
  }

  std::vector<std::vector<T>> lsum(static_cast<std::size_t>(N));
  for (index_t K = 0; K < N; ++K)
    if (fmod[K] > 0)
      lsum[K].assign(static_cast<std::size_t>(S.block_cols(K)), T{});

  index_t solved = 0;
  count_t processed = 0;

  // Forward declarations of the event handlers (they recurse).
  std::function<void(index_t, const std::vector<T>&)> process_x;
  std::function<void(index_t)> try_solve;

  auto flush = [&](index_t I) {
    const int owner = grid_.owner(I, I);
    if (owner == me) {
      for (std::size_t r = 0; r < lsum[I].size(); ++r)
        xb[I][r] += lsum[I][r];
      pending[I]--;
      try_solve(I);
    } else {
      comm.send_vec(owner, tags.sum_base + static_cast<int>(I), lsum[I]);
    }
  };

  process_x = [&](index_t K, const std::vector<T>& xk) {
    for (std::size_t bi = 0; bi < S.L[K].size(); ++bi) {
      if (grid_.owner(S.L[K][bi].I, K) != me) continue;
      const auto& blk = S.L[K][bi];
      const auto& rows = blk.rows;
      const index_t m = static_cast<index_t>(rows.size());
      const index_t bw = S.block_cols(K);
      const T* vals = lblocks_[K][bi].data();
      const index_t base = S.sn_start[blk.I];
      for (index_t c = 0; c < bw; ++c) {
        const T xc = xk[c];
        if (xc == T{}) continue;
        const T* col = vals + c * m;
        for (index_t r = 0; r < m; ++r)
          lsum[blk.I][rows[r] - base] -= col[r] * xc;
      }
      processed++;
      if (--fmod[blk.I] == 0) flush(blk.I);
    }
  };

  try_solve = [&](index_t K) {
    if (pending[K] != 0 || xb[K].empty()) return;
    pending[K] = -1;  // mark solved
    dense::trsv_lower_unit(diag_[K].data(), S.block_cols(K),
                           S.block_cols(K), xb[K].data());
    solved++;
    // Ship x(K) to the process rows that own blocks (I, K).
    std::set<int> dests;
    for (const auto& blk : S.L[K]) {
      const int owner = grid_.owner(blk.I, K);
      if (owner != me) dests.insert(owner);
    }
    for (int d : dests)
      comm.send_vec(d, tags.x_base + static_cast<int>(K), xb[K]);
    process_x(K, xb[K]);
  };

  for (index_t K = 0; K < N; ++K)
    if (grid_.owner(K, K) == me) try_solve(K);

  // Message-driven main loop (line (*) of Fig 9): act on whichever message
  // type arrives. The loop consumes exactly the messages addressed to this
  // phase (every x / lsum destined here is counted by processed / solved),
  // so the mailbox is clean on exit — callers barrier between phases.
  while (processed < my_blocks || solved < my_diags) {
    minimpi::Message msg = comm.recv();
    if (msg.tag >= tags.sum_base) {
      const index_t K = static_cast<index_t>(msg.tag - tags.sum_base);
      const auto vals = msg.template as<T>();
      for (std::size_t r = 0; r < vals.size(); ++r) xb[K][r] += vals[r];
      pending[K]--;
      try_solve(K);
    } else {
      const index_t K = static_cast<index_t>(msg.tag - tags.x_base);
      process_x(K, msg.template as<T>());
    }
  }
}

template <class T>
void DistributedLU<T>::solve_upper_dist(minimpi::Comm& comm,
                                        BlockVector& xb) const {
  const symbolic::SymbolicLU& S = *sym_;
  const index_t N = S.nsup;
  const SolveTags tags = upper_tags(N);
  const int me = comm.rank();

  // The paper's "two vertical linked lists": per block column J, the list
  // of my U blocks (K, J) — U is stored by block rows, so column-wise
  // access needs this auxiliary indexing.
  std::vector<std::vector<std::pair<index_t, index_t>>> by_col(
      static_cast<std::size_t>(N));  // J -> [(K, uj index)]
  std::vector<index_t> bmod(static_cast<std::size_t>(N), 0);  // per K
  std::vector<index_t> pending(static_cast<std::size_t>(N), 0);
  std::vector<std::set<int>> contributors(static_cast<std::size_t>(N));
  // xdest[J]: ranks owning some block (K, J) — the broadcast targets of
  // x(J) down process column pcol(J).
  std::vector<std::set<int>> xdest(static_cast<std::size_t>(N));
  count_t my_blocks = 0;
  for (index_t K = 0; K < N; ++K) {
    for (std::size_t uj = 0; uj < S.U[K].size(); ++uj) {
      const index_t J = S.U[K][uj].J;
      const int owner = grid_.owner(K, J);
      contributors[K].insert(owner);
      xdest[J].insert(owner);
      if (owner == me) {
        by_col[J].emplace_back(K, static_cast<index_t>(uj));
        bmod[K]++;
        my_blocks++;
      }
    }
  }
  index_t my_diags = 0;
  for (index_t K = 0; K < N; ++K) {
    if (grid_.owner(K, K) != me) continue;
    my_diags++;
    pending[K] = static_cast<index_t>(contributors[K].size());
  }

  std::vector<std::vector<T>> usum(static_cast<std::size_t>(N));
  for (index_t K = 0; K < N; ++K)
    if (bmod[K] > 0)
      usum[K].assign(static_cast<std::size_t>(S.block_cols(K)), T{});

  index_t solved = 0;
  count_t processed = 0;
  std::function<void(index_t, const std::vector<T>&)> process_x;
  std::function<void(index_t)> try_solve;

  auto flush = [&](index_t K) {
    const int owner = grid_.owner(K, K);
    if (owner == me) {
      for (std::size_t r = 0; r < usum[K].size(); ++r)
        xb[K][r] += usum[K][r];
      pending[K]--;
      try_solve(K);
    } else {
      comm.send_vec(owner, tags.sum_base + static_cast<int>(K), usum[K]);
    }
  };

  // Back substitution runs from the roots of the etree toward the leaves:
  // once x(J) is known, every block (K, J) subtracts U(K,J)·x(J).
  process_x = [&](index_t J, const std::vector<T>& xj) {
    const index_t baseJ = S.sn_start[J];
    for (const auto& [K, uj] : by_col[J]) {
      const auto& cols = S.U[K][uj].cols;
      const index_t bK = S.block_cols(K);
      const T* vals = ublocks_[K][uj].data();
      for (std::size_t cc = 0; cc < cols.size(); ++cc) {
        const T xc = xj[cols[cc] - baseJ];
        if (xc == T{}) continue;
        const T* col = vals + cc * static_cast<std::size_t>(bK);
        for (index_t r = 0; r < bK; ++r) usum[K][r] -= col[r] * xc;
      }
      processed++;
      if (--bmod[K] == 0) flush(K);
    }
  };

  try_solve = [&](index_t K) {
    if (pending[K] != 0 || xb[K].empty()) return;
    pending[K] = -1;
    dense::trsv_upper(diag_[K].data(), S.block_cols(K), S.block_cols(K),
                      xb[K].data());
    solved++;
    for (int d : xdest[K])
      if (d != me) comm.send_vec(d, tags.x_base + static_cast<int>(K),
                                 xb[K]);
    process_x(K, xb[K]);
  };

  for (index_t K = N - 1; K >= 0; --K)
    if (grid_.owner(K, K) == me) try_solve(K);

  while (processed < my_blocks || solved < my_diags) {
    minimpi::Message msg = comm.recv();
    if (msg.tag >= tags.sum_base) {
      const index_t K = static_cast<index_t>(msg.tag - tags.sum_base);
      const auto vals = msg.template as<T>();
      for (std::size_t r = 0; r < vals.size(); ++r) xb[K][r] += vals[r];
      pending[K]--;
      try_solve(K);
    } else {
      const index_t K = static_cast<index_t>(msg.tag - tags.x_base);
      process_x(K, msg.template as<T>());
    }
  }
}

template <class T>
sparse::CscMatrix<T> DistributedLU<T>::gather_l(minimpi::Comm& comm) const {
  const symbolic::SymbolicLU& S = *sym_;
  // Serialize owned L entries as (i, j, value) triplets toward rank 0.
  std::vector<T> vals;
  std::vector<index_t> ij;
  for (index_t K = 0; K < S.nsup; ++K) {
    const index_t b = S.block_cols(K);
    const index_t base = S.sn_start[K];
    if (!diag_[K].empty()) {
      for (index_t c = 0; c < b; ++c)
        for (index_t r = c + 1; r < b; ++r) {
          const T v = diag_[K][r + c * b];
          if (v == T{}) continue;
          ij.push_back(base + r);
          ij.push_back(base + c);
          vals.push_back(v);
        }
    }
    for (std::size_t bi = 0; bi < S.L[K].size(); ++bi) {
      if (lblocks_[K][bi].empty()) continue;
      const auto& rows = S.L[K][bi].rows;
      const index_t m = static_cast<index_t>(rows.size());
      for (index_t c = 0; c < b; ++c)
        for (index_t r = 0; r < m; ++r) {
          const T v = lblocks_[K][bi][r + c * m];
          if (v == T{}) continue;
          ij.push_back(rows[r]);
          ij.push_back(base + c);
          vals.push_back(v);
        }
    }
  }
  const int tag = gather_l_tag(S.nsup);
  if (comm.rank() != 0) {
    comm.send_vec(0, tag, ij);
    comm.send_vec(0, tag, vals);
    comm.barrier();
    return {};
  }
  sparse::CooMatrix<T> L(S.n, S.n);
  for (index_t d = 0; d < S.n; ++d) L.add(d, d, T{1});
  auto absorb = [&](const std::vector<index_t>& ij2,
                    const std::vector<T>& v2) {
    for (std::size_t k = 0; k < v2.size(); ++k)
      L.add(ij2[2 * k], ij2[2 * k + 1], v2[k]);
  };
  absorb(ij, vals);
  for (int r = 1; r < comm.size(); ++r) {
    const auto ij2 = comm.recv(r, tag).template as<index_t>();
    const auto v2 = comm.recv(r, tag).template as<T>();
    absorb(ij2, v2);
  }
  comm.barrier();
  return L.to_csc();
}

template <class T>
sparse::CscMatrix<T> DistributedLU<T>::gather_u(minimpi::Comm& comm) const {
  const symbolic::SymbolicLU& S = *sym_;
  std::vector<T> vals;
  std::vector<index_t> ij;
  for (index_t K = 0; K < S.nsup; ++K) {
    const index_t b = S.block_cols(K);
    const index_t base = S.sn_start[K];
    if (!diag_[K].empty()) {
      for (index_t c = 0; c < b; ++c)
        for (index_t r = 0; r <= c; ++r) {
          const T v = diag_[K][r + c * b];
          if (v == T{} && r != c) continue;
          ij.push_back(base + r);
          ij.push_back(base + c);
          vals.push_back(v);
        }
    }
    for (std::size_t uj = 0; uj < S.U[K].size(); ++uj) {
      if (ublocks_[K][uj].empty()) continue;
      const auto& cols = S.U[K][uj].cols;
      for (std::size_t cc = 0; cc < cols.size(); ++cc)
        for (index_t r = 0; r < b; ++r) {
          const T v = ublocks_[K][uj][r + cc * static_cast<std::size_t>(b)];
          if (v == T{}) continue;
          ij.push_back(base + r);
          ij.push_back(cols[cc]);
          vals.push_back(v);
        }
    }
  }
  const int tag = gather_u_tag(S.nsup);
  if (comm.rank() != 0) {
    comm.send_vec(0, tag, ij);
    comm.send_vec(0, tag, vals);
    comm.barrier();
    return {};
  }
  sparse::CooMatrix<T> U(S.n, S.n);
  auto absorb = [&](const std::vector<index_t>& ij2,
                    const std::vector<T>& v2) {
    for (std::size_t k = 0; k < v2.size(); ++k)
      U.add(ij2[2 * k], ij2[2 * k + 1], v2[k]);
  };
  absorb(ij, vals);
  for (int r = 1; r < comm.size(); ++r) {
    const auto ij2 = comm.recv(r, tag).template as<index_t>();
    const auto v2 = comm.recv(r, tag).template as<T>();
    absorb(ij2, v2);
  }
  comm.barrier();
  return U.to_csc();
}

template class DistributedLU<double>;
template class DistributedLU<Complex>;

}  // namespace gesp::dist
