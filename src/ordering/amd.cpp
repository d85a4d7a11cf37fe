#include "ordering/amd.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace gesp::ordering {
namespace {

enum class Status : unsigned char {
  kVar,       ///< live variable
  kElem,      ///< live element (eliminated pivot)
  kMerged,    ///< variable merged into a supervariable representative
  kAbsorbed,  ///< element absorbed into a newer element
  kDense,     ///< dense variable, set aside and ordered last
};

/// Doubly linked degree buckets with O(1) insert/remove.
class DegreeLists {
 public:
  explicit DegreeLists(index_t n)
      : head_(static_cast<std::size_t>(n) + 1, -1),
        next_(static_cast<std::size_t>(n), -1),
        prev_(static_cast<std::size_t>(n), -1),
        deg_(static_cast<std::size_t>(n), -1) {}

  void insert(index_t v, index_t d) {
    GESP_ASSERT(deg_[v] == -1, "degree list double insert");
    deg_[v] = d;
    next_[v] = head_[d];
    prev_[v] = -1;
    if (head_[d] != -1) prev_[head_[d]] = v;
    head_[d] = v;
    min_deg_ = std::min(min_deg_, d);
  }

  void remove(index_t v) {
    const index_t d = deg_[v];
    GESP_ASSERT(d != -1, "removing variable not in degree lists");
    if (prev_[v] != -1)
      next_[prev_[v]] = next_[v];
    else
      head_[d] = next_[v];
    if (next_[v] != -1) prev_[next_[v]] = prev_[v];
    deg_[v] = -1;
  }

  bool contains(index_t v) const { return deg_[v] != -1; }

  /// Pop a variable of minimum degree; -1 when empty.
  index_t pop_min() {
    const index_t n = static_cast<index_t>(head_.size()) - 1;
    while (min_deg_ <= n && head_[min_deg_] == -1) ++min_deg_;
    if (min_deg_ > n) return -1;
    const index_t v = head_[min_deg_];
    remove(v);
    return v;
  }

 private:
  std::vector<index_t> head_, next_, prev_, deg_;
  index_t min_deg_ = 0;
};

constexpr std::uint64_t kVarHash = 0x9E3779B97F4A7C15ull;
constexpr std::uint64_t kElemHash = 0xC2B2AE3D27D4EB4Full;

}  // namespace

std::vector<index_t> amd_order(const SymPattern& P, const AmdOptions& opt) {
  const index_t n = P.n;
  std::vector<index_t> perm(static_cast<std::size_t>(n), -1);
  if (n == 0) return perm;

  std::vector<Status> status(static_cast<std::size_t>(n), Status::kVar);
  std::vector<std::vector<index_t>> var_adj(static_cast<std::size_t>(n));
  std::vector<std::vector<index_t>> elem_adj(static_cast<std::size_t>(n));
  std::vector<std::vector<index_t>> elem_vars(static_cast<std::size_t>(n));
  std::vector<std::vector<index_t>> merged_children(
      static_cast<std::size_t>(n));
  std::vector<index_t> weight(static_cast<std::size_t>(n), 1);
  std::vector<index_t> elem_size(static_cast<std::size_t>(n), 0);
  std::vector<index_t> degree(static_cast<std::size_t>(n), 0);
  std::vector<index_t> stamp(static_cast<std::size_t>(n), -1);   // Lp set
  std::vector<index_t> estamp(static_cast<std::size_t>(n), -1);  // w[] pass
  std::vector<index_t> w(static_cast<std::size_t>(n), 0);
  std::vector<index_t> dense_vars, elim_order;
  DegreeLists lists(n);

  const index_t dense_cutoff =
      opt.dense_factor > 0
          ? std::max<index_t>(
                16, static_cast<index_t>(opt.dense_factor * std::sqrt(n)))
          : n;  // never triggers when disabled

  for (index_t v = 0; v < n; ++v) {
    var_adj[v].assign(P.ind.begin() + P.ptr[v], P.ind.begin() + P.ptr[v + 1]);
    degree[v] = static_cast<index_t>(var_adj[v].size());
    if (degree[v] >= dense_cutoff) {
      status[v] = Status::kDense;
      dense_vars.push_back(v);
    } else {
      lists.insert(v, degree[v]);
    }
  }

  std::vector<index_t> lp;  // the pivot's element list Lp
  std::vector<std::pair<std::uint64_t, index_t>> hashes;  // (hash, j ∈ Lp)
  // Hash buckets (hash mod n) over `hashes`: a head per bucket, valid while
  // its stamp is the current epoch, and a next link per pair.
  std::vector<index_t> bucket_head(static_cast<std::size_t>(n), -1);
  std::vector<index_t> bucket_stamp(static_cast<std::size_t>(n), -1);
  std::vector<index_t> bucket_next;
  std::vector<std::pair<std::uint64_t, index_t>> groups;  // merge candidates
  index_t epoch = 0;

  while (true) {
    const index_t p = lists.pop_min();
    if (p == -1) break;
    GESP_ASSERT(status[p] == Status::kVar, "pivot is not a live variable");
    ++epoch;

    // --- Build Lp = (Ap ∪ ∪_{e∈Ep} Le) \ {p}, weighted size in deg_lp.
    lp.clear();
    stamp[p] = epoch;
    index_t deg_lp = 0;
    auto collect = [&](index_t v) {
      if (stamp[v] == epoch) return;
      if (status[v] != Status::kVar) return;  // stale: merged/dense/element
      stamp[v] = epoch;
      lp.push_back(v);
      deg_lp += weight[v];
    };
    for (index_t v : var_adj[p]) collect(v);
    for (index_t e : elem_adj[p]) {
      if (status[e] != Status::kElem) continue;  // already absorbed
      for (index_t v : elem_vars[e]) collect(v);
      status[e] = Status::kAbsorbed;
      elem_vars[e].clear();
      elem_vars[e].shrink_to_fit();
    }

    // --- p becomes the new element.
    status[p] = Status::kElem;
    elem_vars[p] = lp;
    elem_size[p] = deg_lp;
    var_adj[p].clear();
    var_adj[p].shrink_to_fit();
    elem_adj[p].clear();
    elim_order.push_back(p);

    // --- Pass 1: w[e] = |Le \ Lp| (weighted) for the live elements
    // adjacent to Lp (p joins the element lists only below).
    for (index_t j : lp) {
      for (index_t e : elem_adj[j]) {
        if (status[e] != Status::kElem) continue;
        if (estamp[e] != epoch) {
          estamp[e] = epoch;
          w[e] = elem_size[e];
        }
        w[e] -= weight[j];
      }
    }

    // --- Pass 2, one in-place, order-preserving sweep per j in Lp:
    // variables covered by the new element and dead entries drop out,
    // elements entirely inside Lp die now (aggressive absorption), the
    // survivors give the approximate external degree and the supervariable
    // hash, and element p is appended. Hashing groups Lp to find
    // indistinguishable variables cheaply.
    hashes.clear();
    for (index_t j : lp) {
      index_t d = deg_lp - weight[j];
      std::uint64_t h = 0;
      auto& aj = var_adj[j];
      std::size_t kept = 0;
      for (const index_t v : aj) {
        // Lp and p are stamped; merged variables and elements are dead.
        if (stamp[v] == epoch || status[v] == Status::kMerged ||
            status[v] == Status::kElem || status[v] == Status::kAbsorbed)
          continue;
        aj[kept++] = v;
        d += weight[v];
        h += static_cast<std::uint64_t>(v) * kVarHash;
      }
      aj.resize(kept);
      auto& ej = elem_adj[j];
      kept = 0;
      for (const index_t e : ej) {
        if (status[e] != Status::kElem) continue;
        if (opt.aggressive_absorption && w[e] <= 0) {
          status[e] = Status::kAbsorbed;
          elem_vars[e].clear();
          continue;
        }
        ej[kept++] = e;
        d += w[e];
        h += static_cast<std::uint64_t>(e) * kElemHash;
      }
      ej.resize(kept);
      ej.push_back(p);
      h += static_cast<std::uint64_t>(p) * kElemHash;
      degree[j] = std::min(
          {static_cast<index_t>(n - 1), degree[j] + deg_lp - weight[j], d});
      degree[j] = std::max<index_t>(degree[j], 0);
      hashes.emplace_back(h, j);
    }

    // --- Find equal hashes without sorting all of Lp. Only equal hashes
    // can merge, and an equal hash lands in the same bucket, so the
    // members of every bucket with two or more of them, each bucket sorted
    // by (hash, j) on its own, are the candidates; the runs below then
    // merge in the order a sort of the whole list would give.
    const auto bucket_of = [n](std::uint64_t h) {
      return static_cast<std::size_t>(h % static_cast<std::uint64_t>(n));
    };
    bucket_next.resize(hashes.size());
    for (std::size_t k = 0; k < hashes.size(); ++k) {
      const std::size_t bk = bucket_of(hashes[k].first);
      if (bucket_stamp[bk] != epoch) {
        bucket_stamp[bk] = epoch;
        bucket_head[bk] = -1;
      }
      bucket_next[k] = bucket_head[bk];
      bucket_head[bk] = static_cast<index_t>(k);
    }
    groups.clear();
    for (std::size_t k = 0; k < hashes.size(); ++k) {
      const std::size_t bk = bucket_of(hashes[k].first);
      const index_t head = bucket_head[bk];
      if (head == -1 || bucket_next[head] == -1) continue;  // done, or alone
      const std::size_t first = groups.size();
      for (index_t m = head; m != -1; m = bucket_next[m])
        groups.push_back(hashes[m]);
      bucket_head[bk] = -1;
      std::sort(groups.begin() + static_cast<std::ptrdiff_t>(first),
                groups.end());
    }

    // --- Merge indistinguishable variables (identical pruned adjacency).
    auto same_adjacency = [&](index_t a, index_t b) {
      if (var_adj[a].size() != var_adj[b].size() ||
          elem_adj[a].size() != elem_adj[b].size())
        return false;
      auto sorted = [](std::vector<index_t>& v) { std::sort(v.begin(), v.end()); };
      sorted(var_adj[a]);
      sorted(var_adj[b]);
      sorted(elem_adj[a]);
      sorted(elem_adj[b]);
      return var_adj[a] == var_adj[b] && elem_adj[a] == elem_adj[b];
    };
    for (std::size_t s = 0; s < groups.size();) {
      std::size_t t = s + 1;
      while (t < groups.size() && groups[t].first == groups[s].first) ++t;
      for (std::size_t a = s; a < t; ++a) {
        const index_t ja = groups[a].second;
        if (status[ja] != Status::kVar) continue;
        for (std::size_t b = a + 1; b < t; ++b) {
          const index_t jb = groups[b].second;
          if (status[jb] != Status::kVar) continue;
          if (!same_adjacency(ja, jb)) continue;
          // jb joins supervariable ja.
          status[jb] = Status::kMerged;
          weight[ja] += weight[jb];
          weight[jb] = 0;
          merged_children[ja].push_back(jb);
          if (lists.contains(jb)) lists.remove(jb);
          var_adj[jb].clear();
          var_adj[jb].shrink_to_fit();
          elem_adj[jb].clear();
        }
      }
      s = t;
    }

    // --- Refresh degree lists.
    for (index_t j : lp) {
      if (status[j] != Status::kVar) continue;
      if (lists.contains(j)) lists.remove(j);
      lists.insert(j, std::min<index_t>(degree[j], n - 1));
    }
  }

  // --- Emit the permutation: eliminated supervariables in order, expanding
  // merged members (DFS), dense variables last.
  index_t counter = 0;
  std::vector<index_t> dfs;
  auto emit = [&](index_t root) {
    dfs.assign(1, root);
    while (!dfs.empty()) {
      const index_t v = dfs.back();
      dfs.pop_back();
      perm[v] = counter++;
      for (index_t c : merged_children[v]) dfs.push_back(c);
    }
  };
  for (index_t p : elim_order) emit(p);
  for (index_t v : dense_vars) emit(v);
  GESP_CHECK(counter == n, Errc::internal, "AMD lost variables");
  return perm;
}

std::vector<index_t> natural_order(index_t n) {
  std::vector<index_t> perm(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) perm[i] = i;
  return perm;
}

}  // namespace gesp::ordering
