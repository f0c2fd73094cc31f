#ifndef RSMI_CORE_SEARCH_ALGORITHMS_H_
#define RSMI_CORE_SEARCH_ALGORITHMS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/pmf.h"
#include "core/query_context.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "storage/block_store.h"

// The window and kNN algorithms that several index kinds share, each
// written once and parameterised by what differs between the kinds. A
// kind that runs one of them gets the same answers, the same tie order
// and the same counted costs as every other kind running it.

namespace rsmi {

/// Bounded max-heap of the k best candidates found so far (Q in
/// Algorithm 3). Every kind's kNN answer comes out of this class, so it
/// alone decides which of several equidistant points a query returns:
/// std::priority_queue breaks distance ties by insertion history, which
/// makes the answer depend on the order candidates are offered in.
class KnnHeap {
 public:
  explicit KnnHeap(size_t k) : k_(k) {}

  /// True once k candidates are held.
  bool Full() const { return heap_.size() >= k_; }
  size_t size() const { return heap_.size(); }
  /// Squared distance of the k-th best candidate; infinity until full.
  double KthDist2() const {
    return Full() ? heap_.top().first : std::numeric_limits<double>::infinity();
  }

  void Offer(double d2, const Point& p) {
    if (heap_.size() < k_) {
      heap_.emplace(d2, p);
    } else if (d2 < heap_.top().first) {
      heap_.pop();
      heap_.emplace(d2, p);
    }
  }

  /// Extracts all candidates ordered by increasing distance.
  std::vector<Point> Sorted() {
    std::vector<std::pair<double, Point>> tmp;
    tmp.reserve(heap_.size());
    while (!heap_.empty()) {
      tmp.push_back(heap_.top());
      heap_.pop();
    }
    std::vector<Point> out(tmp.size());
    for (size_t i = 0; i < tmp.size(); ++i) {
      out[tmp.size() - 1 - i] = tmp[i].second;
    }
    return out;
  }

 private:
  struct FirstLess {
    bool operator()(const std::pair<double, Point>& a,
                    const std::pair<double, Point>& b) const {
      return a.first < b.first;
    }
  };
  size_t k_;
  std::priority_queue<std::pair<double, Point>,
                      std::vector<std::pair<double, Point>>, FirstLess>
      heap_;
};

/// SearchRegionKnn's per-round hook for kinds whose points all live in
/// the block chain.
struct NoKnnRoundHook {
  void operator()(const Rect& /*region*/, KnnHeap& /*heap*/) const {}
};

/// Algorithm 3: kNN over a learned block layout by growing search
/// regions (RSMI, and ZM as in Section 6.2.4).
///
/// The first region is alpha * sqrt(k/n) per dimension around `q`, with
/// the skew factors alpha estimated from the marginal PMFs (Section 4.3,
/// Eq. 6). Each round scans the block range `block_range(region)` returns
/// — the kind's Algorithm 2 window range, which charges its own descents
/// to the query — skipping blocks visited in earlier rounds and blocks
/// whose MBR is no nearer than the k-th candidate. `round_hook(region,
/// heap)` then offers candidates stored outside the block chain. The
/// region doubles while fewer than min(k, n) candidates are held, widens
/// to the k-th distance while that reaches past it, and the search stops
/// once the k-th candidate lies inside it or it covers `data_bounds`.
///
/// Both callables are template parameters so the per-block loop makes no
/// indirect calls (this runs on the served kNN path).
template <typename BlockRangeFn, typename RoundHook = NoKnnRoundHook>
std::vector<Point> SearchRegionKnn(const Point& q, size_t k,
                                   size_t live_points, const Pmf& pmf_x,
                                   const Pmf& pmf_y, double knn_delta,
                                   const Rect& data_bounds,
                                   const BlockStore& store, QueryContext& ctx,
                                   BlockRangeFn&& block_range,
                                   RoundHook&& round_hook = RoundHook{}) {
  if (k == 0 || live_points == 0) return {};
  const size_t reachable = std::min(k, live_points);
  KnnHeap heap(k);

  const double frac =
      std::sqrt(static_cast<double>(k) / static_cast<double>(live_points));
  const double cap = 1.0 / std::max(1e-9, frac);  // keep width/height <= ~1
  const double ax = std::min(pmf_x.SlopeAlpha(q.x, knn_delta), cap);
  const double ay = std::min(pmf_y.SlopeAlpha(q.y, knn_delta), cap);
  double width = std::max(1e-9, ax * frac);
  double height = std::max(1e-9, ay * frac);

  std::unordered_set<int> visited;
  for (int round = 0; round < 64; ++round) {
    const Rect wq{{q.x - width / 2, q.y - height / 2},
                  {q.x + width / 2, q.y + height / 2}};
    const auto [begin, end] = block_range(wq);
    store.ScanChainRaw(begin, end, [&](int id, const Block& blk) {
      if (!visited.insert(id).second) return false;  // Alg. 3: "unvisited"
      if (heap.Full() && blk.mbr.MinDist2(q) >= heap.KthDist2()) {
        return false;  // MINDIST pruning (Alg. 3 line 7)
      }
      const Block& b = store.Access(id, ctx);
      for (const auto& e : b.entries) heap.Offer(SquaredDist(e.pt, q), e.pt);
      return false;
    });
    round_hook(wq, heap);

    const bool exhausted = wq.ContainsRect(data_bounds);
    if (heap.size() < reachable) {
      if (exhausted) break;
      width *= 2;
      height *= 2;
      continue;
    }
    const double kth = std::sqrt(heap.KthDist2());
    if (kth > std::sqrt(width * width + height * height) / 2) {
      if (exhausted) break;
      width = 2 * kth;
      height = 2 * kth;
      continue;
    }
    break;  // Q[k] inside the search region: done
  }
  return heap.Sorted();
}

/// Window query over a tree whose leaves each own one data block (KDB,
/// R*, HRR): a depth-first walk into every child whose `box` intersects
/// `prune`, charging a node page per internal node and a block access per
/// leaf, keeping the leaf points that lie inside `filter`. Trees that
/// prune and filter in the same space pass the window as both.
template <typename Node>
std::vector<Point> TreeWindowQuery(const Node* root, Rect Node::*box,
                                   const Rect& prune, const Rect& filter,
                                   const BlockStore& store,
                                   QueryContext& ctx) {
  std::vector<Point> out;
  std::vector<const Node*> stack = {root};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (node->leaf) {
      const Block& b = store.Access(node->block, ctx);
      for (const auto& e : b.entries) {
        if (filter.Contains(e.pt)) out.push_back(e.pt);
      }
      continue;
    }
    ctx.CountNodePage();
    for (const auto& child : node->children) {
      if ((child.get()->*box).Intersects(prune)) stack.push_back(child.get());
    }
  }
  return out;
}

/// Best-first kNN search [40] over the same trees: nodes pop in order of
/// their `box`'s MINDIST to `q`, and the search stops once the nearest
/// unopened node is no nearer than the k-th candidate. Charges like
/// TreeWindowQuery. Requires k > 0.
template <typename Node>
std::vector<Point> TreeKnnQuery(const Node* root, Rect Node::*box,
                                const Point& q, size_t k,
                                const BlockStore& store, QueryContext& ctx) {
  struct Cand {
    double d2;
    const Node* node;
  };
  struct CandGreater {
    bool operator()(const Cand& a, const Cand& b) const { return a.d2 > b.d2; }
  };
  std::priority_queue<Cand, std::vector<Cand>, CandGreater> pq;
  pq.push({0.0, root});
  KnnHeap heap(k);
  while (!pq.empty()) {
    const Cand c = pq.top();
    pq.pop();
    if (heap.Full() && c.d2 >= heap.KthDist2()) break;
    if (c.node->leaf) {
      const Block& b = store.Access(c.node->block, ctx);
      for (const auto& e : b.entries) heap.Offer(SquaredDist(e.pt, q), e.pt);
      continue;
    }
    ctx.CountNodePage();
    for (const auto& child : c.node->children) {
      pq.push({(child.get()->*box).MinDist2(q), child.get()});
    }
  }
  return heap.Sorted();
}

}  // namespace rsmi

#endif  // RSMI_CORE_SEARCH_ALGORITHMS_H_
