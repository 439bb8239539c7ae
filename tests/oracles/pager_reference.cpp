#include "tests/oracles/pager_reference.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/core/check.hpp"
#include "src/util/rng.hpp"

namespace ooctree::parallel::oracle {

using core::EvictionIndex;
using core::EvictionPolicy;
using core::kNoNode;
using core::NodeId;
using core::Schedule;
using core::Tree;
using core::Weight;

namespace {

std::size_t idx(NodeId i) { return static_cast<std::size_t>(i); }

/// Per-datum pager state.
struct DatumState {
  Weight resident_pages = 0;  ///< pages currently in frames
  Weight dirty_pages = 0;     ///< resident pages with no disk copy yet
  Weight total_pages = 0;     ///< pages of the whole datum
  std::size_t consumer = 0;   ///< schedule position of the parent
};

}  // namespace

PagerStats run_pager_reference(const Tree& tree, const Schedule& schedule,
                               const PagerConfig& config) {
  if (config.page_size <= 0)
    throw std::invalid_argument("run_pager_reference: page_size must be positive");
  if (!core::is_topological_order(tree, schedule))
    throw std::invalid_argument("run_pager_reference: schedule is not a topological order");

  const Weight frames = config.memory / config.page_size;
  const std::vector<std::size_t> pos = core::schedule_positions(tree, schedule);
  util::Rng rng(config.seed);

  std::vector<DatumState> state(tree.size());
  for (std::size_t i = 0; i < tree.size(); ++i) {
    state[i].total_pages = page_count(tree.weight(static_cast<NodeId>(i)), config.page_size);
    const NodeId parent = tree.parent(static_cast<NodeId>(i));
    state[i].consumer = parent == kNoNode ? schedule.size() : pos[idx(parent)];
  }

  PagerStats stats;
  Weight frames_used = 0;
  std::int64_t clock = 0;

  // Evictable data, indexed by policy key (no per-eviction scan). A datum
  // enters the index when its output is produced and leaves when it is
  // consumed or loses its last resident page. In this replay a datum is
  // read back only at its consumption step, so its LRU clock is the
  // production step.
  EvictionIndex index(config.policy, tree.size(),
                      config.policy == EvictionPolicy::kRandom ? &rng : nullptr);

#if OOCTREE_AUDIT_ENABLED
  // Between steps no transient reservation is held, so conservation is
  // exact: frames_used is precisely the resident pages, every datum's
  // dirty subset fits inside its resident subset, and no datum ever grows
  // beyond its own size. O(n) per step — audit builds trade speed for the
  // invariant net.
  const auto audit_step = [&] {
    Weight resident_total = 0;
    for (std::size_t i = 0; i < tree.size(); ++i) {
      const DatumState& d = state[i];
      core::audit_check(d.dirty_pages >= 0 && d.dirty_pages <= d.resident_pages,
                        "run_pager_reference: dirty pages outside [0, resident]");
      core::audit_check(d.resident_pages <= d.total_pages,
                        "run_pager_reference: resident pages exceed the datum size");
      resident_total += d.resident_pages;
    }
    core::audit_check(resident_total == frames_used,
                      "run_pager_reference: frames_used != resident pages "
                      "(reservation leak)");
    core::audit_check(frames_used <= frames,
                      "run_pager_reference: frames_used exceeds the frame count");
    index.audit();
  };
#endif

  // Frees frames until `needed` are available, evicting via the policy.
  // Only dirty pages cost a write: a page with a disk copy is dropped for
  // free. The seed pager charged a write on every eviction — true in this
  // replay only by accident of its control flow (read-backs happen solely
  // at consumption, so evicted pages happen to always be dirty); tracking
  // dirtiness makes write-once-per-page the explicit model, which any
  // future read-ahead or partial-consumption path relies on.
  const auto make_room = [&](Weight needed) -> bool {
    while (frames - frames_used < needed) {
      const NodeId victim = index.pick();
      if (victim == kNoNode) return false;
      DatumState& v = state[idx(victim)];
      const Weight deficit = needed - (frames - frames_used);
      const Weight take = std::min(deficit, v.resident_pages);
      // Clean pages are dropped first; only never-written pages cost I/O.
      const Weight clean = v.resident_pages - v.dirty_pages;
      const Weight written = std::max<Weight>(0, take - clean);
      v.resident_pages -= take;
      v.dirty_pages -= written;
      frames_used -= take;
      stats.pages_written += written;
      stats.pages_dropped_clean += take - written;
      ++stats.eviction_events;
      if (v.resident_pages == 0) {
        index.erase(victim);
      } else if (config.policy == EvictionPolicy::kLargestFirst) {
        index.insert(victim, v.resident_pages);  // re-key after the partial spill
      }
    }
    return true;
  };

  for (std::size_t t = 0; t < schedule.size(); ++t) {
    const NodeId node = schedule[t];
    ++clock;

    // The children are consumed at this step: pin them (they stop being
    // eviction candidates now and are released in step 3).
    for (const NodeId c : tree.children(node)) index.erase(c);

    // 1. Read back missing pages of the children. Read-back pages come off
    // disk unmodified, so they stay clean.
    for (const NodeId c : tree.children(node)) {
      const Weight missing = state[idx(c)].total_pages - state[idx(c)].resident_pages;
      if (missing > 0) {
        if (!make_room(missing)) {
          stats.feasible = false;
          return stats;
        }
        state[idx(c)].resident_pages += missing;
        frames_used += missing;
        stats.pages_read += missing;
      }
    }

    // 2. Working space for the execution itself: the children pages are
    // already pinned; the transient extra is wbar minus the children total
    // (covers the case where the output is larger than the inputs). The
    // extra frames are *reserved* — counted into frames_used for the
    // duration of the step — so nothing can evict into the head-room and
    // peak_frames_used reports frames the accounting actually allocated.
    const Weight child_pages = [&] {
      Weight s = 0;
      for (const NodeId c : tree.children(node)) s += state[idx(c)].total_pages;
      return s;
    }();
    const Weight work_pages =
        std::max(child_pages, page_count(tree.wbar(node), config.page_size));
    const Weight extra = work_pages - child_pages;
    if (extra > 0 && !make_room(extra)) {
      stats.feasible = false;
      return stats;
    }
#if OOCTREE_AUDIT_ENABLED
    // Test-only seed-bug reintroduction: head-room checked but never
    // allocated. The end-of-step conservation audit must catch it.
    if (core::fault::pager.load(std::memory_order_relaxed) != 1) frames_used += extra;
#else
    frames_used += extra;  // reserve the transient working space
#endif
    stats.peak_frames_used = std::max(stats.peak_frames_used, frames_used);

    // 3. Execution: children pages are consumed and the reservation is
    // released; the node's output becomes resident. The output fits inside
    // the freed working space by construction (out_pages <= work_pages),
    // so this step never evicts.
    for (const NodeId c : tree.children(node)) {
      frames_used -= state[idx(c)].resident_pages;
      state[idx(c)].resident_pages = 0;
      state[idx(c)].dirty_pages = 0;
    }
    frames_used -= extra;
    const Weight out_pages = state[idx(node)].total_pages;
    state[idx(node)].resident_pages = out_pages;
    state[idx(node)].dirty_pages = out_pages;  // produced in memory: no disk copy yet
    frames_used += out_pages;
    if (node != tree.root() && out_pages > 0) {
      const std::int64_t key = [&]() -> std::int64_t {
        switch (config.policy) {
          case EvictionPolicy::kBelady:
            return static_cast<std::int64_t>(state[idx(node)].consumer);
          case EvictionPolicy::kLru: return clock;
          case EvictionPolicy::kLargestFirst: return out_pages;
          case EvictionPolicy::kRandom: return 0;
        }
        throw std::invalid_argument("run_pager_reference: unknown policy");
      }();
      index.insert(node, key);
    }
    stats.peak_frames_used = std::max(stats.peak_frames_used, frames_used);
#if OOCTREE_AUDIT_ENABLED
    audit_step();
#endif
  }

  stats.feasible = true;
  return stats;
}

}  // namespace ooctree::parallel::oracle
