//! The tree core shared by the R\*-tree and the X-tree.
//!
//! Both structures are height-balanced MBR trees over a page arena; they
//! differ only in overflow treatment (see [`SplitPolicy`]):
//!
//! * **R\*** — forced reinsertion of the 30% outermost entries (once per
//!   level per insertion), then the topological (margin-driven) split of
//!   \[BKSS 90\].
//! * **X-tree** — topological split; if the resulting directory overlap
//!   exceeds `max_overlap`, an overlap-minimal split along a split-history
//!   dimension; if that would be unbalanced, no split at all: the node grows
//!   into a **supernode** spanning one more disk page \[BKK 96\].
//!
//! Every node touch is billed to the `CostTracker` (a supernode costs its
//! page span), and every distance/heap operation is billed as a CPU op, so
//! benches can report the same two cost axes as the paper's figures 9 / 12.

use crate::config::{SplitPolicy, TreeConfig};
use crate::cost::{CostTracker, IoStats};
use crate::node::{Entry, ItemId, Node, PageId, Payload};
use nncell_geom::{dist_sq, Mbr};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Structural diagnostics of a tree (see [`Tree::structure_stats`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StructureStats {
    /// Mean node fill factor in `(0, 1]`.
    pub avg_fill: f64,
    /// Mean pairwise sibling-MBR overlap fraction in `[0, 1]`.
    pub avg_sibling_overlap: f64,
}

/// A nearest-neighbor answer: item id plus (true, non-squared) distance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// The indexed item.
    pub id: ItemId,
    /// Euclidean distance from the query to the item's MBR (exact point
    /// distance when leaves store points).
    pub dist: f64,
}

/// Height-balanced MBR tree over a simulated page arena.
///
/// Use the [`crate::RStarTree`] / [`crate::XTree`] wrappers for a
/// policy-labelled API; this type is the shared engine.
///
/// `Clone` deep-copies the page arena; the cost tracker's counter values
/// are carried over and any bound registry metrics stay shared (see
/// `CostTracker`).
#[derive(Clone)]
pub struct Tree {
    cfg: TreeConfig,
    nodes: Vec<Option<Node>>,
    free: Vec<PageId>,
    root: PageId,
    len: usize,
    cost: CostTracker,
}

impl Tree {
    /// An empty tree.
    pub fn new(cfg: TreeConfig) -> Self {
        let mut t = Self {
            cfg,
            nodes: Vec::new(),
            free: Vec::new(),
            root: PageId(0),
            len: 0,
            cost: CostTracker::default(),
        };
        t.root = t.alloc(Node::new(0));
        t
    }

    /// The configuration this tree was built with.
    pub fn config(&self) -> &TreeConfig {
        &self.cfg
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (1 for a single leaf root).
    pub fn height(&self) -> u32 {
        self.node(self.root).level + 1
    }

    /// Number of live nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Total simulated pages occupied (counts supernode spans).
    pub fn total_pages(&self) -> u64 {
        self.nodes.iter().flatten().map(|n| n.span as u64).sum()
    }

    /// Largest supernode span in the tree (1 = no supernodes).
    pub fn max_span(&self) -> u32 {
        self.nodes
            .iter()
            .flatten()
            .map(|n| n.span)
            .max()
            .unwrap_or(1)
    }

    /// Accumulated cost counters.
    pub fn stats(&self) -> IoStats {
        self.cost.stats()
    }

    /// Structure diagnostics: average node fill (entries / capacity) and
    /// the average pairwise overlap fraction among directory siblings
    /// (`vol(a∩b)/min(vol a, vol b)`, 0 for overlap-free directories).
    pub fn structure_stats(&self) -> StructureStats {
        let mut fill_sum = 0.0;
        let mut nodes = 0usize;
        let mut overlap_sum = 0.0;
        let mut overlap_pairs = 0usize;
        for n in self.nodes.iter().flatten() {
            if n.entries.is_empty() {
                continue;
            }
            fill_sum += n.entries.len() as f64 / self.capacity(n) as f64;
            nodes += 1;
            if !n.is_leaf() {
                for i in 0..n.entries.len() {
                    for j in (i + 1)..n.entries.len() {
                        let a = &n.entries[i].mbr;
                        let b = &n.entries[j].mbr;
                        let denom = a.volume().min(b.volume());
                        if denom > 0.0 {
                            overlap_sum += a.overlap_volume(b) / denom;
                            overlap_pairs += 1;
                        }
                    }
                }
            }
        }
        StructureStats {
            avg_fill: if nodes > 0 {
                fill_sum / nodes as f64
            } else {
                0.0
            },
            avg_sibling_overlap: if overlap_pairs > 0 {
                overlap_sum / overlap_pairs as f64
            } else {
                0.0
            },
        }
    }

    /// Resets the cost counters (snapshot-and-swap: a reset racing a
    /// concurrent query batch never loses events — see
    /// `CostTracker::reset`).
    pub fn reset_stats(&self) {
        self.cost.reset();
    }

    /// Mirrors this tree's cost counters (page reads/writes, cache hits,
    /// splits) into registry metrics from now on, seeding the counters
    /// with the lifetime totals so far. Binds at most once.
    pub fn bind_metrics(&self, metrics: crate::TreeMetrics) {
        self.cost.bind_metrics(metrics);
    }

    /// Lifetime node-split count (never reset).
    pub fn splits(&self) -> u64 {
        self.cost.splits()
    }

    // ------------------------------------------------------------------
    // arena
    // ------------------------------------------------------------------

    fn alloc(&mut self, node: Node) -> PageId {
        if let Some(id) = self.free.pop() {
            self.nodes[id.0 as usize] = Some(node);
            id
        } else {
            self.nodes.push(Some(node));
            PageId((self.nodes.len() - 1) as u32)
        }
    }

    fn dealloc(&mut self, id: PageId) {
        self.nodes[id.0 as usize] = None;
        self.free.push(id);
    }

    #[inline]
    fn node(&self, id: PageId) -> &Node {
        self.nodes[id.0 as usize].as_ref().expect("dangling PageId")
    }

    #[inline]
    fn node_mut(&mut self, id: PageId) -> &mut Node {
        self.nodes[id.0 as usize].as_mut().expect("dangling PageId")
    }

    /// Bills one read access to `id` (cache-aware when enabled).
    #[inline]
    fn touch(&self, id: PageId) {
        self.cost.access(id.0 as u64, self.node(id).span as u64);
    }

    /// Enables a simulated LRU page cache of `pages` pages (0 disables).
    /// The paper grants every structure "the same amount of cache"; benches
    /// use this to level the I/O comparison.
    pub fn enable_cache(&self, pages: usize) {
        self.cost.set_cache(pages);
    }

    fn capacity(&self, node: &Node) -> usize {
        let per_page = if node.is_leaf() {
            self.cfg.max_leaf_entries()
        } else {
            self.cfg.max_dir_entries()
        };
        per_page * node.span as usize
    }

    fn overflowing(&self, id: PageId) -> bool {
        let n = self.node(id);
        n.entries.len() > self.capacity(n)
    }

    /// Bulk-loader plumbing: installs a fully built node into the arena.
    pub(crate) fn adopt_node(&mut self, node: Node) -> PageId {
        debug_assert!(node.entries.len() <= self.capacity(&node));
        self.cost.write(node.span as u64);
        self.alloc(node)
    }

    /// Bulk-loader plumbing: replaces the (empty) root with a packed
    /// subtree and recounts the items.
    pub(crate) fn adopt_root(&mut self, root: PageId) {
        let old = self.root;
        self.root = root;
        if old != root {
            let stale = self.node(old).entries.is_empty();
            debug_assert!(stale, "adopt_root over a non-empty root");
            if stale {
                self.dealloc(old);
            }
        }
        self.len = self.items().len();
    }

    // ------------------------------------------------------------------
    // insertion
    // ------------------------------------------------------------------

    /// Inserts an item with bounding box `mbr`.
    pub fn insert(&mut self, mbr: Mbr, id: ItemId) {
        assert_eq!(mbr.dim(), self.cfg.dim, "dimensionality mismatch");
        self.len += 1;
        let mut reinserted: u64 = 0;
        self.insert_at_level(Entry::item(mbr, id), 0, &mut reinserted);
    }

    fn insert_at_level(&mut self, entry: Entry, level: u32, reinserted: &mut u64) {
        let path = self.choose_path(&entry.mbr, level);
        let target = *path.last().expect("path never empty");
        self.node_mut(target).entries.push(entry);
        self.cost.write(self.node(target).span as u64);
        self.propagate_mbr(&path);
        self.resolve_overflow(&path, reinserted);
    }

    /// Root-to-`level` descent choosing the insertion subtree (R\* criteria).
    fn choose_path(&self, mbr: &Mbr, level: u32) -> Vec<PageId> {
        let mut path = vec![self.root];
        let mut cur = self.root;
        self.touch(cur);
        while self.node(cur).level > level {
            let n = self.node(cur);
            let idx = if n.level == 1 {
                // children are leaves: minimize overlap enlargement
                self.pick_min_overlap_enlargement(n, mbr)
            } else {
                self.pick_min_area_enlargement(n, mbr)
            };
            cur = n.entries[idx].child_id();
            self.touch(cur);
            path.push(cur);
        }
        path
    }

    fn pick_min_area_enlargement(&self, n: &Node, mbr: &Mbr) -> usize {
        let mut best = 0usize;
        let mut best_enl = f64::INFINITY;
        let mut best_area = f64::INFINITY;
        for (i, e) in n.entries.iter().enumerate() {
            let enl = e.mbr.enlargement(mbr);
            let area = e.mbr.volume();
            if enl < best_enl - 1e-15 || (enl <= best_enl + 1e-15 && area < best_area) {
                best = i;
                best_enl = enl;
                best_area = area;
            }
        }
        best
    }

    fn pick_min_overlap_enlargement(&self, n: &Node, mbr: &Mbr) -> usize {
        // R* optimization: with many entries (supernodes!), restrict the
        // quadratic overlap check to the 32 candidates with least area
        // enlargement.
        const CANDIDATE_CAP: usize = 32;
        let mut order: Vec<usize> = (0..n.entries.len()).collect();
        if n.entries.len() > CANDIDATE_CAP {
            order.sort_by(|&a, &b| {
                let ea = n.entries[a].mbr.enlargement(mbr);
                let eb = n.entries[b].mbr.enlargement(mbr);
                ea.partial_cmp(&eb).unwrap_or(Ordering::Equal)
            });
            order.truncate(CANDIDATE_CAP);
        }
        let mut best = order[0];
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for &i in &order {
            let e = &n.entries[i];
            let grown = e.mbr.union(mbr);
            let mut overlap_before = 0.0;
            let mut overlap_after = 0.0;
            for (j, f) in n.entries.iter().enumerate() {
                if i == j {
                    continue;
                }
                overlap_before += e.mbr.overlap_volume(&f.mbr);
                overlap_after += grown.overlap_volume(&f.mbr);
            }
            self.cost.cpu(n.entries.len() as u64);
            let key = (
                overlap_after - overlap_before,
                e.mbr.enlargement(mbr),
                e.mbr.volume(),
            );
            if key < best_key {
                best = i;
                best_key = key;
            }
        }
        best
    }

    /// Recomputes the parent-entry MBRs exactly along `path` (bottom-up).
    fn propagate_mbr(&mut self, path: &[PageId]) {
        for i in (1..path.len()).rev() {
            let child = path[i];
            let parent = path[i - 1];
            let child_mbr = self.node(child).mbr().expect("child not empty");
            let p = self.node_mut(parent);
            let idx = p
                .entries
                .iter()
                .position(|e| e.payload == Payload::Child(child))
                .expect("child entry present in parent");
            p.entries[idx].mbr = child_mbr;
        }
    }

    /// Handles overflow of the last node on `path`, cascading upward.
    fn resolve_overflow(&mut self, path: &[PageId], reinserted: &mut u64) {
        let id = *path.last().expect("overflow path is never empty");
        if !self.overflowing(id) {
            return;
        }
        let level = self.node(id).level;
        let is_root = id == self.root;

        // R*: forced reinsertion, once per level per insertion.
        if self.cfg.policy == SplitPolicy::RStar
            && !is_root
            && level < 64
            && *reinserted & (1 << level) == 0
        {
            *reinserted |= 1 << level;
            self.forced_reinsert(path, reinserted);
            return;
        }

        // X-tree overflow cascade for directory nodes.
        if self.cfg.policy == SplitPolicy::XTree && !self.node(id).is_leaf() {
            if let Some((a, b, dim)) = self.try_xtree_split(id) {
                self.apply_split(path, a, b, dim, reinserted);
            } else {
                // Supernode: absorb the overflow in one more page.
                let n = self.node_mut(id);
                n.span += 1;
                self.cost.write(self.node(id).span as u64);
            }
            return;
        }

        // Topological split (R* always; X-tree leaves).
        let entries = std::mem::take(&mut self.node_mut(id).entries);
        let leaf = self.node(id).is_leaf();
        let (a, b, dim) = self.rstar_split(entries, leaf);
        self.apply_split(path, a, b, dim, reinserted);
    }

    /// Installs a computed split of the last node on `path` and cascades.
    fn apply_split(
        &mut self,
        path: &[PageId],
        a: Vec<Entry>,
        b: Vec<Entry>,
        dim: usize,
        reinserted: &mut u64,
    ) {
        let id = *path.last().expect("split path is never empty");
        self.cost.split();
        let level = self.node(id).level;
        let per_page = if level == 0 {
            self.cfg.max_leaf_entries()
        } else {
            self.cfg.max_dir_entries()
        };
        let span_for = |len: usize| len.div_ceil(per_page).max(1) as u32;

        let hist = self.node(id).split_history;
        {
            let n = self.node_mut(id);
            n.span = span_for(a.len());
            n.entries = a;
        }
        let mut sibling = Node::new(level);
        sibling.span = span_for(b.len());
        sibling.split_history = hist;
        sibling.entries = b;
        let sib_mbr = sibling.mbr().expect("split side not empty");
        let sib_id = self.alloc(sibling);
        let node_mbr = self.node(id).mbr().expect("split side not empty");
        self.cost
            .write(self.node(id).span as u64 + self.node(sib_id).span as u64);

        if id == self.root {
            let mut new_root = Node::new(level + 1);
            new_root.record_split(dim);
            new_root.entries.push(Entry::child(node_mbr, id));
            new_root.entries.push(Entry::child(sib_mbr, sib_id));
            self.root = self.alloc(new_root);
            self.cost.write(1);
            return;
        }

        let parent = path[path.len() - 2];
        {
            let p = self.node_mut(parent);
            p.record_split(dim);
            let idx = p
                .entries
                .iter()
                .position(|e| e.payload == Payload::Child(id))
                .expect("split child present in parent");
            p.entries[idx].mbr = node_mbr;
            p.entries.push(Entry::child(sib_mbr, sib_id));
        }
        self.cost.write(self.node(parent).span as u64);
        self.resolve_overflow(&path[..path.len() - 1], reinserted);
    }

    /// R\* forced reinsertion of the `reinsert_fraction` outermost entries.
    fn forced_reinsert(&mut self, path: &[PageId], reinserted: &mut u64) {
        let id = *path.last().expect("reinsert path is never empty");
        let level = self.node(id).level;
        let center = self.node(id).mbr().expect("non-empty").center();
        let frac = self.cfg.reinsert_fraction;
        let n = self.node_mut(id);
        // Sort by center distance, farthest last; split off the tail.
        n.entries.sort_by(|x, y| {
            let dx = dist_sq(&x.mbr.center(), &center);
            let dy = dist_sq(&y.mbr.center(), &center);
            dx.partial_cmp(&dy).unwrap_or(Ordering::Equal)
        });
        let total = n.entries.len();
        let p = ((total as f64 * frac) as usize).clamp(1, total - 1);
        let evicted: Vec<Entry> = n.entries.split_off(total - p);
        self.cost.cpu(total as u64);
        self.propagate_mbr(path);
        // Close reinsert: nearest-to-center first.
        for e in evicted {
            self.insert_at_level(e, level, reinserted);
        }
    }

    // ------------------------------------------------------------------
    // splits
    // ------------------------------------------------------------------

    /// The R\*-tree topological split: choose the axis with minimum margin
    /// sum over all distributions, then the distribution with minimum
    /// overlap (ties: minimum total area). Returns `(left, right, axis)`.
    fn rstar_split(&self, mut entries: Vec<Entry>, leaf: bool) -> (Vec<Entry>, Vec<Entry>, usize) {
        let d = self.cfg.dim;
        let total = entries.len();
        let per_page = if leaf {
            self.cfg.max_leaf_entries()
        } else {
            self.cfg.max_dir_entries()
        };
        let m = ((per_page as f64 * 0.4) as usize).clamp(1, total / 2);

        let mut best_axis = 0usize;
        let mut best_margin = f64::INFINITY;
        for axis in 0..d {
            let mut margin = 0.0;
            for by_hi in [false, true] {
                sort_entries(&mut entries, axis, by_hi);
                let (prefix, suffix) = prefix_suffix_unions(&entries);
                for k in m..=(total - m) {
                    margin += prefix[k - 1].margin() + suffix[k].margin();
                }
            }
            self.cost.cpu(total as u64);
            if margin < best_margin {
                best_margin = margin;
                best_axis = axis;
            }
        }

        let mut best: Option<(bool, usize, f64, f64)> = None;
        for by_hi in [false, true] {
            sort_entries(&mut entries, best_axis, by_hi);
            let (prefix, suffix) = prefix_suffix_unions(&entries);
            for k in m..=(total - m) {
                let left = &prefix[k - 1];
                let right = &suffix[k];
                let overlap = left.overlap_volume(right);
                let area = left.volume() + right.volume();
                let better = match &best {
                    None => true,
                    Some((_, _, o, a)) => {
                        overlap < o - 1e-15 || (overlap <= o + 1e-15 && area < *a)
                    }
                };
                if better {
                    best = Some((by_hi, k, overlap, area));
                }
            }
        }
        let (by_hi, k, _, _) = best.expect("at least one distribution");
        sort_entries(&mut entries, best_axis, by_hi);
        let right = entries.split_off(k);
        (entries, right, best_axis)
    }

    /// X-tree directory split: topological first; if too much overlap, an
    /// overlap-minimal split along a split-history dimension; `None` means
    /// "make a supernode".
    fn try_xtree_split(&mut self, id: PageId) -> Option<(Vec<Entry>, Vec<Entry>, usize)> {
        let entries = std::mem::take(&mut self.node_mut(id).entries);
        let total = entries.len();
        let min_side = ((total as f64 * self.cfg.min_fanout) as usize).max(1);

        // 1. Topological split.
        let (a, b, dim) = self.rstar_split(entries, false);
        if rel_overlap(&a, &b) <= self.cfg.max_overlap && a.len() >= min_side && b.len() >= min_side
        {
            return Some((a, b, dim));
        }
        let mut entries = a;
        entries.extend(b);

        // 2. Overlap-minimal split: try split-history dimensions first, then
        // every dimension, keeping the best balanced distribution.
        let hist: Vec<usize> = self.node(id).history_dims().collect();
        let candidate_dims: Vec<usize> = if hist.is_empty() {
            (0..self.cfg.dim).collect()
        } else {
            let mut v = hist.clone();
            v.extend((0..self.cfg.dim).filter(|dd| !hist.contains(dd)));
            v
        };
        let mut best: Option<(usize, usize, f64)> = None; // (dim, k, overlap)
        for &dim in &candidate_dims {
            sort_entries(&mut entries, dim, false);
            let (prefix, suffix) = prefix_suffix_unions(&entries);
            for k in min_side..=(total - min_side) {
                let left = &prefix[k - 1];
                let right = &suffix[k];
                let union_v = left.union(right).volume();
                let ov = if union_v > 0.0 {
                    left.overlap_volume(right) / union_v
                } else {
                    0.0
                };
                if best.is_none_or(|(_, _, bo)| ov < bo) {
                    best = Some((dim, k, ov));
                }
            }
            self.cost.cpu(total as u64);
        }
        if let Some((dim, k, ov)) = best {
            if ov <= self.cfg.max_overlap {
                sort_entries(&mut entries, dim, false);
                let right = entries.split_off(k);
                return Some((entries, right, dim));
            }
        }

        // 3. Give up: restore entries; caller makes a supernode.
        self.node_mut(id).entries = entries;
        None
    }

    // ------------------------------------------------------------------
    // deletion
    // ------------------------------------------------------------------

    /// Removes the item `id` whose entry MBR equals `mbr`.
    ///
    /// Returns `false` when no such entry exists. Underflowing nodes are
    /// dissolved and their entries reinserted (the R-tree condense step).
    pub fn delete(&mut self, mbr: &Mbr, id: ItemId) -> bool {
        let Some(path) = self.find_leaf(self.root, mbr, id, &mut Vec::new()) else {
            return false;
        };
        let leaf = *path.last().expect("find_leaf returns a non-empty path");
        {
            let n = self.node_mut(leaf);
            let idx = n
                .entries
                .iter()
                .position(|e| e.payload == Payload::Item(id) && &e.mbr == mbr)
                .expect("find_leaf returned a leaf containing the entry");
            n.entries.swap_remove(idx);
        }
        self.cost.write(self.node(leaf).span as u64);
        self.len -= 1;
        self.condense(path);
        true
    }

    fn find_leaf(
        &self,
        cur: PageId,
        mbr: &Mbr,
        id: ItemId,
        path: &mut Vec<PageId>,
    ) -> Option<Vec<PageId>> {
        self.touch(cur);
        path.push(cur);
        let n = self.node(cur);
        if n.is_leaf() {
            if n.entries
                .iter()
                .any(|e| e.payload == Payload::Item(id) && &e.mbr == mbr)
            {
                return Some(path.clone());
            }
        } else {
            for e in &n.entries {
                if e.mbr.contains_mbr(mbr) {
                    if let Some(p) = self.find_leaf(e.child_id(), mbr, id, path) {
                        return Some(p);
                    }
                }
            }
        }
        path.pop();
        None
    }

    fn condense(&mut self, mut path: Vec<PageId>) {
        let mut orphans: Vec<(u32, Entry)> = Vec::new();
        while path.len() > 1 {
            let id = path.pop().expect("condense path has at least two nodes");
            let parent = *path.last().expect("condense path has at least two nodes");
            let n = self.node(id);
            let min = self.cfg.min_entries(n.is_leaf());
            if n.entries.len() < min {
                let level = n.level;
                let taken = std::mem::take(&mut self.node_mut(id).entries);
                orphans.extend(taken.into_iter().map(|e| (level, e)));
                let p = self.node_mut(parent);
                let idx = p
                    .entries
                    .iter()
                    .position(|e| e.payload == Payload::Child(id))
                    .expect("child present");
                p.entries.swap_remove(idx);
                self.dealloc(id);
            } else {
                // Shrink supernode span if the entries now fit fewer pages.
                let per_page = if n.is_leaf() {
                    self.cfg.max_leaf_entries()
                } else {
                    self.cfg.max_dir_entries()
                };
                let need = n.entries.len().div_ceil(per_page).max(1) as u32;
                if need < n.span {
                    self.node_mut(id).span = need;
                }
                // Tighten the parent entry MBR.
                let child_mbr = self.node(id).mbr();
                let p = self.node_mut(parent);
                let idx = p
                    .entries
                    .iter()
                    .position(|e| e.payload == Payload::Child(id))
                    .expect("child present");
                match child_mbr {
                    Some(m) => p.entries[idx].mbr = m,
                    None => {
                        p.entries.swap_remove(idx);
                        self.dealloc(id);
                    }
                }
            }
            self.cost.write(self.node(parent).span as u64);
        }
        // Shrink the root: a directory root with one child hands over.
        loop {
            let r = self.node(self.root);
            if !r.is_leaf() && r.entries.len() == 1 {
                let child = r.entries[0].child_id();
                let old = self.root;
                self.root = child;
                self.dealloc(old);
            } else {
                break;
            }
        }
        // Reinsert orphans at their original levels.
        let mut reinserted: u64 = u64::MAX; // no forced reinsertion here
        for (level, e) in orphans {
            let root_level = self.node(self.root).level;
            if level > root_level {
                // The tree shrank below the orphan's level; reinsert its
                // descendants instead (rare, only after mass deletions).
                self.reinsert_subtree(e, &mut reinserted);
            } else {
                self.insert_at_level(e, level, &mut reinserted);
            }
        }
    }

    fn reinsert_subtree(&mut self, e: Entry, reinserted: &mut u64) {
        match e.payload {
            Payload::Item(id) => {
                self.insert_at_level(Entry::item(e.mbr, id), 0, reinserted);
            }
            Payload::Child(cid) => {
                let entries = std::mem::take(&mut self.node_mut(cid).entries);
                let level = self.node(cid).level;
                self.dealloc(cid);
                for sub in entries {
                    let root_level = self.node(self.root).level;
                    if level > root_level {
                        self.reinsert_subtree(sub, reinserted);
                    } else {
                        self.insert_at_level(sub, level, reinserted);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // queries
    // ------------------------------------------------------------------

    /// All items whose MBR contains the query point.
    pub fn point_query(&self, q: &[f64]) -> Vec<ItemId> {
        let mut out = Vec::new();
        self.point_query_rec(self.root, q, &mut out);
        out
    }

    fn point_query_rec(&self, id: PageId, q: &[f64], out: &mut Vec<ItemId>) {
        self.touch(id);
        let n = self.node(id);
        self.cost.cpu(n.entries.len() as u64);
        for e in &n.entries {
            if e.mbr.contains_point(q) {
                match e.payload {
                    Payload::Item(item) => out.push(item),
                    Payload::Child(c) => self.point_query_rec(c, q, out),
                }
            }
        }
    }

    /// [`Self::point_query`] with caller-provided buffers: the traversal
    /// stack and the output vector are cleared and reused, so a warmed-up
    /// caller pays **zero heap allocations** per query. Returns the number
    /// of simulated pages touched (supernodes count their span) — the
    /// per-query page cost, independent of the shared counters.
    ///
    /// Item order differs from [`Self::point_query`] (explicit stack vs.
    /// recursion); callers that need a canonical order must sort.
    pub fn point_query_with(
        &self,
        q: &[f64],
        stack: &mut Vec<PageId>,
        out: &mut Vec<ItemId>,
    ) -> u64 {
        stack.clear();
        out.clear();
        stack.push(self.root);
        let mut pages = 0u64;
        while let Some(id) = stack.pop() {
            self.touch(id);
            let n = self.node(id);
            pages += n.span as u64;
            self.cost.cpu(n.entries.len() as u64);
            for e in &n.entries {
                if e.mbr.contains_point(q) {
                    match e.payload {
                        Payload::Item(item) => out.push(item),
                        Payload::Child(c) => stack.push(c),
                    }
                }
            }
        }
        pages
    }

    /// [`Self::sphere_query`] with caller-provided buffers; see
    /// [`Self::point_query_with`] for the contract.
    pub fn sphere_query_with(
        &self,
        center: &[f64],
        radius: f64,
        stack: &mut Vec<PageId>,
        out: &mut Vec<ItemId>,
    ) -> u64 {
        stack.clear();
        out.clear();
        stack.push(self.root);
        let mut pages = 0u64;
        while let Some(id) = stack.pop() {
            self.touch(id);
            let n = self.node(id);
            pages += n.span as u64;
            self.cost.cpu(n.entries.len() as u64);
            for e in &n.entries {
                if e.mbr.intersects_sphere(center, radius) {
                    match e.payload {
                        Payload::Item(item) => out.push(item),
                        Payload::Child(c) => stack.push(c),
                    }
                }
            }
        }
        pages
    }

    /// All items whose MBR intersects the query window.
    pub fn window_query(&self, window: &Mbr) -> Vec<ItemId> {
        let mut out = Vec::new();
        self.window_query_rec(self.root, window, &mut out);
        out
    }

    fn window_query_rec(&self, id: PageId, w: &Mbr, out: &mut Vec<ItemId>) {
        self.touch(id);
        let n = self.node(id);
        self.cost.cpu(n.entries.len() as u64);
        for e in &n.entries {
            if e.mbr.intersects(w) {
                match e.payload {
                    Payload::Item(item) => out.push(item),
                    Payload::Child(c) => self.window_query_rec(c, w, out),
                }
            }
        }
    }

    /// All items whose MBR intersects the sphere `(center, radius)`.
    pub fn sphere_query(&self, center: &[f64], radius: f64) -> Vec<ItemId> {
        let mut out = Vec::new();
        self.sphere_query_rec(self.root, center, radius, &mut out);
        out
    }

    fn sphere_query_rec(&self, id: PageId, c: &[f64], r: f64, out: &mut Vec<ItemId>) {
        self.touch(id);
        let n = self.node(id);
        self.cost.cpu(n.entries.len() as u64);
        for e in &n.entries {
            if e.mbr.intersects_sphere(c, r) {
                match e.payload {
                    Payload::Item(item) => out.push(item),
                    Payload::Child(child) => self.sphere_query_rec(child, c, r, out),
                }
            }
        }
    }

    /// All items stored in leaf *pages* whose region contains `q` — the
    /// paper's **Point** candidate strategy ("all points of which the
    /// rectangle in the index contains the point").
    pub fn page_point_query(&self, q: &[f64]) -> Vec<ItemId> {
        let mut out = Vec::new();
        self.page_query_rec(self.root, &mut out, &|m: &Mbr| m.contains_point(q));
        out
    }

    /// All items stored in leaf pages whose region intersects the sphere —
    /// the paper's **Sphere** candidate strategy.
    pub fn page_sphere_query(&self, center: &[f64], radius: f64) -> Vec<ItemId> {
        let mut out = Vec::new();
        self.page_query_rec(self.root, &mut out, &|m: &Mbr| {
            m.intersects_sphere(center, radius)
        });
        out
    }

    fn page_query_rec(&self, id: PageId, out: &mut Vec<ItemId>, pred: &dyn Fn(&Mbr) -> bool) {
        self.touch(id);
        let n = self.node(id);
        self.cost.cpu(n.entries.len() as u64);
        if n.is_leaf() {
            // The page region qualified; return everything stored in it.
            out.extend(n.entries.iter().map(|e| e.item_id()));
            return;
        }
        for e in &n.entries {
            if pred(&e.mbr) {
                self.page_query_rec(e.child_id(), out, pred);
            }
        }
    }

    /// MINDIST-ordered best-first traversal that **streams leaf items to
    /// the caller** while the caller shrinks the pruning bound — the
    /// candidate-gathering replacement for [`Self::point_query_with`] /
    /// [`Self::sphere_query_with`] on nearest-neighbor paths (see
    /// `DESIGN.md` §17).
    ///
    /// Pages are expanded in ascending `MINDIST(q, MBR)` order from a
    /// priority queue \[HS 95\]. When a leaf is expanded, `visit(item)` is
    /// called for **every** entry it stores — the traversal computes no
    /// per-item distances; the caller owns item evaluation (typically via
    /// the early-abort distance kernel) and returns the current pruning
    /// bound as a *squared* distance in the tree's Euclidean geometry:
    ///
    /// * `f64::INFINITY` — no bound yet; nothing is pruned.
    /// * any non-negative value `b²` — directory entries and queued pages
    ///   with `MINDIST² > b²` are pruned (strict: equality is expanded, so
    ///   ties on the bound are never lost).
    /// * any negative value — abort the whole traversal (deadline hit);
    ///   remaining queued pages are counted as pruned and the walk stops.
    ///
    /// Exactness: the bound may only *shrink* over the traversal (the
    /// caller's running best can only improve), every skipped subtree had
    /// `MINDIST² > b²` against a bound that was already valid, and
    /// `MINDIST` lower-bounds the distance to anything inside the MBR —
    /// so no item within the final bound is ever missed. The traversal
    /// terminates early once the closest queued page is beyond the bound
    /// (a min-heap pop ordering makes that a global statement).
    ///
    /// Returns the page count (supernodes bill their span) and the number
    /// of subtrees pruned before their node was ever read. The heap lives
    /// in the caller's [`BestFirstScratch`]; a warmed-up scratch makes the
    /// traversal allocation-free.
    pub fn best_first_stream_with<F>(
        &self,
        q: &[f64],
        scratch: &mut BestFirstScratch,
        mut visit: F,
    ) -> TraversalStats
    where
        F: FnMut(ItemId) -> f64,
    {
        let mut stats = TraversalStats::default();
        scratch.heap.clear();
        if self.len == 0 {
            return stats;
        }
        let mut bound = f64::INFINITY;
        scratch.heap.push(PageSlot {
            key: 0.0,
            page: self.root,
        });
        'walk: while let Some(slot) = scratch.heap.pop() {
            self.cost.cpu(1);
            if slot.key > bound {
                // Min-heap: every page still queued is at least this far
                // out, so the whole frontier is pruned in one step.
                stats.nodes_pruned += 1 + scratch.heap.len() as u64;
                break;
            }
            self.touch(slot.page);
            let n = self.node(slot.page);
            stats.pages += n.span as u64;
            self.cost.cpu(n.entries.len() as u64);
            if n.is_leaf() {
                for e in &n.entries {
                    bound = visit(e.item_id());
                    if bound < 0.0 {
                        stats.nodes_pruned += scratch.heap.len() as u64;
                        break 'walk;
                    }
                }
            } else {
                for e in &n.entries {
                    let d2 = e.mbr.min_dist_sq(q);
                    if d2 > bound {
                        stats.nodes_pruned += 1;
                        continue;
                    }
                    scratch.heap.push(PageSlot {
                        key: d2,
                        page: e.child_id(),
                    });
                }
            }
        }
        stats
    }

    /// Best-first (priority-queue) nearest-neighbor search \[HS 95\].
    pub fn nn_best_first(&self, q: &[f64]) -> Option<Neighbor> {
        self.knn_best_first(q, 1).into_iter().next()
    }

    /// Best-first k-nearest-neighbor search.
    pub fn knn_best_first(&self, q: &[f64], k: usize) -> Vec<Neighbor> {
        #[derive(PartialEq)]
        struct Item {
            key: f64,
            target: Result<PageId, (ItemId, f64)>,
        }
        impl Eq for Item {}
        impl PartialOrd for Item {
            fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
                Some(self.cmp(o))
            }
        }
        impl Ord for Item {
            fn cmp(&self, o: &Self) -> Ordering {
                // min-heap by key
                o.key.partial_cmp(&self.key).unwrap_or(Ordering::Equal)
            }
        }

        let mut out = Vec::new();
        if self.len == 0 || k == 0 {
            return out;
        }
        let mut heap: BinaryHeap<Item> = BinaryHeap::new();
        heap.push(Item {
            key: 0.0,
            target: Ok(self.root),
        });
        // Upper bound: the k-th best item distance seen so far (max-heap of
        // item keys). Entries beyond it can never reach the result.
        let mut kth: BinaryHeap<OrderedF64> = BinaryHeap::new();
        let bound = |kth: &BinaryHeap<OrderedF64>| {
            if kth.len() == k {
                kth.peek().map(|b| b.0).unwrap_or(f64::INFINITY)
            } else {
                f64::INFINITY
            }
        };
        while let Some(it) = heap.pop() {
            self.cost.cpu(1);
            match it.target {
                Err((id, d2)) => {
                    out.push(Neighbor {
                        id,
                        dist: d2.sqrt(),
                    });
                    if out.len() == k {
                        break;
                    }
                }
                Ok(page) => {
                    self.touch(page);
                    let n = self.node(page);
                    self.cost.cpu(n.entries.len() as u64);
                    for e in &n.entries {
                        let d2 = e.mbr.min_dist_sq(q);
                        if d2 > bound(&kth) {
                            continue;
                        }
                        match e.payload {
                            Payload::Item(id) => {
                                if kth.len() == k {
                                    kth.pop();
                                }
                                kth.push(OrderedF64(d2));
                                heap.push(Item {
                                    key: d2,
                                    target: Err((id, d2)),
                                });
                            }
                            Payload::Child(c) => heap.push(Item {
                                key: d2,
                                target: Ok(c),
                            }),
                        }
                    }
                }
            }
        }
        out
    }

    /// Branch-and-bound depth-first nearest-neighbor search \[RKV 95\], with
    /// MINDIST ordering and MINDIST/MINMAXDIST pruning.
    pub fn nn_branch_bound(&self, q: &[f64]) -> Option<Neighbor> {
        if self.len == 0 {
            return None;
        }
        let mut best: Option<(ItemId, f64)> = None;
        self.nn_bb_rec(self.root, q, &mut best);
        best.map(|(id, d2)| Neighbor {
            id,
            dist: d2.sqrt(),
        })
    }

    fn nn_bb_rec(&self, id: PageId, q: &[f64], best: &mut Option<(ItemId, f64)>) {
        self.touch(id);
        let n = self.node(id);
        self.cost.cpu(n.entries.len() as u64);
        if n.is_leaf() {
            for e in &n.entries {
                let d2 = e.mbr.min_dist_sq(q);
                if best.is_none_or(|(_, b)| d2 < b) {
                    *best = Some((e.item_id(), d2));
                }
            }
            return;
        }
        // Active branch list ordered by MINDIST; prune with MINMAXDIST.
        let mut abl: Vec<(f64, f64, PageId)> = n
            .entries
            .iter()
            .map(|e| (e.mbr.min_dist_sq(q), e.mbr.minmax_dist_sq(q), e.child_id()))
            .collect();
        self.cost.cpu(2 * abl.len() as u64);
        abl.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
        // Downward prune: an MBR whose MINDIST exceeds a sibling's
        // MINMAXDIST cannot contain the NN.
        let min_minmax = abl.iter().map(|t| t.1).fold(f64::INFINITY, f64::min);
        for (mind, _, child) in abl {
            if mind > min_minmax + 1e-12 {
                continue;
            }
            if let Some((_, b)) = best {
                if mind >= *b {
                    continue;
                }
            }
            self.nn_bb_rec(child, q, best);
        }
    }

    // ------------------------------------------------------------------
    // introspection / validation
    // ------------------------------------------------------------------

    /// Iterates over every leaf entry (id, MBR).
    pub fn items(&self) -> Vec<(ItemId, Mbr)> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let n = self.node(id);
            for e in &n.entries {
                match e.payload {
                    Payload::Item(item) => out.push((item, e.mbr.clone())),
                    Payload::Child(c) => stack.push(c),
                }
            }
        }
        out
    }

    /// Structural invariant check for tests: levels descend by one, parent
    /// entry MBRs are exact unions, entry counts fit page spans.
    ///
    /// # Panics
    /// Panics with a description of the violated invariant.
    pub fn validate(&self) {
        self.validate_rec(self.root, None);
        assert_eq!(
            self.items().len(),
            self.len,
            "len() disagrees with leaf entry count"
        );
    }

    fn validate_rec(&self, id: PageId, expected_mbr: Option<&Mbr>) {
        let n = self.node(id);
        assert!(
            n.entries.len() <= self.capacity(n),
            "node {id:?} over capacity: {} > {}",
            n.entries.len(),
            self.capacity(n)
        );
        if let Some(exp) = expected_mbr {
            let actual = n.mbr().expect("non-root node must be non-empty");
            for i in 0..exp.dim() {
                assert!(
                    (exp.lo()[i] - actual.lo()[i]).abs() < 1e-9
                        && (exp.hi()[i] - actual.hi()[i]).abs() < 1e-9,
                    "parent entry MBR not tight for node {id:?}"
                );
            }
        }
        if !n.is_leaf() {
            for e in &n.entries {
                let c = self.node(e.child_id());
                assert_eq!(c.level + 1, n.level, "level mismatch under {id:?}");
                self.validate_rec(e.child_id(), Some(&e.mbr));
            }
        }
    }
}

/// Counters of one [`Tree::best_first_stream_with`] traversal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Simulated pages read (supernodes bill their span).
    pub pages: u64,
    /// Subtrees pruned by the caller's bound before their node was read:
    /// directory entries never queued plus queued pages discarded after
    /// the bound shrank below their MINDIST.
    pub nodes_pruned: u64,
}

/// Reusable priority-queue scratch for [`Tree::best_first_stream_with`].
/// The heap grows to a high-water mark and is then reused
/// allocation-free; one scratch must not be shared between threads.
#[derive(Default)]
pub struct BestFirstScratch {
    heap: BinaryHeap<PageSlot>,
}

impl BestFirstScratch {
    /// A fresh (cold) scratch; the heap is allocated lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One queued page of the best-first traversal, min-ordered by MINDIST².
#[derive(PartialEq)]
struct PageSlot {
    key: f64,
    page: PageId,
}

impl Eq for PageSlot {}

impl PartialOrd for PageSlot {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}

impl Ord for PageSlot {
    fn cmp(&self, o: &Self) -> Ordering {
        // Min-heap by key inside std's max-heap.
        o.key.partial_cmp(&self.key).unwrap_or(Ordering::Equal)
    }
}

/// Total-ordered f64 for the kth-best bound heap (max-heap by value).
#[derive(PartialEq)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, o: &Self) -> Ordering {
        self.0.partial_cmp(&o.0).unwrap_or(Ordering::Equal)
    }
}

/// Incremental split-evaluation helper: `prefix[i]` is the union of
/// `entries[0..=i]`, `suffix[i]` the union of `entries[i..]`. Turns the
/// per-distribution union cost from `O(M·d)` into `O(d)` — essential once
/// X-tree supernodes make `M` large.
fn prefix_suffix_unions(entries: &[Entry]) -> (Vec<Mbr>, Vec<Mbr>) {
    let n = entries.len();
    let mut prefix = Vec::with_capacity(n);
    let mut acc = entries[0].mbr.clone();
    prefix.push(acc.clone());
    for e in &entries[1..] {
        acc.union_assign(&e.mbr);
        prefix.push(acc.clone());
    }
    let mut suffix = vec![entries[n - 1].mbr.clone(); n];
    for i in (0..n - 1).rev() {
        let mut m = entries[i].mbr.clone();
        m.union_assign(&suffix[i + 1]);
        suffix[i] = m;
    }
    (prefix, suffix)
}

/// Sorts entries by MBR lower (or upper) bound along `axis`.
fn sort_entries(entries: &mut [Entry], axis: usize, by_hi: bool) {
    entries.sort_by(|a, b| {
        let (x, y) = if by_hi {
            (a.mbr.hi()[axis], b.mbr.hi()[axis])
        } else {
            (a.mbr.lo()[axis], b.mbr.lo()[axis])
        };
        x.partial_cmp(&y).unwrap_or(Ordering::Equal)
    });
}

/// Relative overlap of two entry groups: `vol(A∩B) / vol(A∪B)`.
fn rel_overlap(a: &[Entry], b: &[Entry]) -> f64 {
    let ma = Mbr::union_all(a.iter().map(|e| &e.mbr)).expect("non-empty");
    let mb = Mbr::union_all(b.iter().map(|e| &e.mbr)).expect("non-empty");
    let u = ma.union(&mb).volume();
    if u <= 0.0 {
        return 0.0;
    }
    ma.overlap_volume(&mb) / u
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn points(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect()
    }

    fn build(policy: SplitPolicy, pts: &[Vec<f64>]) -> Tree {
        let d = pts[0].len();
        let cfg = match policy {
            SplitPolicy::RStar => TreeConfig::rstar(d),
            SplitPolicy::XTree => TreeConfig::xtree(d),
        }
        .with_point_leaves(true)
        .with_block_size(512); // small pages → deep trees even in tests
        let mut t = Tree::new(cfg);
        for (i, p) in pts.iter().enumerate() {
            t.insert(Mbr::from_point(p), i as ItemId);
        }
        t
    }

    #[test]
    fn empty_tree_queries() {
        let t = Tree::new(TreeConfig::rstar(2));
        assert!(t.is_empty());
        assert!(t.point_query(&[0.5, 0.5]).is_empty());
        assert!(t.nn_best_first(&[0.5, 0.5]).is_none());
        assert!(t.nn_branch_bound(&[0.5, 0.5]).is_none());
        assert!(t.knn_best_first(&[0.5, 0.5], 3).is_empty());
    }

    #[test]
    fn best_first_stream_matches_scan_and_prunes() {
        for policy in [SplitPolicy::RStar, SplitPolicy::XTree] {
            let pts = points(600, 6, 11);
            let t = build(policy, &pts);
            let queries = points(40, 6, 12);
            let mut scratch = BestFirstScratch::new();
            let mut any_pruned = false;
            for q in &queries {
                // Caller-side exact 1-NN: evaluate every streamed item,
                // shrink the bound to the best squared distance seen.
                let mut best: Option<(ItemId, f64)> = None;
                let mut visited = 0usize;
                let stats = t.best_first_stream_with(q, &mut scratch, |id| {
                    visited += 1;
                    let d2 = dist_sq(q, &pts[id as usize]);
                    if best.is_none_or(|(_, b)| d2 < b) {
                        best = Some((id, d2));
                    }
                    best.map(|(_, b)| b).unwrap_or(f64::INFINITY)
                });
                let scan = (0..pts.len())
                    .min_by(|&a, &b| {
                        dist_sq(q, &pts[a])
                            .partial_cmp(&dist_sq(q, &pts[b]))
                            .unwrap()
                    })
                    .unwrap();
                assert_eq!(best.unwrap().0, scan as ItemId, "{policy:?}");
                assert!(stats.pages > 0);
                assert!(
                    visited < pts.len(),
                    "{policy:?}: MINDIST ordering should not visit every point"
                );
                any_pruned |= stats.nodes_pruned > 0;
            }
            assert!(any_pruned, "{policy:?}: bound never pruned a subtree");
        }
    }

    #[test]
    fn best_first_stream_negative_bound_aborts() {
        let pts = points(300, 4, 13);
        let t = build(SplitPolicy::XTree, &pts);
        let mut scratch = BestFirstScratch::new();
        let mut visited = 0usize;
        let stats = t.best_first_stream_with(&pts[0], &mut scratch, |_| {
            visited += 1;
            f64::NEG_INFINITY
        });
        // One leaf expanded, first item visited, then the walk stops.
        assert_eq!(visited, 1);
        assert!(stats.pages < t.total_pages());
    }

    #[test]
    fn rstar_invariants_after_bulk_inserts() {
        let pts = points(500, 4, 1);
        let t = build(SplitPolicy::RStar, &pts);
        assert_eq!(t.len(), 500);
        assert!(t.height() >= 2);
        t.validate();
    }

    #[test]
    fn xtree_invariants_after_bulk_inserts() {
        let pts = points(500, 8, 2);
        let t = build(SplitPolicy::XTree, &pts);
        assert_eq!(t.len(), 500);
        t.validate();
    }

    #[test]
    fn point_query_finds_every_inserted_point() {
        for policy in [SplitPolicy::RStar, SplitPolicy::XTree] {
            let pts = points(300, 3, 3);
            let t = build(policy, &pts);
            for (i, p) in pts.iter().enumerate() {
                let hits = t.point_query(p);
                assert!(hits.contains(&(i as ItemId)), "{policy:?}: lost point {i}");
            }
        }
    }

    #[test]
    fn nn_matches_linear_scan_both_algorithms() {
        for policy in [SplitPolicy::RStar, SplitPolicy::XTree] {
            let pts = points(400, 5, 4);
            let t = build(policy, &pts);
            let queries = points(50, 5, 5);
            for q in &queries {
                let scan = (0..pts.len())
                    .min_by(|&a, &b| {
                        dist_sq(q, &pts[a])
                            .partial_cmp(&dist_sq(q, &pts[b]))
                            .unwrap()
                    })
                    .unwrap();
                let bf = t.nn_best_first(q).unwrap();
                let bb = t.nn_branch_bound(q).unwrap();
                assert_eq!(bf.id, scan as ItemId, "{policy:?} best-first");
                assert_eq!(bb.id, scan as ItemId, "{policy:?} branch-bound");
                assert!((bf.dist - dist_sq(q, &pts[scan]).sqrt()).abs() < 1e-9);
                assert!((bb.dist - bf.dist).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn knn_is_sorted_and_matches_scan() {
        let pts = points(200, 3, 6);
        let t = build(SplitPolicy::RStar, &pts);
        let q = [0.4, 0.6, 0.5];
        let k = 10;
        let got = t.knn_best_first(&q, k);
        assert_eq!(got.len(), k);
        for w in got.windows(2) {
            assert!(w[0].dist <= w[1].dist + 1e-12);
        }
        let mut scan: Vec<(usize, f64)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (i, dist_sq(&q, p)))
            .collect();
        scan.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        for (n, (i, d2)) in got.iter().zip(scan.iter()) {
            assert_eq!(n.id, *i as ItemId);
            assert!((n.dist - d2.sqrt()).abs() < 1e-9);
        }
    }

    #[test]
    fn window_and_sphere_queries_match_scan() {
        let pts = points(300, 2, 7);
        let t = build(SplitPolicy::XTree, &pts);
        let w = Mbr::new(vec![0.2, 0.3], vec![0.5, 0.7]);
        let mut got = t.window_query(&w);
        got.sort_unstable();
        let mut want: Vec<ItemId> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| w.contains_point(p))
            .map(|(i, _)| i as ItemId)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);

        let c = [0.5, 0.5];
        let r = 0.2;
        let mut got = t.sphere_query(&c, r);
        got.sort_unstable();
        let mut want: Vec<ItemId> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| dist_sq(&c, p) <= r * r + 1e-12)
            .map(|(i, _)| i as ItemId)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn delete_then_queries_stay_exact() {
        let pts = points(250, 3, 8);
        let mut t = build(SplitPolicy::RStar, &pts);
        // Delete every third point.
        for (i, p) in pts.iter().enumerate() {
            if i % 3 == 0 {
                assert!(t.delete(&Mbr::from_point(p), i as ItemId), "delete {i}");
            }
        }
        t.validate();
        assert_eq!(t.len(), pts.len() - pts.len().div_ceil(3));
        // Deleted points gone, others findable.
        for (i, p) in pts.iter().enumerate() {
            let hits = t.point_query(p);
            if i % 3 == 0 {
                assert!(!hits.contains(&(i as ItemId)));
            } else {
                assert!(hits.contains(&(i as ItemId)));
            }
        }
        // NN still exact vs scan of the survivors.
        let survivors: Vec<usize> = (0..pts.len()).filter(|i| i % 3 != 0).collect();
        let q = [0.3, 0.3, 0.3];
        let scan = survivors
            .iter()
            .copied()
            .min_by(|&a, &b| {
                dist_sq(&q, &pts[a])
                    .partial_cmp(&dist_sq(&q, &pts[b]))
                    .unwrap()
            })
            .unwrap();
        assert_eq!(t.nn_best_first(&q).unwrap().id, scan as ItemId);
    }

    #[test]
    fn delete_missing_returns_false() {
        let pts = points(50, 2, 9);
        let mut t = build(SplitPolicy::RStar, &pts);
        assert!(!t.delete(&Mbr::from_point(&[0.123, 0.456]), 999));
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn delete_everything_leaves_empty_tree() {
        let pts = points(120, 2, 10);
        let mut t = build(SplitPolicy::XTree, &pts);
        for (i, p) in pts.iter().enumerate() {
            assert!(t.delete(&Mbr::from_point(p), i as ItemId));
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert!(t.nn_best_first(&[0.5, 0.5]).is_none());
    }

    #[test]
    fn xtree_generates_supernodes_on_high_overlap_load() {
        // Boxes spanning most of the space in all but one dimension create
        // unsplittable directories → supernodes.
        let mut rng = SmallRng::seed_from_u64(11);
        let d = 8;
        let cfg = TreeConfig::xtree(d).with_block_size(512);
        let mut t = Tree::new(cfg);
        for i in 0..400u64 {
            let lo: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..0.2)).collect();
            let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.6..0.8)).collect();
            t.insert(Mbr::new(lo, hi), i);
        }
        t.validate();
        assert!(
            t.max_span() > 1,
            "expected supernodes under pathological overlap"
        );
    }

    #[test]
    fn structure_stats_in_range_and_bulk_beats_incremental_overlap() {
        let pts = points(600, 4, 31);
        let t = build(SplitPolicy::RStar, &pts);
        let s = t.structure_stats();
        assert!(s.avg_fill > 0.2 && s.avg_fill <= 1.0, "fill {:?}", s);
        assert!((0.0..=1.0).contains(&s.avg_sibling_overlap));
        // STR-packed trees must show lower directory overlap.
        let items: Vec<(Mbr, ItemId)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (Mbr::from_point(p), i as ItemId))
            .collect();
        let packed = crate::bulk::bulk_load(
            TreeConfig::rstar(4)
                .with_point_leaves(true)
                .with_block_size(512),
            items,
            1.0,
        );
        let sp = packed.structure_stats();
        assert!((0.0..=1.0).contains(&sp.avg_sibling_overlap));
        // Packing wins on space utilization (overlap is the R*-insert
        // path's strength: forced reinsertion actively minimizes it, while
        // plain STR center-tiling does not).
        assert!(sp.avg_fill >= s.avg_fill, "packed trees are fuller");
        assert!(packed.total_pages() <= t.total_pages());
    }

    #[test]
    fn lru_cache_reduces_reads_on_repeated_queries() {
        let pts = points(400, 4, 30);
        let t = build(SplitPolicy::RStar, &pts);
        let q = [0.5; 4];
        // Cold, no cache.
        t.reset_stats();
        let _ = t.nn_best_first(&q);
        let cold = t.stats().page_reads;
        // Warm cache big enough for the whole tree.
        t.enable_cache(t.total_pages() as usize + 8);
        t.reset_stats();
        let _ = t.nn_best_first(&q); // populates
        let _ = t.nn_best_first(&q); // fully cached
        let s = t.stats();
        assert!(s.cache_hits > 0, "second run must hit the cache");
        assert!(
            s.page_reads <= cold,
            "two cached runs must not read more than one cold run"
        );
        // Answers are unaffected by caching.
        t.enable_cache(0);
        let a = t.nn_best_first(&q).unwrap();
        t.enable_cache(4);
        let b = t.nn_best_first(&q).unwrap();
        assert_eq!(a.id, b.id);
    }

    #[test]
    fn page_accesses_counted_per_query() {
        let pts = points(400, 4, 12);
        let t = build(SplitPolicy::RStar, &pts);
        t.reset_stats();
        let _ = t.nn_best_first(&[0.5; 4]);
        let s = t.stats();
        assert!(s.page_reads > 0, "NN query must touch pages");
        assert!(s.cpu_ops > 0);
        t.reset_stats();
        assert_eq!(t.stats(), IoStats::default());
    }

    #[test]
    fn page_queries_return_supersets() {
        let pts = points(300, 3, 20);
        let t = build(SplitPolicy::XTree, &pts);
        let q = [0.5, 0.5, 0.5];
        let nn = t.nn_best_first(&q).unwrap();
        // A data point's own leaf page always contains it.
        let own = t.page_point_query(&pts[17]);
        assert!(own.contains(&17));
        // Sphere page query with radius >= nn dist must contain the NN.
        let sp = t.page_sphere_query(&q, nn.dist + 1e-9);
        assert!(sp.contains(&nn.id));
        // Sphere page query is monotone in the radius.
        let small = t.page_sphere_query(&q, 0.05).len();
        let large = t.page_sphere_query(&q, 0.4).len();
        assert!(small <= large);
    }

    #[test]
    fn mbr_items_roundtrip() {
        let pts = points(100, 3, 13);
        let t = build(SplitPolicy::RStar, &pts);
        let mut items = t.items();
        items.sort_by_key(|(id, _)| *id);
        assert_eq!(items.len(), 100);
        for (i, (id, m)) in items.iter().enumerate() {
            assert_eq!(*id, i as ItemId);
            assert!(m.contains_point(&pts[i]));
        }
    }

    #[test]
    fn box_items_supported() {
        // The NN-cell index stores boxes, not points.
        let mut rng = SmallRng::seed_from_u64(14);
        let cfg = TreeConfig::xtree(3).with_block_size(512);
        let mut t = Tree::new(cfg);
        let mut boxes = Vec::new();
        for i in 0..200u64 {
            let lo: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..0.8)).collect();
            let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.01..0.2)).collect();
            let m = Mbr::new(lo, hi);
            t.insert(m.clone(), i);
            boxes.push(m);
        }
        t.validate();
        let q = [0.4, 0.4, 0.4];
        let mut got = t.point_query(&q);
        got.sort_unstable();
        let mut want: Vec<ItemId> = boxes
            .iter()
            .enumerate()
            .filter(|(_, m)| m.contains_point(&q))
            .map(|(i, _)| i as ItemId)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
