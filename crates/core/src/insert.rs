//! Ingestion: top-inserts and the three fast paths.
//!
//! * `insert_tail` — PostgreSQL-style tail-leaf fast path (§2).
//! * `insert_lil` — last-insertion-leaf (§3, Fig 4).
//! * `insert_pole` — predicted-ordered-leaf, Algorithm 1, with the QuIT
//!   extensions of Algorithm 2 (variable split / redistribute) and the §4.3
//!   reset strategy dispatched from [`BpTree::handle_full_pole`].

use crate::arena::NodeId;
use crate::fastpath::FastPathMode;
use crate::ikr::{ikr_bound, split_bound};
use crate::key::Key;
use crate::stats::Stats;
use crate::tree::BpTree;

impl<K: Key, V> BpTree<K, V> {
    #[inline]
    pub(crate) fn leaf_len(&self, id: NodeId) -> usize {
        self.arena.get(id).as_leaf().len()
    }

    /// §4.3 reset strategy (and delete-path repair): re-point poℓe at
    /// `leaf` with separator bounds `[low, high)`, adopting its chain
    /// predecessor as `poℓe_prev`.
    pub(crate) fn repoint_pole(&mut self, leaf: NodeId, low: Option<K>, high: Option<K>) {
        self.fp.leaf = Some(leaf);
        self.fp.min = low;
        self.fp.max = high;
        self.fp.size = self.leaf_len(leaf);
        let prev = self.arena.get(leaf).as_leaf().prev;
        self.fp.prev_id = prev;
        match prev {
            Some(p) => {
                let pl = self.arena.get(p).as_leaf();
                self.fp.prev_min = pl.keys.first().copied();
                self.fp.prev_size = pl.len();
            }
            None => {
                self.fp.prev_min = None;
                self.fp.prev_size = 0;
            }
        }
        self.fp.pole_next = None;
        self.fp.fails = 0;
    }

    /// Inserts an entry. Duplicate keys are allowed (this is an index, not a
    /// map); the new entry lands after existing equal keys.
    pub fn insert(&mut self, key: K, value: V) {
        // Operation boundary: under paged storage, release the previous
        // operation's implicit pins and trim residency to the pool budget.
        self.arena.begin_op();
        let t0 = self.metrics.op_timer();
        match self.mode {
            FastPathMode::None => {
                self.top_insert(key, value);
            }
            FastPathMode::Tail => self.insert_tail(key, value),
            FastPathMode::Lil => self.insert_lil(key, value),
            FastPathMode::Pole => self.insert_pole(key, value),
        }
        self.len += 1;
        self.metrics.record_insert_latency(t0);
    }

    /// Places the entry in `leaf_id` at its sorted slot (after duplicates).
    /// The leaf must have room.
    pub(crate) fn insert_entry(&mut self, leaf_id: NodeId, key: K, value: V) {
        let kind = self.config.search_kind;
        let cap = self.config.leaf_capacity;
        let leaf = self.arena.get_mut(leaf_id).as_leaf_mut();
        debug_assert!(leaf.len() < cap);
        crate::layout::insert_at(kind, &mut leaf.keys, &mut leaf.vals, key, value);
    }

    /// Classical root-to-leaf insert. Returns the accepting leaf and its
    /// separator bounds after any split, so fast-path callers can adopt it.
    pub(crate) fn top_insert(&mut self, key: K, value: V) -> (NodeId, Option<K>, Option<K>) {
        let (mut leaf_id, mut low, mut high, _) = self.descend(key);
        if self.leaf_len(leaf_id) >= self.config.leaf_capacity {
            let (right, sep) = self.split_leaf_default(leaf_id);
            if key >= sep {
                leaf_id = right;
                low = Some(sep);
            } else {
                high = Some(sep);
            }
        }
        self.insert_entry(leaf_id, key, value);
        Stats::bump(&self.metrics.counters.top_inserts);
        self.metrics.record_insert_outcome(false);
        (leaf_id, low, high)
    }

    // ------------------------------------------------------------------
    // tail
    // ------------------------------------------------------------------

    fn insert_tail(&mut self, key: K, value: V) {
        let accepted = self.fp.min.is_none_or(|m| key >= m);
        if !accepted {
            self.top_insert(key, value);
            return;
        }
        let mut target = self.tail;
        if self.leaf_len(target) >= self.config.leaf_capacity {
            let (right, sep) = self.split_leaf_default(target);
            // split_leaf_at advanced self.tail to the new right node.
            self.fp.leaf = Some(self.tail);
            self.fp.min = Some(sep);
            if key >= sep {
                target = right;
            }
        }
        self.insert_entry(target, key, value);
        self.fp.size = self.leaf_len(self.tail);
        Stats::bump(&self.metrics.counters.fast_inserts);
        self.metrics.record_insert_outcome(true);
    }

    // ------------------------------------------------------------------
    // ℓiℓ
    // ------------------------------------------------------------------

    fn insert_lil(&mut self, key: K, value: V) {
        if self.fp.covers(key) {
            let mut target = self.fp.leaf.expect("covers implies a leaf");
            if self.leaf_len(target) >= self.config.leaf_capacity {
                let (right, sep) = self.split_leaf_default(target);
                if key >= sep {
                    // Fig 4d: the key lands in the new node — ℓiℓ follows it.
                    target = right;
                    self.fp.leaf = Some(right);
                    self.fp.min = Some(sep);
                } else {
                    // Fig 4e: ℓiℓ stays; only its upper bound tightens.
                    self.fp.max = Some(sep);
                }
            }
            self.insert_entry(target, key, value);
            self.fp.size = self.leaf_len(target);
            Stats::bump(&self.metrics.counters.fast_inserts);
            self.metrics.record_insert_outcome(true);
        } else {
            // Fig 4b: top-insert, then re-point ℓiℓ at the accepting leaf.
            let (leaf, low, high) = self.top_insert(key, value);
            self.fp.leaf = Some(leaf);
            self.fp.min = low;
            self.fp.max = high;
            self.fp.size = self.leaf_len(leaf);
        }
    }

    // ------------------------------------------------------------------
    // poℓe / QuIT (Algorithm 1)
    // ------------------------------------------------------------------

    fn insert_pole(&mut self, key: K, value: V) {
        if self.fp.covers(key) {
            // Algorithm 1 lines 1–9: fast-insert, splitting first if full.
            let pole = self.fp.leaf.expect("covers implies a leaf");
            let target = if self.leaf_len(pole) >= self.config.leaf_capacity {
                self.handle_full_pole(key)
            } else {
                pole
            };
            self.insert_entry(target, key, value);
            if Some(target) == self.fp.leaf {
                self.fp.size = self.leaf_len(target);
            }
            // Note: `poℓe_prev_{min,size}` are *memoized* at poℓe-split
            // time (Table 1 metadata), not live-synced — the density basis
            // Eq. 2 extrapolates from must stay the one observed between
            // two known non-outliers, or oscillating workloads collapse it.
            self.fp.fails = 0;
            Stats::bump(&self.metrics.counters.fast_inserts);
            self.metrics.record_insert_outcome(true);
        } else {
            // Algorithm 1 lines 10–14: top-insert, then try to catch up.
            let (lt, low, high) = self.top_insert(key, value);
            // The catch-up target is the poℓe's chain successor: when a
            // split predicted outliers, `poℓe_next` IS that successor, and
            // after a reset onto an interior leaf the successor is where the
            // in-order stream lands when it crosses the poℓe's upper bound.
            let chain_next = self.fp.leaf.and_then(|p| self.arena.get(p).as_leaf().next);
            if chain_next == Some(lt) && self.try_catch_up(key, lt, low, high) {
                return;
            }
            self.fp.fails += 1;
            if let Some(tr) = self.config.reset_threshold {
                if self.fp.fails >= tr {
                    Stats::bump(&self.metrics.counters.fp_resets);
                    self.repoint_pole(lt, low, high);
                }
            }
        }
    }

    /// §4.2 "Catching Up to Predicted Outliers": a top-insert landed in the
    /// node right after poℓe; if its key is no longer an IKR outlier,
    /// promote that node to poℓe. Returns true when promoted.
    ///
    /// The density basis here is the poℓe node's *own* span: its smallest
    /// and largest keys are both known non-outliers (every entry was
    /// accepted in order), so `x = q + (max − q) · scale` is Eq. 2
    /// instantiated over the poℓe itself. Unlike the split-time estimate it
    /// tracks density regime changes — crucial for real-world keys whose
    /// density varies by orders of magnitude (e.g. volume-at-price in stock
    /// streams).
    fn try_catch_up(&mut self, key: K, lt: NodeId, low: Option<K>, high: Option<K>) -> bool {
        let Some(pole) = self.fp.leaf else {
            return false;
        };
        let pl = self.arena.get(pole).as_leaf();
        let (Some(&q), Some(&m)) = (pl.keys.first(), pl.keys.last()) else {
            return false;
        };
        let span = (m.to_ikr() - q.to_ikr()).max(0.0);
        let x = q.to_ikr() + span * self.config.ikr_scale;
        if key.to_ikr() > x {
            return false;
        }
        let pole_len = pl.len();
        self.fp.prev_id = Some(pole);
        self.fp.prev_min = Some(q);
        self.fp.prev_size = pole_len;
        self.fp.leaf = Some(lt);
        self.fp.min = low;
        self.fp.max = high;
        self.fp.size = self.leaf_len(lt);
        self.fp.pole_next = None;
        self.fp.fails = 0;
        Stats::bump(&self.metrics.counters.pole_catch_ups);
        true
    }

    // ------------------------------------------------------------------
    // Full poℓe: Algorithm 2 (QuIT) or the default split of Algorithm 1
    // ------------------------------------------------------------------

    /// Handles a fast-insert arriving at a full poℓe node. Splits (variable
    /// or 50/50) or redistributes, updates every fast-path metadata field,
    /// and returns the leaf that must receive `key` (guaranteed non-full).
    fn handle_full_pole(&mut self, key: K) -> NodeId {
        let pole = self.fp.leaf.expect("handle_full_pole requires a poℓe");
        let plen = self.leaf_len(pole);
        let q = self.arena.get(pole).as_leaf().keys[0];
        let def = self.config.def_split_pos();

        if self.config.variable_split {
            if let (Some(prev_id), Some(p)) = (self.fp.prev_id, self.fp.prev_min) {
                if self.fp.prev_size >= def && self.fp.prev_size > 0 {
                    return self.variable_split_pole(key, pole, plen, p, q, def);
                }
                if self.config.redistribute && self.fp.prev_size < def {
                    // Fig 7c: refill poℓe_prev to exactly half before using
                    // IKR again. The physical move is sized from the node's
                    // *actual* occupancy (the metadata is a memo and may
                    // lag); chain adjacency is required so order holds.
                    let adjacent = self.arena.get(prev_id).as_leaf().next == Some(pole);
                    if adjacent {
                        let actual_prev = self.leaf_len(prev_id);
                        let move_count = def.saturating_sub(actual_prev);
                        if move_count >= 1 && move_count < plen {
                            self.redistribute_to_prev(pole, prev_id, move_count);
                            self.fp.prev_size = def;
                            let new_min = self.arena.get(pole).as_leaf().keys[0];
                            self.fp.min = Some(new_min);
                            self.fp.size = self.leaf_len(pole);
                            return if key >= new_min { pole } else { prev_id };
                        }
                        if move_count == 0 {
                            // The predecessor is already at least half full
                            // (the memo lagged): refresh it and use IKR.
                            self.fp.prev_size = actual_prev;
                            return self.variable_split_pole(key, pole, plen, p, q, def);
                        }
                    }
                }
            }
        }

        // Default 50/50 split with the Algorithm 1 poℓe-update rule.
        let (right, sep) = self.split_leaf_at(pole, plen / 2);
        let promote = match self.fp.prev_min {
            // Fig 6: move poℓe iff the split key r is not an IKR outlier.
            Some(p) if self.fp.prev_size > 0 => {
                sep.to_ikr() <= ikr_bound(p, q, self.fp.prev_size, plen, self.config.ikr_scale)
            }
            // Initialization (§4.2): no poℓe_prev yet — mark the leaf that
            // receives the latest insert.
            _ => key >= sep,
        };
        if promote {
            self.fp.prev_id = Some(pole);
            self.fp.prev_min = Some(q);
            self.fp.prev_size = plen / 2;
            self.fp.leaf = Some(right);
            self.fp.min = Some(sep);
            // A previously predicted outlier node stays the poℓe's right
            // neighbour after this split, so keep it as the catch-up target.
        } else {
            self.fp.max = Some(sep);
            self.fp.pole_next = Some(right);
        }
        self.fp.size = self.leaf_len(self.fp.leaf.expect("poℓe survives split"));
        if key >= sep {
            right
        } else {
            pole
        }
    }

    /// Algorithm 2 lines 3–8: IKR-guided variable split of the poℓe node.
    fn variable_split_pole(
        &mut self,
        key: K,
        pole: NodeId,
        plen: usize,
        p: K,
        q: K,
        def: usize,
    ) -> NodeId {
        // Position of the first predicted outlier (`l`). l >= 1 since the
        // envelope always admits q itself.
        let l = {
            let keys = &self.arena.get(pole).as_leaf().keys;
            match self.config.split_bound_rule {
                // Eq. 2 applied per position: the key in slot i must lie
                // within the density envelope extrapolated i+1 entries past
                // q (`poℓe_size` = the prefix length it closes). This reads
                // "the first key greater than the estimated acceptable
                // value lower bound" cumulatively, so an out-of-order entry
                // that merely *rides* close ahead of the in-order frontier
                // is cut off exactly at the frontier.
                crate::config::SplitBoundRule::Eq2 => {
                    let density = (q.to_ikr() - p.to_ikr()) / self.fp.prev_size as f64;
                    let step = density * self.config.ikr_scale;
                    let base = q.to_ikr();
                    let mut l = 1usize;
                    while l < keys.len() && keys[l].to_ikr() <= base + step * (l + 1) as f64 {
                        l += 1;
                    }
                    l
                }
                // The expression literally printed in Algorithm 2 line 4: a
                // flat bound without the poℓe_size factor.
                crate::config::SplitBoundRule::Literal => {
                    let x = split_bound(
                        p,
                        q,
                        self.fp.prev_size,
                        plen,
                        self.config.ikr_scale,
                        self.config.split_bound_rule,
                    );
                    keys.partition_point(|k| k.to_ikr() <= x).max(1)
                }
            }
        };
        Stats::bump(&self.metrics.counters.variable_splits);
        if l > def {
            // Few outliers (Fig 7a): split at l−1, carrying one in-order
            // entry into the new node, which becomes poℓe. The fill cap
            // (§5.2.1 tuning note) bounds how packed the left node is left,
            // trading space for fewer future split propagations.
            let fill_cap = ((plen as f64) * self.config.max_variable_fill).floor() as usize;
            let pos = (l - 1).min(plen - 1).min(fill_cap.max(def));
            let (right, sep) = self.split_leaf_at(pole, pos);
            self.fp.prev_id = Some(pole);
            self.fp.prev_min = Some(q);
            self.fp.prev_size = pos;
            self.fp.leaf = Some(right);
            // `inject-split-bug` (testkit mutation smoke check only) leaves
            // the stale pre-split lower bound in place, so a later key in
            // `[old_min, sep)` fast-inserts into the right node below its
            // separator — exactly the class of bound bug the differential
            // oracle must catch and shrink.
            #[cfg(not(feature = "inject-split-bug"))]
            {
                self.fp.min = Some(sep);
            }
            // Keep any outstanding poℓe_next: it is still the right
            // neighbour of the advanced poℓe.
            self.fp.size = self.leaf_len(right);
            if key >= sep {
                right
            } else {
                pole
            }
        } else {
            // Mostly outliers (Fig 7b): split at l, moving every outlier to
            // the new node; poℓe keeps its in-order prefix and its pointer.
            let (right, sep) = self.split_leaf_at(pole, l);
            self.fp.max = Some(sep);
            self.fp.pole_next = Some(right);
            self.fp.size = self.leaf_len(pole);
            if key >= sep {
                right
            } else {
                pole
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::TreeConfig;
    use crate::fastpath::FastPathMode;
    use crate::tree::BpTree;

    fn tree(mode: FastPathMode, cap: usize) -> BpTree<u64, u64> {
        BpTree::with_config(mode, TreeConfig::small(cap))
    }

    #[test]
    fn sorted_ingest_is_all_fast_for_every_fast_mode() {
        for mode in [FastPathMode::Tail, FastPathMode::Lil, FastPathMode::Pole] {
            let mut t = tree(mode, 8);
            for k in 0..1000u64 {
                t.insert(k, k);
            }
            assert_eq!(t.stats().top_inserts.get(), 0, "{mode:?}");
            assert_eq!(t.stats().fast_inserts.get(), 1000, "{mode:?}");
            for k in (0..1000).step_by(97) {
                assert_eq!(t.get(k), Some(&k));
            }
            t.check_invariants().unwrap();
        }
    }

    #[test]
    fn classic_mode_never_fast_inserts() {
        let mut t = tree(FastPathMode::None, 8);
        for k in 0..100u64 {
            t.insert(k, k);
        }
        assert_eq!(t.stats().fast_inserts.get(), 0);
        assert_eq!(t.stats().top_inserts.get(), 100);
    }

    #[test]
    fn tail_goes_stale_after_outliers() {
        // Fig 3's phenomenon: once outliers fill the tail leaf, near-sorted
        // keys can no longer use the tail fast path.
        let cap = 8;
        let mut t = tree(FastPathMode::Tail, cap);
        for k in 0..100u64 {
            t.insert(k, k);
        }
        // One leaf's worth of far-future outliers strands the tail.
        for k in 0..cap as u64 {
            t.insert(1_000_000 + k, 0);
        }
        let top_before = t.stats().top_inserts.get();
        for k in 100..200u64 {
            t.insert(k, k);
        }
        let top_after = t.stats().top_inserts.get();
        assert_eq!(top_after - top_before, 100, "tail must be stale");
        t.check_invariants().unwrap();
    }

    #[test]
    fn lil_recovers_after_an_outlier() {
        let mut t = tree(FastPathMode::Lil, 8);
        for k in 0..100u64 {
            t.insert(k, k);
        }
        t.insert(5, 5); // outlier: top-insert, ℓiℓ moves to the wrong leaf
        let top1 = t.stats().top_inserts.get();
        t.insert(100, 100); // next in-order entry: one more top-insert…
        let top2 = t.stats().top_inserts.get();
        assert_eq!(top2 - top1, 1, "ℓiℓ pays one extra top-insert");
        t.insert(101, 101); // …after which the fast path works again
        assert_eq!(t.stats().top_inserts.get(), top2);
        t.check_invariants().unwrap();
    }

    #[test]
    fn pole_absorbs_outliers_with_one_top_insert_each() {
        // The §3 headroom argument: poℓe should pay exactly one top-insert
        // per out-of-order entry, where ℓiℓ pays two.
        let mut t = tree(FastPathMode::Pole, 8);
        for k in 0..1000u64 {
            t.insert(k, k);
            if k % 100 == 50 {
                t.insert(k / 2, 0); // out-of-order entry
            }
        }
        let tops = t.stats().top_inserts.get();
        assert_eq!(tops, 10, "one top-insert per outlier, got {tops}");
        t.check_invariants().unwrap();
    }

    #[test]
    fn pole_catch_up_promotes_pole_next() {
        // §4.2's catch-up scenario: outliers split off into poℓe_next, the
        // in-order stream keeps filling poℓe, and when it finally reaches
        // the outlier range a top-insert lands in poℓe_next and promotes it.
        let mut t: BpTree<u64, u64> = BpTree::with_config(
            FastPathMode::Pole,
            TreeConfig::small(8)
                .with_variable_split(false)
                .with_reset_threshold(None),
        );
        // Dense run establishes density 1 and a tail poℓe.
        for k in 0..12u64 {
            t.insert(k, k);
        }
        // Outliers land in the tail poℓe (no upper bound), force a split,
        // and IKR marks the new node an outlier node: poℓe stays put.
        for k in [300u64, 301, 302, 303] {
            t.insert(k, k);
        }
        // The in-order stream continues and eventually reaches 300: that
        // insert is beyond fp_max, top-inserts into poℓe_next, passes IKR,
        // and poℓe catches up.
        for k in 12..320u64 {
            t.insert(k, k);
        }
        assert!(
            t.stats().pole_catch_ups.get() >= 1,
            "expected a catch-up promotion"
        );
        // After catching up the fast path serves the stream again.
        t.stats().reset();
        for k in 320..360u64 {
            t.insert(k, k);
        }
        assert!(t.stats().fast_inserts.get() >= 30);
        t.check_invariants().unwrap();
    }

    #[test]
    fn quit_reset_recovers_from_scrambled_segment() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(3);
        let mut t = tree(FastPathMode::Pole, 8); // full QuIT config
                                                 // Sorted segment.
        for k in 0..500u64 {
            t.insert(k, k);
        }
        // Scrambled segment in a disjoint key range.
        let mut scram: Vec<u64> = (10_000..10_500).collect();
        scram.shuffle(&mut rng);
        for k in scram {
            t.insert(k, k);
        }
        // New sorted segment beyond everything: reset must re-arm the pole.
        let fast_before = t.stats().fast_inserts.get();
        for k in 20_000..20_500u64 {
            t.insert(k, k);
        }
        let gained = t.stats().fast_inserts.get() - fast_before;
        assert!(
            gained > 400,
            "reset should restore fast path; only {gained} fast inserts"
        );
        assert!(t.stats().fp_resets.get() >= 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn pole_without_reset_stays_stale() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(3);
        let mut t: BpTree<u64, u64> = BpTree::with_config(
            FastPathMode::Pole,
            TreeConfig::small(8).with_reset_threshold(None),
        );
        for k in 0..500u64 {
            t.insert(k, k);
        }
        let mut scram: Vec<u64> = (10_000..10_500).collect();
        scram.shuffle(&mut rng);
        for k in scram {
            t.insert(k, k);
        }
        let fast_before = t.stats().fast_inserts.get();
        for k in 20_000..20_500u64 {
            t.insert(k, k);
        }
        let gained = t.stats().fast_inserts.get() - fast_before;
        // Fig 12: the poℓe-B+-tree (no reset) gets trapped in a stale state.
        assert!(
            gained < 50,
            "expected stale poℓe, got {gained} fast inserts"
        );
        assert_eq!(t.stats().fp_resets.get(), 0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn variable_split_packs_sorted_leaves_tight() {
        let mut quit = tree(FastPathMode::Pole, 8);
        let mut classic = tree(FastPathMode::None, 8);
        for k in 0..4096u64 {
            quit.insert(k, k);
            classic.insert(k, k);
        }
        let mq = quit.memory_report();
        let mc = classic.memory_report();
        // Steady-state occupancy under the variable split is (cap−1)/cap:
        // 7/8 here, 509/510 ≈ 100% at paper geometry.
        assert!(
            mq.avg_leaf_occupancy > 0.85,
            "QuIT sorted occupancy {}",
            mq.avg_leaf_occupancy
        );
        assert!(
            mc.avg_leaf_occupancy < 0.6,
            "classic sorted occupancy {}",
            mc.avg_leaf_occupancy
        );
        assert!(mq.paged_bytes < mc.paged_bytes);
        quit.check_invariants().unwrap();
    }

    #[test]
    fn redistribute_fires_after_reset_onto_underfull_prev() {
        // Build a tree where a reset adopts an under-half-full predecessor,
        // then fill the pole until it must redistribute.
        let mut t = tree(FastPathMode::Pole, 8);
        for k in (0..800u64).step_by(2) {
            t.insert(k, k);
        }
        // Scramble far away to trigger resets onto arbitrary leaves.
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(11);
        let mut keys: Vec<u64> = (100_000..100_400).collect();
        keys.shuffle(&mut rng);
        for k in keys {
            t.insert(k, k);
        }
        // Sorted tail drives pole splits; some poles will sit right of
        // underfull leaves.
        for k in 200_000..201_000u64 {
            t.insert(k, k);
        }
        t.check_invariants().unwrap();
        for k in (0..800).step_by(2) {
            assert!(t.contains_key(k));
        }
        for k in 200_000..201_000u64 {
            assert!(t.contains_key(k));
        }
    }

    #[test]
    fn fill_cap_leaves_headroom_on_sorted_data() {
        let full: BpTree<u64, u64> = {
            let mut t = BpTree::with_config(FastPathMode::Pole, TreeConfig::small(16));
            for k in 0..4096u64 {
                t.insert(k, k);
            }
            t
        };
        let capped: BpTree<u64, u64> = {
            let mut t = BpTree::with_config(
                FastPathMode::Pole,
                TreeConfig::small(16).with_max_variable_fill(0.75),
            );
            for k in 0..4096u64 {
                t.insert(k, k);
            }
            t
        };
        let occ_full = full.memory_report().avg_leaf_occupancy;
        let occ_capped = capped.memory_report().avg_leaf_occupancy;
        assert!(occ_full > 0.9, "uncapped occupancy {occ_full}");
        assert!(
            (0.65..0.85).contains(&occ_capped),
            "capped occupancy {occ_capped}"
        );
        capped.check_invariants().unwrap();
        // Both stay fully fast-path on sorted data.
        assert_eq!(capped.stats().top_inserts.get(), 0);
    }

    #[test]
    fn duplicates_flow_through_every_mode() {
        for mode in [
            FastPathMode::None,
            FastPathMode::Tail,
            FastPathMode::Lil,
            FastPathMode::Pole,
        ] {
            let mut t = tree(mode, 4);
            for rep in 0..10u64 {
                for k in 0..20u64 {
                    t.insert(k, rep);
                }
            }
            for k in 0..20u64 {
                assert_eq!(t.get_all(k).len(), 10, "{mode:?} key {k}");
            }
            assert_eq!(t.len(), 200);
            t.check_invariants().unwrap();
        }
    }

    #[test]
    fn literal_split_bound_rule_stays_correct() {
        use crate::config::SplitBoundRule;
        let mut t: BpTree<u64, u64> = BpTree::with_config(
            FastPathMode::Pole,
            TreeConfig::small(8).with_split_bound_rule(SplitBoundRule::Literal),
        );
        let mut inserted = Vec::new();
        for k in 0..2000u64 {
            t.insert(k, k);
            inserted.push(k);
            if k % 97 == 0 {
                t.insert(k / 3, k);
                inserted.push(k / 3);
            }
        }
        t.check_invariants().unwrap();
        inserted.sort_unstable();
        assert_eq!(t.keys(), inserted);
        // The literal rule is tighter but must never lose fast-path service
        // entirely on near-sorted data.
        assert!(t.stats().fast_insert_fraction() > 0.5);
    }
}
