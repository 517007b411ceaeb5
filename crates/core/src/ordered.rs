//! Ordered-map conveniences on top of the tree: min/max access, floor and
//! ceiling lookups, pops, and collection-trait impls. These are plain
//! B+-tree reads — none of them interact with the fast path.

use crate::key::Key;

use crate::tree::BpTree;

impl<K: Key, V> BpTree<K, V> {
    /// The entry with the smallest key.
    pub fn first(&self) -> Option<(K, &V)> {
        let leaf = self.arena.get(self.head).as_leaf();
        leaf.keys.first().map(|&k| (k, &leaf.vals[0]))
    }

    /// The entry with the largest key.
    pub fn last(&self) -> Option<(K, &V)> {
        let leaf = self.arena.get(self.tail).as_leaf();
        let i = leaf.keys.len().checked_sub(1)?;
        Some((leaf.keys[i], &leaf.vals[i]))
    }

    /// The largest entry with key `<= key` (floor).
    pub fn floor(&self, key: K) -> Option<(K, &V)> {
        self.metrics.counters.lookups.bump_shared();
        let (leaf_id, _, _, accesses) = self.descend(key);
        self.metrics
            .counters
            .lookup_node_accesses
            .add_shared(accesses);
        let mut leaf_id = leaf_id;
        loop {
            let leaf = self.arena.get(leaf_id).as_leaf();
            let pos = leaf.keys.partition_point(|k| *k <= key);
            if pos > 0 {
                return Some((leaf.keys[pos - 1], &leaf.vals[pos - 1]));
            }
            // Everything in this leaf is > key: the floor (if any) is the
            // last entry of an earlier leaf.
            match leaf.prev {
                Some(prev) => {
                    self.metrics.counters.lookup_node_accesses.bump_shared();
                    leaf_id = prev;
                }
                None => return None,
            }
        }
    }

    /// The smallest entry with key `>= key` (ceiling).
    pub fn ceiling(&self, key: K) -> Option<(K, &V)> {
        self.metrics.counters.lookups.bump_shared();
        let (leaf_id, _, _, accesses) = self.descend(key);
        self.metrics
            .counters
            .lookup_node_accesses
            .add_shared(accesses);
        // Duplicate runs equal to `key` may begin in earlier leaves; walk
        // back like `locate` does so the returned entry is the run head.
        let mut leaf_id = leaf_id;
        loop {
            let leaf = self.arena.get(leaf_id).as_leaf();
            let pos = leaf.keys.partition_point(|k| *k < key);
            if pos < leaf.keys.len() {
                if pos == 0 {
                    if let Some(prev) = leaf.prev {
                        let pl = self.arena.get(prev).as_leaf();
                        if pl.keys.last().is_some_and(|&k| k >= key) {
                            self.metrics.counters.lookup_node_accesses.bump_shared();
                            leaf_id = prev;
                            continue;
                        }
                    }
                }
                return Some((leaf.keys[pos], &leaf.vals[pos]));
            }
            // Leaf entirely below `key`: ceiling lives in the next leaf.
            match leaf.next {
                Some(next) => {
                    self.metrics.counters.lookup_node_accesses.bump_shared();
                    leaf_id = next;
                }
                None => return None,
            }
        }
    }
}

impl<K: Key, V> BpTree<K, V> {
    /// Removes and returns the smallest entry.
    pub fn pop_first(&mut self) -> Option<(K, V)> {
        let k = self.min_key()?;
        let v = self.delete(k)?;
        Some((k, v))
    }

    /// Removes and returns the largest entry.
    pub fn pop_last(&mut self) -> Option<(K, V)> {
        let k = self.max_key()?;
        let v = self.delete(k)?;
        Some((k, v))
    }
}

impl<K: Key, V> Extend<(K, V)> for BpTree<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::TreeConfig;
    use crate::fastpath::FastPathMode;
    use crate::tree::BpTree;

    fn filled() -> BpTree<u64, u64> {
        let mut t = BpTree::with_config(FastPathMode::Pole, TreeConfig::small(4));
        t.extend((0..100u64).map(|k| (k * 10, k)));
        t
    }

    #[test]
    fn first_and_last() {
        let t = filled();
        assert_eq!(t.first(), Some((0, &0)));
        assert_eq!(t.last(), Some((990, &99)));
        let empty: BpTree<u64, u64> = BpTree::with_config(FastPathMode::None, TreeConfig::small(4));
        assert_eq!(empty.first(), None);
        assert_eq!(empty.last(), None);
    }

    #[test]
    fn floor_semantics() {
        let t = filled();
        assert_eq!(t.floor(250).map(|e| e.0), Some(250)); // exact hit
        assert_eq!(t.floor(255).map(|e| e.0), Some(250)); // between keys
        assert_eq!(t.floor(99_999).map(|e| e.0), Some(990)); // above max
        assert_eq!(t.floor(0).map(|e| e.0), Some(0));
        // floor below the minimum is absent — 0 is the min key, so probe
        // with a tree shifted up.
        let mut t2: BpTree<u64, u64> =
            BpTree::with_config(FastPathMode::None, TreeConfig::small(4));
        t2.extend((10..20u64).map(|k| (k, k)));
        assert_eq!(t2.floor(9), None);
    }

    #[test]
    fn ceiling_semantics() {
        let t = filled();
        assert_eq!(t.ceiling(250).map(|e| e.0), Some(250));
        assert_eq!(t.ceiling(255).map(|e| e.0), Some(260));
        assert_eq!(t.ceiling(0).map(|e| e.0), Some(0));
        assert_eq!(t.ceiling(991), None);
    }

    #[test]
    fn floor_ceiling_with_duplicates() {
        let mut t: BpTree<u64, u64> = BpTree::with_config(FastPathMode::None, TreeConfig::small(4));
        for i in 0..20u64 {
            t.insert(50, i);
        }
        t.insert(10, 0);
        t.insert(90, 0);
        // Ceiling of 50 must return the *first* duplicate (value 0 slot is
        // position-dependent; assert on the key and run head stability).
        assert_eq!(t.ceiling(11).map(|e| e.0), Some(50));
        assert_eq!(t.floor(89).map(|e| e.0), Some(50));
        assert_eq!(t.ceiling(50).map(|e| e.0), Some(50));
    }

    #[test]
    fn pops_drain_in_order() {
        let mut t = filled();
        assert_eq!(t.pop_first(), Some((0, 0)));
        assert_eq!(t.pop_first(), Some((10, 1)));
        assert_eq!(t.pop_last(), Some((990, 99)));
        assert_eq!(t.len(), 97);
        let mut last = 0;
        while let Some((k, _)) = t.pop_first() {
            assert!(k >= last);
            last = k;
        }
        assert!(t.is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn extend_matches_inserts() {
        let mut a: BpTree<u64, u64> = BpTree::with_config(FastPathMode::Pole, TreeConfig::small(8));
        a.extend([(3u64, 30u64), (1, 10), (2, 20)]);
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(2), Some(&20));
    }
}
