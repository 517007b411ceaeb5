//! Cursor navigation: seek to a key, then walk entries forward or backward
//! — the access pattern database executors use for index scans, merge
//! joins, and ORDER BY … LIMIT. Cursors borrow the tree immutably; they are
//! invalidated by any mutation (enforced by the borrow checker).

use crate::arena::NodeId;
use crate::key::Key;
use crate::tree::BpTree;

/// A bidirectional cursor over a [`BpTree`].
///
/// A cursor is always either *positioned* on an entry or *exhausted* (off
/// either end). [`Cursor::next`]/[`Cursor::prev`] return the entry the
/// cursor is on and then advance, so a freshly sought cursor yields the
/// sought entry first.
///
/// ```
/// use quit_core::BpTree;
///
/// let mut t: BpTree<u64, &str> = BpTree::quit();
/// for (k, v) in [(10, "a"), (20, "b"), (30, "c")] {
///     t.insert(k, v);
/// }
/// let mut cur = t.cursor_at(15); // seeks the first entry >= 15
/// assert_eq!(cur.next(), Some((20, &"b")));
/// assert_eq!(cur.next(), Some((30, &"c")));
/// assert_eq!(cur.next(), None);
/// ```
pub struct Cursor<'a, K, V> {
    tree: &'a BpTree<K, V>,
    /// Current position; `None` = exhausted.
    pos: Option<(NodeId, usize)>,
}

impl<'a, K: Key, V> Cursor<'a, K, V> {
    /// True when the cursor is positioned on an entry.
    pub fn is_valid(&self) -> bool {
        self.pos.is_some()
    }

    /// The entry the cursor is positioned on, without advancing.
    pub fn peek(&self) -> Option<(K, &'a V)> {
        let (leaf_id, slot) = self.pos?;
        let leaf = self.tree.arena.get(leaf_id).as_leaf();
        Some((leaf.keys[slot], &leaf.vals[slot]))
    }

    /// Returns the current entry and moves one entry toward larger keys.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(K, &'a V)> {
        let item = self.peek()?;
        let (leaf_id, slot) = self.pos.expect("peek succeeded");
        let leaf = self.tree.arena.get(leaf_id).as_leaf();
        self.pos = if slot + 1 < leaf.keys.len() {
            Some((leaf_id, slot + 1))
        } else {
            self.first_slot_of_next(leaf.next)
        };
        Some(item)
    }

    /// Returns the current entry and moves one entry toward smaller keys.
    pub fn prev(&mut self) -> Option<(K, &'a V)> {
        let item = self.peek()?;
        let (leaf_id, slot) = self.pos.expect("peek succeeded");
        let leaf = self.tree.arena.get(leaf_id).as_leaf();
        self.pos = match slot.checked_sub(1) {
            Some(s) => Some((leaf_id, s)),
            None => self.last_slot_of_prev(leaf.prev),
        };
        Some(item)
    }

    /// Re-seeks to the first entry with key `>= key`.
    pub fn seek(&mut self, key: K) {
        *self = self.tree.cursor_at(key);
    }

    fn first_slot_of_next(&self, mut next: Option<NodeId>) -> Option<(NodeId, usize)> {
        // Skip leaves emptied by lazy deletion paths.
        while let Some(id) = next {
            let leaf = self.tree.arena.get(id).as_leaf();
            if !leaf.keys.is_empty() {
                return Some((id, 0));
            }
            next = leaf.next;
        }
        None
    }

    fn last_slot_of_prev(&self, mut prev: Option<NodeId>) -> Option<(NodeId, usize)> {
        while let Some(id) = prev {
            let leaf = self.tree.arena.get(id).as_leaf();
            if let Some(last) = leaf.keys.len().checked_sub(1) {
                return Some((id, last));
            }
            prev = leaf.prev;
        }
        None
    }
}

impl<K: Key, V> BpTree<K, V> {
    /// A cursor positioned on the first entry with key `>= key`
    /// (exhausted if none exists).
    pub fn cursor_at(&self, key: K) -> Cursor<'_, K, V> {
        let (mut leaf_id, _, _, _) = self.descend(key);
        // Duplicate runs equal to `key` may begin in earlier leaves.
        loop {
            let leaf = self.arena.get(leaf_id).as_leaf();
            let back = leaf.keys.first().is_some_and(|&k| k >= key)
                && leaf.prev.is_some_and(|p| {
                    self.arena
                        .get(p)
                        .as_leaf()
                        .keys
                        .last()
                        .is_some_and(|&k| k >= key)
                });
            if !back {
                break;
            }
            leaf_id = leaf.prev.expect("checked above");
        }
        let mut pos = {
            let leaf = self.arena.get(leaf_id).as_leaf();
            let slot = crate::layout::search_leaf(self.config.search_kind, &leaf.keys, key);
            (slot < leaf.keys.len()).then_some((leaf_id, slot))
        };
        // The sought key may be past this leaf's content: move to the next
        // non-empty leaf.
        if pos.is_none() {
            let cursor = Cursor {
                tree: self,
                pos: None,
            };
            pos = cursor.first_slot_of_next(self.arena.get(leaf_id).as_leaf().next);
        }
        Cursor { tree: self, pos }
    }

    /// A cursor positioned on the smallest entry.
    pub fn cursor_first(&self) -> Cursor<'_, K, V> {
        let probe = Cursor {
            tree: self,
            pos: None,
        };
        let pos = probe.first_slot_of_next(Some(self.head));
        Cursor { tree: self, pos }
    }

    /// A cursor positioned on the largest entry.
    pub fn cursor_last(&self) -> Cursor<'_, K, V> {
        let probe = Cursor {
            tree: self,
            pos: None,
        };
        let pos = probe.last_slot_of_prev(Some(self.tail));
        Cursor { tree: self, pos }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::TreeConfig;
    use crate::fastpath::FastPathMode;
    use crate::tree::BpTree;

    fn filled(n: u64) -> BpTree<u64, u64> {
        let mut t = BpTree::with_config(FastPathMode::Pole, TreeConfig::small(4));
        for k in 0..n {
            t.insert(k * 2, k);
        }
        t
    }

    #[test]
    fn forward_scan_from_seek() {
        let t = filled(100);
        let mut c = t.cursor_at(51); // between 50 and 52
        assert_eq!(c.peek(), Some((52, &26)));
        let rest: Vec<u64> = std::iter::from_fn(|| c.next().map(|e| e.0)).collect();
        assert_eq!(rest.len(), 74); // 52, 54, …, 198
        assert_eq!(rest[0], 52);
        assert_eq!(*rest.last().expect("non-empty"), 198);
        assert!(!c.is_valid());
    }

    #[test]
    fn backward_scan() {
        let t = filled(100);
        let mut c = t.cursor_at(10);
        let back: Vec<u64> = std::iter::from_fn(|| c.prev().map(|e| e.0)).collect();
        assert_eq!(back, vec![10, 8, 6, 4, 2, 0]);
    }

    #[test]
    fn ping_pong_navigation() {
        let t = filled(10);
        let mut c = t.cursor_at(8);
        assert_eq!(c.next().map(|e| e.0), Some(8));
        // next() advanced to 10; prev() returns 10 then steps back to 8.
        assert_eq!(c.prev().map(|e| e.0), Some(10));
        assert_eq!(c.prev().map(|e| e.0), Some(8));
        assert_eq!(c.prev().map(|e| e.0), Some(6));
    }

    #[test]
    fn first_last_and_exhaustion() {
        let t = filled(5);
        assert_eq!(t.cursor_first().peek().map(|e| e.0), Some(0));
        assert_eq!(t.cursor_last().peek().map(|e| e.0), Some(8));
        let empty: BpTree<u64, u64> = BpTree::with_config(FastPathMode::None, TreeConfig::small(4));
        assert!(!empty.cursor_first().is_valid());
        assert!(!empty.cursor_last().is_valid());
        assert!(!empty.cursor_at(0).is_valid());
        assert_eq!(t.cursor_at(9999).peek(), None);
    }

    #[test]
    fn seek_lands_on_duplicate_run_head() {
        let mut t: BpTree<u64, u64> = BpTree::with_config(FastPathMode::None, TreeConfig::small(4));
        for i in 0..20u64 {
            t.insert(7, i);
        }
        t.insert(1, 0);
        t.insert(9, 0);
        let mut c = t.cursor_at(7);
        let mut count = 0;
        while let Some((k, _)) = c.next() {
            if k == 7 {
                count += 1;
            } else {
                break;
            }
        }
        assert_eq!(count, 20, "cursor must start at the run head");
    }

    #[test]
    fn reseek_repositions() {
        let t = filled(50);
        let mut c = t.cursor_first();
        assert_eq!(c.next().map(|e| e.0), Some(0));
        c.seek(40);
        assert_eq!(c.next().map(|e| e.0), Some(40));
        c.seek(0);
        assert_eq!(c.peek().map(|e| e.0), Some(0));
    }

    #[test]
    fn cursor_agrees_with_iter() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(21);
        let mut t: BpTree<u64, u64> = BpTree::with_config(FastPathMode::Pole, TreeConfig::small(6));
        for _ in 0..2000 {
            let k = rng.gen_range(0..300u64);
            t.insert(k, k);
        }
        let via_iter: Vec<u64> = t.iter().map(|e| e.0).collect();
        let mut c = t.cursor_first();
        let via_cursor: Vec<u64> = std::iter::from_fn(|| c.next().map(|e| e.0)).collect();
        assert_eq!(via_iter, via_cursor);
        // And backward equals reversed forward.
        let mut c = t.cursor_last();
        let mut back: Vec<u64> = std::iter::from_fn(|| c.prev().map(|e| e.0)).collect();
        back.reverse();
        assert_eq!(via_iter, back);
    }
}
