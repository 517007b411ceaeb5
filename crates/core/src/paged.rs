//! Node-granular paged storage: decoded tree nodes cached in a bounded
//! frame table over a [`PageStore`], with CLOCK eviction at operation
//! boundaries.
//!
//! This is the `StorageKind::Paged` backend behind [`crate::Arena`]. It
//! keeps the arena's reference-returning API (`get(&self) -> &Node`)
//! intact across ~135 call sites by adapting the buffer-pool pin
//! discipline to Rust's borrow checker:
//!
//! * **Reads fault, but never evict.** `get`/`get_mut` fault missing
//!   nodes in from the store. Faulting only *inserts* frames (each node
//!   is boxed, so its address never moves when the frame table grows),
//!   which keeps previously returned `&Node` references valid.
//! * **Eviction happens only at operation boundaries.** The tree calls
//!   [`PagedNodes::begin_op`] (via `Arena::begin_op`) at the top of each
//!   `&mut self` operation — insert, delete, batch, and the trait-level
//!   get/range. `&mut self` is the proof that no node reference is
//!   outstanding, so dropping frames is sound. Every frame touched since
//!   the previous boundary carries an implicit *operation pin*; CLOCK
//!   (second-chance over reference bits) then evicts down to
//!   `pool_pages`, writing dirty victims through the store.
//!
//! The pool can therefore overshoot `pool_pages` *within* one operation
//! by the number of distinct nodes that operation touches (≈ tree height
//! for point ops, plus scanned leaves for ranges, plus everything for a
//! full validation walk) — bounded, and trimmed at the next boundary.
//!
//! A one-entry *hot-node memo* keeps the most recently touched node's
//! frame index under a standing pin, short-circuiting the page-table
//! lookup on the tail-leaf-heavy sorted fast path. The memo must (a)
//! hold its standing pin across the operation boundary and (b) validate
//! that its frame still holds its node. The `inject-pin-bug` feature
//! releases the pin one boundary early with broken accounting: the hot
//! frame becomes an eviction victim whose dirty write-back is skipped
//! (eviction believes the phantom pin holder will flush it), so the next
//! fault resurrects the node's previous on-store version — updates lost
//! to an unpinned eviction, which `quit-testkit`'s pool mutation smoke
//! must catch under pressure.
//!
//! # Values must be plain-old-data
//!
//! Pages are byte images, so evicting a node serializes its keys and
//! values. Keys already promise this ([`Key`] requires the crate's
//! `AnyBitPattern`). Values are checked at construction:
//! [`value_is_pod`] accepts exactly the fixed-width types the crate
//! implements `Key`'s byte-view contract for, and paged construction
//! panics for anything else (`String` values etc. need the in-memory
//! arena). The encode/decode functions below compile for every `V` but
//! are only ever *called* once that gate has passed, which is what makes
//! their unsafe byte copies sound.

use crate::arena::NodeId;
use crate::error::Error;
use crate::node::{InternalNode, LeafNode, Node};
use crate::pool::{crc32, MemPageStore, PageId, PageStore, PoolCounters};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// The sentinel encoding of `Option<NodeId>::None` in page images.
const NIL: u32 = u32::MAX;

// ---------------------------------------------------------------------
// Pod gate for values
// ---------------------------------------------------------------------

/// Whether `V` is one of the fixed-width plain-old-data types paged
/// storage can serialize: the exact set this crate implements [`crate::Key`]'s
/// byte-pattern contract for. `TypeId` equality of `'static` types is
/// type equality, so a `true` here licenses the byte-copy codec below.
pub fn value_is_pod<V: 'static>() -> bool {
    use std::any::TypeId;
    let t = TypeId::of::<V>();
    t == TypeId::of::<u8>()
        || t == TypeId::of::<u16>()
        || t == TypeId::of::<u32>()
        || t == TypeId::of::<u64>()
        || t == TypeId::of::<usize>()
        || t == TypeId::of::<i8>()
        || t == TypeId::of::<i16>()
        || t == TypeId::of::<i32>()
        || t == TypeId::of::<i64>()
        || t == TypeId::of::<isize>()
        || t == TypeId::of::<crate::key::OrderedF64>()
}

/// Appends the raw bytes of `t`. Sound only for types with no padding and
/// no invalid bit patterns — the caller gates on [`value_is_pod`] /
/// `K: Key` before ever reaching this.
fn push_pod<T>(out: &mut Vec<u8>, t: &T) {
    let bytes = unsafe {
        std::slice::from_raw_parts((t as *const T).cast::<u8>(), std::mem::size_of::<T>())
    };
    out.extend_from_slice(bytes);
}

/// Reads one `T` back out of `bytes` at `off`, advancing it. Same gating
/// contract as [`push_pod`]; the length check makes the unaligned read
/// in-bounds.
fn read_pod<T>(bytes: &[u8], off: &mut usize) -> T {
    let n = std::mem::size_of::<T>();
    assert!(*off + n <= bytes.len(), "page underflow decoding node");
    let t = unsafe { std::ptr::read_unaligned(bytes.as_ptr().add(*off).cast::<T>()) };
    *off += n;
    t
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u32(bytes: &[u8], off: &mut usize) -> u32 {
    let v = u32::from_le_bytes(bytes[*off..*off + 4].try_into().expect("page underflow"));
    *off += 4;
    v
}

fn opt_id(v: u32) -> Option<NodeId> {
    (v != NIL).then_some(NodeId(v))
}

fn id_or_nil(v: Option<NodeId>) -> u32 {
    v.map_or(NIL, |id| id.0)
}

// ---------------------------------------------------------------------
// Node codec
// ---------------------------------------------------------------------

const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 2;

/// Byte offset of a leaf page's reserved `u32` (after the tag and the
/// length, parent, next and prev words). Always written as 0; the eager
/// sweep in [`PagedNodes::from_image`] rejects a leaf page where it is not.
const LEAF_RESERVED_AT: usize = 1 + 4 * 4;

/// Serializes a node into a fresh page payload (not padded; the page
/// image layer pads and checksums). Compiles for every `K`/`V`; only
/// ever called once construction has pod-gated both.
fn encode_node<K, V>(node: &Node<K, V>) -> Vec<u8> {
    let mut out = Vec::new();
    match node {
        Node::Leaf(l) => {
            out.push(TAG_LEAF);
            push_u32(&mut out, l.keys.len() as u32);
            push_u32(&mut out, id_or_nil(l.parent));
            push_u32(&mut out, id_or_nil(l.next));
            push_u32(&mut out, id_or_nil(l.prev));
            push_u32(&mut out, 0); // reserved
            for k in &l.keys {
                push_pod(&mut out, k);
            }
            for v in &l.vals {
                push_pod(&mut out, v);
            }
        }
        Node::Internal(n) => {
            out.push(TAG_INTERNAL);
            push_u32(&mut out, n.keys.len() as u32);
            push_u32(&mut out, n.children.len() as u32);
            push_u32(&mut out, id_or_nil(n.parent));
            for k in &n.keys {
                push_pod(&mut out, k);
            }
            for c in &n.children {
                push_u32(&mut out, c.0);
            }
        }
        Node::Free => unreachable!("free slots are never paged out"),
    }
    out
}

/// Decodes a page payload back into a node. Trailing padding is ignored
/// (the layout is self-describing). Same gating contract as
/// [`encode_node`].
fn decode_node<K, V>(bytes: &[u8]) -> Node<K, V> {
    let mut off = 0usize;
    let tag = bytes[off];
    off += 1;
    match tag {
        TAG_LEAF => {
            let n = read_u32(bytes, &mut off) as usize;
            let parent = opt_id(read_u32(bytes, &mut off));
            let next = opt_id(read_u32(bytes, &mut off));
            let prev = opt_id(read_u32(bytes, &mut off));
            off += 4; // reserved
            let mut leaf = LeafNode::with_capacity(n);
            for _ in 0..n {
                leaf.keys.push(read_pod::<K>(bytes, &mut off));
            }
            for _ in 0..n {
                leaf.vals.push(read_pod::<V>(bytes, &mut off));
            }
            leaf.parent = parent;
            leaf.next = next;
            leaf.prev = prev;
            Node::Leaf(leaf)
        }
        TAG_INTERNAL => {
            let n_keys = read_u32(bytes, &mut off) as usize;
            let n_children = read_u32(bytes, &mut off) as usize;
            let parent = opt_id(read_u32(bytes, &mut off));
            let mut node = InternalNode::new();
            for _ in 0..n_keys {
                node.keys.push(read_pod::<K>(bytes, &mut off));
            }
            for _ in 0..n_children {
                node.children.push(NodeId(read_u32(bytes, &mut off)));
            }
            node.parent = parent;
            Node::Internal(node)
        }
        t => panic!("corrupt page: unknown node tag {t}"),
    }
}

/// Worst-case encoded node size for the given geometry — what paged
/// construction validates against the page size. The `+1` margins cover
/// the transient over-full states a node passes through on its way into
/// a split (splits finish within the operation, but a conservative bound
/// is free).
pub fn max_encoded_node_size<K, V>(leaf_capacity: usize, internal_capacity: usize) -> usize {
    let (sk, sv) = (std::mem::size_of::<K>(), std::mem::size_of::<V>());
    let lc = leaf_capacity + 1;
    let ic = internal_capacity + 1;
    let leaf = 1 + 4 * 5 + lc * (sk + sv);
    let internal = 1 + 4 * 3 + ic * sk + (ic + 1) * 4;
    leaf.max(internal)
}

// ---------------------------------------------------------------------
// The paged arena backend
// ---------------------------------------------------------------------

/// One resident (decoded) node. Boxing gives the node a stable heap
/// address: growing or shuffling the frame vector never moves it, which
/// is load-bearing for the `&self` fault path.
struct FrameEntry<K, V> {
    id: u32,
    node: Box<Node<K, V>>,
    ref_bit: Cell<bool>,
    dirty: Cell<bool>,
}

/// The parts `get(&self)` must mutate to fault nodes in.
struct Resident<K, V> {
    frames: Vec<Option<FrameEntry<K, V>>>,
    table: HashMap<u32, usize>,
    hand: usize,
}

/// Paged node storage: a bounded cache of decoded nodes over a byte
/// [`PageStore`], one node per page, addressed by `PageId(node id)`.
/// See the module docs for the pin/eviction discipline.
pub struct PagedNodes<K, V> {
    resident: RefCell<Resident<K, V>>,
    store: RefCell<Box<dyn PageStore>>,
    /// Hot-node memo: `(node id, frame index)` of the most recently
    /// touched node, held under a standing pin across operation
    /// boundaries. The `inject-pin-bug` feature drops that pin one
    /// boundary early and loses the victim's dirty write-back — see
    /// module docs.
    memo: Cell<Option<(u32, usize)>>,
    free: Vec<u32>,
    next_id: u32,
    live: usize,
    pool_pages: usize,
    page_size: usize,
    counters: PoolCounters,
}

impl<K, V> std::fmt::Debug for PagedNodes<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedNodes")
            .field("live", &self.live)
            .field("pool_pages", &self.pool_pages)
            .field("resident", &self.resident.borrow().table.len())
            .finish()
    }
}

impl<K: 'static, V: 'static> PagedNodes<K, V> {
    /// A paged arena over `store` holding at most `pool_pages` decoded
    /// nodes between operations. Panics if `K` or `V` is not
    /// plain-old-data or the geometry's worst-case node cannot fit one
    /// `page_size` page.
    pub fn new(
        store: Box<dyn PageStore>,
        pool_pages: usize,
        page_size: usize,
        leaf_capacity: usize,
        internal_capacity: usize,
    ) -> Self {
        assert!(
            value_is_pod::<K>(),
            "StorageKind::Paged requires plain-old-data keys; got {}",
            std::any::type_name::<K>()
        );
        assert!(
            value_is_pod::<V>(),
            "StorageKind::Paged requires plain-old-data values \
             (u8..u64, i8..i64, usize/isize, OrderedF64); got {} — \
             use the in-memory arena for heap-owning value types",
            std::any::type_name::<V>()
        );
        let need = max_encoded_node_size::<K, V>(leaf_capacity, internal_capacity);
        assert!(
            need <= page_size,
            "StorageKind::Paged: a {leaf_capacity}-entry leaf / \
             {internal_capacity}-key internal node needs up to {need} bytes \
             but pages are {page_size}; lower the capacities or raise page_size"
        );
        assert!(pool_pages >= 2, "paged storage needs pool_pages >= 2");
        PagedNodes {
            resident: RefCell::new(Resident {
                frames: Vec::new(),
                table: HashMap::new(),
                hand: 0,
            }),
            store: RefCell::new(store),
            memo: Cell::new(None),
            free: Vec::new(),
            next_id: 0,
            live: 0,
            pool_pages,
            page_size,
            counters: PoolCounters::default(),
        }
    }
}

impl<K, V> PagedNodes<K, V> {
    /// Hit/fault/eviction counters.
    pub fn counters(&self) -> &PoolCounters {
        &self.counters
    }

    /// Decoded nodes currently resident.
    pub fn resident(&self) -> usize {
        self.resident.borrow().table.len()
    }

    /// The pool's between-operations frame budget.
    pub fn pool_pages(&self) -> usize {
        self.pool_pages
    }

    // -- arena API ----------------------------------------------------

    /// Stores `node` in a fresh frame and returns its id. Ids are
    /// assigned exactly like the slab backend (free-list pop, else
    /// next sequential), so tree structure is backend-independent.
    pub fn alloc(&mut self, node: Node<K, V>) -> NodeId {
        self.live += 1;
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                let id = self.next_id;
                self.next_id = self
                    .next_id
                    .checked_add(1)
                    .expect("arena overflow: > 2^32 nodes");
                id
            }
        };
        let r = self.resident.get_mut();
        let idx = free_frame(&mut r.frames);
        r.frames[idx] = Some(FrameEntry {
            id,
            node: Box::new(node),
            ref_bit: Cell::new(true),
            dirty: Cell::new(true),
        });
        r.table.insert(id, idx);
        NodeId(id)
    }

    /// Releases `id` for reuse, dropping its resident frame if any.
    pub fn free(&mut self, id: NodeId) {
        let r = self.resident.get_mut();
        if let Some(idx) = r.table.remove(&id.0) {
            r.frames[idx] = None;
        }
        // The store may keep stale bytes for this id; they are
        // unreachable (the id is on the free list) and get overwritten
        // when the id is recycled and its new node is first evicted.
        if let Some((mid, _)) = self.memo.get() {
            if mid == id.0 {
                self.memo.set(None);
            }
        }
        self.free.push(id.0);
        self.live -= 1;
    }

    /// Shared access to a node, faulting it in from the store if not
    /// resident. Never evicts (see the module docs for why).
    pub fn get(&self, id: NodeId) -> &Node<K, V> {
        let ptr = self.frame_ptr(id);
        // SAFETY: the pointee is heap-boxed, so it never moves while the
        // frame table changes under later `&self` faults (which only
        // insert frames). Frames are only *dropped* by eviction in
        // `begin_op`/`to_image`/`free` — all `&mut self` — at which point
        // the borrow checker guarantees this `&'self`-tied reference is
        // gone. Aliasing: `&self` methods only hand out shared refs;
        // `&mut` refs come from `&mut self` methods.
        unsafe { &*ptr }
    }

    /// Exclusive access to a node, faulting it in and marking it dirty.
    pub fn get_mut(&mut self, id: NodeId) -> &mut Node<K, V> {
        let ptr = self.frame_ptr(id).cast_mut();
        self.mark_dirty(id);
        // SAFETY: stability as in `get`; exclusivity holds because this
        // borrows `self` mutably for the reference's whole lifetime.
        unsafe { &mut *ptr }
    }

    /// Exclusive access to two distinct nodes at once (split/merge paths).
    pub fn get2_mut(&mut self, a: NodeId, b: NodeId) -> (&mut Node<K, V>, &mut Node<K, V>) {
        assert_ne!(a, b, "get2_mut requires distinct ids");
        let pa = self.frame_ptr(a).cast_mut();
        // Faulting `b` may grow the frame table but cannot move or drop
        // `a`'s boxed node.
        let pb = self.frame_ptr(b).cast_mut();
        self.mark_dirty(a);
        self.mark_dirty(b);
        // SAFETY: distinct ids map to distinct boxes; stability and
        // exclusivity as in `get_mut`.
        unsafe { (&mut *pa, &mut *pb) }
    }

    /// Number of live nodes (resident or evicted).
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no node is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total id slots ever allocated (live + free-listed).
    pub fn slot_count(&self) -> usize {
        self.next_id as usize
    }

    /// Iterates `(id, node)` over live nodes, faulting each in. This is
    /// the debug/validation path: residency can overshoot the budget by
    /// the whole tree until the next operation boundary trims it.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node<K, V>)> {
        let freed: std::collections::HashSet<u32> = self.free.iter().copied().collect();
        (0..self.next_id)
            .filter(move |i| !freed.contains(i))
            .map(move |i| (NodeId(i), self.get(NodeId(i))))
    }

    // -- pin discipline ----------------------------------------------

    /// Operation boundary: every implicit operation pin from the
    /// previous operation is released, and CLOCK evicts unpinned frames
    /// (dirty ones written through the store) until at most `pool_pages`
    /// remain. The hot-node memo keeps its standing pin — unless the
    /// `inject-pin-bug` mutation releases it here, one boundary early.
    pub fn begin_op(&mut self) {
        #[cfg(not(feature = "inject-pin-bug"))]
        let standing_pin: Option<u32> = self.memo.get().map(|(id, _)| id);
        // Planted bug: the memo's standing pin is dropped one boundary
        // early, so the hot frame becomes an eviction victim — and the
        // broken pin accounting also makes eviction believe someone else
        // still pins the frame and will flush it, so its dirty write-back
        // is skipped. The store keeps the node's *previous* page (or none
        // at all), and the next fault resurrects that stale version:
        // updates lost to an unpinned eviction, which the pool mutation
        // smoke must catch under pressure.
        #[cfg(feature = "inject-pin-bug")]
        let standing_pin: Option<u32> = None;
        #[cfg(feature = "inject-pin-bug")]
        let unflushed_hot: Option<u32> = self.memo.get().map(|(id, _)| id);

        let r = self.resident.get_mut();
        let over = r.table.len().saturating_sub(self.pool_pages);
        if over == 0 {
            return;
        }
        let n = r.frames.len();
        let mut evicted = 0usize;
        let mut sweeps = 0usize;
        while evicted < over && sweeps < 2 * n + 2 {
            let here = r.hand;
            r.hand = (r.hand + 1) % n;
            sweeps += 1;
            let Some(entry) = r.frames[here].as_ref() else {
                continue;
            };
            if standing_pin == Some(entry.id) {
                continue;
            }
            if entry.ref_bit.get() {
                entry.ref_bit.set(false); // second chance
                continue;
            }
            let victim = r.frames[here].take().expect("checked above");
            r.table.remove(&victim.id);
            #[cfg(feature = "inject-pin-bug")]
            let skip_writeback = unflushed_hot == Some(victim.id);
            #[cfg(not(feature = "inject-pin-bug"))]
            let skip_writeback = false;
            if victim.dirty.get() && !skip_writeback {
                let bytes = encode_node(&victim.node);
                debug_assert!(bytes.len() <= self.page_size);
                self.store
                    .borrow_mut()
                    .write(PageId(victim.id as u64), &bytes)
                    .expect("page store write failed during eviction");
            }
            self.counters
                .evictions
                .set(self.counters.evictions.get() + 1);
            evicted += 1;
        }
    }

    /// Resolves `id` to a stable node pointer, faulting from the store on
    /// a miss. Shared by `get`/`get_mut` (`&self` is enough: faulting
    /// only inserts frames).
    fn frame_ptr(&self, id: NodeId) -> *const Node<K, V> {
        let mut r = self.resident.borrow_mut();
        if let Some(idx) = self.memo_hit(&r, id.0) {
            let entry = r.frames[idx].as_ref().expect("memo frame resident");
            entry.ref_bit.set(true);
            self.counters.hits.set(self.counters.hits.get() + 1);
            return &*entry.node as *const Node<K, V>;
        }
        if let Some(&idx) = r.table.get(&id.0) {
            let entry = r.frames[idx].as_ref().expect("mapped frame resident");
            entry.ref_bit.set(true);
            self.counters.hits.set(self.counters.hits.get() + 1);
            self.memo.set(Some((id.0, idx)));
            return &*entry.node as *const Node<K, V>;
        }
        // Fault: decode from the store into a fresh frame. Never evicts.
        let bytes = self
            .store
            .borrow()
            .read(PageId(id.0 as u64))
            .expect("page store read failed")
            .unwrap_or_else(|| panic!("access to freed or never-written node n{}", id.0));
        let node = decode_node::<K, V>(&bytes);
        self.counters.faults.set(self.counters.faults.get() + 1);
        let idx = free_frame(&mut r.frames);
        r.frames[idx] = Some(FrameEntry {
            id: id.0,
            node: Box::new(node),
            ref_bit: Cell::new(true),
            dirty: Cell::new(false),
        });
        r.table.insert(id.0, idx);
        self.memo.set(Some((id.0, idx)));
        let entry = r.frames[idx].as_ref().expect("just inserted");
        &*entry.node as *const Node<K, V>
    }

    /// Memo lookup, revalidating that the memoized frame still holds the
    /// memoized node (its standing pin normally makes this a formality —
    /// but see [`PagedNodes::begin_op`] for the planted pin bug, which
    /// lets the memoized frame be evicted out from under the memo).
    fn memo_hit(&self, r: &Resident<K, V>, id: u32) -> Option<usize> {
        let (mid, idx) = self.memo.get()?;
        if mid != id {
            return None;
        }
        match r.frames.get(idx) {
            Some(Some(e)) if e.id == id => Some(idx),
            _ => None,
        }
    }

    fn mark_dirty(&mut self, id: NodeId) {
        let r = self.resident.get_mut();
        if let Some(&idx) = r.table.get(&id.0) {
            if let Some(e) = r.frames[idx].as_ref() {
                e.dirty.set(true);
            }
        }
    }

    // -- page-file image ----------------------------------------------

    /// Serializes the whole arena (metadata, free list, and every live
    /// node's page) into a page-file image: the snapshot format. Dirty
    /// frames are flushed through the store first; resident frames stay
    /// resident.
    #[allow(clippy::wrong_self_convention)]
    pub fn to_image(&mut self) -> Vec<u8> {
        // Flush dirty frames so the store holds every live page.
        {
            let r = self.resident.get_mut();
            let mut store = self.store.borrow_mut();
            for entry in r.frames.iter().flatten() {
                if entry.dirty.get() {
                    store
                        .write(PageId(entry.id as u64), &encode_node(&entry.node))
                        .expect("page store write failed during snapshot");
                    entry.dirty.set(false);
                }
            }
        }
        let freed: std::collections::HashSet<u32> = self.free.iter().copied().collect();
        let live_ids: Vec<u32> = (0..self.next_id).filter(|i| !freed.contains(i)).collect();

        let mut out = Vec::new();
        out.extend_from_slice(IMAGE_MAGIC);
        push_u32(&mut out, self.page_size as u32);
        push_u32(&mut out, self.next_id);
        push_u32(&mut out, self.free.len() as u32);
        for f in &self.free {
            push_u32(&mut out, *f);
        }
        push_u32(&mut out, live_ids.len() as u32);
        let hdr_crc = crc32(&out);
        push_u32(&mut out, hdr_crc);
        let store = self.store.borrow();
        for id in live_ids {
            let bytes = store
                .read(PageId(id as u64))
                .expect("page store read failed during snapshot")
                .unwrap_or_else(|| panic!("live node n{id} missing from store"));
            push_u32(&mut out, id);
            push_u32(&mut out, bytes.len() as u32);
            push_u32(&mut out, record_crc(id, &bytes));
            out.extend_from_slice(&bytes);
        }
        out
    }
}

impl<K: 'static, V: 'static> PagedNodes<K, V> {
    /// Opens a page-file image written by [`Self::to_image`]. Validation is
    /// eager — header CRC, record framing, and every page's CRC are
    /// checked in one cheap byte sweep, so a torn or truncated image is
    /// rejected as a whole — but *decoding* is lazy: nodes fault in on
    /// demand, so recovery touches only the root and spine until reads
    /// spread out. New writes land in an in-memory overlay on top of the
    /// read-only image.
    pub fn from_image(
        image: &[u8],
        pool_pages: usize,
        leaf_capacity: usize,
        internal_capacity: usize,
    ) -> Result<Self, Error> {
        let corrupt = |msg: &str| Error::corruption(format!("page image: {msg}"));
        if image.len() < IMAGE_MAGIC.len() || &image[..IMAGE_MAGIC.len()] != IMAGE_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let mut off = IMAGE_MAGIC.len();
        let need = |off: usize, n: usize| -> Result<(), Error> {
            if off + n > image.len() {
                Err(corrupt("truncated"))
            } else {
                Ok(())
            }
        };
        need(off, 12)?;
        let page_size = read_u32(image, &mut off) as usize;
        let next_id = read_u32(image, &mut off);
        let n_free = read_u32(image, &mut off) as usize;
        need(off, n_free * 4 + 8)?;
        let mut free = Vec::with_capacity(n_free);
        for _ in 0..n_free {
            free.push(read_u32(image, &mut off));
        }
        let n_pages = read_u32(image, &mut off) as usize;
        let hdr_crc = crc32(&image[..off]);
        if read_u32(image, &mut off) != hdr_crc {
            return Err(corrupt("header checksum mismatch"));
        }
        if free.len() + n_pages != next_id as usize {
            return Err(corrupt("inconsistent id accounting"));
        }
        // Eager integrity sweep over every record; decode stays lazy.
        let freed: std::collections::HashSet<u32> = free.iter().copied().collect();
        let mut base = HashMap::with_capacity(n_pages);
        for _ in 0..n_pages {
            need(off, 12)?;
            let id = read_u32(image, &mut off);
            let len = read_u32(image, &mut off) as usize;
            let crc = read_u32(image, &mut off);
            need(off, len)?;
            let payload = &image[off..off + len];
            // The record CRC covers id and length too, so a flipped id
            // byte cannot silently remap a page to another node.
            if record_crc(id, payload) != crc {
                return Err(corrupt(&format!(
                    "page n{id} checksum mismatch (torn page)"
                )));
            }
            if id >= next_id || freed.contains(&id) {
                return Err(corrupt(&format!("page n{id} is not a live node id")));
            }
            if payload.first() == Some(&TAG_LEAF)
                && payload.get(LEAF_RESERVED_AT..LEAF_RESERVED_AT + 4) != Some(&[0; 4])
            {
                return Err(corrupt(&format!(
                    "leaf page n{id} has a non-zero reserved word"
                )));
            }
            if base.insert(id, payload.to_vec()).is_some() {
                return Err(corrupt(&format!("duplicate page n{id}")));
            }
            off += len;
        }
        if off != image.len() {
            return Err(corrupt("trailing bytes after last page"));
        }
        let store = OverlayPageStore {
            base,
            delta: MemPageStore::new(),
        };
        let mut arena = PagedNodes::new(
            Box::new(store),
            pool_pages,
            page_size,
            leaf_capacity,
            internal_capacity,
        );
        arena.free = free;
        arena.next_id = next_id;
        arena.live = n_pages;
        Ok(arena)
    }
}

/// Magic line opening an arena page image (the paged snapshot payload).
pub const IMAGE_MAGIC: &[u8; 6] = b"QPGA1\n";

/// Per-record image CRC: covers the record's `id` and `len` prefix as
/// well as the page payload, so no byte of a record can flip undetected.
fn record_crc(id: u32, payload: &[u8]) -> u32 {
    let mut rec = Vec::with_capacity(8 + payload.len());
    rec.extend_from_slice(&id.to_le_bytes());
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(payload);
    crc32(&rec)
}

/// First free slot in the frame table, growing it if none.
fn free_frame<K, V>(frames: &mut Vec<Option<FrameEntry<K, V>>>) -> usize {
    match frames.iter().position(Option::is_none) {
        Some(idx) => idx,
        None => {
            frames.push(None);
            frames.len() - 1
        }
    }
}

/// A read-only page image with an in-memory write overlay: what a
/// lazily-recovered arena runs on. Reads prefer the overlay (newest
/// version wins); the base image is never modified.
#[derive(Debug)]
struct OverlayPageStore {
    base: HashMap<u32, Vec<u8>>,
    delta: MemPageStore,
}

impl PageStore for OverlayPageStore {
    fn read(&self, id: PageId) -> std::io::Result<Option<Vec<u8>>> {
        if let Some(bytes) = self.delta.read(id)? {
            return Ok(Some(bytes));
        }
        Ok(self.base.get(&(id.0 as u32)).cloned())
    }

    fn write(&mut self, id: PageId, bytes: &[u8]) -> std::io::Result<()> {
        self.delta.write(id, bytes)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.delta.sync()
    }

    fn page_count(&self) -> usize {
        // Upper bound (overlayed pages counted once is not worth a scan).
        self.base.len() + self.delta.page_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(k: u64, v: u64) -> Node<u64, u64> {
        let mut l = LeafNode::new();
        l.keys.push(k);
        l.vals.push(v);
        Node::Leaf(l)
    }

    fn paged(pool_pages: usize) -> PagedNodes<u64, u64> {
        PagedNodes::new(Box::new(MemPageStore::new()), pool_pages, 4096, 64, 64)
    }

    #[test]
    fn codec_roundtrips_dense_leaf_with_links() {
        let mut l: LeafNode<u64, u64> = LeafNode::new();
        for i in 0..70u64 {
            l.keys.push(i);
            l.vals.push(i * 10);
        }
        l.parent = Some(NodeId(5));
        l.next = Some(NodeId(9));
        let node = Node::Leaf(l);
        let bytes = encode_node(&node);
        let reserved = &bytes[LEAF_RESERVED_AT..LEAF_RESERVED_AT + 4];
        assert_eq!(reserved, [0; 4], "reserved word is written as 0");
        assert_eq!(bytes.len(), LEAF_RESERVED_AT + 4 + 70 * 16);
        let back: Node<u64, u64> = decode_node(&bytes);
        let b = back.as_leaf();
        assert_eq!(b.keys, (0..70).collect::<Vec<u64>>());
        assert_eq!(b.vals[69], 690);
        assert_eq!(b.parent, Some(NodeId(5)));
        assert_eq!(b.next, Some(NodeId(9)));
        assert_eq!(b.prev, None);
    }

    #[test]
    fn image_with_nonzero_leaf_reserved_word_is_corrupt() {
        let mut a = paged(4);
        a.alloc(leaf(1, 10));
        a.alloc(leaf(2, 20));
        a.begin_op();
        let mut image = a.to_image();
        PagedNodes::<u64, u64>::from_image(&image, 4, 64, 64).expect("clean image opens");
        // Walk to the second record: [id, len, crc] then the payload.
        let mut off = IMAGE_MAGIC.len() + 4 * 5;
        off += 12 + u32::from_le_bytes(image[off + 4..off + 8].try_into().unwrap()) as usize;
        let id = u32::from_le_bytes(image[off..off + 4].try_into().unwrap());
        let len = u32::from_le_bytes(image[off + 4..off + 8].try_into().unwrap()) as usize;
        let payload = off + 12;
        // Set only the reserved word, then recompute the record CRC so the
        // field is the one thing wrong with the image.
        image[payload + LEAF_RESERVED_AT] = 1;
        let crc = record_crc(id, &image[payload..payload + len]);
        image[off + 8..off + 12].copy_from_slice(&crc.to_le_bytes());
        let err = PagedNodes::<u64, u64>::from_image(&image, 4, 64, 64).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)), "got: {err:?}");
        assert!(err.to_string().contains("reserved"), "got: {err}");
    }

    #[test]
    fn codec_roundtrips_internal() {
        let mut n: InternalNode<u64> = InternalNode::new();
        n.keys = vec![10, 20];
        n.children = vec![NodeId(1), NodeId(2), NodeId(3)];
        let node: Node<u64, u64> = Node::Internal(n);
        let back: Node<u64, u64> = decode_node(&encode_node(&node));
        let b = back.as_internal();
        assert_eq!(b.keys, vec![10, 20]);
        assert_eq!(b.children, vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(b.parent, None);
    }

    #[test]
    fn pod_gate() {
        assert!(value_is_pod::<u64>());
        assert!(value_is_pod::<i32>());
        assert!(value_is_pod::<crate::key::OrderedF64>());
        assert!(!value_is_pod::<String>());
        assert!(!value_is_pod::<Vec<u8>>());
    }

    #[test]
    #[should_panic(expected = "plain-old-data")]
    fn non_pod_values_rejected_at_construction() {
        let _: PagedNodes<u64, String> =
            PagedNodes::new(Box::new(MemPageStore::new()), 8, 4096, 8, 8);
    }

    #[test]
    #[should_panic(expected = "lower the capacities")]
    fn oversized_geometry_rejected() {
        // 510 × 16 B far exceeds one 4 KiB page.
        let _: PagedNodes<u64, u64> =
            PagedNodes::new(Box::new(MemPageStore::new()), 8, 4096, 510, 510);
    }

    #[test]
    fn alloc_ids_match_direct_arena_semantics() {
        let mut a = paged(4);
        let id0 = a.alloc(leaf(1, 1));
        let _id1 = a.alloc(leaf(2, 2));
        a.free(id0);
        assert_eq!(a.len(), 1);
        let id2 = a.alloc(leaf(3, 3));
        assert_eq!(id2, id0, "freed slot must be reused, like the slab arena");
        assert_eq!(a.len(), 2);
        assert_eq!(a.slot_count(), 2);
    }

    #[test]
    fn eviction_at_op_boundary_and_fault_back() {
        let mut a = paged(2);
        let ids: Vec<NodeId> = (0..6u64).map(|i| a.alloc(leaf(i, i * 7))).collect();
        assert_eq!(a.resident(), 6, "no eviction mid-operation");
        a.begin_op();
        assert!(a.resident() <= 2, "boundary trims to the pool budget");
        assert!(a.counters().evictions.get() >= 4);
        // Every node still reads back correctly (faulting as needed).
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(a.get(*id).as_leaf().vals[0], i as u64 * 7);
        }
        assert!(a.counters().faults.get() >= 4);
        // Mutate one, force it out, fault it back: the write survived.
        a.get_mut(ids[0]).as_leaf_mut().vals[0] = 999;
        a.begin_op();
        a.begin_op();
        assert_eq!(a.get(ids[0]).as_leaf().vals[0], 999);
    }

    #[test]
    fn get2_mut_and_iter() {
        let mut a = paged(2);
        let x = a.alloc(leaf(1, 1));
        let y = a.alloc(leaf(2, 2));
        let z = a.alloc(leaf(3, 3));
        a.begin_op();
        let (nx, ny) = a.get2_mut(x, y);
        nx.as_leaf_mut().vals[0] = 11;
        ny.as_leaf_mut().vals[0] = 22;
        a.free(z);
        let got: Vec<(NodeId, u64)> = a.iter().map(|(id, n)| (id, n.as_leaf().vals[0])).collect();
        assert_eq!(got, vec![(x, 11), (y, 22)]);
    }

    #[test]
    fn image_roundtrip_is_lazy_and_validated() {
        let mut a = paged(3);
        let ids: Vec<NodeId> = (0..10u64).map(|i| a.alloc(leaf(i, i + 100))).collect();
        a.free(ids[4]);
        a.begin_op();
        let image = a.to_image();
        let b: PagedNodes<u64, u64> = PagedNodes::from_image(&image, 3, 64, 64).unwrap();
        assert_eq!(b.len(), 9);
        assert_eq!(b.slot_count(), 10);
        assert_eq!(b.resident(), 0, "recovery decodes nothing up front");
        assert_eq!(b.get(ids[7]).as_leaf().vals[0], 107);
        assert_eq!(b.resident(), 1, "only the faulted node decoded");
        // Freed id is re-allocatable in the recovered arena.
        let mut b = b;
        let re = b.alloc(leaf(50, 50));
        assert_eq!(re, ids[4]);

        // Any single flipped byte in a page payload must reject the image.
        let mut torn = image.clone();
        let last = torn.len() - 1;
        torn[last] ^= 0xFF;
        let err = PagedNodes::<u64, u64>::from_image(&torn, 3, 64, 64).unwrap_err();
        assert!(err.to_string().contains("checksum"), "got: {err}");
        // Truncation at any point must reject, not partially apply.
        for cut in [3usize, 20, image.len() / 2, image.len() - 2] {
            assert!(
                PagedNodes::<u64, u64>::from_image(&image[..cut], 3, 64, 64).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn memo_revalidates_after_eviction() {
        // The healthy path: hammer one node (arming the memo), evict it,
        // refill its frame with another node, then access the first node
        // again — the memo must miss and the fault must return the right
        // node. Under `inject-pin-bug` this exact shape goes wrong, which
        // the testkit mutation smoke asserts from the outside.
        let mut a = paged(2);
        let ids: Vec<NodeId> = (0..8u64).map(|i| a.alloc(leaf(i, i))).collect();
        for round in 0..8 {
            a.begin_op();
            let hot = ids[round % ids.len()];
            for _ in 0..3 {
                assert_eq!(a.get(hot).as_leaf().keys[0], (round % ids.len()) as u64);
            }
        }
    }
}
