//! Intra-node search policy and leaf slot movement — the one home for
//! every partition-point and slot-insertion decision in the workspace.
//!
//! [`SearchKind`] selects *how* a sorted key array is searched: `Binary`
//! (libcore `partition_point`, the bit-for-bit paper-reproduction
//! baseline), `Branchless` (fixed-shape branch-free binary search), or
//! `Simd` (runtime-detected SSE2/AVX2 compare+popcount over a narrowed
//! window, falling back to `Branchless` for unsupported key types or
//! architectures). Every kind computes the **same unique partition
//! point**, so tree shape and figure outputs are identical across kinds
//! — only the nanoseconds differ. Leaves are dense: packed, sorted
//! parallel key/value arrays, the paper's layout.
//!
//! # The duplicate-run boundary contract
//!
//! Three key-comparison conventions exist in this codebase and they are
//! easy to mix up, so the API hard-codes them (pinned by unit tests
//! below):
//!
//! 1. **Inserts** use the *upper bound* — [`upper_bound`], the partition
//!    point of `k <= key` — so a new duplicate lands **after** every
//!    existing instance of its key (stable insertion order).
//! 2. **Lookups** use the *lower bound* — [`lower_bound`], the partition
//!    point of `k < key` — the **first** instance of a duplicate run.
//! 3. **Internal routing** is right-biased — [`search_internal`] is the
//!    upper bound over separators — so a key equal to a separator routes
//!    **right**, matching the strict-boundary split rule (a separator is
//!    the first key of the right node; splits never cut a duplicate run
//!    in the concurrent tree, and the core tree's lookups compensate by
//!    back-walking the leaf chain).

use crate::key::Key;

/// How sorted key arrays are searched inside a node.
///
/// All kinds return the same (unique) partition point; selecting one is
/// purely a performance decision. `Binary` is the default and the
/// bit-for-bit paper-reproduction path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SearchKind {
    /// Libcore `slice::partition_point` (branching binary search).
    #[default]
    Binary,
    /// Branch-free binary search with a data-independent access shape.
    Branchless,
    /// Branchless narrowing plus an SSE2/AVX2 compare+popcount over the
    /// final window. Runtime-detected; unsupported key types or
    /// architectures (and `QUIT_FORCE_SCALAR=1`) fall back to
    /// [`SearchKind::Branchless`].
    Simd,
}

// ---------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------

/// Branch-free partition point over `0..n` of a monotone predicate,
/// expressed on indices so callers that cannot form a slice (the OLC
/// raw-read path, which must load each probed key atomically) share the
/// exact algorithm with the safe slice flavour.
///
/// The shape is the classical "base += half if predicate" ladder: the
/// probe sequence depends only on `n`, and the conditional advance
/// compiles to a conditional move rather than a branch.
#[inline]
pub fn branchless_partition_point_by(n: usize, mut pred: impl FnMut(usize) -> bool) -> usize {
    let mut base = 0usize;
    let mut len = n;
    while len > 1 {
        let half = len / 2;
        base += usize::from(pred(base + half - 1)) * half;
        len -= half;
    }
    // Final single-element step. The mutation smoke check (feature
    // `inject-search-bug`) drops it, misplacing keys by one slot — the
    // differential harness must catch and shrink that.
    #[cfg(not(feature = "inject-search-bug"))]
    {
        base + usize::from(len == 1 && pred(base))
    }
    #[cfg(feature = "inject-search-bug")]
    {
        base
    }
}

/// Branch-free partition point over a sorted slice.
#[inline]
pub fn branchless_partition_point<K>(s: &[K], mut pred: impl FnMut(&K) -> bool) -> usize {
    branchless_partition_point_by(s.len(), |i| pred(&s[i]))
}

/// First index whose key is **greater than** `key` — the insert
/// convention (a duplicate lands after every existing instance).
#[inline]
pub fn upper_bound<K: Key>(kind: SearchKind, keys: &[K], key: K) -> usize {
    match kind {
        SearchKind::Binary => keys.partition_point(|k| *k <= key),
        SearchKind::Branchless => branchless_partition_point(keys, |k| *k <= key),
        SearchKind::Simd => K::simd_upper_bound(keys, key)
            .unwrap_or_else(|| branchless_partition_point(keys, |k| *k <= key)),
    }
}

/// First index whose key is **at or above** `key` — the lookup
/// convention (the first instance of a duplicate run).
#[inline]
pub fn lower_bound<K: Key>(kind: SearchKind, keys: &[K], key: K) -> usize {
    match kind {
        SearchKind::Binary => keys.partition_point(|k| *k < key),
        SearchKind::Branchless => branchless_partition_point(keys, |k| *k < key),
        SearchKind::Simd => K::simd_lower_bound(keys, key)
            .unwrap_or_else(|| branchless_partition_point(keys, |k| *k < key)),
    }
}

/// Child index for routing `key` through an internal node: right-biased
/// (`key == separator` descends right), matching the strict-boundary
/// split rule. Identical to [`upper_bound`]; named separately so call
/// sites say what they mean.
#[inline]
pub fn search_internal<K: Key>(kind: SearchKind, separators: &[K], key: K) -> usize {
    upper_bound(kind, separators, key)
}

/// Leaf slot where a lookup for `key` starts: the [`lower_bound`].
#[inline]
pub fn search_leaf<K: Key>(kind: SearchKind, keys: &[K], key: K) -> usize {
    lower_bound(kind, keys, key)
}

// ---------------------------------------------------------------------
// SIMD kernels (x86_64; every entry point degrades to None elsewhere)
// ---------------------------------------------------------------------

/// Force-disable switch for the SIMD kernels, read once per process:
/// `QUIT_FORCE_SCALAR=1` makes every `simd_*` hook return `None`, so
/// [`SearchKind::Simd`] exercises the portable branchless fallback — the
/// cross-arch CI guard runs the whole test suite this way.
pub fn simd_force_disabled() -> bool {
    static FORCE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FORCE.get_or_init(|| {
        std::env::var("QUIT_FORCE_SCALAR").is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
    })
}

/// Width of the window the branchless ladder narrows to before handing
/// over to a vector compare+popcount sweep.
#[cfg(target_arch = "x86_64")]
const SIMD_WINDOW: usize = 32;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) mod simd {
    //! Vector count kernels. Each computes, over a **sorted** window, the
    //! number of elements satisfying `elem <= key` (upper bound) or
    //! `elem < key` (lower bound) — which over a sorted slice *is* the
    //! partition point. Unsigned orderings ride the signed compare
    //! instructions via the usual sign-bias XOR. Loads are explicitly
    //! unaligned (`loadu`): `Vec` buffers give no 32-byte guarantee, and
    //! the pinned-buffer invariant of the concurrent tree rules out
    //! re-homing them into aligned allocations.
    #[cfg(test)]
    use super::branchless_partition_point_by;
    use super::SIMD_WINDOW;
    use core::arch::x86_64::*;

    #[inline]
    fn avx2() -> bool {
        // `is_x86_feature_detected!` caches after the first probe.
        !super::simd_force_disabled() && is_x86_feature_detected!("avx2")
    }

    #[inline]
    fn sse2() -> bool {
        // SSE2 is baseline on x86_64; only the force switch disables it.
        !super::simd_force_disabled()
    }

    /// Binary narrowing down to a `SIMD_WINDOW`-sized window, then the
    /// vector counter over that window.
    ///
    /// The narrowing deliberately *branches* instead of using a cmov
    /// ladder: a cmov chain serializes every probe behind the previous
    /// load, while a predicted branch lets the core speculate the next
    /// probe and overlap cache misses. The window count then replaces
    /// the worst-predicted final levels with branch-free vector work —
    /// each side plays to its strength. Expanded inside the per-type
    /// `target_feature` hybrids below so the window kernel inlines into
    /// the narrowing loop (a `target_feature` fn never inlines into a
    /// plain caller, and a per-search call would cost more than the
    /// vector work saves).
    macro_rules! hybrid_body {
        ($keys:expr, $key:expr, $strict:expr, $count:ident) => {{
            let mut base = 0usize;
            let mut len = $keys.len();
            while len > SIMD_WINDOW {
                let half = len / 2;
                let probe = $keys[base + half - 1];
                let go = if $strict { probe < $key } else { probe <= $key };
                if go {
                    base += half;
                }
                len -= half;
            }
            base + $count(&$keys[base..base + len], $key, $strict)
        }};
    }

    macro_rules! kernels_32 {
        ($ty:ty, $bias:expr, $avx:ident, $sse:ident) => {
            /// AVX2: 8 lanes of 32-bit compare, mask via `movemask_ps`.
            #[target_feature(enable = "avx2")]
            unsafe fn $avx(window: &[$ty], key: $ty, strict: bool) -> usize {
                let bias = _mm256_set1_epi32($bias);
                // `elem <= key` counts non-(elem > key); `elem < key`
                // counts (key > elem).
                let kv = _mm256_xor_si256(_mm256_set1_epi32(key as i32), bias);
                let mut n = 0usize;
                let mut chunks = window.chunks_exact(8);
                for c in &mut chunks {
                    let v =
                        _mm256_xor_si256(_mm256_loadu_si256(c.as_ptr() as *const __m256i), bias);
                    let m = if strict {
                        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(kv, v))) as u32
                    } else {
                        !(_mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(v, kv))) as u32)
                            & 0xff
                    };
                    n += m.count_ones() as usize;
                }
                n + scalar_count(chunks.remainder(), key, strict)
            }

            /// SSE2: 4 lanes of 32-bit compare.
            #[target_feature(enable = "sse2")]
            unsafe fn $sse(window: &[$ty], key: $ty, strict: bool) -> usize {
                let bias = _mm_set1_epi32($bias);
                let kv = _mm_xor_si128(_mm_set1_epi32(key as i32), bias);
                let mut n = 0usize;
                let mut chunks = window.chunks_exact(4);
                for c in &mut chunks {
                    let v = _mm_xor_si128(_mm_loadu_si128(c.as_ptr() as *const __m128i), bias);
                    let m = if strict {
                        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmplt_epi32(v, kv))) as u32
                    } else {
                        !(_mm_movemask_ps(_mm_castsi128_ps(_mm_cmpgt_epi32(v, kv))) as u32) & 0xf
                    };
                    n += m.count_ones() as usize;
                }
                n + scalar_count(chunks.remainder(), key, strict)
            }
        };
    }

    macro_rules! kernels_64 {
        ($ty:ty, $bias:expr, $avx:ident) => {
            /// AVX2: 4 lanes of 64-bit compare, mask via `movemask_pd`.
            /// (SSE2 has no 64-bit compare; pre-AVX2 parts use the
            /// branchless fallback for 8-byte keys.)
            #[target_feature(enable = "avx2")]
            unsafe fn $avx(window: &[$ty], key: $ty, strict: bool) -> usize {
                let bias = _mm256_set1_epi64x($bias);
                let kv = _mm256_xor_si256(_mm256_set1_epi64x(key as i64), bias);
                let mut n = 0usize;
                let mut chunks = window.chunks_exact(4);
                for c in &mut chunks {
                    let v =
                        _mm256_xor_si256(_mm256_loadu_si256(c.as_ptr() as *const __m256i), bias);
                    let m = if strict {
                        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(kv, v))) as u32
                    } else {
                        !(_mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(v, kv))) as u32)
                            & 0xf
                    };
                    n += m.count_ones() as usize;
                }
                n + scalar_count(chunks.remainder(), key, strict)
            }
        };
    }

    #[inline]
    fn scalar_count<K: Copy + Ord>(rem: &[K], key: K, strict: bool) -> usize {
        rem.iter()
            .filter(|&&e| if strict { e < key } else { e <= key })
            .count()
    }

    kernels_32!(u32, i32::MIN, count_u32_avx2, count_u32_sse2);
    kernels_32!(i32, 0, count_i32_avx2, count_i32_sse2);
    kernels_64!(u64, i64::MIN, count_u64_avx2);
    kernels_64!(i64, 0, count_i64_avx2);

    macro_rules! entry_32 {
        ($name:ident, $ty:ty, $avx:ident, $sse:ident, $havx:ident, $hsse:ident) => {
            #[target_feature(enable = "avx2")]
            unsafe fn $havx(keys: &[$ty], key: $ty, strict: bool) -> usize {
                hybrid_body!(keys, key, strict, $avx)
            }

            #[target_feature(enable = "sse2")]
            unsafe fn $hsse(keys: &[$ty], key: $ty, strict: bool) -> usize {
                hybrid_body!(keys, key, strict, $sse)
            }

            pub(crate) fn $name(keys: &[$ty], key: $ty, strict: bool) -> Option<usize> {
                if avx2() {
                    // SAFETY: gated on runtime AVX2 detection.
                    Some(unsafe { $havx(keys, key, strict) })
                } else if sse2() {
                    // SAFETY: SSE2 is unconditionally present on x86_64.
                    Some(unsafe { $hsse(keys, key, strict) })
                } else {
                    None
                }
            }
        };
    }

    macro_rules! entry_64 {
        ($name:ident, $ty:ty, $avx:ident, $havx:ident) => {
            #[target_feature(enable = "avx2")]
            unsafe fn $havx(keys: &[$ty], key: $ty, strict: bool) -> usize {
                hybrid_body!(keys, key, strict, $avx)
            }

            pub(crate) fn $name(keys: &[$ty], key: $ty, strict: bool) -> Option<usize> {
                if avx2() {
                    // SAFETY: gated on runtime AVX2 detection.
                    Some(unsafe { $havx(keys, key, strict) })
                } else {
                    None
                }
            }
        };
    }

    entry_32!(
        partition_u32,
        u32,
        count_u32_avx2,
        count_u32_sse2,
        hybrid_u32_avx2,
        hybrid_u32_sse2
    );
    entry_32!(
        partition_i32,
        i32,
        count_i32_avx2,
        count_i32_sse2,
        hybrid_i32_avx2,
        hybrid_i32_sse2
    );
    entry_64!(partition_u64, u64, count_u64_avx2, hybrid_u64_avx2);
    entry_64!(partition_i64, i64, count_i64_avx2, hybrid_i64_avx2);

    /// Exhaustive-ish agreement check used by tests: every kernel entry
    /// must match the branchless reference on the given slice.
    #[cfg(test)]
    pub(crate) fn reference<K: Copy + Ord>(keys: &[K], key: K, strict: bool) -> usize {
        branchless_partition_point_by(keys.len(), |i| {
            if strict {
                keys[i] < key
            } else {
                keys[i] <= key
            }
        })
    }
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) mod simd {
    //! Non-x86_64 stub: every kernel declines, so [`super::SearchKind::Simd`]
    //! always takes the portable branchless fallback.
    pub(crate) fn partition_u32(_: &[u32], _: u32, _: bool) -> Option<usize> {
        None
    }
    pub(crate) fn partition_i32(_: &[i32], _: i32, _: bool) -> Option<usize> {
        None
    }
    pub(crate) fn partition_u64(_: &[u64], _: u64, _: bool) -> Option<usize> {
        None
    }
    pub(crate) fn partition_i64(_: &[i64], _: i64, _: bool) -> Option<usize> {
        None
    }
}

// ---------------------------------------------------------------------
// Slot movement
// ---------------------------------------------------------------------

/// Inserts `(key, value)` into a leaf's parallel arrays at the
/// upper-bound position (after every existing duplicate). The caller
/// guarantees room.
pub fn insert_at<K: Key, V>(
    kind: SearchKind,
    keys: &mut Vec<K>,
    vals: &mut Vec<V>,
    key: K,
    value: V,
) {
    // Append fast path: in-order streams insert at the tail. One key
    // compare replaces the whole intra-node search; the computed position
    // is exactly the upper bound, so tree shape is unchanged.
    if keys.last().is_none_or(|l| *l <= key) {
        keys.push(key);
        vals.push(value);
        return;
    }
    let p = upper_bound(kind, keys, key);
    keys.insert(p, key);
    vals.insert(p, value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_conventions_are_pinned() {
        // The duplicate-run contract from the module docs, in one place.
        let keys = [1u64, 3, 3, 3, 5];
        for kind in [SearchKind::Binary, SearchKind::Branchless, SearchKind::Simd] {
            // Insert lands AFTER the duplicate run.
            assert_eq!(upper_bound(kind, &keys, 3), 4, "{kind:?}");
            // Lookup finds the FIRST instance.
            assert_eq!(lower_bound(kind, &keys, 3), 1, "{kind:?}");
            // Routing on a separator hit goes RIGHT.
            assert_eq!(search_internal(kind, &keys, 3), 4, "{kind:?}");
            assert_eq!(search_leaf(kind, &keys, 3), 1, "{kind:?}");
            // Extremes.
            assert_eq!(upper_bound(kind, &keys, 0), 0, "{kind:?}");
            assert_eq!(upper_bound(kind, &keys, 9), 5, "{kind:?}");
            assert_eq!(lower_bound::<u64>(kind, &[], 7), 0, "{kind:?}");
        }
    }

    #[test]
    fn branchless_matches_std_partition_point() {
        let mut keys: Vec<u64> = Vec::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for n in 0..200usize {
            keys.clear();
            let mut k = 0u64;
            for _ in 0..n {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                k += state % 3; // runs of duplicates included
                keys.push(k);
            }
            for probe in 0..=(k + 2) {
                assert_eq!(
                    branchless_partition_point(&keys, |e| *e <= probe),
                    keys.partition_point(|e| *e <= probe),
                    "n={n} probe={probe} (upper)"
                );
                assert_eq!(
                    branchless_partition_point(&keys, |e| *e < probe),
                    keys.partition_point(|e| *e < probe),
                    "n={n} probe={probe} (lower)"
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_kernels_match_reference() {
        let mut state = 0x9e37_79b9_97f4_a7c1u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [0usize, 1, 3, 7, 8, 15, 31, 32, 33, 64, 127, 510] {
            let mut k64: Vec<u64> = (0..n).map(|_| next() % 1000).collect();
            k64.sort_unstable();
            let mut k32: Vec<u32> = k64.iter().map(|&k| k as u32).collect();
            k32.sort_unstable();
            let mut ki32: Vec<i32> = k64.iter().map(|&k| k as i32 - 500).collect();
            ki32.sort_unstable();
            let mut ki64: Vec<i64> = k64.iter().map(|&k| k as i64 - 500).collect();
            ki64.sort_unstable();
            for _ in 0..64 {
                let p = next() % 1100;
                for strict in [false, true] {
                    if let Some(got) = simd::partition_u64(&k64, p, strict) {
                        assert_eq!(got, simd::reference(&k64, p, strict), "u64 n={n} p={p}");
                    }
                    if let Some(got) = simd::partition_u32(&k32, p as u32, strict) {
                        assert_eq!(
                            got,
                            simd::reference(&k32, p as u32, strict),
                            "u32 n={n} p={p}"
                        );
                    }
                    let pi = p as i32 - 550;
                    if let Some(got) = simd::partition_i32(&ki32, pi, strict) {
                        assert_eq!(got, simd::reference(&ki32, pi, strict), "i32 n={n} p={pi}");
                    }
                    let pl = p as i64 - 550;
                    if let Some(got) = simd::partition_i64(&ki64, pl, strict) {
                        assert_eq!(got, simd::reference(&ki64, pl, strict), "i64 n={n} p={pl}");
                    }
                }
            }
        }
    }

    #[test]
    fn insert_matches_classic_vec_insert() {
        for kind in [SearchKind::Binary, SearchKind::Branchless, SearchKind::Simd] {
            let mut keys: Vec<u64> = vec![];
            let mut vals: Vec<u64> = vec![];
            for (i, k) in [5u64, 1, 9, 5, 3, 9].into_iter().enumerate() {
                insert_at(kind, &mut keys, &mut vals, k, i as u64);
            }
            assert_eq!(keys, vec![1, 3, 5, 5, 9, 9], "{kind:?}");
            // Duplicates keep arrival order: they land after their run.
            assert_eq!(vals, vec![1, 4, 0, 3, 2, 5], "{kind:?}");
        }
    }
}
