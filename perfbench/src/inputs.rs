//! Workload inputs, generated from the seed before any timed region.
//!
//! Every key stream comes from `bods`; lookups, ranges and the mixed
//! operation stream come from a seeded `StdRng`. The program under test
//! only ever sees these vectors.

use bods::BodsSpec;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::BTreeMap;

/// Entries per `insert_batch` run and requests per pipelined burst: the
/// run length the service router hands a shard.
pub const RUN: usize = 256;
/// Keys a short range returns.
pub const RANGE_KEYS: usize = 32;
/// BoDS disorder of every near-sorted stream: K = 5% of entries out of
/// place, displaced by up to L = 100% of the stream.
pub const BODS_K: f64 = 0.05;
pub const BODS_L: f64 = 1.0;

fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A near-sorted ingest of the distinct keys `d * spacing` for `d < n`,
/// followed by uniform point gets and short ranges over them. The value
/// stored with a key is its arrival position.
pub struct Ingest {
    pub spacing: u64,
    /// Keys in arrival order.
    pub keys: Vec<u64>,
    /// `pos[d]`: arrival position of key `d * spacing`.
    pub pos: Vec<u32>,
    /// Dense indices to look up, uniform over `0..n`.
    pub gets: Vec<u32>,
    /// Dense start index of each range; a range covers `RANGE_KEYS` keys.
    pub ranges: Vec<u32>,
}

impl Ingest {
    pub fn bods(n: usize, gets: usize, ranges: usize, spacing: u64, seed: u64) -> Ingest {
        assert!(
            n > RANGE_KEYS && n < u32::MAX as usize,
            "ingest size {n} out of range"
        );
        let keys = BodsSpec::new(n, BODS_K, BODS_L)
            .with_seed(seed)
            .generate_from_base(&mut (0..n as u64).map(|d| d * spacing));
        let mut pos = vec![0u32; n];
        for (i, &k) in keys.iter().enumerate() {
            pos[(k / spacing) as usize] = i as u32;
        }
        let mut r = rng(seed, 1);
        let gets = (0..gets).map(|_| r.gen_range(0..n as u32)).collect();
        let last_start = (n - RANGE_KEYS) as u32;
        let ranges = (0..ranges).map(|_| r.gen_range(0..=last_start)).collect();
        Ingest {
            spacing,
            keys,
            pos,
            gets,
            ranges,
        }
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn key(&self, d: u32) -> u64 {
        d as u64 * self.spacing
    }

    pub fn value(&self, d: u32) -> u64 {
        self.pos[d as usize] as u64
    }

    /// Inclusive key bounds of the range starting at dense index `d`.
    pub fn range_bounds(&self, d: u32) -> (u64, u64) {
        (self.key(d), self.key(d + RANGE_KEYS as u32 - 1))
    }

    /// Whether `got` is exactly the range starting at dense index `d`.
    pub fn range_matches(&self, d: u32, got: &[(u64, u64)]) -> bool {
        got.len() == RANGE_KEYS
            && got
                .iter()
                .zip(d..)
                .all(|(&(k, v), e)| k == self.key(e) && v == self.value(e))
    }

    /// `(key, value)` pairs in arrival order.
    pub fn entries(&self) -> Vec<(u64, u64)> {
        self.keys.iter().zip(0..).map(|(&k, i)| (k, i)).collect()
    }

    /// Every entry in key order: what a full scan must return.
    pub fn sorted(&self) -> Vec<(u64, u64)> {
        (0..self.len() as u32)
            .map(|d| (self.key(d), self.value(d)))
            .collect()
    }
}

/// One operation of the mixed stream, with the answer it must get.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Get of a live key; must return `value`.
    Get { key: u64, value: u64 },
    /// Insert of a key not live at that point.
    Insert { key: u64, value: u64 },
    /// Delete of a live key; must return its `value`.
    Delete { key: u64, value: u64 },
    /// Inclusive range; must return `expected[first..first + len]`.
    Range {
        start: u64,
        end: u64,
        first: u32,
        len: u32,
    },
}

/// A near-sorted preload followed by a mixed stream of ~50% gets of live
/// keys, ~35% inserts of new uniformly random keys, ~10% deletes of live
/// keys and ~5% short ranges.
pub struct Mixed {
    /// Preload in arrival order (BoDS keys spread over `u64`).
    pub preload: Vec<(u64, u64)>,
    pub ops: Vec<Op>,
    /// Concatenated expected range results.
    pub expected: Vec<(u64, u64)>,
    /// Live entries in key order after the whole stream.
    pub final_state: Vec<(u64, u64)>,
}

impl Mixed {
    pub fn generate(preload: usize, ops: usize, seed: u64) -> Mixed {
        let spacing = u64::MAX / (preload as u64 + 1);
        let keys = BodsSpec::new(preload, BODS_K, BODS_L)
            .with_seed(seed)
            .generate_from_base(&mut (1..=preload as u64).map(|d| d * spacing));
        let preload: Vec<(u64, u64)> = keys.into_iter().zip(0..).collect();
        // The model: ordered contents plus a dense list of live keys for
        // uniform choice.
        let mut model: BTreeMap<u64, u64> = preload.iter().copied().collect();
        let mut live: Vec<u64> = preload.iter().map(|e| e.0).collect();
        let mut r = rng(seed, 2);
        let mut next_value = preload.len() as u64;
        let mut out = Vec::with_capacity(ops);
        let mut expected = Vec::new();
        for _ in 0..ops {
            let dice = r.gen_range(0..100u32);
            let op = if dice < 50 {
                let key = live[r.gen_range(0..live.len())];
                Op::Get {
                    key,
                    value: model[&key],
                }
            } else if dice < 85 || live.len() <= RANGE_KEYS {
                let key = loop {
                    let k = r.next_u64();
                    if k != u64::MAX && !model.contains_key(&k) {
                        break k;
                    }
                };
                let value = next_value;
                next_value += 1;
                model.insert(key, value);
                live.push(key);
                Op::Insert { key, value }
            } else if dice < 95 {
                let key = live.swap_remove(r.gen_range(0..live.len()));
                Op::Delete {
                    key,
                    value: model.remove(&key).expect("live key is in the model"),
                }
            } else {
                let start = live[r.gen_range(0..live.len())];
                let span = (u64::MAX / live.len() as u64).saturating_mul(RANGE_KEYS as u64);
                let end = start.saturating_add(span);
                let first = expected.len() as u32;
                expected.extend(model.range(start..=end).map(|(&k, &v)| (k, v)));
                Op::Range {
                    start,
                    end,
                    first,
                    len: expected.len() as u32 - first,
                }
            };
            out.push(op);
        }
        Mixed {
            preload,
            ops: out,
            expected,
            final_state: model.into_iter().collect(),
        }
    }

    /// The inserts of the mixed stream, in arrival order.
    pub fn inserts(&self) -> Vec<(u64, u64)> {
        self.ops
            .iter()
            .filter_map(|op| match *op {
                Op::Insert { key, value } => Some((key, value)),
                _ => None,
            })
            .collect()
    }
}

/// Inputs for the per-layer ledger: an insert stream with distinct keys,
/// then uniform gets and short ranges over what it inserted.
pub struct LedgerInput {
    /// Arrival order.
    pub entries: Vec<(u64, u64)>,
    /// `entries` in key order.
    pub sorted: Vec<(u64, u64)>,
    /// Indices into `sorted` to look up.
    pub gets: Vec<usize>,
    /// Start indices into `sorted`; a range covers `RANGE_KEYS` entries.
    pub ranges: Vec<usize>,
}

impl LedgerInput {
    pub fn new(entries: Vec<(u64, u64)>, gets: usize, ranges: usize, seed: u64) -> LedgerInput {
        let mut sorted = entries.clone();
        sorted.sort_unstable();
        assert!(sorted.len() > RANGE_KEYS, "ledger input too small");
        assert!(
            sorted.windows(2).all(|w| w[0].0 < w[1].0),
            "ledger keys must be distinct"
        );
        let mut r = rng(seed, 3);
        let n = sorted.len();
        LedgerInput {
            gets: (0..gets).map(|_| r.gen_range(0..n)).collect(),
            ranges: (0..ranges)
                .map(|_| r.gen_range(0..=n - RANGE_KEYS))
                .collect(),
            entries,
            sorted,
        }
    }

    pub fn range_bounds(&self, i: usize) -> (u64, u64) {
        (self.sorted[i].0, self.sorted[i + RANGE_KEYS - 1].0)
    }

    pub fn range_matches(&self, i: usize, got: &[(u64, u64)]) -> bool {
        got == &self.sorted[i..i + RANGE_KEYS]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_positions_invert_the_stream() {
        let inp = Ingest::bods(10_000, 100, 10, 7, 42);
        for (i, &k) in inp.keys.iter().enumerate() {
            assert_eq!(inp.value((k / 7) as u32), i as u64);
        }
        let sorted = inp.sorted();
        assert!(sorted.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(sorted.len(), 10_000);
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = Mixed::generate(2_000, 2_000, 9);
        let b = Mixed::generate(2_000, 2_000, 9);
        assert_eq!(a.preload, b.preload);
        assert_eq!(a.final_state, b.final_state);
        assert_eq!(a.expected, b.expected);
        let c = Mixed::generate(2_000, 2_000, 10);
        assert_ne!(a.final_state, c.final_state);
    }

    #[test]
    fn mixed_model_final_state_replays() {
        let m = Mixed::generate(1_000, 5_000, 3);
        let mut state: BTreeMap<u64, u64> = m.preload.iter().copied().collect();
        for op in &m.ops {
            match *op {
                Op::Get { key, value } => assert_eq!(state.get(&key), Some(&value)),
                Op::Insert { key, value } => assert!(state.insert(key, value).is_none()),
                Op::Delete { key, value } => assert_eq!(state.remove(&key), Some(value)),
                Op::Range {
                    start,
                    end,
                    first,
                    len,
                } => {
                    let got: Vec<(u64, u64)> =
                        state.range(start..=end).map(|(&k, &v)| (k, v)).collect();
                    assert_eq!(got, m.expected[first as usize..(first + len) as usize]);
                }
            }
        }
        assert_eq!(state.into_iter().collect::<Vec<_>>(), m.final_state);
    }
}
