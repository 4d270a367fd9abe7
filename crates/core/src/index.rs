//! Compiled cohort index — Eq. 10 matching as a precomputed hash lookup.
//!
//! At serving time the cohort pool is immutable, so the per-feature pattern
//! tables can be compiled once into a read-only index that is cheap to share
//! across request threads (`Arc<CohortIndex>`): each feature keeps its mask
//! `ψ_i` and an FNV-hashed `pattern key → cohort bit` map, and produces the
//! Eq. 10 membership bitmap of a patient as packed `u64` words. The result
//! is defined to be *identical* to [`CohortPool::bitmap`] on every input —
//! there is a dedicated agreement test against both the pool path and a
//! pattern-literal linear scan (see `tests/index_agreement.rs`).

use crate::cdm::{decode_key, pattern_key};
use crate::crlm::CohortPool;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// FNV-1a 64-bit hasher — tiny, dependency-free, and much cheaper than the
/// default SipHash for the 8-byte pattern keys hashed on the scoring hot
/// path. Not DoS-resistant, which is fine: keys come from the model's own
/// state assignment, not from attacker-controlled input.
#[derive(Default)]
pub struct Fnv1a64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Hasher for Fnv1a64 {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.state == 0 {
            FNV_OFFSET
        } else {
            self.state
        };
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.state = h;
    }
}

/// `BuildHasher` for [`Fnv1a64`].
pub type BuildFnv = BuildHasherDefault<Fnv1a64>;

/// One feature's compiled pattern table.
#[derive(Debug, Clone)]
struct FeatureIndex {
    /// Pattern mask `ψ_i` (sorted feature indices).
    mask: Vec<usize>,
    /// Number of cohorts for this feature (bitmap width in bits).
    n_cohorts: usize,
    /// Pattern key → cohort bit position.
    map: HashMap<u64, u32, BuildFnv>,
}

/// Process-unique id source for compiled indexes; id 0 is reserved for "no
/// index seen yet" in [`IndexCache`].
static NEXT_INDEX_ID: AtomicU64 = AtomicU64::new(1);

/// Read-only compiled form of a [`CohortPool`]'s matching tables.
#[derive(Debug, Clone)]
pub struct CohortIndex {
    features: Vec<FeatureIndex>,
    /// Unique per [`CohortIndex::compile`] call (clones share it — they are
    /// content-identical, so cache reuse across a clone stays exact). Lets
    /// [`IndexCache`] detect being probed with a *different* index and fall
    /// back to a full probe instead of returning the other index's bitmaps.
    id: u64,
}

impl CohortIndex {
    /// Compiles the matching tables of `pool`.
    ///
    /// # Panics
    /// Panics if a cohort's stored `pattern` disagrees with its `key` under
    /// the feature's mask — a corrupt pool must fail loudly at compile time,
    /// not silently mismatch at serving time.
    pub fn compile(pool: &CohortPool) -> CohortIndex {
        let mut features = Vec::with_capacity(pool.masks.len());
        for (i, cohorts) in pool.per_feature.iter().enumerate() {
            let mask = pool.masks[i].clone();
            let mut map: HashMap<u64, u32, BuildFnv> =
                HashMap::with_capacity_and_hasher(cohorts.len(), BuildFnv::default());
            for (q, c) in cohorts.iter().enumerate() {
                assert_eq!(
                    decode_key(c.key, &mask),
                    c.pattern,
                    "cohort pool corrupt: feature {i} cohort {q} pattern does not \
                     match its key under mask {mask:?}"
                );
                let prev = map.insert(c.key, q as u32);
                assert!(
                    prev.is_none(),
                    "cohort pool corrupt: feature {i} has duplicate pattern key {}",
                    c.key
                );
            }
            features.push(FeatureIndex {
                mask,
                n_cohorts: cohorts.len(),
                map,
            });
        }
        CohortIndex {
            features,
            id: NEXT_INDEX_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Number of anchor features the index covers.
    pub fn n_features(&self) -> usize {
        self.features.len()
    }

    /// Number of cohorts (bitmap width in bits) for `feature`.
    pub fn n_cohorts(&self, feature: usize) -> usize {
        self.features[feature].n_cohorts
    }

    /// Number of `u64` words needed to hold `n_bits` bitmap bits.
    pub fn words_for(n_bits: usize) -> usize {
        n_bits.div_ceil(64)
    }

    /// Pattern mask `ψ_i` of anchor `feature` (sorted feature indices).
    /// The incremental probe cache uses this to decide which anchors a
    /// state-grid column change can possibly affect.
    pub fn mask(&self, feature: usize) -> &[usize] {
        &self.features[feature].mask
    }

    /// Packed Eq. 10 bitmap of one patient for one anchor feature: bit `q`
    /// (word `q / 64`, bit `q % 64`) is set iff the patient's states match
    /// cohort `q`'s pattern at some time step. `states` is the patient's
    /// `(T x F)` state grid, row-major by time — the same convention as
    /// [`CohortPool::bitmap`].
    pub fn bitmap_words(
        &self,
        feature: usize,
        states: &[u8],
        t_steps: usize,
        nf: usize,
    ) -> Vec<u64> {
        let fx = &self.features[feature];
        let mut words = vec![0u64; Self::words_for(fx.n_cohorts)];
        if fx.n_cohorts == 0 {
            return words;
        }
        let mut remaining = fx.n_cohorts;
        for t in 0..t_steps {
            let row = &states[t * nf..(t + 1) * nf];
            let key = pattern_key(row, &fx.mask);
            if let Some(&q) = fx.map.get(&key) {
                let (w, b) = (q as usize / 64, q as usize % 64);
                if words[w] & (1u64 << b) == 0 {
                    words[w] |= 1u64 << b;
                    remaining -= 1;
                    if remaining == 0 {
                        break; // every cohort already matched
                    }
                }
            }
        }
        words
    }

    /// Unpacked bitmap, bit-for-bit comparable with [`CohortPool::bitmap`].
    pub fn bitmap(&self, feature: usize, states: &[u8], t_steps: usize, nf: usize) -> Vec<bool> {
        let words = self.bitmap_words(feature, states, t_steps, nf);
        (0..self.features[feature].n_cohorts)
            .map(|q| words[q / 64] & (1u64 << (q % 64)) != 0)
            .collect()
    }
}

/// Packs an unpacked bitmap (e.g. [`CohortPool::bitmap`]) into the word
/// layout of [`CohortIndex::bitmap_words`]: bit `q` is word `q / 64`, bit
/// `q % 64`.
pub(crate) fn pack_bits(bits: &[bool]) -> Vec<u64> {
    let mut words = vec![0u64; CohortIndex::words_for(bits.len())];
    for (q, _) in bits.iter().enumerate().filter(|(_, &b)| b) {
        words[q / 64] |= 1u64 << (q % 64);
    }
    words
}

/// Incremental probe cache for scoring the *same patient* repeatedly as
/// their state grid evolves (the streaming-ingestion path).
///
/// An anchor feature `i` reads the grid only through the columns in its
/// mask `ψ_i`, so when a re-score changes the state assignments of a few
/// feature columns, every anchor whose mask is disjoint from the changed
/// set must produce the exact bitmap it produced last time — the cache
/// returns the stored words instead of re-walking the grid. Bitmaps are
/// exact `u64` words, so reuse is bit-identical by construction; debug
/// builds additionally recompute every reused bitmap with the full linear
/// scan and assert agreement (the differential check).
#[derive(Debug, Clone, Default)]
pub struct IndexCache {
    /// Id of the [`CohortIndex`] the cached words came from (0 = none).
    /// A probe against a different index is treated as the first probe, so
    /// the cache can never serve one index's bitmaps for another.
    index_id: u64,
    /// The `(T x F)` state grid of the previous probe (empty = no probe yet).
    prev_grid: Vec<u8>,
    /// Per-anchor bitmap words from the previous probe.
    words: Vec<Vec<u64>>,
    /// Scratch: which feature columns changed since the previous grid.
    changed: Vec<bool>,
    /// Anchors probed with the full grid walk (first probe or mask hit).
    pub full_probes: u64,
    /// Anchors answered from the cache without touching the grid.
    pub reused_probes: u64,
}

impl IndexCache {
    /// An empty cache; the first probe walks every anchor.
    pub fn new() -> IndexCache {
        IndexCache::default()
    }

    /// Probes every anchor feature of `index` against `grid`, reusing the
    /// previous bitmap for anchors whose mask saw no column change.
    /// Returns one packed bitmap per anchor, identical to calling
    /// [`CohortIndex::bitmap_words`] for each. Probing with a different
    /// index than last time (by compile identity) is a full fresh probe —
    /// one index's bitmaps are never served for another.
    pub fn probe(
        &mut self,
        index: &CohortIndex,
        grid: &[u8],
        t_steps: usize,
        nf: usize,
    ) -> &[Vec<u64>] {
        let nf_idx = index.n_features();
        let fresh = self.index_id != index.id
            || self.prev_grid.len() != grid.len()
            || self.words.len() != nf_idx;
        self.changed.clear();
        self.changed.resize(nf, fresh);
        if !fresh {
            for f in 0..nf {
                for t in 0..t_steps {
                    if self.prev_grid[t * nf + f] != grid[t * nf + f] {
                        self.changed[f] = true;
                        break;
                    }
                }
            }
        }
        if fresh {
            self.words = vec![Vec::new(); nf_idx];
        }
        for i in 0..nf_idx {
            let reusable = !fresh && index.mask(i).iter().all(|&f| !self.changed[f]);
            if reusable {
                self.reused_probes += 1;
                debug_assert_eq!(
                    self.words[i],
                    index.bitmap_words(i, grid, t_steps, nf),
                    "incremental probe diverged from the linear scan for anchor {i}"
                );
            } else {
                self.words[i] = index.bitmap_words(i, grid, t_steps, nf);
                self.full_probes += 1;
            }
        }
        self.index_id = index.id;
        self.prev_grid.clear();
        self.prev_grid.extend_from_slice(grid);
        &self.words
    }

    /// Forgets the previous grid: the next probe walks every anchor.
    pub fn reset(&mut self) {
        self.index_id = 0;
        self.prev_grid.clear();
        self.words.clear();
        self.full_probes = 0;
        self.reused_probes = 0;
    }
}
