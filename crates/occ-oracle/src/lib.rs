#![warn(missing_docs)]
//! The reference oracle for the deterministic baselines.
//!
//! Young's Landlord framing describes LRU, FIFO and GreedyDual as one
//! rule: evict the cached page with the smallest key. Marking and LRU-K
//! fit the same shape with other keys. [`KeyOracle`] is that rule as a
//! [`ReplacementPolicy`]: on each eviction it scans `ctx.cache` (`O(k)`)
//! and evicts the page with the smallest `(key, page id)`. A policy is a
//! [`KeySpec`]: what a request records about its page, and the key that
//! record gives the page.
//!
//! The fast policies in `occ-baselines` are checked against these
//! oracles eviction for eviction. Since the oracle reads the live cache,
//! pages removed from outside the policy need no hook: they are simply
//! not scanned. Only tests and benchmarks depend on this crate.

use occ_sim::{EngineCtx, PageId, ReplacementPolicy};
use std::cmp::Ordering;

/// One deterministic policy, stated as an eviction key.
pub trait KeySpec: Clone {
    /// The eviction key: the cached page with the smallest
    /// `(key, page id)` is the victim.
    type Key: Ord + Copy;

    /// The policy's name, without the `-oracle` suffix.
    const NAME: &'static str;

    /// `page` was requested: a hit if `hit`, else it was just inserted.
    fn touch(&mut self, ctx: &EngineCtx, page: PageId, hit: bool);

    /// The key of a cached page.
    fn key(&self, page: PageId) -> Self::Key;

    /// Called on every eviction, before any key is read.
    fn before_victim(&mut self, _ctx: &EngineCtx) {}

    /// The victim's key, once it is chosen.
    fn evicted(&mut self, _key: Self::Key) {}
}

/// The one `O(k)`-scan policy: evicts the cached page with the smallest
/// `(spec.key(page), page id)`.
#[derive(Clone, Debug)]
pub struct KeyOracle<S> {
    spec: S,
    /// The spec as constructed, restored by `reset`.
    fresh: S,
}

impl<S: KeySpec> KeyOracle<S> {
    /// An oracle for `spec`; [`ReplacementPolicy::reset`] returns to it.
    pub fn new(spec: S) -> Self {
        KeyOracle {
            fresh: spec.clone(),
            spec,
        }
    }
}

impl<S: KeySpec> ReplacementPolicy for KeyOracle<S> {
    fn name(&self) -> String {
        format!("{}-oracle", S::NAME)
    }

    fn on_hit(&mut self, ctx: &EngineCtx, page: PageId) {
        self.spec.touch(ctx, page, true);
    }

    fn on_insert(&mut self, ctx: &EngineCtx, page: PageId) {
        self.spec.touch(ctx, page, false);
    }

    fn choose_victim(&mut self, ctx: &EngineCtx, _incoming: PageId) -> PageId {
        self.spec.before_victim(ctx);
        let (key, page) = ctx
            .cache
            .iter()
            .map(|p| (self.spec.key(p), p.0))
            .min()
            .expect("cache is full");
        self.spec.evicted(key);
        PageId(page)
    }

    fn reset(&mut self) {
        self.spec = self.fresh.clone();
    }
}

/// `v[page]`, growing `v` with defaults to reach it.
fn slot<T: Clone + Default>(v: &mut Vec<T>, page: PageId) -> &mut T {
    if v.len() <= page.index() {
        v.resize(page.index() + 1, T::default());
    }
    &mut v[page.index()]
}

/// Per-page stamps from one clock that ticks once per stamp.
#[derive(Clone, Debug, Default)]
struct Stamps {
    clock: u64,
    at: Vec<u64>,
}

impl Stamps {
    fn stamp(&mut self, page: PageId) {
        self.clock += 1;
        *slot(&mut self.at, page) = self.clock;
    }

    fn get(&self, page: PageId) -> u64 {
        self.at[page.index()]
    }
}

/// LRU: the key is the last-touch stamp.
#[derive(Clone, Debug, Default)]
pub struct LruSpec(Stamps);

impl KeySpec for LruSpec {
    type Key = u64;
    const NAME: &'static str = "lru";

    fn touch(&mut self, _ctx: &EngineCtx, page: PageId, _hit: bool) {
        self.0.stamp(page);
    }

    fn key(&self, page: PageId) -> u64 {
        self.0.get(page)
    }
}

/// FIFO: the key is the insert stamp; hits do not restamp.
#[derive(Clone, Debug, Default)]
pub struct FifoSpec(Stamps);

impl KeySpec for FifoSpec {
    type Key = u64;
    const NAME: &'static str = "fifo";

    fn touch(&mut self, _ctx: &EngineCtx, page: PageId, hit: bool) {
        if !hit {
            self.0.stamp(page);
        }
    }

    fn key(&self, page: PageId) -> u64 {
        self.0.get(page)
    }
}

/// Marking: the key is `(marked, last-touch stamp)`, and when every
/// cached page is marked a new phase clears the marks.
#[derive(Clone, Debug, Default)]
pub struct MarkingSpec {
    stamps: Stamps,
    marked: Vec<bool>,
}

impl KeySpec for MarkingSpec {
    type Key = (bool, u64);
    const NAME: &'static str = "marking";

    fn touch(&mut self, _ctx: &EngineCtx, page: PageId, _hit: bool) {
        self.stamps.stamp(page);
        *slot(&mut self.marked, page) = true;
    }

    fn key(&self, page: PageId) -> (bool, u64) {
        (self.marked[page.index()], self.stamps.get(page))
    }

    fn before_victim(&mut self, ctx: &EngineCtx) {
        if ctx.cache.iter().all(|p| self.marked[p.index()]) {
            self.marked.fill(false);
        }
    }
}

/// LRU-K: the key is `(K-th most recent touch, last touch)`, where a
/// page touched fewer than K times has K-th touch 0 (infinitely old).
#[derive(Clone, Debug)]
pub struct LruKSpec {
    k: usize,
    clock: u64,
    touches: Vec<Vec<u64>>,
}

impl KeySpec for LruKSpec {
    type Key = (u64, u64);
    const NAME: &'static str = "lru-k";

    fn touch(&mut self, _ctx: &EngineCtx, page: PageId, _hit: bool) {
        self.clock += 1;
        slot(&mut self.touches, page).push(self.clock);
    }

    fn key(&self, page: PageId) -> (u64, u64) {
        let t = &self.touches[page.index()];
        let kth = if t.len() >= self.k {
            t[t.len() - self.k]
        } else {
            0
        };
        (kth, t[t.len() - 1])
    }
}

/// An `f64` ordered by [`f64::total_cmp`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TotalF64(pub f64);

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// GreedyDual/Landlord: the key is `(w_owner + offset at the last
/// touch, last-touch stamp)`, and an eviction raises the offset to the
/// victim's key (every cached page is charged the victim's credit).
#[derive(Clone, Debug)]
pub struct GreedyDualSpec {
    weights: Vec<f64>,
    offset: f64,
    credit: Vec<f64>,
    stamps: Stamps,
}

impl KeySpec for GreedyDualSpec {
    type Key = (TotalF64, u64);
    const NAME: &'static str = "greedy-dual";

    fn touch(&mut self, ctx: &EngineCtx, page: PageId, _hit: bool) {
        let w = self.weights[ctx.universe.owner(page).index()];
        *slot(&mut self.credit, page) = w + self.offset;
        self.stamps.stamp(page);
    }

    fn key(&self, page: PageId) -> (TotalF64, u64) {
        (TotalF64(self.credit[page.index()]), self.stamps.get(page))
    }

    fn evicted(&mut self, key: (TotalF64, u64)) {
        self.offset = key.0 .0;
    }
}

/// The LRU oracle.
pub fn lru() -> KeyOracle<LruSpec> {
    KeyOracle::new(LruSpec::default())
}

/// The FIFO oracle.
pub fn fifo() -> KeyOracle<FifoSpec> {
    KeyOracle::new(FifoSpec::default())
}

/// The deterministic-marking oracle.
pub fn marking() -> KeyOracle<MarkingSpec> {
    KeyOracle::new(MarkingSpec::default())
}

/// The LRU-K oracle, history depth `k ≥ 1`.
pub fn lru_k(k: usize) -> KeyOracle<LruKSpec> {
    assert!(k >= 1, "K must be at least 1");
    KeyOracle::new(LruKSpec {
        k,
        clock: 0,
        touches: Vec::new(),
    })
}

/// The GreedyDual oracle with one weight per user.
pub fn greedy_dual(weights: Vec<f64>) -> KeyOracle<GreedyDualSpec> {
    KeyOracle::new(GreedyDualSpec {
        weights,
        offset: 0.0,
        credit: Vec::new(),
        stamps: Stamps::default(),
    })
}
