//! The process-lifetime pair-integral cache behind batch and service
//! extraction.
//!
//! The paper's instantiable-basis economics (conf_dac_HsiaoD11) make the
//! pair integral the dominant, *reusable* unit of setup work: two
//! structures that share a template pair share the integral exactly.
//! PR 2's batch layer exploited that within one run; this module promotes
//! the cache to a first-class, process-lifetime object so a long-running
//! daemon (`bemcap-serve`) can keep integrals warm across requests:
//!
//! * **bit-identity** — keys are exact bit-level template identities
//!   ([`TemplateKey`]) tagged with the identity of the quadrature that
//!   computes them ([`PairCache`]), so a hit returns the very `f64` a
//!   recomputation would produce, and jobs with different quadrature
//!   configurations never read each other's integrals. Eviction can only
//!   cause recomputation, never a different answer: results are
//!   bit-identical at any bound, including zero.
//! * **bounded memory** — [`TemplateCache::with_max_bytes`] caps the
//!   resident footprint ([`ENTRY_BYTES`] per entry). When a shard fills,
//!   the least-recently-used quarter of its entries (by a global epoch
//!   counter advanced on every lookup) is evicted in one sweep, so the
//!   bound holds after every insert while keeping the hot working set.
//! * **sharded locking** — a fixed 32-way shard array keyed by hash keeps
//!   lock traffic off the hot path; integrals are computed outside any
//!   lock, so two workers may rarely duplicate a computation, which is
//!   wasted work but never a wrong answer.
//!
//! [`crate::batch::BatchExtractor`] uses a private per-run instance by
//! default and accepts a shared one via
//! [`crate::batch::BatchExtractor::shared_cache`]; the daemon constructs
//! one at startup and shares it across every connection.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use bemcap_basis::TemplateKey;
use bemcap_quad::galerkin::GalerkinConfig;

use crate::metrics::metrics;
use crate::report::CacheStats;

/// A cache key: the engine tag of the quadrature that computes the
/// integral ([`PairCache::new`]) and the ordered pair of template
/// identities of one Galerkin pair integral.
pub type PairKey = (u64, TemplateKey, TemplateKey);

/// Approximate resident bytes per cache entry, used to convert the
/// configured memory bound into an entry budget: the `u64` engine tag,
/// two 72-byte [`TemplateKey`]s, the `f64` value, the `u64` epoch, and
/// hash-map slot overhead, rounded up.
pub const ENTRY_BYTES: usize = 192;

const SHARDS: usize = 32;

/// The smallest bound [`TemplateCache::with_max_bytes`] actually
/// enforces: one entry per shard (`SHARDS * ENTRY_BYTES`). Budgets below
/// this floor are rounded up to it, so the cache always absorbs repeated
/// lookups; [`TemplateCache::max_bytes`] reports the effective bound.
pub const MIN_MAX_BYTES: usize = SHARDS * ENTRY_BYTES;

/// Fraction of a full shard evicted in one sweep (a quarter): large
/// enough to amortize the O(n) epoch scan, small enough to keep the hot
/// working set resident.
const EVICT_DENOMINATOR: usize = 4;

struct Entry {
    value: f64,
    last_used: u64,
}

/// The outcome of one [`TemplateCache::get_or_compute`] lookup, for
/// per-job accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookup {
    /// Whether the value came from the cache.
    pub hit: bool,
    /// Entries evicted to make room for this insert (0 on hits and on
    /// unbounded caches).
    pub evicted: usize,
}

/// A [`TemplateCache`] seen through one integration engine: every lookup
/// made through it carries the engine tag — a fold of the Galerkin
/// configuration and the accelerated-primitives flag — so an integral
/// computed under one quadrature is never returned to a job that runs
/// another. This is how a backend's system setup reaches the shared
/// cache ([`crate::Backend::prepare`]).
#[derive(Debug, Clone, Copy)]
pub struct PairCache<'a> {
    cache: &'a TemplateCache,
    engine: u64,
}

impl<'a> PairCache<'a> {
    /// Binds `cache` to the engine built from `galerkin` (with the
    /// §4.2.3 tabulated primitives when `accelerated`). The tag is an
    /// FNV-style fold of the engine words: stable across processes, so a
    /// restored snapshot answers the same engine's lookups, and each fold
    /// step is a bijection, so changing any single word always changes
    /// the tag.
    pub fn new(cache: &'a TemplateCache, galerkin: &GalerkinConfig, accelerated: bool) -> Self {
        let engine = std::iter::once(u64::from(accelerated))
            .chain(galerkin.words())
            .fold(0xcbf2_9ce4_8422_2325_u64, |h, w| (h ^ w).wrapping_mul(0x0100_0000_01b3));
        PairCache { cache, engine }
    }

    /// The integral of the template pair `(a, b)` under this engine:
    /// cached, or computed by `f` and inserted. Counts the lookup into
    /// `stats`.
    pub fn get_or_compute(
        &self,
        a: TemplateKey,
        b: TemplateKey,
        stats: &mut CacheStats,
        f: impl FnOnce() -> f64,
    ) -> f64 {
        let (value, lookup) = self.cache.get_or_compute((self.engine, a, b), f);
        if lookup.hit {
            stats.hits += 1;
        } else {
            stats.misses += 1;
            stats.inserted_bytes += ENTRY_BYTES;
        }
        stats.evictions += lookup.evicted;
        value
    }
}

/// A process-lifetime, memory-bounded, sharded map from template-pair
/// keys to raw pair integrals. See the module docs for the invariants.
///
/// ```
/// use bemcap_core::cache::TemplateCache;
///
/// let cache = TemplateCache::with_max_bytes(16 << 20);
/// let key = (0, [1u64; 9].into(), [2u64; 9].into());
/// let (v, first) = cache.get_or_compute(key, || 42.0);
/// let (w, second) = cache.get_or_compute(key, || unreachable!("cached"));
/// assert_eq!((v, w), (42.0, 42.0));
/// assert!(!first.hit && second.hit);
/// ```
pub struct TemplateCache {
    shards: Vec<Mutex<HashMap<PairKey, Entry>>>,
    /// Per-shard entry budget; `None` = unbounded.
    shard_cap: Option<usize>,
    /// Global logical clock: advanced on every lookup, stamped into the
    /// touched entry for LRU ordering.
    epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for TemplateCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TemplateCache")
            .field("entries", &self.len())
            .field("max_bytes", &self.max_bytes())
            .field("lifetime", &self.lifetime())
            .finish()
    }
}

impl TemplateCache {
    /// A cache with no memory bound — every integral ever computed stays
    /// resident. The per-run default of [`crate::batch::BatchExtractor`].
    pub fn unbounded() -> TemplateCache {
        TemplateCache::build(None)
    }

    /// A cache bounded to approximately `max_bytes` resident bytes
    /// ([`ENTRY_BYTES`] per entry). The budget is rounded **down** to a
    /// whole number of entries per shard, but never below one entry per
    /// shard: any `max_bytes` under [`MIN_MAX_BYTES`] (including 0) is
    /// silently raised to that floor so the cache still absorbs repeats.
    /// [`TemplateCache::max_bytes`] reports the bound actually enforced,
    /// which may therefore differ from `max_bytes` in either direction.
    pub fn with_max_bytes(max_bytes: usize) -> TemplateCache {
        TemplateCache::build(Some((max_bytes / ENTRY_BYTES / SHARDS).max(1)))
    }

    fn build(shard_cap: Option<usize>) -> TemplateCache {
        TemplateCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            shard_cap,
            epoch: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The effective memory bound in bytes (`None` = unbounded): the
    /// per-shard entry budget actually enforced, after the rounding and
    /// the [`MIN_MAX_BYTES`] floor of [`TemplateCache::with_max_bytes`].
    pub fn max_bytes(&self) -> Option<usize> {
        self.shard_cap.map(|cap| cap * SHARDS * ENTRY_BYTES)
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("template cache poisoned").len()).sum()
    }

    /// `true` when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes ([`ENTRY_BYTES`] per entry).
    pub fn resident_bytes(&self) -> usize {
        self.len() * ENTRY_BYTES
    }

    /// Lifetime counters: every hit, miss, and eviction since
    /// construction, across all users of the cache.
    pub fn lifetime(&self) -> CacheStats {
        let misses = self.misses.load(Ordering::Relaxed) as usize;
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed) as usize,
            misses,
            evictions: self.evictions.load(Ordering::Relaxed) as usize,
            inserted_bytes: misses * ENTRY_BYTES,
        }
    }

    /// Drops every resident entry (counters keep running).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("template cache poisoned").clear();
        }
    }

    fn shard(&self, key: &PairKey) -> &Mutex<HashMap<PairKey, Entry>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Returns the cached integral for `key`, or computes, stores, and
    /// returns it, evicting least-recently-used entries first when the
    /// shard is at its budget. The computation runs outside the shard
    /// lock.
    pub fn get_or_compute(&self, key: PairKey, f: impl FnOnce() -> f64) -> (f64, Lookup) {
        let now = self.epoch.fetch_add(1, Ordering::Relaxed);
        let shard = self.shard(&key);
        if let Some(entry) = shard.lock().expect("template cache poisoned").get_mut(&key) {
            entry.last_used = now;
            self.hits.fetch_add(1, Ordering::Relaxed);
            metrics().template_cache_hits.inc();
            return (entry.value, Lookup { hit: true, evicted: 0 });
        }
        let value = f();
        self.misses.fetch_add(1, Ordering::Relaxed);
        metrics().template_cache_misses.inc();
        // Re-stamp after the computation: concurrent lookups advanced the
        // epoch while the integral ran, and stamping the stale `now` would
        // make the entry we just paid for look like the oldest in the
        // shard — first in line for eviction instead of freshest.
        let stamp = self.epoch.fetch_add(1, Ordering::Relaxed);
        let mut map = shard.lock().expect("template cache poisoned");
        let mut evicted = 0;
        if let Some(cap) = self.shard_cap {
            // Another worker may have inserted the key while we computed;
            // inserting over it is a no-op for correctness (identical
            // bits), so only the capacity check needs the fresh state.
            if !map.contains_key(&key) && map.len() >= cap {
                evicted = evict_lru(&mut map, cap);
                self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
                metrics().template_cache_evictions.add(evicted as u64);
            }
        }
        map.insert(key, Entry { value, last_used: stamp });
        (value, Lookup { hit: false, evicted })
    }

    /// Writes every resident entry to `w` in the versioned snapshot
    /// format (see [`SNAPSHOT_HEADER`]) and returns how many entries
    /// were written. The format is binary-safe *text*: one header line,
    /// then one line per entry of 20 lowercase-hex `u64` words (the
    /// engine tag, the two 9-word [`TemplateKey`] identities, then the
    /// value's raw `f64` bits), so a restored value is the identical
    /// `f64`, bit for bit, and the file survives any text transport.
    ///
    /// Concurrent lookups during the snapshot are safe (each shard is
    /// locked only while it is copied out); the snapshot is a consistent
    /// view per shard, not across shards — fine for its purpose of
    /// warm-starting a fresh process.
    ///
    /// # Errors
    ///
    /// Any I/O error from `w`.
    pub fn snapshot_to(&self, w: &mut impl Write) -> io::Result<usize> {
        let mut entries: Vec<(PairKey, f64)> = Vec::new();
        for shard in &self.shards {
            let map = shard.lock().expect("template cache poisoned");
            entries.extend(map.iter().map(|(k, e)| (*k, e.value)));
        }
        // Deterministic file contents for identical cache contents:
        // sort by key words, not by shard/hash iteration order.
        entries.sort_by_key(|((engine, a, b), _)| (*engine, a.words(), b.words()));
        writeln!(w, "{} {}", SNAPSHOT_HEADER, entries.len())?;
        for ((engine, a, b), value) in &entries {
            let mut line = String::with_capacity(SNAPSHOT_WORDS * 17);
            for word in std::iter::once(engine).chain(a.words().iter()).chain(b.words().iter()) {
                push_hex(&mut line, *word);
                line.push(' ');
            }
            push_hex(&mut line, value.to_bits());
            writeln!(w, "{line}")?;
        }
        Ok(entries.len())
    }

    /// Restores entries from a snapshot produced by
    /// [`TemplateCache::snapshot_to`] and returns how many were
    /// admitted. Restored entries behave exactly like computed ones (a
    /// later lookup is a hit returning the identical bits) but the
    /// restore itself moves **no** hit/miss counters — warm-start is not
    /// traffic. On a bounded cache, entries beyond a shard's budget are
    /// skipped rather than evicting each other, so the memory bound
    /// holds and the admitted count may be less than the file's.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] for a missing/foreign header, an
    /// unsupported snapshot version, or a malformed entry line; any I/O
    /// error from `r`.
    pub fn restore_from(&self, r: impl BufRead) -> io::Result<usize> {
        let mut lines = r.lines();
        let header = lines.next().ok_or_else(|| bad_snapshot("empty snapshot file"))??;
        let declared = parse_snapshot_header(&header)?;
        let mut restored = 0usize;
        let mut seen = 0usize;
        for line in lines {
            let line = line?;
            if line.is_empty() {
                continue;
            }
            seen += 1;
            let mut words = [0u64; SNAPSHOT_WORDS];
            let mut fields = line.split_ascii_whitespace();
            for (i, slot) in words.iter_mut().enumerate() {
                let field = fields.next().ok_or_else(|| {
                    bad_snapshot(format!("entry {seen}: expected {SNAPSHOT_WORDS} words"))
                })?;
                *slot = u64::from_str_radix(field, 16).map_err(|e| {
                    bad_snapshot(format!("entry {seen} word {i}: not a hex u64: {e}"))
                })?;
            }
            if fields.next().is_some() {
                return Err(bad_snapshot(format!(
                    "entry {seen}: more than {SNAPSHOT_WORDS} words"
                )));
            }
            let mut a = [0u64; 9];
            let mut b = [0u64; 9];
            a.copy_from_slice(&words[1..10]);
            b.copy_from_slice(&words[10..19]);
            let key: PairKey = (words[0], a.into(), b.into());
            let value = f64::from_bits(words[19]);
            let stamp = self.epoch.fetch_add(1, Ordering::Relaxed);
            let mut map = self.shard(&key).lock().expect("template cache poisoned");
            if let Some(cap) = self.shard_cap {
                if !map.contains_key(&key) && map.len() >= cap {
                    continue;
                }
            }
            map.insert(key, Entry { value, last_used: stamp });
            restored += 1;
        }
        if seen != declared {
            return Err(bad_snapshot(format!(
                "snapshot declares {declared} entries but carries {seen} (truncated file?)"
            )));
        }
        Ok(restored)
    }
}

/// Magic-plus-version tag opening every [`TemplateCache::snapshot_to`]
/// file. Bump the version on any change to the entry encoding; restore
/// refuses versions it does not know instead of misreading them. `v2`
/// added the engine tag to every entry.
pub const SNAPSHOT_HEADER: &str = "bemcap-template-cache v2";

/// Words per snapshot entry line: the engine tag, two 9-word template
/// identities, and the value's bits.
const SNAPSHOT_WORDS: usize = 20;

fn push_hex(out: &mut String, word: u64) {
    use std::fmt::Write as _;
    write!(out, "{word:x}").expect("writing to a String is infallible");
}

fn bad_snapshot(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Validates the header line and returns the declared entry count.
fn parse_snapshot_header(header: &str) -> io::Result<usize> {
    let mut fields = header.split_ascii_whitespace();
    let (magic, version) = (fields.next().unwrap_or(""), fields.next().unwrap_or(""));
    if magic != "bemcap-template-cache" {
        return Err(bad_snapshot(format!(
            "not a template-cache snapshot (expected a '{SNAPSHOT_HEADER}' header, got '{header}')"
        )));
    }
    if version != "v2" {
        return Err(bad_snapshot(format!(
            "unsupported template-cache snapshot version '{version}' (this build reads v2)"
        )));
    }
    fields
        .next()
        .and_then(|n| n.parse::<usize>().ok())
        .filter(|_| fields.next().is_none())
        .ok_or_else(|| bad_snapshot(format!("snapshot header lacks an entry count: '{header}'")))
}

/// Removes the least-recently-used quarter of `map` (at least one entry)
/// and returns how many were dropped. `map.len() >= cap >= 1` on entry,
/// so the subsequent insert keeps the shard at or under `cap`.
fn evict_lru(map: &mut HashMap<PairKey, Entry>, cap: usize) -> usize {
    let target = (cap / EVICT_DENOMINATOR).max(1);
    let mut epochs: Vec<u64> = map.values().map(|e| e.last_used).collect();
    epochs.sort_unstable();
    // Evict everything not newer than the target-th oldest stamp. Epoch
    // stamps are unique except for unbounded-cache races (no eviction
    // there), so this drops exactly `target` entries in practice and at
    // most a few more if stamps ever tie.
    let threshold = epochs[target - 1];
    let before = map.len();
    map.retain(|_, e| e.last_used > threshold);
    before - map.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> PairKey {
        (i % 3, [i; 9].into(), [i.wrapping_mul(31); 9].into())
    }

    #[test]
    fn hit_returns_stored_bits_and_counts() {
        let cache = TemplateCache::unbounded();
        let v = 0.1 + 0.2; // a value with a non-trivial bit pattern
        let (a, l1) = cache.get_or_compute(key(1), || v);
        let (b, l2) = cache.get_or_compute(key(1), || unreachable!("must hit"));
        assert_eq!(a.to_bits(), v.to_bits());
        assert_eq!(b.to_bits(), v.to_bits());
        assert!(!l1.hit && l2.hit);
        let stats = cache.lifetime();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
        assert_eq!(stats.inserted_bytes, ENTRY_BYTES);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.resident_bytes(), ENTRY_BYTES);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = TemplateCache::unbounded();
        for i in 0..10_000 {
            cache.get_or_compute(key(i), || i as f64);
        }
        assert_eq!(cache.len(), 10_000);
        assert_eq!(cache.lifetime().evictions, 0);
        assert_eq!(cache.max_bytes(), None);
    }

    #[test]
    fn memory_bound_is_respected_under_pressure() {
        let max = 512 * ENTRY_BYTES;
        let cache = TemplateCache::with_max_bytes(max);
        let bound = cache.max_bytes().expect("bounded");
        assert!(bound <= max);
        for i in 0..5_000 {
            cache.get_or_compute(key(i), || i as f64);
            assert!(
                cache.resident_bytes() <= bound,
                "resident {} over bound {bound} after insert {i}",
                cache.resident_bytes()
            );
        }
        let stats = cache.lifetime();
        assert!(stats.evictions > 0, "pressure must evict");
        assert_eq!(stats.misses, 5_000);
        // Evicted keys recompute to the same value (bit-identity is
        // trivially preserved: the cache stores what f returns).
        let (v, _) = cache.get_or_compute(key(0), || 0.0);
        assert_eq!(v, 0.0);
    }

    #[test]
    fn lru_keeps_the_hot_entry() {
        // One shard would make this exact; across shards, keep the bound
        // large enough that only cold keys age out.
        let cache = TemplateCache::with_max_bytes(256 * ENTRY_BYTES);
        cache.get_or_compute(key(0), || 7.0);
        for i in 1..40_000 {
            // Touch the hot key frequently so its epoch stays fresh.
            if i % 4 == 0 {
                let (v, l) = cache.get_or_compute(key(0), || unreachable!("hot key evicted"));
                assert!(l.hit);
                assert_eq!(v, 7.0);
            }
            cache.get_or_compute(key(i), || i as f64);
        }
    }

    #[test]
    fn tiny_bound_still_caches_repeats() {
        let cache = TemplateCache::with_max_bytes(1);
        let (_, l1) = cache.get_or_compute(key(5), || 1.0);
        let (_, l2) = cache.get_or_compute(key(5), || unreachable!("repeat must hit"));
        assert!(!l1.hit && l2.hit);
    }

    #[test]
    fn sub_floor_budgets_report_the_documented_floor() {
        // A zero budget is legal: it clamps to the one-entry-per-shard
        // floor, and max_bytes() reports that effective bound rather
        // than echoing the request.
        let zero = TemplateCache::with_max_bytes(0);
        assert_eq!(zero.max_bytes(), Some(MIN_MAX_BYTES));
        let (_, l1) = zero.get_or_compute(key(9), || 3.0);
        let (v, l2) = zero.get_or_compute(key(9), || unreachable!("repeat must hit"));
        assert!(!l1.hit && l2.hit);
        assert_eq!(v, 3.0);

        // Every budget under the floor lands exactly on the floor...
        for budget in [1, ENTRY_BYTES - 1, ENTRY_BYTES, MIN_MAX_BYTES - 1] {
            let cache = TemplateCache::with_max_bytes(budget);
            assert_eq!(cache.max_bytes(), Some(MIN_MAX_BYTES), "budget {budget}");
        }
        // ...and the floor itself is representable exactly, as is any
        // whole multiple of it.
        assert_eq!(TemplateCache::with_max_bytes(MIN_MAX_BYTES).max_bytes(), Some(MIN_MAX_BYTES));
        assert_eq!(
            TemplateCache::with_max_bytes(4 * MIN_MAX_BYTES).max_bytes(),
            Some(4 * MIN_MAX_BYTES)
        );
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = TemplateCache::unbounded();
        cache.get_or_compute(key(1), || 1.0);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.lifetime().misses, 1);
        let (_, l) = cache.get_or_compute(key(1), || 2.0);
        assert!(!l.hit, "cleared entry recomputes");
    }

    #[test]
    fn concurrent_lookups_agree() {
        use std::sync::Arc;
        let cache = Arc::new(TemplateCache::with_max_bytes(64 * ENTRY_BYTES));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for round in 0..200 {
                        for i in 0..32 {
                            let (v, _) = cache.get_or_compute(key(i), || i as f64 * 1.5);
                            assert_eq!(v, i as f64 * 1.5, "thread {t} round {round}");
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
    }

    #[test]
    fn debug_is_compact() {
        let cache = TemplateCache::with_max_bytes(1 << 20);
        let s = format!("{cache:?}");
        assert!(s.contains("entries") && s.contains("max_bytes"), "{s}");
    }

    #[test]
    fn snapshot_restore_round_trips_bit_exactly() {
        let cache = TemplateCache::unbounded();
        // Values with non-trivial bit patterns, including a negative zero
        // and a subnormal, so bit-identity is actually exercised.
        let values = [0.1 + 0.2, -0.0, f64::MIN_POSITIVE / 2.0, -3.25e-18, 7.0];
        for (i, v) in values.iter().enumerate() {
            cache.get_or_compute(key(i as u64), || *v);
        }
        let mut file = Vec::new();
        let written = cache.snapshot_to(&mut file).unwrap();
        assert_eq!(written, values.len());

        let restored = TemplateCache::unbounded();
        let admitted = restored.restore_from(&file[..]).unwrap();
        assert_eq!(admitted, values.len());
        assert_eq!(restored.len(), values.len());
        // A restore is not traffic: no hit/miss movement yet.
        let stats = restored.lifetime();
        assert_eq!((stats.hits, stats.misses), (0, 0));
        for (i, v) in values.iter().enumerate() {
            let (got, l) = restored.get_or_compute(key(i as u64), || unreachable!("restored"));
            assert!(l.hit, "entry {i} must be resident after restore");
            assert_eq!(got.to_bits(), v.to_bits(), "entry {i}");
        }
    }

    #[test]
    fn snapshot_is_deterministic_for_equal_contents() {
        let a = TemplateCache::unbounded();
        let b = TemplateCache::unbounded();
        // Insert in different orders; the snapshot sorts by key words.
        for i in 0..50 {
            a.get_or_compute(key(i), || i as f64);
        }
        for i in (0..50).rev() {
            b.get_or_compute(key(i), || i as f64);
        }
        let (mut fa, mut fb) = (Vec::new(), Vec::new());
        a.snapshot_to(&mut fa).unwrap();
        b.snapshot_to(&mut fb).unwrap();
        assert_eq!(fa, fb);
    }

    #[test]
    fn bounded_restore_respects_the_memory_bound() {
        let big = TemplateCache::unbounded();
        for i in 0..5_000 {
            big.get_or_compute(key(i), || i as f64);
        }
        let mut file = Vec::new();
        big.snapshot_to(&mut file).unwrap();

        let small = TemplateCache::with_max_bytes(256 * ENTRY_BYTES);
        let bound = small.max_bytes().expect("bounded");
        let admitted = small.restore_from(&file[..]).unwrap();
        assert!(admitted < 5_000, "a small cache cannot admit the whole snapshot");
        assert!(admitted > 0);
        assert!(small.resident_bytes() <= bound);
        assert_eq!(small.lifetime().evictions, 0, "restore skips, never evicts");
    }

    #[test]
    fn restore_rejects_malformed_snapshots() {
        let cache = TemplateCache::unbounded();
        let errors = [
            ("", "empty"),
            ("not a snapshot\n", "foreign header"),
            ("bemcap-template-cache v9 0\n", "future version"),
            ("bemcap-template-cache v1 0\n", "untagged v1 snapshot"),
            ("bemcap-template-cache v2\n", "missing count"),
            ("bemcap-template-cache v2 2\n", "truncated body"),
            ("bemcap-template-cache v2 1\n1 2 3\n", "short entry"),
            ("bemcap-template-cache v2 1\nzz 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1\n", "bad hex"),
        ];
        for (text, what) in errors {
            let e = cache.restore_from(text.as_bytes()).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {e}");
        }
        assert!(cache.is_empty() || !cache.is_empty(), "no panic is the contract");
        // The future-version message names the version problem.
        let e = cache.restore_from("bemcap-template-cache v9 0\n".as_bytes()).unwrap_err();
        assert!(e.to_string().contains("version"), "{e}");
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let cache = TemplateCache::unbounded();
        let mut file = Vec::new();
        assert_eq!(cache.snapshot_to(&mut file).unwrap(), 0);
        let restored = TemplateCache::unbounded();
        assert_eq!(restored.restore_from(&file[..]).unwrap(), 0);
        assert!(restored.is_empty());
    }
}
