//! Bounded result cache for `optimize`.
//!
//! Every optimizer strategy is a deterministic function of the design,
//! the strategy, the supply voltage and the processor count: the
//! server runs each one with a fixed configuration
//! (`AsicConfig::default()`, `SaturateConfig::default()`) and the
//! e-graph search is bounded by node and iteration counts, never by
//! wall time. So an `Ok` answer computed once can be served again
//! byte-identically.
//!
//! * **Key** — [`ResultKey`]: the canonical design name, the parsed
//!   strategy, the bit pattern of `v0` and the processor count, built
//!   after validation, so byte-different spellings of one request share
//!   an entry.
//! * **Value** — only `Ok` results. Errors (deadlines, stalls, panics)
//!   depend on timing and load, so they are never stored.
//! * **Bound** — at most [`RESULT_CACHE_CAPACITY`] entries; inserting
//!   past it evicts the least recently used one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use lintra::opt::Strategy;
use lintra_bench::json::Json;

use crate::server::lock_unpoisoned;

/// Entries kept before the least recently used one is evicted.
pub const RESULT_CACHE_CAPACITY: usize = 1024;

/// Everything an `optimize` answer depends on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct ResultKey {
    /// Canonical suite name (aliases already resolved).
    pub(crate) design: &'static str,
    pub(crate) strategy: Strategy,
    /// `f64::to_bits` of the validated supply voltage.
    pub(crate) v0_bits: u64,
    pub(crate) processors: Option<usize>,
}

#[derive(Default)]
struct Inner {
    /// Key → (result, tick of its last use).
    entries: HashMap<ResultKey, (Json, u64)>,
    tick: u64,
}

impl Inner {
    fn touch(&mut self, key: &ResultKey) -> Option<Json> {
        self.tick += 1;
        let (value, used) = self.entries.get_mut(key)?;
        *used = self.tick;
        Some(value.clone())
    }

    /// Stores `value`, evicting the least recently used entry when over
    /// `capacity`. A linear scan suffices: an eviction only follows a
    /// miss, which ran a whole optimizer search.
    fn insert(&mut self, key: ResultKey, value: Json, capacity: usize) {
        self.tick += 1;
        self.entries.insert(key, (value, self.tick));
        if self.entries.len() > capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                self.entries.remove(&victim);
            }
        }
    }
}

/// The cache plus its lookup counters: every lookup is either a hit
/// (answered from an entry) or a miss (ran the computation).
pub(crate) struct ResultCache {
    capacity: usize,
    inner: Mutex<Inner>,
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
}

impl ResultCache {
    pub(crate) fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity,
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Entries currently stored.
    pub(crate) fn len(&self) -> usize {
        lock_unpoisoned(&self.inner).entries.len()
    }

    /// Answers `key` from the cache, or runs `compute` and stores its
    /// `Ok` result. The lock is not held while `compute` runs, so
    /// identical requests that miss together each compute.
    pub(crate) fn get_or_compute<E>(
        &self,
        key: ResultKey,
        compute: impl FnOnce() -> Result<Json, E>,
    ) -> Result<Json, E> {
        if let Some(value) = lock_unpoisoned(&self.inner).touch(&key) {
            self.hits.fetch_add(1, Ordering::SeqCst);
            return Ok(value);
        }
        self.misses.fetch_add(1, Ordering::SeqCst);
        let value = compute()?;
        lock_unpoisoned(&self.inner).insert(key, value.clone(), self.capacity);
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(v0: f64) -> ResultKey {
        ResultKey {
            design: "iir5",
            strategy: Strategy::Single,
            v0_bits: v0.to_bits(),
            processors: None,
        }
    }

    fn serve(cache: &ResultCache, v0: f64) -> Result<Json, String> {
        cache.get_or_compute(key(v0), || Ok(Json::Num(v0)))
    }

    /// (hits, misses)
    fn counts(cache: &ResultCache) -> (u64, u64) {
        (
            cache.hits.load(Ordering::SeqCst),
            cache.misses.load(Ordering::SeqCst),
        )
    }

    #[test]
    fn second_lookup_hits_and_errors_are_not_stored() {
        let cache = ResultCache::new(4);
        assert_eq!(serve(&cache, 1.0), Ok(Json::Num(1.0)));
        assert_eq!(serve(&cache, 1.0), Ok(Json::Num(1.0)));
        assert_eq!(counts(&cache), (1, 1));
        let failed = cache.get_or_compute(key(2.0), || Err("boom".to_string()));
        assert_eq!(failed, Err("boom".to_string()));
        assert_eq!(serve(&cache, 2.0), Ok(Json::Num(2.0)));
        assert_eq!(counts(&cache), (1, 3), "the error was not stored");
    }

    #[test]
    fn eviction_keeps_the_bound_and_drops_the_least_recently_used() {
        let cache = ResultCache::new(3);
        for v0 in [1.0, 2.0, 3.0, 1.0, 4.0] {
            let _ = serve(&cache, v0); // the hit on 1.0 leaves 2.0 least recently used
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(counts(&cache), (1, 4));
        let _ = serve(&cache, 1.0);
        assert_eq!(counts(&cache), (2, 4), "1.0 survived");
        let _ = serve(&cache, 2.0);
        assert_eq!(counts(&cache), (2, 5), "2.0 was evicted");
    }
}
