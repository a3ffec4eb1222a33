//! Shared LLM sample cache for fleet batching.
//!
//! The serving layer coalesces queued sessions that would send the *same
//! prompt* into one batched LLM call (see `lt-serve`'s worker pool), then
//! hands each session this cache so the pipeline's sampling loop finds its
//! per-seed completions already fetched. Completions are pure functions of
//! `(prompt, temperature, seed)` — the [`lt_llm::LanguageModel`] contract —
//! so serving a sample from the cache is indistinguishable from calling the
//! model, except that no tokens are spent.
//!
//! Bounded LRU (evictions counted as `fleet.sample_evict`).

use lt_common::hash_one;
use lt_common::lru::{Counters, Memo};

/// Bound on cached samples.
const SAMPLE_CAP: usize = 4096;

/// Key: (prompt hash, temperature bits, sampling seed).
type SampleKey = (u64, u64, u64);

/// A process- or pool-shared map from `(prompt, temperature, seed)` to the
/// model's completion. See the module docs.
#[derive(Debug)]
pub struct SampleCache {
    entries: Memo<SampleKey, String>,
}

impl Default for SampleCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SampleCache {
    /// Cache bounded to the default capacity.
    pub fn new() -> Self {
        Self::with_cap(SAMPLE_CAP)
    }

    /// Cache bounded to exactly `cap` samples (tests, sized pools).
    pub fn with_cap(cap: usize) -> Self {
        SampleCache {
            entries: Memo::new(
                cap,
                Counters {
                    hit: "fleet.sample_hit",
                    miss: "fleet.sample_miss",
                    evict: "fleet.sample_evict",
                },
            ),
        }
    }

    fn key(prompt: &str, temperature: f64, seed: u64) -> SampleKey {
        (hash_one(prompt), temperature.to_bits(), seed)
    }

    /// Returns the cached completion for this sampling context, if any.
    /// Counts `fleet.sample_hit` / `fleet.sample_miss`.
    pub fn get(&self, prompt: &str, temperature: f64, seed: u64) -> Option<String> {
        self.entries.get(&Self::key(prompt, temperature, seed))
    }

    /// Stores a completion fetched from the model.
    pub fn insert(&self, prompt: &str, temperature: f64, seed: u64, response: String) {
        self.entries
            .insert(Self::key(prompt, temperature, seed), response);
    }

    /// Number of cached samples.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_discriminates_every_key_component() {
        let cache = SampleCache::with_cap(8);
        cache.insert("p", 0.7, 1, "r".into());
        assert_eq!(cache.get("p", 0.7, 1).as_deref(), Some("r"));
        assert!(cache.get("q", 0.7, 1).is_none());
        assert!(cache.get("p", 0.8, 1).is_none());
        assert!(cache.get("p", 0.7, 2).is_none());
    }

    #[test]
    fn cap_evicts_coldest_sample() {
        let cache = SampleCache::with_cap(2);
        cache.insert("p", 0.0, 1, "a".into());
        cache.insert("p", 0.0, 2, "b".into());
        cache.get("p", 0.0, 1); // refresh seed 1
        cache.insert("p", 0.0, 3, "c".into()); // evicts seed 2
        assert!(cache.get("p", 0.0, 2).is_none());
        assert_eq!(cache.get("p", 0.0, 1).as_deref(), Some("a"));
        assert_eq!(cache.len(), 2);
    }
}
