//! The language-model interface and usage metering.

use crate::tokenizer::count_tokens;
use lt_common::{env, obs, Result};
use std::sync::Mutex;

/// A text-completion model.
///
/// Implementations must be deterministic given `(prompt, temperature,
/// seed)`: λ-Tune samples k configurations by calling `complete` with k
/// different seeds, and the whole evaluation must be reproducible.
pub trait LanguageModel {
    /// Completes `prompt`. Higher `temperature` means more variance across
    /// seeds; `temperature = 0` should make the output seed-independent.
    fn complete(&self, prompt: &str, temperature: f64, seed: u64) -> Result<String>;

    /// Completes the same prompt under several seeds in one request — the
    /// fleet batching path. The default implementation loops
    /// [`LanguageModel::complete`], so results are identical to unbatched
    /// sampling *by construction*; backends with a native batch endpoint
    /// may override for throughput but must preserve per-seed determinism.
    fn complete_batch(&self, prompt: &str, temperature: f64, seeds: &[u64]) -> Result<Vec<String>> {
        seeds
            .iter()
            .map(|&seed| self.complete(prompt, temperature, seed))
            .collect()
    }

    /// Model name (for logs and reports).
    fn name(&self) -> &str;

    /// Maximum prompt size in tokens.
    fn context_window(&self) -> usize {
        128_000
    }
}

/// Accumulated usage across calls (the paper's "monetary fees" concern).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LlmUsage {
    /// Number of completion calls.
    pub calls: u64,
    /// Total prompt tokens sent.
    pub prompt_tokens: u64,
    /// Total completion tokens received.
    pub completion_tokens: u64,
}

impl LlmUsage {
    /// Estimated cost in USD under GPT-4-era pricing ($30 / 1M prompt
    /// tokens, $60 / 1M completion tokens).
    pub fn cost_usd(&self) -> f64 {
        self.prompt_tokens as f64 * 30e-6 + self.completion_tokens as f64 * 60e-6
    }
}

/// Simulated per-call API latency in milliseconds (`LT_LLM_LATENCY_MS`,
/// default 0 = off). Read once per process.
///
/// The simulated model answers instantly, which is the one way it is
/// *unrealistically fast*: a real LLM API call costs tens of milliseconds
/// to seconds of network round trip, and that latency — not local compute
/// — is what a tuning service spends most of its wall clock on (the
/// paper's eval-vs-API-cost tradeoff). Serving benchmarks set this knob
/// to measure the system in that regime; it only ever adds wall time, so
/// results stay byte-identical at any setting.
fn simulated_latency() -> std::time::Duration {
    use std::sync::OnceLock;
    static LATENCY: OnceLock<std::time::Duration> = OnceLock::new();
    *LATENCY.get_or_init(|| {
        std::time::Duration::from_millis(env::get("LT_LLM_LATENCY_MS", 0, |_| true))
    })
}

/// Sleeps for the configured simulated API latency (no-op by default).
fn simulate_api_latency() {
    let latency = simulated_latency();
    if !latency.is_zero() {
        std::thread::sleep(latency);
    }
}

/// Wraps a [`LanguageModel`] and meters token usage per call.
pub struct LlmClient<M> {
    model: M,
    usage: Mutex<LlmUsage>,
}

impl<M: LanguageModel> LlmClient<M> {
    /// Wraps a model.
    pub fn new(model: M) -> Self {
        LlmClient {
            model,
            usage: Mutex::new(LlmUsage::default()),
        }
    }

    /// Completes a prompt, recording usage.
    pub fn complete(&self, prompt: &str, temperature: f64, seed: u64) -> Result<String> {
        let _span = obs::span("llm.call");
        simulate_api_latency();
        let response = self.model.complete(prompt, temperature, seed)?;
        let prompt_tokens = count_tokens(prompt) as u64;
        let completion_tokens = count_tokens(&response) as u64;
        let mut usage = self.usage.lock().unwrap();
        usage.calls += 1;
        usage.prompt_tokens += prompt_tokens;
        usage.completion_tokens += completion_tokens;
        drop(usage);
        obs::counter("llm.calls", 1);
        obs::counter("llm.prompt_tokens", prompt_tokens);
        obs::counter("llm.completion_tokens", completion_tokens);
        Ok(response)
    }

    /// Completes one prompt under many seeds as a single metered call.
    ///
    /// This is where batching saves money: the prompt is transmitted (and
    /// therefore charged) **once** for the whole batch instead of once per
    /// sample, and the batch counts as one API call. Completion tokens are
    /// still charged per sample. An empty seed list is a no-op that costs
    /// nothing.
    pub fn complete_batch(
        &self,
        prompt: &str,
        temperature: f64,
        seeds: &[u64],
    ) -> Result<Vec<String>> {
        if seeds.is_empty() {
            return Ok(Vec::new());
        }
        let _span = obs::span("llm.call");
        // One API round trip for the whole batch: the latency, like the
        // prompt tokens, is paid once — that is the batching win.
        simulate_api_latency();
        let responses = self.model.complete_batch(prompt, temperature, seeds)?;
        debug_assert_eq!(responses.len(), seeds.len());
        let prompt_tokens = count_tokens(prompt) as u64;
        let completion_tokens: u64 = responses.iter().map(|r| count_tokens(r) as u64).sum();
        let mut usage = self.usage.lock().unwrap();
        usage.calls += 1;
        usage.prompt_tokens += prompt_tokens;
        usage.completion_tokens += completion_tokens;
        drop(usage);
        obs::counter("llm.calls", 1);
        obs::counter("llm.batch_calls", 1);
        obs::counter("llm.batch_samples", seeds.len() as u64);
        obs::counter("llm.prompt_tokens", prompt_tokens);
        obs::counter("llm.completion_tokens", completion_tokens);
        Ok(responses)
    }

    /// Usage so far.
    pub fn usage(&self) -> LlmUsage {
        *self.usage.lock().unwrap()
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl LanguageModel for Echo {
        fn complete(&self, prompt: &str, _t: f64, _s: u64) -> Result<String> {
            Ok(prompt.to_string())
        }
        fn name(&self) -> &str {
            "echo"
        }
    }

    #[test]
    fn client_meters_usage() {
        let client = LlmClient::new(Echo);
        client.complete("four words in here", 0.0, 1).unwrap();
        client.complete("two more", 0.0, 2).unwrap();
        let u = client.usage();
        assert_eq!(u.calls, 2);
        // "four words in here" = 1+2+1+1 tokens, "two more" = 2.
        assert_eq!(u.prompt_tokens, 7);
        assert_eq!(u.completion_tokens, 7);
        assert!(u.cost_usd() > 0.0);
    }

    #[test]
    fn default_usage_is_zero_cost() {
        assert_eq!(LlmUsage::default().cost_usd(), 0.0);
    }

    struct Seeded;
    impl LanguageModel for Seeded {
        fn complete(&self, _p: &str, _t: f64, seed: u64) -> Result<String> {
            Ok(format!("sample {seed}"))
        }
        fn name(&self) -> &str {
            "seeded"
        }
    }

    #[test]
    fn batch_matches_unbatched_and_charges_prompt_once() {
        let unbatched = LlmClient::new(Seeded);
        let loose: Vec<String> = (0..4)
            .map(|s| unbatched.complete("a prompt here", 0.7, s).unwrap())
            .collect();
        let batched = LlmClient::new(Seeded);
        let batch = batched
            .complete_batch("a prompt here", 0.7, &[0, 1, 2, 3])
            .unwrap();
        assert_eq!(loose, batch);
        let (u, b) = (unbatched.usage(), batched.usage());
        assert_eq!(u.calls, 4);
        assert_eq!(b.calls, 1);
        assert_eq!(u.prompt_tokens, 4 * b.prompt_tokens);
        assert_eq!(u.completion_tokens, b.completion_tokens);
    }

    #[test]
    fn empty_batch_costs_nothing() {
        let client = LlmClient::new(Seeded);
        assert!(client.complete_batch("p", 0.0, &[]).unwrap().is_empty());
        assert_eq!(client.usage(), LlmUsage::default());
    }
}
