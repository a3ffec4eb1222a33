//! Language-model substrate.
//!
//! The paper uses OpenAI's GPT-4 to map a tuning prompt to complete
//! configuration scripts. This crate provides the from-scratch substitute:
//!
//! * an approximate **tokenizer** with GPT-like token counts (λ-Tune's
//!   budget constraint and monetary-fee accounting are denominated in
//!   tokens),
//! * the [`LanguageModel`] trait plus a usage-metering [`LlmClient`]
//!   wrapper, and
//! * [`SimulatedLlm`] — a deterministic-given-seed generator of tuning
//!   configurations. Crucially, it reads **only the prompt text**: its
//!   knowledge of the workload is limited to what the prompt conveys, so
//!   shrinking the token budget genuinely degrades the information it acts
//!   on (Figure 7's ablation), and obfuscated identifiers deprive it of any
//!   benchmark-recognition shortcut (§6.4.3).
//!
//! Temperature controls output variance; a configurable outlier rate
//! reproduces the paper's observation that roughly 1 in 7 GPT-4 samples is
//! a configuration up to ~5× slower than the best (§6.3).

pub mod api;
pub mod simulated;
pub mod synthesis;
pub mod tokenizer;

pub use api::{LanguageModel, LlmClient, LlmUsage};
pub use simulated::{SimulatedLlm, SimulatedLlmOptions};
pub use synthesis::{SynthesisLlm, SynthesisLlmOptions};
pub use tokenizer::{count_tokens, truncate_to_tokens};
