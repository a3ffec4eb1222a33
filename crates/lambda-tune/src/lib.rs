//! λ-Tune: LLM-driven automated database system tuning.
//!
//! Reproduction of *λ-Tune: Harnessing Large Language Models for Automated
//! Database System Tuning* (Giannakouris & Trummer, SIGMOD 2025). The
//! pipeline (paper Algorithm 1):
//!
//! 1. [`prompt`] + [`compressor`] — describe the tuning context to the LLM
//!    within a token budget; workload compression selects the most valuable
//!    join snippets by solving an ILP (paper §3).
//! 2. Sample k configurations from the LLM.
//! 3. [`selector`] — identify the best configuration with geometrically
//!    growing per-round timeouts, bounding total evaluation cost as a
//!    function of the optimum (paper §4, Theorem 4.3).
//! 4. [`evaluator`] + [`scheduler`] — evaluate each configuration with lazy
//!    index creation and a dynamic-programming query order minimizing
//!    expected reconfiguration cost (paper §5, Theorems 5.2–5.3).
//!
//! [`pipeline::LambdaTune`] wires the pieces together; every component is
//! individually reusable and ablatable (Figure 6's ablations are option
//! flags).

pub mod compressor;
pub mod evaluator;
pub mod pipeline;
pub mod progress;
pub mod prompt;
pub mod scheduler;
pub mod selector;
pub mod snippets;

pub use compressor::{CompressedWorkload, Compressor};
pub use evaluator::{ConfigMeta, Evaluator};
pub use pipeline::{LambdaTune, LambdaTuneOptions, TuneResult, WarmStart};
pub use progress::{CancelToken, ProgressEvent, TuneObserver};
pub use prompt::PromptBuilder;
pub use scheduler::{cluster_queries, expected_index_cost, find_optimal_order};
pub use selector::{ConfigSelector, SelectorOptions, TrajectoryPoint};
pub use snippets::{extract_snippets, Snippet};
