//! LLM-driven workload synthesis.
//!
//! λ-Tune's evaluation (and its drift/serving layers) needs far more
//! workloads than the four benchmark suites ship: streams that shift,
//! workloads with controlled join shapes and selectivities, thousands of
//! distinct tuning scenarios. This crate closes that gap the way the
//! SQLBarber line of work does — by asking a language model to *write*
//! the queries — while keeping every property the rest of the system
//! relies on:
//!
//! * **Declarative input.** A [`WorkloadSpec`] states the target
//!   statistics: query count, join-shape mix (chain/star/clique over a
//!   depth range), predicate-selectivity band in the drift profiles'
//!   log₂ buckets, Zipf skew of table access, conformance tolerance.
//! * **Catalog-validated output.** Every LLM response is parsed and
//!   checked against the benchmark catalog and the assigned structure;
//!   invalid output is retried with `invalid:` feedback up to a hard
//!   cap, and all rejects are counted ([`SynthReport`]).
//! * **Determinism.** Same spec, same bytes — generation is seeded
//!   end-to-end and independent of thread count, so synthesized
//!   workloads can gate CI like any other fixture.
//! * **Streams as data.** The drift streams' shift classes are now
//!   canned [`StreamSpec`]s over declarative pools ([`PoolSpec`]),
//!   including pools synthesized on the fly; the historical
//!   [`PhasedStream`] byte streams are pinned by regression tests.

pub mod generate;
pub mod spec;
pub mod stream;

pub use generate::{Conformance, Shape, SynthReport, Synthesis, Synthesizer};
pub use spec::{JoinMix, WorkloadSpec, DEFAULT_SEED, MAX_SPEC_QUERIES, RETRY_MAX};
pub use stream::{
    predicate_templates, Phase, PhaseSpec, PhasedStream, PhasedStreamSpec, PoolSpec, ShiftClass,
    StreamQuery, StreamSpec,
};
