//! Deterministic drift detectors over a sliding window of
//! [`QueryObservation`]s.
//!
//! Three complementary detectors run against every session stream:
//!
//! 1. **Frequency JSD** — Jensen–Shannon divergence between the window's
//!    feature [`Profile`] and a reference profile (the tuning workload, or
//!    self-calibrated from the warm-up prefix). Catches mix shifts and
//!    predicate-distribution shifts. An alarm requires the divergence to
//!    exceed the threshold on [`DriftConfig::confirm`] *consecutive*
//!    evaluations, so a single odd window never fires.
//! 2. **Hit-rate collapse** — an EWMA of the windowed plan-cache hit rate
//!    with arm/collapse hysteresis: the detector arms once the smoothed
//!    rate has been high ([`DriftConfig::hit_arm`]) and fires only when it
//!    then falls through [`DriftConfig::hit_collapse`]. A session that
//!    never cached well can therefore never "collapse".
//! 3. **Latency change-point** — a Page–Hinkley test on per-query-tag
//!    normalized `log₁₀` latency residuals. Normalizing against each
//!    statement's own running mean makes the statistic workload-mix
//!    independent: a scale-factor jump moves every residual at once, while
//!    a mere mix change (slow queries becoming more frequent) does not
//!    perturb residuals at all — that is the JSD detector's job.
//!
//! Everything is pure integer/float arithmetic over `BTreeMap`s — no
//! wall-clock, no hashing randomness — so the same observation sequence
//! produces byte-identical events on any machine or thread count.

use crate::profile::{Profile, QueryObservation};
use lt_common::{json, json::Value, obs, Secs};
use lt_dbms::db::query_tag;
use lt_dbms::TuningTarget;
use lt_sql::ast::Query;
use std::collections::{BTreeMap, VecDeque};

/// Tuning knobs for the drift detectors. The serving layer starts from
/// [`DriftConfig::default`] and lets a tune request's `"drift"` object
/// override each field for its session.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftConfig {
    /// Sliding-window length in queries.
    pub window: usize,
    /// Evaluate the windowed detectors every `stride` queries.
    pub stride: usize,
    /// Observations before any detector may fire; a monitor without a
    /// preset reference also builds one from this prefix.
    pub warmup: usize,
    /// JSD alarm threshold in bits.
    pub jsd_threshold: f64,
    /// Consecutive over-threshold JSD evaluations required to fire.
    pub confirm: usize,
    /// EWMA smoothing factor for the hit rate.
    pub ewma_alpha: f64,
    /// Smoothed hit rate that arms the collapse detector.
    pub hit_arm: f64,
    /// Smoothed hit rate that fires it once armed.
    pub hit_collapse: f64,
    /// Page–Hinkley drift tolerance per observation.
    pub ph_delta: f64,
    /// Page–Hinkley alarm threshold.
    pub ph_lambda: f64,
    /// Observations suppressed after an alarm before detectors re-arm.
    pub cooldown: usize,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            window: 128,
            stride: 16,
            warmup: 256,
            jsd_threshold: 0.35,
            confirm: 2,
            ewma_alpha: 0.3,
            hit_arm: 0.6,
            hit_collapse: 0.25,
            ph_delta: 0.05,
            ph_lambda: 6.0,
            cooldown: 256,
        }
    }
}

/// Which detector raised a [`DriftEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detector {
    /// Windowed Jensen–Shannon divergence on the feature frequencies.
    FrequencyJsd,
    /// EWMA plan-cache hit-rate collapse.
    HitRateCollapse,
    /// Page–Hinkley change-point on normalized per-query latency.
    LatencyChangePoint,
}

impl Detector {
    /// Stable lower-case name for JSON and metrics.
    pub fn name(self) -> &'static str {
        match self {
            Detector::FrequencyJsd => "frequency_jsd",
            Detector::HitRateCollapse => "hit_rate_collapse",
            Detector::LatencyChangePoint => "latency_change_point",
        }
    }
}

/// One drift alarm.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftEvent {
    /// The detector that fired.
    pub detector: Detector,
    /// 1-based count of observations at the moment of the alarm.
    pub at_query: u64,
    /// Detector statistic at the alarm.
    pub score: f64,
    /// The threshold it crossed.
    pub threshold: f64,
}

impl DriftEvent {
    /// JSON rendering used by session status and `drift_bench`.
    pub fn to_json(&self) -> Value {
        json!({
            "detector": self.detector.name(),
            "at_query": self.at_query as f64,
            "score": self.score,
            "threshold": self.threshold,
        })
    }
}

/// Per-statement latency baseline for the Page–Hinkley test.
#[derive(Debug, Clone, Default)]
struct TagBaseline {
    mean: f64,
    n: u64,
}

/// Observations retained by the sliding window.
#[derive(Debug, Clone)]
struct WindowEntry {
    features: Vec<u64>,
    hit: Option<bool>,
}

/// Current detector statistics, exposed for status endpoints.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DriftScores {
    /// Last evaluated JSD against the reference profile.
    pub jsd: f64,
    /// Smoothed plan-cache hit rate (NaN-free: 0 until first evaluation).
    pub ewma_hit_rate: f64,
    /// Current Page–Hinkley statistic.
    pub page_hinkley: f64,
}

/// The streaming drift monitor; see the module docs.
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    config: DriftConfig,
    /// Reference profile; grown from the warm-up prefix when not preset.
    reference: Profile,
    preset_reference: bool,
    window: VecDeque<WindowEntry>,
    current: Profile,
    observed: u64,
    /// Detectors stay silent until this many observations.
    armed_at: u64,
    /// Observation count below which alarms are suppressed (cooldown).
    quiet_until: u64,
    jsd_streak: usize,
    ewma_hit: Option<f64>,
    hit_armed: bool,
    baselines: BTreeMap<u64, TagBaseline>,
    ph_cum: f64,
    ph_min: f64,
    scores: DriftScores,
    events: Vec<DriftEvent>,
}

impl DriftMonitor {
    /// Monitor that self-calibrates: the first [`DriftConfig::warmup`]
    /// observations become the reference profile.
    pub fn new(config: DriftConfig) -> DriftMonitor {
        Self::build(config, None)
    }

    /// Monitor with a preset reference (the profile of the workload the
    /// session was tuned for). Detectors still wait for one full window.
    pub fn with_reference(config: DriftConfig, reference: Profile) -> DriftMonitor {
        Self::build(config, Some(reference))
    }

    fn build(config: DriftConfig, reference: Option<Profile>) -> DriftMonitor {
        let armed_at = match &reference {
            // Preset reference: only the window must fill before the
            // windowed statistics mean anything.
            Some(_) => config.window.max(config.stride) as u64,
            None => config.warmup.max(config.window) as u64,
        };
        DriftMonitor {
            window: VecDeque::with_capacity(config.window + 1),
            config,
            preset_reference: reference.is_some(),
            reference: reference.unwrap_or_default(),
            current: Profile::new(),
            observed: 0,
            armed_at,
            quiet_until: 0,
            jsd_streak: 0,
            ewma_hit: None,
            hit_armed: false,
            baselines: BTreeMap::new(),
            ph_cum: 0.0,
            ph_min: 0.0,
            scores: DriftScores::default(),
            events: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &DriftConfig {
        &self.config
    }

    /// Observations consumed so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// All alarms raised so far, in order.
    pub fn events(&self) -> &[DriftEvent] {
        &self.events
    }

    /// Current detector statistics.
    pub fn scores(&self) -> DriftScores {
        self.scores
    }

    /// Executes `query` on `db` and feeds the execution through
    /// [`DriftMonitor::observe`]: the one observation step of every query
    /// feed, a serving session's and the drift harness's alike. The plan
    /// cache's window counters are drained per query, so the hit flag says
    /// whether *this* plan came from the cache.
    pub fn execute_and_observe(
        &mut self,
        db: &mut (impl TuningTarget + ?Sized),
        query: &Query,
    ) -> Option<DriftEvent> {
        let outcome = db.execute(query, Secs::INFINITY);
        let preds = db.predicates(query);
        let window = db.take_cache_window();
        let hit = window.plan_hits + window.plan_misses > 0 && window.plan_misses == 0;
        let observation = QueryObservation::new(
            db.catalog(),
            &preds,
            query_tag(query),
            outcome.time,
            Some(hit),
        );
        self.observe(&observation)
    }

    /// Feeds one executed query through every detector. Returns the alarm
    /// raised by this observation, if any (at most one: the first detector
    /// to fire wins and starts the cooldown).
    pub fn observe(&mut self, obs_in: &QueryObservation) -> Option<DriftEvent> {
        self.observed += 1;
        obs::counter("drift.observed", 1);

        // Self-calibration: the warm-up prefix *is* the reference.
        if !self.preset_reference && self.observed <= self.config.warmup as u64 {
            self.reference.add(&obs_in.features);
        }

        // Slide the window.
        self.current.add(&obs_in.features);
        self.window.push_back(WindowEntry {
            features: obs_in.features.clone(),
            hit: obs_in.plan_cache_hit,
        });
        if self.window.len() > self.config.window {
            let old = self.window.pop_front().expect("window non-empty");
            self.current.remove(&old.features);
        }

        // Page–Hinkley residual: how far this statement's latency sits
        // from its own running mean, in decades. The first sighting of a
        // tag only seeds the baseline.
        let x = obs_in.latency.as_f64().max(1e-9).log10();
        let residual = {
            let base = self.baselines.entry(obs_in.tag).or_default();
            if base.n == 0 {
                base.mean = x;
                base.n = 1;
                None
            } else {
                let r = x - base.mean;
                // Running mean, frozen into a slow EWMA once established
                // so the baseline cannot chase a genuine regime change.
                if base.n < 32 {
                    base.mean += r / (base.n + 1) as f64;
                } else {
                    base.mean += 0.02 * r;
                }
                base.n += 1;
                Some(r)
            }
        };

        let armed = self.observed >= self.armed_at && self.observed >= self.quiet_until;
        let mut fired: Option<DriftEvent> = None;

        if let Some(r) = residual {
            self.ph_cum += r - self.config.ph_delta;
            self.ph_min = self.ph_min.min(self.ph_cum);
            self.scores.page_hinkley = self.ph_cum - self.ph_min;
            obs::gauge("drift.page_hinkley", self.scores.page_hinkley);
            if armed && self.scores.page_hinkley > self.config.ph_lambda {
                fired = Some(self.fire(
                    Detector::LatencyChangePoint,
                    self.scores.page_hinkley,
                    self.config.ph_lambda,
                ));
            }
        }

        if fired.is_none() && self.observed.is_multiple_of(self.config.stride as u64) {
            obs::counter("drift.evaluations", 1);
            fired = self.evaluate_windowed(armed);
        }
        fired
    }

    /// Stride-boundary evaluation of the JSD and hit-rate detectors.
    fn evaluate_windowed(&mut self, armed: bool) -> Option<DriftEvent> {
        // Frequency JSD with consecutive-confirmation.
        self.scores.jsd = self.reference.jensen_shannon(&self.current);
        obs::gauge("drift.jsd", self.scores.jsd);
        if self.scores.jsd > self.config.jsd_threshold {
            self.jsd_streak += 1;
        } else {
            self.jsd_streak = 0;
        }
        if armed && self.jsd_streak >= self.config.confirm {
            return Some(self.fire(
                Detector::FrequencyJsd,
                self.scores.jsd,
                self.config.jsd_threshold,
            ));
        }

        // EWMA hit rate with arm/collapse hysteresis.
        let (hits, known) = self
            .window
            .iter()
            .fold((0u64, 0u64), |(h, k), e| match e.hit {
                Some(true) => (h + 1, k + 1),
                Some(false) => (h, k + 1),
                None => (h, k),
            });
        if known > 0 {
            let rate = hits as f64 / known as f64;
            let ewma = match self.ewma_hit {
                Some(prev) => self.config.ewma_alpha * rate + (1.0 - self.config.ewma_alpha) * prev,
                None => rate,
            };
            self.ewma_hit = Some(ewma);
            self.scores.ewma_hit_rate = ewma;
            obs::gauge("drift.ewma_hit_rate", ewma);
            if ewma >= self.config.hit_arm {
                self.hit_armed = true;
            }
            if armed && self.hit_armed && ewma <= self.config.hit_collapse {
                return Some(self.fire(Detector::HitRateCollapse, ewma, self.config.hit_collapse));
            }
        }
        None
    }

    /// Records an alarm and starts the cooldown: every detector state that
    /// accumulates toward an alarm is reset so one regime change cannot
    /// cascade into a train of alarms.
    fn fire(&mut self, detector: Detector, score: f64, threshold: f64) -> DriftEvent {
        let event = DriftEvent {
            detector,
            at_query: self.observed,
            score,
            threshold,
        };
        obs::counter(
            match detector {
                Detector::FrequencyJsd => "drift.alarm.jsd",
                Detector::HitRateCollapse => "drift.alarm.hit_rate",
                Detector::LatencyChangePoint => "drift.alarm.latency",
            },
            1,
        );
        self.quiet_until = self.observed + self.config.cooldown as u64;
        self.jsd_streak = 0;
        self.hit_armed = false;
        self.ph_cum = 0.0;
        self.ph_min = 0.0;
        self.events.push(event.clone());
        event
    }

    /// Replaces the reference profile (after a re-tune adopted the new
    /// regime) and clears accumulated detector state. Latency baselines
    /// are kept: statement means are regime-independent descriptions of
    /// the statements themselves, and the post-re-tune database is the
    /// same one the baselines were learned on.
    pub fn rebase(&mut self, reference: Profile) {
        self.reference = reference;
        self.preset_reference = true;
        self.jsd_streak = 0;
        self.hit_armed = false;
        self.ewma_hit = None;
        self.ph_cum = 0.0;
        self.ph_min = 0.0;
        self.quiet_until = self.observed + self.config.cooldown as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_common::secs;

    fn obs_with(features: &[u64], tag: u64, latency: f64, hit: Option<bool>) -> QueryObservation {
        QueryObservation {
            features: features.to_vec(),
            tag,
            latency: secs(latency),
            plan_cache_hit: hit,
        }
    }

    fn tiny() -> DriftConfig {
        DriftConfig {
            window: 8,
            stride: 4,
            warmup: 8,
            cooldown: 16,
            ..Default::default()
        }
    }

    #[test]
    fn stable_stream_never_alarms() {
        let mut m = DriftMonitor::new(tiny());
        for i in 0..500 {
            let f = [1, 2, (i % 3) + 10];
            assert!(m.observe(&obs_with(&f, i % 3, 1.0, Some(true))).is_none());
        }
        assert!(m.events().is_empty());
    }

    #[test]
    fn frequency_shift_fires_jsd() {
        let mut m = DriftMonitor::new(tiny());
        for i in 0..100u64 {
            m.observe(&obs_with(&[1, 2, 3], i % 4, 1.0, Some(true)));
        }
        let mut fired = None;
        for i in 0..100u64 {
            if let Some(e) = m.observe(&obs_with(&[7, 8, 9], 100 + i % 4, 1.0, Some(true))) {
                fired = Some(e);
                break;
            }
        }
        let e = fired.expect("disjoint feature shift must alarm");
        assert_eq!(e.detector, Detector::FrequencyJsd);
        assert!(e.score > e.threshold);
    }

    #[test]
    fn hit_rate_collapse_requires_prior_arming() {
        // Never-cached stream: the collapse detector must stay silent.
        let mut m = DriftMonitor::new(tiny());
        for i in 0..200u64 {
            let e = m.observe(&obs_with(&[1, 2], i % 4, 1.0, Some(false)));
            assert!(e.is_none(), "unarmed collapse fired at {i}");
        }

        // Well-cached then cold: must fire HitRateCollapse. Keep features
        // and latency constant so the other detectors stay quiet.
        let mut m = DriftMonitor::new(tiny());
        for i in 0..100u64 {
            m.observe(&obs_with(&[1, 2], i % 4, 1.0, Some(true)));
        }
        let mut fired = None;
        for i in 0..200u64 {
            if let Some(e) = m.observe(&obs_with(&[1, 2], i % 4, 1.0, Some(false))) {
                fired = Some(e);
                break;
            }
        }
        assert_eq!(
            fired.expect("collapse must fire").detector,
            Detector::HitRateCollapse
        );
    }

    #[test]
    fn latency_jump_fires_page_hinkley() {
        let mut m = DriftMonitor::new(tiny());
        for i in 0..100u64 {
            m.observe(&obs_with(&[1, 2], i % 4, 1.0, Some(true)));
        }
        let mut fired = None;
        for i in 0..200u64 {
            // Same statements, 10× slower: residuals jump one decade.
            if let Some(e) = m.observe(&obs_with(&[1, 2], i % 4, 10.0, Some(true))) {
                fired = Some(e);
                break;
            }
        }
        assert_eq!(
            fired.expect("latency jump must fire").detector,
            Detector::LatencyChangePoint
        );
    }

    #[test]
    fn cooldown_suppresses_alarm_trains() {
        let mut m = DriftMonitor::new(DriftConfig {
            cooldown: 1000,
            ..tiny()
        });
        for i in 0..100u64 {
            m.observe(&obs_with(&[1, 2], i % 4, 1.0, Some(true)));
        }
        let mut count = 0;
        for i in 0..200u64 {
            if m.observe(&obs_with(&[7, 8], i % 4, 1.0, Some(true)))
                .is_some()
            {
                count += 1;
            }
        }
        assert_eq!(count, 1, "cooldown must cap one alarm per regime change");
    }

    #[test]
    fn replay_is_byte_identical() {
        let run = || {
            let mut m = DriftMonitor::new(tiny());
            let mut events = Vec::new();
            for i in 0..400u64 {
                let f = if i < 200 { [1, 2] } else { [3, 4] };
                let lat = if i < 300 { 1.0 } else { 4.0 };
                if let Some(e) = m.observe(&obs_with(&f, i % 5, lat, Some(i % 2 == 0))) {
                    events.push(e);
                }
            }
            (events, m.scores())
        };
        let (e1, s1) = run();
        let (e2, s2) = run();
        assert_eq!(e1, e2);
        assert_eq!(s1, s2);
        assert!(!e1.is_empty());
    }
}
