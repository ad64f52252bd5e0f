//! Online accuracy auditing — exact ground truth alongside NIPS, live.
//!
//! The paper evaluates NIPS/CI offline: run the stream once through the
//! estimator, once through [`ExactCounter`], compare at the end (§6).  The
//! auditor moves that comparison *into* the stream: it shadows a sampled
//! subset of `A`-itemsets with exact per-key state and, every `cadence`
//! rows, scales the sampled exact figure up to a full-stream one and
//! journals the relative error of the estimator's answer at that moment.
//! The audited figure is the one the query reports
//! ([`reporting`](AccuracyAuditor::reporting)): `S` by default, `S̄` for a
//! complement query, `F0^sup` for a distinct count.  The result is an
//! error *trajectory* — how accuracy evolves as the stream grows — for the
//! cost of `F0(A) / sample_one_in` exact entries instead of `F0(A)`.
//!
//! A driver may feed the projected fields or, as the `implicate` CLI
//! does, the `(h_a, b_fp)` pair the estimator ingests as `[h_a]` and
//! `[b_fp]`.  At `sample_one_in = 1` both give the same counts (a 64-bit
//! hash merges two itemsets with negligible probability; a unit test pins
//! this on the Figure 4 workload); above 1 the inclusion test hashes
//! `h_a`, so the subset differs from a field-keyed one.
//!
//! # Sampling semantics and bias
//!
//! Keys enter the shadow set by a hash-range test (`hash(a) mod k == 0`
//! with an auditor-private seed), so inclusion is a deterministic property
//! of the itemset — every row of a sampled key is observed, which is what
//! exact per-key semantics (dirty-forever, multiplicity policies) require.
//! Scaling the sampled implication count by `k` yields an unbiased
//! estimate of the total **only under the hash-uniformity assumption**;
//! two caveats are inherent:
//!
//! * **Small-sample variance.**  With `s` sampled keys the scaled count
//!   has relative standard deviation ≈ `1/√s` on top of the estimator's
//!   own error; early in the stream (few distinct keys seen) audit
//!   figures are noisy.  Prefer `sample_one_in = 1` (audit every key)
//!   unless exact-state memory is the constraint being studied.
//! * **Correlated skew.**  If satisfaction probability correlates with
//!   the hash (it should not, for a mixing hash, but adversarial key sets
//!   exist), the scaled figure is biased.  The auditor seed is distinct
//!   from every estimator seed so NIPS's own hashing cannot induce such
//!   correlation.
//!
//! Each audit emits a [`TraceEvent::AuditSample`] into the estimator's
//! journal (when tracing is active) and is retained in memory for
//! [`AccuracyAuditor::samples`] / [`AccuracyAuditor::final_error`].
//! See `DESIGN.md` §8.3 for the journal schema.

use imp_core::{ImplicationConditions, QueryKind, SpanKind, TraceEvent, TraceHandle};
use imp_sketch::estimate::relative_error;
use imp_sketch::hash::{Hasher64, MixHasher};

use crate::exact::ExactCounter;
use crate::ImplicationCounter;

/// Auditor-private hash seed for the key-inclusion test.  Distinct from
/// the estimator's bitmap seeds and the CLI field hasher so sampling is
/// independent of everything NIPS does with the same key.
const AUDIT_SAMPLE_SEED: u64 = 0x5eed_a0d1;

/// One relative-error observation taken at a cadence boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorSample {
    /// Stream position (rows ingested) when the audit ran.
    pub position: u64,
    /// Scaled exact figure of the audited kind at that position.
    pub exact: f64,
    /// The estimator's answer at that position.
    pub estimated: f64,
    /// `|exact − estimated| / |exact|` (∞ when exact is 0 and the
    /// estimate is not; 0 when both are 0).
    pub rel_error: f64,
}

/// Runs [`ExactCounter`] ground truth alongside an estimator on a sampled
/// key subset, recording relative error at a fixed row cadence.
///
/// The auditor never touches the estimator: the driver feeds it the same
/// `(a, b)` projections, or the hashed pairs the estimator ingests (see
/// the module docs), via [`observe`](Self::observe), asks
/// [`due`](Self::due) at row boundaries, and hands the current estimate to
/// [`audit`](Self::audit).  This keeps it usable against any
/// [`ImplicationCounter`], not just NIPS.
///
/// ```
/// use imp_baselines::{audit::AccuracyAuditor, ExactCounter, ImplicationCounter};
/// use imp_core::ImplicationConditions;
///
/// let cond = ImplicationConditions::strict_one_to_one(1);
/// let mut auditor = AccuracyAuditor::new(cond.clone(), 2, 1);
/// let mut exact = ExactCounter::new(cond);
/// for row in 0..4u64 {
///     let (a, b) = ([row % 2], [7u64]);
///     exact.update(&a, &b);
///     auditor.observe(&a, &b);
///     if auditor.due() {
///         auditor.audit(exact.implication_count());
///     }
/// }
/// // Auditing the exact counter against itself: error is zero.
/// assert_eq!(auditor.final_error(), Some(0.0));
/// assert_eq!(auditor.samples().len(), 2);
/// ```
#[derive(Debug)]
pub struct AccuracyAuditor {
    exact: ExactCounter,
    kind: QueryKind,
    hasher: MixHasher,
    cadence: u64,
    sample_one_in: u64,
    rows: u64,
    sampled_rows: u64,
    samples: Vec<ErrorSample>,
    trace: TraceHandle,
}

impl AccuracyAuditor {
    /// Creates an auditor that audits every `cadence` rows, shadowing one
    /// in `sample_one_in` distinct `A`-itemsets exactly.
    ///
    /// Both `cadence` and `sample_one_in` are clamped to at least 1;
    /// `sample_one_in == 1` means every key is shadowed (no scaling, no
    /// sampling variance).  It audits `S` unless [`reporting`](Self::reporting)
    /// says otherwise.
    pub fn new(cond: ImplicationConditions, cadence: u64, sample_one_in: u64) -> Self {
        Self {
            exact: ExactCounter::new(cond),
            kind: QueryKind::Implication,
            hasher: MixHasher::new(AUDIT_SAMPLE_SEED),
            cadence: cadence.max(1),
            sample_one_in: sample_one_in.max(1),
            rows: 0,
            sampled_rows: 0,
            samples: Vec::new(),
            trace: TraceHandle::disabled(),
        }
    }

    /// Audits the figure a `kind` query reports: `S`, `S̄` or `F0^sup`.
    #[must_use]
    pub fn reporting(mut self, kind: QueryKind) -> Self {
        self.kind = kind;
        self
    }

    /// Attaches a trace journal; subsequent audits emit
    /// [`TraceEvent::AuditSample`] and an `audit` span per observation.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// The audit cadence in rows.
    pub fn cadence(&self) -> u64 {
        self.cadence
    }

    /// Rows observed so far.
    pub fn rows_seen(&self) -> u64 {
        self.rows
    }

    /// Rows that fell inside the shadowed key subset.
    pub fn sampled_rows(&self) -> u64 {
        self.sampled_rows
    }

    /// Distinct shadowed itemsets currently held (the auditor's memory).
    pub fn shadowed_keys(&self) -> usize {
        self.exact.distinct_items()
    }

    /// Feeds one `(a, b)` pair: projected fields, or `[h_a]` and `[b_fp]`.
    /// Returns `true` when the key is in the shadow sample (and exact
    /// state was updated).
    pub fn observe(&mut self, a: &[u64], b: &[u64]) -> bool {
        self.rows += 1;
        let k = self.sample_one_in;
        let included = k == 1 || self.hasher.hash_slice(a).is_multiple_of(k);
        if included {
            self.sampled_rows += 1;
            self.exact.update(a, b);
        }
        included
    }

    /// Whether the current row count sits on a cadence boundary (and an
    /// [`audit`](Self::audit) call is expected).
    pub fn due(&self) -> bool {
        self.rows > 0 && self.rows.is_multiple_of(self.cadence)
    }

    /// Compares the estimator's answer against the scaled exact figure of
    /// the audited kind, records the sample, and journals it.
    pub fn audit(&mut self, estimated: f64) -> ErrorSample {
        let span = self.trace.span(SpanKind::Audit);
        let exact = self.scaled_exact_count();
        let sample = ErrorSample {
            position: self.rows,
            exact,
            estimated,
            rel_error: relative_error(exact, estimated),
        };
        self.samples.push(sample);
        self.trace.record(|| TraceEvent::AuditSample {
            position: sample.position,
            exact: sample.exact,
            rel_error: sample.rel_error,
        });
        drop(span);
        sample
    }

    /// The sampled exact figure of the audited kind, scaled up.
    pub fn scaled_exact_count(&self) -> f64 {
        let exact = match self.kind {
            QueryKind::DistinctCount => self.exact.exact_f0_sup(),
            QueryKind::Implication => self.exact.exact_implication_count(),
            QueryKind::Complement => self.exact.exact_non_implication_count(),
        };
        exact as f64 * self.sample_one_in as f64
    }

    /// Every audit taken so far, in stream order.
    pub fn samples(&self) -> &[ErrorSample] {
        &self.samples
    }

    /// The relative error of the most recent audit, if any ran.
    pub fn final_error(&self) -> Option<f64> {
        self.samples.last().map(|s| s.rel_error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_core::EstimatorConfig;

    fn strict() -> ImplicationConditions {
        ImplicationConditions::strict_one_to_one(1)
    }

    #[test]
    fn audits_fire_exactly_on_cadence_boundaries() {
        let mut auditor = AccuracyAuditor::new(strict(), 100, 1);
        let mut fired = Vec::new();
        for row in 0..350u64 {
            auditor.observe(&[row % 7], &[row % 3]);
            if auditor.due() {
                fired.push(auditor.audit(0.0).position);
            }
        }
        assert_eq!(fired, vec![100, 200, 300]);
        assert_eq!(auditor.samples().len(), 3);
    }

    #[test]
    fn unsampled_auditor_matches_standalone_exact_counter() {
        let cond = strict();
        let mut auditor = AccuracyAuditor::new(cond, 50, 1);
        let mut reference = ExactCounter::new(cond);
        for row in 0..200u64 {
            let (a, b) = ([row % 20], [row % 4]);
            auditor.observe(&a, &b);
            reference.update(&a, &b);
        }
        assert_eq!(
            auditor.scaled_exact_count(),
            reference.exact_implication_count() as f64
        );
        assert_eq!(auditor.shadowed_keys(), reference.distinct_items());
    }

    #[test]
    fn sampling_shadows_a_strict_key_subset_and_scales() {
        let mut auditor = AccuracyAuditor::new(strict(), 1000, 4);
        for row in 0..4000u64 {
            // 400 distinct keys, each strictly implying one partner.
            auditor.observe(&[row % 400], &[(row % 400) * 2]);
        }
        assert!(auditor.shadowed_keys() < 400, "subset only");
        assert!(
            auditor.shadowed_keys() > 0,
            "hash range should hit some keys"
        );
        assert!(auditor.sampled_rows() < auditor.rows_seen());
        // Every key satisfies, so scaled exact ≈ 400 up to sampling noise.
        let scaled = auditor.scaled_exact_count();
        assert!(
            (scaled - 400.0).abs() / 400.0 < 0.5,
            "scaled {scaled} should be within sampling noise of 400"
        );
    }

    #[test]
    fn audit_against_live_estimator_converges_on_skewless_workload() {
        // 2000 loyal keys (one partner each): exact implication count is
        // 2000 once every key has ≥1 row.  NIPS should land within the
        // PCSA error envelope; the auditor's trajectory must report that.
        let cond = strict();
        let mut est = EstimatorConfig::new(cond).build();
        let mut auditor = AccuracyAuditor::new(cond, 10_000, 1);
        for row in 0..40_000u64 {
            let a = [row % 2000];
            let b = [(row % 2000) + 1_000_000];
            est.update(&a, &b);
            auditor.observe(&a, &b);
            if auditor.due() {
                auditor.audit(ImplicationCounter::implication_count(&est));
            }
        }
        assert_eq!(auditor.samples().len(), 4);
        let last = auditor.final_error().unwrap();
        // PCSA with m=64 bitmaps: standard error ≈ 0.78/√64 ≈ 9.8%; allow
        // a generous 4σ so the seed-deterministic draw cannot flake.
        assert!(last < 0.40, "final relative error {last} out of band");
    }

    #[test]
    fn audit_on_fig4_workload_lands_in_the_paper_band() {
        // The Figure 4 setting (Dataset One, c = 1): ‖A‖ = 1000 itemsets,
        // 500 planted implicators, paper conditions (σ = 50, ψ = 90%).
        // The audit trajectory must journal samples all along the stream
        // and end within the configured-bitmap error band: PCSA with
        // m = 64 has per-count standard error ≈ 0.78/√64 ≈ 9.8%, and
        // S = F0^sup − S̄ differencing roughly doubles it at S/‖A‖ = ½ —
        // the paper reports ≈ 10% mean error in this regime (Fig. 4).
        let spec = imp_datagen::DatasetOneSpec::paper(1000, 500, 1, 77);
        let data = imp_datagen::DatasetOne::generate(&spec);
        let cond = spec.paper_conditions();
        let mut est = EstimatorConfig::new(cond).seed(9).build();
        let cadence = (data.pairs.len() / 4) as u64;
        let mut auditor = AccuracyAuditor::new(cond, cadence, 1);
        for &(a, b) in &data.pairs {
            est.update(&[a], &[b]);
            auditor.observe(&[a], &[b]);
            if auditor.due() {
                auditor.audit(ImplicationCounter::implication_count(&est));
            }
        }
        // The stream length is not a cadence multiple, so the last due()
        // boundary falls a few rows short of the end — close with an
        // end-of-stream audit so the final sample covers every row (the
        // tail rows are exactly the last support tuples of a few planted
        // implicators).
        if !auditor.rows_seen().is_multiple_of(auditor.cadence()) {
            auditor.audit(ImplicationCounter::implication_count(&est));
        }
        assert!(auditor.samples().len() >= 4);
        // Mid-stream the planted implicators are still below support, so
        // early samples legitimately disagree — only the final matters.
        let last = auditor.samples().last().unwrap();
        // The planted count is a sanity figure, not the authoritative S:
        // under the streaming dirty-forever semantics a planted implicator
        // can transiently dip below ψ on an unlucky shuffle prefix (see the
        // imp_datagen::dataset_one module docs), so the exact counter may
        // fall a hair short of 500. Require agreement within 2%.
        let planted = data.planted_count as f64;
        assert!(
            (last.exact - planted).abs() / planted < 0.02,
            "ground truth {} strayed from the planted count {planted}",
            last.exact
        );
        let err = auditor.final_error().unwrap();
        assert!(err < 0.40, "final relative error {err} out of the ε band");
    }

    #[test]
    fn hashed_pairs_shadow_like_projected_fields_on_fig4() {
        // Keying on the `(h_a, b_fp)` pair the estimator ingests changes
        // nothing at full shadow: every kind's exact figure and the
        // shadowed key count agree with an auditor fed the fields.
        let spec = imp_datagen::DatasetOneSpec::paper(1000, 500, 1, 77);
        let data = imp_datagen::DatasetOne::generate(&spec);
        let cond = spec.paper_conditions();
        let pairs = EstimatorConfig::new(cond).seed(9).build().pair_hasher();
        let cadence = (data.pairs.len() / 8) as u64;
        for kind in [
            QueryKind::Implication,
            QueryKind::Complement,
            QueryKind::DistinctCount,
        ] {
            let mut fields = AccuracyAuditor::new(cond, cadence, 1).reporting(kind);
            let mut hashed = AccuracyAuditor::new(cond, cadence, 1).reporting(kind);
            for &(a, b) in &data.pairs {
                fields.observe(&[a], &[b]);
                let (h_a, b_fp) = pairs.hash_pair(&[a], &[b]);
                hashed.observe(&[h_a], &[b_fp]);
                if fields.due() {
                    let exact = fields.scaled_exact_count();
                    assert_eq!(hashed.scaled_exact_count(), exact, "{kind:?}");
                }
            }
            assert_eq!(hashed.scaled_exact_count(), fields.scaled_exact_count());
            assert_eq!(hashed.shadowed_keys(), fields.shadowed_keys());
            assert_eq!(hashed.sampled_rows(), fields.sampled_rows());
        }
    }

    #[test]
    fn each_kind_audits_the_figure_it_reports() {
        // 30 loyal keys, 20 keys with two partners: S = 30, S̄ = 20,
        // F0^sup = 50.
        let cond = strict();
        let mut auditors = [
            QueryKind::Implication,
            QueryKind::Complement,
            QueryKind::DistinctCount,
        ]
        .map(|kind| AccuracyAuditor::new(cond, 1, 1).reporting(kind));
        for key in 0..50u64 {
            for partner in [0, u64::from(key >= 30)] {
                auditors.iter_mut().for_each(|a| {
                    a.observe(&[key], &[partner]);
                });
            }
        }
        let exact = auditors.map(|a| a.scaled_exact_count());
        assert_eq!(exact, [30.0, 20.0, 50.0]);
    }

    #[test]
    fn audits_journal_into_an_attached_trace() {
        let mut auditor = AccuracyAuditor::new(strict(), 10, 1);
        let trace = TraceHandle::with_capacity(1 << 10);
        auditor.set_trace(trace.clone());
        for row in 0..30u64 {
            auditor.observe(&[row], &[row]);
            if auditor.due() {
                auditor.audit(auditor.scaled_exact_count());
            }
        }
        let journal = trace.journal().expect("journal attached");
        let audits: Vec<_> = journal
            .events()
            .into_iter()
            .filter_map(|t| match t.event {
                TraceEvent::AuditSample { position, .. } => Some(position),
                _ => None,
            })
            .collect();
        assert_eq!(audits, vec![10, 20, 30]);
    }
}
