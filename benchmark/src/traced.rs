//! Span-recording wrappers around the fuzz-target seam.
//!
//! Every driver in `iris_fuzzer` is generic over [`TargetFactory`], so
//! passing a [`TracedFactory`] into the *real* `ParallelCampaign` /
//! `SlotContext` code measures the target layer from outside: no file
//! of the program changes. The wrapper forwards every call (including
//! `forest()` and `name()`), so a traced run produces the same bytes as
//! an untraced one.

use crate::span::{Recorder, Span};
use iris_core::forest::{ForestConfig, StateId};
use iris_core::seed::VmSeed;
use iris_fuzzer::target::{BootPlan, FuzzTarget, SubmitOutcome, TargetFactory};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Span name of one build-to-drop target lifetime: under
/// `ParallelCampaign` that is exactly one `run_mutant_range_with` chunk.
pub const CHUNK: &str = "fuzzer.campaign.chunk";
/// Span name of `FuzzTarget::boot`.
pub const BOOT: &str = "fuzzer.target.boot";
/// Span name of `FuzzTarget::submit`.
pub const SUBMIT: &str = "fuzzer.target.submit";
/// Span name of a `reset` that follows a clean submission.
pub const RESET_CLEAN: &str = "fuzzer.target.reset_clean";
/// Span name of a `reset` that follows a crashing submission (includes
/// the full rebuild when the crash killed the hypervisor).
pub const RESET_AFTER_CRASH: &str = "fuzzer.target.reset_after_crash";
/// Span name of `FuzzTarget::pin_state`.
pub const PIN_STATE: &str = "fuzzer.target.pin_state";
/// Span name of `FuzzTarget::reset_to`.
pub const RESET_TO: &str = "fuzzer.target.reset_to";

/// A [`TargetFactory`] that builds span-recording targets.
#[derive(Debug, Clone)]
pub struct TracedFactory<F> {
    inner: F,
    rec: Arc<Recorder>,
    /// When set, each built target also records one span for its whole
    /// build-to-drop lifetime and parents its call spans under it — the
    /// shape for executor-driven runs, where the harness cannot open a
    /// span around the worker's chunk itself. When unset, call spans
    /// attach to the harness's innermost open span (hand-driven loops).
    lifetime: Option<&'static str>,
}

impl<F: TargetFactory> TracedFactory<F> {
    /// Wrap `inner`; call spans attach to the recorder's current span.
    pub fn new(inner: F, rec: &Arc<Recorder>) -> Self {
        Self {
            inner,
            rec: Arc::clone(rec),
            lifetime: None,
        }
    }

    /// Also record each target's lifetime as a span named `name`.
    pub fn with_lifetime_span(mut self, name: &'static str) -> Self {
        self.lifetime = Some(name);
        self
    }
}

impl<F: TargetFactory> TargetFactory for TracedFactory<F> {
    type Target<'t> = TracedTarget<F::Target<'t>>;

    fn build<'t>(&self, plan: BootPlan<'t>) -> Self::Target<'t> {
        let lifetime = self.lifetime.map(|name| Span {
            id: self.rec.alloc_id(),
            parent: self.rec.current(),
            name,
            start_ns: self.rec.now_ns(),
            end_ns: 0,
        });
        TracedTarget {
            inner: self.inner.build(plan),
            rec: Arc::clone(&self.rec),
            prefix: plan.prefix as u64,
            lifetime,
            spans: Vec::new(),
            last_crashed: false,
        }
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn description(&self) -> &'static str {
        self.inner.description()
    }

    fn forest(&self) -> Option<ForestConfig> {
        self.inner.forest()
    }
}

/// A [`FuzzTarget`] that times every call into the target it wraps.
/// Spans are buffered locally and flushed to the recorder on drop, so a
/// worker thread takes the shared lock once per target, not per call.
#[derive(Debug)]
pub struct TracedTarget<T> {
    inner: T,
    rec: Arc<Recorder>,
    prefix: u64,
    lifetime: Option<Span>,
    spans: Vec<Span>,
    /// Whether the latest submission crashed — what tells a recovery
    /// `reset` from a clean one.
    last_crashed: bool,
}

impl<T> TracedTarget<T> {
    /// The wrapped target, for calls the harness wants left untimed
    /// (per-seed spans would dwarf a 0.5 µs replayed seed).
    pub fn untraced(&mut self) -> &mut T {
        &mut self.inner
    }

    fn timed<R>(&mut self, name: &'static str, call: impl FnOnce(&mut T) -> R) -> R {
        let id = self.rec.alloc_id();
        let parent = self
            .lifetime
            .as_ref()
            .map_or_else(|| self.rec.current(), |l| l.id);
        let start_ns = self.rec.now_ns();
        let out = call(&mut self.inner);
        let end_ns = self.rec.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        out
    }
}

impl<T: FuzzTarget> FuzzTarget for TracedTarget<T> {
    fn boot(&mut self) {
        self.rec
            .counters
            .boot_prefix_seeds
            .fetch_add(self.prefix, Ordering::Relaxed);
        self.timed(BOOT, T::boot);
    }

    fn submit(&mut self, seed: &VmSeed) -> SubmitOutcome {
        let out = self.timed(SUBMIT, |t| t.submit(seed));
        self.last_crashed = out.crash.is_some();
        self.rec
            .counters
            .sim_cycles
            .fetch_add(out.cycles, Ordering::Relaxed);
        out
    }

    fn reset(&mut self) {
        let name = if self.last_crashed {
            RESET_AFTER_CRASH
        } else {
            RESET_CLEAN
        };
        self.last_crashed = false;
        self.timed(name, T::reset);
    }

    fn pin_state(&mut self) -> Option<StateId> {
        self.timed(PIN_STATE, T::pin_state)
    }

    fn reset_to(&mut self, id: StateId) -> bool {
        let restored = self.timed(RESET_TO, |t| t.reset_to(id));
        if restored {
            self.last_crashed = false;
        }
        restored
    }
}

impl<T> Drop for TracedTarget<T> {
    fn drop(&mut self) {
        if let Some(mut lifetime) = self.lifetime.take() {
            lifetime.end_ns = self.rec.now_ns();
            self.spans.push(lifetime);
        }
        self.rec.flush(&mut self.spans);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::aggregate;
    use iris_fuzzer::guided::{run_guided_shared_with, GuidedConfig};
    use iris_fuzzer::parallel::ParallelCampaign;
    use iris_fuzzer::target::{record_trace, Backend, ConfiguredBackend, IrisHvTarget};
    use iris_fuzzer::{SeedArea, TestCase};
    use iris_guest::workloads::Workload;
    use std::collections::BTreeMap;

    #[test]
    fn wrapper_forwards_name_description_and_forest() {
        let rec = Recorder::new();
        let plain = ConfiguredBackend::new(Backend::Iris);
        let forest = plain.with_forest(Some(ForestConfig::default()));
        let traced = TracedFactory::new(forest, &rec);
        assert_eq!(traced.name(), forest.name());
        assert_eq!(traced.description(), forest.description());
        assert_eq!(traced.forest(), forest.forest());
        assert!(traced.forest().is_some());
        assert_eq!(TracedFactory::new(plain, &rec).forest(), None);
    }

    #[test]
    fn traced_campaign_is_byte_identical_and_counts_every_call() {
        let trace = record_trace(Workload::OsBoot, 60, 7);
        let plan: Vec<TestCase> = [5usize, 20]
            .iter()
            .map(|&idx| TestCase {
                mutants: 24,
                ..TestCase::new(
                    Workload::OsBoot,
                    idx,
                    trace.seeds[idx].reason,
                    SeedArea::Vmcs,
                    7 ^ idx as u64,
                )
            })
            .collect();
        let plain = ParallelCampaign::new(1)
            .with_chunk(8)
            .run_trace(&trace, &plan);

        let rec = Recorder::new();
        let factory = TracedFactory::new(IrisHvTarget::default(), &rec).with_lifetime_span(CHUNK);
        let traced = ParallelCampaign::with_factory(1, factory)
            .with_chunk(8)
            .run_trace(&trace, &plan);
        assert_eq!(
            serde_json::to_string(&traced).unwrap(),
            serde_json::to_string(&plain).unwrap()
        );

        let mut stats = BTreeMap::new();
        aggregate(&rec.drain(), &mut stats);
        let crashes = plain.failures.vm_crashes + plain.failures.hv_crashes;
        // 2 cells × 24 mutants / 8 per chunk: one build + boot per chunk.
        assert_eq!(stats[CHUNK].n, 6);
        assert_eq!(stats[BOOT].n, 6);
        // One baseline per chunk, one per mutant, one re-baseline per crash.
        assert_eq!(stats[SUBMIT].n, 6 + 48 + crashes);
        // The campaign driver resets only to recover.
        assert_eq!(stats.get(RESET_AFTER_CRASH).map_or(0, |s| s.n), crashes);
        assert!(!stats.contains_key(RESET_CLEAN));
        let counters = &rec.counters;
        assert_eq!(
            counters.boot_prefix_seeds.load(Ordering::Relaxed),
            3 * 5 + 3 * 20
        );
        assert!(counters.sim_cycles.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn traced_forest_guided_run_matches_the_untraced_digest() {
        let trace = record_trace(Workload::OsBoot, 80, 3);
        let config = GuidedConfig {
            budget: 96,
            generation: 32,
            rng_seed: 3,
            ..GuidedConfig::default()
        };
        let forest =
            ConfiguredBackend::new(Backend::Iris).with_forest(Some(ForestConfig::default()));
        let plain = run_guided_shared_with(&forest, &trace, config, 1);
        let rec = Recorder::new();
        let traced = run_guided_shared_with(&TracedFactory::new(forest, &rec), &trace, config, 1);
        assert_eq!(
            serde_json::to_string(&traced).unwrap(),
            serde_json::to_string(&plain).unwrap()
        );
        let mut stats = BTreeMap::new();
        aggregate(&rec.drain(), &mut stats);
        // The forest was live behind the wrapper: the probe in
        // `SlotContext::new` plus real restores.
        assert!(stats[RESET_TO].n >= 3);
        // One mutant per slot plus the baseline pass and path replays.
        assert!(stats[SUBMIT].n >= 96);
    }
}
