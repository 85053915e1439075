//! The pluggable fuzz-target API.
//!
//! The paper's core claim is that record/replay fuzzing is
//! *hypervisor-agnostic*: the vmread/vmwrite interposition surface (§V-A)
//! is the only contract between the fuzzer and the system under test.
//! [`FuzzTarget`] is that contract as a trait — it owns the whole SUT
//! lifecycle the campaign drivers used to hand-roll:
//!
//! * [`FuzzTarget::boot`] — bring the SUT up and reach the fuzzing start
//!   state `s1` of Fig. 11 (build the stack, optionally fast-forward the
//!   dummy VM's boot, replay the seed prefix, snapshot `s1`);
//! * [`FuzzTarget::submit`] — submit one VM seed and report what happened
//!   (coverage touched, crash verdict, cycle cost);
//! * [`FuzzTarget::reset`] — restore `s1` in O(dirty state): the dummy
//!   VM alone while the SUT survives, the whole stack in place if the
//!   SUT itself died. Nothing is rebuilt.
//!
//! A [`TargetFactory`] builds private target instances, one per worker
//! and test case, which is what lets [`crate::parallel::ParallelCampaign`]
//! keep its byte-identical jobs=1/2/8 determinism guarantee: every test
//! case runs on a fresh, self-contained instance whatever thread it lands
//! on.
//!
//! Drivers are **generic** over the factory, so the per-exit hot path is
//! statically dispatched — the trait adds no per-exit cost over calling
//! the replay engine directly (PERFORMANCE.md §4: `core.replay.submit.ns`
//! against `fuzzer.target.submit.ns` in `benchmark/`).
//!
//! Two backends ship in-tree, enumerated by [`Backend`]:
//!
//! * [`Backend::Iris`] — the stock hypervisor model (also built by
//!   [`IrisHvTarget`], which sizes the dummy VM);
//! * [`Backend::Faulty`] — the same hypervisor built with
//!   [`FaultInjection::planted`] defects, giving Table I campaigns a
//!   ground truth: [`detect_planted_faults`] states exactly which known
//!   bugs a crash corpus found.

use crate::corpus::{Corpus, CrashRecord};
use crate::failure::{classify, FailureKind};
use iris_core::forest::{ForestConfig, SnapshotForest, StateId};
use iris_core::record::Recorder;
use iris_core::replay::ReplayEngine;
use iris_core::seed::VmSeed;
use iris_core::trace::RecordedTrace;
use iris_guest::runner::fast_forward_boot;
use iris_guest::workloads::Workload;
use iris_hv::coverage::CoverageMap;
use iris_hv::faults::{FaultInjection, PlantedFault};
use iris_hv::hypervisor::Hypervisor;
use iris_hv::log::Level;

/// How a target reaches the fuzzing start state `s1`: which recorded
/// trace to replay, how much of it, and whether the dummy VM boots first.
#[derive(Debug, Clone, Copy)]
pub struct BootPlan<'t> {
    /// The recorded trace the prefix comes from.
    pub trace: &'t RecordedTrace,
    /// Seeds `trace.seeds[..prefix]` are replayed after bring-up; `s1` is
    /// the state right before seed `prefix`.
    pub prefix: usize,
    /// Fast-forward the dummy VM's boot before replaying. Campaigns set
    /// this for post-boot workload traces (§VII-1: `s0` is the booted
    /// snapshot); OS BOOT traces boot themselves.
    pub fast_forward: bool,
}

impl<'t> BootPlan<'t> {
    /// The campaign plan for one test case: replay up to (excluding)
    /// `seed_index`, booting first unless the trace is itself a boot.
    ///
    /// # Panics
    /// Panics if `seed_index` is beyond the trace.
    #[must_use]
    pub fn for_test_case(trace: &'t RecordedTrace, seed_index: usize) -> Self {
        assert!(
            seed_index < trace.seeds.len(),
            "seed index beyond the trace"
        );
        Self {
            trace,
            prefix: seed_index,
            fast_forward: !trace.label.contains("BOOT"),
        }
    }

    /// The guided-loop plan: a booted SUT with no replay prefix (`s1` is
    /// the post-boot snapshot).
    #[must_use]
    pub fn post_boot(trace: &'t RecordedTrace) -> Self {
        Self {
            trace,
            prefix: 0,
            fast_forward: true,
        }
    }
}

/// The crash half of a submission verdict. Serializable so distributed
/// workers can ship slot/chunk outcomes over the wire (`crates/dist`).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CrashVerdict {
    /// VM crash or hypervisor crash (the paper's §VII-3 taxonomy).
    pub kind: FailureKind,
    /// The console line the crash left — the corpus dedup signature
    /// component the paper's log-grepping scripts read.
    pub console: String,
}

/// What one [`FuzzTarget::submit`] produced.
#[derive(Debug, Clone)]
pub struct SubmitOutcome {
    /// Coverage the submission touched (framework hits stripped, the
    /// paper's "cleaned up" bitmap).
    pub coverage: CoverageMap,
    /// Crash verdict, if the submission crashed the VM or the SUT.
    pub crash: Option<CrashVerdict>,
    /// Virtual cycles the exit→entry round trip cost.
    pub cycles: u64,
}

/// A system under test that accepts replayed VM seeds.
///
/// The contract every backend must honour (checked by the conformance
/// suite in `tests/target_conformance.rs` for all [`Backend`]s):
///
/// * `boot` is deterministic: two instances built from the same plan are
///   indistinguishable through `submit`;
/// * `reset` restores `s1` exactly — submitting the same seed after a
///   reset reproduces the pre-reset outcome;
/// * submission coverage is reproducible: the same seed from the same
///   state touches the same blocks.
pub trait FuzzTarget {
    /// Bring the SUT up and reach `s1` per the boot plan: build the
    /// stack, replay the prefix, capture the image every later reset
    /// restores. Calling it again starts over from nothing (pinned
    /// states included); no recovery path needs that.
    fn boot(&mut self);

    /// Submit one VM seed through the replay interposition surface.
    ///
    /// # Panics
    /// Panics if the target was never booted.
    fn submit(&mut self, seed: &VmSeed) -> SubmitOutcome;

    /// Restore `s1` in place. While the SUT survives only the dummy VM
    /// is restored (the SUT's clock, console and cumulative coverage run
    /// on); after a SUT-fatal submission the whole stack is, and the
    /// result is indistinguishable from a freshly booted one.
    ///
    /// # Panics
    /// Panics if the target was never booted.
    fn reset(&mut self);

    /// Pin the current state as a snapshot-forest node and return its
    /// id, so a later [`FuzzTarget::reset_to`] can come back to it in
    /// O(delta) instead of O(prefix) replay. `None` when the target has
    /// no forest (the default — forest support is opt-in per backend).
    ///
    /// Drivers must treat pinned nodes as a **pure accelerator**: a
    /// node's state is by construction the state reached by replaying
    /// its seed path from `s1`, so any pin may be dropped (eviction)
    /// and re-derived without changing results.
    fn pin_state(&mut self) -> Option<StateId> {
        None
    }

    /// Restore a previously pinned state in place. Returns `false` —
    /// leaving the target untouched — when the target has no forest or
    /// the node was evicted; the caller then re-derives the state via
    /// [`FuzzTarget::reset`] + seed replay (slower, never wrong). A
    /// SUT-fatal crash is recovered first, like [`FuzzTarget::reset`]
    /// does. This seam is what lets a future
    /// `RemoteTarget` adopt the forest protocol without new driver
    /// code.
    fn reset_to(&mut self, _id: StateId) -> bool {
        false
    }
}

/// Builds private [`FuzzTarget`] instances — the seam the sharded
/// executor fans out over (`Send + Sync` so worker threads can share the
/// factory by reference).
pub trait TargetFactory: Send + Sync {
    /// The target type this factory builds; borrows the plan's trace.
    type Target<'t>: FuzzTarget + 't;

    /// Build an instance for one boot plan. The instance is not yet
    /// booted — drivers call [`FuzzTarget::boot`] explicitly.
    fn build<'t>(&self, plan: BootPlan<'t>) -> Self::Target<'t>;

    /// The backend's registry name (what `--target` selects).
    fn name(&self) -> &'static str;

    /// One-line description for the `targets` listing.
    fn description(&self) -> &'static str;

    /// The snapshot-forest configuration instances built by this
    /// factory enable (`None` = forest off, the default). Drivers use
    /// this to decide whether persistent per-worker targets with pinned
    /// states are worth keeping; either way reports must stay
    /// byte-identical, because the forest is a pure accelerator.
    fn forest(&self) -> Option<ForestConfig> {
        None
    }
}

/// A booted stack plus what takes it back to `s1`.
struct HvStack {
    hv: Hypervisor,
    engine: ReplayEngine,
    /// The whole stack as it stood at `s1` — every domain and hypervisor
    /// global, and the engine. A reset restores the dummy VM from it; a
    /// SUT-fatal crash restores all of it.
    s1_hv: Hypervisor,
    s1_engine: ReplayEngine,
    /// The copy-on-write forest rooted at `s1`, when
    /// [`TargetFactory::forest`] is configured: it then owns the dummy
    /// VM's resets, and [`FuzzTarget::pin_state`] /
    /// [`FuzzTarget::reset_to`] are live.
    forest: Option<SnapshotForest>,
}

impl HvStack {
    /// Undo a SUT-fatal crash by restoring the `s1` image over the dead
    /// stack. Returns whether there was one to undo.
    fn revive(&mut self) -> bool {
        let dead = !self.hv.is_alive();
        if dead {
            self.hv.restore_from(&self.s1_hv);
            self.engine.restore_from(&self.s1_engine);
        }
        dead
    }
}

/// A fuzz target over the in-tree hypervisor model: a dummy VM driven by
/// the [`ReplayEngine`], with the whole stack captured at `s1` for
/// O(dirty state) resets. Both in-tree factories build this type; they differ
/// only in the [`FaultInjection`] configuration baked into the build.
pub struct HvTarget<'t> {
    plan: BootPlan<'t>,
    ram_bytes: u64,
    faults: FaultInjection,
    forest_cfg: Option<ForestConfig>,
    state: Option<HvStack>,
}

impl std::fmt::Debug for HvTarget<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HvTarget")
            .field("trace", &self.plan.trace.label)
            .field("prefix", &self.plan.prefix)
            .field("ram_bytes", &self.ram_bytes)
            .field("faults", &self.faults)
            .field("forest", &self.forest_cfg)
            .field("booted", &self.state.is_some())
            .finish()
    }
}

impl HvTarget<'_> {
    /// The live stack, for inspection (tests compare whole stacks).
    ///
    /// # Panics
    /// Panics if the target was never booted.
    #[must_use]
    pub fn stack(&self) -> (&Hypervisor, &ReplayEngine) {
        let st = self.state.as_ref().expect("boot() the target first");
        (&st.hv, &st.engine)
    }
}

impl FuzzTarget for HvTarget<'_> {
    fn boot(&mut self) {
        let mut hv = Hypervisor::new();
        hv.faults = self.faults;
        // Campaign drivers only consume Err/Crit console lines (the
        // failure classifier's grep); the threshold keeps info-level
        // messages on the submission loop from even being formatted.
        hv.log.set_min_level(Some(Level::Warning));
        let dummy = hv.create_hvm_domain(self.ram_bytes);
        if self.plan.fast_forward {
            fast_forward_boot(&mut hv, dummy);
        }
        let mut engine = ReplayEngine::new(&mut hv, dummy);
        for seed in &self.plan.trace.seeds[..self.plan.prefix] {
            let out = engine.submit(&mut hv, seed);
            debug_assert!(
                out.exit.crash.is_none(),
                "prefix replay must be clean: {:?}",
                out.exit.crash
            );
        }
        let forest = self
            .forest_cfg
            .and_then(|cfg| SnapshotForest::new(&hv, dummy, cfg));
        if forest.is_some() {
            // Tracking starts *after* the root capture so the dirty set
            // measures divergence from `s1`.
            hv.domains[dummy as usize]
                .memory
                .set_page_dirty_tracking(true);
        }
        self.state = Some(HvStack {
            s1_hv: hv.clone(),
            s1_engine: engine.clone(),
            hv,
            engine,
            forest,
        });
    }

    // Inlined so the per-submission `SubmitOutcome` move (the coverage
    // map is a 448-byte value type) can be elided into the caller's slot
    // across the crate boundary — `core.replay.submit.ns` against
    // `fuzzer.target.submit.ns` in `benchmark/`.
    #[inline]
    fn submit(&mut self, seed: &VmSeed) -> SubmitOutcome {
        let st = self.state.as_mut().expect("boot() the target first");
        let out = st.engine.submit(&mut st.hv, seed);
        let crash = classify(out.exit.crash.as_ref(), &st.hv.log).map(|kind| CrashVerdict {
            kind,
            console: st
                .hv
                .log
                .lines()
                .last()
                .map(|l| l.message.clone())
                .unwrap_or_default(),
        });
        SubmitOutcome {
            coverage: out.metrics.coverage,
            crash,
            cycles: out.exit.cycles,
        }
    }

    fn reset(&mut self) {
        // With a forest, `s1` is its root (never evicted). Without one,
        // the `s1` image is restored: the whole stack if the SUT died —
        // which covers the dummy VM — else the dummy VM alone.
        if self.reset_to(StateId::ROOT) {
            return;
        }
        let st = self.state.as_mut().expect("boot() the target first");
        if !st.revive() {
            let dummy = st.engine.domain as usize;
            st.hv.domains[dummy].restore_from(&st.s1_hv.domains[dummy]);
        }
    }

    fn pin_state(&mut self) -> Option<StateId> {
        let st = self.state.as_mut().expect("boot() the target first");
        let forest = st.forest.as_mut()?;
        let id = forest.take_delta(&mut st.hv, st.engine.domain);
        forest.evict_excess(&[id]);
        Some(id)
    }

    fn reset_to(&mut self, id: StateId) -> bool {
        let st = self.state.as_mut().expect("boot() the target first");
        if st.forest.is_none() {
            return false;
        }
        // The restored dummy VM sits at `s1` while the forest still
        // believes it at its last node; every frame the restore rewrote
        // is in the dirty set, which is all `restore_to` relies on.
        st.revive();
        st.forest
            .as_mut()
            .is_some_and(|forest| forest.restore_to(&mut st.hv, st.engine.domain, id))
    }
}

/// Factory for the stock hypervisor backend (registry name `iris`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrisHvTarget {
    /// Guest RAM for the dummy domain.
    pub ram_bytes: u64,
}

impl Default for IrisHvTarget {
    fn default() -> Self {
        Self::with_ram(crate::campaign::DEFAULT_RAM_BYTES)
    }
}

impl IrisHvTarget {
    /// A factory with explicit dummy-VM sizing.
    #[must_use]
    pub fn with_ram(ram_bytes: u64) -> Self {
        Self { ram_bytes }
    }
}

/// The shared constructor every in-tree factory uses: an un-booted
/// [`HvTarget`] over the given plan, sizing, and fault configuration.
fn build_hv_target(plan: BootPlan<'_>, ram_bytes: u64, faults: FaultInjection) -> HvTarget<'_> {
    HvTarget {
        plan,
        ram_bytes,
        faults,
        forest_cfg: None,
        state: None,
    }
}

impl TargetFactory for IrisHvTarget {
    type Target<'t> = HvTarget<'t>;

    fn build<'t>(&self, plan: BootPlan<'t>) -> HvTarget<'t> {
        build_hv_target(plan, self.ram_bytes, FaultInjection::NONE)
    }

    fn name(&self) -> &'static str {
        Backend::Iris.name()
    }

    fn description(&self) -> &'static str {
        Backend::Iris.description()
    }
}

/// The registered backends, selectable by name (`--target`).
///
/// `Backend` itself implements [`TargetFactory`] (with each backend's
/// default sizing), so runtime backend selection is just passing the
/// parsed value to a driver — no per-call-site dispatch match needed:
///
/// ```
/// use iris_fuzzer::parallel::ParallelCampaign;
/// use iris_fuzzer::target::Backend;
///
/// let backend = Backend::parse("faulty").unwrap();
/// let executor = ParallelCampaign::with_factory(2, backend);
/// # let _ = executor;
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The stock hypervisor model (registry name `iris`).
    Iris,
    /// The fault-injection build (registry name `faulty`): the same
    /// hypervisor with [`FaultInjection::planted`] defects, so campaigns
    /// have known bugs to detect.
    Faulty,
}

impl Backend {
    /// Every registered backend, in listing order.
    pub const ALL: [Backend; 2] = [Backend::Iris, Backend::Faulty];

    /// Look a backend up by its registry name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Backend> {
        Backend::ALL.iter().copied().find(|b| b.name() == name)
    }

    /// The defects this backend's hypervisor is built with.
    fn faults(self) -> FaultInjection {
        match self {
            Backend::Iris => FaultInjection::NONE,
            Backend::Faulty => FaultInjection::planted(),
        }
    }
}

impl TargetFactory for Backend {
    type Target<'t> = HvTarget<'t>;

    fn build<'t>(&self, plan: BootPlan<'t>) -> HvTarget<'t> {
        build_hv_target(plan, crate::campaign::DEFAULT_RAM_BYTES, self.faults())
    }

    fn name(&self) -> &'static str {
        match self {
            Backend::Iris => "iris",
            Backend::Faulty => "faulty",
        }
    }

    fn description(&self) -> &'static str {
        match self {
            Backend::Iris => "stock hypervisor model (the paper's SUT)",
            Backend::Faulty => {
                "fault-injection build with planted handler bugs (ground-truth detection)"
            }
        }
    }
}

/// A [`Backend`] plus runtime tuning — dummy-VM sizing and the optional
/// snapshot forest. This is what the CLI hands to drivers once
/// `--target`/`--forest`/`--forest-cap` are parsed; with `forest: None`
/// it builds byte-for-byte the same targets as the bare [`Backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfiguredBackend {
    /// Which registered backend to build.
    pub backend: Backend,
    /// Guest RAM for the dummy domain.
    pub ram_bytes: u64,
    /// Snapshot-forest configuration (`None` = classic single-snapshot
    /// resets).
    pub forest: Option<ForestConfig>,
}

impl ConfiguredBackend {
    /// Default tuning for a backend: default RAM, forest off.
    #[must_use]
    pub fn new(backend: Backend) -> Self {
        Self {
            backend,
            ram_bytes: crate::campaign::DEFAULT_RAM_BYTES,
            forest: None,
        }
    }

    /// Set (or clear) the snapshot-forest configuration.
    #[must_use]
    pub fn with_forest(mut self, forest: Option<ForestConfig>) -> Self {
        self.forest = forest;
        self
    }
}

impl TargetFactory for ConfiguredBackend {
    type Target<'t> = HvTarget<'t>;

    fn build<'t>(&self, plan: BootPlan<'t>) -> HvTarget<'t> {
        let mut target = build_hv_target(plan, self.ram_bytes, self.backend.faults());
        target.forest_cfg = self.forest;
        target
    }

    fn name(&self) -> &'static str {
        self.backend.name()
    }

    fn description(&self) -> &'static str {
        self.backend.description()
    }

    fn forest(&self) -> Option<ForestConfig> {
        self.forest
    }
}

/// Match a crash corpus against the planted-fault ground truth: for each
/// defect [`FaultInjection::planted`] arms, the first corpus record whose
/// console carries its banner (or `None` if the campaign missed it).
#[must_use]
pub fn detect_planted_faults(
    corpus: &Corpus,
) -> Vec<(&'static PlantedFault, Option<&CrashRecord>)> {
    FaultInjection::descriptors()
        .iter()
        .map(|fault| {
            (
                fault,
                corpus
                    .crashes
                    .iter()
                    .find(|c| c.console.contains(fault.banner)),
            )
        })
        .collect()
}

/// Render the ground-truth detection report for a crash corpus — the
/// one format the CLI, the bench bins, and the CI smoke's
/// `planted faults: 3/3 detected` grep contract all share.
#[must_use]
pub fn render_planted_fault_report(corpus: &Corpus) -> String {
    let detections = detect_planted_faults(corpus);
    let found = detections.iter().filter(|(_, hit)| hit.is_some()).count();
    let mut out = format!("planted faults: {found}/{} detected\n", detections.len());
    for (fault, hit) in &detections {
        match hit {
            Some(c) => out.push_str(&format!(
                "  {:<34} detected — \"{}\"\n",
                fault.name, c.console
            )),
            None => out.push_str(&format!("  {:<34} MISSED\n", fault.name)),
        }
    }
    out
}

/// Record a workload trace on a test VM the size of the dummy VM the
/// targets fuzz — the recording half of the paper's pipeline for tests,
/// benches and examples.
#[must_use]
pub fn record_trace(workload: Workload, exits: usize, rng_seed: u64) -> RecordedTrace {
    let ram = crate::campaign::DEFAULT_RAM_BYTES;
    Recorder::new()
        .record_fresh(workload, exits, rng_seed, ram)
        .1
}

#[cfg(test)]
mod tests {
    use super::*;
    use iris_vtx::exit::ExitReason;

    fn boot_trace(n: usize) -> RecordedTrace {
        record_trace(Workload::OsBoot, n, 42)
    }

    /// One of these is built, moved and dropped per submission, so its
    /// size is a per-exec cost: the 448-byte hit bitmap, a crash verdict
    /// and a cycle count — no per-block tables.
    #[test]
    fn a_submit_outcome_is_a_bitmap_a_verdict_and_a_count() {
        assert_eq!(std::mem::size_of::<SubmitOutcome>(), 488);
    }

    #[test]
    fn backend_registry_round_trips() {
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.name()), Some(b));
            assert!(!b.description().is_empty());
        }
        assert_eq!(Backend::parse("martian"), None);
    }

    #[test]
    fn boot_reaches_s1_and_submit_reports_coverage() {
        let trace = boot_trace(80);
        let idx = trace
            .seeds
            .iter()
            .position(|s| s.reason == ExitReason::CrAccess)
            .expect("boot trace has CR accesses");
        let factory = IrisHvTarget::default();
        let mut target = factory.build(BootPlan::for_test_case(&trace, idx));
        target.boot();
        let out = target.submit(&trace.seeds[idx]);
        assert!(out.coverage.lines() > 0);
        assert!(out.crash.is_none(), "recorded seed replays cleanly");
        assert!(out.cycles > 0);
    }

    #[test]
    fn reset_after_crash_reproduces_the_baseline() {
        let trace = boot_trace(80);
        let idx = trace
            .seeds
            .iter()
            .position(|s| s.reason == ExitReason::CrAccess)
            .unwrap();
        let factory = IrisHvTarget::default();
        let mut target = factory.build(BootPlan::for_test_case(&trace, idx));
        target.boot();
        let baseline = target.submit(&trace.seeds[idx]);

        // Crash the SUT with a mutant flipping the exit reason into the
        // unhandled range, then reset and re-check the baseline.
        let mut mutant = trace.seeds[idx].clone();
        for pair in &mut mutant.reads {
            if pair.0 == iris_vtx::fields::VmcsField::VmExitReason {
                pair.1 = 11; // GETSEC: never configured to exit
            }
        }
        let crashed = target.submit(&mutant);
        assert!(crashed.crash.is_some(), "mutant must crash");
        target.reset();
        let again = target.submit(&trace.seeds[idx]);
        assert_eq!(baseline.coverage, again.coverage);
        assert!(again.crash.is_none());
    }

    #[test]
    fn faulty_backend_is_clean_on_recorded_seeds() {
        let trace = boot_trace(100);
        let mut target =
            Backend::Faulty.build(BootPlan::for_test_case(&trace, trace.seeds.len() - 1));
        target.boot(); // replays the whole prefix with debug asserts on
        let out = target.submit(&trace.seeds[trace.seeds.len() - 1]);
        assert!(
            out.crash.is_none(),
            "planted faults stay dormant: {:?}",
            out.crash
        );
    }

    #[test]
    #[should_panic(expected = "boot() the target first")]
    fn submitting_before_boot_is_a_driver_bug() {
        let trace = boot_trace(10);
        let factory = IrisHvTarget::default();
        let mut target = factory.build(BootPlan::post_boot(&trace));
        let _ = target.submit(&trace.seeds[0]);
    }

    #[test]
    fn forest_target_pins_and_restores_states() {
        let trace = boot_trace(60);
        let factory =
            ConfiguredBackend::new(Backend::Iris).with_forest(Some(ForestConfig::default()));
        assert!(factory.forest().is_some());
        let mut target = factory.build(BootPlan::post_boot(&trace));
        target.boot();
        assert!(
            target.reset_to(StateId::ROOT),
            "the forest root is always restorable"
        );

        // Advance two seeds, pin, diverge, come back: the pinned state
        // must reproduce the continuation byte-for-byte.
        let _ = target.submit(&trace.seeds[0]);
        let _ = target.submit(&trace.seeds[1]);
        let pinned = target.pin_state().expect("forest mode pins states");
        let expected = target.submit(&trace.seeds[2]);
        target.reset();
        let _ = target.submit(&trace.seeds[5]);
        assert!(target.reset_to(pinned), "pinned node restores");
        let again = target.submit(&trace.seeds[2]);
        assert_eq!(expected.coverage, again.coverage);
        assert_eq!(expected.crash, again.crash);
    }

    #[test]
    fn forest_survives_a_sut_fatal_reboot() {
        let trace = boot_trace(60);
        let factory =
            ConfiguredBackend::new(Backend::Iris).with_forest(Some(ForestConfig::default()));
        let mut target = factory.build(BootPlan::post_boot(&trace));
        target.boot();
        let _ = target.submit(&trace.seeds[0]);
        let pinned = target.pin_state().unwrap();
        let expected = target.submit(&trace.seeds[1]);

        // Kill the whole stack with an unhandled-exit mutant.
        let mut fatal = trace.seeds[0].clone();
        for pair in &mut fatal.reads {
            if pair.0 == iris_vtx::fields::VmcsField::VmExitReason {
                pair.1 = 11; // GETSEC: never configured to exit
            }
        }
        let _ = target.submit(&fatal);
        assert!(
            target.reset_to(pinned),
            "the whole-stack restore keeps the forest and its pins"
        );
        let again = target.submit(&trace.seeds[1]);
        assert_eq!(expected.coverage, again.coverage);
    }

    #[test]
    fn forest_off_configured_backend_has_no_pins() {
        let trace = boot_trace(20);
        let factory = ConfiguredBackend::new(Backend::Iris);
        let mut target = factory.build(BootPlan::post_boot(&trace));
        target.boot();
        assert_eq!(target.pin_state(), None);
        assert!(!target.reset_to(StateId::ROOT));
    }

    #[test]
    fn detect_planted_faults_reports_misses_on_an_empty_corpus() {
        let empty = Corpus::new();
        let report = detect_planted_faults(&empty);
        assert_eq!(report.len(), FaultInjection::descriptors().len());
        assert!(report.iter().all(|(_, hit)| hit.is_none()));
    }
}
