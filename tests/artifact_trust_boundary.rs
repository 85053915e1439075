//! Persisted artifacts are outside input (ROADMAP aim 3): the trace JSON
//! `iris record --out` writes and `iris report` loads, the crash-corpus
//! JSON, and campaign checkpoints.
//!
//! Two halves:
//!
//! * **Compatibility.** `tests/fixtures/` holds a trace and a campaign
//!   checkpoint written by the binary *before* coverage maps stopped
//!   carrying line weights (PR 16). They must load, and re-serialise to
//!   the very same bytes — the `(block, lines)` wire shape did not move.
//! * **Hostility.** Arbitrary bytes, a truncated artifact, and a
//!   well-formed artifact whose coverage disagrees with this build's
//!   `BLOCK_LINES` are each a typed error naming the file — never a
//!   panic, never a value built from part of the file.

use iris_core::seed_db::SeedDb;
use iris_fuzzer::checkpoint::{campaign_fingerprint, CampaignCheckpoint};
use iris_fuzzer::Corpus;
use proptest::prelude::*;
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const TRACE_FIXTURE: &str = "parent_trace_os_boot_10.json";
const CHECKPOINT_FIXTURE: &str = "parent_campaign_checkpoint.json";

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn fixture_text(name: &str) -> String {
    std::fs::read_to_string(fixture(name)).expect("fixture is committed")
}

/// The fingerprint of the run that wrote [`CHECKPOINT_FIXTURE`]:
/// `iris campaign os_boot --exits 30 --mutants 3 --jobs 1`.
fn checkpoint_fingerprint() -> String {
    campaign_fingerprint("iris", "OS BOOT", 30, 42, 3, 12)
}

/// A scratch file holding `bytes`, removed on drop. Names are unique per
/// process and per call, so parallel tests never share one.
struct Scratch(PathBuf);

impl Scratch {
    fn holding(bytes: &[u8]) -> Scratch {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "iris-artifact-{}-{}.json",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, bytes).expect("temp dir is writable");
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// `load` must refuse the file with an error that names it.
fn assert_refused<T>(file: &Scratch, load: impl FnOnce(&Path) -> std::io::Result<T>) -> String {
    let message = match load(&file.0) {
        Ok(_) => panic!("a hostile artifact must not load"),
        Err(e) => e.to_string(),
    };
    assert!(
        message.contains(&file.0.display().to_string()),
        "the error must name the file: {message}"
    );
    message
}

/// How to make a coverage pair disagree with the build's table.
#[derive(Debug, Clone, Copy)]
enum Tamper {
    /// A declared block at another weight.
    Weight,
    /// An id inside the bitmap that the build does not declare.
    Undeclared,
    /// An id outside the bitmap.
    OutOfRange,
}

/// Apply `how` to the `n`-th (modulo their number) coverage pair under
/// `root`, returning the `Component/id` the loader should name.
fn tamper_pair(root: &mut Value, n: usize, how: Tamper) -> String {
    fn pairs<'a>(v: &'a mut Value, out: &mut Vec<&'a mut Vec<Value>>) {
        match v {
            Value::Seq(items) => {
                let is_pair = matches!(items.as_slice(), [Value::Map(block), Value::U64(_)]
                    if serde::value::map_get(block, "component").is_some());
                if is_pair {
                    out.push(items);
                } else {
                    items.iter_mut().for_each(|item| pairs(item, out));
                }
            }
            Value::Map(entries) => entries.iter_mut().for_each(|(_, item)| pairs(item, out)),
            _ => {}
        }
    }
    let mut found = Vec::new();
    pairs(root, &mut found);
    assert!(!found.is_empty(), "the artifact carries coverage");
    let n = n % found.len();
    let pair = found.swap_remove(n);
    let [Value::Map(block), weight] = pair.as_mut_slice() else {
        unreachable!("matched above")
    };
    let component = serde::value::map_get(block, "component")
        .and_then(Value::as_str)
        .expect("a component name")
        .to_owned();
    let id = block
        .iter_mut()
        .find_map(|(k, v)| (k.as_str() == Some("id")).then_some(v))
        .expect("a block id");
    match how {
        Tamper::Weight => *weight = Value::U64(weight.as_u64().expect("a weight") + 1),
        // No component declares ids 250..=255 (the highest is Vmx/242).
        Tamper::Undeclared => *id = Value::U64(250 + n as u64 % 6),
        Tamper::OutOfRange => *id = Value::U64(256 + n as u64),
    }
    format!("{component}/{}", id.as_u64().expect("an id"))
}

fn arb_tamper() -> impl Strategy<Value = Tamper> {
    prop_oneof![
        Just(Tamper::Weight),
        Just(Tamper::Undeclared),
        Just(Tamper::OutOfRange)
    ]
}

#[test]
fn parent_trace_loads_and_reserialises_byte_identically() {
    let trace = SeedDb::load_json(&fixture(TRACE_FIXTURE)).expect("the parent's trace loads");
    assert_eq!(trace.seeds.len(), 10);
    assert_eq!(trace.metrics.len(), 10);
    assert!(trace.total_coverage().lines() > 0);
    let again = serde_json::to_string_pretty(&trace).expect("serializes");
    assert!(
        again == fixture_text(TRACE_FIXTURE),
        "a trace written before PR 16 must re-serialise to the same bytes"
    );
}

#[test]
fn parent_campaign_checkpoint_loads_and_reserialises_byte_identically() {
    let checkpoint =
        CampaignCheckpoint::load(&fixture(CHECKPOINT_FIXTURE), &checkpoint_fingerprint())
            .expect("the parent's checkpoint loads");
    assert_eq!(checkpoint.folded, 12);
    assert!(checkpoint.report.coverage.lines() > 0);
    let again = serde_json::to_string_pretty(&checkpoint).expect("serializes");
    assert!(
        again == fixture_text(CHECKPOINT_FIXTURE),
        "a checkpoint written before PR 16 must re-serialise to the same bytes"
    );
}

proptest! {
    /// Bytes that were never an artifact: a typed error naming the file
    /// from all three loaders.
    #[test]
    fn arbitrary_bytes_are_refused(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let file = Scratch::holding(&bytes);
        assert_refused(&file, SeedDb::load_json);
        assert_refused(&file, Corpus::load);
        assert_refused(&file, |p| CampaignCheckpoint::load(p, &checkpoint_fingerprint()));
    }

    /// An artifact cut short anywhere (a torn write, a full disk) is
    /// refused whole: no trace or corpus is built from the part that
    /// did arrive.
    #[test]
    fn truncated_artifacts_are_refused(cut in 0usize..10_000) {
        let trace = fixture_text(TRACE_FIXTURE);
        let at = trace.len() * cut / 10_000;
        assert_refused(&Scratch::holding(&trace.as_bytes()[..at]), SeedDb::load_json);

        let corpus = corpus_json();
        let at = corpus.len() * cut / 10_000;
        assert_refused(&Scratch::holding(&corpus.as_bytes()[..at]), Corpus::load);
    }

    /// A well-formed trace or checkpoint whose coverage this build's
    /// table does not back — written by another build, or edited — is
    /// refused with the offending block named; its weights are never
    /// adopted.
    #[test]
    fn coverage_off_the_table_is_refused(n in 0usize..10_000, how in arb_tamper()) {
        let mut trace = serde::json::parse(&fixture_text(TRACE_FIXTURE)).expect("fixture parses");
        let named = tamper_pair(&mut trace, n, how);
        let file = Scratch::holding(serde::json::write(&trace, true).as_bytes());
        let message = assert_refused(&file, SeedDb::load_json);
        prop_assert!(message.contains(&named), "{} should name {}", message, named);

        let mut checkpoint =
            serde::json::parse(&fixture_text(CHECKPOINT_FIXTURE)).expect("fixture parses");
        let named = tamper_pair(&mut checkpoint, n, how);
        let file = Scratch::holding(serde::json::write(&checkpoint, true).as_bytes());
        let message =
            assert_refused(&file, |p| CampaignCheckpoint::load(p, &checkpoint_fingerprint()));
        prop_assert!(message.contains(&named), "{} should name {}", message, named);
    }
}

/// A genuine crash corpus, as `--corpus` writes it: the one the
/// checkpoint fixture's campaign found.
fn corpus_json() -> String {
    let checkpoint =
        CampaignCheckpoint::load(&fixture(CHECKPOINT_FIXTURE), &checkpoint_fingerprint())
            .expect("the parent's checkpoint loads");
    assert!(!checkpoint.report.corpus.is_empty());
    serde_json::to_string_pretty(&checkpoint.report.corpus).expect("serializes")
}

#[test]
fn a_genuine_corpus_round_trips_through_its_loader() {
    let json = corpus_json();
    let file = Scratch::holding(json.as_bytes());
    let corpus = Corpus::load(&file.0).expect("a genuine corpus loads");
    assert_eq!(
        serde_json::to_string_pretty(&corpus).expect("serializes"),
        json
    );
}
