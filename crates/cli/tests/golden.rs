//! Byte-identity of what `iris` prints and writes, pinned by digest.
//!
//! Every case runs its command lines in-process, in order, in a scratch
//! directory of its own, and the `fnv1a_64` of each line's stdout and of
//! every file the case left behind is compared with
//! `tests/fixtures/golden_digests.json`. A refactor that must not move
//! a report byte passes this unchanged; a change that moves bytes on
//! purpose regenerates the fixture with
//! `cargo test -p iris-cli --test golden -- --ignored` and reviews the
//! diff of that file.

use iris_cli::run;
use iris_dist::verify::fnv1a_64;
use std::collections::BTreeMap;
use std::path::Path;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/golden_digests.json"
);

const CAMPAIGN: &str = "campaign os_boot --exits 300 --mutants 20";
const GUIDED: &str = "guided os_boot --exits 300 --budget 256 --gen 64";

/// `(case, command lines)`; `@` stands for the case's scratch directory.
/// OS BOOT `(300, 42)` and MEM-BOUND `(120, 7)` record different seeds
/// at 16 and 64 MiB (`tests/recording_law.rs`), so these
/// cases notice a command that starts recording with another RAM size.
fn cases() -> Vec<(&'static str, Vec<String>)> {
    let case = |name, lines: &[&str]| (name, lines.iter().map(|l| (*l).to_owned()).collect());
    vec![
        case(
            "record_report",
            &[
                "record os_boot --exits 300 --out @/trace.json",
                "report @/trace.json",
            ],
        ),
        case("replay_warm", &["replay cpu_bound --exits 400"]),
        case("replay_cold", &["replay cpu_bound --exits 60 --cold"]),
        case("replay_memory", &["replay io_bound --exits 120 --memory"]),
        case(
            "fuzz",
            &["fuzz os_boot --exits 300 --mutants 200 --jobs 2 --chunk 64"],
        ),
        case("targets", &["targets"]),
        case(
            "campaign",
            &[
                &format!("{CAMPAIGN} --jobs 1 --json @/jobs1.json --corpus @/jobs1-corpus.json"),
                &format!("{CAMPAIGN} --jobs 2 --chunk 64 --json @/jobs2.json"),
                &format!("{CAMPAIGN} --jobs 2 --forest --forest-cap 2 --json @/forest.json"),
                "campaign mem_bound --exits 120 --seed 7 --mutants 10 --jobs 1 --target faulty \
                 --json @/faulty.json --corpus @/faulty-corpus.json",
            ],
        ),
        case(
            "guided",
            &[
                &format!("{GUIDED} --jobs 1 --json @/flat.json --corpus @/flat-corpus.json"),
                &format!("{GUIDED} --jobs 2 --forest --json @/forest.json"),
                &format!("{GUIDED} --jobs 2 --mode ensemble --json @/ensemble.json"),
            ],
        ),
        case(
            "campaign_resume",
            &[
                &format!("{CAMPAIGN} --jobs 1 --checkpoint @/ck.json --json @/first.json"),
                &format!("{CAMPAIGN} --jobs 2 --resume @/ck.json --json @/resumed.json"),
            ],
        ),
        case(
            "guided_resume",
            &[
                &format!("{GUIDED} --jobs 1 --checkpoint @/ck.json --json @/first.json"),
                &format!("{GUIDED} --jobs 2 --resume @/ck.json --json @/resumed.json"),
            ],
        ),
        case(
            "resume_missing",
            &[
                &format!("{CAMPAIGN} --jobs 1 --resume @/none.json"),
                &format!("{GUIDED} --jobs 1 --resume @/none.json"),
            ],
        ),
    ]
}

/// How many coalesced snapshots the background checkpoint writer got to
/// write depends on thread timing — the one line that is not a function
/// of the arguments.
fn normalise(stdout: &str, dir: &Path) -> String {
    let text = stdout.replace(&dir.display().to_string(), "@");
    let Some(at) = text.find(" snapshot") else {
        return text;
    };
    let open = text[..at].rfind('(').expect("`(N snapshots written)`");
    let end = at + text[at..].find(')').expect("`(N snapshots written)`");
    format!("{}(N snapshots written{}", &text[..open], &text[end..])
}

/// Run every case in a fresh directory under `tag` and digest its
/// output: `case/(stdout.<line> | file name) → fnv1a_64`, in hex.
fn measure(tag: &str) -> BTreeMap<String, String> {
    let hex = |bytes: &[u8]| format!("{:016x}", fnv1a_64(bytes));
    let root = std::env::temp_dir().join(format!("iris-golden-{tag}-{}", std::process::id()));
    let mut digests = BTreeMap::new();
    for (name, lines) in cases() {
        let dir = root.join(name);
        std::fs::create_dir_all(&dir).expect("scratch directory");
        for (n, line) in lines.iter().enumerate() {
            let line = line.replace('@', &dir.display().to_string());
            let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
            let stdout = run(&argv).unwrap_or_else(|e| panic!("`iris {line}` failed: {e}"));
            let stdout = normalise(&stdout, &dir);
            digests.insert(format!("{name}/stdout.{n}"), hex(stdout.as_bytes()));
        }
        for entry in std::fs::read_dir(&dir).expect("scratch directory") {
            let path = entry.expect("scratch directory entry").path();
            let file = path.file_name().expect("a file name").to_string_lossy();
            let bytes = std::fs::read(&path).expect("artifact is readable");
            digests.insert(format!("{name}/{file}"), hex(&bytes));
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    digests
}

#[test]
fn cli_output_matches_the_golden_digests() {
    let fixture = std::fs::read_to_string(FIXTURE).expect("golden fixture is committed");
    let golden: BTreeMap<String, String> =
        serde_json::from_str(&fixture).expect("golden fixture parses");
    let measured = measure("check");
    let moved: Vec<_> = (measured.iter().filter(|(k, v)| golden.get(*k) != Some(v)))
        .chain(golden.iter().filter(|(k, _)| !measured.contains_key(*k)))
        .collect();
    assert!(
        moved.is_empty(),
        "output bytes moved — measured digests that differ from the fixture, \
         then fixture entries no case produced: {moved:#?}"
    );
}

/// Rewrites the fixture from the current behaviour.
#[test]
#[ignore = "regenerates tests/fixtures/golden_digests.json"]
fn regenerate_golden_digests() {
    let json = serde_json::to_string_pretty(&measure("regen")).expect("digests serialize");
    std::fs::write(FIXTURE, json + "\n").expect("fixture is writable");
}
