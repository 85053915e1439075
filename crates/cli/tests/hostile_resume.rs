//! `--resume` over a fingerprint-valid but tampered checkpoint: the
//! in-process sessions refuse it with a typed error, and the CLI must
//! surface that as an I/O error **naming the file** — never a panic,
//! never a run continued from a wrong state (RELIABILITY.md
//! "Structural validation").

use iris_cli::{run, CliError};

fn args(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_owned).collect()
}

/// Overwrite the number stored under `key` in a pretty-printed JSON
/// checkpoint, leaving the fingerprint (and everything else) intact.
fn tamper(path: &std::path::Path, key: &str, value: u64) {
    let json = std::fs::read_to_string(path).expect("checkpoint was written");
    let at = json.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
    let digits = json[at..]
        .find(|c: char| c.is_ascii_digit())
        .expect("a number")
        + at;
    let end = json[digits..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(json.len(), |n| digits + n);
    let hostile = format!("{}{value}{}", &json[..digits], &json[end..]);
    std::fs::write(path, hostile).expect("checkpoint is writable");
}

#[test]
fn tampered_checkpoints_are_io_errors_naming_the_file() {
    for (tag, command, key) in [
        (
            "guided",
            "guided os_boot --exits 100 --budget 128 --gen 64 --jobs 1",
            "next_slot",
        ),
        (
            "campaign",
            "campaign os_boot --exits 100 --mutants 5 --jobs 1",
            "folded",
        ),
    ] {
        let ckpt = std::env::temp_dir().join(format!(
            "iris-cli-hostile-{tag}-{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&ckpt);
        run(&args(&format!("{command} --checkpoint {}", ckpt.display()))).expect("first leg runs");
        tamper(&ckpt, key, 999_983);
        let err = run(&args(&format!("{command} --resume {}", ckpt.display())))
            .expect_err("a structurally hostile checkpoint must be refused");
        assert!(matches!(err, CliError::Io(_)), "{tag}: {err}");
        let message = err.to_string();
        assert!(
            message.contains(&ckpt.display().to_string()) && message.contains("inconsistent"),
            "{tag}: the error must name the file: {message}"
        );
        let _ = std::fs::remove_file(&ckpt);
    }
}
