//! `iris-experiments` at its trust boundary: a bad argument is a usage
//! error (exit 2, the bad token named on stderr, nothing written), and
//! a good one runs its row and writes `results/<id>.json`.

use std::path::Path;
use std::process::{Command, Output};

fn run(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_iris-experiments"))
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap()
}

#[test]
fn bad_arguments_exit_2_and_write_nothing_while_a_row_writes_its_json() {
    let dir = std::env::temp_dir().join(format!("iris-experiments-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (args, token) in [
        (&["fig99"][..], "fig99"),
        (&["fig6", "5000"], "5000"),
        (&["all", "extra"], "extra"),
    ] {
        let out = run(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("`{token}`")), "{args:?}: {stderr}");
        assert!(
            stderr.contains("fig4 fig5"),
            "{args:?} lists the ids: {stderr}"
        );
        assert!(!dir.join("results").exists(), "{args:?} wrote results/");
    }
    let out = run(&dir, &["fig5"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("check fig5 (§VI-A, Fig. 5;"));
    assert!(dir.join("results/fig5.json").is_file());
    std::fs::remove_dir_all(&dir).unwrap();
}
