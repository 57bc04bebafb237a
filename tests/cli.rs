//! The command line end to end: a small spec runs and writes its result
//! files; a missing path, an undecodable file, a spec nested 10 000 deep,
//! a JSON spec (specs are TOML only) and an unknown flag each exit with
//! status 2 and a message — never a panic or an abort. So does a spec
//! whose grid does not expand, before the specs named ahead of it run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("laacad-cli-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(out: &Path, args: &[&Path]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_laacad-suite"))
        .args(args)
        .env("LAACAD_OUT", out)
        .output()
        .expect("the binary starts")
}

const SMALL: &str = r#"
name = "cli-smoke"

[scenario]
name = "cli-smoke"

[scenario.region]
kind = "named"
name = "unit_square"

[scenario.placement]
kind = "uniform"
n = 12

[scenario.laacad]
k = 1
max_rounds = 30

[grid]
seeds = [1, 2]
"#;

#[test]
fn small_spec_runs_and_writes_its_files() {
    let dir = scratch("ok");
    let spec = dir.join("small.toml");
    std::fs::write(&spec, SMALL).unwrap();
    let out = dir.join("out");
    let output = run(&out, &[&spec]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{output:?}");
    for file in ["cli-smoke.jsonl", "cli-smoke.csv", "cli-smoke.table.csv"] {
        assert!(out.join(file).exists(), "{file} missing");
    }
    let jsonl = std::fs::read_to_string(out.join("cli-smoke.jsonl")).unwrap();
    assert_eq!(jsonl.lines().count(), 2, "one line per seed");
    let table = std::fs::read_to_string(out.join("cli-smoke.table.csv")).unwrap();
    assert!(table.starts_with("seed,rounds,converged,R*"), "{table}");
    assert_eq!(table.lines().count(), 3);
    assert!(stdout.contains("| seed | rounds"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_input_exits_with_status_2_and_a_message() {
    let dir = scratch("bad");
    let garbage = dir.join("garbage.toml");
    std::fs::write(&garbage, "name = [1, \n").unwrap();
    let deep = dir.join("deep.toml");
    std::fs::write(
        &deep,
        format!("x = {}1{}", "[".repeat(10_000), "]".repeat(10_000)),
    )
    .unwrap();
    let json = dir.join("small.json");
    std::fs::write(
        &json,
        r#"{"name": "cli-json", "region": {"kind": "named", "name": "unit_square"},
"placement": {"kind": "uniform", "n": 12}, "laacad": {"k": 1, "max_rounds": 30}}"#,
    )
    .unwrap();
    let missing = dir.join("no-such-spec.toml");
    let flag = Path::new("--no-such-flag");
    for (what, arg) in [
        ("missing path", missing.as_path()),
        ("undecodable file", garbage.as_path()),
        ("nested 10 000 deep", deep.as_path()),
        ("JSON spec", json.as_path()),
        ("unknown flag", flag),
    ] {
        let output = run(&dir.join("out"), &[arg]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{what}: {output:?}");
        assert!(stderr.starts_with("laacad-suite: "), "{what}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{what}: one line: {stderr}");
        assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    }
    assert!(!dir.join("out").exists(), "nothing ran");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_grid_that_does_not_expand_stops_every_spec_before_it_runs() {
    let dir = scratch("grid");
    let shipped = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/async_faults.toml"),
    )
    .unwrap();
    let tiny = shipped.replace("n = 24", "n = 8");
    assert_ne!(tiny, shipped, "the shipped spec places 24 nodes");
    let loss15 = tiny.replace("loss = [0.0, 0.05, 0.1]", "loss = [1.5]");
    assert_ne!(loss15, tiny, "the shipped spec sweeps three losses");
    let (good, bad) = (dir.join("tiny.toml"), dir.join("loss15.toml"));
    std::fs::write(&good, tiny).unwrap();
    std::fs::write(&bad, loss15).unwrap();
    let out = dir.join("out");
    let output = run(&out, &[&good, &bad]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    assert!(stderr.starts_with("laacad-suite: "), "{stderr}");
    assert!(stderr.contains("loss15.toml"), "names the path: {stderr}");
    assert!(stderr.contains("grid.loss"), "names the axis: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "one line: {stderr}");
    let written: Vec<_> = std::fs::read_dir(&out)
        .map(|entries| entries.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    assert!(
        !written
            .iter()
            .any(|p| p.extension().is_some_and(|e| e == "jsonl")),
        "no cell ran: {written:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
