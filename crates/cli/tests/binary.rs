//! End-to-end tests of the compiled `hdoutlier` binary — the real
//! argv/stdout/exit-code surface, including the detect → save-model → score
//! deployment loop.

use std::process::Command;

fn binary() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hdoutlier"))
}

fn temp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("hdoutlier-binary-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn write_planted_csv(name: &str) -> std::path::PathBuf {
    write_planted_rows(name, 300)
}

fn write_planted_rows(name: &str, n_rows: usize) -> std::path::PathBuf {
    use hdoutlier_data::generators::{planted_outliers, PlantedConfig};
    let planted = planted_outliers(&PlantedConfig {
        n_rows,
        n_dims: 6,
        n_outliers: 3,
        strong_groups: Some(2),
        seed: 44,
        ..PlantedConfig::default()
    });
    let path = temp_dir().join(format!("{name}.csv"));
    hdoutlier_data::csv::write_path(&planted.dataset, &path).expect("writable");
    path
}

#[test]
fn help_and_unknown_command_exit_codes() {
    let out = binary().arg("help").output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));

    let out = binary().arg("frobnicate").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = binary().output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn scoring_has_no_batch_or_thread_options() {
    for args in [
        ["stream", "--batch", "8"],
        ["stream", "--threads", "2"],
        ["serve", "--threads", "2"],
    ] {
        let out = binary().args(args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown option {}", args[1])),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn detect_save_score_deployment_loop() {
    let csv = write_planted_csv("binary-loop");
    let model = temp_dir().join("binary-loop.model.json");

    let out = binary()
        .args([
            "detect",
            "--phi=4",
            "--k=2",
            "--m=5",
            "--search=brute",
            "--save-model",
            model.to_str().unwrap(),
            "--quiet",
            csv.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let detected: Vec<usize> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| l.parse().expect("row index"))
        .collect();
    assert!(!detected.is_empty());
    assert!(model.exists());

    // Score the same file through the saved model: the detected rows must
    // all be flagged again (value-based reassignment on continuous data is
    // exact for in-sample rows).
    let out = binary()
        .args([
            "score",
            "--model",
            model.to_str().unwrap(),
            "--json",
            csv.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    for row in &detected {
        assert!(
            text.contains(&format!("\"row\": {row}")),
            "row {row} missing from score output:\n{text}"
        );
    }
}

#[test]
fn advise_runs_standalone() {
    let out = binary()
        .args(["advise", "--records", "452"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("phi ="), "{text}");
}

#[test]
fn runtime_errors_go_to_stderr_with_code_1() {
    let out = binary()
        .args(["detect", "/definitely/not/a/file.csv"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("failed to read"));
}

/// Parameters outside a search's domain are refused before the search
/// runs, with a message and exit 1, not a panic.
#[test]
fn degenerate_detect_parameters_are_refused() {
    let csv = write_planted_csv("degenerate-parameters");
    for (search, flags, message) in [
        ("evolutionary", ["--phi", "3", "--k", "0"], "k = 0"),
        ("brute", ["--phi", "3", "--k", "0"], "k = 0"),
        ("evolutionary", ["--m", "0", "--k", "2"], "m = 0"),
        (
            "evolutionary",
            ["--population", "0", "--k", "2"],
            "population = 0",
        ),
        ("evolutionary", ["--phi", "1", "--k", "2"], "phi = 1"),
        ("brute", ["--phi", "1", "--k", "2"], "phi = 1"),
    ] {
        let out = binary()
            .args(["detect", "--search", search])
            .args(flags)
            .arg(&csv)
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{search} {flags:?}: {stderr}");
        assert!(
            stderr.contains(&format!("detection failed: {message} is out of range")),
            "{search} {flags:?}: {stderr}"
        );
    }
}

/// Records read from a file arrive many to a read, and `stream` flushes its
/// verdicts once per read rather than once per record.
#[test]
fn stream_flushes_once_per_read_not_per_record() {
    let n_records = 4_000;
    let csv = write_planted_rows("binary-flushes", n_records);
    let model = temp_dir().join("binary-flushes.model.json");
    let metrics = temp_dir().join("binary-flushes.metrics.ndjson");
    let out = binary()
        .args([
            "detect",
            "--phi=4",
            "--k=2",
            "--m=5",
            "--search=brute",
            "--quiet",
        ])
        .args([
            "--save-model",
            model.to_str().unwrap(),
            csv.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = binary()
        .args(["stream", "--model", model.to_str().unwrap()])
        .args(["--metrics-out", metrics.to_str().unwrap()])
        .stdin(std::fs::File::open(&csv).expect("csv"))
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).lines().count(),
        n_records
    );
    let snapshot = std::fs::read_to_string(&metrics).expect("metrics snapshot");
    let flushes = snapshot
        .lines()
        .map(|l| hdoutlier_json::Json::parse(l).expect("NDJSON metric"))
        .find(|j| {
            j.get("metric").and_then(hdoutlier_json::Json::as_str)
                == Some("hdoutlier.stream.flushes")
        })
        .and_then(|j| j.get("value").and_then(hdoutlier_json::Json::as_number))
        .expect("flush counter exported");
    assert!(
        (1.0..=(n_records / 8) as f64).contains(&flushes),
        "{flushes} flushes for {n_records} records"
    );
}
