//! End-to-end tests for `hdoutlier scenario`: the pack registry, the
//! golden-report gate (match, mismatch with a readable unified diff,
//! missing file), the deliberate update path, and the cross-thread
//! byte-identity property the whole suite rests on.

use hdoutlier_cli::{exit, run};
use hdoutlier_json::Json;

/// The checked-in goldens, relative to this crate's manifest.
const GOLDENS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/goldens");

const PACKS: [&str; 6] = [
    "fraud-burst",
    "network-intrusion",
    "sensor-drift",
    "seasonal-shift",
    "adversarial-near-duplicates",
    "stress-high-phi-high-d",
];

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hdoutlier-scenario-e2e-{tag}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn list_names_every_pack() {
    let (code, out) = run(&argv(&["scenario", "list"]));
    assert_eq!(code, exit::OK, "{out}");
    for name in PACKS {
        assert!(out.contains(name), "missing {name} in:\n{out}");
    }

    let (code, out) = run(&argv(&["scenario", "list", "--json"]));
    assert_eq!(code, exit::OK, "{out}");
    let parsed = Json::parse(&out).unwrap_or_else(|e| panic!("{e}\n{out}"));
    let Json::Array(items) = parsed else {
        panic!("expected array: {out}")
    };
    assert_eq!(items.len(), PACKS.len());
    for item in &items {
        assert!(item.get("name").is_some() && item.get("seed").is_some());
    }
}

#[test]
fn check_passes_against_committed_goldens() {
    let (code, out) = run(&argv(&["scenario", "check", "--goldens-dir", GOLDENS]));
    assert_eq!(code, exit::OK, "{out}");
    for name in PACKS {
        assert!(out.contains(&format!("{name}: ok")), "{out}");
    }
}

#[test]
fn perturbed_golden_fails_with_readable_diff() {
    // Flip one verdict in a copy of a committed golden: the gate must fail
    // with a unified diff a reviewer can act on, plus regeneration steps.
    let dir = temp_dir("perturbed");
    let golden = std::fs::read_to_string(format!("{GOLDENS}/seasonal-shift.json")).unwrap();
    let perturbed = golden.replace("\"reset_after\": 150", "\"reset_after\": 151");
    assert_ne!(golden, perturbed, "perturbation did not apply");
    std::fs::write(dir.join("seasonal-shift.json"), perturbed).unwrap();

    let (code, out) = run(&argv(&[
        "scenario",
        "check",
        "seasonal-shift",
        "--goldens-dir",
        dir.to_str().unwrap(),
    ]));
    assert_eq!(code, exit::RUNTIME, "{out}");
    assert!(out.contains("differs from golden"), "{out}");
    assert!(out.contains("--- golden/seasonal-shift.json"), "{out}");
    assert!(out.contains("@@ -"), "{out}");
    assert!(out.contains("-      \"reset_after\": 151"), "{out}");
    assert!(out.contains("+      \"reset_after\": 150"), "{out}");
    assert!(
        out.contains("scenario update-goldens seasonal-shift"),
        "{out}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_golden_points_at_update_goldens() {
    let dir = temp_dir("missing");
    let (code, out) = run(&argv(&[
        "scenario",
        "check",
        "seasonal-shift",
        "--goldens-dir",
        dir.to_str().unwrap(),
    ]));
    assert_eq!(code, exit::RUNTIME, "{out}");
    assert!(out.contains("is missing"), "{out}");
    assert!(
        out.contains("scenario update-goldens seasonal-shift"),
        "{out}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn update_goldens_writes_then_reports_unchanged() {
    let dir = temp_dir("update");
    let args = [
        "scenario",
        "update-goldens",
        "seasonal-shift",
        "--goldens-dir",
        dir.to_str().unwrap(),
    ];
    let (code, out) = run(&argv(&args));
    assert_eq!(code, exit::OK, "{out}");
    assert!(out.contains("seasonal-shift: golden updated"), "{out}");
    assert!(dir.join("seasonal-shift.json").exists());

    let (code, out) = run(&argv(&args));
    assert_eq!(code, exit::OK, "{out}");
    assert!(out.contains("seasonal-shift: golden unchanged"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The determinism property the golden suite rests on: the same seeded
/// scenario produces byte-identical normalized reports at --threads 1, 2,
/// and 8. Exercised through the real CLI on packs covering the threaded
/// detect/baseline path and the streaming path.
#[test]
fn normalized_reports_are_byte_identical_across_thread_counts() {
    let mut per_thread: Vec<Vec<u8>> = Vec::new();
    for threads in ["1", "2", "8"] {
        let dir = temp_dir(&format!("threads-{threads}"));
        let (code, out) = run(&argv(&[
            "scenario",
            "update-goldens",
            "fraud-burst",
            "sensor-drift",
            "--goldens-dir",
            dir.to_str().unwrap(),
            "--threads",
            threads,
        ]));
        assert_eq!(code, exit::OK, "{out}");
        let mut bytes = std::fs::read(dir.join("fraud-burst.json")).unwrap();
        bytes.extend(std::fs::read(dir.join("sensor-drift.json")).unwrap());
        per_thread.push(bytes);
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(per_thread[0], per_thread[1], "threads=1 vs threads=2");
    assert_eq!(per_thread[0], per_thread[2], "threads=1 vs threads=8");
}

#[test]
fn unknown_pack_name_is_a_usage_error() {
    let (code, out) = run(&argv(&["scenario", "check", "no-such-pack"]));
    assert_eq!(code, exit::USAGE, "{out}");
    assert!(out.contains("unknown scenario"), "{out}");
    assert!(out.contains("fraud-burst"), "{out}");
}

#[test]
fn run_prints_a_full_report() {
    let (code, out) = run(&argv(&["scenario", "run", "seasonal-shift"]));
    assert_eq!(code, exit::OK, "{out}");
    let report = Json::parse(&out).unwrap_or_else(|e| panic!("{e}\n{out}"));
    assert_eq!(
        report.get("scenario").and_then(Json::as_str),
        Some("seasonal-shift")
    );
    assert!(report.get("invariants").is_some());
    // The raw report carries real wall-clock time; the golden layer scrubs it.
    assert!(report.get("elapsed_ms").is_some());
}
