//! End-to-end smoke test exercising the observability flags the way ci.sh
//! documents them: run `detect` with `--log-json --metrics-out` on a tiny
//! dataset and validate every produced artifact with the in-tree parser.

use hdoutlier_cli::{exit, run};
use hdoutlier_json::Json;

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

/// A tiny dataset: a tight uniform cluster plus two planted outliers that
/// land in otherwise-empty grid cells.
fn tiny_csv(path: &std::path::Path) {
    let mut text = String::from("a,b,c\n");
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for _ in 0..120 {
        let (a, b, c) = (next(), next(), next());
        text.push_str(&format!("{a:.6},{b:.6},{c:.6}\n"));
    }
    text.push_str("25.0,25.0,0.5\n");
    text.push_str("-25.0,-25.0,0.5\n");
    std::fs::write(path, text).unwrap();
}

#[test]
fn detect_with_log_json_and_metrics_out_produces_valid_artifacts() {
    let dir = std::env::temp_dir().join(format!("hdoutlier-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("tiny.csv");
    let metrics = dir.join("metrics.ndjson");
    tiny_csv(&csv);

    let (code, out) = run(&argv(&[
        "detect",
        "--phi=4",
        "--k=2",
        "--m=4",
        "--search=brute",
        "--json",
        "--log-json",
        "--log-level",
        "info",
        "--metrics-out",
        metrics.to_str().unwrap(),
        csv.to_str().unwrap(),
    ]));
    assert_eq!(code, exit::OK, "{out}");

    // The report itself parses and embeds a metrics object.
    let report = Json::parse(&out).unwrap_or_else(|e| panic!("{e}\n{out}"));
    assert!(report.get("projections").is_some());
    assert!(report.get("outlier_rows").is_some());
    let embedded = report
        .get("metrics")
        .expect("metrics embedded with --metrics-out");
    assert!(embedded.get("hdoutlier.core.search_us").is_some(), "{out}");

    // The snapshot file is NDJSON: one valid object per line, each carrying
    // a metric name and type, including the core pipeline phases.
    let snapshot = std::fs::read_to_string(&metrics).unwrap();
    assert!(!snapshot.trim().is_empty());
    let mut names = Vec::new();
    for line in snapshot.lines() {
        let j = Json::parse(line).unwrap_or_else(|e| panic!("{e}\n{line}"));
        let name = j.get("metric").and_then(Json::as_str).expect("metric name");
        assert!(j.get("type").is_some(), "{line}");
        names.push(name.to_string());
    }
    for expected in [
        "hdoutlier.core.discretize_us",
        "hdoutlier.core.index_us",
        "hdoutlier.core.search_us",
        "hdoutlier.core.postprocess_us",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "{expected} missing from {names:?}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
