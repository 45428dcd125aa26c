//! The benchmark's definition: its workloads, the end-to-end metrics every
//! untraced run reports, and the per-layer metrics every traced run reports,
//! each with the end-to-end metric and workload it is expected to move.
//!
//! `BENCHMARK.json` at the repository root publishes the same tables;
//! [`validate`] checks a manifest against them (the unit tests run it on
//! the real file).

use hdoutlier_json::Json;

/// Which search a detect job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Search {
    /// `--search brute` (the incremental bitmap walker).
    Brute,
    /// `--search evolutionary`.
    Evolutionary,
}

/// The flags of one `hdoutlier detect` job.
#[derive(Debug, Clone, Copy)]
pub struct Fit {
    pub search: Search,
    pub phi: u32,
    pub k: usize,
    pub m: usize,
    /// `--seed` of the evolutionary search (fixed: the GA is part of the
    /// workload, not of the input).
    pub ga_seed: u64,
}

impl Fit {
    /// The detect arguments before the input path.
    pub fn args(&self) -> Vec<String> {
        let search = match self.search {
            Search::Brute => "brute",
            Search::Evolutionary => "evolutionary",
        };
        let mut args = vec![
            "detect".to_string(),
            "--search".into(),
            search.into(),
            "--phi".into(),
            self.phi.to_string(),
            "--k".into(),
            self.k.to_string(),
            "--m".into(),
            self.m.to_string(),
        ];
        if self.search == Search::Evolutionary {
            args.extend(["--seed".to_string(), self.ga_seed.to_string()]);
        }
        args
    }
}

/// The seeded dataset a detect workload reads.
#[derive(Debug, Clone, Copy)]
pub enum Data {
    /// Planted contrarian outliers in a correlated bulk.
    Planted { rows: usize, dims: usize },
    /// Table 1's musk shape at the size of the larger musk file.
    MuskShaped,
}

/// What a workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Repeated `detect` jobs on one CSV.
    Detect { data: Data, fit: Fit },
    /// Repeated `stream --model` jobs over a CSV of `records` rows.
    Stream { records: usize },
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

/// The model the stream workload scores against is fitted in set-up
/// with this detect job on a planted training CSV of `TRAIN_ROWS` rows.
pub const MODEL_FIT: Fit = Fit {
    search: Search::Brute,
    phi: 5,
    k: 3,
    m: 20,
    ga_seed: 0,
};
pub const TRAIN_ROWS: usize = 50_000;
pub const DIMS: usize = 20;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "detect-brute",
        why: "planted 50,000 x 20 CSV, detect --search brute --phi 5 --k 4: the incremental \
              brute-force walker does most of the job, CSV load is small",
        kind: Kind::Detect {
            data: Data::Planted {
                rows: 50_000,
                dims: DIMS,
            },
            fit: Fit {
                search: Search::Brute,
                phi: 5,
                k: 4,
                m: 20,
                ga_seed: 0,
            },
        },
    },
    Workload {
        name: "detect-evolve",
        why: "musk-shaped 6,600 x 160 CSV, detect --search evolutionary --phi 6 --k 3: CSV load, \
              discretize and the GA dominate, the brute walker is bypassed",
        kind: Kind::Detect {
            data: Data::MuskShaped,
            fit: Fit {
                search: Search::Evolutionary,
                phi: 6,
                k: 3,
                m: 20,
                ga_seed: 7,
            },
        },
    },
    Workload {
        name: "stream-csv",
        why: "200,000 x 20 CSV records piped through stream --model, last quarter drifted: \
              per-record parse, score, render and flush, no search",
        kind: Kind::Stream { records: 200_000 },
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// An end-to-end metric: what a user of the binary sees.
#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "job_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.1,
    },
];

/// A per-layer metric, with the `(end-to-end metric, workload)` pairs a
/// change to that layer should move.
#[derive(Debug)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static [(&'static str, &'static str)],
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static [(&'static str, &'static str)],
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

const BRUTE_JOB: &[(&str, &str)] = &[("job_s", "detect-brute")];
const EVOLVE_JOB: &[(&str, &str)] = &[("job_s", "detect-evolve")];
const STREAM_JOB: &[(&str, &str)] = &[("job_s", "stream-csv")];

pub const PER_LAYER: [Layer; 30] = [
    layer("data.csv.read_s", "s", "lower", EVOLVE_JOB),
    layer(
        "data.csv.alloc_mb",
        "MiB",
        "lower",
        &[("peak_rss_mb", "detect-evolve")],
    ),
    layer("data.discretize_s", "s", "lower", EVOLVE_JOB),
    layer("index.build_s", "s", "lower", BRUTE_JOB),
    layer(
        "index.memory_mb",
        "MiB",
        "lower",
        &[("peak_rss_mb", "detect-brute")],
    ),
    layer("index.cache_hit_ratio", "ratio", "higher", EVOLVE_JOB),
    layer("index.cache_lookups", "count", "lower", EVOLVE_JOB),
    layer(
        "core.search_s",
        "s",
        "lower",
        &[("job_s", "detect-brute"), ("setup_s", "stream-csv")],
    ),
    layer(
        "core.search_1t_s",
        "s",
        "lower",
        &[("cpu_s", "detect-brute")],
    ),
    layer("core.search.speedup", "ratio", "higher", BRUTE_JOB),
    layer("core.search.candidates", "count", "lower", BRUTE_JOB),
    layer("core.search.scored", "count", "lower", BRUTE_JOB),
    layer("core.search.ns_per_candidate", "ns", "lower", BRUTE_JOB),
    layer("core.search.allocs", "count", "lower", BRUTE_JOB),
    layer(
        "core.search.alloc_mb",
        "MiB",
        "lower",
        &[("peak_rss_mb", "detect-brute")],
    ),
    layer("core.evolve.evaluations", "count", "lower", EVOLVE_JOB),
    layer("core.evolve.generations", "count", "lower", EVOLVE_JOB),
    layer("evolve.selection_s", "s", "lower", EVOLVE_JOB),
    layer("evolve.crossover_s", "s", "lower", EVOLVE_JOB),
    layer("evolve.mutation_s", "s", "lower", EVOLVE_JOB),
    layer("evolve.evaluate_s", "s", "lower", EVOLVE_JOB),
    layer("core.report_s", "s", "lower", BRUTE_JOB),
    layer("stream.score_us", "us", "lower", STREAM_JOB),
    layer("stream.ndjson_us", "us", "lower", STREAM_JOB),
    layer("json.render_us", "us", "lower", STREAM_JOB),
    layer("cli.write_flush_us", "us", "lower", STREAM_JOB),
    layer("cli.stream.residual_us", "us", "lower", STREAM_JOB),
    layer(
        "cli.detect.residual_s",
        "s",
        "lower",
        &[("job_s", "detect-brute"), ("job_s", "detect-evolve")],
    ),
    // The validity of the breakdown itself (how much of the end-to-end time
    // the replayed layers explain, and what the spans cost); no end-to-end
    // metric depends on these.
    layer("replay.coverage", "ratio", "higher", &[]),
    layer("trace.overhead_ratio", "ratio", "lower", &[]),
];

/// The command line the manifest publishes.
pub const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];
/// The benchmark's own directories.
pub const PATHS: [&str; 1] = ["benchmark"];
/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 25;

/// A metric or workload name: 1–64 of `[A-Za-z0-9_.-]`, starting with a
/// letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Checks the internal consistency of the tables: name syntax, table
/// sizes, uniqueness, and that every `moves` pair names an existing
/// end-to-end metric and workload.
pub fn check_tables() -> Vec<String> {
    let mut errors = Vec::new();
    if !(2..=8).contains(&WORKLOADS.len()) {
        errors.push(format!("{} workloads, want 2-8", WORKLOADS.len()));
    }
    if END_TO_END.is_empty() || END_TO_END.len() > 16 {
        errors.push(format!(
            "{} end-to-end metrics, want 1-16",
            END_TO_END.len()
        ));
    }
    let layers = &PER_LAYER;
    if layers.len() > 128 {
        errors.push(format!("{} per-layer metrics, want <= 128", layers.len()));
    }
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(layers.iter().map(|m| m.name));
    for (i, name) in names.iter().enumerate() {
        if !valid_name(name) {
            errors.push(format!("invalid name {name:?}"));
        }
        if names[..i].contains(name) {
            errors.push(format!("name {name:?} used twice"));
        }
    }
    for m in &END_TO_END {
        if !(m.bound > 0.0 && m.bound <= 0.25) {
            errors.push(format!("{}: bound {} outside (0, 0.25]", m.name, m.bound));
        }
    }
    for l in layers {
        for (metric, workload) in l.moves {
            if !END_TO_END.iter().any(|m| m.name == *metric) {
                errors.push(format!("{}: moves unknown metric {metric:?}", l.name));
            }
            if self::workload(workload).is_none() {
                errors.push(format!("{}: moves unknown workload {workload:?}", l.name));
            }
        }
    }
    errors
}

/// `BENCHMARK.json` as the tables define it.
pub fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Array(items.iter().map(|&s| Json::from(s)).collect());
    let object = |fields: Vec<(&str, Json)>| {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    object(vec![
        ("command", strings(&COMMAND)),
        ("paths", strings(&PATHS)),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Array(
                WORKLOADS
                    .iter()
                    .map(|w| object(vec![("name", w.name.into()), ("why", w.why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.into()),
                            ("bound", m.bound.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Checks the tables, and that a `BENCHMARK.json` document publishes
/// exactly them.
pub fn validate(published: &Json) -> Vec<String> {
    let mut errors = check_tables();
    if *published != manifest() {
        errors.push(format!(
            "BENCHMARK.json does not match the benchmark's tables, which give:\n{}",
            manifest().pretty()
        ));
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    fn published() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn tables_are_consistent() {
        assert_eq!(check_tables(), Vec::<String>::new());
    }

    #[test]
    fn manifest_matches_the_tables() {
        assert_eq!(validate(&published()), Vec::<String>::new());
    }

    #[test]
    fn names_follow_the_published_syntax() {
        for ok in ["setup_s", "core.search.speedup", "stream-csv", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "has space", "p99%", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    /// Rewrites one entry of one array in the real manifest.
    fn with_entry(key: &str, index: usize, edit: impl FnOnce(&mut Json)) -> Json {
        let mut m = published();
        if let Json::Object(fields) = &mut m {
            let (_, v) = fields.iter_mut().find(|(k, _)| k == key).expect("key");
            if let Json::Array(items) = v {
                edit(&mut items[index]);
            }
        }
        m
    }

    fn set(j: &mut Json, key: &str, value: Json) {
        if let Json::Object(fields) = j {
            fields.iter_mut().find(|(k, _)| k == key).expect("field").1 = value;
        }
    }

    #[test]
    fn validation_rejects_drift_from_the_tables() {
        let renamed = with_entry("per_layer", 0, |j| {
            set(j, "name", Json::from("data csv read"))
        });
        assert!(!validate(&renamed).is_empty());
        let loose = with_entry("end_to_end", 1, |j| set(j, "bound", Json::from(0.5)));
        assert!(!validate(&loose).is_empty());
        let unit = with_entry("end_to_end", 0, |j| set(j, "unit", Json::from("ms")));
        assert!(!validate(&unit).is_empty());
        let extra = with_entry("workloads", 0, |j| {
            if let Json::Object(fields) = j {
                fields.push(("rate".into(), Json::from(1.0)));
            }
        });
        assert!(!validate(&extra).is_empty());
        let mut dropped = published();
        if let Json::Object(fields) = &mut dropped {
            fields.retain(|(k, _)| k != "run_seconds");
        }
        assert!(!validate(&dropped).is_empty());
        assert!(!validate(&Json::Array(Vec::new())).is_empty());
    }

    #[test]
    fn every_moves_pair_names_a_metric_and_workload() {
        for l in &PER_LAYER {
            for (metric, workload) in l.moves {
                assert!(END_TO_END.iter().any(|m| m.name == *metric), "{}", l.name);
                assert!(super::workload(workload).is_some(), "{}", l.name);
            }
        }
        // Only the two validity metrics of the breakdown move nothing.
        let idle: Vec<&str> = PER_LAYER
            .iter()
            .filter(|l| l.moves.is_empty())
            .map(|l| l.name)
            .collect();
        assert_eq!(idle, ["replay.coverage", "trace.overhead_ratio"]);
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
