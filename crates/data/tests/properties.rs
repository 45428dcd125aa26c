//! Seeded property tests for the data substrate: equi-depth and equi-width
//! discretization, dataset selection, the generators, and the CSV reader
//! and writer, including robustness on arbitrary and adversarially quoted
//! text. All run on [`hdoutlier_rng::for_each_case`]; a failing case
//! prints the seed that replays it alone.

use hdoutlier_data::csv::{parse_records, read_str, write_string, CsvOptions};
use hdoutlier_data::discretize::{DiscretizeStrategy, Discretized, MISSING_CELL};
use hdoutlier_data::generators::{correlated, uniform, CorrelatedConfig};
use hdoutlier_data::Dataset;
use hdoutlier_rng::rngs::StdRng;
use hdoutlier_rng::{for_each_case, Rng};

/// A small dataset (1–39 rows, 1–7 dims) of values in `±1e4`, about one
/// in ten missing (NaN).
fn small_dataset(rng: &mut StdRng) -> Dataset {
    let (rows, dims) = (rng.gen_range(1..40), rng.gen_range(1..8));
    let values = (0..rows * dims)
        .map(|_| {
            if rng.gen_bool(0.1) {
                f64::NAN
            } else {
                rng.gen_range(-1e4..1e4)
            }
        })
        .collect();
    Dataset::new(values, rows, dims).unwrap()
}

/// A string of `len` characters drawn from `alphabet`.
fn string_over(rng: &mut StdRng, alphabet: &[char], len: std::ops::Range<usize>) -> String {
    let n = rng.gen_range(len);
    (0..n)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
        .collect()
}

/// Any character but `'\n'`: ASCII, control characters, and multi-byte
/// code points alike.
fn any_char(rng: &mut StdRng) -> char {
    loop {
        let c = match rng.gen_range(0..4) {
            0 => rng.gen_range(0u32..0x80),
            1 => rng.gen_range(0x80u32..0x800),
            2 => rng.gen_range(0x800u32..0x10000),
            _ => rng.gen_range(0x10000u32..0x110000),
        };
        match char::from_u32(c) {
            Some(c) if c != '\n' => return c,
            _ => {}
        }
    }
}

fn any_string(rng: &mut StdRng, len: std::ops::Range<usize>) -> String {
    let n = rng.gen_range(len);
    (0..n).map(|_| any_char(rng)).collect()
}

fn chars(s: &str) -> Vec<char> {
    s.chars().collect()
}

#[test]
fn equi_depth_ranges_hold_within_one_of_each_other() {
    for_each_case(0xda7a_0001, 256, |rng| {
        let ds = small_dataset(rng);
        let phi = rng.gen_range(1u32..12);
        let disc = Discretized::new(&ds, phi, DiscretizeStrategy::EquiDepth).unwrap();
        for dim in 0..ds.n_dims() {
            let present = disc.present_count(dim);
            let counts: Vec<usize> = (0..phi as u16)
                .map(|r| disc.grid_range(dim, r).count)
                .collect();
            assert_eq!(counts.iter().sum::<usize>(), present, "dim {dim}");
            let missing = (0..ds.n_rows()).filter(|&i| ds.is_missing(i, dim)).count();
            assert_eq!(present + missing, ds.n_rows(), "dim {dim}");
            if present >= phi as usize {
                let min = counts.iter().min().unwrap();
                let max = counts.iter().max().unwrap();
                assert!(max - min <= 1, "φ={phi} dim {dim} counts {counts:?}");
            }
        }
    });
}

#[test]
fn discretization_preserves_missingness() {
    for_each_case(0xda7a_0002, 256, |rng| {
        let ds = small_dataset(rng);
        let phi = rng.gen_range(1u32..8);
        for strategy in [DiscretizeStrategy::EquiDepth, DiscretizeStrategy::EquiWidth] {
            let disc = Discretized::new(&ds, phi, strategy).unwrap();
            for i in 0..ds.n_rows() {
                for j in 0..ds.n_dims() {
                    assert_eq!(ds.is_missing(i, j), disc.cell(i, j) == MISSING_CELL);
                    if !ds.is_missing(i, j) {
                        assert!(disc.cell(i, j) < phi as u16, "{strategy:?} ({i},{j})");
                    }
                }
            }
        }
    });
}

#[test]
fn equi_width_cells_respect_their_boundaries() {
    for_each_case(0xda7a_0003, 256, |rng| {
        let n = rng.gen_range(2..60);
        let values: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e3..1e3)).collect();
        let phi = rng.gen_range(1u32..8);
        let ds = Dataset::new(values.clone(), n, 1).unwrap();
        let disc = Discretized::new(&ds, phi, DiscretizeStrategy::EquiWidth).unwrap();
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let width = (hi - lo) / phi as f64;
        for (i, &v) in values.iter().enumerate() {
            let cell = disc.cell(i, 0) as f64;
            assert!(v >= lo + cell * width - 1e-9, "{v} below cell {cell}");
            assert!(
                v <= lo + (cell + 1.0) * width + 1e-9,
                "{v} above cell {cell}"
            );
        }
    });
}

#[test]
fn csv_round_trip_preserves_values_and_missingness() {
    let check = |ds: &Dataset| {
        let text = write_string(ds);
        let back = read_str(&text, &CsvOptions::default()).unwrap();
        assert_eq!(back.n_rows(), ds.n_rows());
        assert_eq!(back.n_dims(), ds.n_dims());
        for i in 0..ds.n_rows() {
            for j in 0..ds.n_dims() {
                let (a, b) = (ds.value(i, j), back.value(i, j));
                assert!(
                    (a.is_nan() && b.is_nan()) || a == b,
                    "({i},{j}): {a} vs {b}"
                );
            }
        }
    };
    // A shrunk failure once recorded, kept as a fixed input: a 1×1
    // all-missing dataset.
    check(&Dataset::new(vec![f64::NAN], 1, 1).unwrap());
    for_each_case(0xda7a_0004, 256, |rng| check(&small_dataset(rng)));
}

#[test]
fn csv_parser_splits_repeated_records_into_the_same_fields() {
    let alphabet = chars("abcdefghijklmnopqrstuvwxyz0123456789 ");
    for_each_case(0xda7a_0005, 256, |rng| {
        let n_fields = rng.gen_range(1..6);
        let fields: Vec<String> = (0..n_fields)
            .map(|_| string_over(rng, &alphabet, 0..7))
            .collect();
        let n_records = rng.gen_range(1..5);
        let line = fields.join(",");
        let text = vec![line; n_records].join("\n");
        let recs = parse_records(&text, ',').unwrap();
        if fields.len() == 1 && fields[0].is_empty() {
            // A single empty field is a blank document.
            assert!(recs.is_empty(), "{text:?}");
        } else {
            assert_eq!(recs.len(), n_records, "{text:?}");
            for r in &recs {
                assert_eq!(r.len(), fields.len(), "{text:?}");
            }
        }
    });
}

#[test]
fn selecting_every_row_or_column_keeps_the_shape() {
    for_each_case(0xda7a_0006, 256, |rng| {
        let ds = small_dataset(rng);
        let all_cols: Vec<usize> = (0..ds.n_dims()).collect();
        assert_eq!(ds.select_columns(&all_cols).unwrap().n_dims(), ds.n_dims());
        let all_rows: Vec<usize> = (0..ds.n_rows()).collect();
        assert_eq!(ds.select_rows(&all_rows).unwrap().n_rows(), ds.n_rows());
    });
}

#[test]
fn generators_are_deterministic_per_seed() {
    for_each_case(0xda7a_0007, 256, |rng| {
        let (seed, n, d) = (
            rng.gen_range(0u64..1000),
            rng.gen_range(1..50),
            rng.gen_range(1..6),
        );
        assert_eq!(uniform(n, d, seed), uniform(n, d, seed));
        let c = CorrelatedConfig {
            n_rows: n,
            n_dims: d,
            group_size: 2,
            strength: 0.9,
            seed,
        };
        assert_eq!(correlated(&c), correlated(&c));
    });
}

#[test]
fn csv_parser_never_panics_on_arbitrary_text() {
    for_each_case(0xda7a_0008, 256, |rng| {
        let text = any_string(rng, 0..301);
        // Any outcome is fine; panicking is not.
        let _ = parse_records(&text, ',');
        let _ = read_str(&text, &CsvOptions::default());
    });
}

#[test]
fn csv_parser_never_panics_on_quote_heavy_input() {
    let alphabet = chars("\",\n\rabcdefghijklmnopqrstuvwxyz");
    for_each_case(0xda7a_0009, 256, |rng| {
        let parts = rng.gen_range(0..20);
        let text: String = (0..parts)
            .map(|_| string_over(rng, &alphabet, 0..9))
            .collect();
        let _ = parse_records(&text, ',');
        let _ = read_str(&text, &CsvOptions::default());
    });
}

#[test]
fn well_formed_unquoted_input_always_parses() {
    let alphabet = chars("abcdefghijklmnopqrstuvwxyz0123456789._-");
    for_each_case(0xda7a_000a, 256, |rng| {
        let n_rows = rng.gen_range(1..20);
        let rows: Vec<Vec<String>> = (0..n_rows)
            .map(|_| (0..3).map(|_| string_over(rng, &alphabet, 1..7)).collect())
            .collect();
        let text = rows
            .iter()
            .map(|r| r.join(","))
            .collect::<Vec<_>>()
            .join("\n");
        assert_eq!(parse_records(&text, ',').unwrap(), rows, "{text:?}");
    });
}

#[test]
fn quoted_fields_round_trip_verbatim() {
    let check = |fields: &[String]| {
        // Quote every field, doubling embedded quotes, and parse back.
        let line = fields
            .iter()
            .map(|f| format!("\"{}\"", f.replace('"', "\"\"")))
            .collect::<Vec<_>>()
            .join(",");
        assert_eq!(
            parse_records(&line, ',').unwrap(),
            vec![fields.to_vec()],
            "{line:?}"
        );
    };
    // A shrunk failure once recorded, kept as a fixed input: `""` is one
    // record with one empty field, not a blank line.
    check(&[String::new()]);
    for_each_case(0xda7a_000b, 256, |rng| {
        let n = rng.gen_range(1..6);
        let fields: Vec<String> = (0..n).map(|_| any_string(rng, 0..13)).collect();
        check(&fields);
    });
}

#[test]
fn writer_output_always_reparses() {
    for_each_case(0xda7a_000c, 256, |rng| {
        let n_dims = rng.gen_range(1..6);
        let n_rows = rng.gen_range(1usize..60) / n_dims + 1;
        let values = (0..n_rows * n_dims)
            .map(|_| {
                if rng.gen_range(0..5) == 0 {
                    f64::NAN
                } else {
                    rng.gen_range(-1e9..1e9)
                }
            })
            .collect();
        let ds = Dataset::new(values, n_rows, n_dims).unwrap();
        let back = read_str(&write_string(&ds), &CsvOptions::default()).unwrap();
        assert_eq!(back.n_rows(), n_rows);
        assert_eq!(back.n_dims(), n_dims);
    });
}
