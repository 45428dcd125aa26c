//! Seeded property tests for the data substrate: equi-depth and equi-width
//! discretization (equi-depth checked against the sort-based grid its
//! boundary selection replaced), dataset selection, the generators, and the CSV reader
//! and writer, including robustness on arbitrary and adversarially quoted
//! text and a differential check of the tokenizer, whole and fed a few
//! bytes per read, against a character-at-a-time reference parser. All run
//! on [`hdoutlier_rng::for_each_case`]; a failing case prints the seed that
//! replays it alone.

use hdoutlier_data::csv::{
    parse_records, read_from, read_str, write_string, ColumnRef, CsvOptions,
};
use hdoutlier_data::discretize::{DiscretizeStrategy, Discretized, GridRange};
use hdoutlier_data::generators::{correlated, uniform, CorrelatedConfig};
use hdoutlier_data::{DataError, Dataset};
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

/// `0.0` and `-0.0` are one value: they tie, and ties split by row order.
#[test]
fn equi_depth_ties_both_zeros_in_row_order() {
    let column = [0.0, -0.0, -0.0, 0.0, -1.0, 1.0];
    let ds = Dataset::new(column.to_vec(), column.len(), 1).unwrap();
    let disc = Discretized::new(&ds, 3, DiscretizeStrategy::EquiDepth).unwrap();
    let cells: Vec<u16> = (0..column.len()).map(|row| disc.cell(row, 0)).collect();
    // Ranks: -1.0 first, then the four zeros as rows 0, 1, 2, 3, then 1.0.
    assert_eq!(cells, [0, 1, 1, 2, 0, 2]);
    let counts: Vec<usize> = (0..3).map(|r| disc.grid_range(0, r).count).collect();
    assert_eq!(counts, [2, 2, 2]);
}

/// The sort-based equi-depth grid that boundary selection replaced, kept as
/// the oracle: each column's present values sorted by value (`-0.0` keyed
/// as `0.0`), ties by row; rank `r` of `m` in range `⌊r·φ/m⌋`; each range's
/// bounds folded over its members in row order. Returns `cells[dim][row]`
/// and `ranges[dim][range]`.
fn oracle_equi_depth(ds: &Dataset, phi: u32) -> (Vec<Vec<u16>>, Vec<Vec<GridRange>>) {
    let mut all_cells = Vec::new();
    let mut all_ranges = Vec::new();
    for dim in 0..ds.n_dims() {
        let column = ds.column(dim);
        let mut present: Vec<(f64, usize)> = (0..column.len())
            .filter(|&i| !column[i].is_nan())
            .map(|i| (if column[i] == 0.0 { 0.0 } else { column[i] }, i))
            .collect();
        present.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let m = present.len();
        let mut cells = vec![phi as u16; column.len()];
        for (rank, &(_, row)) in present.iter().enumerate() {
            let cell = ((rank as u64 * phi as u64) / m.max(1) as u64).min(phi as u64 - 1);
            cells[row] = cell as u16;
        }
        let empty = GridRange {
            lo: f64::INFINITY,
            hi: f64::NEG_INFINITY,
            count: 0,
        };
        let mut ranges = vec![empty; phi as usize];
        for (row, &cell) in cells.iter().enumerate() {
            if u32::from(cell) < phi {
                let r = &mut ranges[cell as usize];
                r.lo = r.lo.min(column[row]);
                r.hi = r.hi.max(column[row]);
                r.count += 1;
            }
        }
        all_cells.push(cells);
        all_ranges.push(ranges);
    }
    (all_cells, all_ranges)
}

/// A value for the discretization oracle: mostly from a small pool, so
/// ties are heavy, with NaN, both zeros, both infinities, subnormals and
/// the extremes among them.
fn awkward_value(rng: &mut StdRng, pool: &[f64]) -> f64 {
    match rng.gen_range(0..10) {
        0 => f64::NAN,
        1 => [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..4usize)],
        2 => {
            let subnormal = f64::from_bits(rng.gen_range(1..1 << 52));
            [subnormal, -subnormal, f64::MIN_POSITIVE, f64::MAX, f64::MIN][rng.gen_range(0..5usize)]
        }
        3 => rng.gen_range(-1e6..1e6),
        _ => pool[rng.gen_range(0..pool.len())],
    }
}

/// The shipped equi-depth grid is the sort-based one, cell for cell and
/// bit for bit in every range's bounds, across heavy ties, NaN, ±0.0,
/// ±inf, subnormals, all-missing columns, 0 to ~300 present values, and φ
/// of 1, 2, m − 1, m, m + 1 and 65534 around a column's present count m.
#[test]
fn equi_depth_matches_the_sort_based_oracle() {
    for_each_case(0xda7a_000e, 512, |rng| {
        let rows = match rng.gen_range(0..4) {
            0 => rng.gen_range(1..6),
            1 | 2 => rng.gen_range(1..40),
            _ => rng.gen_range(40..300),
        };
        let dims = rng.gen_range(1..5);
        let pool: Vec<f64> = (0..rng.gen_range(1..6))
            .map(|_| awkward_value(rng, &[1.0]))
            .collect();
        let all_missing = rng.gen_bool(0.2).then(|| rng.gen_range(0..dims));
        let values = (0..rows * dims)
            .map(|i| match all_missing == Some(i % dims) {
                true => f64::NAN,
                false => awkward_value(rng, &pool),
            })
            .collect();
        let ds = Dataset::new(values, rows, dims).unwrap();
        let dim = rng.gen_range(0..dims);
        let m = (0..rows).filter(|&i| !ds.is_missing(i, dim)).count() as u32;
        let phi = match rng.gen_range(0..7) {
            0 => 1,
            1 => 2,
            2 => m.saturating_sub(1).max(1),
            3 => m.max(1),
            4 => m + 1,
            5 => 65534,
            _ => rng.gen_range(1..20),
        };

        let disc = Discretized::new(&ds, phi, DiscretizeStrategy::EquiDepth).unwrap();
        let (cells, ranges) = oracle_equi_depth(&ds, phi);
        for dim in 0..dims {
            for (row, &cell) in cells[dim].iter().enumerate() {
                assert_eq!(disc.cell(row, dim), cell, "φ={phi} row {row} dim {dim}");
            }
            for (r, want) in ranges[dim].iter().enumerate() {
                let got = disc.grid_range(dim, r as u16);
                assert_eq!(
                    (got.lo.to_bits(), got.hi.to_bits(), got.count),
                    (want.lo.to_bits(), want.hi.to_bits(), want.count),
                    "φ={phi} dim {dim} range {r}: {got:?} vs {want:?}"
                );
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
                    assert_eq!(ds.is_missing(i, j), disc.cell(i, j) == phi as u16);
                    assert_eq!(ds.is_missing(i, j), disc.is_missing(i, j));
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

/// The reference parser: one character at a time, every field collected
/// into its own `String`. The shipped tokenizer must agree with it on every
/// input, errors included.
fn oracle_parse_records(text: &str, delimiter: char) -> Result<Vec<Vec<String>>, DataError> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    // A record containing a quoted field is never "blank", even if the
    // field is empty: `""` is one record with one empty field, `\n` is a
    // blank line to skip.
    let mut record_quoted = false;
    let mut saw_any = false;

    while let Some(c) = chars.next() {
        saw_any = true;
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                field.push(c);
            }
        } else if c == '"' {
            if field.is_empty() {
                in_quotes = true;
                record_quoted = true;
            } else {
                return Err(DataError::Parse(format!(
                    "unexpected quote inside unquoted field at record {}",
                    records.len() + 1
                )));
            }
        } else if c == delimiter {
            record.push(std::mem::take(&mut field));
        } else if c == '\n' || c == '\r' {
            if c == '\r' && chars.peek() == Some(&'\n') {
                chars.next();
            }
            record.push(std::mem::take(&mut field));
            let blank = record.len() == 1 && record[0].is_empty() && !record_quoted;
            if blank {
                record.clear();
            } else {
                records.push(std::mem::take(&mut record));
            }
            record_quoted = false;
        } else {
            field.push(c);
        }
    }
    if in_quotes {
        return Err(DataError::Parse("unterminated quoted field".into()));
    }
    if saw_any && (!field.is_empty() || !record.is_empty() || record_quoted) {
        record.push(field);
        records.push(record);
    }
    Ok(records)
}

/// The reference conversion of whole records into a [`Dataset`]: header,
/// width check, label column, then numbers.
fn oracle_read_str(text: &str, options: &CsvOptions) -> Result<Dataset, DataError> {
    let mut records = oracle_parse_records(text, options.delimiter)?;
    if records.is_empty() {
        return Err(DataError::Empty);
    }
    let header = options.has_header.then(|| records.remove(0));
    if records.is_empty() {
        return Err(DataError::Empty);
    }
    let width = records[0].len();
    for (i, r) in records.iter().enumerate() {
        if r.len() != width {
            return Err(DataError::Parse(format!(
                "record {} has {} fields, expected {width}",
                i + 1,
                r.len()
            )));
        }
    }
    let label_idx = match &options.label_column {
        None => None,
        Some(ColumnRef::Index(i)) if *i >= width => {
            return Err(DataError::ColumnIndexOutOfBounds {
                index: *i,
                n_dims: width,
            })
        }
        Some(ColumnRef::Index(i)) => Some(*i),
        Some(ColumnRef::Name(name)) => {
            let header = header
                .as_ref()
                .ok_or_else(|| DataError::Parse("label by name requires a header".into()))?;
            Some(
                header
                    .iter()
                    .position(|h| h.trim() == name)
                    .ok_or_else(|| DataError::NoSuchColumn(name.clone()))?,
            )
        }
    };
    let is_missing = |s: &str| options.missing_markers.iter().any(|m| m == s.trim());
    let mut labels = Vec::new();
    let mut label_codes: Vec<String> = Vec::new();
    let mut rows = Vec::new();
    for record in &records {
        let mut row = Vec::new();
        for (j, field) in record.iter().enumerate() {
            let t = field.trim();
            if Some(j) == label_idx {
                let code = match label_codes.iter().position(|c| c == t) {
                    Some(c) => c,
                    None => {
                        label_codes.push(t.to_string());
                        label_codes.len() - 1
                    }
                };
                labels.push(code as u32);
            } else if is_missing(t) {
                row.push(f64::NAN);
            } else {
                row.push(t.parse::<f64>().unwrap_or(f64::NAN));
            }
        }
        rows.push(row);
    }
    let mut ds = Dataset::from_rows(rows)?;
    if let Some(header) = header {
        let names: Vec<String> = header
            .iter()
            .enumerate()
            .filter(|(j, _)| Some(*j) != label_idx)
            .map(|(_, h)| h.trim().to_string())
            .collect();
        ds.set_names(names)?;
    }
    if label_idx.is_some() {
        ds.set_labels(labels)?;
    }
    Ok(ds)
}

/// Shape, names, labels and the bit pattern of every value (NaNs
/// included) agree.
fn assert_bit_identical(a: &Dataset, b: &Dataset, text: &str) {
    assert_eq!(
        (a.n_rows(), a.n_dims()),
        (b.n_rows(), b.n_dims()),
        "{text:?}"
    );
    assert_eq!(a.names(), b.names(), "{text:?}");
    assert_eq!(a.labels(), b.labels(), "{text:?}");
    let bits = |d: &Dataset| -> Vec<u64> { d.rows().flatten().map(|v| v.to_bits()).collect() };
    assert_eq!(bits(a), bits(b), "{text:?}");
}

/// A reader handing out `bytes` a random 1 to `max` bytes per read.
struct Trickle<'a> {
    bytes: &'a [u8],
    max: usize,
    rng: &'a mut StdRng,
}

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self
            .rng
            .gen_range(1..=self.max)
            .min(self.bytes.len())
            .min(buf.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// The whole-text reader, the chunked reader fed a trickle of reads, and
/// the reference all agree: values to the bit, errors to the text and
/// record number.
#[test]
fn tokenizer_matches_the_reference_parser() {
    // `©` and the no-break space share `§`'s first UTF-8 byte; the tab,
    // the no-break and ideographic spaces are whitespace to `str::trim`.
    let tokens = [
        "\"", ",", ";", "§", "\n", "\r", " ", "?", "NaN", "0", "1", "2", "3", "4", "5", "6", "7",
        "8", "9", ".", "é", "©", "\u{a0}", "\t", "\u{3000}", "-", "e", "inf",
    ];
    for_each_case(0xda7a_000d, 1024, |rng| {
        // Up to 96 tokens: stop bytes land at every offset of a word.
        let n = rng.gen_range(0..96);
        let text: String = (0..n)
            .map(|_| tokens[rng.gen_range(0..tokens.len())])
            .collect();
        for delimiter in [',', ';', '§'] {
            assert_eq!(
                parse_records(&text, delimiter),
                oracle_parse_records(&text, delimiter),
                "{text:?} split on {delimiter:?}"
            );
            let options = CsvOptions {
                has_header: rng.gen_bool(0.5),
                delimiter,
                label_column: match rng.gen_range(0..4) {
                    0 | 1 => None,
                    2 => Some(ColumnRef::Index(rng.gen_range(0..3))),
                    _ => Some(ColumnRef::Name(
                        tokens[rng.gen_range(9usize..12)].to_string(),
                    )),
                },
                ..CsvOptions::default()
            };
            let whole = read_str(&text, &options);
            let max = rng.gen_range(1..=16);
            let trickle = Trickle {
                bytes: text.as_bytes(),
                max,
                rng: &mut *rng,
            };
            match (read_from(trickle, &options), &whole) {
                (Ok(got), Ok(want)) => assert_bit_identical(&got, want, &text),
                (got, want) => assert_eq!(
                    got.err().as_ref(),
                    want.as_ref().err(),
                    "{text:?} read at most {max} bytes per read with {options:?}"
                ),
            }
            match (whole, oracle_read_str(&text, &options)) {
                (Ok(got), Ok(want)) => assert_bit_identical(&got, &want, &text),
                (got, want) => {
                    let (got, want) = (got.err(), want.err());
                    // A header wider than its records can name the label
                    // column past the last field. The reader reports that
                    // column out of bounds; the reference failed later,
                    // on the count of labels or names.
                    let label_past_fields =
                        matches!(options.label_column, Some(ColumnRef::Name(_)))
                            && matches!(got, Some(DataError::ColumnIndexOutOfBounds { .. }))
                            && matches!(
                                want,
                                Some(
                                    DataError::LabelCountMismatch { .. }
                                        | DataError::NameCountMismatch { .. }
                                )
                            );
                    if !label_past_fields {
                        assert_eq!(got, want, "{text:?} read with {options:?}");
                    }
                }
            }
        }
    });
}
