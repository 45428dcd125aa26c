//! Seeded property tests for the JSON writer, parser and golden-report
//! normalizer, on [`hdoutlier_rng::for_each_case`] (a failing case prints
//! the seed that replays it alone):
//!
//! - the writer escapes every string and renders every number as something
//!   the parser reads back;
//! - the parser never panics: random bytes, JSON-token soup and every
//!   truncation of a valid document come back as `Err` (or, for input that
//!   happens to be valid, as a value whose rendering is a fixed point);
//! - normalization is idempotent, leaves non-volatile content untouched,
//!   and survives a render/parse round trip byte-identically.

use hdoutlier_json::normalize::{normalize_report, normalize_with, VOLATILE_KEYS};
use hdoutlier_json::Json;
use hdoutlier_rng::rngs::StdRng;
use hdoutlier_rng::{for_each_case, Rng, RngCore};

/// Generates an arbitrary JSON value of bounded depth. Volatile keys from
/// the default set are deliberately mixed in among plain keys so the scrub
/// path is exercised at every level.
fn arbitrary(rng: &mut StdRng, depth: usize) -> Json {
    let kind = if depth == 0 {
        rng.gen_range(0..4)
    } else {
        rng.gen_range(0..6)
    };
    match kind {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_range(0..2) == 0),
        2 => Json::Number(match rng.gen_range(0..4) {
            0 => 0.0,
            1 => -(rng.gen_range(0..1_000_000) as f64) / 128.0,
            2 => rng.gen_range(0..u32::MAX as usize) as f64,
            _ => rng.gen::<f64>() * 1e9,
        }),
        3 => {
            let len = rng.gen_range(0..12);
            Json::String(
                (0..len)
                    .map(|_| rng.gen_range(b' '..b'~') as char)
                    .collect(),
            )
        }
        4 => {
            let len = rng.gen_range(0..5);
            Json::Array((0..len).map(|_| arbitrary(rng, depth - 1)).collect())
        }
        _ => {
            let len = rng.gen_range(0..6);
            Json::Object(
                (0..len)
                    .map(|i| {
                        // Roughly a third of keys are volatile.
                        let key = if rng.gen_range(0..3) == 0 {
                            VOLATILE_KEYS[rng.gen_range(0..VOLATILE_KEYS.len())].to_string()
                        } else {
                            format!("key_{i}_{}", rng.gen_range(0..100))
                        };
                        (key, arbitrary(rng, depth - 1))
                    })
                    .collect(),
            )
        }
    }
}

/// Any string of fewer than `max_len` characters: ASCII, control
/// characters and multi-byte code points alike.
fn any_string(rng: &mut StdRng, max_len: usize) -> String {
    let len = rng.gen_range(0..max_len);
    let mut s = String::new();
    while s.chars().count() < len {
        let code = match rng.gen_range(0..3) {
            0 => rng.gen_range(0u32..0x80),
            1 => rng.gen_range(0x80u32..0x10000),
            _ => rng.gen_range(0x10000u32..0x110000),
        };
        s.extend(char::from_u32(code));
    }
    s
}

#[test]
fn strings_render_with_every_quote_and_control_character_escaped() {
    for_each_case(0x1507_0001, 256, |rng| {
        let s = any_string(rng, 41);
        let rendered = Json::from(s.clone()).render();
        assert!(rendered.starts_with('"') && rendered.ends_with('"'));
        let inner = &rendered[1..rendered.len() - 1];
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                chars.next(); // the escaped character
                continue;
            }
            assert!(c != '"', "unescaped quote in {rendered:?}");
            assert!((c as u32) >= 0x20, "raw control character in {rendered:?}");
        }
        assert_eq!(Json::parse(&rendered).unwrap().as_str(), Some(s.as_str()));
    });
}

#[test]
fn numbers_render_parseably_and_non_finite_as_null() {
    for_each_case(0x1507_0002, 256, |rng| {
        let n = f64::from_bits(rng.next_u64());
        let rendered = Json::from(n).render();
        if n.is_finite() {
            let back: f64 = rendered.parse().unwrap();
            if n != 0.0 {
                assert!(((back - n) / n).abs() < 1e-9, "{n:e} -> {rendered}");
            }
            assert_eq!(Json::parse(&rendered).unwrap().as_number(), Some(back));
        } else {
            assert_eq!(rendered, "null", "{n}");
        }
    });
}

#[test]
fn nested_objects_balance_their_braces() {
    for_each_case(0x1507_0003, 256, |rng| {
        let depth = rng.gen_range(1..8);
        let mut j = Json::object().field("leaf", 1usize).unwrap();
        for i in 0..depth {
            j = Json::object().field(&format!("level{i}"), j).unwrap();
        }
        let s = j.render();
        assert_eq!(s.matches('{').count(), depth + 1, "{s}");
        assert_eq!(s.matches('}').count(), depth + 1, "{s}");
    });
}

/// Parses `text`; when it is a document, its rendering must parse back to
/// the same rendering.
fn assert_renders_to_a_fixed_point(text: &str) {
    if let Ok(value) = Json::parse(text) {
        let rendered = value.render();
        let again = Json::parse(&rendered).unwrap_or_else(|e| panic!("{text:?}: {e}"));
        assert_eq!(again.render(), rendered, "{text:?}");
    }
}

#[test]
fn parser_never_panics_on_random_bytes() {
    for_each_case(0x1507_0004, 256, |rng| {
        let len = rng.gen_range(0..200);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let text = String::from_utf8_lossy(&bytes);
        assert_renders_to_a_fixed_point(&text);
    });
}

#[test]
fn parser_never_panics_on_json_token_soup() {
    const TOKENS: &[&str] = &[
        "[",
        "]",
        "{",
        "}",
        ",",
        ":",
        "\"",
        "\\",
        "\\u",
        "\\ud800",
        "0",
        "-",
        "1.5",
        "e",
        "E+",
        "9e999",
        "true",
        "fals",
        "null",
        " ",
        "\n",
        "\"k\":",
        "é",
        "\u{1F600}",
        "\u{0}",
    ];
    for_each_case(0x1507_0005, 256, |rng| {
        let n = rng.gen_range(0..60);
        let text: String = (0..n)
            .map(|_| TOKENS[rng.gen_range(0..TOKENS.len())])
            .collect();
        assert_renders_to_a_fixed_point(&text);
    });
}

#[test]
fn every_truncation_of_a_document_is_an_error() {
    for_each_case(0x1507_0006, 64, |rng| {
        let doc = Json::Object(vec![("report".to_string(), arbitrary(rng, 3))]);
        let text = if rng.gen_bool(0.5) {
            doc.pretty()
        } else {
            doc.render()
        };
        assert!(Json::parse(&text).is_ok());
        for (cut, _) in text.char_indices() {
            assert!(
                Json::parse(&text[..cut]).is_err(),
                "prefix of {} bytes parsed: {:?}",
                cut,
                &text[..cut]
            );
        }
    });
}

#[test]
fn normalize_is_idempotent_on_arbitrary_documents() {
    for_each_case(0x5ce9_a410, 500, |rng| {
        let doc = arbitrary(rng, 4);
        let once = normalize_report(&doc);
        let twice = normalize_report(&once);
        assert_eq!(once, twice, "{}", doc.render());
        // Byte-level too: rendering a fixed point is a fixed point.
        assert_eq!(once.pretty(), twice.pretty());
    });
}

#[test]
fn normalize_round_trips_through_render_and_parse() {
    for_each_case(0xfeed_5eed, 200, |rng| {
        let normalized = normalize_report(&arbitrary(rng, 3));
        let rendered = normalized.pretty();
        let reparsed = Json::parse(&rendered).unwrap();
        // A golden file read back from disk normalizes to itself.
        assert_eq!(normalize_report(&reparsed).pretty(), rendered);
    });
}

#[test]
fn documents_without_volatile_keys_are_unchanged() {
    for_each_case(31, 200, |rng| {
        let doc = arbitrary(rng, 3);
        // With an empty volatile set nothing may change, whatever the doc.
        assert_eq!(normalize_with(&doc, &[]), doc);
    });
}
