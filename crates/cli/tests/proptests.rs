//! Robustness tests for the CLI: the argument parser and JSON writer must
//! never panic, and the top-level dispatcher must return a sane exit code on
//! arbitrary argument vectors.

use hdoutlier_cli::args::Spec;
use hdoutlier_json::Json;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arg_parser_never_panics(
        argv in proptest::collection::vec("[-=a-z0-9 ]{0,12}", 0..10),
    ) {
        let spec = Spec::new(&["phi", "k", "input"], &["json", "quiet"]);
        let _ = spec.parse(&argv);
    }

    #[test]
    fn dispatcher_never_panics_and_exit_codes_are_sane(
        argv in proptest::collection::vec("[-=a-z0-9.]{0,10}", 0..6),
    ) {
        // No positional argument ever names an existing file here (no '/'),
        // so nothing is read; the dispatcher must still behave.
        let (code, out) = hdoutlier_cli::run(&argv);
        prop_assert!([0, 1, 2].contains(&code), "exit {code}");
        prop_assert!(!out.is_empty());
    }

    #[test]
    fn json_strings_round_trip_through_escaping(s in ".{0,40}") {
        let rendered = Json::from(s.clone()).render();
        prop_assert!(rendered.starts_with('"') && rendered.ends_with('"'));
        // No raw control characters or unescaped quotes inside.
        let inner = &rendered[1..rendered.len() - 1];
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                chars.next(); // escape consumed
                continue;
            }
            prop_assert!(c != '"', "unescaped quote in {rendered:?}");
            prop_assert!((c as u32) >= 0x20, "raw control char in {rendered:?}");
        }
    }

    #[test]
    fn json_numbers_render_finitely(n in proptest::num::f64::ANY) {
        let rendered = Json::from(n).render();
        prop_assert!(!rendered.is_empty());
        if n.is_finite() {
            // Parsable back as f64 (approximately round-trips).
            let back: f64 = rendered.parse().unwrap();
            if n != 0.0 {
                prop_assert!(((back - n) / n).abs() < 1e-9, "{n} -> {rendered}");
            }
        } else {
            prop_assert_eq!(rendered, "null");
        }
    }

    #[test]
    fn json_nesting_balances(depth in 1usize..8) {
        let mut j = Json::object().field("leaf", 1usize);
        for i in 0..depth {
            j = Json::object().field(&format!("level{i}"), j);
        }
        let s = j.render();
        prop_assert_eq!(s.matches('{').count(), depth + 1);
        prop_assert_eq!(s.matches('{').count(), s.matches('}').count());
    }
}
