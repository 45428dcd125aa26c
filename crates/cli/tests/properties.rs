//! Seeded robustness properties for the CLI, on
//! [`hdoutlier_rng::for_each_case`] (a failing case prints the seed that
//! replays it alone): the argument parser never panics, and the top-level
//! dispatcher answers any argument vector with a sane exit code and some
//! output.

use hdoutlier_cli::args::Spec;
use hdoutlier_rng::rngs::StdRng;
use hdoutlier_rng::{for_each_case, Rng};

/// A token of fewer than `max_len` characters from `alphabet`.
fn token(rng: &mut StdRng, alphabet: &[u8], max_len: usize) -> String {
    let n = rng.gen_range(0..max_len);
    (0..n)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char)
        .collect()
}

#[test]
fn arg_parser_never_panics() {
    let spec = Spec::new(&["phi", "k", "input"], &["json", "quiet"]);
    for_each_case(0xc11a_0001, 256, |rng| {
        let n = rng.gen_range(0..10);
        let argv: Vec<String> = (0..n)
            .map(|_| match rng.gen_range(0..4) {
                // Declared flags, so values and duplicates get parsed too.
                0 => ["--phi", "--k", "--input", "--json", "--quiet"][rng.gen_range(0usize..5)]
                    .to_string(),
                _ => token(rng, b"-=abcdefghijklmnopqrstuvwxyz0123456789 ", 13),
            })
            .collect();
        let _ = spec.parse(&argv);
    });
}

#[test]
fn dispatcher_never_panics_and_exit_codes_are_sane() {
    // `serve`, `stream` and `scenario` are never drawn: they bind a port,
    // read stdin or run whole scenario packs.
    const COMMANDS: &[&str] = &[
        "detect", "score", "explain", "advise", "baseline", "help", "--help", "-h",
    ];
    for_each_case(0xc11a_0002, 256, |rng| {
        let n = rng.gen_range(0..6);
        let mut argv: Vec<String> = (0..n)
            .map(|_| token(rng, b"-=abcdefghijklmnopqrstuvwxyz0123456789.", 11))
            .collect();
        if !argv.is_empty() && rng.gen_range(0..4) != 0 {
            argv[0] = COMMANDS[rng.gen_range(0..COMMANDS.len())].to_string();
        }
        if matches!(
            argv.first().map(String::as_str),
            Some("serve" | "stream" | "scenario")
        ) {
            return;
        }
        // No token contains '/', so no positional argument names a file
        // outside the working directory; the dispatcher must still behave.
        let (code, out) = hdoutlier_cli::run(&argv);
        assert!([0, 1, 2].contains(&code), "exit {code} for {argv:?}");
        assert!(!out.is_empty(), "no output for {argv:?}");
    });
}
