#![warn(missing_docs)]

//! Benchmark harness reproducing every table and figure of
//! "Outlier Detection for High Dimensional Data" (Aggarwal & Yu, SIGMOD 2001).
//!
//! Each experiment lives in its own module and is runnable through the
//! `repro` binary (`cargo run -p hdoutlier-bench --release --bin repro -- <cmd>`):
//!
//! | command      | reproduces                                             |
//! |--------------|--------------------------------------------------------|
//! | `table1`     | Table 1: brute vs Gen vs Gen° time & quality, 5 datasets |
//! | `table2`     | Table 2: arrhythmia class distribution                  |
//! | `arrhythmia` | §3.1: rare-class hit rate, subspace vs kNN baseline      |
//! | `housing`    | §3.1: interpretable housing projections                  |
//! | `figure1`    | Figure 1: subspace views expose what full-d hides        |
//! | `params`     | §2.4: the k*/φ selection analysis                        |
//! | `scaling`    | §3: brute-force search-space explosion with d            |
//! | `ablation`   | DESIGN.md §5: grids, selection schemes, caching          |
//! | `prescreen`  | §3.1's classifier pre-screening remark, quantified       |
//! | `intensional`| §1's cost critique of the roll-up/drill-down method \[23\] |
//! | `threads`    | pooled brute force at 1/2/4 workers: speedup + identity  |
//! | `all`        | everything above, in order                               |
//!
//! Timing gates live in the std-only bins: `repro threads --assert-against`
//! (brute-force search), `stream_throughput` and `serve_bench`, all on the
//! one fastest-of-three rule, [`bench_json::assert_against`].

pub mod ablation;
pub mod arrhythmia;
pub mod bench_json;
pub mod figure1;
pub mod housing;
pub mod intensional_exp;
pub mod params_exp;
pub mod prescreen;
pub mod scaling;
pub mod table;
pub mod table1;
pub mod table2;
pub mod threads_exp;
