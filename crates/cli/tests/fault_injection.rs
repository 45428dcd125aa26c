//! Fault-injection harness for `hdoutlier stream`: scripted readers and
//! writers drive `run_streaming` through I/O failures, corrupt records,
//! consumer hang-ups, and kill/resume cycles, proving every `--on-error`
//! policy path, the circuit breaker, and checkpoint atomicity end to end.

use hdoutlier_cli::commands::stream;
use hdoutlier_cli::exit;
use hdoutlier_data::generators::{planted_outliers, PlantedConfig};
use hdoutlier_json::Json;
use hdoutlier_serve::session::{Session, SessionConfig};
use hdoutlier_stream::checkpoint::staging_path;
use hdoutlier_stream::Checkpoint;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// A reader that replays a script of chunks and injected `io::Error`s —
/// mid-line truncation, garbage bytes, transient failures at exact offsets.
struct FaultyReader {
    script: VecDeque<Result<Vec<u8>, io::ErrorKind>>,
}

impl FaultyReader {
    fn new(script: Vec<Result<Vec<u8>, io::ErrorKind>>) -> io::BufReader<Self> {
        io::BufReader::new(Self {
            script: script.into(),
        })
    }
}

impl Read for FaultyReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.script.pop_front() {
            None => Ok(0),
            Some(Err(kind)) => Err(kind.into()),
            Some(Ok(bytes)) => {
                assert!(bytes.len() <= buf.len(), "script chunk exceeds read buffer");
                buf[..bytes.len()].copy_from_slice(&bytes);
                Ok(bytes.len())
            }
        }
    }
}

/// A writer that accepts `fail_after_lines` complete verdict lines, then
/// fails every subsequent write with the scripted error kind.
struct FaultyWriter {
    buf: Vec<u8>,
    fail_after_lines: usize,
    lines: usize,
    kind: io::ErrorKind,
}

impl FaultyWriter {
    fn new(fail_after_lines: usize, kind: io::ErrorKind) -> Self {
        Self {
            buf: Vec::new(),
            fail_after_lines,
            lines: 0,
            kind,
        }
    }

    fn text(&self) -> String {
        String::from_utf8(self.buf.clone()).expect("verdicts are valid UTF-8")
    }
}

impl Write for FaultyWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if self.lines >= self.fail_after_lines {
            return Err(self.kind.into());
        }
        self.buf.extend_from_slice(data);
        self.lines += data.iter().filter(|&&b| b == b'\n').count();
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("hdoutlier-cli-faults");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Trains a model on a planted dataset and returns its path plus the
/// headerless CSV data lines (the stream input).
fn train(name: &str, seed: u64) -> (PathBuf, Vec<String>) {
    let planted = planted_outliers(&PlantedConfig {
        n_rows: 400,
        n_dims: 6,
        n_outliers: 3,
        strong_groups: Some(2),
        seed,
        ..PlantedConfig::default()
    });
    let dir = temp_dir();
    let csv = dir.join(format!("{name}.csv"));
    hdoutlier_data::csv::write_path(&planted.dataset, &csv).expect("writable");
    let model = dir.join(format!("{name}.model.json"));
    let (code, out) = hdoutlier_cli::run(&argv(&[
        "detect",
        "--phi=4",
        "--k=2",
        "--m=6",
        "--search=brute",
        "--save-model",
        model.to_str().unwrap(),
        csv.to_str().unwrap(),
    ]));
    assert_eq!(code, exit::OK, "{out}");
    let text = std::fs::read_to_string(&csv).unwrap();
    let lines = text.lines().skip(1).map(str::to_string).collect();
    (model, lines)
}

fn stream_args(model: &Path, extra: &[&str]) -> Vec<String> {
    let mut args = argv(&["--model", model.to_str().unwrap(), "--no-header"]);
    args.extend(extra.iter().map(|s| s.to_string()));
    args
}

/// The acceptance scenario: a 10k-record stream with 5% corrupt lines under
/// `--on-error skip` yields exactly the clean stream's verdicts for the good
/// records (drift reports included), one error verdict per corrupt line, and
/// exit 0.
#[test]
fn skip_policy_on_10k_stream_with_5pct_corruption_matches_clean_run() {
    let (model, lines) = train("skip-10k", 61);
    let corrupt_kinds = [
        "total garbage",            // unparseable, wrong shape
        "1,2,3",                    // too few fields
        "1,2,3,4,5,banana",         // non-numeric field
        "\"unterminated,1,2,3,4,5", // malformed CSV quoting
    ];
    let mut clean = String::new();
    let mut dirty = String::new();
    let mut n_corrupt = 0usize;
    for i in 0..10_000 {
        let line = &lines[i % lines.len()];
        clean.push_str(line);
        clean.push('\n');
        dirty.push_str(line);
        dirty.push('\n');
        if (i + 1) % 20 == 0 {
            dirty.push_str(corrupt_kinds[n_corrupt % corrupt_kinds.len()]);
            dirty.push('\n');
            n_corrupt += 1;
        }
    }
    assert_eq!(n_corrupt, 500); // 5% of 10k

    let (code, reference) = stream::run_with_input(
        &stream_args(&model, &["--drift-every", "1000"]),
        clean.as_bytes(),
    );
    assert_eq!(code, exit::OK, "{reference}");

    let (code, out) = stream::run_with_input(
        &stream_args(&model, &["--drift-every", "1000", "--on-error", "skip"]),
        dirty.as_bytes(),
    );
    assert_eq!(code, exit::OK);

    let (errors, verdicts): (Vec<&str>, Vec<&str>) =
        out.lines().partition(|l| l.contains("\"error\":"));
    assert_eq!(errors.len(), n_corrupt);
    assert!(errors.iter().all(|l| l.contains("\"action\":\"skip\"")));
    // Good records come out byte-identical to the clean run, error verdicts
    // interleaved but never perturbing scores, indices, or drift reports.
    let expected: Vec<&str> = reference.lines().collect();
    assert_eq!(verdicts, expected);
}

#[test]
fn quarantine_policy_files_raw_lines_in_order_and_keeps_scoring() {
    let (model, lines) = train("quarantine", 62);
    let qpath = temp_dir().join("quarantine.ndcsv");
    let _ = std::fs::remove_file(&qpath);
    let input = format!(
        "{}\nnot,numbers,at,all,x,y\n{}\ngarbage\n{}\n",
        lines[0], lines[1], lines[2]
    );
    let quarantine_flag = format!("quarantine:{}", qpath.display());
    let (code, out) = stream::run_with_input(
        &stream_args(&model, &["--on-error", &quarantine_flag]),
        input.as_bytes(),
    );
    assert_eq!(code, exit::OK, "{out}");

    let out_lines: Vec<&str> = out.lines().collect();
    assert_eq!(out_lines.len(), 5);
    assert!(out_lines[0].contains("\"record\":0"));
    assert!(out_lines[1].contains("\"line\":2"), "{}", out_lines[1]);
    assert!(out_lines[1].contains("\"action\":\"quarantine\""));
    assert!(out_lines[2].contains("\"record\":1"));
    assert!(out_lines[3].contains("\"line\":4"), "{}", out_lines[3]);
    assert!(out_lines[4].contains("\"record\":2"));

    // The raw lines landed in the quarantine file, in arrival order.
    let filed = std::fs::read_to_string(&qpath).unwrap();
    assert_eq!(filed, "not,numbers,at,all,x,y\ngarbage\n");

    // A restart appends rather than truncating the evidence.
    let (code, _) = stream::run_with_input(
        &stream_args(&model, &["--on-error", &quarantine_flag]),
        "garbage again\n".as_bytes(),
    );
    assert_eq!(code, exit::OK);
    let filed = std::fs::read_to_string(&qpath).unwrap();
    assert_eq!(filed, "not,numbers,at,all,x,y\ngarbage\ngarbage again\n");
}

/// Scripted read faults: a transient I/O error, garbage (non-UTF-8) bytes,
/// and a mid-line truncation. Under `skip` the stream survives all three
/// with in-band error verdicts; under the default `abort` the first one is
/// fatal.
#[test]
fn read_faults_survive_skip_and_kill_abort() {
    let (model, lines) = train("read-faults", 63);
    let script = |lines: &[String]| {
        vec![
            Ok(format!("{}\n", lines[0]).into_bytes()),
            Err(io::ErrorKind::TimedOut),
            Ok(format!("{}\n", lines[1]).into_bytes()),
            Ok(b"\xff\xfe garbage bytes\n".to_vec()),
            // Mid-line truncation: the record is cut by an error, and its
            // tail arrives as a new (malformed) line.
            Ok(b"0.25,0.5".to_vec()),
            Err(io::ErrorKind::ConnectionReset),
            Ok(b",0.75,1.0,1.25,1.5\n".to_vec()),
            Ok(format!("{}\n", lines[2]).into_bytes()),
        ]
    };

    let (code, out) = stream::run_with_input(
        &stream_args(&model, &["--on-error", "skip"]),
        FaultyReader::new(script(&lines)),
    );
    assert_eq!(code, exit::OK, "{out}");
    let (errors, verdicts): (Vec<&str>, Vec<&str>) =
        out.lines().partition(|l| l.contains("\"error\":"));
    // Timeout, UTF-8 garbage, truncation error, and the orphaned tail.
    assert_eq!(errors.len(), 4, "{out}");
    assert!(errors[0].contains("stdin read failed"), "{}", errors[0]);
    assert_eq!(verdicts.len(), 3, "{out}");
    assert!(verdicts[2].contains("\"record\":2"), "{}", verdicts[2]);

    let (code, out) =
        stream::run_with_input(&stream_args(&model, &[]), FaultyReader::new(script(&lines)));
    assert_eq!(code, exit::RUNTIME);
    assert!(out.contains("stdin read failed"), "{out}");
}

#[test]
fn circuit_breaker_trips_on_scripted_garbage_despite_skip_policy() {
    let (model, lines) = train("breaker", 64);
    let mut input = format!("{}\n", lines[0]);
    input.push_str(&"garbage\n".repeat(6));
    let (code, out) = stream::run_with_input(
        &stream_args(
            &model,
            &["--on-error", "skip", "--max-consecutive-errors", "5"],
        ),
        input.as_bytes(),
    );
    assert_eq!(code, exit::RUNTIME);
    assert!(out.contains("--max-consecutive-errors 5"), "{out}");
    // Exactly 5 error verdicts escaped before the breaker opened.
    assert_eq!(
        out.lines().filter(|l| l.contains("\"error\":")).count(),
        5,
        "{out}"
    );
}

/// One read per `per_read` lines of `lines`, as a pipe delivers records
/// that arrive at that pace.
fn paced(lines: &[String], per_read: usize) -> io::BufReader<FaultyReader> {
    FaultyReader::new(
        lines
            .chunks(per_read)
            .map(|chunk| Ok((chunk.join("\n") + "\n").into_bytes()))
            .collect(),
    )
}

/// A hard write failure is a runtime error; a consumer hang-up (BrokenPipe)
/// is a normal shutdown that still lands the final checkpoint. The records
/// arrive one per read, as on a live pipe, so each verdict is flushed
/// before the next read and the writer sees one verdict per write.
#[test]
fn write_faults_hard_failure_vs_consumer_hangup() {
    let (model, lines) = train("write-faults", 65);
    let input = || paced(&lines[..10], 1);

    let mut hard = FaultyWriter::new(3, io::ErrorKind::Other);
    let (code, err) = stream::run_streaming(&stream_args(&model, &[]), input(), &mut hard);
    assert_eq!(code, exit::RUNTIME);
    assert!(err.contains("stdout write failed"), "{err}");
    assert_eq!(hard.text().lines().count(), 3);

    let ckpt = temp_dir().join("hangup.ckpt.json");
    let _ = std::fs::remove_file(&ckpt);
    let mut pipe = FaultyWriter::new(3, io::ErrorKind::BrokenPipe);
    let (code, err) = stream::run_streaming(
        &stream_args(&model, &["--checkpoint", ckpt.to_str().unwrap()]),
        input(),
        &mut pipe,
    );
    assert_eq!(code, exit::OK, "{err}");
    assert_eq!(pipe.text().lines().count(), 3);
    // Record 3 was scored before its verdict hit the closed pipe, so the
    // hang-up checkpoint records 4 scored records.
    let cp = Checkpoint::load(&ckpt).unwrap();
    assert_eq!(cp.records_scored, 4);
}

/// Records that arrive several to a read are written as one flush per read,
/// so a write failure shows up at the flush before the next read: the
/// verdicts already written are exactly the clean run's first ones, none
/// duplicated or reordered, and a hang-up there still checkpoints every
/// record scored before it.
#[test]
fn write_faults_in_bulk_input_show_at_the_next_flush() {
    let (model, lines) = train("write-faults-bulk", 71);
    let lines = &lines[..10];
    let (code, clean) = stream::run_with_input(&stream_args(&model, &[]), paced(lines, 4));
    assert_eq!(code, exit::OK, "{clean}");
    let first_read: Vec<&str> = clean.lines().take(4).collect();

    // The first flush writes four verdicts in one write; the second fails.
    let mut hard = FaultyWriter::new(3, io::ErrorKind::Other);
    let (code, err) = stream::run_streaming(&stream_args(&model, &[]), paced(lines, 4), &mut hard);
    assert_eq!(code, exit::RUNTIME);
    assert!(err.contains("stdout write failed"), "{err}");
    assert_eq!(hard.text().lines().collect::<Vec<_>>(), first_read);

    let ckpt = temp_dir().join("hangup-bulk.ckpt.json");
    let _ = std::fs::remove_file(&ckpt);
    let mut pipe = FaultyWriter::new(3, io::ErrorKind::BrokenPipe);
    let (code, err) = stream::run_streaming(
        &stream_args(&model, &["--checkpoint", ckpt.to_str().unwrap()]),
        paced(lines, 4),
        &mut pipe,
    );
    assert_eq!(code, exit::OK, "{err}");
    assert_eq!(pipe.text().lines().collect::<Vec<_>>(), first_read);
    // The second read's four records were scored before the flush that
    // found the pipe closed.
    assert_eq!(Checkpoint::load(&ckpt).unwrap().records_scored, 8);
}

/// A writer that, on every write, checks the checkpoint on disk covers no
/// more records than the verdict lines it has already received.
struct CheckpointWatcher {
    ckpt: PathBuf,
    lines: u64,
    writes: usize,
}

impl Write for CheckpointWatcher {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if let Ok(cp) = Checkpoint::load(&self.ckpt) {
            assert!(
                cp.records_scored <= self.lines,
                "a checkpoint of {} records before {} verdicts were written",
                cp.records_scored,
                self.lines
            );
        }
        self.lines += data.iter().filter(|&&b| b == b'\n').count() as u64;
        self.writes += 1;
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// All ten records arrive in one read, and a checkpoint is due every two:
/// each one must first flush the verdicts it covers.
#[test]
fn no_checkpoint_covers_an_unflushed_verdict() {
    let (model, lines) = train("checkpoint-flush", 72);
    let ckpt = temp_dir().join("checkpoint-flush.ckpt.json");
    let _ = std::fs::remove_file(&ckpt);
    let input = lines[..10].join("\n") + "\n";
    let mut watcher = CheckpointWatcher {
        ckpt: ckpt.clone(),
        lines: 0,
        writes: 0,
    };
    let args = [
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--checkpoint-every",
        "2",
    ];
    let (code, err) =
        stream::run_streaming(&stream_args(&model, &args), input.as_bytes(), &mut watcher);
    assert_eq!(code, exit::OK, "{err}");
    assert_eq!(watcher.lines, 10);
    // One flush per cadence checkpoint, not one per verdict.
    assert_eq!(watcher.writes, 5);
    assert_eq!(Checkpoint::load(&ckpt).unwrap().records_scored, 10);
}

/// The kill/resume acceptance scenario: stream half the records with a
/// checkpoint, "kill" the process, resume from the checkpoint on the second
/// half, and the concatenated output — drift reports included — must be
/// byte-identical to one uninterrupted run.
#[test]
fn kill_and_resume_reproduces_uninterrupted_output_byte_for_byte() {
    let (model, lines) = train("resume", 66);
    let ckpt = temp_dir().join("resume.ckpt.json");
    let _ = std::fs::remove_file(&ckpt);

    let all = lines.join("\n") + "\n";
    let (code, full) = stream::run_with_input(
        &stream_args(&model, &["--drift-every", "100"]),
        all.as_bytes(),
    );
    assert_eq!(code, exit::OK, "{full}");
    assert!(full.contains("\"drift\":"), "{full}");

    let first_half = lines[..200].join("\n") + "\n";
    let (code, first) = stream::run_with_input(
        &stream_args(
            &model,
            &[
                "--drift-every",
                "100",
                "--checkpoint",
                ckpt.to_str().unwrap(),
                "--checkpoint-every",
                "150",
            ],
        ),
        first_half.as_bytes(),
    );
    assert_eq!(code, exit::OK, "{first}");

    // Resume deliberately omits --drift-every: the cadence must travel in
    // the checkpoint.
    let second_half = lines[200..].join("\n") + "\n";
    let (code, second) = stream::run_with_input(
        &stream_args(&model, &["--resume", ckpt.to_str().unwrap()]),
        second_half.as_bytes(),
    );
    assert_eq!(code, exit::OK, "{second}");

    assert_eq!(first.clone() + &second, full);
}

#[test]
fn resume_rejects_a_checkpoint_from_a_different_model() {
    let (model_a, lines) = train("fingerprint-a", 67);
    let (model_b, _) = train("fingerprint-b", 68);
    let ckpt = temp_dir().join("mismatch.ckpt.json");
    let _ = std::fs::remove_file(&ckpt);

    let input = lines[..50].join("\n") + "\n";
    let (code, out) = stream::run_with_input(
        &stream_args(&model_a, &["--checkpoint", ckpt.to_str().unwrap()]),
        input.as_bytes(),
    );
    assert_eq!(code, exit::OK, "{out}");

    let (code, out) = stream::run_with_input(
        &stream_args(&model_b, &["--resume", ckpt.to_str().unwrap()]),
        input.as_bytes(),
    );
    assert_eq!(code, exit::RUNTIME);
    assert!(out.contains("fingerprint"), "{out}");

    // A corrupted checkpoint is rejected just as loudly.
    let good = std::fs::read_to_string(&ckpt).unwrap();
    std::fs::write(&ckpt, &good[..good.len() / 2]).unwrap();
    let (code, out) = stream::run_with_input(
        &stream_args(&model_a, &["--resume", ckpt.to_str().unwrap()]),
        input.as_bytes(),
    );
    assert_eq!(code, exit::RUNTIME);
    assert!(out.contains("cannot resume"), "{out}");
}

/// A stale staging file left by a killed process must not poison later
/// checkpointing: the next run overwrites it and lands a clean checkpoint.
#[test]
fn stale_staging_file_from_a_killed_run_is_harmless() {
    let (model, lines) = train("stale-tmp", 69);
    let ckpt = temp_dir().join("stale.ckpt.json");
    let _ = std::fs::remove_file(&ckpt);
    std::fs::write(staging_path(&ckpt), "{\"torn\": tru").unwrap();

    let input = lines[..30].join("\n") + "\n";
    let (code, out) = stream::run_with_input(
        &stream_args(&model, &["--checkpoint", ckpt.to_str().unwrap()]),
        input.as_bytes(),
    );
    assert_eq!(code, exit::OK, "{out}");
    assert!(!staging_path(&ckpt).exists());
    assert_eq!(Checkpoint::load(&ckpt).unwrap().records_scored, 30);
}

/// `stream` and a serve session run the same pipeline, so the same records
/// — wrong-arity ones included — give the same bytes: CSV on stdin in one
/// run versus NDJSON arrays posted to a session in two requests.
#[test]
fn stream_and_serve_session_agree_byte_for_byte_on_bad_records() {
    let (model, lines) = train("stream-vs-serve", 70);
    let mut csv = String::new();
    let mut ndjson = Vec::new();
    for (i, line) in lines.iter().take(200).enumerate() {
        // Every 20th record loses its last field: 10 of 200 (5%).
        let fields: Vec<&str> = line.split(',').collect();
        let fields = if i % 20 == 7 {
            &fields[..fields.len() - 1]
        } else {
            &fields[..]
        };
        csv.push_str(&fields.join(","));
        csv.push('\n');
        let values = fields
            .iter()
            .map(|f| Json::from(f.parse::<f64>().expect("numeric field")))
            .collect();
        ndjson.push(Json::Array(values).render());
    }
    let model_text = std::fs::read_to_string(&model).unwrap();
    let (code, streamed) = stream::run_with_input(
        &stream_args(&model, &["--on-error", "skip"]),
        csv.as_bytes(),
    );
    assert_eq!(code, exit::OK, "{streamed}");
    assert_eq!(streamed.matches("\"error\":").count(), 10, "{streamed}");

    let body = Json::parse(r#"{"on_error": "skip", "model_path": "m"}"#).unwrap();
    let config = SessionConfig::from_json(&body, "s".into(), &|_| Ok(model_text.clone())).unwrap();
    let mut session = Session::create(config, None, 0).unwrap_or_else(|e| panic!("{e}"));
    let mut served = String::new();
    for request in ndjson.chunks(113) {
        let outcome = session.score_lines(&(request.join("\n") + "\n"));
        assert!(outcome.tripped.is_none() && outcome.fatal.is_none());
        served.push_str(&outcome.ndjson);
    }
    assert_eq!(served, streamed);
}
