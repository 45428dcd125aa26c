//! One run of the shipped binary as a child process: stdout read through a
//! pipe (digested as it arrives), stderr to a file, CPU time and peak RSS
//! from `wait4`, and a watchdog that kills a job past its time limit.
//!
//! Jobs are started through a launcher: this benchmark binary re-executed
//! as `benchmark --launch ...` (see [`launch`]), which spawns the job, reaps
//! it and writes its wall time and rusage to a file. A job spawned straight
//! from the benchmark process would report the benchmark's own resident set
//! as its peak RSS: Linux carries the parent's RSS high-water mark across
//! `exec` into the child's `ru_maxrss`. The launcher is small, so the peak
//! a job reports is its own.

use crate::check::Digest;
use crate::sys::{self, Exit, Proc, Usage};
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// No single job of any workload comes near this.
const JOB_LIMIT: Duration = Duration::from_secs(120);

/// The flag that runs this binary as the launcher.
pub const LAUNCH: &str = "--launch";

/// A finished job.
pub struct Job {
    /// From spawn to reaped.
    pub wall: Duration,
    pub exit: Exit,
    pub digest: Digest,
    pub lines: u64,
    /// The whole stdout, when asked for.
    pub stdout: Vec<u8>,
}

impl Job {
    /// `Err` with the job's stderr when it did not exit 0.
    pub fn ensure_success(&self, what: &str, stderr: &Path) -> Result<(), String> {
        if self.exit.success() {
            return Ok(());
        }
        let log = std::fs::read_to_string(stderr).unwrap_or_default();
        let tail: String = log.lines().rev().take(5).collect::<Vec<_>>().join(" | ");
        Err(format!("{what} exited with {:?}: {tail}", self.exit.code))
    }
}

/// Runs `bin args` through the launcher, with stdin from `stdin` (or
/// empty) and stderr to the file `stderr`.
pub fn run(
    bin: &Path,
    args: &[String],
    stdin: Option<&Path>,
    stderr: &Path,
    keep_stdout: bool,
) -> Result<Job, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot find the benchmark: {e}"))?;
    let report = stderr.with_extension("rusage");
    let mut launcher = Command::new(me);
    launcher
        .arg(LAUNCH)
        .arg(&report)
        .arg(stdin.unwrap_or(Path::new("")))
        .arg(stderr)
        .arg(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    // Its own process group, so the watchdog's kill reaches the job too.
    #[cfg(unix)]
    std::os::unix::process::CommandExt::process_group(&mut launcher, 0);
    let mut proc =
        Proc::spawn(&mut launcher).map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let mut out = proc.child().stdout.take().expect("stdout is piped");
    let pid = proc.pid();
    let (done, watchdog) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            if let Err(mpsc::RecvTimeoutError::Timeout) = watchdog.recv_timeout(JOB_LIMIT) {
                sys::kill(pid);
            }
        });
        let mut digest = Digest::default();
        let mut lines = 0u64;
        let mut stdout = Vec::new();
        let mut buf = vec![0u8; 64 * 1024];
        let read = loop {
            match out.read(&mut buf) {
                Ok(0) => break Ok(()),
                Ok(n) => {
                    let chunk = &buf[..n];
                    digest.update(chunk);
                    lines += chunk.iter().filter(|&&b| b == b'\n').count() as u64;
                    if keep_stdout {
                        stdout.extend_from_slice(chunk);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        drop(out);
        let launched = proc.wait();
        // Stops the watchdog (the receiver sees the sender hang up).
        drop(done);
        let launched = launched.map_err(|e| format!("wait failed: {e}"))?;
        read.map_err(|e| format!("reading stdout failed: {e}"))?;
        let text = std::fs::read_to_string(&report).unwrap_or_default();
        let (wall, exit) = match parse_report(&text) {
            Some(r) if launched.success() => r,
            _ => {
                return Err(format!(
                    "the launcher of {} exited with {:?}: {text}",
                    bin.display(),
                    launched.code
                ))
            }
        };
        Ok(Job {
            wall,
            exit,
            digest,
            lines,
            stdout,
        })
    })
}

/// The launcher, run as `benchmark --launch <report> <stdin> <stderr> <bin>
/// <args>...` with `args` the words after `--launch`. An empty `<stdin>`
/// means no input. Spawns the job with this process's stdout, reaps it and
/// writes `<code> <wall s> [<cpu s> <max rss MiB>]` to `<report>`. Returns
/// the launcher's exit code.
pub fn launch(args: &[String]) -> i32 {
    let [report, stdin, stderr, bin, job_args @ ..] = args else {
        eprintln!("benchmark {LAUNCH}: expected <report> <stdin> <stderr> <bin> <args>...");
        return 2;
    };
    let stdin = match stdin.as_str() {
        "" => Ok(Stdio::null()),
        path => std::fs::File::open(path).map(Stdio::from),
    };
    let stderr = std::fs::File::create(stderr);
    let (stdin, stderr) = match (stdin, stderr) {
        (Ok(i), Ok(e)) => (i, e),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark {LAUNCH}: {e}");
            return 1;
        }
    };
    let started = Instant::now();
    let reaped = Proc::spawn(
        Command::new(bin)
            .args(job_args)
            .stdin(stdin)
            .stderr(Stdio::from(stderr)),
    )
    .and_then(|mut job| job.wait());
    let wall = started.elapsed();
    let line = match reaped {
        Ok(exit) => format_report(wall, &exit),
        Err(e) => {
            eprintln!("benchmark {LAUNCH}: cannot run {bin}: {e}");
            return 1;
        }
    };
    match std::fs::write(report, line) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("benchmark {LAUNCH}: cannot write {report}: {e}");
            1
        }
    }
}

fn format_report(wall: Duration, exit: &Exit) -> String {
    let mut line = format!("{} {}", exit.code.unwrap_or(-1), wall.as_secs_f64());
    if let Some(u) = exit.usage {
        line += &format!(" {} {}", u.cpu_s, u.max_rss_mb);
    }
    line
}

fn parse_report(text: &str) -> Option<(Duration, Exit)> {
    let fields: Vec<f64> = text
        .split_whitespace()
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    let (code, wall, usage) = match fields[..] {
        [code, wall] => (code, wall, None),
        [code, wall, cpu_s, max_rss_mb] => (code, wall, Some(Usage { cpu_s, max_rss_mb })),
        _ => return None,
    };
    Some((
        Duration::try_from_secs_f64(wall).ok()?,
        Exit {
            code: (code >= 0.0).then_some(code as i32),
            usage,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips() {
        let exit = Exit {
            code: Some(0),
            usage: Some(Usage {
                cpu_s: 1.25,
                max_rss_mb: 13.5,
            }),
        };
        let (wall, back) =
            parse_report(&format_report(Duration::from_millis(1500), &exit)).unwrap();
        assert_eq!(wall, Duration::from_millis(1500));
        assert_eq!(back.code, Some(0));
        let usage = back.usage.unwrap();
        assert_eq!((usage.cpu_s, usage.max_rss_mb), (1.25, 13.5));

        let killed = Exit {
            code: None,
            usage: None,
        };
        let (_, back) = parse_report(&format_report(Duration::ZERO, &killed)).unwrap();
        assert!(back.code.is_none() && back.usage.is_none());
        assert!(parse_report("").is_none());
        assert!(parse_report("0 1.0 2.0").is_none());
    }
}
