//! The `hdoutlier` binary: argument vector in, `(exit code, output)` out.
//! All logic lives in the library so it is testable.

use std::io::Write;

// Counting wrapper over the system allocator: feeds the
// `hdoutlier.alloc.*` gauges and lets `--profile-out` attribute allocated
// bytes to live spans. Installed only in the shipped binary — the bench
// binaries measure the unwrapped allocator.
#[global_allocator]
static ALLOC: hdoutlier_obs::CountingAllocator = hdoutlier_obs::CountingAllocator;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let (code, mut output) = hdoutlier_cli::run_to(&argv, &mut out);
    let result = if code == hdoutlier_cli::exit::OK {
        out.write_all(output.as_bytes()).and_then(|()| out.flush())
    } else {
        // Error texts are built without a final newline; end the line so
        // the shell prompt does not land on it.
        if !output.is_empty() && !output.ends_with('\n') {
            output.push('\n');
        }
        let mut err = std::io::stderr();
        err.write_all(output.as_bytes()).and_then(|()| err.flush())
    };
    if let Err(e) = result {
        // A consumer closing the pipe early (`hdoutlier ... | head`) is a
        // normal shutdown, not an error worth a panic or a message.
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            let _ = writeln!(std::io::stderr(), "write failed: {e}");
            std::process::exit(hdoutlier_cli::exit::RUNTIME);
        }
    }
    std::process::exit(code);
}
