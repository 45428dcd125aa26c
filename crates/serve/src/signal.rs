//! SIGTERM/SIGINT → atomic-flag bridge for graceful drain.
//!
//! The serve command must keep scoring while a drain request is pending,
//! so termination signals cannot do their work inside the handler — the
//! handler only flips a flag, and the command's wait loop observes it and
//! runs the drain (stop accepting, finish in-flight requests, final
//! checkpoint per session) on a normal thread.
//!
//! This is a minimal `signal(2)` shim rather than a full `sigaction`
//! binding: the handler stores to a static atomic (async-signal-safe) and
//! nothing else. On non-Unix targets installation is a no-op and drain is
//! reachable only through `POST /shutdown`.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the signal handler; observed by [`termination_requested`].
static TERM: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// The installed handler: flips the flag, nothing more.
    extern "C" fn mark(_signum: i32) {
        super::TERM.store(true, super::Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        unsafe {
            signal(SIGTERM, mark);
            signal(SIGINT, mark);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Installs SIGTERM/SIGINT handlers that set the termination flag. Safe to
/// call more than once; later installations are idempotent.
pub fn install_termination_flag() {
    imp::install();
}

/// Whether a termination signal has arrived since process start.
pub fn termination_requested() -> bool {
    TERM.load(Ordering::SeqCst)
}
