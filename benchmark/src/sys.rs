//! Process accounting the standard library does not expose, through a
//! small Linux-only FFI shim: a child's CPU time and peak RSS from
//! `wait4`'s rusage. Off Linux the accounting is absent (`None`) and
//! children are reaped through the standard library.

use std::io;
use std::process::{Child, Command};

/// CPU time and peak resident set of a finished child.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set, MiB.
    pub max_rss_mb: f64,
}

/// How a child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// The exit code; `None` when a signal ended it.
    pub code: Option<i32>,
    pub usage: Option<Usage>,
}

impl Exit {
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }
}

/// A child process that is always reaped: by [`Proc::wait`], or on drop
/// after a kill, so no run leaves a process behind.
pub struct Proc {
    child: Child,
    reaped: bool,
}

impl Proc {
    pub fn spawn(command: &mut Command) -> io::Result<Proc> {
        Ok(Proc {
            child: command.spawn()?,
            reaped: false,
        })
    }

    pub fn child(&mut self) -> &mut Child {
        &mut self.child
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Blocks until the child exits and reaps it.
    pub fn wait(&mut self) -> io::Result<Exit> {
        let exit = reap(&mut self.child)?;
        self.reaped = true;
        Ok(exit)
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            kill(self.pid());
            let _ = self.child.kill();
            let _ = self.wait();
        }
    }
}

/// Kills `pid`, and the process group it leads if it leads one, if they
/// are still ours to kill. Used by job watchdogs, which hold only the pid;
/// the owner still reaps the child.
pub fn kill(pid: u32) {
    #[cfg(target_os = "linux")]
    linux::kill(pid);
    #[cfg(not(target_os = "linux"))]
    let _ = pid;
}

#[cfg(target_os = "linux")]
fn reap(child: &mut Child) -> io::Result<Exit> {
    linux::wait4(child.id())
}

#[cfg(not(target_os = "linux"))]
fn reap(child: &mut Child) -> io::Result<Exit> {
    Ok(Exit {
        code: child.wait()?.code(),
        usage: None,
    })
}

#[cfg(target_os = "linux")]
mod linux {
    use super::{Exit, Usage};
    use std::io;

    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
    /// of which only `ru_maxrss` (KiB) is read.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        _rest: [i64; 13],
    }

    const SIGKILL: i32 = 9;

    extern "C" {
        #[link_name = "wait4"]
        fn wait4_raw(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
        #[link_name = "kill"]
        fn kill_pid(pid: i32, sig: i32) -> i32;
    }

    pub fn wait4(pid: u32) -> io::Result<Exit> {
        let pid = i32::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
        let mut status = 0i32;
        let mut usage = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            maxrss: 0,
            _rest: [0; 13],
        };
        loop {
            // SAFETY: `status` and `usage` are live, writable, and laid out
            // as the kernel's `int` and 64-bit `struct rusage`; `pid` names
            // our own unreaped child, so the call reaps nothing else.
            let r = unsafe { wait4_raw(pid, &mut status, 0, &mut usage) };
            if r == pid {
                break;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        let seconds = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
        // WIFEXITED: low seven bits zero; the code is the next byte.
        let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
        Ok(Exit {
            code,
            usage: Some(Usage {
                cpu_s: seconds(&usage.utime) + seconds(&usage.stime),
                max_rss_mb: usage.maxrss as f64 / 1024.0,
            }),
        })
    }

    pub fn kill(pid: u32) {
        if let Ok(pid) = i32::try_from(pid) {
            // SAFETY: plain syscalls on integer arguments. A negative pid
            // names the process group; one that no longer exists, or a pid
            // that leads no group, fails with ESRCH, which is ignored.
            unsafe {
                kill_pid(-pid, SIGKILL);
                kill_pid(pid, SIGKILL);
            }
        }
    }
}
