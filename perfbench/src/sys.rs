//! The two system calls the standard library does not expose — `ppoll`
//! for the single-threaded load generator and `wait4` for a child's CPU
//! time and peak resident set — plus a child-process guard built on them.

use std::io;
use std::os::raw::{c_int, c_long, c_ulong, c_void};
use std::process::{Child, ChildStderr, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// `struct pollfd`.
#[repr(C)]
pub struct PollFd {
    pub fd: c_int,
    pub events: i16,
    pub revents: i16,
}

pub const POLLIN: i16 = 0x1;
pub const POLLOUT: i16 = 0x4;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage`: two timevals, then fourteen longs that are not read.
/// (`ru_maxrss` is one of them, but a spawned child's value includes the
/// parent's resident set from before `exec`; see [`Proc::sample_rss`].)
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [c_long; 14],
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn sysconf(name: c_int) -> c_long;
}

const SC_CLK_TCK: c_int = 2;

const WNOHANG: c_int = 1;

/// Waits until a descriptor in `fds` is ready or `timeout` passes;
/// returns how many are ready.
pub fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fds` is a valid, exclusively borrowed array of `pollfd`
    // for the duration of the call, `ts` outlives it, and a null signal
    // mask is allowed.
    let n = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    if n < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(n as usize)
}

/// What a reaped child used.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Highest `VmHWM` seen by [`Proc::sample_rss`], KiB.
    pub peak_rss_kib: u64,
}

/// A reaped child: whether it exited with code 0, and its usage.
pub struct Exit {
    pub success: bool,
    pub usage: Usage,
}

/// `VmHWM` of a running process, KiB.
fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// User plus system CPU time a running process has used so far, all
/// its threads together (live and exited), from `/proc/<pid>/stat`.
fn cpu_so_far(pid: u32) -> io::Result<Duration> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line, in clock ticks.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let mut next = || -> io::Result<u64> {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "short /proc/<pid>/stat"))
    };
    let ticks = next()? + next()?;
    // SAFETY: `sysconf` only reads a configuration value.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as u64;
    Ok(Duration::from_nanos(ticks * 1_000_000_000 / hz))
}

/// One `wait4` call; `Ok(None)` when `nohang` and the child still runs.
/// The exit's peak resident set is left 0 for the caller to fill.
fn wait4_once(pid: u32, nohang: bool) -> io::Result<Option<Exit>> {
    let mut status: c_int = 0;
    // SAFETY: all-zero bytes are a valid `rusage` (plain integers).
    let mut ru: Rusage = unsafe { std::mem::zeroed() };
    // SAFETY: `status` and `ru` are valid for writes for the duration of
    // the call.
    let r = unsafe {
        wait4(
            pid as c_int,
            &mut status,
            if nohang { WNOHANG } else { 0 },
            &mut ru,
        )
    };
    if r < 0 {
        return Err(io::Error::last_os_error());
    }
    if r == 0 {
        return Ok(None);
    }
    let tv = |t: &Timeval| Duration::new(t.tv_sec as u64, t.tv_usec as u32 * 1000);
    // WIFEXITED(status) && WEXITSTATUS(status) == 0.
    let success = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(Some(Exit {
        success,
        usage: Usage {
            cpu: tv(&ru.utime) + tv(&ru.stime),
            peak_rss_kib: 0,
        },
    }))
}

/// A child process under test. It is reaped with `wait4` (never through
/// `std::process::Child::wait`), and a child still running when the
/// guard drops is killed and reaped, so no run leaves a process behind.
pub struct Proc {
    child: Child,
    reaped: bool,
    peak_rss_kib: u64,
    /// Kept open so the child never writes into a closed pipe.
    pub stdout: Option<ChildStdout>,
    pub stderr: Option<ChildStderr>,
}

impl Proc {
    pub fn spawn(cmd: &mut Command) -> io::Result<Proc> {
        let mut child = cmd.spawn()?;
        Ok(Proc {
            stdout: child.stdout.take(),
            stderr: child.stderr.take(),
            child,
            reaped: false,
            peak_rss_kib: 0,
        })
    }

    /// Reads the child's `VmHWM` while it runs. The kernel drops it when
    /// the process exits, and `wait4`'s `ru_maxrss` cannot replace it,
    /// so callers sample close to the end of the child's work.
    pub fn sample_rss(&mut self) {
        if let Some(kib) = vm_hwm_kib(self.child.id()) {
            self.peak_rss_kib = self.peak_rss_kib.max(kib);
        }
    }

    /// CPU time the running child has used so far.
    pub fn cpu_so_far(&self) -> io::Result<Duration> {
        cpu_so_far(self.child.id())
    }

    fn reaped(&mut self, mut exit: Exit) -> Exit {
        self.reaped = true;
        exit.usage.peak_rss_kib = self.peak_rss_kib;
        exit
    }

    /// Spawns `program args…` with every stream discarded.
    pub fn spawn_quiet(program: &std::path::Path, args: &[String]) -> io::Result<Proc> {
        Proc::spawn(
            Command::new(program)
                .args(args)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null()),
        )
    }

    pub fn child_mut(&mut self) -> &mut Child {
        &mut self.child
    }

    /// Blocks until the child exits.
    pub fn wait(&mut self) -> io::Result<Exit> {
        let exit = wait4_once(self.child.id(), false)?.expect("blocking wait4 returns a child");
        Ok(self.reaped(exit))
    }

    /// Waits up to `limit` for the child to exit, then kills it; the
    /// flag says whether it exited by itself.
    pub fn wait_or_kill(&mut self, limit: Duration) -> io::Result<(Exit, bool)> {
        let deadline = Instant::now() + limit;
        loop {
            if let Some(exit) = wait4_once(self.child.id(), true)? {
                return Ok((self.reaped(exit), true));
            }
            if Instant::now() >= deadline {
                let _ = self.child.kill();
                return Ok((self.wait()?, false));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Kills and reaps the child.
    pub fn kill(&mut self) -> io::Result<Exit> {
        let _ = self.child.kill();
        self.wait()
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = wait4_once(self.child.id(), false);
        }
    }
}
