//! Run one child process and measure it from outside: wall clock from spawn
//! to exit, peak resident set and CPU time from the kernel's `rusage`.
//!
//! std's `Child::wait` discards the `rusage` the kernel hands back, and
//! `getrusage(RUSAGE_CHILDREN)` only gives a running maximum over every
//! child, so the two libc calls that return it per child are declared here
//! (Linux, 64-bit: the only platform the benchmark contract runs on).
//!
//! `ru_maxrss` has a trap: at `exec` the kernel folds the peak of the address
//! space the child was spawned *from* into the child's own maximum, so a child
//! of a 500 MB benchmark process never reports less than 500 MB. The
//! benchmark therefore measures through a launcher — a fresh copy of its own
//! executable (`bench_pipeline measure …`), a few MB large — which spawns and
//! times the program and prints what the kernel said ([`run_isolated`]).

use crate::json::{self, Value};
use std::ffi::OsString;
use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs of
/// which the first is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

/// `siginfo_t` is 128 bytes on Linux; only its size matters here.
#[repr(C, align(8))]
struct SigInfo([u8; 128]);

const P_PID: i32 = 1;
const WEXITED: i32 = 4;
const WNOWAIT: i32 = 0x0100_0000;

extern "C" {
    fn waitid(idtype: i32, id: u32, info: *mut SigInfo, options: i32) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What the kernel reported about one finished child.
#[derive(Clone, Debug)]
pub struct ChildRun {
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// Peak resident set, MB (10^6 bytes).
    pub peak_rss_mb: f64,
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Exit code; `None` when killed by a signal (including our timeout).
    pub exit_code: Option<i32>,
    pub timed_out: bool,
    pub stdout: String,
    pub stderr: String,
}

/// Run `program args…` to completion, killing it after `timeout`. Its stdout
/// and stderr go to `<log_stem>.stdout` / `.stderr` (files, so a chatty
/// child never blocks on a full pipe while we sleep in `waitid`).
pub fn run_measured(
    program: &Path,
    args: &[OsString],
    log_stem: &Path,
    timeout: Duration,
) -> std::io::Result<ChildRun> {
    let out_path = log_stem.with_extension("stdout");
    let err_path = log_stem.with_extension("stderr");
    let mut cmd = Command::new(program);
    cmd.args(args)
        .stdin(Stdio::null())
        .stdout(File::create(&out_path)?)
        .stderr(File::create(&err_path)?);

    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let pid = child.id();

    let (done_tx, done_rx) = mpsc::channel::<()>();
    let (wall, timed_out) = std::thread::scope(|s| {
        let watchdog = s.spawn(move || {
            let expired = done_rx.recv_timeout(timeout).is_err();
            if expired {
                // The child is still un-reaped (see WNOWAIT below), so the
                // pid cannot have been recycled.
                let _ = child.kill();
            }
            expired
        });
        let mut info = SigInfo([0; 128]);
        // SAFETY: `info` is a live, writable buffer of siginfo_t's size and
        // alignment; `pid` is our own un-reaped child. WNOWAIT leaves it a
        // zombie, so the watchdog above can never signal a recycled pid.
        let rc = unsafe { waitid(P_PID, pid, &mut info, WEXITED | WNOWAIT) };
        let wall = start.elapsed();
        assert_eq!(
            rc,
            0,
            "waitid on our own child failed: {}",
            std::io::Error::last_os_error()
        );
        let _ = done_tx.send(());
        // The watchdog only panics if `Child::kill` does, which it does not.
        let timed_out = watchdog.join().expect("watchdog thread panicked");
        (wall, timed_out)
    });

    let mut status = 0i32;
    let mut ru = Rusage::default();
    // SAFETY: both out-pointers are live locals of the types the call
    // fills; `pid` is our child, exited and not yet reaped.
    let reaped = unsafe { wait4(pid as i32, &mut status, 0, &mut ru) };
    assert_eq!(
        reaped,
        pid as i32,
        "wait4 on our own child failed: {}",
        std::io::Error::last_os_error()
    );
    // WIFEXITED / WEXITSTATUS.
    let exit_code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    let secs = |t: Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(ChildRun {
        wall_s: wall.as_secs_f64(),
        peak_rss_mb: ru.maxrss_kib as f64 * 1024.0 / 1e6,
        cpu_s: secs(ru.utime) + secs(ru.stime),
        exit_code,
        timed_out,
        stdout: std::fs::read_to_string(&out_path).unwrap_or_default(),
        stderr: std::fs::read_to_string(&err_path).unwrap_or_default(),
    })
}

impl ChildRun {
    /// The numbers, as the launcher prints them (the output is in the logs).
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("wall_s", Value::Num(self.wall_s)),
            ("peak_rss_mb", Value::Num(self.peak_rss_mb)),
            ("cpu_s", Value::Num(self.cpu_s)),
            (
                "exit_code",
                self.exit_code
                    .map_or(Value::Null, |c| Value::Num(f64::from(c))),
            ),
            ("timed_out", Value::Bool(self.timed_out)),
        ])
    }
}

/// [`run_measured`] from a small process: `launcher` is this benchmark's own
/// executable, whose `measure` mode runs `program args…` and prints the
/// [`ChildRun`] numbers as one JSON line.
pub fn run_isolated(
    launcher: &Path,
    program: &Path,
    args: &[OsString],
    log_stem: &Path,
    timeout: Duration,
) -> Result<ChildRun, String> {
    let out = Command::new(launcher)
        .arg("measure")
        .arg(log_stem)
        .arg(timeout.as_millis().to_string())
        .arg(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", launcher.display()))?;
    let line = String::from_utf8_lossy(&out.stdout);
    let v = json::parse(line.trim()).map_err(|e| format!("launcher said {line:?}: {e}"))?;
    let num = |key: &str| {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("launcher reported no {key}"))
    };
    Ok(ChildRun {
        wall_s: num("wall_s")?,
        peak_rss_mb: num("peak_rss_mb")?,
        cpu_s: num("cpu_s")?,
        exit_code: num("exit_code").ok().map(|c| c as i32),
        timed_out: v.get("timed_out") == Some(&Value::Bool(true)),
        stdout: std::fs::read_to_string(log_stem.with_extension("stdout")).unwrap_or_default(),
        stderr: std::fs::read_to_string(log_stem.with_extension("stderr")).unwrap_or_default(),
    })
}

/// The launcher side of [`run_isolated`]: `argv` is
/// `<log_stem> <timeout_ms> <program> <args…>`.
pub fn launcher_main(argv: &[String]) -> Result<(), String> {
    let [log_stem, timeout_ms, program, args @ ..] = argv else {
        return Err("usage: measure <log_stem> <timeout_ms> <program> [args…]".into());
    };
    let timeout_ms: u64 = timeout_ms
        .parse()
        .map_err(|_| format!("bad timeout {timeout_ms:?}"))?;
    let args: Vec<OsString> = args.iter().map(OsString::from).collect();
    let run = run_measured(
        Path::new(program),
        &args,
        Path::new(log_stem),
        Duration::from_millis(timeout_ms),
    )
    .map_err(|e| format!("spawn {program}: {e}"))?;
    println!("{}", run.to_json().compact());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str, log_stem: &Path, timeout: Duration) -> ChildRun {
        let args = ["-c".into(), script.into()];
        run_measured(Path::new("sh"), &args, log_stem, timeout).unwrap()
    }

    fn stem(name: &str) -> std::path::PathBuf {
        crate::tests::scratch(name).join("log")
    }

    #[test]
    fn reports_exit_code_output_and_resources() {
        let run = sh("echo hi; exit 3", &stem("exit"), Duration::from_secs(10));
        assert_eq!(run.exit_code, Some(3));
        assert!(!run.timed_out);
        assert_eq!(run.stdout, "hi\n");
        assert!(run.peak_rss_mb > 0.0 && run.wall_s > 0.0);
    }

    #[test]
    fn kills_a_child_that_outlives_the_timeout() {
        let run = sh("exec sleep 30", &stem("slow"), Duration::from_millis(100));
        assert!(run.timed_out && run.exit_code.is_none());
        assert!(run.wall_s < 5.0);
    }
}
