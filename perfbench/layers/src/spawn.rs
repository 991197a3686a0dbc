//! `perfbench-spawn` — run one command and report its wall time, CPU time and
//! peak resident memory, for the repository benchmark (`perfbench/run.py`).
//!
//! ```text
//! perfbench-spawn [--calibrate] REPORT PROGRAM [ARG]...
//! ```
//!
//! The command inherits standard input and output. When it ends, one JSON
//! object `{"code": .., "wall_s": .., "cpu_s": .., "maxrss_kb": .., "calib_s": ..}`
//! is written to the file REPORT, and this process exits with code 0.
//!
//! With `--calibrate` the launcher, once the command has ended, times fixed
//! calibration loops (see [`calibrate`]) and reports their wall time as
//! `calib_s`; otherwise `calib_s` is `null`. The run scales its times by the
//! fastest calibration it saw, so that a host running slower for minutes does
//! not read as a slower program. The loops run after the command, not
//! before, so their table never counts in the command's peak memory.
//!
//! The measurement needs a small parent: Linux carries the peak resident
//! memory of the process that execs over into the new program's peak, so a
//! command started straight from a large process reports that process's
//! memory whenever it is the larger of the two. This launcher is a few
//! megabytes, below any `momlab` run.

use std::hint::black_box;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Table of the calibration dispatch loop: 2 MiB, between the L2 and L3
/// sizes of common server cores.
const CALIB_WORDS: usize = 1 << 18;

/// Steps of the calibration dispatch loop, about 30 ms on a 2-vCPU Xeon VM.
const CALIB_STEPS: u64 = 2_500_000;

/// Steps of the calibration arithmetic chain, about 25 ms on the same VM.
const CALIB_ALU_STEPS: u64 = 20_000_000;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench-spawn reads `struct rusage` as laid out on 64-bit Linux");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

impl Timeval {
    fn seconds(&self) -> f64 {
        self.tv_sec as f64 + self.tv_usec as f64 * 1e-6
    }
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen `long`s of
/// which the first is the peak resident set size in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Time two fixed loops that stand in for the simulator's own work and
/// return their summed wall time. The first is a dispatch on pseudo-random
/// opcodes, as an interpreter makes, reading and writing a table of
/// `CALIB_WORDS` words; the second a chain of dependent multiplies and adds.
/// Their work never changes, so the time measures only how fast the host
/// runs this process at the moment: a host that shares the core slows the
/// arithmetic chain, one that shares the caches slows the table loop.
fn calibrate() -> f64 {
    dispatch_loop() + arithmetic_loop()
}

/// The table loop of [`calibrate`]. The table is filled before the clock
/// starts, so page faults stay out.
fn dispatch_loop() -> f64 {
    let mask = CALIB_WORDS - 1;
    let mut table: Vec<u64> = (0..CALIB_WORDS as u64).collect();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 1;
    let start = Instant::now();
    for i in 0..black_box(CALIB_STEPS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let a = (x >> 8) as usize & mask;
        match x & 7 {
            0 => acc = acc.wrapping_add(table[a]),
            1 => table[a] = acc ^ i,
            2 => acc = acc.rotate_left(5) ^ x,
            3 => acc = acc.wrapping_mul(x | 1),
            4 => {
                acc = if acc & 1 == 0 {
                    acc >> 1
                } else {
                    acc.wrapping_mul(3).wrapping_add(1)
                }
            }
            5 => table[(a + 1) & mask] = table[a].wrapping_add(acc),
            6 => acc ^= table[a] >> 3,
            _ => acc = acc.wrapping_sub(i),
        }
    }
    black_box((acc, &table));
    start.elapsed().as_secs_f64()
}

/// The arithmetic chain of [`calibrate`].
fn arithmetic_loop() -> f64 {
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    let start = Instant::now();
    for i in 0..black_box(CALIB_ALU_STEPS) {
        a = a.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(i);
        b ^= a >> 17;
        c = c.wrapping_add(b.rotate_left(7));
        d = d.wrapping_mul(c | 1);
    }
    black_box((a, b, c, d));
    start.elapsed().as_secs_f64()
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let calibrated = args.first().is_some_and(|a| a == "--calibrate");
    if calibrated {
        args.remove(0);
    }
    let [report, program, rest @ ..] = args.as_slice() else {
        eprintln!("usage: perfbench-spawn [--calibrate] REPORT PROGRAM [ARG]...");
        return ExitCode::from(2);
    };
    let start = Instant::now();
    let child = match Command::new(program).args(rest).spawn() {
        Ok(child) => child,
        Err(e) => {
            eprintln!("perfbench-spawn: cannot run {program}: {e}");
            return ExitCode::from(2);
        }
    };
    let pid = i32::try_from(child.id()).expect("Linux process ids fit in an i32");
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `pid` is our own unreaped child, and both out-pointers
        // point at live, writable values of the types `wait4` fills in.
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            eprintln!("perfbench-spawn: wait4 failed: {err}");
            return ExitCode::from(2);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    // The child is reaped; dropping its handle neither waits nor kills.
    drop(child);
    // Exit code when the command exited, minus the signal number when a
    // signal ended it.
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -(status & 0x7f)
    };
    let cpu = usage.ru_utime.seconds() + usage.ru_stime.seconds();
    let calib = if calibrated {
        calibrate().to_string()
    } else {
        "null".to_string()
    };
    let line = format!(
        "{{\"code\": {code}, \"wall_s\": {wall}, \"cpu_s\": {cpu}, \"maxrss_kb\": {}, \"calib_s\": {calib}}}\n",
        usage.ru_maxrss
    );
    if let Err(e) = std::fs::write(report, line) {
        eprintln!("perfbench-spawn: cannot write {report}: {e}");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}
