//! What the harness reads from the host: the spin-loop speed probe that
//! flags a noisy run, peak memory, per-thread CPU time, and the
//! environment record written next to every result.

use std::time::Instant;

/// Milliseconds a fixed integer spin loop takes — the host-speed probe run
/// before and after each workload. The loop is pure register arithmetic,
/// so a change between the two readings is the box, not the program.
pub fn spin_ms() -> f64 {
    let mut best = f64::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..20_000_000u64 {
            x = (x ^ i).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(13);
        }
        std::hint::black_box(x);
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// One reading of the [`SpeedProbe`], milliseconds per part.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Reading {
    /// The compute part: copy, mix and sort 16 384 words.
    pub compute_ms: f64,
    /// The kernel part: 100 echoes over a loopback TCP pair.
    pub kernel_ms: f64,
}

/// What the compute part takes on the reference host (this box in its
/// usual state, rounded), ms. A constant of the benchmark: changing it
/// rescales every timing metric.
pub const REF_COMPUTE_MS: f64 = 0.2;
/// What the kernel part takes on the reference host, ms.
pub const REF_KERNEL_MS: f64 = 0.2;

/// Which probe parts a workload's timings follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// In-process library calls: the compute part.
    Library,
    /// Requests over TCP: the geometric mean of both parts.
    Wire,
}

/// The factor that turns a time measured between readings `before` and
/// `after` into the time the same work takes on the reference host:
/// reference probe time ÷ measured probe time (mean of the two readings).
/// 1 when a reading is missing.
pub fn host_scale(before: Reading, after: Reading, family: Family) -> f64 {
    let part = |reference: f64, b: f64, a: f64| {
        if b > 0.0 && a > 0.0 {
            reference / ((b + a) / 2.0)
        } else {
            1.0
        }
    };
    let compute = part(REF_COMPUTE_MS, before.compute_ms, after.compute_ms);
    match family {
        Family::Library => compute,
        Family::Wire => (compute * part(REF_KERNEL_MS, before.kernel_ms, after.kernel_ms)).sqrt(),
    }
}

/// The host-speed probe, read before and after every round and every
/// set-up.
///
/// The box's speed moves in phases of seconds to minutes between levels
/// 1.3× to 2× apart (core clock and shared-cache state follow what the
/// other tenants of the host do), the same for every instruction stream
/// of one kind: a round's wall time and a fixed piece of harness-owned
/// work timed next to it rise and fall together. The probe is that piece
/// of work, in two parts because user code and kernel code do not move by
/// the same factor: *compute* (copy a 128 KB array, mix it, sort it —
/// allocation, arithmetic, branches, L1/L2 traffic) and *kernel* (write
/// and read 64 bytes over a loopback TCP pair — the system-call and
/// network-stack path every wire request takes). Each part is run
/// [`SpeedProbe::REPS`] times per reading and the fastest kept, so a
/// stolen time slice does not read as a slow host.
///
/// The probe never changes with the code under test: it calls nothing
/// outside `std`.
#[derive(Debug)]
pub struct SpeedProbe {
    words: Vec<u64>,
    echo: Option<(std::net::TcpStream, std::net::TcpStream)>,
}

impl Default for SpeedProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl SpeedProbe {
    /// Repetitions per reading; the fastest counts.
    pub const REPS: usize = 4;
    const WORDS: usize = 16 * 1024;
    const ECHOES: usize = 100;

    /// Allocate the probe's array and connect its loopback pair.
    pub fn new() -> SpeedProbe {
        let echo = (|| {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").ok()?;
            let a = std::net::TcpStream::connect(listener.local_addr().ok()?).ok()?;
            let (b, _) = listener.accept().ok()?;
            a.set_nodelay(true).ok()?;
            Some((a, b))
        })();
        SpeedProbe {
            words: (0..Self::WORDS as u64).collect(),
            echo,
        }
    }

    /// One reading (about 2 ms).
    pub fn read(&mut self) -> Reading {
        use std::io::{Read, Write};
        let mut best = Reading {
            compute_ms: f64::MAX,
            kernel_ms: f64::MAX,
        };
        for _ in 0..Self::REPS {
            let t = Instant::now();
            let mut w = self.words.clone();
            for (i, e) in w.iter_mut().enumerate() {
                *e = e.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i as u64);
            }
            w.sort_unstable();
            std::hint::black_box(&w);
            best.compute_ms = best.compute_ms.min(t.elapsed().as_secs_f64() * 1e3);

            let Some((a, b)) = self.echo.as_mut() else {
                best.kernel_ms = 0.0;
                continue;
            };
            let t = Instant::now();
            let mut buf = [7u8; 64];
            let mut alive = true;
            for _ in 0..Self::ECHOES {
                alive &= a.write_all(&buf).is_ok() && b.read_exact(&mut buf).is_ok();
            }
            best.kernel_ms = if alive {
                best.kernel_ms.min(t.elapsed().as_secs_f64() * 1e3)
            } else {
                0.0
            };
        }
        best
    }
}

/// Pin the calling thread — `bench` calls this first thing, so the whole
/// process, every thread the stack starts and every child — to one CPU:
/// the highest-numbered one it may run on. Returns that CPU.
///
/// Left to the scheduler, a run's threads land together or apart for the
/// life of the process, and the two placements differ by half again on
/// the wire (`wire-hot`:
/// 270 k against 400 k requests/s, same binary, same seed, back to back),
/// because a wake-up across CPUs costs a VM exit. On one CPU the threads
/// take turns, every hand-off is a context switch, and a run measures the
/// program's CPU time per operation instead of where its threads landed.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        let mut allowed = [0u64; 16];
        let size = std::mem::size_of_val(&allowed);
        // SAFETY: the mask is a live, writable buffer of `size` bytes.
        if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..allowed.len() * 64)
            .rev()
            .find(|c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: the mask is a live buffer of `size` bytes.
        (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Tell the C allocator to keep what the process frees: one arena (every
/// thread runs on one CPU anyway, see [`pin_to_one_cpu`]), no trimming of
/// the heap top, and no private mappings for blocks under 32 MB. Resident
/// memory then climbs to what the workload needs at once and stays there,
/// instead of following which large block happened to be free when a
/// round ended (±15 % from seed to seed on `shard-burst`), and the rounds
/// stop paying page faults for memory they had a moment ago. Returns
/// whether every knob took. Linux with glibc only; elsewhere a no-op.
pub fn keep_freed_memory() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: mallopt only sets allocator parameters; called from
        // `main` before any other thread exists.
        unsafe {
            mallopt(M_ARENA_MAX, 1) == 1
                && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
                && mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    false
}

/// A field of `/proc/self/status` in kB (`VmHWM`, `VmRSS`).
fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resident set of this process right now, MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:").map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) the *calling thread* has used. Linux
/// reports them in clock ticks, 100 per second on every supported kernel.
pub fn thread_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/thread-self/stat") else {
        return 0.0;
    };
    // fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the full line, i.e. the 12th and 13th after it
    let Some(rest) = stat.rsplit_once(')').map(|x| x.1) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Logical processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The environment record: where and on what a result was measured.
pub fn env_json(seed: u64) -> String {
    let esc = gbtl_util::json::escape;
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|x| x.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let load = std::fs::read_to_string("/proc/loadavg")
        .map(|l| l.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    format!(
        "{{\"seed\":{seed},\"git_sha\":\"{}\",\"nproc\":{},\"cpu\":\"{}\",\"rustc\":\"{}\",\
         \"loadavg\":\"{}\"}}",
        esc(&git_sha()),
        nproc(),
        esc(&cpu),
        esc(&rustc),
        esc(&load)
    )
}

/// HEAD of the repository the benchmark sits in, read from `.git` without
/// running git; `unknown` in an exported checkout.
fn git_sha() -> String {
    let git = crate::repo_root().join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_scale_is_reference_time_over_measured_time() {
        let at = |c: f64, k: f64| Reading {
            compute_ms: c,
            kernel_ms: k,
        };
        let reference = at(REF_COMPUTE_MS, REF_KERNEL_MS);
        assert_eq!(host_scale(reference, reference, Family::Library), 1.0);
        assert_eq!(host_scale(reference, reference, Family::Wire), 1.0);
        // a host half as fast: every time counts half
        let slow = at(2.0 * REF_COMPUTE_MS, 2.0 * REF_KERNEL_MS);
        assert_eq!(host_scale(slow, slow, Family::Library), 0.5);
        assert_eq!(host_scale(slow, slow, Family::Wire), 0.5);
        // the library follows the compute part only, the wire both
        let mixed = at(REF_COMPUTE_MS, 4.0 * REF_KERNEL_MS);
        assert_eq!(host_scale(mixed, mixed, Family::Library), 1.0);
        assert_eq!(host_scale(mixed, mixed, Family::Wire), 0.5);
        // no reading, no correction
        assert_eq!(host_scale(Reading::default(), slow, Family::Wire), 1.0);
    }

    #[test]
    fn probes_read_something_sane() {
        assert!(spin_ms() > 0.0);
        let mut probe = SpeedProbe::new();
        let r = probe.read();
        assert!(r.compute_ms > 0.0 && r.kernel_ms > 0.0, "{r:?}");
        assert!(rss_mb() > 0.0 && rss_peak_mb() >= rss_mb());
        assert!(thread_cpu_s() >= 0.0);
        assert!(nproc() >= 1);
        let env = gbtl_util::json::parse(&env_json(7)).expect("env record is JSON");
        assert_eq!(env.u64_field("seed"), Some(7));
        assert!(env.str_field("cpu").is_some());
    }
}
