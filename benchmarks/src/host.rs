//! The machine under the benchmark: a reference clock that reads time in
//! units of a fixed kernel, CPU pinning, steal, CPU time, memory high-water,
//! and the facts of the run header.
//!
//! Why a reference clock. On the 2-vCPU box this was sized on, the same
//! arithmetic takes 0.21 ms or 0.40 ms depending on what the other hardware
//! thread is doing, and the machine flips between the two several times a
//! second with a duty cycle that differs from run to run. Wall-clock medians
//! of identical code therefore spread 20–35 % between runs. The same
//! durations divided by the cost of a fixed kernel sampled within a few
//! milliseconds of them spread 3–6 %. Every end-to-end time is reported that
//! way: scaled to the speed at which the kernel takes `REFERENCE_KERNEL_US`.

use std::fs;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::{median, percentile};

/// What the reference kernel costs on the sizing box when nothing disturbs
/// it. Only a scale: it makes reference time equal wall time on a quiet run
/// there.
const REFERENCE_KERNEL_US: f64 = 214.0;
/// The kernel is sampled whenever this much time has passed since the last
/// sample (about 1 % overhead).
const SAMPLE_EVERY: Duration = Duration::from_millis(20);

/// Half a sample: 750 schoolbook 1024-bit multiplies — the mul/adc chains
/// RSA spends its time in, so it slows the way the measured code slows when
/// the core is shared. Owned by the harness; changing it re-bases every time
/// the benchmark reports.
fn half_kernel_ns() -> u64 {
    let t = Instant::now();
    let mut a = black_box([0x9E37_79B9_7F4A_7C15u64; 16]);
    let b = black_box([0xD6E8_FEB8_6659_FD93u64; 16]);
    for _ in 0..750 {
        let mut acc = [0u64; 32];
        for i in 0..16 {
            let mut carry = 0u128;
            for j in 0..16 {
                let t = a[i] as u128 * b[j] as u128 + acc[i + j] as u128 + carry;
                acc[i + j] = t as u64;
                carry = t >> 64;
            }
            acc[i + 16] = carry as u64;
        }
        for i in 0..16 {
            a[i] = acc[i] ^ acc[i + 16];
        }
    }
    black_box(a);
    t.elapsed().as_nanos() as u64
}

/// One run of the kernel: when, and what it cost.
struct KernelSample {
    start_ns: u64,
    end_ns: u64,
    /// Twice the faster half, so a single interrupt does not read as a slow
    /// machine.
    cost_ns: f64,
}

/// A clock that also knows how fast the machine was at every moment.
pub struct Clock {
    epoch: Instant,
    samples: Vec<KernelSample>,
    last: Instant,
}

impl Clock {
    pub fn start() -> Clock {
        let now = Instant::now();
        let mut c = Clock {
            epoch: now,
            samples: Vec::new(),
            last: now,
        };
        c.mark();
        c
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Samples the kernel if one is due. Call between operations, never
    /// inside a timed one.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= SAMPLE_EVERY {
            self.mark();
        }
    }

    /// Samples the kernel now; returns the time right after it. Regions to
    /// be measured start and end at a mark.
    pub fn mark(&mut self) -> u64 {
        let start_ns = self.now_ns();
        let cost_ns = 2.0 * half_kernel_ns().min(half_kernel_ns()) as f64;
        self.last = Instant::now();
        let end_ns = self.now_ns();
        self.samples.push(KernelSample {
            start_ns,
            end_ns,
            cost_ns,
        });
        end_ns
    }

    /// Kernel cost that applies between sample `i` and sample `i + 1`.
    fn cost_after(&self, i: usize) -> f64 {
        let here = self.samples[i].cost_ns;
        self.samples
            .get(i + 1)
            .map_or(here, |next| (here + next.cost_ns) / 2.0)
    }

    /// Reference time of `[t0, t1]`: each stretch between two kernel samples
    /// counts in proportion to how fast the machine was then; the kernel
    /// runs themselves count for nothing.
    pub fn reference_ns(&self, t0: u64, t1: u64) -> f64 {
        // First sample that ends after t0; the stretch before it belongs to
        // the sample before.
        let first = self.samples.partition_point(|s| s.end_ns <= t0);
        let mut total = 0.0;
        let mut i = first.saturating_sub(1);
        while i < self.samples.len() {
            let from = self.samples[i].end_ns.max(t0);
            let to = self
                .samples
                .get(i + 1)
                .map_or(t1, |next| next.start_ns.min(t1));
            if from >= t1 {
                break;
            }
            if to > from {
                total += (to - from) as f64 * REFERENCE_KERNEL_US * 1e3 / self.cost_after(i);
            }
            i += 1;
        }
        total
    }

    /// Kernel costs sampled in `[t0, t1]`, in microseconds.
    fn costs_us(&self, t0: u64, t1: u64) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.start_ns >= t0 && s.end_ns <= t1)
            .map(|s| s.cost_ns / 1e3)
            .collect()
    }

    /// Reference microseconds of each of `n` calls of `f`, the kernel sampled
    /// in between: how a probe times a library call.
    /// Stops at the first call that fails.
    pub fn each_us<E>(
        &mut self,
        n: usize,
        mut f: impl FnMut(usize) -> Result<(), E>,
    ) -> Result<Vec<f64>, E> {
        let mut calls = Vec::with_capacity(n);
        self.mark();
        for i in 0..n {
            let at = self.now_ns();
            let t = Instant::now();
            f(i)?;
            calls.push((at, t.elapsed().as_nanos() as u64));
            self.tick();
        }
        self.mark();
        Ok(calls
            .into_iter()
            .map(|(at, ns)| self.reference_ns(at, at + ns) / 1e3)
            .collect())
    }

    pub fn median_us<E>(
        &mut self,
        n: usize,
        f: impl FnMut(usize) -> Result<(), E>,
    ) -> Result<f64, E> {
        Ok(median(&mut self.each_us(n, f)?))
    }

    /// `(median kernel cost in ms, drift %)` over `[t0, t1]`: drift is how
    /// far the last quarter's median sits from the first quarter's.
    pub fn diagnostics(&self, t0: u64, t1: u64) -> (f64, f64) {
        let costs = self.costs_us(t0, t1);
        if costs.len() < 8 {
            return (0.0, 0.0);
        }
        let q = costs.len() / 4;
        let first = median(&mut costs[..q].to_vec());
        let last = median(&mut costs[costs.len() - q..].to_vec());
        let mid = median(&mut costs.clone());
        (mid / 1e3, 100.0 * (last - first).abs() / mid)
    }

    /// Share of the kernel samples in `[t0, t1]` that cost over a quarter
    /// more than the fastest tenth: how much of the window the core was
    /// shared.
    pub fn slow_share(&self, t0: u64, t1: u64) -> f64 {
        let mut costs = self.costs_us(t0, t1);
        if costs.is_empty() {
            return 0.0;
        }
        costs.sort_by(f64::total_cmp);
        let fast = percentile(&costs, 0.1);
        costs.iter().filter(|c| **c > 1.25 * fast).count() as f64 / costs.len() as f64
    }
}

/// Pins this thread, and every thread it spawns afterwards, to the highest
/// CPU it is allowed on; returns that CPU. The workloads are closed loops
/// with one request in flight, so client and server never need two cores;
/// on one core they stop paying a cross-CPU wake-up per frame, whose cost
/// depends on where the scheduler happened to put them.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn pin_to_one_cpu() -> Option<u32> {
    use std::arch::asm;
    const SCHED_SETAFFINITY: isize = 203;
    const SCHED_GETAFFINITY: isize = 204;
    let mut allowed = [0u64; 16];
    let got: isize;
    // SAFETY: sched_getaffinity(0, 128, allowed) writes at most 128 bytes
    // into `allowed`, which is 128 bytes long and outlives the call; the
    // `syscall` instruction clobbers only rcx and r11 besides rax.
    unsafe {
        asm!("syscall", inlateout("rax") SCHED_GETAFFINITY => got, in("rdi") 0usize,
             in("rsi") 128usize, in("rdx") allowed.as_mut_ptr(),
             lateout("rcx") _, lateout("r11") _, options(nostack));
    }
    if got <= 0 {
        return None;
    }
    let (word, bits) = allowed.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros();
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    let set: isize;
    // SAFETY: sched_setaffinity(0, 128, one) only reads 128 bytes from
    // `one`, which outlives the call; same clobbers as above.
    unsafe {
        asm!("syscall", inlateout("rax") SCHED_SETAFFINITY => set, in("rdi") 0usize,
             in("rsi") 128usize, in("rdx") one.as_ptr(),
             lateout("rcx") _, lateout("r11") _, options(nostack));
    }
    (set == 0).then_some(word as u32 * 64 + bit)
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn pin_to_one_cpu() -> Option<u32> {
    None
}

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_default()
}

/// `(steal, total)` jiffies of the whole machine since boot.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = read("/proc/stat");
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, fields.iter().take(8).sum())
}

/// User + system CPU time of this process, all threads, in microseconds.
pub fn process_cpu_us() -> u64 {
    let stat = read("/proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, in USER_HZ (100 on every Linux we run on).
    let rest = stat.rsplit_once(") ").map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse().ok())
        .collect();
    f.iter().sum::<u64>() * 10_000
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
        / 1024.0
}

/// The checkout's commit, when the checkout is a git repository.
fn commit() -> String {
    let head = read(".git/HEAD");
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}")).trim().to_string(),
        None => head.to_string(),
    }
}

pub fn header(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    nproc: usize,
    pinned: Option<u32>,
    sizes: &str,
) -> String {
    let or_unknown = |s: String| if s.is_empty() { "unknown".into() } else { s };
    format!(
        "# tep-benchmarks workload={workload} trace={} seed={seed} seconds={seconds}\n\
         # commit={} nproc={nproc} pinned_cpu={} kernel={} tcp_tw_reuse={}\n\
         # config: {}\n# sizes: {sizes}",
        trace as u8,
        or_unknown(commit()),
        pinned.map_or("none".to_string(), |c| c.to_string()),
        or_unknown(read("/proc/sys/kernel/osrelease").trim().to_string()),
        or_unknown(read("/proc/sys/net/ipv4/tcp_tw_reuse").trim().to_string()),
        crate::sut::CONFIG,
    )
}
