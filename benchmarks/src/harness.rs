//! One run of one workload: set-up → reopen cycles → untimed warm-up →
//! measured window → untimed checks → (traced run) per-layer metrics.
//!
//! End-to-end times are reference times (see `host::Clock`), except
//! `reopen_ms`: log replay is memory-bound, does not slow the way the
//! reference kernel does, and reads steadier as plain wall time. Per-layer
//! times are wall-clock, next to the diagnostics that say how disturbed the
//! machine was.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::host::{self, Clock};
use crate::stats::{median, percentile, ratio};
use crate::sut::{Fail, Obs};
use crate::trace::Tracer;
use crate::workload::{
    Ctx, Lab, MetricDef, Metrics, Sample, Timed, Workload, END_TO_END, PER_LAYER,
};

/// Set-up is repeated and its median reported, so one slow set-up does not
/// read as a regression.
const SETUP_REPS: usize = 3;
/// Drop + reopen cycles after each set-up.
const REOPEN_CYCLES: usize = 7;
const SEGMENTS: usize = 10;
/// In a traced run the plain and the traced instance take turns, so both
/// see the same machine.
const SLICE: Duration = Duration::from_millis(250);
/// A window with fewer operations than this cannot carry a p90.
const MIN_WINDOW_OPS: usize = 200;

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Divisor for set-up sizes and warm-up (1 = the real benchmark).
    pub shrink: usize,
    /// Scratch directory of this run; removed when the run ends.
    pub dir: PathBuf,
    /// Where `<workload>.spans.jsonl` goes.
    pub out: PathBuf,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
    pub defs: &'static [MetricDef],
}

impl Outcome {
    /// The result line the driver reads.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .defs
            .iter()
            .map(|(name, unit, _)| {
                let v = self.metrics.get(name);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn fresh_dir(base: &Path, name: &str) -> Result<PathBuf, Fail> {
    let dir = base.join(name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Operations per second of busy time: the median over `SEGMENTS`
/// equal-count segments of (operations ÷ time spent inside them).
fn ops_per_s(op_ns: &[f64]) -> f64 {
    let per = (op_ns.len() / SEGMENTS).max(1);
    let mut rates: Vec<f64> = op_ns
        .chunks(per)
        .filter(|c| c.len() == per)
        .map(|c| c.len() as f64 / (c.iter().sum::<f64>() / 1e9))
        .collect();
    median(&mut rates)
}

pub fn run<W: Workload>(o: &Opts) -> Result<Outcome, Fail> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned = host::pin_to_one_cpu();
    println!(
        "{}",
        host::header(
            W::NAME,
            o.seed,
            o.seconds,
            o.trace,
            nproc,
            pinned,
            &W::sizes(o.shrink)
        )
    );
    let mut clock = Clock::start();

    // Set-up. The timed run repeats it; a traced run builds one plain and
    // one traced instance and reports no set-up time.
    let reps = if o.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut reopen_ms = Vec::with_capacity(reps * REOPEN_CYCLES);
    let mut plain = None;
    for rep in 0..reps {
        drop(plain.take());
        let ctx = Ctx {
            seed: o.seed,
            dir: fresh_dir(&o.dir, &format!("plain{rep}"))?,
            shrink: o.shrink,
        };
        let t0 = clock.mark();
        plain = Some(W::setup(&ctx, Obs::off(), &mut clock)?);
        let t1 = clock.now_ns();
        clock.mark();
        setup_s.push(clock.reference_ns(t0, t1) / 1e9);
        // Reopen cycles on every set-up's log, not only the last: how fast
        // a log replays differs by some 20 % from one freshly written file
        // to the next, and hardly at all between cycles on the same file.
        if let Some(w) = &plain {
            for _ in 0..REOPEN_CYCLES {
                let t = Instant::now();
                w.reopen()?;
                reopen_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    let reopen_ms = median(&mut reopen_ms);
    let mut plain = plain.expect("at least one set-up");
    let mut traced = if o.trace {
        let ctx = Ctx {
            seed: o.seed,
            dir: fresh_dir(&o.dir, "traced")?,
            shrink: o.shrink,
        };
        Some(W::setup(&ctx, Obs::on(), &mut clock)?)
    } else {
        None
    };

    // Warm-up: a fixed count, so memory after it does not depend on speed.
    let mut off = Tracer::new(false);
    let mut tracer = Tracer::new(true);
    let warmup = (plain.warmup_ops() / o.shrink).max(10);
    for _ in 0..warmup {
        plain.step(&mut off)?;
        if let Some(t) = traced.as_mut() {
            t.step(&mut off)?;
        }
    }
    let peak_rss_mib = host::peak_rss_mib();

    // The measured window. `samples[0]` is the plain instance's, `[1]` the
    // traced one's; each sample carries the time it started at.
    plain.start_window();
    if let Some(t) = traced.as_mut() {
        t.start_window();
    }
    let (steal0, jiffies0) = host::cpu_jiffies();
    let cpu0 = host::process_cpu_us();
    let window = Duration::from_secs_f64(o.seconds);
    let mut samples: [Vec<(u64, Sample)>; 2] = [Vec::new(), Vec::new()];
    let mut slices: [Vec<(usize, usize)>; 2] = [Vec::new(), Vec::new()];
    let mut failure: Option<Fail> = None;
    let window_t0 = clock.mark();
    let started = Instant::now();
    // One turn per iteration. Past the deadline each instance still finishes
    // the period of its schedule it is in, so per-operation counts are those
    // of whole periods.
    let two = traced.is_some();
    let mut turn = 0;
    let mut one_finished = false;
    'window: loop {
        let slice = Instant::now();
        let first = samples[turn].len();
        let (inst, tr) = match traced.as_mut() {
            Some(t) if turn == 1 => (t, &mut tracer),
            _ => (&mut plain, &mut off),
        };
        let over = loop {
            let over = started.elapsed() >= window || inst.exhausted();
            if (over && inst.at_boundary()) || (!over && two && slice.elapsed() >= SLICE) {
                break over;
            }
            let at = clock.now_ns();
            match inst.step(tr) {
                Ok(s) => samples[turn].push((at, s)),
                Err(e) => {
                    failure = Some(e);
                    break 'window;
                }
            }
            clock.tick();
        };
        slices[turn].push((first, samples[turn].len()));
        if over && (!two || one_finished) {
            break;
        }
        one_finished = over;
        turn ^= two as usize;
    }
    let measured_s = started.elapsed().as_secs_f64();
    let window_t1 = clock.mark();
    let (steal1, jiffies1) = host::cpu_jiffies();
    let cpu_us = host::process_cpu_us() - cpu0;

    let attempted = samples[0].len() + samples[1].len() + failure.is_some() as usize;
    if let Some(e) = &failure {
        println!("FAILED op {attempted}: {e}");
    }
    if o.shrink == 1 && (samples[0].len() < MIN_WINDOW_OPS || plain.exhausted()) {
        println!(
            "resize-me: {} operations in {measured_s:.1} s of a {}-second window",
            samples[0].len(),
            o.seconds
        );
    }

    // The untimed gate.
    let mut correct = failure.is_none();
    if correct {
        match plain.check() {
            Ok(summary) => println!("checks: {summary}"),
            Err(e) => {
                println!("CHECK FAILED: {e}");
                correct = false;
            }
        }
    }

    let defs = if o.trace { PER_LAYER } else { END_TO_END };
    let mut outcome = Outcome {
        correct,
        attempted,
        failed: failure.is_some() as usize,
        metrics: Metrics::of(defs),
        defs,
    };
    let m = &mut outcome.metrics;
    if samples[0].is_empty() {
        return Ok(outcome);
    }
    // Both times of every operation, in window order.
    let timed: [Vec<Timed>; 2] = [0, 1].map(|i| {
        samples[i]
            .iter()
            .map(|(at, s)| Timed {
                class: s.class,
                ns: s.ns,
                ref_ns: clock.reference_ns(*at, at + s.ns),
            })
            .collect()
    });
    let sorted_us = |t: &[Timed], class: Option<usize>| {
        let mut us: Vec<f64> = t
            .iter()
            .filter(|s| class.is_none_or(|c| c == s.class))
            .map(|s| s.ref_ns / 1e3)
            .collect();
        us.sort_by(f64::total_cmp);
        us
    };

    if !o.trace {
        let us = sorted_us(&timed[0], None);
        let op_ns: Vec<f64> = timed[0].iter().map(|s| s.ref_ns).collect();
        m.set("setup_s", median(&mut setup_s));
        m.set("ops_per_s", ops_per_s(&op_ns));
        m.set("op_p50_us", percentile(&us, 0.5));
        m.set("op_p90_us", percentile(&us, 0.9));
        m.set("disk_bytes_per_record", plain.disk_bytes_per_record()?);
        m.set("reopen_ms", reopen_ms);
        m.set("peak_rss_mib", peak_rss_mib);
        println!(
            "window: {} ops in {measured_s:.2} s; p50 over {} samples, p90 with {} beyond it, \
             p99 {:.1} us (diagnostic)",
            us.len(),
            us.len(),
            us.len() / 10,
            percentile(&us, 0.99),
        );
        for (i, class) in W::CLASSES.iter().enumerate() {
            let c = sorted_us(&timed[0], Some(i));
            if !c.is_empty() {
                println!(
                    "  class {class:<12} n={:<7} p50={:>10.1} us  p90={:>10.1} us",
                    c.len(),
                    percentile(&c, 0.5),
                    percentile(&c, 0.9)
                );
            }
        }
    } else if let Some(t) = traced.as_mut() {
        if correct && !timed[1].is_empty() {
            let mut lab = Lab {
                clock: &mut clock,
                tr: &mut tracer,
                m,
            };
            t.layers(&timed[1], &mut lab)?;
            m.set(
                "storage.reopen_us_per_krecord",
                ratio(reopen_ms * 1e3, t.setup_records() as f64 / 1e3),
            );
            // Tracing overhead: the two instances' rates over their turns.
            let mut rates = [0, 1].map(|i| {
                slices[i]
                    .iter()
                    .filter(|(a, b)| b > a)
                    .map(|&(a, b)| {
                        let busy: f64 = timed[i][a..b].iter().map(|s| s.ref_ns).sum();
                        (b - a) as f64 / (busy / 1e9)
                    })
                    .collect::<Vec<f64>>()
            });
            let (plain_rate, traced_rate) = (median(&mut rates[0]), median(&mut rates[1]));
            m.set(
                "obs.attach_overhead_pct",
                100.0 * (1.0 - ratio(traced_rate, plain_rate)),
            );
            m.set(
                "host.op_p99_us",
                percentile(&sorted_us(&timed[1], None), 0.99),
            );
        }
        let path = o.out.join(format!("{}.spans.jsonl", W::NAME));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("spans: {}", path.display());
        println!(
            "  {:<24} {:>8} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, (count, total, own)) in tracer.table() {
            println!(
                "  {name:<24} {count:>8} {:>12.2} {:>12.2}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }

    // Host diagnostics: never gated, but a disturbed run says so.
    let steal_pct = 100.0 * ratio((steal1 - steal0) as f64, (jiffies1 - jiffies0) as f64);
    let (calib_ms, drift_pct) = clock.diagnostics(window_t0, window_t1);
    let slow_share = clock.slow_share(window_t0, window_t1);
    let noisy = steal_pct > 3.0 || drift_pct > 5.0;
    println!(
        "host: steal {steal_pct:.2} %  kernel {calib_ms:.4} ms ({drift_pct:.1} % drift, \
         {:.0} % of the window on a shared core)  cpu {:.1} us/op  measured {measured_s:.2} s  \
         noisy={noisy}",
        slow_share * 100.0,
        ratio(cpu_us as f64, attempted as f64)
    );
    if o.trace {
        m.set("host.steal_pct", steal_pct);
        m.set("host.calib_ms", calib_ms);
        m.set("host.calib_drift_pct", drift_pct);
        m.set("host.slow_share", slow_share);
        m.set("host.cpu_us_per_op", ratio(cpu_us as f64, attempted as f64));
        m.set("host.measured_s", measured_s);
        m.set("host.noisy", noisy as u8 as f64);
    }
    for (name, unit, _) in outcome.defs {
        println!("{name:<34} {:>16.4} {unit}", outcome.metrics.get(name));
    }
    Ok(outcome)
}
