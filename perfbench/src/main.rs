//! The bemcap benchmark: `perfbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`.
//!
//! Every workload is a closed loop: it sets up (several times, so the
//! median set-up time is steady), then runs ops for `--seconds`, checks
//! every output, and prints one JSON result line last. With `--trace 0`
//! the result holds the end-to-end metrics; with `--trace 1` every
//! other op runs traced and the result holds the per-layer metrics.

mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use bemcap_perfbench::out::{result_line, Metrics};
use bemcap_perfbench::trace::Tracer;
use bemcap_perfbench::{host, metrics, stats};

/// Command-line settings shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// What one workload hands back.
#[derive(Debug)]
pub struct Outcome {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Closed-loop record of the timed phase.
    pub ops: OpLog,
    /// Ops and checks that failed outside the timed loop (set-up and
    /// after-run verification), counted against `attempted` too.
    pub extra_failed: Vec<String>,
    /// Extra checks run outside the timed loop.
    pub extra_attempted: usize,
    /// Peak resident set read at a fixed point of the timed phase, MiB;
    /// `None` reads it at the end of the run.
    pub peak_rss_mib: Option<f64>,
    /// Per-layer metrics the workload measured (traced run).
    pub layers: Metrics,
    /// Spans of the traced ops.
    pub tracer: Tracer,
    /// Free-form lines printed before the result.
    pub notes: Vec<String>,
}

/// Latencies and failures of the timed ops.
#[derive(Debug, Default)]
pub struct OpLog {
    /// Latency of each untraced op, seconds.
    pub untraced: Vec<f64>,
    /// Latency of each traced op, seconds.
    pub traced: Vec<f64>,
    /// Failure message of each failed op.
    pub failures: Vec<String>,
    /// Summed latency of each complete block of consecutive ops (one
    /// input cycle of the workload), seconds.
    pub blocks: Vec<f64>,
    /// Ops per block.
    pub block_len: usize,
    /// Wall seconds of the timed phase.
    pub wall_s: f64,
    /// Process CPU seconds of the timed phase.
    pub cpu_s: f64,
}

impl OpLog {
    /// Ops attempted.
    pub fn attempted(&self) -> usize {
        self.untraced.len() + self.traced.len()
    }

    /// Appends another client's log of the same timed phase. Wall and
    /// CPU readings are process-wide, so the longest of each is kept.
    pub fn absorb(&mut self, other: OpLog) {
        self.untraced.extend(other.untraced);
        self.traced.extend(other.traced);
        self.failures.extend(other.failures);
        self.blocks.extend(other.blocks);
        self.block_len = self.block_len.max(other.block_len);
        self.wall_s = self.wall_s.max(other.wall_s);
        self.cpu_s = self.cpu_s.max(other.cpu_s);
    }
}

/// Runs `op(i, traced)` in a closed loop until `ctx.seconds` have
/// passed (at least one op). In the traced run every other op is
/// traced, so traced and untraced ops see the same host conditions; the
/// phase flips every 4 ops, so each position of a 4-op input cycle
/// (`chip-eco`) is traced as often as not.
/// An op returns its latency, or its latency and a failure message.
/// `block_len` is the length of the workload's input cycle: the
/// latencies of each complete cycle are summed into `OpLog::blocks`.
pub fn closed_loop(
    ctx: &Ctx,
    block_len: usize,
    mut op: impl FnMut(u64, bool) -> (f64, Result<(), String>),
) -> OpLog {
    let block_len = block_len.max(1);
    let mut log = OpLog { block_len, ..OpLog::default() };
    let mut block = 0.0;
    let cpu0 = host::cpu_seconds().unwrap_or(0.0);
    let start = Instant::now();
    let mut i = 0u64;
    while i == 0 || start.elapsed() < ctx.seconds {
        let traced = ctx.trace && (i + i / 4).is_multiple_of(2);
        let (latency, result) = op(i, traced);
        block += latency;
        if (i + 1).is_multiple_of(block_len as u64) {
            log.blocks.push(block);
            block = 0.0;
        }
        if traced {
            log.traced.push(latency);
        } else {
            log.untraced.push(latency);
        }
        if let Err(e) = result {
            log.failures.push(format!("op {i}: {e}"));
        }
        i += 1;
    }
    log.wall_s = start.elapsed().as_secs_f64();
    log.cpu_s = host::cpu_seconds().unwrap_or(0.0) - cpu0;
    log
}

/// Seconds of `f`.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

fn parse_args() -> Result<(String, Ctx), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        workload,
        Ctx {
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(Duration::from_secs(10)),
            trace: trace.unwrap_or(false),
        },
    ))
}

fn main() -> ExitCode {
    // Worker counts are pinned in the workloads; this pins the pool size
    // the dense solver and assembly read from the environment, so the
    // caller's environment cannot change the work. It runs before any
    // thread starts.
    std::env::set_var("BEMCAP_POOL", "1");
    let (workload, ctx) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <bus-paper|chip-eco|serve-mix> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = match workload.as_str() {
        "bus-paper" => workloads::bus_paper::run(&ctx),
        "chip-eco" => workloads::chip_eco::run(&ctx),
        "serve-mix" => workloads::serve_mix::run(&ctx),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: set-up failed: {e}");
            return ExitCode::from(1);
        }
    };
    report(&workload, &ctx, outcome);
    ExitCode::SUCCESS
}

fn report(workload: &str, ctx: &Ctx, o: Outcome) {
    let log = &o.ops;
    let attempted = log.attempted() + o.extra_attempted;
    let failed = log.failures.len() + o.extra_failed.len();
    let all: Vec<f64> = log.untraced.iter().chain(&log.traced).copied().collect();
    let untraced = &log.untraced;
    let util = host::cpu_util(log.cpu_s, log.wall_s);
    let tail = stats::highest_supported(untraced.len(), &[50.0, 90.0, 99.0], 10);
    let throughput = all.len() as f64 / log.wall_s;
    // A traced run of a single op has no untraced latency.
    let p50 = stats::median(untraced).unwrap_or(0.0);
    // Mean op latency over one input cycle, median over the cycles; a
    // run too short for one whole cycle falls back to all its ops.
    let op_latency = stats::median(&log.blocks)
        .map(|b| b / log.block_len as f64)
        .unwrap_or_else(|| all.iter().sum::<f64>() / all.len() as f64);
    let block_spread = stats::quartile_spread(&log.blocks);

    for line in &o.notes {
        println!("{workload}: {line}");
    }
    for f in o.extra_failed.iter().chain(&log.failures).take(20) {
        println!("{workload}: FAILED {f}");
    }
    println!(
        "{workload}: seed {} | setup runs {:?} s | {} ops in {:.3} s wall, {:.3} s cpu, host.cpu_util {:.3} | \
         wall throughput {throughput:.4} ops/s, p50 {p50:.6} s | op_latency_s {op_latency:.6} over {} cycles of {} ops, \
         cycle spread {} | latency samples {} (untraced), tail percentile with >=10 beyond: {}",
        ctx.seed,
        o.setup_s,
        all.len(),
        log.wall_s,
        log.cpu_s,
        util,
        log.blocks.len(),
        log.block_len,
        block_spread.map_or("none".to_string(), |v| format!("{v:.3}")),
        untraced.len(),
        tail.map_or("none".to_string(), |p| format!("p{p} = {:.6} s", stats::nearest_rank(untraced, p).unwrap_or(0.0))),
    );

    let mut m = Metrics::default();
    if ctx.trace {
        for (name, unit) in metrics::PER_LAYER {
            m.set(*name, 0.0, unit);
        }
        for (name, value, unit) in o.layers.entries() {
            m.set(name.clone(), *value, unit);
        }
        let (t, u) = (stats::median(&log.traced), stats::median(untraced));
        if let (Some(t), Some(u)) = (t, u) {
            m.set("trace.overhead_s", t - u, "s");
            m.set("trace.overhead_ratio", t / u - 1.0, "ratio");
        }
        m.set("trace.spans", o.tracer.spans().len() as f64, "count");
        if let Some(c) = stats::median(&o.tracer.op_coverage()) {
            m.set("trace.covered_ratio", c, "ratio");
        }
        m.set("throughput_ops_s", throughput, "ops/s");
        m.set("latency_p50_s", p50, "s");
        if let Some(v) = block_spread {
            m.set("latency_cycle_spread", v, "ratio");
        }
        m.set("host.cpu_util", util, "ratio");
        m.set("failed_ratio", failed as f64 / attempted.max(1) as f64, "ratio");
        m.set("latency_samples", untraced.len() as f64, "count");
        if let Some(p) = tail {
            m.set("latency_tail_pct", p, "%");
            m.set("latency_tail_s", stats::nearest_rank(untraced, p).unwrap_or(0.0), "s");
        }
        write_spans(workload, ctx, &o.tracer);
    } else {
        m.set("setup_s", stats::median(&o.setup_s).unwrap_or(f64::NAN), "s");
        m.set("op_latency_s", op_latency, "s");
        m.set("cpu_s_per_op", log.cpu_s / all.len() as f64, "s");
        let rss = o.peak_rss_mib.or_else(host::peak_rss_mib);
        m.set("peak_rss_mb", rss.unwrap_or(f64::NAN), "MiB");
        m.set("ok_ratio", 1.0 - failed as f64 / attempted.max(1) as f64, "ratio");
    }
    println!("{}", result_line(failed == 0, attempted, failed, &m));
}

/// Writes the traced run's spans to `perfbench/traces/` (relative to
/// the working directory, the checkout root).
fn write_spans(workload: &str, ctx: &Ctx, tracer: &Tracer) {
    let dir = std::path::Path::new("perfbench/traces");
    let path = dir.join(format!("{workload}-seed{}.jsonl", ctx.seed));
    let written = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::File::create(&path))
        .and_then(|f| tracer.write_jsonl(std::io::BufWriter::new(f)));
    match written {
        Ok(()) => println!("{workload}: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_sums_whole_cycles_only() {
        let ctx = Ctx { seed: 1, seconds: Duration::from_millis(30), trace: false };
        let log = closed_loop(&ctx, 3, |i, _| {
            std::thread::sleep(Duration::from_millis(2));
            (i as f64, Ok(()))
        });
        let n = log.attempted() as u64;
        assert!(n >= 1);
        assert_eq!(log.blocks.len() as u64, n / 3);
        for (k, b) in log.blocks.iter().enumerate() {
            let first = 3 * k as u64;
            assert_eq!(*b, (first + (first + 1) + (first + 2)) as f64);
        }
    }
}
