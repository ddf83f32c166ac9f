//! Pipeline benchmark for limba: three seeded closed-loop workloads
//! driven through the library's public entry points in the call order
//! of the `limba` subcommand each op stands for, with every op's output
//! checked against a reference made at set-up. See `NOTES.md`.

pub mod analysis;
pub mod layers;
pub mod live;
pub mod posthoc;
pub mod scenario;
pub mod span;
pub mod whatif;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use scenario::Scale;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["posthoc", "whatif", "live"];

/// Fewest ops a measured phase completes, so that at least ten op
/// latencies lie beyond the 90th percentile.
pub const MIN_OPS: u64 = 100;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Ops run unmeasured before each measured phase, so that its first ops
/// do not meet a fresh server, page cache or allocator.
pub const WARMUP_OPS: u64 = 10;

/// How one op went. Output checks run after the op's timed interval.
#[derive(Debug)]
pub struct OpDone {
    /// Trace events the op read, pushed or produced.
    pub events: u64,
    /// The op's timed interval.
    pub latency: Duration,
    /// Time spent checking the output, excluded from measured wall time.
    pub check: Duration,
    /// The error the op returned, or the server's refusal.
    pub error: Option<String>,
}

/// Times `exec` as one op, then checks its output outside the timed
/// interval. An `exec` error is a failed op; a `check` error is an
/// output mismatch and aborts the run.
pub(crate) fn timed_op<T>(
    events: u64,
    exec: impl FnOnce() -> Result<T, String>,
    check: impl FnOnce(T) -> Result<(), String>,
) -> Result<OpDone, String> {
    let t = Instant::now();
    let out = exec();
    let latency = t.elapsed();
    let c = Instant::now();
    let error = match out {
        Ok(out) => {
            check(out)?;
            None
        }
        Err(e) => Some(e),
    };
    Ok(OpDone {
        events,
        latency,
        check: c.elapsed(),
        error,
    })
}

/// One closed-loop workload.
pub trait Workload: Sync {
    /// Concurrent closed-loop clients.
    fn clients(&self) -> usize {
        1
    }
    /// Length of the fixed op list; a phase ends on a multiple of it.
    fn cycle(&self) -> u64;
    /// Ops per throughput window, a divisor of [`Workload::cycle`].
    fn window(&self) -> u64 {
        self.cycle()
    }
    /// What op `id` does; a pure function of `id`.
    fn describe(&self, id: u64) -> String;
    /// Called before the warm-up and before each measured phase.
    fn begin_phase(&self) {}
    /// Runs op `id`. `Err` is an output mismatch, which aborts the run.
    fn op(&self, id: u64) -> Result<OpDone, String>;
    /// Per-layer metrics only the workload can compute, from the traced
    /// phase's spans and its own counters.
    fn layer_extras(&self, _spans: &[span::Span]) -> Vec<Metric> {
        Vec::new()
    }
    /// Stops what set-up started and removes its files.
    fn teardown(self: Box<Self>) -> Result<(), String>;
}

/// Builds a workload's inputs, references and server under `dir`.
pub fn setup(
    workload: &str,
    seed: u64,
    scale: Scale,
    dir: &Path,
) -> Result<Box<dyn Workload>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(match workload {
        "posthoc" => Box::new(posthoc::Posthoc::setup(seed, scale, dir)?),
        "whatif" => Box::new(whatif::WhatIf::setup(seed, scale, dir)?),
        "live" => Box::new(live::Live::setup(seed, scale, dir)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: u64,
}

impl Metric {
    /// A metric; non-finite values (no samples) read as 0.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Self {
        Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples,
        }
    }
}

/// One finished op, with times relative to the phase start.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// Op id.
    pub id: u64,
    /// When the op started, seconds.
    pub start_s: f64,
    /// The op's timed interval, seconds.
    pub latency_s: f64,
    /// Output-check time that followed it, seconds.
    pub check_s: f64,
    /// Trace events it read, pushed or produced.
    pub events: u64,
    /// Whether it returned an error or was refused.
    pub failed: bool,
}

/// What one measured phase saw.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Every op, sorted by id.
    pub records: Vec<OpRecord>,
    /// Concurrent clients.
    pub clients: usize,
    /// Ops per throughput window.
    pub window: u64,
    /// First op error, for the log.
    pub first_error: Option<String>,
    /// Peak resident memory over the phase's first whole cycles of at
    /// least [`MIN_OPS`] ops, MiB.
    pub peak_rss_mib: f64,
}

impl Phase {
    /// Op latencies in milliseconds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.latency_s * 1e3).collect()
    }

    /// Op ids run, sorted.
    pub fn ops(&self) -> Vec<u64> {
        self.records.iter().map(|r| r.id).collect()
    }

    /// Ops that returned an error or were refused.
    pub fn failed(&self) -> u64 {
        self.records.iter().filter(|r| r.failed).count() as u64
    }

    /// Events per second of measured wall time in each window of
    /// consecutive op ids: from the window's first op start to its last
    /// op end, less the output checks run inside that span (shared
    /// between the clients).
    pub fn window_rates(&self) -> Vec<f64> {
        self.records
            .chunks(self.window.max(1) as usize)
            .map(|ops| {
                let t0 = ops.iter().map(|r| r.start_s).fold(f64::INFINITY, f64::min);
                let t1 = ops
                    .iter()
                    .map(|r| r.start_s + r.latency_s)
                    .fold(0.0, f64::max);
                let checks: f64 = ops
                    .iter()
                    .map(|r| r.check_s.min(t1 - (r.start_s + r.latency_s)))
                    .sum();
                let events: u64 = ops.iter().map(|r| r.events).sum();
                events as f64 / (t1 - t0 - checks / self.clients.max(1) as f64)
            })
            .collect()
    }

    /// Median over windows of [`Phase::window_rates`]: trace events per
    /// second of measured wall time, robust to a window that another
    /// process on the host slowed down.
    pub fn events_per_s(&self) -> f64 {
        median(&self.window_rates())
    }
}

/// Median of `v` (mean of the two middle values for even lengths).
pub(crate) fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `v`.
fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Resets the kernel's peak-RSS mark; `false` when unsupported, in
/// which case the phase's peak includes set-up.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident memory of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Runs [`WARMUP_OPS`] ops unmeasured, then closed-loop clients over
/// the op list until at least `seconds` have passed and at least
/// [`MIN_OPS`] ops are done, stopping at a cycle boundary so every phase
/// runs whole cycles of the same op mix. Spans recorded during the
/// warm-up are dropped.
///
/// The peak-RSS mark is read once the first whole cycles of at least
/// [`MIN_OPS`] ops are done, not at the phase end: a server keeps every
/// finished run, so a peak over the whole phase would grow with the op
/// count, and faster code would read as more memory.
///
/// # Errors
///
/// An output mismatch, naming the op.
pub fn measure(w: &dyn Workload, seconds: f64) -> Result<Phase, String> {
    w.begin_phase();
    let warm = closed_loop(w, |id, _| id >= WARMUP_OPS, u64::MAX)?;
    if let Some(e) = &warm.first_error {
        eprintln!(
            "pipebench: warm-up: {} failed ops; first: {e}",
            warm.failed()
        );
    }
    span::take();
    w.begin_phase();
    let cycle = w.cycle().max(1);
    if !reset_peak_rss() {
        eprintln!("pipebench: cannot reset the peak-RSS mark; peak_rss_mib includes set-up");
    }
    closed_loop(
        w,
        |id, elapsed| elapsed >= seconds && id >= MIN_OPS && id.is_multiple_of(cycle),
        MIN_OPS.div_ceil(cycle) * cycle,
    )
}

/// Runs closed-loop clients from op 0 until `stop(next op id, seconds
/// elapsed)` holds, reading the peak-RSS mark once `rss_ops` ops are done.
fn closed_loop(
    w: &dyn Workload,
    stop: impl Fn(u64, f64) -> bool + Sync,
    rss_ops: u64,
) -> Result<Phase, String> {
    let next = AtomicU64::new(0);
    let abort = AtomicBool::new(false);
    let phase = Mutex::new(Phase {
        clients: w.clients(),
        window: w.window(),
        ..Phase::default()
    });
    let mismatch = Mutex::new(None);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..w.clients() {
            scope.spawn(|| loop {
                if abort.load(Ordering::SeqCst) {
                    return;
                }
                let id = next.load(Ordering::SeqCst);
                if stop(id, start.elapsed().as_secs_f64()) {
                    return;
                }
                if next
                    .compare_exchange(id, id + 1, Ordering::SeqCst, Ordering::SeqCst)
                    .is_err()
                {
                    continue;
                }
                span::set_op(id);
                let start_s = start.elapsed().as_secs_f64();
                match w.op(id) {
                    Ok(op) => {
                        let mut p = phase.lock().expect("phase record poisoned");
                        p.records.push(OpRecord {
                            id,
                            start_s,
                            latency_s: op.latency.as_secs_f64(),
                            check_s: op.check.as_secs_f64(),
                            events: op.events,
                            failed: op.error.is_some(),
                        });
                        if let Some(e) = op.error {
                            p.first_error.get_or_insert(format!("op {id}: {e}"));
                        }
                        if p.records.len() as u64 == rss_ops {
                            p.peak_rss_mib = peak_rss_mib();
                        }
                    }
                    Err(e) => {
                        abort.store(true, Ordering::SeqCst);
                        mismatch
                            .lock()
                            .expect("mismatch slot poisoned")
                            .get_or_insert(format!("op {id} ({}): {e}", w.describe(id)));
                        return;
                    }
                }
            });
        }
    });
    if let Some(e) = mismatch.into_inner().expect("mismatch slot poisoned") {
        return Err(e);
    }
    let mut p = phase.into_inner().expect("phase record poisoned");
    p.records.sort_by_key(|r| r.id);
    Ok(p)
}

/// Run settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Minimum measured seconds per phase.
    pub seconds: f64,
    /// Add the traced phase and report per-layer metrics.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Directory for the run's files; removed afterwards.
    pub work_dir: PathBuf,
}

/// Everything a run reports.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// The metrics of the result line: end-to-end, or per-layer with
    /// `trace`.
    pub metrics: Vec<Metric>,
    /// Ops attempted in the untraced phase.
    pub attempted: u64,
    /// Ops failed in the untraced phase.
    pub failed: u64,
    /// Op ids of the untraced phase, sorted.
    pub untraced_ops: Vec<u64>,
    /// Op ids of the traced phase, sorted.
    pub traced_ops: Vec<u64>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn metric_line(workload: &str, m: &Metric) -> String {
    format!(
        "{workload:8} {:28} {:>14.4} {:10} n={}",
        m.name, m.value, m.unit, m.samples
    )
}

/// Sets up ([`SETUPS`] times, keeping the last), measures the untraced
/// phase and, with `trace`, the traced phase, then tears down.
///
/// # Errors
///
/// Set-up failures and output mismatches, naming workload, op and seed.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let fail = |e: String| format!("workload {} seed {}: {e}", cfg.workload, cfg.seed);
    let mut setup_times = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        let dir = cfg.work_dir.join(format!("setup-{k}"));
        let t = Instant::now();
        let w = setup(&cfg.workload, cfg.seed, cfg.scale, &dir).map_err(fail)?;
        setup_times.push(t.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(w) {
            old.teardown().map_err(fail)?;
        }
    }
    let w = kept.expect("at least one set-up ran");
    let result = measure_all(cfg, w.as_ref(), &setup_times);
    let torn = w.teardown();
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let outcome = result.map_err(fail)?;
    torn.map_err(fail)?;
    Ok(outcome)
}

fn measure_all(cfg: &Config, w: &dyn Workload, setup_times: &[f64]) -> Result<Outcome, String> {
    let name = cfg.workload.as_str();
    let plain = measure(w, cfg.seconds)?;
    if let Some(e) = &plain.first_error {
        eprintln!(
            "pipebench: {name}: {} failed ops; first: {e}",
            plain.failed()
        );
    }
    let latencies = plain.latencies_ms();
    let rates = plain.window_rates();
    let attempted = latencies.len() as u64;
    let failed = plain.failed();
    let n = attempted;
    let e2e = vec![
        Metric::new(
            "setup_s",
            median(setup_times),
            "s",
            setup_times.len() as u64,
        ),
        Metric::new("events_per_s", median(&rates), "1/s", rates.len() as u64),
        Metric::new("op_p50_ms", percentile(&latencies, 50.0), "ms", n),
        Metric::new("op_p90_ms", percentile(&latencies, 90.0), "ms", n),
        Metric::new("peak_rss_mib", plain.peak_rss_mib, "MiB", 1),
        Metric::new(
            "ok_frac",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
            n,
        ),
    ];
    let mut lines = vec![
        format!(
            "{name}: seed {} scale {:?}, {attempted} ops, {} clients, closed loop",
            cfg.seed,
            cfg.scale,
            w.clients()
        ),
        format!(
            "{name}: events_per_s per window of {} ops: {}",
            plain.window,
            rates
                .iter()
                .map(|r| format!("{r:.0}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    ];
    lines.extend(e2e.iter().map(|m| metric_line(name, m)));
    lines.push(metric_line(
        name,
        &Metric::new(
            "fail_frac",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
            n,
        ),
    ));
    let mut outcome = Outcome {
        lines,
        metrics: e2e,
        attempted,
        failed,
        untraced_ops: plain.ops(),
        traced_ops: Vec::new(),
    };
    if cfg.trace {
        span::take();
        span::set_recording(true);
        let traced = measure(w, cfg.seconds);
        span::set_recording(false);
        let spans = span::take();
        let traced = traced?;
        let mut per_layer = layers::per_layer(&spans);
        per_layer.extend(w.layer_extras(&spans));
        let overhead = (plain.events_per_s() - traced.events_per_s()) / plain.events_per_s();
        per_layer.push(Metric::new(
            "tracing.overhead_pct",
            overhead * 100.0,
            "%",
            traced.records.len() as u64,
        ));
        let metrics = layers::complete(per_layer);
        outcome.lines.push(format!(
            "{name}: traced phase, {} ops, {} spans; events_per_s traced {:.1} vs untraced {:.1}",
            traced.records.len(),
            spans.len(),
            traced.events_per_s(),
            plain.events_per_s()
        ));
        outcome.lines.extend(layers::span_table(&spans));
        outcome
            .lines
            .extend(metrics.iter().map(|m| metric_line(name, m)));
        outcome.metrics = metrics;
        outcome.traced_ops = traced.ops();
    }
    Ok(outcome)
}
