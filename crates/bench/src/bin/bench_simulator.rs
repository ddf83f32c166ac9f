//! Bench runner for the simulator core: times the event-driven engine
//! against the reference polling engine on the CFD proxy (16 ranks up
//! to 4k, plus a 64k-rank memory smoke) and the synthetic workload
//! suite, verifies that event and polling runs produce identical
//! traces, and writes the results as `BENCH_simulator.json`.
//!
//! Usage: `bench_simulator [--quick] [--ranks N [--memory]] [--out PATH]`
//!
//! `--quick` drops the repetition count and the multi-thousand-rank
//! cases so CI's perf-smoke job finishes in seconds; the committed
//! baseline is produced by a full run. `--ranks N` replaces the case
//! list with a single CFD proxy at N ranks — an ad-hoc scaling probe;
//! add `--memory` to skip the (quadratic) polling baseline and probe
//! only the event engine's peak footprint, which is how the 64k/256k
//! baseline rows are measured. See `crates/bench/README.md` for the
//! output format.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use limba_mpisim::{BalancePlan, FaultPlan, MachineConfig, Program, Simulator};
use limba_workloads::{
    cfd::CfdConfig, fft::FftConfig, irregular::IrregularConfig, master_worker::MasterWorkerConfig,
    pipeline::PipelineConfig, stencil::StencilConfig, sweep::SweepConfig, Imbalance,
};

/// Counts live bytes and the high-water mark so each case can report
/// its peak event-engine footprint. `realloc`/`alloc_zeroed` use the
/// default trait implementations, which route through `alloc`/
/// `dealloc`, so they are tracked too.
struct CountingAlloc;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result plus the peak bytes live during the
/// call, net of what was already live before it started.
fn with_peak<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = CURRENT.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let result = f();
    let peak = PEAK.load(Ordering::Relaxed);
    (result, peak.saturating_sub(before))
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Timed event-vs-polling comparison with the identity check.
    Speed,
    /// Event-engine-only footprint probe: the polling baseline is
    /// quadratic in ranks and would dominate the runner's wall clock
    /// without adding information at this scale.
    Memory,
}

struct Case {
    name: String,
    ranks: usize,
    kind: Kind,
    program: Program,
    faults: Option<FaultPlan>,
    balance: Option<BalancePlan>,
}

struct Timed {
    name: String,
    ranks: usize,
    total_ops: usize,
    kind: Kind,
    event_ns: u128,
    peak_bytes: usize,
    polling_ns: Option<u128>,
    identical: Option<bool>,
}

fn cfd_case(name: &str, ranks: usize, kind: Kind) -> Case {
    Case {
        name: name.to_string(),
        ranks,
        kind,
        program: CfdConfig::new(ranks)
            .with_imbalance(Imbalance::RandomJitter { amplitude: 0.2 })
            .with_seed(2003)
            .build_program()
            .expect("cfd builds"),
        faults: None,
        balance: None,
    }
}

fn cases(quick: bool, ranks_override: Option<(usize, Kind)>) -> Vec<Case> {
    if let Some((ranks, kind)) = ranks_override {
        return vec![cfd_case(&format!("cfd_{ranks}r"), ranks, kind)];
    }
    let jitter = Imbalance::RandomJitter { amplitude: 0.2 };
    let mut cases = Vec::new();
    // The headline trajectory: CFD proxy at growing rank counts. The
    // 1k case runs in quick mode too so CI exercises the sparse
    // routing path at scale; 4k+ is full-run only.
    for ranks in [16usize, 64, 256, 1024, 4096] {
        if quick && ranks > 1024 {
            continue;
        }
        let name = match ranks {
            1024 => "cfd_1kr".to_string(),
            4096 => "cfd_4kr".to_string(),
            _ => format!("cfd_{ranks}r"),
        };
        cases.push(cfd_case(&name, ranks, Kind::Speed));
    }
    // The same 16-rank CFD proxy under the canned `chaos` fault plan
    // (straggler + degraded link + lossy network + crashed rank), so the
    // engine-identity check also exercises every fault-injection path.
    {
        let ranks = 16usize;
        let program = CfdConfig::new(ranks)
            .with_imbalance(jitter)
            .with_seed(2003)
            .build_program()
            .expect("cfd builds");
        let horizon = Simulator::new(MachineConfig::new(ranks))
            .run(&program)
            .expect("clean horizon run")
            .stats
            .makespan;
        let faults =
            limba_workloads::faults::preset("chaos", ranks, horizon).expect("chaos preset exists");
        cases.push(Case {
            name: "cfd_16r_chaos".to_string(),
            ranks,
            kind: Kind::Speed,
            program,
            faults: Some(faults),
            balance: None,
        });
    }
    // The 64-rank CFD proxy under the stealing balance preset: times the
    // balance hook on the hot path (shared load view updates + policy
    // decisions at every compute boundary) and extends the
    // engine-identity check to the migration ledger.
    {
        let ranks = 64usize;
        cases.push(Case {
            name: "cfd_64r_stealing".to_string(),
            ranks,
            kind: Kind::Speed,
            program: CfdConfig::new(ranks)
                .with_imbalance(Imbalance::LinearSkew { spread: 0.5 })
                .with_seed(2003)
                .build_program()
                .expect("cfd builds"),
            faults: None,
            balance: Some(limba_workloads::balance::preset("stealing").expect("stealing preset")),
        });
    }
    // One representative of each synthetic communication pattern at 64
    // ranks, so a scheduling regression in any pattern shows up, plus
    // the stencil at a 64x64 grid (4096 ranks) to scale the
    // nearest-neighbor pattern alongside the CFD trajectory.
    let mut at_scale: Vec<(&str, usize, Program)> = vec![
        (
            "stencil_8x8",
            64,
            StencilConfig::new(8, 8)
                .with_imbalance(jitter)
                .build_program()
                .expect("stencil builds"),
        ),
        (
            "master_worker_64r",
            64,
            MasterWorkerConfig::new(64)
                .with_tasks(256)
                .with_imbalance(jitter)
                .build_program()
                .expect("master-worker builds"),
        ),
        (
            "pipeline_64s",
            64,
            PipelineConfig::new(64)
                .with_items(32)
                .with_imbalance(jitter)
                .build_program()
                .expect("pipeline builds"),
        ),
        (
            "irregular_64r",
            64,
            IrregularConfig::new(64)
                .with_steps(8)
                .with_imbalance(jitter)
                .build_program()
                .expect("irregular builds"),
        ),
        (
            "fft_64r",
            64,
            FftConfig::new(64)
                .with_imbalance(jitter)
                .build_program()
                .expect("fft builds"),
        ),
        (
            "sweep_64r",
            64,
            SweepConfig::new(64)
                .with_imbalance(jitter)
                .build_program()
                .expect("sweep builds"),
        ),
    ];
    if !quick {
        at_scale.push((
            "stencil_64x64",
            4096,
            StencilConfig::new(64, 64)
                .with_imbalance(jitter)
                .build_program()
                .expect("stencil builds"),
        ));
    }
    for (name, ranks, program) in at_scale {
        cases.push(Case {
            name: name.to_string(),
            ranks,
            kind: Kind::Speed,
            program,
            faults: None,
            balance: None,
        });
    }
    // Memory smoke: the CFD proxy at 64k ranks, event engine only. The
    // point is the peak_bytes column — with arena hot state and sparse
    // channel routing it grows near-linearly in ranks; any dense
    // rank-pair table would need tens of gigabytes here and OOM the
    // runner instead of finishing.
    if !quick {
        cases.push(cfd_case("cfd_64kr", 65_536, Kind::Memory));
        // And the same probe at 256k ranks: past the 100k mark the
        // arena and routing tables are the whole footprint, so this is
        // the case that catches a super-linear term the 64k point is
        // still too small to expose.
        cases.push(cfd_case("cfd_256kr", 262_144, Kind::Memory));
    }
    cases
}

fn run_case(case: &Case, reps: usize) -> Timed {
    let sim = Simulator::new(MachineConfig::new(case.ranks));
    let run_event = || {
        sim.run_configured(
            &case.program,
            case.faults.as_ref(),
            case.balance.as_ref(),
            None,
        )
        .expect("event run")
    };
    // Warmup (page in code, size allocator pools) doubles as the
    // footprint probe and the engine-identity check: the event engine's
    // peak live bytes, and — on speed cases — bit-identical output
    // across the event and polling engines.
    let (event_out, peak_bytes) = with_peak(run_event);
    if case.kind == Kind::Memory {
        let start = Instant::now();
        run_event();
        return Timed {
            name: case.name.clone(),
            ranks: case.ranks,
            total_ops: case.program.total_ops(),
            kind: case.kind,
            event_ns: start.elapsed().as_nanos(),
            peak_bytes,
            polling_ns: None,
            identical: None,
        };
    }
    let run_polling = || {
        sim.run_polling_configured(
            &case.program,
            case.faults.as_ref(),
            case.balance.as_ref(),
            None,
        )
        .expect("polling run")
    };
    let polling_out = run_polling();
    let identical = event_out.trace == polling_out.trace
        && event_out.stats == polling_out.stats
        && event_out.faults == polling_out.faults
        && event_out.balance == polling_out.balance;
    // Calibrate a batch size so every timed sample spans at least a
    // couple of milliseconds: the microsecond-scale cases are pure
    // timer granularity and allocator-state noise when timed one run
    // at a time, and that noise — not the engines — decides their
    // ratio. Both engines run the same batch size, so the batching
    // cannot bias the comparison.
    let start = Instant::now();
    run_event();
    let est = start.elapsed().as_nanos().max(1);
    let batch = ((2_000_000 / est) as usize + 1).clamp(1, 4096);
    // Interleave the engines rep by rep so clock drift and background
    // load hit both equally. Keep the minimum: a scheduling hiccup can
    // only inflate a run, never deflate it.
    let (mut event_ns, mut polling_ns) = (u128::MAX, u128::MAX);
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(run_event());
        }
        event_ns = event_ns.min(start.elapsed().as_nanos() / batch as u128);
        let start = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(run_polling());
        }
        polling_ns = polling_ns.min(start.elapsed().as_nanos() / batch as u128);
    }
    Timed {
        name: case.name.clone(),
        ranks: case.ranks,
        total_ops: case.program.total_ops(),
        kind: case.kind,
        event_ns,
        peak_bytes,
        polling_ns: Some(polling_ns),
        identical: Some(identical),
    }
}

fn render_json(mode: &str, results: &[Timed]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"limba-bench-simulator/2\",\n");
    writeln!(out, "  \"mode\": \"{mode}\",").unwrap();
    out.push_str("  \"cases\": [\n");
    for (i, r) in results.iter().enumerate() {
        write!(
            out,
            "    {{\"name\": \"{}\", \"ranks\": {}, \"total_ops\": {}, \
             \"kind\": \"{}\", \"event_ns\": {}, \"peak_bytes\": {}",
            r.name,
            r.ranks,
            r.total_ops,
            match r.kind {
                Kind::Speed => "speed",
                Kind::Memory => "memory",
            },
            r.event_ns,
            r.peak_bytes,
        )
        .unwrap();
        if let Some(polling_ns) = r.polling_ns {
            let speedup = polling_ns as f64 / r.event_ns.max(1) as f64;
            write!(
                out,
                ", \"polling_ns\": {polling_ns}, \"speedup\": {speedup:.3}"
            )
            .unwrap();
        }
        if let Some(identical) = r.identical {
            write!(out, ", \"identical\": {identical}").unwrap();
        }
        out.push('}');
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let quick = argv.iter().any(|a| a == "--quick");
    let out_path = argv
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| argv.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_simulator.json".to_string());
    // `--memory` turns the ad-hoc `--ranks` probe into a memory-kind
    // case (event engine only) — the polling baseline is quadratic in
    // ranks and unusable at the scales where the footprint matters.
    let memory_only = argv.iter().any(|a| a == "--memory");
    let ranks_override = argv
        .iter()
        .position(|a| a == "--ranks")
        .and_then(|i| argv.get(i + 1))
        .map(|v| {
            let ranks = v
                .parse::<usize>()
                .expect("--ranks takes a positive integer");
            (
                ranks,
                if memory_only {
                    Kind::Memory
                } else {
                    Kind::Speed
                },
            )
        });
    let reps = if quick { 2 } else { 9 };
    let mode = if quick { "quick" } else { "full" };

    let mut results = Vec::new();
    for case in cases(quick, ranks_override) {
        let timed = run_case(&case, reps);
        match timed.polling_ns {
            Some(polling_ns) => println!(
                "{:<20} {:>5} ranks {:>8} ops  event {:>9.3} ms  polling {:>9.3} ms  x{:.2}  {:>9} KiB  {}",
                timed.name,
                timed.ranks,
                timed.total_ops,
                timed.event_ns as f64 / 1e6,
                polling_ns as f64 / 1e6,
                polling_ns as f64 / timed.event_ns.max(1) as f64,
                timed.peak_bytes / 1024,
                if timed.identical == Some(true) {
                    "identical"
                } else {
                    "MISMATCH"
                },
            ),
            None => println!(
                "{:<20} {:>5} ranks {:>8} ops  event {:>9.3} ms  {:>29} {:>9} KiB  memory-smoke",
                timed.name,
                timed.ranks,
                timed.total_ops,
                timed.event_ns as f64 / 1e6,
                "",
                timed.peak_bytes / 1024,
            ),
        }
        results.push(timed);
    }

    let mismatches: Vec<&str> = results
        .iter()
        .filter(|r| r.identical == Some(false))
        .map(|r| r.name.as_str())
        .collect();
    let json = render_json(mode, &results);
    std::fs::write(&out_path, json).expect("write bench output");
    println!("baseline written to {out_path} ({mode} mode, min over {reps} batched reps)");
    if !mismatches.is_empty() {
        eprintln!("engine outputs diverged on: {}", mismatches.join(", "));
        std::process::exit(1);
    }
}
