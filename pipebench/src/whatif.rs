//! `whatif`: one client replays `limba simulate`, alternating two op
//! kinds over the same scenarios: `--stream-reduce` (with `--windows 8`
//! on every other op) and `--out <file>`.

use std::collections::BTreeMap;
use std::fs;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

use limba_mpisim::{BalancePlan, FaultPlan, Program};
use limba_stream::StreamConfig;

use crate::scenario::{digest, Kind, Rng, Scale, Scenario, Skew};
use crate::span::Span;
use crate::{analysis, median, posthoc, span, timed_op, Metric, OpDone, Workload};

/// What set-up computed for one scenario from a materialized run.
#[derive(Clone, Debug)]
pub struct Reference {
    /// Report of `limba analyze` on the run's trace.
    pub report: String,
    /// Its `--windows 8` section; `None` for a crashed run.
    pub evolution: Option<String>,
    /// Digest of the binary tracefile.
    pub digest: u64,
    /// Events in the trace.
    pub events: u64,
}

/// The `whatif` workload.
pub struct WhatIf {
    /// Scenarios, in op order.
    pub scenarios: Vec<Scenario>,
    /// One reference per scenario.
    pub reference: Vec<Reference>,
    dir: PathBuf,
}

/// The scenario list.
fn scenarios(seed: u64, scale: Scale) -> Vec<Scenario> {
    let mut rng = Rng::new(seed, 3);
    let mut s = |kind, ranks, skew, faults, balance| {
        Scenario::new(&mut rng, kind, scale.ranks(ranks), skew, faults, balance)
    };
    vec![
        s(Kind::Cfd, 4096, Skew::Linear, None, None),
        s(Kind::Cfd, 16384, Skew::Jitter, None, None),
        s(Kind::Stencil, 4096, Skew::Jitter, None, None),
        s(Kind::Irregular, 4096, Skew::None, None, None),
        s(Kind::Cfd, 8192, Skew::Jitter, Some("chaos"), None),
        s(Kind::Cfd, 4096, Skew::Linear, None, Some("stealing")),
    ]
}

/// Scenario visits of one cycle. The three scenarios whose ops take
/// under 200 ms (CFD 4k, irregular 4k, and CFD 8k under chaos, whose
/// crash halves the run) come twice, the three slow ones (CFD 16k,
/// stencil, and CFD 4k with stealing, whose balancer dominates) once.
/// With every scenario once, ops split half-and-half between a fast and
/// a slow latency mode, which puts the median op latency in the gap
/// between them, where it jumps from run to run.
const VISITS: [usize; 9] = [0, 3, 4, 1, 0, 3, 4, 2, 5];

/// One op's kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpKind {
    /// `--stream-reduce`, with or without `--windows 8`.
    Reduce { windows: bool },
    /// `--out <file>`.
    Write,
}

impl WhatIf {
    /// Runs each scenario materialized and records its references.
    pub fn setup(seed: u64, scale: Scale, dir: &Path) -> Result<Self, String> {
        let scenarios = scenarios(seed, scale);
        let mut reference = Vec::new();
        for scenario in &scenarios {
            let trace = posthoc::simulate(scenario)?;
            let evolution = if scenario.crashes() {
                None
            } else {
                let sliced = limba_trace::reduce_windows(&trace, analysis::WINDOWS)
                    .map_err(|e| e.to_string())?;
                Some(analysis::evolution(sliced)?)
            };
            reference.push(Reference {
                report: analysis::materialized(&trace, false)?,
                evolution,
                digest: digest(&limba_trace::binary::to_bytes(&trace)),
                events: trace.events().len() as u64,
            });
        }
        Ok(WhatIf {
            scenarios,
            reference,
            dir: dir.to_path_buf(),
        })
    }

    /// (scenario index, kind) of op `id`: each visit runs a reduce op,
    /// then a write op. Reduce ops window every other visit, except on
    /// crashed runs; the cycle has an odd number of visits, so each
    /// scenario's windowing flips from cycle to cycle.
    fn plan(&self, id: u64) -> (usize, OpKind) {
        let visit = id / 2;
        let i = VISITS[(visit % VISITS.len() as u64) as usize];
        let kind = if id % 2 == 1 {
            OpKind::Write
        } else {
            OpKind::Reduce {
                windows: visit.is_multiple_of(2) && !self.scenarios[i].crashes(),
            }
        };
        (i, kind)
    }
}

/// Program build and plan resolution, as `limba simulate` starts.
fn prepare(
    scenario: &Scenario,
) -> Result<(Program, Option<FaultPlan>, Option<BalancePlan>), String> {
    let program = span::within("workloads.build", || scenario.build_program())?;
    let faults = scenario.fault_plan(&program)?;
    let balance = scenario.balance_plan()?;
    Ok((program, faults, balance))
}

/// `limba simulate ... --stream-reduce [--windows 8]`.
fn simulate_reduce(scenario: &Scenario, windows: bool) -> Result<String, String> {
    let _op = span::span("cli.simulate_reduce");
    let (program, faults, balance) = prepare(scenario)?;
    let cfg = StreamConfig {
        frame_events: 4096,
        jobs: 1,
        windows: windows.then_some(analysis::WINDOWS),
        ..StreamConfig::default()
    };
    let sim = scenario.simulator();
    let streamed = span::within("stream.stream_reduce", || {
        limba_stream::stream_reduce(
            &sim,
            &program,
            faults.as_ref(),
            balance.as_ref(),
            None,
            &cfg,
        )
    })
    .map_err(|e| e.to_string())?;
    let mut out = analysis::report(&streamed.salvaged)?;
    if let Some(sliced) = streamed.windows {
        out.push_str(&analysis::evolution(sliced)?);
    }
    Ok(out)
}

/// `limba simulate ... --out <path>`.
fn simulate_out(scenario: &Scenario, path: &Path) -> Result<(), String> {
    let _op = span::span("cli.simulate_out");
    let (program, faults, balance) = prepare(scenario)?;
    let sim = scenario.simulator();
    let output = {
        let mut s = span::span("mpisim.run");
        let output = sim
            .run_configured(&program, faults.as_ref(), balance.as_ref(), None)
            .map_err(|e| e.to_string())?;
        s.work(output.trace.events().len() as u64);
        output
    };
    let _s = span::span("trace.encode");
    let file =
        fs::File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    limba_trace::binary::write(&output.trace, BufWriter::new(file)).map_err(|e| e.to_string())
}

impl Workload for WhatIf {
    fn cycle(&self) -> u64 {
        2 * VISITS.len() as u64
    }

    fn describe(&self, id: u64) -> String {
        let (i, kind) = self.plan(id);
        let s = &self.scenarios[i];
        match kind {
            OpKind::Reduce { windows } => format!(
                "simulate {} --stream-reduce{}",
                s.name,
                if windows { " --windows 8" } else { "" }
            ),
            OpKind::Write => format!("simulate {} --out", s.name),
        }
    }

    fn op(&self, id: u64) -> Result<OpDone, String> {
        let (i, kind) = self.plan(id);
        let (scenario, reference) = (&self.scenarios[i], &self.reference[i]);
        match kind {
            OpKind::Reduce { windows } => timed_op(
                reference.events,
                || simulate_reduce(scenario, windows),
                |out| {
                    let mut expected = reference.report.clone();
                    if windows {
                        expected.push_str(reference.evolution.as_deref().unwrap_or_default());
                    }
                    if out == expected {
                        Ok(())
                    } else {
                        Err(format!(
                            "streamed report of {} differs from the materialized reference \
                             ({} vs {} bytes)",
                            scenario.name,
                            out.len(),
                            expected.len()
                        ))
                    }
                },
            ),
            OpKind::Write => {
                let path = self.dir.join(format!("out-{id}.limba"));
                let done = timed_op(
                    reference.events,
                    || simulate_out(scenario, &path),
                    |()| {
                        let bytes = fs::read(&path).map_err(|e| e.to_string())?;
                        if digest(&bytes) == reference.digest {
                            Ok(())
                        } else {
                            Err(format!(
                                "tracefile of {} differs from its reference digest",
                                scenario.name
                            ))
                        }
                    },
                );
                let _ = fs::remove_file(&path);
                done
            }
        }
    }

    /// `stream.reduce_over_run`: per scenario, the median
    /// `stream_reduce` time over the median `Simulator::run` time; the
    /// metric is the median over scenarios.
    fn layer_extras(&self, spans: &[Span]) -> Vec<Metric> {
        let mut times: BTreeMap<(usize, &str), Vec<f64>> = BTreeMap::new();
        for s in spans {
            if s.name == "stream.stream_reduce" || s.name == "mpisim.run" {
                let (i, _) = self.plan(s.op);
                times
                    .entry((i, s.name))
                    .or_default()
                    .push(s.dur_ns() as f64);
            }
        }
        let ratios: Vec<f64> = (0..self.scenarios.len())
            .filter_map(|i| {
                let reduce = times.get(&(i, "stream.stream_reduce"))?;
                let run = times.get(&(i, "mpisim.run"))?;
                Some(median(reduce) / median(run))
            })
            .collect();
        vec![Metric::new(
            "stream.reduce_over_run",
            median(&ratios),
            "ratio",
            ratios.len() as u64,
        )]
    }

    fn teardown(self: Box<Self>) -> Result<(), String> {
        fs::remove_dir_all(&self.dir)
            .map_err(|e| format!("cannot remove {}: {e}", self.dir.display()))
    }
}
