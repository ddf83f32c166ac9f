//! `posthoc`: one client replays `limba analyze` over a corpus written
//! at set-up. Each binary file is analyzed materialized and streamed;
//! every other file also gets `--windows 8`.

use std::fs;
use std::io::{BufWriter, Read};
use std::path::{Path, PathBuf};

use limba_trace::{SalvageSink, ScanSink, StreamDecoder, Trace, TraceSink, WindowSink};

use crate::scenario::{Kind, Rng, Scale, Scenario, Skew};
use crate::{analysis, span, timed_op, OpDone, Workload};

/// Read size of the streamed mode, as `analyze --from-stream` reads.
const STREAM_CHUNK: usize = 64 * 1024;

/// The binary scenarios of the corpus, in op order. The crashed run
/// sits at an odd index, so it is never windowed: a windowed reduction
/// rejects truncated ranks.
pub fn binary_scenarios(seed: u64, scale: Scale) -> Vec<Scenario> {
    let mut rng = Rng::new(seed, 1);
    let mut s = |kind, ranks, skew, faults| {
        Scenario::new(&mut rng, kind, scale.ranks(ranks), skew, faults, None)
    };
    vec![
        s(Kind::Cfd, 4096, Skew::Linear, None),
        s(Kind::Cfd, 4096, Skew::Jitter, None),
        s(Kind::Cfd, 4096, Skew::Hotspot, None),
        s(Kind::Cfd, 16384, Skew::Linear, None),
        s(Kind::Cfd, 16384, Skew::Jitter, None),
        s(Kind::Cfd, 16384, Skew::Hotspot, None),
        s(Kind::Stencil, 4096, Skew::Jitter, None),
        s(Kind::Irregular, 4096, Skew::None, None),
        s(Kind::Sweep, 4096, Skew::Linear, None),
        s(Kind::Cfd, 8192, Skew::Jitter, Some("crash")),
    ]
}

/// The 1k-rank CFD run written as a rank-major text trace.
fn text_scenario(seed: u64, scale: Scale) -> Scenario {
    let mut rng = Rng::new(seed, 2);
    Scenario::new(
        &mut rng,
        Kind::Cfd,
        scale.ranks(1024),
        Skew::Jitter,
        None,
        None,
    )
}

/// Simulates `scenario` as `limba simulate` does (program, presets,
/// event engine).
pub fn simulate(scenario: &Scenario) -> Result<Trace, String> {
    let program = scenario.build_program()?;
    let faults = scenario.fault_plan(&program)?;
    let balance = scenario.balance_plan()?;
    scenario
        .simulator()
        .run_configured(&program, faults.as_ref(), balance.as_ref(), None)
        .map(|out| out.trace)
        .map_err(|e| e.to_string())
}

/// Text encoding with each rank's events grouped together, in rank
/// order, as concatenated per-rank logs are: out of global time order.
fn rank_major_text(trace: &Trace) -> String {
    let text = limba_trace::text::to_string(trace);
    let (mut head, mut events) = (Vec::new(), Vec::new());
    for line in text.lines() {
        match line.strip_prefix("event ") {
            Some(rest) => {
                let proc: u32 = rest
                    .split(' ')
                    .nth(1)
                    .and_then(|p| p.parse().ok())
                    .expect("text codec writes the rank second");
                events.push((proc, line));
            }
            None => head.push(line),
        }
    }
    events.sort_by_key(|&(proc, _)| proc);
    let mut out = head.join("\n");
    for (_, line) in events {
        out.push('\n');
        out.push_str(line);
    }
    out.push('\n');
    out
}

/// One tracefile of the corpus.
#[derive(Clone, Debug)]
pub struct CorpusFile {
    /// Scenario label.
    pub name: String,
    /// Where it is written.
    pub path: PathBuf,
    /// Text (materialized only) rather than binary.
    pub text: bool,
    /// Analyzed with `--windows 8`.
    pub windows: bool,
    /// Events in the trace.
    pub events: u64,
}

/// The `posthoc` workload.
pub struct Posthoc {
    /// The corpus, binary files first.
    pub files: Vec<CorpusFile>,
    /// Expected report per file, from the in-memory simulator trace.
    pub reference: Vec<String>,
    dir: PathBuf,
}

impl Posthoc {
    /// Simulates and writes the corpus and its reference reports.
    pub fn setup(seed: u64, scale: Scale, dir: &Path) -> Result<Self, String> {
        let mut scenarios: Vec<(Scenario, bool)> = binary_scenarios(seed, scale)
            .into_iter()
            .map(|s| (s, false))
            .collect();
        scenarios.push((text_scenario(seed, scale), true));
        let mut files = Vec::new();
        let mut reference = Vec::new();
        for (i, (scenario, text)) in scenarios.into_iter().enumerate() {
            let trace = simulate(&scenario)?;
            let windows = i % 2 == 0;
            let ext = if text { "txt" } else { "limba" };
            let path = dir.join(format!("{i:02}-{}.{ext}", scenario.name));
            let io = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
            if text {
                fs::write(&path, rank_major_text(&trace)).map_err(io)?;
            } else {
                let file = fs::File::create(&path).map_err(io)?;
                limba_trace::binary::write(&trace, BufWriter::new(file))
                    .map_err(|e| e.to_string())?;
            }
            reference.push(analysis::materialized(&trace, windows)?);
            files.push(CorpusFile {
                name: scenario.name,
                path,
                text,
                windows,
                events: trace.events().len() as u64,
            });
        }
        Ok(Posthoc {
            files,
            reference,
            dir: dir.to_path_buf(),
        })
    }

    /// (file index, streamed) of op `id`: each binary file materialized
    /// then streamed, then the text file.
    fn plan(&self, id: u64) -> (usize, bool) {
        let binary = self.files.iter().filter(|f| !f.text).count() as u64;
        let p = id % self.cycle();
        if p < 2 * binary {
            ((p / 2) as usize, p % 2 == 1)
        } else {
            ((binary + p - 2 * binary) as usize, false)
        }
    }
}

/// `limba analyze <file> [--windows 8]`.
fn analyze(file: &CorpusFile) -> Result<String, String> {
    let _op = span::span("cli.analyze");
    let data =
        fs::read(&file.path).map_err(|e| format!("cannot read {}: {e}", file.path.display()))?;
    let trace = if data.starts_with(b"LIMBATRC") {
        let mut s = span::span("trace.decode");
        s.work(data.len() as u64);
        limba_trace::binary::from_bytes(&data).map_err(|e| e.to_string())?
    } else {
        let _s = span::span("trace.text_decode");
        let text = std::str::from_utf8(&data).map_err(|e| e.to_string())?;
        limba_trace::text::from_str(text).map_err(|e| e.to_string())?
    };
    analysis::materialized(&trace, file.windows)
}

/// Feeds the file through `sink` in [`STREAM_CHUNK`] reads.
fn feed(path: &Path, sink: &mut dyn TraceSink) -> Result<(), String> {
    let mut f = fs::File::open(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut decoder = StreamDecoder::new();
    let mut buf = vec![0u8; STREAM_CHUNK];
    loop {
        let n = f.read(&mut buf).map_err(|e| e.to_string())?;
        if n == 0 {
            break;
        }
        decoder.feed(&buf[..n], sink).map_err(|e| e.to_string())?;
    }
    decoder.finish(sink).map_err(|e| e.to_string())
}

/// `limba analyze <file> --from-stream [--windows 8]`: scan pass,
/// salvage fold, report, then the window pass.
fn analyze_stream(file: &CorpusFile) -> Result<String, String> {
    let _op = span::span("cli.analyze_stream");
    let incomplete = || "stream fold did not complete".to_string();
    let scan = span::within("trace.scan_pass", || {
        let mut scan = ScanSink::new();
        feed(&file.path, &mut scan)?;
        scan.into_scan().ok_or_else(incomplete)
    })?;
    let salvaged = span::within("trace.fold_pass", || {
        let mut salvage = SalvageSink::new(scan.activities.clone());
        feed(&file.path, &mut salvage)?;
        salvage.into_salvaged().ok_or_else(incomplete)
    })?;
    let mut out = analysis::report(&salvaged)?;
    if file.windows {
        let sliced = span::within("trace.window_pass", || {
            let mut windowed =
                WindowSink::new(analysis::WINDOWS, scan.makespan, scan.activities.clone())
                    .map_err(|e| e.to_string())?;
            feed(&file.path, &mut windowed)?;
            windowed.into_windows().ok_or_else(incomplete)
        })?;
        out.push_str(&analysis::evolution(sliced)?);
    }
    Ok(out)
}

impl Workload for Posthoc {
    fn cycle(&self) -> u64 {
        let binary = self.files.iter().filter(|f| !f.text).count();
        (2 * binary + self.files.len() - binary) as u64
    }

    fn describe(&self, id: u64) -> String {
        let (i, streamed) = self.plan(id);
        let f = &self.files[i];
        format!(
            "analyze {}{}{}",
            f.name,
            if streamed { " --from-stream" } else { "" },
            if f.windows { " --windows 8" } else { "" }
        )
    }

    fn op(&self, id: u64) -> Result<OpDone, String> {
        let (i, streamed) = self.plan(id);
        let file = &self.files[i];
        timed_op(
            file.events,
            || {
                if streamed {
                    analyze_stream(file)
                } else {
                    analyze(file)
                }
            },
            |out| {
                let expected = &self.reference[i];
                if &out == expected {
                    Ok(())
                } else {
                    Err(format!(
                        "report of {} differs from its reference ({} vs {} bytes)",
                        file.name,
                        out.len(),
                        expected.len()
                    ))
                }
            },
        )
    }

    fn teardown(self: Box<Self>) -> Result<(), String> {
        fs::remove_dir_all(&self.dir)
            .map_err(|e| format!("cannot remove {}: {e}", self.dir.display()))
    }
}
