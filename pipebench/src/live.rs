//! `live`: two closed-loop clients replay `limba push` into an
//! in-process `limba serve` with an on-disk checkpoint directory. Every
//! 8th op first pushes a truncated prefix, which must come back
//! salvaged, then resumes with the full file. After each op a `REPORT`
//! query reads the finished run.

use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use limba_serve::client::{self, PushStatus};
use limba_serve::{PushSession, ServeConfig, ServeError, Server};
use limba_trace::stream::decode_all;
use limba_trace::{SalvageSink, ScanSink};

use crate::scenario::{Rng, Scale};
use crate::span::Span;
use crate::{analysis, posthoc, span, timed_op, Metric, OpDone, Workload};

/// Every how many ops a push is cut short first.
const SALVAGE_EVERY: u64 = 8;
/// Tenants the runs rotate over.
const TENANTS: u64 = 4;

/// Files pushed by one pass, as indices into the `posthoc` binary
/// scenarios. The three CFD 4k files come two or three times, the other
/// seven once. With every file once, the median op latency falls on the
/// edge between the CFD 4k pushes and the slower ones, where it jumped
/// from run to run; here it falls inside the CFD 4k pushes. The odd
/// length makes the salvage rhythm visit every position of the pass.
const PASS: [usize; 15] = [0, 1, 3, 7, 2, 4, 0, 6, 1, 5, 2, 8, 0, 9, 1];

/// One pushed tracefile.
#[derive(Clone, Debug)]
pub struct LiveFile {
    /// Scenario label.
    pub name: String,
    /// The chunked-v3 tracefile.
    pub path: PathBuf,
    /// Its first `cut` bytes, pushed by the salvage legs.
    pub prefix: PathBuf,
    /// Seeded truncation offset.
    pub cut: u64,
    /// Events in the trace.
    pub events: u64,
}

/// The `live` workload.
pub struct Live {
    /// The pushed files.
    pub files: Vec<LiveFile>,
    /// The offline streamed report of each file.
    pub reference: Vec<String>,
    server: Mutex<Option<Server>>,
    addr: SocketAddr,
    dir: PathBuf,
    spool: PathBuf,
    phase: AtomicU64,
    salvaged: AtomicU64,
    resumed: AtomicU64,
    rejected: AtomicU64,
    spool_at_start: AtomicU64,
}

/// Offline `analyze --from-stream` of in-memory chunked-v3 bytes.
fn offline_report(bytes: &[u8]) -> Result<String, String> {
    let mut scan = ScanSink::new();
    decode_all(bytes, &mut scan).map_err(|e| e.to_string())?;
    let scan = scan.into_scan().ok_or("stream scan did not complete")?;
    let mut salvage = SalvageSink::new(scan.activities);
    decode_all(bytes, &mut salvage).map_err(|e| e.to_string())?;
    analysis::report(
        &salvage
            .into_salvaged()
            .ok_or("stream fold did not complete")?,
    )
}

/// Bytes under `dir`, recursively.
fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

/// How the push legs of one op ended.
struct Pushed {
    /// Salvage leg: (status, offset at its handshake).
    prefix: Option<(PushStatus, u64)>,
    /// Resume offset at the final leg's handshake.
    offset: u64,
    /// Final leg's status and report.
    status: PushStatus,
    report: String,
}

impl Live {
    /// Writes chunked-v3 copies of the `posthoc` binary scenarios, their
    /// seeded prefixes and offline reports, and starts the server.
    pub fn setup(seed: u64, scale: Scale, dir: &Path) -> Result<Self, String> {
        let mut rng = Rng::new(seed, 4);
        let mut files = Vec::new();
        let mut reference = Vec::new();
        for (i, scenario) in posthoc::binary_scenarios(seed, scale)
            .into_iter()
            .enumerate()
        {
            let trace = posthoc::simulate(&scenario)?;
            let bytes =
                limba_trace::stream::to_stream_bytes(&trace, 4096).map_err(|e| e.to_string())?;
            let path = dir.join(format!("{i:02}-{}.trc", scenario.name));
            let prefix = dir.join(format!("{i:02}-{}.prefix.trc", scenario.name));
            let cut = (bytes.len() as f64 * rng.range(0.25, 0.75)) as usize;
            let io = |e: std::io::Error| format!("cannot write under {}: {e}", dir.display());
            fs::write(&path, &bytes).map_err(io)?;
            fs::write(&prefix, &bytes[..cut]).map_err(io)?;
            reference.push(offline_report(&bytes)?);
            files.push(LiveFile {
                name: scenario.name,
                path,
                prefix,
                cut: cut as u64,
                events: trace.events().len() as u64,
            });
        }
        let spool = dir.join("checkpoint");
        fs::create_dir_all(&spool).map_err(|e| e.to_string())?;
        let cfg = ServeConfig {
            checkpoint_dir: Some(spool.clone()),
            ..ServeConfig::default()
        };
        let server = Server::start("127.0.0.1:0", cfg).map_err(|e| e.to_string())?;
        Ok(Live {
            files,
            reference,
            addr: server.addr(),
            server: Mutex::new(Some(server)),
            dir: dir.to_path_buf(),
            spool,
            phase: AtomicU64::new(0),
            salvaged: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            spool_at_start: AtomicU64::new(0),
        })
    }

    fn names(&self, id: u64) -> (String, String) {
        (
            format!("t{}", id % TENANTS),
            format!("p{}-op{id}", self.phase.load(Ordering::SeqCst)),
        )
    }

    fn connect(&self, tenant: &str, run: &str) -> Result<PushSession, ServeError> {
        let session = span::within("serve.connect", || {
            PushSession::connect(self.addr, tenant, run)
        })?;
        if session.offset() > 0 {
            self.resumed.fetch_add(1, Ordering::SeqCst);
        }
        Ok(session)
    }

    fn push(
        &self,
        session: PushSession,
        path: &Path,
        len: u64,
    ) -> Result<limba_serve::PushOutcome, ServeError> {
        let mut s = span::span("serve.push_file");
        s.work(len.saturating_sub(session.offset()));
        let outcome = session.push_file(path)?;
        if outcome.status == PushStatus::Salvaged {
            self.salvaged.fetch_add(1, Ordering::SeqCst);
        }
        Ok(outcome)
    }

    /// `limba push <file> --tenant <t> --run <r>`, preceded on salvage
    /// ops by a push of the prefix.
    fn push_op(
        &self,
        file: &LiveFile,
        salvage: bool,
        tenant: &str,
        run: &str,
    ) -> Result<Pushed, ServeError> {
        let _op = span::span("cli.push");
        let prefix = if salvage {
            let session = self.connect(tenant, run)?;
            let offset = session.offset();
            let outcome = self.push(session, &file.prefix, file.cut)?;
            Some((outcome.status, offset))
        } else {
            None
        };
        let session = self.connect(tenant, run)?;
        let offset = session.offset();
        let len = fs::metadata(&file.path).map_or(0, |m| m.len());
        let outcome = self.push(session, &file.path, len)?;
        Ok(Pushed {
            prefix,
            offset,
            status: outcome.status,
            report: outcome.report,
        })
    }

    fn check(&self, file: &LiveFile, expected: &str, pushed: &Pushed) -> Result<(), String> {
        if let Some((status, offset)) = pushed.prefix {
            if status != PushStatus::Salvaged || offset != 0 {
                return Err(format!(
                    "prefix push of {} ended {status:?} from offset {offset}, expected Salvaged from 0",
                    file.name
                ));
            }
            if pushed.offset == 0 || pushed.offset > file.cut {
                return Err(format!(
                    "resume of {} offered offset {}, expected 1..={}",
                    file.name, pushed.offset, file.cut
                ));
            }
        } else if pushed.offset != 0 {
            return Err(format!(
                "fresh run of {} offered offset {}",
                file.name, pushed.offset
            ));
        }
        if pushed.status != PushStatus::Complete {
            return Err(format!("push of {} ended {:?}", file.name, pushed.status));
        }
        if pushed.report != expected {
            return Err(format!(
                "served report of {} differs from the offline streamed report ({} vs {} bytes)",
                file.name,
                pushed.report.len(),
                expected.len()
            ));
        }
        Ok(())
    }
}

impl Workload for Live {
    fn clients(&self) -> usize {
        2
    }

    fn cycle(&self) -> u64 {
        // Whole cycles of both the pass and the salvage rhythm.
        let n = PASS.len() as u64;
        n * SALVAGE_EVERY / gcd(n, SALVAGE_EVERY)
    }

    fn window(&self) -> u64 {
        PASS.len() as u64
    }

    fn describe(&self, id: u64) -> String {
        let file = &self.files[pass_file(id)];
        let (tenant, run) = self.names(id);
        format!(
            "push {} --tenant {tenant} --run {run}{}",
            file.name,
            if is_salvage(id) {
                " (salvage, then resume)"
            } else {
                ""
            }
        )
    }

    fn begin_phase(&self) {
        self.phase.fetch_add(1, Ordering::SeqCst);
        for c in [&self.salvaged, &self.resumed, &self.rejected] {
            c.store(0, Ordering::SeqCst);
        }
        self.spool_at_start
            .store(dir_bytes(&self.spool), Ordering::SeqCst);
    }

    fn op(&self, id: u64) -> Result<OpDone, String> {
        let i = pass_file(id);
        let (file, expected) = (&self.files[i], &self.reference[i]);
        let salvage = is_salvage(id);
        let (tenant, run) = self.names(id);
        let mut done = timed_op(
            file.events,
            || {
                self.push_op(file, salvage, &tenant, &run).map_err(|e| {
                    if matches!(e, ServeError::Rejected(_)) {
                        self.rejected.fetch_add(1, Ordering::SeqCst);
                    }
                    e.to_string()
                })
            },
            |pushed| self.check(file, expected, &pushed),
        )?;
        if done.error.is_none() {
            let report = span::within("serve.query", || {
                client::query(self.addr, &format!("REPORT {tenant} {run}"))
            });
            let t = Instant::now();
            match report {
                Ok(r) if r == *expected => {}
                Ok(r) => {
                    return Err(format!(
                        "REPORT of {} differs from the offline streamed report ({} vs {} bytes)",
                        file.name,
                        r.len(),
                        expected.len()
                    ))
                }
                Err(e) => done.error = Some(format!("REPORT query: {e}")),
            }
            done.check += t.elapsed();
        }
        Ok(done)
    }

    fn layer_extras(&self, _spans: &[Span]) -> Vec<Metric> {
        let grown =
            dir_bytes(&self.spool).saturating_sub(self.spool_at_start.load(Ordering::SeqCst));
        let count = |c: &AtomicU64| c.load(Ordering::SeqCst) as f64;
        vec![
            Metric::new("serve.salvaged", count(&self.salvaged), "count", 1),
            Metric::new("serve.resumed", count(&self.resumed), "count", 1),
            Metric::new("serve.rejected", count(&self.rejected), "count", 1),
            Metric::new("serve.spool_mib", grown as f64 / 1_048_576.0, "MiB", 1),
        ]
    }

    fn teardown(self: Box<Self>) -> Result<(), String> {
        let server = self
            .server
            .lock()
            .map_err(|_| "server slot poisoned".to_string())?
            .take();
        let stopped = server.map_or(Ok(()), |s| s.shutdown().map_err(|e| e.to_string()));
        let removed = fs::remove_dir_all(&self.dir)
            .map_err(|e| format!("cannot remove {}: {e}", self.dir.display()));
        stopped.and(removed)
    }
}

/// The file op `id` pushes.
fn pass_file(id: u64) -> usize {
    PASS[(id % PASS.len() as u64) as usize]
}

/// Whether op `id` pushes a truncated prefix first.
fn is_salvage(id: u64) -> bool {
    id % SALVAGE_EVERY == SALVAGE_EVERY - 1
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}
