//! The streamed simulate → reduce pipeline over zero-copy byte frames.
//!
//! The simulator records into a [`FrameSink`], which encodes events
//! into chunked version-3 frames ([`StreamEncoder`]) as rounds retire
//! and sends them through a *bounded* channel ([`bounded`]); the other
//! end decodes the frames ([`drain_frames`], [`StreamDecoder`]) into
//! the same [`TraceSink`] folds the batch reductions drive — salvage
//! reduction, windowed reduction — so a 64k-rank run flows through
//! windowed reduction while holding only O(channel depth × frame) bytes
//! of trace in flight:
//!
//! * a slow consumer *backpressures* the producer — the simulator
//!   blocks on a full channel instead of buffering the trace;
//! * a failed consumer *cancels* it — dropping the receiver makes the
//!   producer's next send fail, the failure latches into the
//!   [`FrameSink`], and the simulation aborts at the next round
//!   boundary.
//!
//! [`stream_reduce`] is the turnkey entry point the CLI and examples
//! use. Without windows it simulates once: the pipelined pass folds
//! frames into the salvaged reduction, whose activity columns the fold
//! learns as it meets new kinds, while a scan teed beside it counts
//! events and the makespan. A windowed run simulates twice, because
//! the window fold must know the makespan before its first event: a
//! first O(1)-memory pass scans it, then the pipelined pass folds
//! frames into the salvaged and windowed reductions. The simulator is
//! deterministic, so both passes see the identical event stream. Either
//! way the results equal the batch reductions of the materialized
//! trace, which `tests/stream_equivalence.rs` locks across workloads ×
//! fault plans × balance plans × frame sizes × job counts.
//!
//! [`StreamEncoder`]: limba_trace::StreamEncoder

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

use bytes::Bytes;

use limba_model::ActivitySet;
use limba_mpisim::{BalancePlan, FaultPlan, Program, RunBudget, SimError, Simulator, StreamOutput};
use limba_trace::stream::StreamScan;
use limba_trace::{
    ReducedTrace, SalvageSink, SalvagedTrace, ScanSink, StreamDecoder, StreamEncoder, TeeSink,
    TraceError, TraceSink, WindowSink,
};

/// Error of a streaming pipeline run.
#[derive(Debug)]
pub enum StreamError {
    /// The peer end of a channel hung up. On its own this is a
    /// symptom, not a cause: the pipeline reports the peer's error
    /// instead whenever one exists.
    Disconnected,
    /// The simulation failed.
    Sim(SimError),
    /// Encoding, decoding, or folding the trace stream failed.
    Trace(TraceError),
    /// A pipeline thread failed for a reason of its own (e.g. a panic).
    Stage(String),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Disconnected => write!(f, "pipeline stage disconnected"),
            StreamError::Sim(e) => write!(f, "simulation failed: {e}"),
            StreamError::Trace(e) => write!(f, "trace stream failed: {e}"),
            StreamError::Stage(detail) => write!(f, "pipeline stage failed: {detail}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Sim(e) => Some(e),
            StreamError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for StreamError {
    fn from(e: SimError) -> Self {
        StreamError::Sim(e)
    }
}

impl From<TraceError> for StreamError {
    fn from(e: TraceError) -> Self {
        StreamError::Trace(e)
    }
}

/// Sending half of a bounded stage channel.
pub struct StageTx<T>(SyncSender<T>);

impl<T> Clone for StageTx<T> {
    /// Clones the sender: many producers may feed one consumer through
    /// the same bounded channel (e.g. one server socket per client,
    /// all draining into a shard worker). End-of-stream reaches the
    /// receiver when *every* clone has been dropped.
    fn clone(&self) -> Self {
        StageTx(self.0.clone())
    }
}

impl<T> StageTx<T> {
    /// Sends one item downstream, blocking while the channel is full —
    /// this block is the backpressure that bounds pipeline memory.
    ///
    /// # Errors
    ///
    /// [`StreamError::Disconnected`] when the receiving stage is gone;
    /// the producer must stop and unwind.
    pub fn send(&self, item: T) -> Result<(), StreamError> {
        self.0.send(item).map_err(|_| StreamError::Disconnected)
    }
}

/// Receiving half of a bounded stage channel.
pub struct StageRx<T>(Receiver<T>);

impl<T> StageRx<T> {
    /// Receives the next item, blocking until one arrives; `None` once
    /// the producing stage has finished (or failed) and the channel
    /// drained.
    pub fn recv(&self) -> Option<T> {
        self.0.recv().ok()
    }
}

impl<T> Iterator for StageRx<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.recv()
    }
}

/// Creates a bounded stage channel holding at most `depth` in-flight
/// items. `depth = 0` is a rendezvous channel (every send waits for
/// its recv).
pub fn bounded<T>(depth: usize) -> (StageTx<T>, StageRx<T>) {
    let (tx, rx) = sync_channel(depth);
    (StageTx(tx), StageRx(rx))
}

/// The simulator-side frame producer: a [`TraceSink`] that encodes
/// the run into binary-format frames (format version 3) as the engine
/// retires rounds, and sends each frame downstream through a bounded
/// channel. One `events` call from the engine — one frame on the wire;
/// the engine's `frame_events` flush threshold is the frame size.
///
/// When the consumer hangs up, sends fail: the sink flags itself
/// [`disconnected`](FrameSink::disconnected) and returns an error the
/// engine latches, aborting the simulation at the next round boundary
/// — consumer cancellation reaching a running producer.
pub struct FrameSink {
    enc: StreamEncoder,
    tx: StageTx<Bytes>,
    disconnected: bool,
}

impl FrameSink {
    /// Creates a frame producer sending into `tx`.
    pub fn new(tx: StageTx<Bytes>) -> Self {
        FrameSink {
            enc: StreamEncoder::new(),
            tx,
            disconnected: false,
        }
    }

    /// Whether a send failed because the consumer hung up — in which
    /// case the simulation's error is an echo, not a cause.
    pub fn disconnected(&self) -> bool {
        self.disconnected
    }

    fn send(&mut self, frame: Bytes) -> Result<(), TraceError> {
        if frame.is_empty() {
            return Ok(());
        }
        self.tx.send(frame).map_err(|_| {
            self.disconnected = true;
            TraceError::Io(std::io::Error::other("stream consumer disconnected"))
        })
    }
}

impl TraceSink for FrameSink {
    fn begin(&mut self, processors: usize, region_names: &[String]) -> Result<(), TraceError> {
        let header = self.enc.header(processors, region_names)?;
        self.send(header)
    }

    fn events(&mut self, events: &[limba_trace::Event]) -> Result<(), TraceError> {
        let frame = self.enc.frame(events);
        self.send(frame)
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        let trailer = self.enc.finish();
        self.send(trailer)
    }
}

/// Decodes a channel of byte frames into `sink`, verifying the stream
/// end-to-end — the consumer-side counterpart of [`FrameSink`].
///
/// # Errors
///
/// Decoder errors (truncation, corruption, trailing bytes) and
/// whatever `sink` returns.
pub fn drain_frames(rx: StageRx<Bytes>, sink: &mut dyn TraceSink) -> Result<(), TraceError> {
    let mut decoder = StreamDecoder::new();
    while let Some(frame) = rx.recv() {
        decoder.feed(&frame, sink)?;
    }
    decoder.finish(sink)
}

/// Tuning knobs of a streaming run.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Events per emitted frame (the engine's flush threshold).
    pub frame_events: usize,
    /// Bounded channel depth, in frames. In-flight trace bytes are
    /// bounded by roughly `(depth + 2) × frame_events × event size`.
    pub depth: usize,
    /// Ignored: streaming runs always use the sequential event engine.
    /// Kept only so existing struct literals that set it still compile;
    /// slated for removal.
    pub jobs: usize,
    /// Fold into this many equal time windows as well (the streaming
    /// [`reduce_windows`](limba_trace::reduce_windows)).
    pub windows: Option<usize>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            frame_events: 4096,
            depth: 8,
            jobs: 1,
            windows: None,
        }
    }
}

/// Everything a streamed simulate→reduce run produces — without the
/// trace, which never existed in one piece.
#[derive(Debug, Clone)]
pub struct StreamedReduction {
    /// Simulation statistics and fault/balance reports.
    pub output: StreamOutput,
    /// The salvaged full reduction with per-rank coverage — identical
    /// to materializing the trace and calling
    /// [`reduce_checked`](limba_trace::reduce_checked).
    pub salvaged: SalvagedTrace,
    /// The windowed reductions, when [`StreamConfig::windows`] asked
    /// for them — identical to the materialized
    /// [`reduce_windows`](limba_trace::reduce_windows).
    pub windows: Option<Vec<ReducedTrace>>,
    /// The run's scan: makespan, activity set, event count — from the
    /// first pass of a windowed run, or teed beside the fold otherwise.
    pub scan: StreamScan,
}

/// The pipelined pass: runs `produce` on a spawned thread, recording
/// into a [`FrameSink`] that sends frames through one bounded channel of
/// `depth` frames, and drains them into `fold` on the calling thread.
///
/// `fold` owns the receiver, so a failing fold hangs up as it returns:
/// the producer's next send fails and the simulation aborts. The fold's
/// error is then reported, not the producer's disconnection echo.
fn pipeline(
    depth: usize,
    produce: impl FnOnce(&mut FrameSink) -> Result<StreamOutput, SimError> + Send,
    fold: impl FnOnce(StageRx<Bytes>) -> Result<(), TraceError>,
) -> Result<StreamOutput, StreamError> {
    let (tx, rx) = bounded(depth);
    std::thread::scope(|s| {
        let producer = s.spawn(move || {
            let mut sink = FrameSink::new(tx);
            produce(&mut sink).map_err(|e| {
                if sink.disconnected() {
                    StreamError::Disconnected
                } else {
                    StreamError::Sim(e)
                }
            })
        });
        let folded = fold(rx);
        let produced = producer
            .join()
            .unwrap_or_else(|_| Err(StreamError::Stage("pipeline stage panicked".into())));
        match (produced, folded) {
            (Ok(output), Ok(())) => Ok(output),
            (Err(StreamError::Disconnected), Err(e)) | (Ok(_), Err(e)) => Err(e.into()),
            (Err(e), _) => Err(e),
        }
    })
}

/// The turnkey streaming driver: simulate → frames → salvaged (and
/// optionally windowed) reduction, never materializing the trace.
///
/// The reduction runs in the pipelined pass — a [`FrameSink`] producer
/// sending over one bounded channel to the decoding fold — where
/// backpressure keeps at most `depth + 2` frames of trace alive at
/// once. The salvage fold starts from the standard activities and
/// appends each further kind as the run first begins it, so without
/// [`StreamConfig::windows`] this is the only simulation, and a
/// [`ScanSink`] teed beside the fold fills in
/// [`StreamedReduction::scan`]. With windows, a direct, channel-free
/// O(1)-memory [`ScanSink`] pass runs first, because the window fold
/// needs the makespan at construction; the simulator's determinism
/// gives both passes the identical event stream.
///
/// The results are bit-identical to materializing the trace and
/// reducing it, per the differential harness.
///
/// # Errors
///
/// Simulation errors (including budget interruption and cancellation
/// via [`RunBudget`]), stream codec errors, and the same degenerate
/// window requests as [`reduce_windows`](limba_trace::reduce_windows).
pub fn stream_reduce(
    sim: &Simulator,
    program: &Program,
    faults: Option<&FaultPlan>,
    balance: Option<&BalancePlan>,
    budget: Option<&RunBudget>,
    cfg: &StreamConfig,
) -> Result<StreamedReduction, StreamError> {
    stream_reduce_tee(sim, program, faults, balance, budget, cfg, None)
}

/// [`stream_reduce`] with an optional producer-side tee: the pipelined
/// pass feeds the identical event stream into `tee` as well — e.g. a
/// [`WriteSink`](limba_trace::WriteSink) persisting the chunked
/// tracefile while the reduction folds it, still without ever
/// materializing the trace. A windowed run's scan pass does not touch
/// the tee, so the tee sees the stream exactly once.
///
/// # Errors
///
/// As [`stream_reduce`], plus whatever the tee surfaces (an error from
/// the tee aborts the simulation like a fold error would). A zero
/// window count fails before anything simulates.
pub fn stream_reduce_tee(
    sim: &Simulator,
    program: &Program,
    faults: Option<&FaultPlan>,
    balance: Option<&BalancePlan>,
    budget: Option<&RunBudget>,
    cfg: &StreamConfig,
    tee: Option<&mut (dyn TraceSink + Send)>,
) -> Result<StreamedReduction, StreamError> {
    if let Some(windows) = cfg.windows {
        WindowSink::check_count(windows)?;
    }
    let run = |sink: &mut dyn TraceSink| {
        sim.run_streaming_configured(program, faults, balance, budget, sink, cfg.frame_events)
    };

    let produce = |frames: &mut FrameSink| match tee {
        Some(tee) => run(&mut TeeSink::new(tee, frames)),
        None => run(frames),
    };
    let finished = |scan: ScanSink| {
        scan.into_scan()
            .ok_or_else(|| StreamError::Stage("scan ended before finish".into()))
    };

    let mut salvage = SalvageSink::new(ActivitySet::standard());
    let mut scan_sink = ScanSink::new();
    let (output, scan, windows) = match cfg.windows {
        None => {
            let output = pipeline(cfg.depth, produce, |rx| {
                drain_frames(rx, &mut TeeSink::new(&mut salvage, &mut scan_sink))
            })?;
            (output, finished(scan_sink)?, None)
        }
        Some(windows) => {
            run(&mut scan_sink)?;
            let scan = finished(scan_sink)?;
            let mut windowed = WindowSink::new(windows, scan.makespan, scan.activities.clone())?;
            let output = pipeline(cfg.depth, produce, |rx| {
                drain_frames(rx, &mut TeeSink::new(&mut salvage, &mut windowed))
            })?;
            (output, scan, windowed.into_windows())
        }
    };
    let salvaged = salvage
        .into_salvaged()
        .ok_or_else(|| StreamError::Stage("fold produced no reduction".into()))?;
    Ok(StreamedReduction {
        output,
        salvaged,
        windows,
        scan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use limba_mpisim::MachineConfig;

    fn machine(ranks: usize) -> Simulator {
        Simulator::new(MachineConfig::new(ranks))
    }

    fn sample_program(ranks: usize) -> Program {
        use limba_mpisim::ProgramBuilder;
        let mut b = ProgramBuilder::new(ranks);
        let work = b.add_region("work");
        b.spmd(|rank, mut ops| {
            ops.enter(work);
            ops.compute(1.0 + rank as f64 * 0.25);
            if ranks > 1 {
                let peer = (rank + 1) % ranks;
                ops.isend(peer, 1024, 0);
                ops.recv((rank + ranks - 1) % ranks);
                ops.wait(0);
            }
            ops.barrier();
            ops.leave(work);
        });
        b.build().expect("valid program")
    }

    #[test]
    fn streamed_reduction_matches_materialized() {
        let ranks = 8;
        let sim = machine(ranks);
        let program = sample_program(ranks);
        let materialized = sim.run(&program).expect("materialized run");
        let batch = materialized.reduce_checked().expect("batch reduce");
        let windows = limba_trace::reduce_windows(&materialized.trace, 4).expect("batch windows");

        for frame_events in [1, 7, 4096] {
            let cfg = StreamConfig {
                frame_events,
                windows: Some(4),
                ..StreamConfig::default()
            };
            let streamed = stream_reduce(&sim, &program, None, None, None, &cfg).expect("streamed");
            assert_eq!(streamed.output.stats, materialized.stats);
            assert_eq!(streamed.salvaged.coverage, batch.coverage);
            assert_eq!(
                streamed.salvaged.reduced.measurements,
                batch.reduced.measurements
            );
            assert_eq!(streamed.salvaged.reduced.counts, batch.reduced.counts);
            let streamed_windows = streamed.windows.expect("windows requested");
            assert_eq!(streamed_windows.len(), windows.len());
            for (s, b) in streamed_windows.iter().zip(&windows) {
                assert_eq!(s.measurements, b.measurements);
                assert_eq!(s.counts, b.counts);
            }
        }
    }

    #[test]
    fn consumer_failure_cancels_the_producer() {
        /// A fold that accepts the header frame, then gives up.
        struct QuitSink;
        impl TraceSink for QuitSink {
            fn begin(&mut self, _: usize, _: &[String]) -> Result<(), TraceError> {
                Ok(())
            }
            fn events(&mut self, _: &[limba_trace::Event]) -> Result<(), TraceError> {
                Err(TraceError::Malformed {
                    detail: "consumer gave up".into(),
                })
            }
            fn finish(&mut self) -> Result<(), TraceError> {
                Ok(())
            }
        }

        let ranks = 4;
        let sim = machine(ranks);
        let program = sample_program(ranks);
        let mut out = None;
        let err = pipeline(
            0,
            |frames| {
                let run = sim.run_streaming_configured(&program, None, None, None, frames, 1);
                out = run.as_ref().ok().cloned();
                run
            },
            |rx| drain_frames(rx, &mut QuitSink),
        )
        .expect_err("pipeline must fail");
        // The consumer's own error survives; the producer's
        // disconnection echo does not mask it.
        assert!(
            matches!(err, StreamError::Trace(TraceError::Malformed { ref detail })
                if detail == "consumer gave up"),
            "{err}"
        );
        assert!(out.is_none(), "cancelled run must not produce output");
    }

    #[test]
    fn zero_windows_fail_before_anything_simulates() {
        /// A tee that counts the streams it is asked to begin.
        struct Begins(usize);
        impl TraceSink for Begins {
            fn begin(&mut self, _: usize, _: &[String]) -> Result<(), TraceError> {
                self.0 += 1;
                Ok(())
            }
            fn events(&mut self, _: &[limba_trace::Event]) -> Result<(), TraceError> {
                Ok(())
            }
            fn finish(&mut self) -> Result<(), TraceError> {
                Ok(())
            }
        }

        let ranks = 4;
        let sim = machine(ranks);
        let program = sample_program(ranks);
        let cfg = StreamConfig {
            windows: Some(0),
            ..StreamConfig::default()
        };
        // A budget already spent: a simulation that started would fail
        // with the interruption instead of the window error.
        let budget = RunBudget {
            max_ops: Some(0),
            ..RunBudget::default()
        };
        let mut tee = Begins(0);
        let err = stream_reduce_tee(
            &sim,
            &program,
            None,
            None,
            Some(&budget),
            &cfg,
            Some(&mut tee),
        )
        .expect_err("zero windows");
        assert!(
            matches!(err, StreamError::Trace(TraceError::Malformed { ref detail })
                if detail == "window count must be positive"),
            "{err}"
        );
        assert_eq!(tee.0, 0, "the tee saw a stream");
    }

    #[test]
    fn one_pass_scan_matches_the_scan_pass() {
        let ranks = 6;
        let sim = machine(ranks);
        let program = sample_program(ranks);
        let single = stream_reduce(&sim, &program, None, None, None, &StreamConfig::default())
            .expect("single pass");
        let mut scan = ScanSink::new();
        sim.run_streaming_configured(&program, None, None, None, &mut scan, 4096)
            .expect("scan pass");
        let scan = scan.into_scan().expect("scanned");
        assert_eq!(single.scan.events, scan.events);
        assert_eq!(single.scan.makespan.to_bits(), scan.makespan.to_bits());
        assert_eq!(single.scan.activities, scan.activities);
        assert_eq!(single.scan.processors, scan.processors);
        assert_eq!(single.scan.region_names, scan.region_names);
    }

    #[test]
    fn windowing_an_empty_run_fails_like_the_batch_path() {
        let sim = machine(1);
        let program = {
            let mut b = limba_mpisim::ProgramBuilder::new(1);
            b.rank(0);
            b.build().expect("empty program")
        };
        let cfg = StreamConfig {
            windows: Some(3),
            ..StreamConfig::default()
        };
        let err = stream_reduce(&sim, &program, None, None, None, &cfg).expect_err("no time");
        assert!(err.to_string().contains("spans no time"), "{err}");
    }
}
