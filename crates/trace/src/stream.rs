//! The trace dataflow: frame-at-a-time encoding and decoding, and the
//! folds that do every reduction, so no stage needs a whole trace.
//!
//! * [`TraceSink`] — the producer/consumer contract: a trace flows
//!   through `begin → events* → finish`, with events delivered in
//!   recording order in arbitrarily sized batches. The simulator's
//!   engines record straight into any sink, and [`StreamDecoder`]
//!   replays bytes into one.
//! * [`StreamEncoder`] / [`StreamDecoder`] — the chunked binary
//!   container, format version 3 and the only one written: event
//!   records framed into self-delimiting chunks, so a writer can emit
//!   as rounds retire and a reader can fold from arbitrarily split byte
//!   frames. The decoder is the one binary reader; it also reads the
//!   legacy versions 1–2, which nothing writes any more.
//! * the folds — [`ScanSink`], [`ReduceSink`], [`WindowSink`],
//!   [`SalvageSink`], [`MaterializeSink`], [`TeeSink`] — sinks that
//!   consume an event stream into a makespan/activity scan, a full or
//!   windowed reduction, a salvaged reduction with per-rank coverage,
//!   or a materialized [`Trace`].
//!
//! # One fold per reduction
//!
//! Each reduction is implemented once, as a fold, and two kinds of
//! caller feed the folds: the batch API ([`reduce`](crate::reduce()),
//! [`reduce_windows`](crate::reduce_windows),
//! [`reduce_checked`](crate::reduce_checked)) pushes an in-memory
//! [`Trace`] through its fold in one batch, and the streamed paths
//! (`analyze --from-stream`, serve's spool replay, `simulate
//! --stream-reduce`) push decoded frames through the same folds. Every
//! matrix cell `(region, activity, processor)` is written by exactly
//! one rank's walker, which sees that rank's events in the same order
//! whatever the batching, so both produce bit-identical results.
//!
//! # Learned activity columns
//!
//! A reduction's activity axis is the paper's four standard activities
//! plus the extra kinds the trace begins, in first-seen recording
//! order. The reducing folds learn it as they go: the set they are
//! constructed with is their starting columns, and each kind a
//! `BeginActivity` brings that is not yet a column is appended, in
//! place, before anything is attributed to it. [`ScanSink`] applies the
//! same rule, so a fold seeded with [`ActivitySet::standard`] and one
//! seeded from a scan produce the same matrices, and a full or salvaged
//! reduction needs one pass over its input. Only a windowed reduction
//! keeps a [`ScanSink`] pass first: [`WindowSink`] must know the
//! makespan, which fixes the window width, before its first event.
//!
//! The folds cannot sort, so each rank's events must arrive in time
//! order (the trace input contract; only the text reader sorts, on
//! load). A stream that violates it fails with a named
//! [`TraceError::NonMonotoneTime`] instead of being silently
//! misattributed.
//!
//! # Bounded memory
//!
//! The decoder parses records in place from each chunk it is fed and
//! stages only the bytes of one incomplete item between chunks; the
//! folds hold O(regions × activities × processors) of matrix state (per
//! window, for [`WindowSink`]) and O(1) walker state per rank. Nothing
//! grows with the event count.

use bytes::{BufMut, Bytes, BytesMut};

use limba_model::{
    ActivityKind, ActivitySet, CountMatrixBuilder, MeasurementsBuilder, ModelError, RegionId,
};

use crate::binary::{put_event, try_event, Fnv, MAX_PROCESSORS};
use crate::reduce::{scatter_windowed, Attribution, ProcWalker, ReducedTrace};
use crate::salvage::{SalvageWalker, SalvagedTrace};
use crate::{Event, EventPayload, Trace, TraceBuilder, TraceError};

/// Format version of the chunked streaming container.
pub const STREAM_VERSION: u16 = 3;

const MAGIC: &[u8; 8] = b"LIMBATRC";
/// Chunk tag: a batch of events (`u32` count, then that many records).
const CHUNK_EVENTS: u8 = 0;
/// Chunk tag: end of stream (`u64` total events, `u64` FNV-1a checksum
/// of every preceding byte).
const CHUNK_END: u8 = 1;
/// Largest region count a header may declare: a stream has no
/// "remaining bytes" to bound the count against, so a fixed cap
/// stands in.
const MAX_REGIONS: usize = 1 << 20;
/// Largest single region-name length (bytes) a streamed header may
/// declare — bounds the decoder's staging buffer.
const MAX_REGION_NAME: usize = 1 << 20;
/// Decoded events are handed to the sink in batches of at most this
/// many, bounding the decoder's pending-event buffer.
const DECODE_BATCH: usize = 4096;
/// Bytes moved from a new chunk onto a staged incomplete item per
/// attempt to complete it; the bytes the item did not need go back.
const STAGE_GROW: usize = 64;

fn malformed(detail: impl Into<String>) -> TraceError {
    TraceError::Malformed {
        detail: detail.into(),
    }
}

/// The producer/consumer contract of the streaming pipeline: a trace
/// flows through exactly one [`begin`](TraceSink::begin), any number of
/// [`events`](TraceSink::events) batches (events in recording order;
/// batch boundaries carry no meaning), and one
/// [`finish`](TraceSink::finish).
///
/// Both ends of the pipeline speak it: the simulator's engines record
/// into a sink as rounds retire, and [`StreamDecoder`] replays a byte
/// stream into one. An error returned from any method propagates to
/// the producer, which aborts — this is how consumer cancellation
/// reaches a running simulation.
pub trait TraceSink {
    /// Starts a trace: processor count and the region name table.
    ///
    /// # Errors
    ///
    /// Implementations reject streams they cannot accept (e.g. a
    /// processor count over the supported maximum).
    fn begin(&mut self, processors: usize, region_names: &[String]) -> Result<(), TraceError>;

    /// Delivers the next batch of events, in recording order.
    ///
    /// # Errors
    ///
    /// Implementations fail on malformed events or when their consumer
    /// is gone; the producer must stop feeding after an error.
    fn events(&mut self, events: &[Event]) -> Result<(), TraceError>;

    /// Ends the trace: no more events will arrive.
    ///
    /// # Errors
    ///
    /// Implementations surface finalization failures (e.g. a reduction
    /// over a stream that declared no regions).
    fn finish(&mut self) -> Result<(), TraceError>;
}

/// A [`TraceSink`] that materializes the stream into an ordinary
/// [`Trace`] — what [`binary::from_bytes`] decodes into, and the
/// witness that a streamed trace carries exactly the information a
/// materialized one does.
///
/// [`binary::from_bytes`]: crate::binary::from_bytes
#[derive(Debug, Default)]
pub struct MaterializeSink {
    builder: Option<TraceBuilder>,
    trace: Option<Trace>,
    /// Events to reserve room for on `begin`.
    reserve: usize,
}

impl MaterializeSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A sink that reserves room for `events` events up front, so a
    /// decode of known size grows its event vector once.
    pub(crate) fn reserving(events: usize) -> Self {
        MaterializeSink {
            reserve: events,
            ..Self::default()
        }
    }

    /// The materialized trace, once [`TraceSink::finish`] has run.
    pub fn into_trace(self) -> Option<Trace> {
        self.trace
    }
}

impl TraceSink for MaterializeSink {
    fn begin(&mut self, processors: usize, region_names: &[String]) -> Result<(), TraceError> {
        let mut builder = TraceBuilder::new(processors);
        for name in region_names {
            builder.add_region(name.clone());
        }
        builder.reserve_events(self.reserve);
        self.builder = Some(builder);
        Ok(())
    }

    fn events(&mut self, events: &[Event]) -> Result<(), TraceError> {
        let builder = self
            .builder
            .as_mut()
            .ok_or_else(|| malformed("events before begin"))?;
        builder.extend_events(events);
        Ok(())
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        let builder = self
            .builder
            .take()
            .ok_or_else(|| malformed("finish before begin"))?;
        self.trace = Some(builder.build());
        Ok(())
    }
}

/// Forwards one stream to two sinks — e.g. a full reduction and a
/// windowed one folding the same frames in a single pass.
pub struct TeeSink<'a> {
    first: &'a mut dyn TraceSink,
    second: &'a mut dyn TraceSink,
}

impl<'a> TeeSink<'a> {
    /// Tees the stream into `first` then `second` (per call, in order).
    pub fn new(first: &'a mut dyn TraceSink, second: &'a mut dyn TraceSink) -> Self {
        TeeSink { first, second }
    }
}

impl TraceSink for TeeSink<'_> {
    fn begin(&mut self, processors: usize, region_names: &[String]) -> Result<(), TraceError> {
        self.first.begin(processors, region_names)?;
        self.second.begin(processors, region_names)
    }

    fn events(&mut self, events: &[Event]) -> Result<(), TraceError> {
        self.first.events(events)?;
        self.second.events(events)
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        self.first.finish()?;
        self.second.finish()
    }
}

/// A [`TraceSink`] that encodes the stream into the chunked version-3
/// container and writes each frame straight to any [`io::Write`] — the
/// streaming counterpart of [`binary::to_bytes`]: the trace flows to a
/// file, pipe, or socket as it is produced and is never materialized.
///
/// Dropping the sink without [`finish`](TraceSink::finish) leaves a
/// truncated (salvage-grade) stream behind, exactly like a producer
/// that died mid-write; `finish` seals the stream with the end chunk
/// and flushes the writer.
///
/// [`io::Write`]: std::io::Write
/// [`binary::to_bytes`]: crate::binary::to_bytes
#[derive(Debug)]
pub struct WriteSink<W: std::io::Write> {
    writer: W,
    encoder: StreamEncoder,
    started: bool,
}

impl<W: std::io::Write> WriteSink<W> {
    /// Wraps a writer; frames are written as the stream arrives.
    pub fn new(writer: W) -> Self {
        WriteSink {
            writer,
            encoder: StreamEncoder::new(),
            started: false,
        }
    }

    /// Consumes the sink and returns the underlying writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: std::io::Write> TraceSink for WriteSink<W> {
    fn begin(&mut self, processors: usize, region_names: &[String]) -> Result<(), TraceError> {
        if self.started {
            return Err(malformed("begin after begin"));
        }
        self.started = true;
        let header = self.encoder.header(processors, region_names)?;
        self.writer.write_all(&header)?;
        Ok(())
    }

    fn events(&mut self, events: &[Event]) -> Result<(), TraceError> {
        if !self.started {
            return Err(malformed("events before begin"));
        }
        let frame = self.encoder.frame(events);
        self.writer.write_all(&frame)?;
        Ok(())
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        if !self.started {
            return Err(malformed("finish before begin"));
        }
        let end = self.encoder.finish();
        self.writer.write_all(&end)?;
        self.writer.flush()?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------

/// Encodes a trace stream into the chunked version-3 container — the
/// only container this crate writes — one self-delimiting byte frame
/// per call: [`header`](StreamEncoder::header), then any number of
/// [`frame`](StreamEncoder::frame)s, then
/// [`finish`](StreamEncoder::finish) (which seals the stream with the
/// running event total and FNV-1a checksum). Concatenating the returned
/// frames yields a valid file that [`binary::from_bytes`] and
/// [`StreamDecoder`] both read.
///
/// ```text
/// magic    8 bytes  "LIMBATRC"
/// version  u16      3
/// procs    u32
/// nregions u32
/// regions  nregions × (u32 length, utf-8 bytes)
/// chunks   × (u8 tag 0, u32 count, count × event records)
/// end      u8 tag 1, u64 total events, u64 FNV-1a of all prior bytes
/// ```
///
/// [`binary::from_bytes`]: crate::binary::from_bytes
#[derive(Debug)]
pub struct StreamEncoder {
    hash: Fnv,
    events: u64,
}

/// Rejects processor counts and region tables the decoder refuses.
fn check_header(processors: usize, region_names: &[String]) -> Result<(), TraceError> {
    if processors > MAX_PROCESSORS {
        return Err(malformed(format!(
            "processor count {processors} exceeds the supported maximum {MAX_PROCESSORS}"
        )));
    }
    if region_names.len() > MAX_REGIONS {
        return Err(malformed(format!(
            "region count {} exceeds the streamed maximum {MAX_REGIONS}",
            region_names.len()
        )));
    }
    match region_names
        .iter()
        .find(|name| name.len() > MAX_REGION_NAME)
    {
        Some(name) => Err(malformed(format!(
            "region name of {} bytes exceeds the streamed maximum {MAX_REGION_NAME}",
            name.len()
        ))),
        None => Ok(()),
    }
}

impl StreamEncoder {
    /// Creates an encoder for one stream.
    pub fn new() -> Self {
        StreamEncoder {
            hash: Fnv::new(),
            events: 0,
        }
    }

    /// Encodes the stream header.
    ///
    /// # Errors
    ///
    /// Rejects processor counts over the supported maximum and region
    /// tables the streamed format cannot represent.
    pub fn header(
        &mut self,
        processors: usize,
        region_names: &[String],
    ) -> Result<Bytes, TraceError> {
        check_header(processors, region_names)?;
        let mut buf = BytesMut::with_capacity(64);
        self.put_header(&mut buf, processors, region_names);
        Ok(buf.freeze())
    }

    /// Encodes one batch of events as an event chunk. An empty batch
    /// encodes to an empty frame (nothing need be sent).
    pub fn frame(&mut self, events: &[Event]) -> Bytes {
        let mut buf = BytesMut::with_capacity(5 + events.len() * 25);
        self.put_frame(&mut buf, events);
        buf.freeze()
    }

    /// Seals the stream: the end chunk with the running event total and
    /// content checksum.
    pub fn finish(&mut self) -> Bytes {
        let mut buf = BytesMut::with_capacity(17);
        self.put_end(&mut buf);
        buf.freeze()
    }

    /// Appends the header to `buf` (unchecked; see [`check_header`]).
    fn put_header(&mut self, buf: &mut BytesMut, processors: usize, region_names: &[String]) {
        let start = buf.len();
        buf.put_slice(MAGIC);
        buf.put_u16_le(STREAM_VERSION);
        buf.put_u32_le(processors as u32);
        buf.put_u32_le(region_names.len() as u32);
        for name in region_names {
            buf.put_u32_le(name.len() as u32);
            buf.put_slice(name.as_bytes());
        }
        self.hash.update(&buf.as_ref()[start..]);
    }

    /// Appends `events` to `buf` as event chunks (none for no events).
    fn put_frame(&mut self, buf: &mut BytesMut, events: &[Event]) {
        let start = buf.len();
        // A u32 count caps one chunk at 4Gi events; longer batches
        // split into consecutive chunks, which decode identically.
        for chunk in events.chunks(u32::MAX as usize) {
            buf.put_u8(CHUNK_EVENTS);
            buf.put_u32_le(chunk.len() as u32);
            for e in chunk {
                put_event(buf, e);
            }
            self.events += chunk.len() as u64;
        }
        self.hash.update(&buf.as_ref()[start..]);
    }

    /// Appends the end chunk to `buf`.
    fn put_end(&mut self, buf: &mut BytesMut) {
        let start = buf.len();
        buf.put_u8(CHUNK_END);
        buf.put_u64_le(self.events);
        self.hash.update(&buf.as_ref()[start..]);
        buf.put_u64_le(self.hash.digest());
    }
}

impl Default for StreamEncoder {
    fn default() -> Self {
        Self::new()
    }
}

/// Encodes a whole trace into one v3 buffer, one event chunk per
/// `frame_events` events, without the header caps check: a trace over
/// the caps encodes, but no reader accepts it.
pub(crate) fn encode(trace: &Trace, frame_events: usize) -> Bytes {
    let mut enc = StreamEncoder::new();
    let mut out = BytesMut::with_capacity(64 + trace.events().len() * 25);
    enc.put_header(&mut out, trace.processors(), trace.region_names());
    for batch in trace.events().chunks(frame_events.max(1)) {
        enc.put_frame(&mut out, batch);
    }
    enc.put_end(&mut out);
    out.freeze()
}

// ---------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum DecodeState {
    /// Fixed 18-byte prelude: magic, version, processors, region count.
    Prelude,
    /// Region table entries still expected.
    Regions { left: usize },
    /// Legacy formats (v1–2): the u64 event count.
    EventCount,
    /// Legacy formats: events until the declared count is met.
    Events,
    /// Version 2 only: the trailing 8-byte checksum.
    Checksum,
    /// Streamed format (v3): the next chunk tag.
    ChunkTag,
    /// Streamed format: an event chunk's u32 count.
    BatchCount,
    /// Streamed format: events of the current chunk.
    Batch { left: u32 },
    /// Streamed format: the end chunk's total + checksum.
    Trailer,
    /// Stream fully consumed and verified.
    Done,
}

impl DecodeState {
    /// What the decoder was waiting for — names truncation errors.
    fn expecting(self) -> &'static str {
        match self {
            DecodeState::Prelude => "stream header",
            DecodeState::Regions { .. } => "region table",
            DecodeState::EventCount => "event count",
            DecodeState::Events => "events",
            DecodeState::Checksum => "content checksum",
            DecodeState::ChunkTag => "chunk tag",
            DecodeState::BatchCount => "event chunk count",
            DecodeState::Batch { .. } => "event chunk",
            DecodeState::Trailer => "end chunk",
            DecodeState::Done => "nothing",
        }
    }
}

/// Incremental push-based trace decoder: feed it byte chunks split at
/// *any* boundary — frame-aligned, mid-record, even one byte at a time
/// — and it replays the trace into a [`TraceSink`], verifying structure
/// and content checksum as it goes. Reads the chunked version-3
/// container and the read-only legacy versions 1–2 alike; it is the
/// only binary reader ([`binary::from_bytes`] drives it too).
///
/// Memory: records are parsed straight from the caller's chunk; only
/// the bytes of one incomplete item (record, region name, or header
/// field) at a chunk's end are staged until the next call, plus a
/// bounded pending-event batch — never the whole trace.
///
/// A truncated stream surfaces as a named [`TraceError::Malformed`]
/// from [`StreamDecoder::finish`] saying what was being read; corrupted
/// bytes surface from [`StreamDecoder::feed`] as the earliest of a
/// structural error or a [`TraceError::ChecksumMismatch`]. (The
/// whole-buffer reader reports damage as a checksum mismatch as if it
/// had verified the checksum *before* structure; a stream cannot, so
/// mid-stream corruption may report structurally here. Valid input
/// decodes identically on both.)
///
/// [`binary::from_bytes`]: crate::binary::from_bytes
pub struct StreamDecoder {
    state: DecodeState,
    version: u16,
    processors: usize,
    region_names: Vec<String>,
    /// Declared region count, kept after `region_names` is handed to
    /// the sink: record validation needs it for the whole stream.
    nregions: usize,
    /// Declared event count (versions 1–2 only).
    expect_events: u64,
    /// Events decoded so far.
    seen_events: u64,
    hash: Fnv,
    /// The incomplete item the last feed ended in; empty between items.
    staged: Vec<u8>,
    /// Decoded events awaiting delivery to the sink.
    pending: Vec<Event>,
    /// Set once any error has been returned; the decoder is poisoned.
    failed: bool,
    /// Total bytes consumed from the input so far.
    consumed: u64,
    /// `consumed` as of the last *sealed* boundary (see
    /// [`StreamDecoder::sealed`]).
    sealed_at: u64,
}

impl StreamDecoder {
    /// Creates a decoder for one stream.
    pub fn new() -> Self {
        StreamDecoder {
            state: DecodeState::Prelude,
            version: 0,
            processors: 0,
            region_names: Vec::new(),
            nregions: 0,
            expect_events: 0,
            seen_events: 0,
            hash: Fnv::new(),
            staged: Vec::new(),
            pending: Vec::new(),
            failed: false,
            consumed: 0,
            sealed_at: 0,
        }
    }

    /// `true` once the stream has been fully consumed and verified.
    pub fn is_done(&self) -> bool {
        self.state == DecodeState::Done
    }

    /// Total input bytes the decoder has consumed.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// The byte offset of the last **sealed** boundary: the end of the
    /// header or of a fully-consumed chunk (v3), the end of an event
    /// record (legacy v1–2), or the end of a verified stream.
    /// A file truncated at this offset decodes without error and a
    /// resumed producer may append from exactly here — it is where the
    /// startup recovery scrub cuts a torn spool tail back to.
    pub fn sealed(&self) -> u64 {
        self.sealed_at
    }

    /// Marks the current consumed offset as a sealed boundary.
    fn seal(&mut self) {
        self.sealed_at = self.consumed;
    }

    /// Rejects records referencing processors or regions the header
    /// never declared. The downstream folds refuse such records, so
    /// the decoder must too — otherwise a torn spool tail whose
    /// garbage bytes happen to parse as records could seal a resume
    /// boundary the replay would later fail on.
    fn check_event(&self, event: &Event) -> Result<(), TraceError> {
        if event.proc as usize >= self.processors {
            return Err(TraceError::UnknownProcessor { proc: event.proc });
        }
        match event.payload {
            EventPayload::EnterRegion { region } | EventPayload::LeaveRegion { region }
                if region >= self.nregions =>
            {
                Err(malformed(format!(
                    "record references region {region}, header declares {}",
                    self.nregions
                )))
            }
            _ => Ok(()),
        }
    }

    /// Consumes one chunk of input, delivering any completed events to
    /// `sink`. Chunks may be split at any byte boundary.
    ///
    /// # Errors
    ///
    /// Named [`TraceError`]s for structural damage, count caps, bytes
    /// after the end of the stream, and checksum mismatches — plus
    /// whatever `sink` returns. After an error the decoder is poisoned
    /// and every further call fails.
    pub fn feed(&mut self, chunk: &[u8], sink: &mut dyn TraceSink) -> Result<(), TraceError> {
        if self.failed {
            return Err(malformed("stream decoder poisoned by an earlier error"));
        }
        let result = self.feed_inner(chunk, sink);
        if result.is_err() {
            self.failed = true;
        }
        result
    }

    /// Ends the input: verifies the stream was complete and forwards
    /// [`TraceSink::finish`].
    ///
    /// # Errors
    ///
    /// A named truncation error when the stream ended mid-structure
    /// (saying what was being read), plus the conditions of
    /// [`StreamDecoder::feed`].
    pub fn finish(&mut self, sink: &mut dyn TraceSink) -> Result<(), TraceError> {
        if self.failed {
            return Err(malformed("stream decoder poisoned by an earlier error"));
        }
        if self.state != DecodeState::Done {
            self.failed = true;
            return Err(malformed(format!(
                "stream truncated while reading {}",
                self.state.expecting()
            )));
        }
        sink.finish()
    }

    fn feed_inner(&mut self, chunk: &[u8], sink: &mut dyn TraceSink) -> Result<(), TraceError> {
        let mut input = chunk;
        // Complete the item the last feed ended in: grow the staged
        // bytes until a step consumes them, then return the appended
        // bytes that step did not use to the input. A step that needed
        // more than `held` bytes before needs more than `held` now.
        while !self.staged.is_empty() && !input.is_empty() {
            let held = self.staged.len();
            let grow = input.len().min(STAGE_GROW);
            self.staged.extend_from_slice(&input[..grow]);
            let staged = std::mem::take(&mut self.staged);
            let used = self.step(&staged, sink);
            self.staged = staged;
            match used? {
                0 => input = &input[grow..],
                used => {
                    input = &input[used - held..];
                    self.staged.clear();
                }
            }
        }
        let mut pos = 0;
        if self.staged.is_empty() {
            loop {
                let used = self.step(&input[pos..], sink)?;
                if self.pending.len() >= DECODE_BATCH {
                    self.flush_pending(sink)?;
                }
                if used == 0 {
                    break;
                }
                pos += used;
            }
        }
        self.flush_pending(sink)?;
        let rest = &input[pos..];
        if self.state == DecodeState::Done && !rest.is_empty() {
            return Err(malformed(format!(
                "{} bytes after end of stream",
                rest.len()
            )));
        }
        self.staged.extend_from_slice(rest);
        Ok(())
    }

    fn flush_pending(&mut self, sink: &mut dyn TraceSink) -> Result<(), TraceError> {
        if !self.pending.is_empty() {
            sink.events(&self.pending)?;
            self.pending.clear();
        }
        Ok(())
    }

    /// Consumes the first `n` bytes of `a` (caller has checked
    /// availability), folding them into the running checksum unless
    /// `hashed` is false (the checksum field itself is excluded from
    /// its own hash). Returns `n`.
    fn take(&mut self, a: &[u8], n: usize, hashed: bool) -> usize {
        if hashed {
            self.hash.update(&a[..n]);
        }
        self.consumed += n as u64;
        n
    }

    /// Compares a recorded checksum with the running hash.
    fn verify(&self, expected: u64) -> Result<(), TraceError> {
        let actual = self.hash.digest();
        if expected != actual {
            return Err(TraceError::ChecksumMismatch { expected, actual });
        }
        Ok(())
    }

    /// Decodes one record from the front of `a` into the pending batch,
    /// returning its length (0 when incomplete).
    fn record(&mut self, a: &[u8]) -> Result<usize, TraceError> {
        let Some((event, len)) = try_event(a)? else {
            return Ok(0);
        };
        self.check_event(&event)?;
        self.pending.push(event);
        self.seen_events += 1;
        Ok(self.take(a, len, true))
    }

    /// Attempts one parsing step over the front of `a`, returning the
    /// bytes it consumed; 0 means more input is needed before anything
    /// further can be consumed.
    fn step(&mut self, a: &[u8], sink: &mut dyn TraceSink) -> Result<usize, TraceError> {
        let u32_at = |at: usize| u32::from_le_bytes(a[at..at + 4].try_into().expect("4 bytes"));
        let u64_at = |at: usize| u64::from_le_bytes(a[at..at + 8].try_into().expect("8 bytes"));
        match self.state {
            DecodeState::Prelude => {
                if a.len() < 18 {
                    return Ok(0);
                }
                if &a[..8] != MAGIC {
                    return Err(malformed("bad magic"));
                }
                let version = u16::from_le_bytes(a[8..10].try_into().expect("2-byte version"));
                if !(1..=STREAM_VERSION).contains(&version) {
                    return Err(malformed(format!(
                        "unsupported version {version} (this build reads 1..={STREAM_VERSION})"
                    )));
                }
                let processors = u32_at(10) as usize;
                if processors > MAX_PROCESSORS {
                    return Err(malformed(format!(
                        "processor count {processors} exceeds the supported maximum \
                         {MAX_PROCESSORS}"
                    )));
                }
                let nregions = u32_at(14) as usize;
                if nregions > MAX_REGIONS {
                    return Err(malformed(format!(
                        "region count {nregions} exceeds the streamed maximum {MAX_REGIONS}"
                    )));
                }
                self.version = version;
                self.processors = processors;
                self.region_names.reserve(nregions.min(1024));
                let used = self.take(a, 18, true);
                self.advance_regions(nregions, sink)?;
                Ok(used)
            }
            DecodeState::Regions { left } => {
                if a.len() < 4 {
                    return Ok(0);
                }
                let len = u32_at(0) as usize;
                if len > MAX_REGION_NAME {
                    return Err(malformed(format!(
                        "region name of {len} bytes exceeds the streamed maximum \
                         {MAX_REGION_NAME}"
                    )));
                }
                if a.len() < 4 + len {
                    return Ok(0);
                }
                let name = String::from_utf8(a[4..4 + len].to_vec())
                    .map_err(|e| malformed(format!("region name not utf-8: {e}")))?;
                self.region_names.push(name);
                let used = self.take(a, 4 + len, true);
                self.advance_regions(left - 1, sink)?;
                Ok(used)
            }
            DecodeState::EventCount => {
                if a.len() < 8 {
                    return Ok(0);
                }
                self.expect_events = u64_at(0);
                let used = self.take(a, 8, true);
                self.state = if self.expect_events == 0 {
                    self.after_events()
                } else {
                    DecodeState::Events
                };
                self.seal();
                Ok(used)
            }
            DecodeState::Events => {
                let used = self.record(a)?;
                if used > 0 {
                    if self.seen_events == self.expect_events {
                        self.state = self.after_events();
                    }
                    // Legacy formats have no chunk framing; every
                    // record boundary is a valid resume point.
                    self.seal();
                }
                Ok(used)
            }
            DecodeState::Checksum => {
                if a.len() < 8 {
                    return Ok(0);
                }
                self.verify(u64_at(0))?;
                let used = self.take(a, 8, false);
                self.state = DecodeState::Done;
                self.seal();
                Ok(used)
            }
            DecodeState::ChunkTag => {
                let Some(&tag) = a.first() else {
                    return Ok(0);
                };
                self.state = match tag {
                    CHUNK_EVENTS => DecodeState::BatchCount,
                    CHUNK_END => DecodeState::Trailer,
                    other => return Err(malformed(format!("unknown chunk tag {other}"))),
                };
                Ok(self.take(a, 1, true))
            }
            DecodeState::BatchCount => {
                if a.len() < 4 {
                    return Ok(0);
                }
                let count = u32_at(0);
                let used = self.take(a, 4, true);
                if count == 0 {
                    self.state = DecodeState::ChunkTag;
                    self.seal();
                } else {
                    self.state = DecodeState::Batch { left: count };
                }
                Ok(used)
            }
            DecodeState::Batch { left } => {
                let used = self.record(a)?;
                if used > 0 {
                    if left == 1 {
                        // The chunk's last record: a sealed v3 boundary.
                        self.state = DecodeState::ChunkTag;
                        self.seal();
                    } else {
                        self.state = DecodeState::Batch { left: left - 1 };
                    }
                }
                Ok(used)
            }
            DecodeState::Trailer => {
                if a.len() < 16 {
                    return Ok(0);
                }
                let total = u64_at(0);
                if total != self.seen_events {
                    return Err(malformed(format!(
                        "end chunk declares {total} events, stream carried {}",
                        self.seen_events
                    )));
                }
                // The total precedes the checksum, so it is hashed.
                self.take(a, 8, true);
                self.verify(u64_at(8))?;
                self.take(&a[8..], 8, false);
                self.state = DecodeState::Done;
                self.seal();
                Ok(16)
            }
            DecodeState::Done => Ok(0),
        }
    }

    /// Region table complete → announce the stream to the sink and move
    /// to the version's body state.
    fn advance_regions(&mut self, left: usize, sink: &mut dyn TraceSink) -> Result<(), TraceError> {
        if left > 0 {
            self.state = DecodeState::Regions { left };
            return Ok(());
        }
        sink.begin(self.processors, &self.region_names)?;
        self.nregions = self.region_names.len();
        self.region_names = Vec::new();
        self.state = if self.version >= STREAM_VERSION {
            DecodeState::ChunkTag
        } else {
            DecodeState::EventCount
        };
        // The header (prelude + region table) is complete: the first
        // sealed boundary.
        self.seal();
        Ok(())
    }

    /// Where a legacy format goes once all declared events are read:
    /// version 2 verifies its trailing checksum, version 1 ends.
    fn after_events(&self) -> DecodeState {
        if self.version >= 2 {
            DecodeState::Checksum
        } else {
            DecodeState::Done
        }
    }
}

impl Default for StreamDecoder {
    fn default() -> Self {
        Self::new()
    }
}

/// Decodes a complete in-memory byte buffer through the streaming
/// decoder into `sink` — one `feed` of everything, then `finish`.
///
/// # Errors
///
/// The union of [`StreamDecoder::feed`] and [`StreamDecoder::finish`].
pub fn decode_all(data: &[u8], sink: &mut dyn TraceSink) -> Result<(), TraceError> {
    let mut decoder = StreamDecoder::new();
    decoder.feed(data, sink)?;
    decoder.finish(sink)
}

/// Encodes a trace into the streamed container (one event chunk per
/// `frame_events` events) — the round trip partner of [`decode_all`].
///
/// # Errors
///
/// Same conditions as [`StreamEncoder::header`].
pub fn to_stream_bytes(trace: &Trace, frame_events: usize) -> Result<Bytes, TraceError> {
    check_header(trace.processors(), trace.region_names())?;
    Ok(encode(trace, frame_events))
}

// ---------------------------------------------------------------------
// Folds
// ---------------------------------------------------------------------

/// What one O(1)-memory pass over a stream learns: the run's makespan
/// (the window width a [`WindowSink`] needs up front), its activity set
/// (the columns every reducing fold ends with), and its totals.
///
/// Produced by [`ScanSink`]: the pass before a windowed fold, or a
/// sink teed beside a single-pass fold. The simulator being
/// deterministic (and a stored stream or an in-memory trace being
/// static), a second pass sees the identical events.
#[derive(Debug, Clone)]
pub struct StreamScan {
    /// Largest event timestamp (and at least `0.0`).
    pub makespan: f64,
    /// The paper's standard four activities plus extras in
    /// first-appearance order.
    pub activities: ActivitySet,
    /// Total events seen.
    pub events: u64,
    /// Processor count the stream declared.
    pub processors: usize,
    /// Region names the stream declared.
    pub region_names: Vec<String>,
}

/// First-pass scan: folds a stream into a [`StreamScan`] in O(1) memory
/// (plus the region name table).
#[derive(Debug, Default)]
pub struct ScanSink {
    makespan: f64,
    activities: ActivitySet,
    events: u64,
    processors: usize,
    region_names: Vec<String>,
    finished: bool,
}

impl ScanSink {
    /// Creates a scan pass.
    pub fn new() -> Self {
        Self::default()
    }

    /// The scan result, once [`TraceSink::finish`] has run.
    pub fn into_scan(self) -> Option<StreamScan> {
        if !self.finished {
            return None;
        }
        Some(StreamScan {
            makespan: self.makespan,
            activities: self.activities,
            events: self.events,
            processors: self.processors,
            region_names: self.region_names,
        })
    }
}

impl TraceSink for ScanSink {
    fn begin(&mut self, processors: usize, region_names: &[String]) -> Result<(), TraceError> {
        self.processors = processors;
        self.region_names = region_names.to_vec();
        Ok(())
    }

    fn events(&mut self, events: &[Event]) -> Result<(), TraceError> {
        for e in events {
            self.makespan = f64::max(self.makespan, e.time);
            learn(&mut self.activities, e);
        }
        self.events += events.len() as u64;
        Ok(())
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        self.finished = true;
        Ok(())
    }
}

/// The activity kind `e` begins when `activities` lacks it, after
/// appending it there: the one rule by which [`ScanSink`] and the
/// reducing folds learn their columns, in first-seen recording order.
fn learn(activities: &mut ActivitySet, e: &Event) -> Option<ActivityKind> {
    match e.payload {
        EventPayload::BeginActivity { kind } if activities.insert(kind) => Some(kind),
        _ => None,
    }
}

/// Pushes an in-memory trace through `sink` as one stream — `begin`,
/// a single `events` batch, `finish`. This is how the batch API runs:
/// [`reduce`](crate::reduce()) and [`reduce_checked`](crate::reduce_checked)
/// are one `drive` into their fold, [`reduce_windows`](crate::reduce_windows)
/// a [`scan`] and one `drive`.
pub(crate) fn drive(trace: &Trace, sink: &mut dyn TraceSink) -> Result<(), TraceError> {
    sink.begin(trace.processors(), trace.region_names())?;
    sink.events(trace.events())?;
    sink.finish()
}

/// The windowed batch reduction's first pass: a [`ScanSink`] over the
/// trace.
pub(crate) fn scan(trace: &Trace) -> StreamScan {
    let mut sink = ScanSink::new();
    drive(trace, &mut sink).expect("the scan accepts every stream");
    sink.into_scan().expect("a finished scan has a result")
}

/// The strict per-rank structural checks, event by event: processor
/// and region indices in range, per-rank monotone clocks, balanced
/// region nesting, and matched activity begin/end pairs. The one
/// implementation of [`Trace::validate`], and the inline validation of
/// [`ReduceSink`] and [`WindowSink`].
///
/// Errors are reported in recording order: the first offending event
/// names the error, and on that event a clock going backwards comes
/// before any structural error (as in [`SalvageSink`]). At the end of
/// the stream, [`RankChecks::finish`] reports still-open regions and
/// activities (truncation) in rank order.
pub(crate) struct RankChecks {
    ranks: Vec<RankChecker>,
    regions: usize,
}

struct RankChecker {
    stack: Vec<usize>,
    activity: Option<ActivityKind>,
    last_time: f64,
}

impl RankChecks {
    pub(crate) fn new(processors: usize, regions: usize) -> Self {
        let rank = || RankChecker {
            stack: Vec::new(),
            activity: None,
            last_time: f64::NEG_INFINITY,
        };
        RankChecks {
            ranks: std::iter::repeat_with(rank).take(processors).collect(),
            regions,
        }
    }

    /// Checks the next event in recording order.
    pub(crate) fn step(&mut self, e: &Event) -> Result<(), TraceError> {
        let proc = e.proc;
        let Some(rank) = self.ranks.get_mut(proc as usize) else {
            return Err(TraceError::UnknownProcessor { proc });
        };
        let nesting = |detail: String| TraceError::UnbalancedNesting { proc, detail };
        if e.time < rank.last_time {
            return Err(TraceError::NonMonotoneTime {
                proc,
                before: rank.last_time,
                after: e.time,
            });
        }
        rank.last_time = e.time;
        match e.payload {
            EventPayload::EnterRegion { region } | EventPayload::LeaveRegion { region }
                if region >= self.regions =>
            {
                return Err(TraceError::UnknownRegion { region });
            }
            EventPayload::EnterRegion { region } => rank.stack.push(region),
            EventPayload::LeaveRegion { region } => match rank.stack.pop() {
                Some(top) if top == region => {}
                Some(top) => {
                    return Err(nesting(format!("left region {region} while inside {top}")))
                }
                None => {
                    return Err(nesting(format!(
                        "left region {region} that was never entered"
                    )))
                }
            },
            EventPayload::BeginActivity { kind } => {
                if let Some(current) = rank.activity {
                    return Err(nesting(format!(
                        "began {kind} while {current} still active"
                    )));
                }
                if rank.stack.is_empty() {
                    return Err(nesting(format!("began {kind} outside any region")));
                }
                rank.activity = Some(kind);
            }
            EventPayload::EndActivity { kind } => match rank.activity.take() {
                Some(current) if current == kind => {}
                Some(current) => {
                    return Err(nesting(format!("ended {kind} while {current} active")))
                }
                None => return Err(nesting(format!("ended {kind} that never began"))),
            },
            EventPayload::MessageSend { .. } | EventPayload::MessageRecv { .. } => {}
        }
        Ok(())
    }

    /// The innermost open region of rank `proc` (`None` at top level
    /// or for a processor out of range).
    pub(crate) fn innermost(&self, proc: u32) -> Option<usize> {
        self.ranks.get(proc as usize)?.stack.last().copied()
    }

    /// Ends the stream: the first rank left with an open activity or
    /// region fails.
    pub(crate) fn finish(&self) -> Result<(), TraceError> {
        for (proc, rank) in (0u32..).zip(&self.ranks) {
            let nesting = |detail: String| TraceError::UnbalancedNesting { proc, detail };
            if let Some(kind) = rank.activity {
                return Err(nesting(format!(
                    "activity {kind} still open at end of trace"
                )));
            }
            if let Some(region) = rank.stack.last() {
                return Err(nesting(format!(
                    "region {region} still open at end of trace"
                )));
            }
        }
        Ok(())
    }
}

/// Rejects processor counts over the supported maximum before a fold
/// sizes per-processor tables from one.
fn check_processors(processors: usize) -> Result<(), TraceError> {
    if processors > MAX_PROCESSORS {
        return Err(malformed(format!(
            "processor count {processors} exceeds the supported maximum {MAX_PROCESSORS}"
        )));
    }
    Ok(())
}

/// A full-run measurement builder over `activities` and the stream's
/// regions, with its count matrix builder.
fn builders(
    processors: usize,
    region_names: &[String],
    activities: &ActivitySet,
) -> (MeasurementsBuilder, CountMatrixBuilder) {
    let mut mb = MeasurementsBuilder::with_activities(processors, activities.clone());
    for name in region_names {
        mb.add_region(name.clone());
    }
    (mb, CountMatrixBuilder::new(processors))
}

/// Records one attribution of rank `proc` into full-run builders.
fn record(
    (mb, cb): &mut (MeasurementsBuilder, CountMatrixBuilder),
    proc: u32,
    attribution: Attribution,
) -> Result<(), ModelError> {
    match attribution {
        Attribution::Interval {
            region,
            kind,
            start,
            end,
        } => mb.record(RegionId::new(region), kind, proc as usize, end - start),
        Attribution::Count {
            region,
            kind,
            amount,
            ..
        } => cb
            .record(RegionId::new(region), kind, proc as usize, amount)
            .and(Ok(())),
    }
}

/// A recording target that latches its first failure: the walkers'
/// attribution sinks cannot return errors.
struct Latched<T> {
    target: T,
    failure: Option<ModelError>,
}

impl<T> Latched<T> {
    fn new(target: T) -> Self {
        Latched {
            target,
            failure: None,
        }
    }

    /// An attribution sink that records into the target through
    /// `record` until the first failure.
    fn sink<'a>(
        &'a mut self,
        mut record: impl FnMut(&mut T, Attribution) -> Result<(), ModelError> + 'a,
    ) -> impl FnMut(Attribution) + 'a {
        move |attribution| {
            if self.failure.is_none() {
                if let Err(e) = record(&mut self.target, attribution) {
                    self.failure = Some(e);
                }
            }
        }
    }

    /// Returns (and clears) the latched failure.
    fn check(&mut self) -> Result<(), TraceError> {
        self.failure.take().map_or(Ok(()), |e| Err(e.into()))
    }
}

/// Finalizes full-run builders into a reduction.
fn build((mb, cb): (MeasurementsBuilder, CountMatrixBuilder)) -> Result<ReducedTrace, TraceError> {
    Ok(ReducedTrace {
        measurements: mb.build()?,
        counts: cb.build(),
    })
}

/// The strict full reduction, the fold behind [`reduce`](crate::reduce()).
/// Structural validation runs inline (see [`Trace::validate`]):
/// malformed streams — truncation included — fail with a named
/// [`TraceError`], never a panic. For lenient salvage of truncated
/// streams use [`SalvageSink`].
///
/// Construct it with its starting activity columns (see [Learned
/// activity columns](self#learned-activity-columns)).
pub struct ReduceSink {
    activities: ActivitySet,
    builders: Option<Latched<(MeasurementsBuilder, CountMatrixBuilder)>>,
    walkers: Vec<ProcWalker>,
    checks: RankChecks,
    result: Option<ReducedTrace>,
}

impl ReduceSink {
    /// Creates the fold for a stream starting from the `activities`
    /// columns: [`ActivitySet::standard`], or a scan's
    /// [`StreamScan::activities`]. Later kinds are appended as begun.
    pub fn new(activities: ActivitySet) -> Self {
        ReduceSink {
            activities,
            builders: None,
            walkers: Vec::new(),
            checks: RankChecks::new(0, 0),
            result: None,
        }
    }

    /// The reduction, once [`TraceSink::finish`] has run.
    pub fn into_reduced(self) -> Option<ReducedTrace> {
        self.result
    }
}

impl TraceSink for ReduceSink {
    fn begin(&mut self, processors: usize, region_names: &[String]) -> Result<(), TraceError> {
        check_processors(processors)?;
        self.builders = Some(Latched::new(builders(
            processors,
            region_names,
            &self.activities,
        )));
        self.walkers = std::iter::repeat_with(ProcWalker::new)
            .take(processors)
            .collect();
        self.checks = RankChecks::new(processors, region_names.len());
        Ok(())
    }

    fn events(&mut self, events: &[Event]) -> Result<(), TraceError> {
        let builders = self
            .builders
            .as_mut()
            .ok_or_else(|| malformed("events before begin"))?;
        for e in events {
            self.checks.step(e)?;
            if let Some(kind) = learn(&mut self.activities, e) {
                builders.target.0.add_activity(kind);
            }
            self.walkers[e.proc as usize].step(e, &mut builders.sink(|b, a| record(b, e.proc, a)));
            builders.check()?;
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        let builders = self
            .builders
            .take()
            .ok_or_else(|| malformed("finish before begin"))?;
        self.checks.finish()?;
        self.result = Some(build(builders.target)?);
        Ok(())
    }
}

/// The strict windowed reduction, the fold behind
/// [`reduce_windows`](crate::reduce_windows): `windows` equal slices of
/// `[0, makespan]`, each interval split proportionally over the windows
/// it overlaps. Structural validation runs inline, exactly as in
/// [`ReduceSink`].
///
/// Needs the run's horizon (makespan) up front to fix the window width
/// — which is exactly what the first-pass [`ScanSink`] provides; its
/// activity columns it learns like the other folds. Memory is
/// O(windows × regions × activities × processors) — the size of the
/// *output* — independent of event count.
pub struct WindowSink {
    windows: usize,
    width: f64,
    activities: ActivitySet,
    builders: Latched<Vec<(MeasurementsBuilder, CountMatrixBuilder)>>,
    walkers: Vec<ProcWalker>,
    checks: RankChecks,
    began: bool,
    result: Option<Vec<ReducedTrace>>,
}

impl WindowSink {
    /// Creates the fold: `windows` equal slices of `[0, makespan]`
    /// (the scan pass's [`StreamScan::makespan`]), starting from the
    /// `activities` columns as [`ReduceSink::new`] does.
    ///
    /// # Errors
    ///
    /// Degenerate requests: zero windows (see
    /// [`check_count`](WindowSink::check_count)), or a stream spanning
    /// no time.
    pub fn new(windows: usize, makespan: f64, activities: ActivitySet) -> Result<Self, TraceError> {
        Self::check_count(windows)?;
        if makespan <= 0.0 {
            return Err(malformed("trace spans no time, cannot window"));
        }
        Ok(WindowSink {
            windows,
            width: makespan / windows as f64,
            activities,
            builders: Latched::new(Vec::new()),
            walkers: Vec::new(),
            checks: RankChecks::new(0, 0),
            began: false,
            result: None,
        })
    }

    /// Rejects a window count no fold can slice into, with the error
    /// [`new`](WindowSink::new) gives — so a caller can refuse a bad
    /// request before it runs the scan pass.
    ///
    /// # Errors
    ///
    /// Zero windows.
    pub fn check_count(windows: usize) -> Result<(), TraceError> {
        if windows == 0 {
            return Err(malformed("window count must be positive"));
        }
        Ok(())
    }

    /// The per-window reductions, once [`TraceSink::finish`] has run.
    pub fn into_windows(self) -> Option<Vec<ReducedTrace>> {
        self.result
    }
}

impl TraceSink for WindowSink {
    fn begin(&mut self, processors: usize, region_names: &[String]) -> Result<(), TraceError> {
        check_processors(processors)?;
        self.builders = Latched::new(
            (0..self.windows)
                .map(|_| builders(processors, region_names, &self.activities))
                .collect(),
        );
        self.walkers = std::iter::repeat_with(ProcWalker::new)
            .take(processors)
            .collect();
        self.checks = RankChecks::new(processors, region_names.len());
        self.began = true;
        Ok(())
    }

    fn events(&mut self, events: &[Event]) -> Result<(), TraceError> {
        if !self.began {
            return Err(malformed("events before begin"));
        }
        for e in events {
            self.checks.step(e)?;
            if let Some(kind) = learn(&mut self.activities, e) {
                for (mb, _) in &mut self.builders.target {
                    mb.add_activity(kind);
                }
            }
            let width = self.width;
            self.walkers[e.proc as usize].step(
                e,
                &mut self
                    .builders
                    .sink(|windows, a| scatter_windowed(windows, width, e.proc, a)),
            );
            self.builders.check()?;
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        if !self.began {
            return Err(malformed("finish before begin"));
        }
        self.checks.finish()?;
        let windows = std::mem::take(&mut self.builders.target)
            .into_iter()
            .map(build)
            .collect::<Result<Vec<_>, TraceError>>()?;
        self.result = Some(windows);
        Ok(())
    }
}

/// The salvaging reduction, the fold behind
/// [`reduce_checked`](crate::reduce_checked): truncation damage (open
/// regions and activities) is repaired by closing each rank at its last
/// timestamp on [`TraceSink::finish`] and recorded in per-rank
/// [`coverage`](crate::RankCoverage); damage no truncation explains is
/// a structured [`TraceError::MalformedEvent`] naming the offending
/// event's recording-order index, and a rank clock going backwards is
/// [`TraceError::NonMonotoneTime`]. The first offending event in
/// recording order names the error.
pub struct SalvageSink {
    activities: ActivitySet,
    builders: Option<Latched<(MeasurementsBuilder, CountMatrixBuilder)>>,
    walkers: Vec<SalvageWalker>,
    /// Last timestamp per rank: each rank's events must arrive
    /// time-ordered (the trace input contract).
    last_time: Vec<f64>,
    /// Recording-order index of the next event (spans batches).
    index: usize,
    result: Option<SalvagedTrace>,
}

impl SalvageSink {
    /// Creates the fold for a stream starting from the `activities`
    /// columns, as [`ReduceSink::new`] does.
    pub fn new(activities: ActivitySet) -> Self {
        SalvageSink {
            activities,
            builders: None,
            walkers: Vec::new(),
            last_time: Vec::new(),
            index: 0,
            result: None,
        }
    }

    /// The salvaged reduction, once [`TraceSink::finish`] has run.
    pub fn into_salvaged(self) -> Option<SalvagedTrace> {
        self.result
    }
}

impl TraceSink for SalvageSink {
    fn begin(&mut self, processors: usize, region_names: &[String]) -> Result<(), TraceError> {
        check_processors(processors)?;
        self.builders = Some(Latched::new(builders(
            processors,
            region_names,
            &self.activities,
        )));
        self.walkers = (0..processors)
            .map(|proc| SalvageWalker::new(proc as u32, region_names.len()))
            .collect();
        self.last_time = vec![f64::NEG_INFINITY; processors];
        Ok(())
    }

    fn events(&mut self, events: &[Event]) -> Result<(), TraceError> {
        let builders = self
            .builders
            .as_mut()
            .ok_or_else(|| malformed("events before begin"))?;
        for e in events {
            let index = self.index;
            self.index += 1;
            let Some(walker) = self.walkers.get_mut(e.proc as usize) else {
                return Err(TraceError::MalformedEvent {
                    proc: e.proc,
                    index,
                    detail: format!(
                        "references processor {}, trace has {}",
                        e.proc,
                        self.walkers.len()
                    ),
                });
            };
            let last = &mut self.last_time[e.proc as usize];
            if e.time < *last {
                return Err(TraceError::NonMonotoneTime {
                    proc: e.proc,
                    before: *last,
                    after: e.time,
                });
            }
            *last = e.time;
            if let Some(kind) = learn(&mut self.activities, e) {
                builders.target.0.add_activity(kind);
            }
            walker.step(index, e, &mut builders.sink(|b, a| record(b, e.proc, a)))?;
            builders.check()?;
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        let mut builders = self
            .builders
            .take()
            .ok_or_else(|| malformed("finish before begin"))?;
        let mut coverage = Vec::with_capacity(self.walkers.len());
        for walker in std::mem::take(&mut self.walkers) {
            let proc = walker.proc();
            coverage.push(walker.finish(&mut builders.sink(|b, a| record(b, proc, a))));
            builders.check()?;
        }
        self.result = Some(SalvagedTrace {
            reduced: build(builders.target)?,
            coverage,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::{from_bytes, to_bytes};
    use crate::{reduce, reduce_checked, reduce_windows};
    use limba_model::ProcessorId;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new(3);
        let r0 = b.add_region("solver");
        let r1 = b.add_region("exchange");
        b.push(Event::enter(0.0, 0, r0));
        b.push(Event::begin_activity(0.5, 0, ActivityKind::Synchronization));
        b.push(Event::end_activity(0.75, 0, ActivityKind::Synchronization));
        b.push(Event::leave(1.0, 0, r0));
        b.push(Event::enter(0.0, 2, r1));
        b.push(Event::message_send(0.25, 2, 1, 4096));
        b.push(Event::message_recv(0.5, 2, 1, 128));
        b.push(Event::leave(1.5, 2, r1));
        b.build()
    }

    fn stream_trace(trace: &Trace, frame_events: usize, sink: &mut dyn TraceSink) {
        sink.begin(trace.processors(), trace.region_names())
            .unwrap();
        for batch in trace.events().chunks(frame_events.max(1)) {
            sink.events(batch).unwrap();
        }
        sink.finish().unwrap();
    }

    #[test]
    fn materialize_sink_round_trips() {
        let t = sample();
        let mut sink = MaterializeSink::new();
        stream_trace(&t, 3, &mut sink);
        assert_eq!(sink.into_trace().unwrap(), t);
    }

    #[test]
    fn v3_round_trips_through_materialized_reader() {
        let t = sample();
        for frame in [1, 2, 7, 1000] {
            let bytes = to_stream_bytes(&t, frame).unwrap();
            assert_eq!(from_bytes(&bytes).unwrap(), t, "frame size {frame}");
        }
    }

    #[test]
    fn byte_at_a_time_feeding_decodes_identically() {
        let t = sample();
        for bytes in [
            to_stream_bytes(&t, 2).unwrap(),
            to_stream_bytes(&t, 1000).unwrap(),
            to_bytes(&t),
        ] {
            let mut sink = MaterializeSink::new();
            let mut dec = StreamDecoder::new();
            for b in bytes.iter() {
                dec.feed(&[*b], &mut sink).unwrap();
            }
            dec.finish(&mut sink).unwrap();
            assert_eq!(sink.into_trace().unwrap(), t);
        }
    }

    #[test]
    fn truncation_yields_named_error_never_panic() {
        let t = sample();
        let bytes = to_stream_bytes(&t, 2).unwrap();
        for cut in 0..bytes.len() {
            let mut sink = MaterializeSink::new();
            let mut dec = StreamDecoder::new();
            let fed = dec.feed(&bytes[..cut], &mut sink);
            let finished = fed.and_then(|()| dec.finish(&mut sink));
            assert!(finished.is_err(), "truncation at {cut} was accepted");
        }
    }

    #[test]
    fn trailing_bytes_after_end_are_rejected() {
        let t = sample();
        let mut bytes = to_stream_bytes(&t, 4).unwrap().to_vec();
        bytes.push(0);
        let mut sink = MaterializeSink::new();
        assert!(decode_all(&bytes, &mut sink).is_err());

        // Also when the surplus arrives in a later feed.
        let good = to_stream_bytes(&t, 4).unwrap();
        let mut sink = MaterializeSink::new();
        let mut dec = StreamDecoder::new();
        dec.feed(&good, &mut sink).unwrap();
        assert!(dec.feed(&[0], &mut sink).is_err());
    }

    #[test]
    fn corrupted_stream_is_rejected() {
        let t = sample();
        let bytes = to_stream_bytes(&t, 3).unwrap();
        for i in 10..bytes.len() {
            let mut corrupt = bytes.to_vec();
            corrupt[i] ^= 0x40;
            let mut sink = MaterializeSink::new();
            assert!(
                decode_all(&corrupt, &mut sink).is_err(),
                "flip at byte {i} was accepted"
            );
        }
    }

    #[test]
    fn event_total_mismatch_is_named() {
        let t = sample();
        let mut enc = StreamEncoder::new();
        let mut out = Vec::new();
        out.extend_from_slice(&enc.header(t.processors(), t.region_names()).unwrap());
        out.extend_from_slice(&enc.frame(t.events()));
        enc.events += 1; // lie about the total
        out.extend_from_slice(&enc.finish());
        let mut sink = MaterializeSink::new();
        let err = decode_all(&out, &mut sink).unwrap_err().to_string();
        assert!(err.contains("declares"), "{err}");
    }

    #[test]
    fn hostile_counts_are_rejected() {
        // Oversized processor count.
        let mut enc = StreamEncoder::new();
        assert!(enc.header(MAX_PROCESSORS + 1, &[]).is_err());

        // Oversized region count in the raw header.
        let mut raw = Vec::new();
        raw.extend_from_slice(MAGIC);
        raw.extend_from_slice(&STREAM_VERSION.to_le_bytes());
        raw.extend_from_slice(&1u32.to_le_bytes());
        raw.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut sink = MaterializeSink::new();
        let mut dec = StreamDecoder::new();
        let err = dec.feed(&raw, &mut sink).unwrap_err().to_string();
        assert!(err.contains("region count"), "{err}");

        // Oversized region name length.
        let mut raw = Vec::new();
        raw.extend_from_slice(MAGIC);
        raw.extend_from_slice(&STREAM_VERSION.to_le_bytes());
        raw.extend_from_slice(&1u32.to_le_bytes());
        raw.extend_from_slice(&1u32.to_le_bytes());
        raw.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut sink = MaterializeSink::new();
        let mut dec = StreamDecoder::new();
        let err = dec.feed(&raw, &mut sink).unwrap_err().to_string();
        assert!(err.contains("region name"), "{err}");
    }

    #[test]
    fn scan_matches_materialized_preambles() {
        let t = sample();
        let mut scan = ScanSink::new();
        stream_trace(&t, 3, &mut scan);
        let scan = scan.into_scan().unwrap();
        let makespan = t.events().iter().map(|e| e.time).fold(0.0f64, f64::max);
        assert_eq!(scan.makespan.to_bits(), makespan.to_bits());
        assert_eq!(scan.events, t.events().len() as u64);
        assert_eq!(
            scan.activities.as_slice(),
            reduce(&t).unwrap().measurements.activities().as_slice()
        );
    }

    #[test]
    fn reduce_sink_is_bit_identical_to_batch() {
        let t = sample();
        let batch = reduce(&t).unwrap();
        for frame in [1, 2, 5, 100] {
            let mut scan = ScanSink::new();
            stream_trace(&t, frame, &mut scan);
            let scan = scan.into_scan().unwrap();
            let mut fold = ReduceSink::new(scan.activities.clone());
            stream_trace(&t, frame, &mut fold);
            let streamed = fold.into_reduced().unwrap();
            assert_eq!(streamed.measurements, batch.measurements);
            assert_eq!(streamed.counts, batch.counts);
        }
    }

    #[test]
    fn folds_learn_the_columns_a_scan_lists() {
        // Extras first begun in the order MemoryAccess, Io, on ranks
        // that interleave; the standard Collective comes last.
        let mut b = TraceBuilder::new(2);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::enter(0.0, 1, r));
        b.push(Event::begin_activity(1.0, 1, ActivityKind::MemoryAccess));
        b.push(Event::begin_activity(2.0, 0, ActivityKind::Io));
        b.push(Event::end_activity(3.0, 0, ActivityKind::Io));
        b.push(Event::end_activity(4.0, 1, ActivityKind::MemoryAccess));
        b.push(Event::begin_activity(5.0, 0, ActivityKind::Collective));
        b.push(Event::end_activity(6.0, 0, ActivityKind::Collective));
        b.push(Event::leave(7.0, 0, r));
        b.push(Event::leave(8.0, 1, r));
        let t = b.build();
        let mut scan = ScanSink::new();
        stream_trace(&t, 100, &mut scan);
        let scan = scan.into_scan().unwrap();
        assert_eq!(
            scan.activities.as_slice()[4..],
            [ActivityKind::MemoryAccess, ActivityKind::Io]
        );
        for frame in [1, 3, 100] {
            let mut seeded = ReduceSink::new(scan.activities.clone());
            let mut learned = ReduceSink::new(ActivitySet::standard());
            stream_trace(&t, frame, &mut seeded);
            stream_trace(&t, frame, &mut learned);
            let (seeded, learned) = (
                seeded.into_reduced().unwrap(),
                learned.into_reduced().unwrap(),
            );
            assert_eq!(learned.measurements, seeded.measurements);
            assert_eq!(learned.counts, seeded.counts);

            let mut seeded = WindowSink::new(3, scan.makespan, scan.activities.clone()).unwrap();
            let mut learned = WindowSink::new(3, scan.makespan, ActivitySet::standard()).unwrap();
            stream_trace(&t, frame, &mut seeded);
            stream_trace(&t, frame, &mut learned);
            for (l, s) in learned
                .into_windows()
                .unwrap()
                .iter()
                .zip(&seeded.into_windows().unwrap())
            {
                assert_eq!(l.measurements, s.measurements);
                assert_eq!(l.counts, s.counts);
            }

            let mut seeded = SalvageSink::new(scan.activities.clone());
            let mut learned = SalvageSink::new(ActivitySet::standard());
            stream_trace(&t, frame, &mut seeded);
            stream_trace(&t, frame, &mut learned);
            let (seeded, learned) = (
                seeded.into_salvaged().unwrap(),
                learned.into_salvaged().unwrap(),
            );
            assert_eq!(learned.reduced.measurements, seeded.reduced.measurements);
            assert_eq!(learned.coverage, seeded.coverage);
        }
    }

    #[test]
    fn window_sink_is_bit_identical_to_batch() {
        let t = sample();
        for windows in [1, 2, 3, 7] {
            let batch = reduce_windows(&t, windows).unwrap();
            let mut scan = ScanSink::new();
            stream_trace(&t, 3, &mut scan);
            let scan = scan.into_scan().unwrap();
            let mut fold =
                WindowSink::new(windows, scan.makespan, scan.activities.clone()).unwrap();
            stream_trace(&t, 3, &mut fold);
            let streamed = fold.into_windows().unwrap();
            assert_eq!(streamed.len(), batch.len());
            for (s, b) in streamed.iter().zip(&batch) {
                assert_eq!(s.measurements, b.measurements);
                assert_eq!(s.counts, b.counts);
            }
        }
    }

    #[test]
    fn salvage_sink_matches_batch_on_truncated_streams() {
        // Rank 1 crashes mid-activity; rank 0 completes.
        let mut b = TraceBuilder::new(2);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::leave(4.0, 0, r));
        b.push(Event::enter(0.0, 1, r));
        b.push(Event::begin_activity(2.0, 1, ActivityKind::Collective));
        b.push(Event::message_send(2.5, 1, 0, 128));
        let t = b.build();
        let batch = reduce_checked(&t).unwrap();
        for frame in [1, 2, 100] {
            let mut scan = ScanSink::new();
            stream_trace(&t, frame, &mut scan);
            let scan = scan.into_scan().unwrap();
            let mut fold = SalvageSink::new(scan.activities.clone());
            stream_trace(&t, frame, &mut fold);
            let streamed = fold.into_salvaged().unwrap();
            assert_eq!(streamed.coverage, batch.coverage);
            assert_eq!(streamed.reduced.measurements, batch.reduced.measurements);
            assert_eq!(streamed.reduced.counts, batch.reduced.counts);
        }
    }

    #[test]
    fn salvage_sink_names_malformed_events() {
        let mut b = TraceBuilder::new(2);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::leave(1.0, 0, r));
        b.push(Event::leave(1.0, 1, r));
        let t = b.build();
        let mut scan = ScanSink::new();
        stream_trace(&t, 10, &mut scan);
        let mut fold = SalvageSink::new(scan.into_scan().unwrap().activities);
        fold.begin(t.processors(), t.region_names()).unwrap();
        let err = fold.events(t.events()).unwrap_err();
        match err {
            TraceError::MalformedEvent { proc, index, .. } => {
                assert_eq!(proc, 1);
                assert_eq!(index, 2);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn folds_reject_backwards_rank_clocks() {
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        b.push(Event::enter(2.0, 0, r));
        b.push(Event::leave(1.0, 0, r));
        let t = b.build();
        let mut fold = SalvageSink::new(ActivitySet::standard());
        fold.begin(t.processors(), t.region_names()).unwrap();
        assert!(matches!(
            fold.events(t.events()),
            Err(TraceError::NonMonotoneTime { proc: 0, .. })
        ));
    }

    #[test]
    fn tee_sink_feeds_both() {
        let t = sample();
        let mut a = MaterializeSink::new();
        let mut b = MaterializeSink::new();
        {
            let mut tee = TeeSink::new(&mut a, &mut b);
            stream_trace(&t, 4, &mut tee);
        }
        assert_eq!(a.into_trace().unwrap(), t);
        assert_eq!(b.into_trace().unwrap(), t);
    }

    #[test]
    fn window_sink_rejects_degenerate_requests() {
        assert!(WindowSink::new(0, 1.0, ActivitySet::standard()).is_err());
        assert!(WindowSink::new(2, 0.0, ActivitySet::standard()).is_err());
    }

    #[test]
    fn salvage_single_rank_stream_closes_out() {
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r));
        b.push(Event::leave(2.0, 0, r));
        let t = b.build();
        let batch = reduce_checked(&t).unwrap();
        let mut fold = SalvageSink::new(ActivitySet::standard());
        stream_trace(&t, 1, &mut fold);
        let streamed = fold.into_salvaged().unwrap();
        assert!(streamed.is_complete());
        assert_eq!(
            streamed
                .reduced
                .measurements
                .time(r, ActivityKind::Computation, ProcessorId::new(0)),
            batch
                .reduced
                .measurements
                .time(r, ActivityKind::Computation, ProcessorId::new(0)),
        );
    }
}
