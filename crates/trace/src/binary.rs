//! Compact binary codec for traces.
//!
//! Every writer in this crate emits one container: the chunked
//! version 3 of [`crate::stream`], whose layout is documented on
//! [`StreamEncoder`]. [`to_bytes`] and [`write()`] encode a whole
//! trace into it, one event chunk per 4096 events, so both produce
//! identical bytes. Versions 1 and 2 are read-only legacy formats:
//!
//! ```text
//! magic    8 bytes  "LIMBATRC"
//! version  u16      1 or 2
//! procs    u32
//! nregions u32
//! regions  nregions × (u32 length, utf-8 bytes)
//! nevents  u64
//! events   nevents × (f64 time, u32 proc, u8 op, operands)
//! checksum u64      FNV-1a of every preceding byte (version 2 only)
//! ```
//!
//! Event records are the same in every version. Operands by op code:
//! `0` enter / `1` leave → `u32` region; `2` begin / `3` end → `u8`
//! activity index; `4` send / `5` recv → `u32` peer + `u64` bytes.
//!
//! All versions are read by one decoder, [`StreamDecoder`];
//! [`from_bytes`] drives it over a whole buffer. Versions 2 and 3 carry
//! an FNV-1a content checksum in their last 8 bytes, and the
//! whole-buffer reader reports any damage to them as
//! [`TraceError::ChecksumMismatch`], as if the checksum were verified
//! before any structure, so silent corruption (bit rot, torn copies)
//! never surfaces as a confusing structural error — or worse, a
//! plausible-but-wrong trace.
//!
//! The decoder is hardened against hostile input: every count field is
//! capped, and the whole-buffer reader bounds the declared event count
//! by the bytes that could hold it before it reserves the event vector,
//! so a corrupted header claiming four billion events is rejected in
//! O(1) with a named error rather than attempted.
//!
//! [`StreamEncoder`]: crate::StreamEncoder
//! [`StreamDecoder`]: crate::StreamDecoder

use std::io::{Read, Write};

use bytes::{BufMut, Bytes, BytesMut};

use limba_model::ActivityKind;

use crate::stream::{self, MaterializeSink, StreamDecoder, STREAM_VERSION};
use crate::{Event, EventPayload, Trace, TraceError};

const MAGIC: &[u8; 8] = b"LIMBATRC";
/// Events per event chunk of the containers [`to_bytes`] and [`write()`]
/// produce.
const FRAME_EVENTS: usize = 4096;
/// Bytes before the region table: magic, version, processor and region
/// counts — the same in every version.
const PRELUDE: usize = 18;
/// Smallest possible encoding of one event (begin/end activity).
const MIN_EVENT_BYTES: usize = 8 + 4 + 1 + 1;
/// Largest processor count a decoded header may declare (4Mi — 40×
/// headroom over the 100k-rank simulation target). The count is a bare
/// scalar with no per-entry bytes behind it, yet downstream consumers
/// size per-processor tables from it (validation, the folds), which a
/// hostile 4-byte header could otherwise turn into a multi-GB
/// allocation.
pub(crate) const MAX_PROCESSORS: usize = 1 << 22;

fn malformed(detail: impl Into<String>) -> TraceError {
    TraceError::Malformed {
        detail: detail.into(),
    }
}

/// Incremental FNV-1a state: feed bytes in any chunking, the digest is
/// a pure function of the concatenated stream. The one-shot [`fnv1a`]
/// and the streaming codec ([`crate::stream`]) both fold through this,
/// so a checksum computed over a whole buffer and one computed
/// frame-by-frame agree by construction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn update(&mut self, data: &[u8]) {
        for &byte in data {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn digest(self) -> u64 {
        self.0
    }
}

/// FNV-1a over arbitrary bytes — same function as
/// `limba_core::snapshot::fnv1a`, duplicated here because this crate
/// sits below `limba-core` in the dependency graph.
fn fnv1a(data: &[u8]) -> u64 {
    let mut fnv = Fnv::new();
    fnv.update(data);
    fnv.digest()
}

/// Appends the wire encoding of one event to `buf` — the record layout
/// of every container version.
pub(crate) fn put_event(buf: &mut BytesMut, e: &Event) {
    buf.put_f64_le(e.time);
    buf.put_u32_le(e.proc);
    match e.payload {
        EventPayload::EnterRegion { region } => {
            buf.put_u8(0);
            buf.put_u32_le(region as u32);
        }
        EventPayload::LeaveRegion { region } => {
            buf.put_u8(1);
            buf.put_u32_le(region as u32);
        }
        EventPayload::BeginActivity { kind } => {
            buf.put_u8(2);
            buf.put_u8(kind.index() as u8);
        }
        EventPayload::EndActivity { kind } => {
            buf.put_u8(3);
            buf.put_u8(kind.index() as u8);
        }
        EventPayload::MessageSend { peer, bytes } => {
            buf.put_u8(4);
            buf.put_u32_le(peer);
            buf.put_u64_le(bytes);
        }
        EventPayload::MessageRecv { peer, bytes } => {
            buf.put_u8(5);
            buf.put_u32_le(peer);
            buf.put_u64_le(bytes);
        }
    }
}

/// Decodes one event record from the front of `buf` if a complete one
/// is present: `Ok(Some((event, consumed)))` on success, `Ok(None)`
/// when more bytes are needed (an incomplete record is not an error for
/// a stream — the rest may still arrive), and a named error for
/// structurally impossible bytes (unknown op code, bad activity index),
/// which no amount of further input can repair.
pub(crate) fn try_event(buf: &[u8]) -> Result<Option<(Event, usize)>, TraceError> {
    if buf.len() < 13 {
        return Ok(None);
    }
    let time = f64::from_le_bytes(buf[0..8].try_into().expect("8-byte time slice"));
    if !time.is_finite() {
        // No writer emits non-finite timestamps; downstream folds (the
        // online detector's window binning in particular) rely on this.
        return Err(malformed(format!("non-finite event timestamp {time}")));
    }
    let proc = u32::from_le_bytes(buf[8..12].try_into().expect("4-byte proc slice"));
    let op = buf[12];
    let rest = &buf[13..];
    let (payload, operand_len) = match op {
        0 | 1 => {
            if rest.len() < 4 {
                return Ok(None);
            }
            let region =
                u32::from_le_bytes(rest[..4].try_into().expect("4-byte region slice")) as usize;
            let payload = if op == 0 {
                EventPayload::EnterRegion { region }
            } else {
                EventPayload::LeaveRegion { region }
            };
            (payload, 4)
        }
        2 | 3 => {
            if rest.is_empty() {
                return Ok(None);
            }
            let idx = rest[0] as usize;
            let kind = ActivityKind::from_index(idx)
                .ok_or_else(|| malformed(format!("bad activity index {idx}")))?;
            let payload = if op == 2 {
                EventPayload::BeginActivity { kind }
            } else {
                EventPayload::EndActivity { kind }
            };
            (payload, 1)
        }
        4 | 5 => {
            if rest.len() < 12 {
                return Ok(None);
            }
            let peer = u32::from_le_bytes(rest[..4].try_into().expect("4-byte peer slice"));
            let bytes = u64::from_le_bytes(rest[4..12].try_into().expect("8-byte bytes slice"));
            let payload = if op == 4 {
                EventPayload::MessageSend { peer, bytes }
            } else {
                EventPayload::MessageRecv { peer, bytes }
            };
            (payload, 12)
        }
        other => return Err(malformed(format!("unknown op code {other}"))),
    };
    Ok(Some((
        Event {
            time,
            proc,
            payload,
        },
        13 + operand_len,
    )))
}

/// Encodes `trace` into a version-3 byte buffer (see the module docs).
/// A trace over the decoder's caps (processor count, region table)
/// still encodes, but no reader accepts the result.
pub fn to_bytes(trace: &Trace) -> Bytes {
    stream::encode(trace, FRAME_EVENTS)
}

/// Writes the binary encoding of `trace` to `writer`: exactly the bytes
/// of [`to_bytes`].
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write<W: Write>(trace: &Trace, mut writer: W) -> Result<(), TraceError> {
    writer.write_all(&to_bytes(trace))?;
    Ok(())
}

/// Decodes a trace from a byte slice in any container version (3, or
/// legacy 1–2): [`StreamDecoder`] parses the slice in place into a
/// [`MaterializeSink`] whose event vector is reserved once from the
/// declared count.
///
/// A damaged version 2–3 buffer fails with
/// [`TraceError::ChecksumMismatch`], exactly as if its checksum were
/// verified before any structure: a successful decode has verified the
/// checksum, and a failed one is re-examined against it. (Hashing while
/// parsing, rather than in a pass of its own first, hides the serial
/// checksum chain behind the parsing work.)
///
/// # Errors
///
/// Returns [`TraceError::ChecksumMismatch`] when a version-2 or -3
/// payload does not hash to its recorded checksum, a malformed-trace
/// error when the declared event count exceeds what the bytes can
/// hold, and otherwise the decoder's named errors (bad magic or
/// version, count caps, truncation, trailing bytes, invalid records).
/// The decoded trace is not validated.
pub fn from_bytes(buf: &[u8]) -> Result<Trace, TraceError> {
    let version = match buf.get(8..10) {
        Some(v) if buf.starts_with(MAGIC) => u16::from_le_bytes([v[0], v[1]]),
        _ => 0,
    };
    decode(buf, version).map_err(|e| checksum_failure(buf, version).unwrap_or(e))
}

fn decode(buf: &[u8], version: u16) -> Result<Trace, TraceError> {
    let mut sink = MaterializeSink::reserving(declared_events(buf, version)?);
    let mut decoder = StreamDecoder::new();
    decoder.feed(buf, &mut sink)?;
    decoder.finish(&mut sink)?;
    Ok(sink.into_trace().expect("a finished decode materializes"))
}

/// The checksum error of a version 2–3 buffer whose last 8 bytes are not
/// the FNV-1a of everything before them.
fn checksum_failure(buf: &[u8], version: u16) -> Option<TraceError> {
    if !(2..=STREAM_VERSION).contains(&version) || buf.len() < PRELUDE + 8 {
        return None;
    }
    let body = buf.len() - 8;
    let expected = u64::from_le_bytes(buf[body..].try_into().expect("8-byte checksum"));
    let actual = fnv1a(&buf[..body]);
    (expected != actual).then_some(TraceError::ChecksumMismatch { expected, actual })
}

/// The event count a whole buffer declares — the legacy header count,
/// or the version-3 end chunk's total — checked against what the bytes
/// after the region table can hold. `0` when the header is too damaged
/// to say; the decoder then names the damage.
fn declared_events(buf: &[u8], version: u16) -> Result<usize, TraceError> {
    let u32_at = |at: usize| {
        buf.get(at..at + 4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    };
    let u64_at = |at: usize| {
        buf.get(at..at + 8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    };
    // Every version lays the region table out alike after the prelude.
    let mut at = PRELUDE;
    for _ in 0..u32_at(14).unwrap_or(0) {
        match u32_at(at) {
            Some(len) => at += 4 + len as usize,
            None => return Ok(0),
        }
    }
    let (declared, room) = match version {
        1 | 2 => (
            u64_at(at),
            buf.len().saturating_sub(at + 8 * version as usize),
        ),
        STREAM_VERSION => match buf.len().checked_sub(at + 17) {
            Some(room) => (u64_at(buf.len() - 16), room),
            None => (None, 0),
        },
        _ => (None, 0),
    };
    let Some(declared) = declared else {
        return Ok(0);
    };
    if declared.saturating_mul(MIN_EVENT_BYTES as u64) > room as u64 {
        return Err(malformed(format!(
            "event count {declared} exceeds what {room} remaining bytes can hold"
        )));
    }
    Ok(declared as usize)
}

/// Reads a binary trace from `reader` (consumes to end of stream).
///
/// # Errors
///
/// Same conditions as [`from_bytes`], plus I/O failures.
pub fn read<R: Read>(mut reader: R) -> Result<Trace, TraceError> {
    let mut data = Vec::new();
    reader.read_to_end(&mut data)?;
    from_bytes(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceBuilder;

    /// A version-1 file (no checksum) written by the last build that
    /// wrote legacy containers; it encodes [`legacy_trace`].
    const V1: &[u8] = include_bytes!("../../../tests/golden/legacy_v1.limba");
    /// The version-2 file (trailing checksum) of the same trace.
    const V2: &[u8] = include_bytes!("../../../tests/golden/legacy_v2.limba");

    fn sample() -> Trace {
        let mut b = TraceBuilder::new(3);
        let r0 = b.add_region("solver");
        let r1 = b.add_region("exchange");
        b.push(Event::enter(0.0, 0, r0));
        b.push(Event::begin_activity(0.5, 0, ActivityKind::Synchronization));
        b.push(Event::end_activity(0.75, 0, ActivityKind::Synchronization));
        b.push(Event::leave(1.0, 0, r0));
        b.push(Event::enter(0.0, 2, r1));
        b.push(Event::message_send(0.25, 2, 1, u64::MAX));
        b.push(Event::message_recv(0.5, 2, 1, 0));
        b.push(Event::leave(1.0, 2, r1));
        b.build()
    }

    /// The trace the committed legacy fixtures encode: four ranks with
    /// skewed work, nested regions, every event kind, and ranks
    /// interleaved in recording order.
    fn legacy_trace() -> Trace {
        let mut b = TraceBuilder::new(4);
        let main = b.add_region("main");
        let solve = b.add_region("solve");
        let halo = b.add_region("halo exchange");
        let ranks: Vec<Vec<Event>> = (0..4u32)
            .map(|p| {
                let t = 1.0 + 0.25 * p as f64;
                vec![
                    Event::enter(0.0, p, main),
                    Event::enter(0.125, p, solve),
                    Event::leave(t, p, solve),
                    Event::enter(t, p, halo),
                    Event::message_send(t + 0.0625, p, (p + 1) % 4, 4096),
                    Event::begin_activity(t + 0.125, p, ActivityKind::PointToPoint),
                    Event::message_recv(t + 0.25, p, (p + 3) % 4, 4096),
                    Event::end_activity(t + 0.375, p, ActivityKind::PointToPoint),
                    Event::leave(t + 0.5, p, halo),
                    Event::begin_activity(t + 0.5, p, ActivityKind::Collective),
                    Event::end_activity(2.5, p, ActivityKind::Collective),
                    Event::leave(3.0, p, main),
                ]
            })
            .collect();
        for k in 0..ranks[0].len() {
            for rank in &ranks {
                b.push(rank[k]);
            }
        }
        b.build()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample();
        let bytes = to_bytes(&t);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn to_bytes_writes_version_3() {
        let bytes = to_bytes(&sample());
        assert_eq!(&bytes[8..10], &STREAM_VERSION.to_le_bytes());
    }

    /// Timestamps off the wire must be finite: NaN and ±inf are
    /// structurally invalid, not values for downstream folds to cope
    /// with.
    #[test]
    fn non_finite_timestamps_are_rejected() {
        for time in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut buf = BytesMut::with_capacity(24);
            put_event(
                &mut buf,
                &Event {
                    time,
                    proc: 0,
                    payload: EventPayload::EnterRegion { region: 0 },
                },
            );
            let err = try_event(buf.as_ref()).unwrap_err();
            assert!(err.to_string().contains("non-finite"), "{err}");
        }
    }

    #[test]
    fn read_write_through_io() {
        let t = sample();
        let mut buf = Vec::new();
        write(&t, &mut buf).unwrap();
        assert_eq!(buf, to_bytes(&t).to_vec());
        let back = read(buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let v3 = to_bytes(&sample());
        for bytes in [V1, V2, &v3[..]] {
            for cut in 0..bytes.len() {
                assert!(
                    from_bytes(&bytes[..cut]).is_err(),
                    "truncation at {cut} was accepted"
                );
            }
        }
    }

    #[test]
    fn bad_magic_version_op_are_rejected() {
        let mut bytes = to_bytes(&sample()).to_vec();
        bytes[0] = b'X';
        assert!(from_bytes(&bytes).is_err());

        let mut bytes = to_bytes(&sample()).to_vec();
        bytes[8] = 99; // version
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_bytes(&sample()).to_vec();
        bytes.push(0);
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn legacy_fixtures_still_decode() {
        assert_eq!(from_bytes(V2).unwrap(), legacy_trace());
        assert_eq!(&V1[8..10], &1u16.to_le_bytes());
        assert_eq!(from_bytes(V1).unwrap(), legacy_trace());
    }

    #[test]
    fn legacy_fixtures_decode_split_at_every_byte() {
        for bytes in [V1, V2] {
            for cut in 0..=bytes.len() {
                let mut sink = MaterializeSink::new();
                let mut decoder = StreamDecoder::new();
                decoder.feed(&bytes[..cut], &mut sink).unwrap();
                decoder.feed(&bytes[cut..], &mut sink).unwrap();
                decoder.finish(&mut sink).unwrap();
                assert_eq!(sink.into_trace().unwrap(), legacy_trace(), "split at {cut}");
            }
        }
    }

    #[test]
    fn corrupted_payload_is_a_checksum_mismatch() {
        let bytes = to_bytes(&sample()).to_vec();
        // Flip one bit in every payload byte (skip magic and version,
        // which fail earlier with their own errors): each flip must be
        // caught, and as a checksum error, not a lucky structural one.
        for i in 10..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            match from_bytes(&corrupt) {
                Err(TraceError::ChecksumMismatch { expected, actual }) => {
                    assert_ne!(expected, actual, "byte {i}")
                }
                other => panic!("flip at byte {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn version_1_bit_flips_are_detected_or_decode_structurally() {
        // Without a checksum the best v1 can do is structural rejection;
        // this locks in that no flip panics or over-allocates.
        for i in 0..V1.len() {
            let mut corrupt = V1.to_vec();
            corrupt[i] ^= 0x01;
            let _ = from_bytes(&corrupt);
        }
    }

    #[test]
    fn hostile_count_fields_are_rejected_without_allocation() {
        // Processor count claiming u32::MAX: unlike regions and events,
        // no per-entry bytes exist to bound it against, so only the
        // explicit cap stands between the header and the multi-GB
        // per-processor tables downstream consumers allocate from it.
        let mut v1 = V1.to_vec();
        v1[10..14].copy_from_slice(&u32::MAX.to_le_bytes());
        match from_bytes(&v1) {
            Err(TraceError::Malformed { detail }) => {
                assert!(detail.contains("processor count"), "{detail}")
            }
            other => panic!("{other:?}"),
        }

        // The cap boundary itself: exactly MAX_PROCESSORS decodes.
        let mut v1 = V1.to_vec();
        v1[10..14].copy_from_slice(&(MAX_PROCESSORS as u32).to_le_bytes());
        assert!(from_bytes(&v1).is_ok());

        // Region count claiming u32::MAX entries.
        let mut v1 = V1.to_vec();
        v1[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        match from_bytes(&v1) {
            Err(TraceError::Malformed { detail }) => {
                assert!(detail.contains("region count"), "{detail}")
            }
            other => panic!("{other:?}"),
        }

        // Event count claiming u64::MAX events.
        let mut v1 = V1.to_vec();
        let nevents_at = PRELUDE
            + legacy_trace()
                .region_names()
                .iter()
                .map(|name| 4 + name.len())
                .sum::<usize>();
        v1[nevents_at..nevents_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        match from_bytes(&v1) {
            Err(TraceError::Malformed { detail }) => {
                assert!(detail.contains("event count"), "{detail}")
            }
            other => panic!("{other:?}"),
        }

        // A region name length larger than the rest of the file.
        let mut v1 = V1.to_vec();
        v1[18..22].copy_from_slice(&u32::MAX.to_le_bytes());
        match from_bytes(&v1) {
            Err(TraceError::Malformed { detail }) => {
                assert!(detail.contains("region name"), "{detail}")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = TraceBuilder::new(1).build();
        assert_eq!(from_bytes(&to_bytes(&t)).unwrap(), t);
    }

    #[test]
    fn binary_is_smaller_than_text_for_large_traces() {
        let mut b = TraceBuilder::new(4);
        let r = b.add_region("r");
        for i in 0..1000 {
            b.push(Event::enter(i as f64, (i % 4) as u32, r));
            b.push(Event::leave(i as f64 + 0.5, (i % 4) as u32, r));
        }
        let t = b.build();
        let bin = to_bytes(&t).len();
        let txt = crate::text::to_string(&t).len();
        assert!(bin < txt, "binary {bin} >= text {txt}");
    }
}
