//! SSRP — the ShapeShifter Request Protocol: length-prefixed, CRC-guarded
//! framing for the codec service.
//!
//! One frame on the wire:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "SSRP"
//! 4       1     version (currently 1)
//! 5       1     kind: request op 0x01..=0x06, response op = request | 0x80
//! 6       8     request id, u64 LE (echoed verbatim in the response)
//! 14      4     body length, u32 LE
//! 18      n     body
//! 18+n    4     CRC-32 (LE) over bytes [0, 18+n)
//! ```
//!
//! Every field is validated before use, in order, and every violation is
//! a dedicated [`ProtocolError`] variant — a frame is either parsed
//! exactly or refused with a typed reason, never partially trusted. The
//! trailing CRC covers header *and* body, so any single-bit corruption
//! anywhere in the frame (including the op byte — the mis-dispatch case)
//! is caught before dispatch; the protocol fuzz suite proves this
//! exhaustively. The body length is bounded by the caller-supplied
//! `max_body` *before* any allocation, so hostile length metadata cannot
//! balloon memory (the PR 5 decode-OOM lesson applied at the wire).
//!
//! Both directions avoid copying bodies. [`FrameWriter`] folds the CRC
//! over header, status byte and payload where they already sit and hands
//! all of them to the socket in one vectored write, so a response body is
//! never assembled into an intermediate buffer and no small trailing
//! write is left for Nagle's algorithm to hold back. On the read side the
//! header, the body and the CRC trailer are read in separate steps, so a
//! reader chooses where body bytes land: the client reads a response's
//! status byte on its own and its payload straight into the payload
//! buffer.

// ss-lint: allow-file(panic-freedom) -- every slice index below is
// preceded by an explicit length check (`bytes.len() < HEADER_LEN` /
// `< total`) or reads a fixed-size array filled by `read_exact`; the
// protocol fuzz suite proves every truncation at every byte is a typed
// refusal, never a panic.

use std::io::{IoSlice, Read, Write};

use ss_bitio::Crc32;

/// Frame magic, `b"SSRP"`.
pub const MAGIC: [u8; 4] = *b"SSRP";

/// Protocol version this implementation speaks.
pub const VERSION: u8 = 1;

/// Fixed header length (magic + version + kind + id + body length).
pub const HEADER_LEN: usize = 18;

/// Trailing CRC-32 length.
pub const TRAILER_LEN: usize = 4;

/// Bit set on the kind byte of every response frame.
pub const RESPONSE_BIT: u8 = 0x80;

/// Default cap on request/response body length (64 MiB) — generous for
/// tensor payloads, small enough that a hostile length field cannot
/// exhaust memory.
pub const DEFAULT_MAX_BODY: usize = 64 << 20;

/// The service's operations. Byte values are the wire encoding and are
/// frozen: appending is fine, renumbering is a protocol break.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Tensor in (wire format), SSPK container out.
    Encode,
    /// SSPK container in, tensor out (wire format).
    Decode,
    /// `(model, record)` name pair in, tensor out from the shard store.
    Get,
    /// Counter/latency snapshot out (JSON body).
    Stats,
    /// Liveness + drain state out (JSON body).
    Health,
    /// Begin graceful drain: stop admitting, flush in-flight work.
    Drain,
}

impl Op {
    /// Every operation, in wire-byte order.
    pub const ALL: &'static [Op] = &[
        Op::Encode,
        Op::Decode,
        Op::Get,
        Op::Stats,
        Op::Health,
        Op::Drain,
    ];

    /// The wire byte for a *request* frame of this op.
    #[must_use]
    pub fn to_byte(self) -> u8 {
        match self {
            Op::Encode => 0x01,
            Op::Decode => 0x02,
            Op::Get => 0x03,
            Op::Stats => 0x04,
            Op::Health => 0x05,
            Op::Drain => 0x06,
        }
    }

    /// Parses a *request* wire byte.
    #[must_use]
    pub fn from_byte(byte: u8) -> Option<Op> {
        match byte {
            0x01 => Some(Op::Encode),
            0x02 => Some(Op::Decode),
            0x03 => Some(Op::Get),
            0x04 => Some(Op::Stats),
            0x05 => Some(Op::Health),
            0x06 => Some(Op::Drain),
            _ => None,
        }
    }

    /// Stable lowercase name (stats JSON keys, log lines).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Op::Encode => "encode",
            Op::Decode => "decode",
            Op::Get => "get",
            Op::Stats => "stats",
            Op::Health => "health",
            Op::Drain => "drain",
        }
    }
}

/// Whether a frame carries a request or a response, and for which op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Client → server.
    Request(Op),
    /// Server → client, echoing the request's op.
    Response(Op),
}

impl Kind {
    /// The wire byte.
    #[must_use]
    pub fn to_byte(self) -> u8 {
        match self {
            Kind::Request(op) => op.to_byte(),
            Kind::Response(op) => op.to_byte() | RESPONSE_BIT,
        }
    }

    /// Parses the kind byte; `None` for any byte that is not exactly a
    /// known request or response op (so a corrupted op can only be
    /// refused, never dispatched as a different op — and the CRC catches
    /// it first anyway).
    #[must_use]
    pub fn from_byte(byte: u8) -> Option<Kind> {
        if byte & RESPONSE_BIT == 0 {
            Op::from_byte(byte).map(Kind::Request)
        } else {
            Op::from_byte(byte & !RESPONSE_BIT).map(Kind::Response)
        }
    }

    /// The op this frame is about, request or response.
    #[must_use]
    pub fn op(self) -> Op {
        match self {
            Kind::Request(op) | Kind::Response(op) => op,
        }
    }
}

/// Response status, the first body byte of every response frame. `Ok`
/// responses carry the result in the remaining body; error responses
/// carry a UTF-8 message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Success; result follows.
    Ok,
    /// Refused at admission: the submission queue is at capacity.
    Overloaded,
    /// Refused at admission: the service is draining toward shutdown.
    Draining,
    /// The request body failed validation.
    BadRequest,
    /// The codec rejected the payload (corrupt container, bad config).
    CodecFailure,
    /// The shard store rejected the lookup (corrupt shard, IO failure).
    StoreFailure,
    /// The named model or record does not exist.
    NotFound,
    /// The service lost the request internally (worker died).
    Internal,
}

impl Status {
    /// The wire byte.
    #[must_use]
    pub fn to_byte(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Overloaded => 1,
            Status::Draining => 2,
            Status::BadRequest => 3,
            Status::CodecFailure => 4,
            Status::StoreFailure => 5,
            Status::NotFound => 6,
            Status::Internal => 7,
        }
    }

    /// Parses the wire byte.
    #[must_use]
    pub fn from_byte(byte: u8) -> Option<Status> {
        match byte {
            0 => Some(Status::Ok),
            1 => Some(Status::Overloaded),
            2 => Some(Status::Draining),
            3 => Some(Status::BadRequest),
            4 => Some(Status::CodecFailure),
            5 => Some(Status::StoreFailure),
            6 => Some(Status::NotFound),
            7 => Some(Status::Internal),
            _ => None,
        }
    }
}

/// A parsed SSRP frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Request or response, and for which op.
    pub kind: Kind,
    /// Client-chosen request id; responses echo it verbatim.
    pub request_id: u64,
    /// The op payload (for responses: status byte + payload).
    pub body: Vec<u8>,
}

/// Typed framing failures. Every malformed input maps to exactly one
/// variant; none of the parse paths can panic.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Fewer bytes than a complete frame; `needed` is the next complete
    /// length the parser can make progress with.
    Truncated {
        /// Bytes required for the parser to make progress.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The first four bytes were not `b"SSRP"`.
    BadMagic([u8; 4]),
    /// A version this implementation does not speak.
    UnsupportedVersion(u8),
    /// A kind byte that is no known request or response op.
    UnknownOp(u8),
    /// The declared body length exceeds the configured cap.
    BodyTooLarge {
        /// Declared body length.
        len: u64,
        /// The enforced cap.
        max: usize,
    },
    /// The trailing CRC-32 does not match header + body.
    CrcMismatch {
        /// CRC carried by the frame.
        stored: u32,
        /// CRC recomputed over the received bytes.
        computed: u32,
    },
    /// An IO failure while reading or writing a frame.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Truncated { needed, have } => {
                write!(f, "truncated frame: need {needed} bytes, have {have}")
            }
            ProtocolError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            ProtocolError::UnsupportedVersion(v) => write!(f, "unsupported SSRP version {v}"),
            ProtocolError::UnknownOp(b) => write!(f, "unknown op byte {b:#04x}"),
            ProtocolError::BodyTooLarge { len, max } => {
                write!(f, "declared body length {len} exceeds cap {max}")
            }
            ProtocolError::CrcMismatch { stored, computed } => {
                write!(f, "frame CRC mismatch: stored {stored:08x}, computed {computed:08x}")
            }
            ProtocolError::Io(kind) => write!(f, "frame IO failure: {kind:?}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e.kind())
    }
}

impl Frame {
    /// A request frame.
    #[must_use]
    pub fn request(op: Op, request_id: u64, body: Vec<u8>) -> Frame {
        Frame {
            kind: Kind::Request(op),
            request_id,
            body,
        }
    }

    /// A response frame for `op`, echoing `request_id`, with the status
    /// byte prepended to `payload`.
    #[must_use]
    pub fn response(op: Op, request_id: u64, status: Status, payload: &[u8]) -> Frame {
        let mut body = Vec::with_capacity(1 + payload.len());
        body.push(status.to_byte());
        body.extend_from_slice(payload);
        Frame {
            kind: Kind::Response(op),
            request_id,
            body,
        }
    }

    /// Serializes the frame (header + body + CRC trailer).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        self.writer().to_vec()
    }

    /// Parses one frame from the front of `bytes`, returning it plus the
    /// number of bytes consumed.
    ///
    /// # Errors
    ///
    /// Any [`ProtocolError`]; [`ProtocolError::Truncated`] when `bytes`
    /// is a proper prefix of a frame.
    pub fn decode(bytes: &[u8], max_body: usize) -> Result<(Frame, usize), ProtocolError> {
        let Some(header) = bytes.first_chunk::<HEADER_LEN>() else {
            return Err(ProtocolError::Truncated {
                needed: HEADER_LEN,
                have: bytes.len(),
            });
        };
        let head = FrameHead::parse(header, max_body)?;
        let total = HEADER_LEN + head.body_len + TRAILER_LEN;
        if bytes.len() < total {
            return Err(ProtocolError::Truncated {
                needed: total,
                have: bytes.len(),
            });
        }
        let body = &bytes[HEADER_LEN..HEADER_LEN + head.body_len];
        let mut crc = head.crc;
        crc.update(body);
        let mut stored = [0u8; TRAILER_LEN];
        stored.copy_from_slice(&bytes[total - TRAILER_LEN..total]);
        check_crc(u32::from_le_bytes(stored), crc.finish())?;
        Ok((
            Frame {
                kind: head.kind,
                request_id: head.request_id,
                body: body.to_vec(),
            },
            total,
        ))
    }

    /// Reads exactly one frame from `r`.
    ///
    /// The header is read and validated *before* the body is allocated,
    /// so a hostile length field is refused without touching memory.
    ///
    /// # Errors
    ///
    /// Any [`ProtocolError`]; an EOF mid-frame surfaces as
    /// [`ProtocolError::Io`] with [`std::io::ErrorKind::UnexpectedEof`].
    pub fn read_from(r: &mut dyn Read, max_body: usize) -> Result<Frame, ProtocolError> {
        let mut head = read_head(r, max_body)?;
        let mut body = Vec::new();
        read_body(r, head.body_len, &mut head.crc, &mut body)?;
        read_trailer(r, head.crc)?;
        Ok(Frame {
            kind: head.kind,
            request_id: head.request_id,
            body,
        })
    }

    /// Writes the frame to `w` in one vectored write and flushes.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Io`] on any write failure.
    pub fn write_to(&self, w: &mut dyn Write) -> Result<(), ProtocolError> {
        self.writer().write_to(w)?;
        w.flush()?;
        Ok(())
    }

    /// A [`FrameWriter`] over this frame's body, borrowed in place.
    fn writer(&self) -> FrameWriter<'_> {
        FrameWriter::new(self.kind, self.request_id, None, &self.body)
    }
}

/// One frame's wire bytes, held as borrowed parts: the header and the
/// CRC trailer in small arrays, an optional status byte, and the payload
/// slice where it already sits. The single frame writer behind server
/// responses, client requests and [`Frame::encode`]; its bytes equal
/// [`Frame::encode`] of the same frame.
#[derive(Debug, Clone, Copy)]
pub struct FrameWriter<'a> {
    header: [u8; HEADER_LEN],
    status: Option<u8>,
    payload: &'a [u8],
    trailer: [u8; TRAILER_LEN],
}

impl<'a> FrameWriter<'a> {
    /// A request frame carrying `body`.
    #[must_use]
    pub fn request(op: Op, request_id: u64, body: &'a [u8]) -> Self {
        Self::new(Kind::Request(op), request_id, None, body)
    }

    /// A response frame whose body is the status byte then `payload` —
    /// the bytes of [`Frame::response`] without building its body.
    #[must_use]
    pub fn response(op: Op, request_id: u64, status: Status, payload: &'a [u8]) -> Self {
        Self::new(Kind::Response(op), request_id, Some(status.to_byte()), payload)
    }

    fn new(kind: Kind, request_id: u64, status: Option<u8>, payload: &'a [u8]) -> Self {
        let body_len = usize::from(status.is_some()) + payload.len();
        let mut header = [0u8; HEADER_LEN];
        header[0..4].copy_from_slice(&MAGIC);
        header[4] = VERSION;
        header[5] = kind.to_byte();
        header[6..14].copy_from_slice(&request_id.to_le_bytes());
        // Body length fits u32 by construction: frames are only written
        // for bodies the service built or admitted under max_body, which
        // is itself bounded well below u32::MAX.
        // ss-lint: allow(truncating-cast) -- bodies are bounded by max_body, far below u32::MAX
        header[14..18].copy_from_slice(&(body_len as u32).to_le_bytes());
        let mut crc = Crc32::new();
        crc.update(&header);
        if let Some(byte) = status {
            crc.update(&[byte]);
        }
        crc.update(payload);
        Self {
            header,
            status,
            payload,
            trailer: crc.finish().to_le_bytes(),
        }
    }

    /// Total frame length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        HEADER_LEN + usize::from(self.status.is_some()) + self.payload.len() + TRAILER_LEN
    }

    /// Always `false`: a frame carries at least its header and trailer.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The frame as one owned buffer (a single copy of the payload).
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        out.extend_from_slice(&self.header);
        out.extend(self.status);
        out.extend_from_slice(self.payload);
        out.extend_from_slice(&self.trailer);
        out
    }

    /// Writes the frame with vectored writes, all parts at once, until
    /// every byte is out. Does not flush.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Io`] on any write failure, including a writer
    /// that accepts zero bytes.
    pub fn write_to(&self, w: &mut dyn Write) -> Result<(), ProtocolError> {
        let status = self.status.as_slice();
        let mut parts = [
            IoSlice::new(&self.header),
            IoSlice::new(status),
            IoSlice::new(self.payload),
            IoSlice::new(&self.trailer),
        ];
        let mut pending: &mut [IoSlice<'_>] = &mut parts;
        while !pending.is_empty() {
            match w.write_vectored(pending) {
                Ok(0) => return Err(ProtocolError::Io(std::io::ErrorKind::WriteZero)),
                Ok(n) => IoSlice::advance_slices(&mut pending, n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }
}

/// A validated frame header, with the CRC already folded over it.
#[derive(Debug, Clone)]
pub(crate) struct FrameHead {
    /// Request or response, and for which op.
    pub(crate) kind: Kind,
    /// The frame's request id.
    pub(crate) request_id: u64,
    /// Declared body length, already bounded by the reader's `max_body`.
    pub(crate) body_len: usize,
    /// CRC-32 state over the header bytes; fold the body in with
    /// [`read_body`], then check it with [`read_trailer`].
    pub(crate) crc: Crc32,
}

impl FrameHead {
    /// Validates the header fields in offset order.
    fn parse(header: &[u8; HEADER_LEN], max_body: usize) -> Result<Self, ProtocolError> {
        if header[0..4] != MAGIC {
            let mut m = [0u8; 4];
            m.copy_from_slice(&header[0..4]);
            return Err(ProtocolError::BadMagic(m));
        }
        if header[4] != VERSION {
            return Err(ProtocolError::UnsupportedVersion(header[4]));
        }
        // The kind byte is checked here for a fast refusal, and the CRC
        // still covers it — a byte corrupted *into* another valid op
        // cannot sneak past.
        let kind = Kind::from_byte(header[5]).ok_or(ProtocolError::UnknownOp(header[5]))?;
        let mut id = [0u8; 8];
        id.copy_from_slice(&header[6..14]);
        let request_id = u64::from_le_bytes(id);
        let mut len = [0u8; 4];
        len.copy_from_slice(&header[14..18]);
        let body_len = u32::from_le_bytes(len) as usize;
        if body_len > max_body {
            return Err(ProtocolError::BodyTooLarge {
                len: body_len as u64,
                max: max_body,
            });
        }
        let mut crc = Crc32::new();
        crc.update(header);
        Ok(FrameHead {
            kind,
            request_id,
            body_len,
            crc,
        })
    }
}

/// Reads and validates one frame header from `r`. The body is not
/// touched: read it with [`read_body`] (in as many pieces as the caller
/// wants), then [`read_trailer`].
///
/// # Errors
///
/// [`ProtocolError::Io`] if the header is cut short; otherwise the
/// header's first invalid field, as [`Frame::read_from`] reports it.
pub(crate) fn read_head(r: &mut dyn Read, max_body: usize) -> Result<FrameHead, ProtocolError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    FrameHead::parse(&header, max_body)
}

/// Appends exactly `len` body bytes from `r` to `out` and folds them
/// into `crc`. The bytes are read straight into `out`'s spare capacity,
/// which is reserved once and never zero-filled first.
///
/// # Errors
///
/// [`ProtocolError::Io`] with [`std::io::ErrorKind::UnexpectedEof`] if
/// `r` ends first, or on any read failure.
pub(crate) fn read_body(
    r: &mut dyn Read,
    len: usize,
    crc: &mut Crc32,
    out: &mut Vec<u8>,
) -> Result<(), ProtocolError> {
    let start = out.len();
    out.reserve_exact(len);
    let got = r.take(len as u64).read_to_end(out)?;
    if got != len {
        return Err(ProtocolError::Io(std::io::ErrorKind::UnexpectedEof));
    }
    crc.update(out.get(start..).unwrap_or_default());
    Ok(())
}

/// Reads the CRC-32 trailer from `r` and checks it against `crc`, the
/// state folded over the header and the whole body.
///
/// # Errors
///
/// [`ProtocolError::Io`] if the trailer is cut short,
/// [`ProtocolError::CrcMismatch`] if it disagrees.
pub(crate) fn read_trailer(r: &mut dyn Read, crc: Crc32) -> Result<(), ProtocolError> {
    let mut stored = [0u8; TRAILER_LEN];
    r.read_exact(&mut stored)?;
    check_crc(u32::from_le_bytes(stored), crc.finish())
}

fn check_crc(stored: u32, computed: u32) -> Result<(), ProtocolError> {
    if stored == computed {
        Ok(())
    } else {
        Err(ProtocolError::CrcMismatch { stored, computed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_every_op_both_kinds() {
        for &op in Op::ALL {
            for frame in [
                Frame::request(op, 0xDEAD_BEEF_0042, vec![1, 2, 3]),
                Frame::response(op, 7, Status::Ok, &[9, 8]),
                Frame::response(op, u64::MAX, Status::Overloaded, b"queue full"),
            ] {
                let bytes = frame.encode();
                let (back, used) = Frame::decode(&bytes, DEFAULT_MAX_BODY).expect("round trip");
                assert_eq!(back, frame);
                assert_eq!(used, bytes.len());
                let mut cursor = std::io::Cursor::new(bytes);
                let back = Frame::read_from(&mut cursor, DEFAULT_MAX_BODY).expect("stream");
                assert_eq!(back, frame);
            }
        }
    }

    #[test]
    fn kind_bytes_are_involutive_and_unknown_bytes_refuse() {
        for &op in Op::ALL {
            for kind in [Kind::Request(op), Kind::Response(op)] {
                assert_eq!(Kind::from_byte(kind.to_byte()), Some(kind));
                assert_eq!(kind.op(), op);
            }
        }
        assert_eq!(Kind::from_byte(0x00), None);
        assert_eq!(Kind::from_byte(0x80), None);
        assert_eq!(Kind::from_byte(0x7F), None);
        assert_eq!(Kind::from_byte(0xFF), None);
    }

    #[test]
    fn status_bytes_round_trip() {
        for b in 0u8..=7 {
            let s = Status::from_byte(b).expect("known status");
            assert_eq!(s.to_byte(), b);
        }
        assert_eq!(Status::from_byte(8), None);
        assert_eq!(Status::from_byte(255), None);
    }

    #[test]
    fn hostile_length_is_refused_before_allocation() {
        let mut bytes = Frame::request(Op::Encode, 1, vec![0; 8]).encode();
        // Declare a 4 GiB body.
        bytes[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        match Frame::decode(&bytes, DEFAULT_MAX_BODY) {
            Err(ProtocolError::BodyTooLarge { len, max }) => {
                assert_eq!(len, u64::from(u32::MAX));
                assert_eq!(max, DEFAULT_MAX_BODY);
            }
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            Frame::read_from(&mut cursor, DEFAULT_MAX_BODY),
            Err(ProtocolError::BodyTooLarge { .. })
        ));
    }

    #[test]
    fn bad_magic_version_and_op_are_typed() {
        let good = Frame::request(Op::Stats, 3, Vec::new()).encode();
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            Frame::decode(&bad, DEFAULT_MAX_BODY),
            Err(ProtocolError::BadMagic(_))
        ));
        let mut bad = good.clone();
        bad[4] = 9;
        assert!(matches!(
            Frame::decode(&bad, DEFAULT_MAX_BODY),
            Err(ProtocolError::UnsupportedVersion(9))
        ));
        let mut bad = good;
        bad[5] = 0x55;
        assert!(matches!(
            Frame::decode(&bad, DEFAULT_MAX_BODY),
            Err(ProtocolError::UnknownOp(0x55))
        ));
    }

    #[test]
    fn short_input_reports_needed_bytes() {
        let bytes = Frame::request(Op::Get, 12, vec![7; 20]).encode();
        match Frame::decode(&bytes[..5], DEFAULT_MAX_BODY) {
            Err(ProtocolError::Truncated { needed, have }) => {
                assert_eq!(needed, HEADER_LEN);
                assert_eq!(have, 5);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        match Frame::decode(&bytes[..bytes.len() - 1], DEFAULT_MAX_BODY) {
            Err(ProtocolError::Truncated { needed, have }) => {
                assert_eq!(needed, bytes.len());
                assert_eq!(have, bytes.len() - 1);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    /// Accepts at most `step` bytes per write call, so a vectored write
    /// has to resume part-way through a part.
    struct Trickle {
        out: Vec<u8>,
        step: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.step);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_writer_bytes_equal_frame_encode() {
        for len in [0usize, 1, 17, 1 << 20] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 7 % 251) as u8).collect();
            for &op in Op::ALL {
                let cases = [
                    (
                        FrameWriter::request(op, 0x0102_0304_0506_0708, &payload),
                        Frame::request(op, 0x0102_0304_0506_0708, payload.clone()).encode(),
                    ),
                    (
                        FrameWriter::response(op, 9, Status::Ok, &payload),
                        Frame::response(op, 9, Status::Ok, &payload).encode(),
                    ),
                    (
                        FrameWriter::response(op, u64::MAX, Status::NotFound, &payload),
                        Frame::response(op, u64::MAX, Status::NotFound, &payload).encode(),
                    ),
                ];
                for (writer, want) in cases {
                    assert_eq!(writer.len(), want.len(), "length at payload {len}");
                    assert!(writer.to_vec() == want, "to_vec at payload {len}");
                    let mut sink = Vec::new();
                    writer.write_to(&mut sink).expect("write to a Vec");
                    assert!(sink == want, "vectored write at payload {len}");
                    if len <= 17 {
                        let mut trickle = Trickle {
                            out: Vec::new(),
                            step: 3,
                        };
                        writer.write_to(&mut trickle).expect("write in pieces");
                        assert_eq!(trickle.out, want, "piecewise write at payload {len}");
                    }
                }
            }
        }
    }

    #[test]
    fn frame_writer_refuses_a_writer_that_takes_nothing() {
        struct Stuck;
        impl Write for Stuck {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = FrameWriter::request(Op::Get, 1, b"x").write_to(&mut Stuck);
        assert_eq!(err, Err(ProtocolError::Io(std::io::ErrorKind::WriteZero)));
    }

    #[test]
    fn split_reads_fold_the_same_crc_as_whole_frames() {
        let bytes = Frame::response(Op::Get, 5, Status::Ok, b"payload").encode();
        let mut r: &[u8] = &bytes;
        let mut head = read_head(&mut r, DEFAULT_MAX_BODY).expect("head");
        assert_eq!((head.kind, head.request_id, head.body_len), (Kind::Response(Op::Get), 5, 8));
        let mut body = Vec::new();
        read_body(&mut r, 3, &mut head.crc, &mut body).expect("first piece");
        read_body(&mut r, 5, &mut head.crc, &mut body).expect("second piece");
        assert_eq!(body, b"\0payload");
        read_trailer(&mut r, head.crc).expect("crc");
        assert!(r.is_empty());
        // A body cut short is an EOF, not a short buffer.
        let mut r: &[u8] = &bytes[..HEADER_LEN + 4];
        let mut head = read_head(&mut r, DEFAULT_MAX_BODY).expect("head");
        let mut body = Vec::new();
        assert_eq!(
            read_body(&mut r, head.body_len, &mut head.crc, &mut body),
            Err(ProtocolError::Io(std::io::ErrorKind::UnexpectedEof))
        );
    }

    /// Lowercase hex, two digits per byte.
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn wire_bytes_are_pinned() {
        // Exact SSRP bytes, CRC trailer included. Every other test here
        // round-trips, which a change to a field or to the checksum
        // would pass; these constants do not move unless the wire does.
        const REQUEST: &str = concat!(
            "53535250", // magic
            "01", // version
            "03", // kind: get request
            "efcdab8967452301", // request id
            "28000000", // body length 40
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f2021222324252627",
            "ff045691", // CRC-32
        );
        const RESPONSE: &str = concat!(
            "53535250", // magic
            "01", // version
            "83", // kind: get response
            "efcdab8967452301", // request id
            "2c000000", // body length 44
            "00", // status ok
            "535352502070696e732069747320776972652062797465732c20747261696c657220696e636c756465642e",
            "7907e191", // CRC-32
        );
        let request = Frame::request(Op::Get, 0x0123_4567_89AB_CDEF, (0u8..40).collect());
        assert_eq!(hex(&request.encode()), REQUEST);
        let response = Frame::response(
            Op::Get,
            0x0123_4567_89AB_CDEF,
            Status::Ok,
            b"SSRP pins its wire bytes, trailer included.",
        );
        assert_eq!(hex(&response.encode()), RESPONSE);
    }
}
