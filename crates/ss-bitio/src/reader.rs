use crate::{BitIoError, MAX_FIELD_BITS, WINDOW_BITS};

/// Sequentially consumes variable-width bit fields from a byte slice.
///
/// The reader mirrors [`crate::BitWriter`]'s LSB-first packing and models the
/// paper's sequential decompressor contract: "starting from the beginning of
/// an activation or weight array, the decompressor reads the first … bits
/// containing the metadata for the first group … upon finishing with the
/// current group, the decoder has arrived at the header for the next group"
/// (paper §3). Random access is supported only at explicitly recorded
/// positions via [`BitReader::seek`], matching the access-handle table the
/// paper describes for tiled dataflows.
///
/// # Examples
///
/// ```
/// use ss_bitio::{BitReader, BitWriter};
///
/// # fn main() -> Result<(), ss_bitio::BitIoError> {
/// let mut w = BitWriter::new();
/// w.write_bits(0xAB, 8)?;
/// w.write_bits(0x5, 3)?;
/// let bytes = w.into_bytes();
///
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.read_bits(8)?, 0xAB);
/// assert_eq!(r.read_bits(3)?, 0x5);
/// assert_eq!(r.remaining_bits(), 5); // final-byte padding
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next bit to read, as an absolute bit index.
    pos: u64,
    /// First readable bit (0 except for range-limited readers).
    start: u64,
    /// Total readable bits (defaults to `bytes.len() * 8`); a
    /// range-limited reader's exclusive upper bound.
    bit_len: u64,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over all bits of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            start: 0,
            bit_len: bytes.len() as u64 * 8,
        }
    }

    /// Creates a reader over only the first `bit_len` bits of `bytes`.
    ///
    /// Useful when the stream's logical length (in bits) is known from
    /// container metadata and the final byte carries padding.
    ///
    /// # Panics
    ///
    /// Panics if `bit_len` exceeds `bytes.len() * 8`.
    #[must_use]
    pub fn with_bit_len(bytes: &'a [u8], bit_len: u64) -> Self {
        assert!(
            bit_len <= bytes.len() as u64 * 8,
            "bit_len {} exceeds buffer capacity {}",
            bit_len,
            bytes.len() as u64 * 8
        );
        Self {
            bytes,
            pos: 0,
            start: 0,
            bit_len,
        }
    }

    /// Creates a reader confined to the bit range `start..end` of `bytes`.
    ///
    /// The reader starts positioned at `start` and refuses to read or seek
    /// outside the range — this is the primitive behind indexed parallel
    /// decode, where each worker resumes at a recorded chunk offset and a
    /// corrupt chunk must not be able to consume its neighbour's bits.
    /// [`BitReader::position`] stays an *absolute* offset into `bytes`, so
    /// recorded positions remain comparable across readers.
    ///
    /// # Errors
    ///
    /// [`BitIoError::InvalidRange`] if `start > end` or `end` exceeds
    /// `bytes.len() * 8`.
    pub fn with_bit_range(bytes: &'a [u8], start: u64, end: u64) -> Result<Self, BitIoError> {
        let capacity = bytes.len() as u64 * 8;
        if start > end || end > capacity {
            return Err(BitIoError::InvalidRange {
                start,
                end,
                len: capacity,
            });
        }
        Ok(Self {
            bytes,
            pos: start,
            start,
            bit_len: end,
        })
    }

    /// Rewinds the reader to the first bit of its range (bit 0, or the
    /// `start` of a range-limited reader).
    ///
    /// The reuse hook matching [`crate::BitWriter::clear`]: a session that
    /// parses the same buffer more than once (retry after a recoverable
    /// framing error, double-decode verification) rewinds instead of
    /// constructing a fresh reader.
    pub fn reset(&mut self) {
        self.pos = self.start;
    }

    /// Current absolute bit position (bits consumed so far).
    #[must_use]
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// First readable bit of this reader's range (0 unless constructed via
    /// [`BitReader::with_bit_range`]).
    #[must_use]
    pub fn range_start(&self) -> u64 {
        self.start
    }

    /// Bits consumed since the start of this reader's range.
    #[must_use]
    pub fn consumed_bits(&self) -> u64 {
        self.pos - self.start
    }

    /// Total length of the stream in bits.
    #[must_use]
    pub fn bit_len(&self) -> u64 {
        self.bit_len
    }

    /// Bits left to read.
    #[must_use]
    pub fn remaining_bits(&self) -> u64 {
        self.bit_len - self.pos
    }

    /// `true` once every bit has been consumed.
    #[must_use]
    pub fn is_at_end(&self) -> bool {
        self.pos == self.bit_len
    }

    /// Repositions the reader at an absolute bit offset.
    ///
    /// This models the paper's per-container "access handles": dataflows
    /// record the starting bit of each compressed block and resume sequential
    /// decoding there.
    ///
    /// # Errors
    ///
    /// [`BitIoError::SeekOutOfBounds`] if `position > self.bit_len()` or,
    /// for a range-limited reader, before the start of its range.
    pub fn seek(&mut self, position: u64) -> Result<(), BitIoError> {
        if position > self.bit_len || position < self.start {
            return Err(BitIoError::SeekOutOfBounds {
                position,
                len: self.bit_len,
            });
        }
        self.pos = position;
        Ok(())
    }

    /// Reads the next `bits` bits as an unsigned value (LSB-first).
    ///
    /// A zero-width read returns `0` without consuming anything. Widths up
    /// to [`WINDOW_BITS`] are one unaligned 64-bit window load, a shift and
    /// a mask; only wider reads walk the stream a byte at a time.
    ///
    /// # Errors
    ///
    /// * [`BitIoError::FieldTooWide`] if `bits > 64`.
    /// * [`BitIoError::UnexpectedEnd`] if fewer than `bits` bits remain.
    pub fn read_bits(&mut self, bits: u32) -> Result<u64, BitIoError> {
        if bits > MAX_FIELD_BITS {
            return Err(BitIoError::FieldTooWide { bits });
        }
        if u64::from(bits) > self.remaining_bits() {
            return Err(BitIoError::UnexpectedEnd {
                requested: bits,
                available: self.remaining_bits(),
            });
        }
        if bits <= WINDOW_BITS {
            let value = self.window(bits);
            self.pos += u64::from(bits);
            return Ok(value);
        }
        let mut out: u64 = 0;
        let mut got: u32 = 0;
        // Advance a local cursor and commit at the end, so no failure path
        // can leave the reader partially advanced.
        let mut pos = self.pos;
        while got < bits {
            let byte_idx = (pos / 8) as usize;
            let bit_off = (pos % 8) as u32;
            let take = (bits - got).min(8 - bit_off);
            // `take` is in 1..=8, so the shift stays in range for u8.
            let mask = 0xFFu8 >> (8 - take);
            let Some(&byte) = self.bytes.get(byte_idx) else {
                // Unreachable: the remaining_bits guard bounds `pos` by
                // `bit_len <= bytes.len() * 8`. Kept as a typed error so a
                // future bug cannot turn into an out-of-bounds panic.
                return Err(BitIoError::UnexpectedEnd {
                    requested: bits,
                    available: self.remaining_bits(),
                });
            };
            let chunk = (byte >> bit_off) & mask;
            out |= u64::from(chunk) << got;
            got += take;
            pos += u64::from(take);
        }
        self.pos = pos;
        Ok(out)
    }

    /// Returns the next `bits` bits (LSB-first) without consuming them:
    /// one unaligned window load. Pair with [`BitReader::advance`] to
    /// consume what a caller decoded out of the window — the decoder reads
    /// a whole group header (`Z` bit-vector and `P` prefix) this way.
    ///
    /// # Errors
    ///
    /// * [`BitIoError::FieldTooWide`] if `bits > WINDOW_BITS`.
    /// * [`BitIoError::UnexpectedEnd`] if fewer than `bits` bits remain,
    ///   with the same values [`BitReader::read_bits`] would report.
    pub fn peek_bits(&self, bits: u32) -> Result<u64, BitIoError> {
        if bits > WINDOW_BITS {
            return Err(BitIoError::FieldTooWide { bits });
        }
        if u64::from(bits) > self.remaining_bits() {
            return Err(BitIoError::UnexpectedEnd {
                requested: bits,
                available: self.remaining_bits(),
            });
        }
        Ok(self.window(bits))
    }

    /// Consumes `bits` bits, typically ones a [`BitReader::peek_bits`]
    /// has already returned.
    ///
    /// # Errors
    ///
    /// [`BitIoError::UnexpectedEnd`] if fewer than `bits` bits remain; the
    /// position is unchanged on error.
    pub fn advance(&mut self, bits: u32) -> Result<(), BitIoError> {
        self.skip_bits(u64::from(bits))
    }

    /// The `bits <= WINDOW_BITS` bits at the current position. The caller
    /// has bounded them by the stream length.
    #[inline]
    fn window(&self, bits: u32) -> u64 {
        let byte = (self.pos / 8) as usize;
        let off = (self.pos % 8) as u32;
        (load_le8(self.bytes, byte) >> off) & low_mask(bits)
    }

    /// Reads a single bit.
    ///
    /// # Errors
    ///
    /// [`BitIoError::UnexpectedEnd`] if the stream is exhausted.
    pub fn read_bit(&mut self) -> Result<bool, BitIoError> {
        Ok(self.read_bits(1)? != 0)
    }

    /// Reads `out.len()` consecutive fields of `bits` bits each —
    /// bit-identical to calling [`BitReader::read_bits`] once per field,
    /// but each field is extracted with one unaligned 64-bit load, a shift
    /// and a mask instead of the per-byte loop. This is the decoder's
    /// payload hot path: a group's non-zero values all share the same
    /// width `P`.
    ///
    /// The slots may be `u64` or, for fields of at most 32 bits, `u32`
    /// (see [`Field`]); the narrower slots halve the buffer a caller then
    /// post-processes. Widths above 57 bits cannot be covered by a single
    /// load at every sub-byte offset and fall back to the scalar path (the
    /// codec's fields are at most 17 bits wide).
    ///
    /// # Errors
    ///
    /// * [`BitIoError::FieldTooWide`] if `bits` exceeds the slot type's
    ///   width ([`Field::BITS`]).
    /// * [`BitIoError::UnexpectedEnd`] if fewer than `bits * out.len()`
    ///   bits remain. The position is unchanged on error.
    pub fn read_fields<F: Field>(&mut self, bits: u32, out: &mut [F]) -> Result<(), BitIoError> {
        if bits > F::BITS {
            return Err(BitIoError::FieldTooWide { bits });
        }
        let total = u64::from(bits) * out.len() as u64;
        if total > self.remaining_bits() {
            return Err(BitIoError::UnexpectedEnd {
                // ss-lint: allow(truncating-cast) -- clamped to u32::MAX on the same line
                requested: total.min(u64::from(u32::MAX)) as u32,
                available: self.remaining_bits(),
            });
        }
        if bits == 0 {
            out.fill(F::from_window(0));
            return Ok(());
        }
        if bits > WINDOW_BITS {
            for slot in out.iter_mut() {
                *slot = F::from_window(self.read_bits(bits)?);
            }
            return Ok(());
        }
        // `bits <= 57` and the sub-byte offset is at most 7, so every field
        // fits entirely inside one 8-byte window starting at its byte.
        let mask = low_mask(bits);
        let mut pos = self.pos;
        for slot in out.iter_mut() {
            let byte = (pos / 8) as usize;
            let off = (pos % 8) as u32;
            *slot = F::from_window((load_le8(self.bytes, byte) >> off) & mask);
            pos += u64::from(bits);
        }
        self.pos = pos;
        Ok(())
    }

    /// Advances past `count` bits without decoding them.
    ///
    /// # Errors
    ///
    /// [`BitIoError::UnexpectedEnd`] if fewer than `count` bits remain; the
    /// position is unchanged on error.
    pub fn skip_bits(&mut self, count: u64) -> Result<(), BitIoError> {
        if count > self.remaining_bits() {
            return Err(BitIoError::UnexpectedEnd {
                requested: count.min(u64::from(u32::MAX)) as u32,
                available: self.remaining_bits(),
            });
        }
        self.pos += count;
        Ok(())
    }

    /// Advances to the next multiple of `align` bits.
    ///
    /// # Errors
    ///
    /// [`BitIoError::UnexpectedEnd`] if the padding extends past the end.
    ///
    /// # Panics
    ///
    /// Panics if `align == 0`.
    pub fn align_to(&mut self, align: u64) -> Result<(), BitIoError> {
        assert!(align > 0, "alignment must be non-zero");
        let rem = self.pos % align;
        if rem != 0 {
            self.skip_bits(align - rem)?;
        }
        Ok(())
    }
}

/// A slot type [`BitReader::read_fields`] extracts into: `u64`, or `u32`
/// for fields of at most 32 bits. Sealed; the two implementations are the
/// whole set.
pub trait Field: Copy + sealed::Sealed {
    /// The widest field this slot type holds.
    const BITS: u32;

    /// Narrows an extracted field, already masked to at most
    /// [`Field::BITS`] bits, to the slot type.
    fn from_window(field: u64) -> Self;
}

impl Field for u64 {
    const BITS: u32 = 64;

    #[inline]
    fn from_window(field: u64) -> Self {
        field
    }
}

impl Field for u32 {
    const BITS: u32 = 32;

    #[inline]
    fn from_window(field: u64) -> Self {
        // ss-lint: allow(truncating-cast) -- read_fields refuses widths above Field::BITS (32), so the field fits
        field as u32
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for u64 {}
    impl Sealed for u32 {}
}

/// A mask of the low `bits` bits; callers pass at most [`WINDOW_BITS`].
#[inline]
fn low_mask(bits: u32) -> u64 {
    debug_assert!(bits <= WINDOW_BITS, "mask of {bits} bits is wider than a window");
    // ss-lint: allow(shift-bound) -- every caller bounds bits by WINDOW_BITS (57) < 64
    (1u64 << bits) - 1
}

/// Loads up to 8 bytes starting at `idx` as a little-endian word,
/// zero-padding past the end of the slice. The padding can never reach a
/// caller's field: `read_fields` bounds every field by the stream length
/// before loading.
#[inline]
fn load_le8(bytes: &[u8], idx: usize) -> u64 {
    match bytes.get(idx..idx.saturating_add(8)) {
        Some(s) => <[u8; 8]>::try_from(s).map_or(0, u64::from_le_bytes),
        None => {
            let mut word = 0u64;
            for (i, &b) in bytes.iter().skip(idx).take(8).enumerate() {
                // ss-lint: allow(shift-bound) -- take(8) bounds i < 8, so 8 * i <= 56 < 64
                word |= u64::from(b) << (8 * i as u32);
            }
            word
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitWriter;

    #[test]
    fn reads_back_what_writer_wrote() {
        let fields: &[(u64, u32)] = &[
            (0, 0),
            (1, 1),
            (0b10, 2),
            (0xDEAD, 16),
            (0x1_FFFF_FFFF, 33),
            (u64::MAX, 64),
            (0x7, 3),
        ];
        let mut w = BitWriter::new();
        for &(v, b) in fields {
            w.write_bits(v, b).unwrap();
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, b) in fields {
            assert_eq!(r.read_bits(b).unwrap(), v, "field {b} bits");
        }
    }

    #[test]
    fn unexpected_end_reports_availability() {
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        r.read_bits(5).unwrap();
        assert_eq!(
            r.read_bits(4),
            Err(BitIoError::UnexpectedEnd {
                requested: 4,
                available: 3
            })
        );
        // Failed read must not consume bits.
        assert_eq!(r.remaining_bits(), 3);
        assert_eq!(r.read_bits(3).unwrap(), 0b111);
        assert!(r.is_at_end());
    }

    #[test]
    fn with_bit_len_truncates_padding() {
        let bytes = [0xFF, 0xFF];
        let mut r = BitReader::with_bit_len(&bytes, 9);
        assert_eq!(r.remaining_bits(), 9);
        r.read_bits(9).unwrap();
        assert!(r.read_bit().is_err());
    }

    #[test]
    #[should_panic(expected = "exceeds buffer capacity")]
    fn with_bit_len_rejects_overlong() {
        let bytes = [0u8; 2];
        let _ = BitReader::with_bit_len(&bytes, 17);
    }

    #[test]
    fn seek_restores_position() {
        let mut w = BitWriter::new();
        w.write_bits(0b1010, 4).unwrap();
        w.write_bits(0xAB, 8).unwrap();
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        r.read_bits(4).unwrap();
        let handle = r.position();
        assert_eq!(r.read_bits(8).unwrap(), 0xAB);
        r.seek(handle).unwrap();
        assert_eq!(r.read_bits(8).unwrap(), 0xAB);
        assert_eq!(
            r.seek(999),
            Err(BitIoError::SeekOutOfBounds {
                position: 999,
                len: 16
            })
        );
    }

    #[test]
    fn skip_and_align() {
        let bytes = [0xFFu8; 4];
        let mut r = BitReader::new(&bytes);
        r.read_bits(3).unwrap();
        r.align_to(8).unwrap();
        assert_eq!(r.position(), 8);
        r.skip_bits(8).unwrap();
        assert_eq!(r.position(), 16);
        assert!(r.skip_bits(17).is_err());
        assert_eq!(r.position(), 16, "failed skip must not move");
    }

    #[test]
    fn range_reader_is_confined_to_its_window() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3).unwrap(); // chunk 0
        w.write_bits(0xAB, 8).unwrap(); // chunk 1: bits 3..11
        w.write_bits(0b11, 2).unwrap(); // chunk 2
        let bytes = w.into_bytes();

        let mut r = BitReader::with_bit_range(&bytes, 3, 11).unwrap();
        assert_eq!(r.position(), 3);
        assert_eq!(r.range_start(), 3);
        assert_eq!(r.remaining_bits(), 8);
        assert_eq!(r.read_bits(8).unwrap(), 0xAB);
        assert!(r.is_at_end());
        assert_eq!(r.consumed_bits(), 8);
        // The window is a hard wall in both directions.
        assert!(r.read_bit().is_err());
        assert!(r.seek(2).is_err(), "seek before range start must fail");
        assert!(r.seek(12).is_err(), "seek past range end must fail");
        r.seek(3).unwrap();
        assert_eq!(r.read_bits(4).unwrap(), 0xB);
    }

    #[test]
    fn invalid_ranges_are_rejected() {
        let bytes = [0u8; 2];
        assert_eq!(
            BitReader::with_bit_range(&bytes, 9, 3).unwrap_err(),
            BitIoError::InvalidRange {
                start: 9,
                end: 3,
                len: 16
            }
        );
        assert_eq!(
            BitReader::with_bit_range(&bytes, 0, 17).unwrap_err(),
            BitIoError::InvalidRange {
                start: 0,
                end: 17,
                len: 16
            }
        );
        // An empty range at the very end is legal and immediately at end.
        let r = BitReader::with_bit_range(&bytes, 16, 16).unwrap();
        assert!(r.is_at_end());
    }

    #[test]
    fn reset_rewinds_to_range_start() {
        let bytes = [0xA5u8, 0x5A];
        let mut r = BitReader::new(&bytes);
        let first = r.read_bits(11).unwrap();
        r.reset();
        assert_eq!(r.position(), 0);
        assert_eq!(r.read_bits(11).unwrap(), first);

        let mut r = BitReader::with_bit_range(&bytes, 3, 11).unwrap();
        let first = r.read_bits(8).unwrap();
        assert!(r.is_at_end());
        r.reset();
        assert_eq!(r.position(), 3, "reset must honor the range start");
        assert_eq!(r.read_bits(8).unwrap(), first);
    }

    #[test]
    fn zero_width_read_consumes_nothing() {
        let bytes = [0xAA];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert_eq!(r.position(), 0);
    }

    #[test]
    fn read_fields_matches_read_bits_at_every_phase_and_width() {
        // A stream long enough that fields at the widest width still fit.
        let mut w = BitWriter::new();
        for i in 0..40u64 {
            w.write_bits(0x9E37_79B9_7F4A_7C15u64.rotate_left((i * 13) as u32), 64)
                .unwrap();
        }
        let bytes = w.into_bytes();
        for phase in [0u64, 1, 3, 7] {
            for bits in [1u32, 2, 5, 8, 13, 16, 17, 31, 57, 58, 63, 64] {
                let mut scalar = BitReader::new(&bytes);
                scalar.skip_bits(phase).unwrap();
                let want: Vec<u64> = (0..9).map(|_| scalar.read_bits(bits).unwrap()).collect();

                let mut bulk = BitReader::new(&bytes);
                bulk.skip_bits(phase).unwrap();
                let mut got = [0u64; 9];
                bulk.read_fields(bits, &mut got).unwrap();
                assert_eq!(got.as_slice(), want, "phase {phase}, width {bits}");
                assert_eq!(bulk.position(), scalar.position());
            }
        }
    }

    #[test]
    fn read_fields_near_end_of_buffer() {
        // The last field ends on the very last valid bit, exercising the
        // zero-padded tail load.
        let bytes = [0xA5u8, 0x5A, 0xC3];
        let mut scalar = BitReader::new(&bytes);
        let want: Vec<u64> = (0..3).map(|_| scalar.read_bits(8).unwrap()).collect();
        let mut bulk = BitReader::new(&bytes);
        let mut got = [0u64; 3];
        bulk.read_fields(8, &mut got).unwrap();
        assert_eq!(got.as_slice(), want);
        assert!(bulk.is_at_end());
    }

    #[test]
    fn read_fields_checks_total_up_front() {
        let bytes = [0xFFu8; 2];
        let mut r = BitReader::new(&bytes);
        let mut out = [0u64; 3];
        assert_eq!(
            r.read_fields(7, &mut out),
            Err(BitIoError::UnexpectedEnd {
                requested: 21,
                available: 16
            })
        );
        assert_eq!(r.position(), 0, "failed bulk read must not move");
        // Zero-width fields consume nothing and zero the output.
        let mut out = [7u64; 2];
        r.read_fields(0, &mut out).unwrap();
        assert_eq!(out, [0, 0]);
        assert_eq!(r.position(), 0);
        assert_eq!(
            r.read_fields(65, &mut out),
            Err(BitIoError::FieldTooWide { bits: 65 })
        );
    }

    #[test]
    fn read_fields_into_u32_slots_matches_u64_slots() {
        let mut w = BitWriter::new();
        for i in 0..20u64 {
            w.write_bits(0x9E37_79B9_7F4A_7C15u64.rotate_left((i * 7) as u32), 64)
                .unwrap();
        }
        let bytes = w.into_bytes();
        for phase in [0u64, 3, 7] {
            for bits in [0u32, 1, 5, 16, 17, 31, 32] {
                let mut wide = BitReader::new(&bytes);
                wide.skip_bits(phase).unwrap();
                let mut want = [0u64; 11];
                wide.read_fields(bits, &mut want).unwrap();

                let mut narrow = BitReader::new(&bytes);
                narrow.skip_bits(phase).unwrap();
                let mut got = [7u32; 11];
                narrow.read_fields(bits, &mut got).unwrap();
                let got: Vec<u64> = got.iter().map(|&f| u64::from(f)).collect();
                assert_eq!(got, want, "phase {phase}, width {bits}");
                assert_eq!(narrow.position(), wide.position());
            }
        }
        // A u32 slot cannot hold a 33-bit field.
        let mut r = BitReader::new(&bytes);
        let mut out = [0u32; 2];
        assert_eq!(
            r.read_fields(33, &mut out),
            Err(BitIoError::FieldTooWide { bits: 33 })
        );
        assert_eq!(r.position(), 0);
    }

    #[test]
    fn read_fields_respects_range_windows() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3).unwrap();
        w.write_bits(0xAB, 8).unwrap();
        w.write_bits(0xCD, 8).unwrap();
        let bytes = w.into_bytes();
        let mut r = BitReader::with_bit_range(&bytes, 3, 19).unwrap();
        let mut out = [0u64; 2];
        r.read_fields(8, &mut out).unwrap();
        assert_eq!(out, [0xAB, 0xCD]);
        assert!(r.is_at_end());
        // One more field would cross the window's end.
        let mut r = BitReader::with_bit_range(&bytes, 3, 18).unwrap();
        let mut out = [0u64; 2];
        assert!(r.read_fields(8, &mut out).is_err());
        assert_eq!(r.position(), 3);
    }
}
