// Tests may unwrap/expect freely: a panic here is a test failure, not a
// product-code defect (the workspace clippy lints exempt test code).
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Differential suite for the window-load reads: `BitReader::read_bits`
//! and `BitReader::peek_bits` against the bitwise definition of an
//! LSB-first field read, at every width 0..=64 and every bit phase 0..=7,
//! on whole-buffer, length-limited and range-limited readers. Values,
//! positions and the `UnexpectedEnd { requested, available }` of the read
//! that runs off the end must all agree.

use ss_bitio::{BitIoError, BitReader, WINDOW_BITS};

/// A fixed, irregular byte pattern (xorshift), 24 bytes = 192 bits.
fn pattern() -> Vec<u8> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..24)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x.to_le_bytes()[0]
        })
        .collect()
}

/// The bitwise definition: bit `i` of the field is stream bit `pos + i`,
/// and a read is refused whole when fewer than `bits` bits remain before
/// `end`.
fn reference_read(bytes: &[u8], pos: &mut u64, end: u64, bits: u32) -> Result<u64, BitIoError> {
    if bits > 64 {
        return Err(BitIoError::FieldTooWide { bits });
    }
    if u64::from(bits) > end - *pos {
        return Err(BitIoError::UnexpectedEnd {
            requested: bits,
            available: end - *pos,
        });
    }
    let mut value = 0u64;
    for i in 0..u64::from(bits) {
        let p = *pos + i;
        let bit = u64::from(bytes[(p / 8) as usize] >> (p % 8) & 1);
        value |= bit << i;
    }
    *pos += u64::from(bits);
    Ok(value)
}

/// The readers under test for one phase: `(reader, first bit, end bit)`.
fn readers(bytes: &[u8], phase: u64) -> Vec<(BitReader<'_>, u64, u64)> {
    let total = bytes.len() as u64 * 8;
    let mut whole = BitReader::new(bytes);
    whole.skip_bits(phase).unwrap();
    let mut limited = BitReader::with_bit_len(bytes, total - 13);
    limited.skip_bits(phase).unwrap();
    let start = 24 + phase;
    let ranged = BitReader::with_bit_range(bytes, start, start + 101).unwrap();
    vec![
        (whole, phase, total),
        (limited, phase, total - 13),
        (ranged, start, start + 101),
    ]
}

#[test]
fn read_bits_matches_the_bitwise_definition_at_every_width_and_phase() {
    let bytes = pattern();
    for bits in 0..=64u32 {
        for phase in 0..=7u64 {
            for (mut r, first, end) in readers(&bytes, phase) {
                let mut pos = first;
                // Read until the stream runs out (zero-width reads never
                // do, so they stop after a few rounds).
                for step in 0..200 {
                    let want = reference_read(&bytes, &mut pos, end, bits);
                    let got = r.read_bits(bits);
                    assert_eq!(got, want, "width {bits}, phase {phase}, step {step}");
                    assert_eq!(
                        r.position(),
                        pos,
                        "width {bits}, phase {phase}, step {step}"
                    );
                    if want.is_err() || (bits == 0 && step == 3) {
                        break;
                    }
                }
            }
        }
    }
}

#[test]
fn peek_bits_matches_the_bitwise_definition_and_consumes_nothing() {
    let bytes = pattern();
    for bits in 0..=64u32 {
        for phase in 0..=7u64 {
            for (mut r, first, end) in readers(&bytes, phase) {
                let mut pos = first;
                for step in 0..200 {
                    let before = r.position();
                    let peeked = r.peek_bits(bits);
                    assert_eq!(r.position(), before, "peek must not move");
                    if bits > WINDOW_BITS {
                        assert_eq!(peeked, Err(BitIoError::FieldTooWide { bits }));
                        break;
                    }
                    let want = reference_read(&bytes, &mut pos, end, bits);
                    assert_eq!(peeked, want, "width {bits}, phase {phase}, step {step}");
                    if want.is_err() {
                        assert!(r.advance(bits).is_err(), "advance past the end must fail");
                        assert_eq!(r.position(), before, "failed advance must not move");
                        break;
                    }
                    r.advance(bits).unwrap();
                    assert_eq!(r.position(), pos);
                    if bits == 0 && step == 3 {
                        break;
                    }
                }
            }
        }
    }
}

#[test]
fn wider_than_64_bits_is_refused_before_the_length_check() {
    let bytes = pattern();
    let mut r = BitReader::new(&bytes);
    assert_eq!(r.read_bits(65), Err(BitIoError::FieldTooWide { bits: 65 }));
    assert_eq!(r.position(), 0);
}
