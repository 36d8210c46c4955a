//! Word-parallel hot-path kernels: the software analogue of the paper's
//! Figure 5c width-detection hardware.
//!
//! The hardware gets group widths almost for free — one OR tree per bit
//! position plus a leading-1 detector. A scalar software loop pays a
//! compare-and-max (or an OR) per *value*. These kernels recover most of
//! the hardware's parallelism on a 64-bit machine:
//!
//! * [`scan_group`] makes a single fused pass over a group, packing two
//!   32-bit sign-magnitude encodings per 64-bit lane and OR-ing lanes
//!   together, while simultaneously building the group's zero bit-vector
//!   `Z` as whole `u64` words. One lane fold and one `leading_zeros` at
//!   the end yield the group width; the Z words go to
//!   `BitWriter::write_words` without any per-value bit pushes.
//! * [`gather_nonzero`] compacts the non-zero payload encodings of a group
//!   into a dense field buffer for `BitWriter::pack_fields`, without a
//!   branch per value.
//! * [`decode_groups`] is the decode-side twin of [`scan_gather`]: one
//!   window load per group header (`Z` and `P` together), one per payload
//!   field, then a scatter that walks the set bits of `!Z` straight into
//!   the caller's output slice, folding the range and non-zero checks of
//!   every value into one flag per group.
//!
//! The scalar equivalents (`ss_tensor::width::group_width_scalar`, the
//! per-value loops retained in [`WidthDetector`](crate::WidthDetector),
//! and the per-bit decode loop kept in the `kernel_differential` suite)
//! stay as the differential-test oracles that pin these kernels.

use ss_bitio::{BitIoError, BitReader, WINDOW_BITS};
use ss_tensor::{FixedType, Signedness};

use crate::{checked, CodecError, WidthDetector};

/// Largest group the fixed-size scan buffers cover. The container format
/// caps groups at 256 values, so four `u64` zero-bitmap words suffice.
pub const MAX_GROUP: usize = 256;

/// The result of one fused pass over a group: its zero bit-vector as
/// whole words, and the OR of all (sign-magnitude) value encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupScan {
    /// Zero bit-vector, LSB-first: bit `i` of `z[i / 64]` is 1 iff value
    /// `i` of the group is zero. Words beyond the group length are zero.
    pub z: [u64; 4],
    /// OR of the sign-magnitude encodings of every value in the group —
    /// the outputs of Figure 5c's per-bit OR trees.
    pub or: u32,
}

impl GroupScan {
    /// The detected group width: position of the leading 1 across the OR
    /// signals, plus one. Zero for an all-zero group.
    #[must_use]
    pub fn width(&self) -> u8 {
        // ss-lint: allow(truncating-cast) -- 32 - leading_zeros of a u32 is in 0..=32
        (32 - self.or.leading_zeros()) as u8
    }

    /// The width as stored in the container's `P` field: `width - 1`,
    /// with all-zero groups pinned to the smallest encoding.
    #[must_use]
    pub fn encoded_width(&self) -> u8 {
        self.width().max(1) - 1
    }

    /// Number of zero values in the group (popcount of the Z words).
    #[must_use]
    pub fn zero_count(&self) -> u32 {
        let [a, b, c, d] = self.z;
        a.count_ones() + b.count_ones() + c.count_ones() + d.count_ones()
    }
}

/// Scans a group once, producing its zero bit-vector as whole `u64` words
/// and the OR-fold of its sign-magnitude encodings.
///
/// Zeros never assert the sign wire: a zero value contributes `0` to the
/// OR in both signedness modes (the codec elides zeros entirely, so they
/// must not force a 1 into bit position 0).
///
/// Groups longer than [`MAX_GROUP`] values are not representable in the
/// container format; the tail beyond 256 values is ignored in release
/// builds and asserts in debug builds.
#[must_use]
pub fn scan_group(values: &[i32], signedness: Signedness) -> GroupScan {
    debug_assert!(
        values.len() <= MAX_GROUP,
        "group of {} values exceeds the {MAX_GROUP}-value container cap",
        values.len()
    );
    match signedness {
        Signedness::Unsigned => scan_with(values, encode_unsigned),
        Signedness::Signed => scan_with(values, encode_signed),
    }
}

/// Compacts the sign-magnitude encodings of the group's non-zero values
/// into the front of `out`, returning how many there are.
///
/// The loop is branch-free in the common case: every value's encoding is
/// written, and the cursor only advances past slots holding non-zeros, so
/// zeros are overwritten by the next value instead of branching. `out`
/// must be at least as long as `values` (a `[u64; MAX_GROUP]` scratch
/// buffer covers every legal group).
#[must_use]
pub fn gather_nonzero(values: &[i32], signedness: Signedness, out: &mut [u64]) -> usize {
    debug_assert!(
        out.len() >= values.len(),
        "gather buffer of {} slots cannot hold a {}-value group",
        out.len(),
        values.len()
    );
    match signedness {
        Signedness::Unsigned => gather_with(values, out, encode_unsigned),
        Signedness::Signed => gather_with(values, out, encode_signed),
    }
}

/// [`scan_group`] and [`gather_nonzero`] fused into one pass: each value
/// is loaded and encoded exactly once, feeding the zero bitmap, the OR
/// lanes, *and* the compacted payload buffer — the shape the encoder's
/// per-group hot loop wants. Returns the scan and the non-zero count.
///
/// Equivalent by construction to calling the two kernels separately
/// (pinned by a unit test below); the same buffer-length contract as
/// [`gather_nonzero`] applies.
#[must_use]
pub fn scan_gather(values: &[i32], signedness: Signedness, out: &mut [u64]) -> (GroupScan, usize) {
    debug_assert!(
        values.len() <= MAX_GROUP,
        "group of {} values exceeds the {MAX_GROUP}-value container cap",
        values.len()
    );
    debug_assert!(
        out.len() >= values.len(),
        "gather buffer of {} slots cannot hold a {}-value group",
        out.len(),
        values.len()
    );
    match signedness {
        Signedness::Unsigned => scan_gather_with(values, out, encode_unsigned),
        Signedness::Signed => scan_gather_with(values, out, encode_signed),
    }
}

fn scan_gather_with(
    values: &[i32],
    out: &mut [u64],
    enc: impl Fn(i32) -> u32 + Copy,
) -> (GroupScan, usize) {
    let mut z = [0u64; 4];
    let mut lanes = 0u64;
    let mut n = 0usize;
    for (slot, chunk) in z.iter_mut().zip(values.chunks(64)) {
        let mut zw = 0u64;
        for (bit, &v) in chunk.iter().enumerate() {
            // ss-lint: allow(truncating-cast) -- enumerate over <= 64 items
            let bit = bit as u32;
            let e = enc(v);
            // Alternate encodings between the low and high 32-bit lane;
            // only the OR matters, so placement order is free.
            lanes |= u64::from(e) << ((bit & 1) << 5);
            zw |= u64::from(v == 0) << bit;
            if let Some(s) = out.get_mut(n) {
                *s = u64::from(e);
            }
            n += usize::from(v != 0);
        }
        *slot = zw;
    }
    // ss-lint: allow(truncating-cast) -- folding the two 32-bit lanes is the point
    let or = (lanes | (lanes >> 32)) as u32;
    (GroupScan { z, or }, n)
}

/// Zero bitmap of up to 64 values as one word: bit `i` is 1 iff
/// `values[i] == 0`. Bits at and above `values.len()` are 0. This is the
/// single-word form of the extractor fused into [`scan_group`], for
/// callers (like the zero-RLE token counter) that only need `Z`.
#[must_use]
pub fn zero_bitmap64(values: &[i32]) -> u64 {
    debug_assert!(values.len() <= 64, "bitmap word holds at most 64 values");
    let mut z = 0u64;
    for (i, &v) in values.iter().take(64).enumerate() {
        // ss-lint: allow(truncating-cast) -- enumerate over <= 64 items
        // ss-lint: allow(shift-bound) -- take(64) bounds i < 64
        z |= u64::from(v == 0) << (i as u32);
    }
    z
}

/// Sign-magnitude encoding used on the wire for signed containers: the
/// magnitude shifted up one, with the sign at the least-significant place
/// (paper §3). Zero encodes to 0 and never asserts the sign bit.
#[inline]
fn encode_signed(v: i32) -> u32 {
    (v.unsigned_abs() << 1) | u32::from(v < 0)
}

/// Unsigned containers store the value verbatim.
#[inline]
fn encode_unsigned(v: i32) -> u32 {
    debug_assert!(v >= 0, "negative value {v} in an unsigned container");
    v.unsigned_abs()
}

fn scan_with(values: &[i32], enc: impl Fn(i32) -> u32 + Copy) -> GroupScan {
    let mut z = [0u64; 4];
    let mut lanes = 0u64;
    for (slot, chunk) in z.iter_mut().zip(values.chunks(64)) {
        let mut zw = 0u64;
        let mut bit = 0u32;
        let mut pairs = chunk.chunks_exact(2);
        for pair in &mut pairs {
            if let [a, b] = *pair {
                lanes |= u64::from(enc(a)) | (u64::from(enc(b)) << 32);
                // ss-lint: allow(shift-bound) -- bit advances by 2 per pair of a <= 64-item chunk, so bit <= 62 and bit + 1 <= 63
                zw |= (u64::from(a == 0) << bit) | (u64::from(b == 0) << (bit + 1));
                bit += 2;
            }
        }
        for &v in pairs.remainder() {
            lanes |= u64::from(enc(v));
            // ss-lint: allow(shift-bound) -- bit < chunk.len() <= 64 when the remainder item exists, so bit <= 63
            zw |= u64::from(v == 0) << bit;
            bit += 1;
        }
        *slot = zw;
    }
    // ss-lint: allow(truncating-cast) -- folding the two 32-bit lanes is the point
    let or = (lanes | (lanes >> 32)) as u32;
    GroupScan { z, or }
}

fn gather_with(values: &[i32], out: &mut [u64], enc: impl Fn(i32) -> u32 + Copy) -> usize {
    let mut n = 0usize;
    for &v in values {
        if let Some(slot) = out.get_mut(n) {
            *slot = u64::from(enc(v));
        }
        n += usize::from(v != 0);
    }
    n
}

/// Decodes `out.len()` values' worth of ShapeShifter groups of
/// `group_size` values from `r` into `out` — the group-parse body shared
/// by the sequential decode and every indexed-chunk worker.
/// `group_base` / `value_base` are the stream-global indices of the first
/// group and value, so a chunk-local parse reports stream-global errors.
///
/// Per group:
///
/// 1. One [`BitReader::peek_bits`] window reads the `Z` bit-vector and
///    the `P` prefix together, then one [`BitReader::advance`] consumes
///    them. A group whose header is wider than one window, or that runs
///    off the end of the stream, reads `Z` word by word and then `P`, so
///    a truncation names the exact field that ran short.
/// 2. [`BitReader::read_fields`] extracts every payload field into a
///    `u32` slot with one window load each (`!Z`'s popcount is the field
///    count).
/// 3. The fields decode with branch-free sign-magnitude arithmetic: a
///    dense group straight into its slice, a sparse one into a scratch
///    row that the scatter then spreads over the set bits of `!Z`
///    (trailing-zero count, clear lowest bit), the group zeroed first. A
///    value is valid iff its magnitude is in `1..=max_magnitude`, which
///    one wrapping compare tests; the per-value results fold into one
///    flag.
/// 4. Only when the flag is set does the group get re-examined, to name
///    the first offending value in stream order.
///
/// The errors and their indices are those of a per-value parse that
/// validates as it goes: every input-dependent failure is checked in
/// stream order, group by group.
///
/// # Errors
///
/// * [`CodecError::Stream`] if the stream is truncated.
/// * [`CodecError::WidthExceedsContainer`] if a group's `P` exceeds the
///   container width.
/// * [`CodecError::CorruptValue`] if a payload field decodes to zero
///   (including a signed negative zero) or out of the container's range.
pub fn decode_groups(
    r: &mut BitReader<'_>,
    dtype: FixedType,
    group_size: usize,
    group_base: usize,
    value_base: usize,
    out: &mut [i32],
) -> Result<(), CodecError> {
    let group_size = group_size.clamp(1, MAX_GROUP);
    let prefix_bits = u32::from(WidthDetector::new(dtype.bits(), dtype.signedness()).prefix_bits());
    let max_magnitude = dtype.max_magnitude().unsigned_abs();
    let payload = Payload::of(dtype);
    let mut fields = [0u32; MAX_GROUP];
    let mut decoded = [0i32; MAX_GROUP];
    for (g, group) in out.chunks_mut(group_size).enumerate() {
        let (z, p) = read_header(r, group.len(), prefix_bits)?;
        if p > dtype.bits() {
            return Err(CodecError::WidthExceedsContainer {
                group: group_base + g,
                width: p,
                container: dtype.bits(),
            });
        }
        let zeros = z.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        let payloads = group.len() - zeros.min(group.len());
        let slots = fields.get_mut(..payloads).unwrap_or(&mut []);
        r.read_fields(u32::from(p), slots)?;
        // A dense group decodes straight into place; a sparse one decodes
        // its payloads, then scatters them between the zeros.
        let bad = if payloads == group.len() {
            payload.decode_all(slots, group, max_magnitude)
        } else {
            let values = decoded.get_mut(..payloads).unwrap_or(&mut []);
            let bad = payload.decode_all(slots, values, max_magnitude);
            scatter(&z, values, group);
            bad
        };
        let group_value_base = value_base + g * group_size;
        if bad {
            return Err(first_corrupt_value(&z, group, dtype, group_value_base));
        }
        if cfg!(debug_assertions) {
            let mut next = slots.iter();
            for (i, &v) in group.iter().enumerate() {
                if v != 0 {
                    let raw = next.next().copied().unwrap_or(0);
                    let signed = payload.sign_bits != 0;
                    checked::canonical_payload(u64::from(raw), v, p, signed, group_value_base + i);
                }
            }
        }
        checked::group_invariants(&z, group.len(), payloads, p, dtype.bits(), group_base + g);
    }
    Ok(())
}

/// Reads one group header: the `Z` bit-vector of `group_len` bits (as
/// whole words, bits past `group_len` clear) and the width `P` (stored
/// as `P - 1` in `prefix_bits` bits).
#[inline]
fn read_header(
    r: &mut BitReader<'_>,
    group_len: usize,
    prefix_bits: u32,
) -> Result<([u64; 4], u8), BitIoError> {
    // ss-lint: allow(truncating-cast) -- group_len <= MAX_GROUP (256)
    let z_bits = group_len as u32;
    let header_bits = z_bits + prefix_bits;
    if header_bits <= WINDOW_BITS {
        if let Ok(header) = r.peek_bits(header_bits) {
            r.advance(header_bits)?;
            // ss-lint: allow(shift-bound) -- z_bits < header_bits <= WINDOW_BITS (57) < 64
            let z = header & ((1u64 << z_bits) - 1);
            // ss-lint: allow(truncating-cast) -- the prefix field is at most 4 bits wide, so the value is <= 15
            // ss-lint: allow(shift-bound) -- z_bits < header_bits <= WINDOW_BITS (57) < 64
            let p = (header >> z_bits) as u8 + 1;
            return Ok(([z, 0, 0, 0], p));
        }
    }
    // Wide groups, and the group a truncated stream ends in: `Z` in words
    // of up to 64 bits, then `P`, each read naming its own shortfall.
    let mut z = [0u64; 4];
    for (word, start) in z.iter_mut().zip((0..group_len).step_by(64)) {
        // ss-lint: allow(truncating-cast) -- min(64) bounds the width
        *word = r.read_bits((group_len - start).min(64) as u32)?;
    }
    // ss-lint: allow(truncating-cast) -- the prefix field is at most 4 bits wide, so the value is <= 15
    let p = r.read_bits(prefix_bits)? as u8 + 1;
    Ok((z, p))
}

/// How a container's payload fields map to values: sign-magnitude with
/// the sign at the LSB when signed, the value verbatim when unsigned. One
/// branch-free formula covers both — `sign_bits` is 1 or 0 — so the
/// decode loop is a single instantiation with no branch on signedness.
#[derive(Debug, Clone, Copy)]
struct Payload {
    sign_bits: u32,
}

impl Payload {
    fn of(dtype: FixedType) -> Self {
        Self {
            sign_bits: u32::from(dtype.signedness().is_signed()),
        }
    }

    /// Decodes one field to `(value, magnitude)`. A signed "negative
    /// zero" (raw `1`) decodes to 0.
    #[inline]
    fn decode(self, raw: u32) -> (i32, u32) {
        // ss-lint: allow(shift-bound) -- sign_bits is built from a bool, 0 or 1
        let magnitude = raw >> self.sign_bits;
        // ss-lint: allow(truncating-cast) -- masked to the sign bit, 0 or 1
        let sign = (raw & self.sign_bits) as i32;
        // ss-lint: allow(truncating-cast) -- payload fields are at most 16 bits wide, so the magnitude is < 2^16
        let value = ((magnitude as i32) ^ -sign).wrapping_add(sign);
        (value, magnitude)
    }

    /// Decodes `fields` into `values`, one to one. Returns `true` if any
    /// field decoded to a magnitude outside `1..=max_magnitude`: a valid
    /// magnitude minus one is below `max_magnitude`, and a zero wraps to
    /// the top of the range, so one compare tests both bounds. No branch
    /// depends on a value, so the loop vectorizes.
    #[inline]
    fn decode_all(self, fields: &[u32], values: &mut [i32], max_magnitude: u32) -> bool {
        let mut bad = 0u32;
        for (value, &raw) in values.iter_mut().zip(fields) {
            let (v, magnitude) = self.decode(raw);
            *value = v;
            bad |= u32::from(magnitude.wrapping_sub(1) >= max_magnitude);
        }
        bad != 0
    }
}

/// Writes one group: zeros everywhere, then each decoded payload, in
/// order, at the next set bit of `!Z`.
#[inline]
fn scatter(z: &[u64; 4], values: &[i32], group: &mut [i32]) {
    group.fill(0);
    let mut rest = values;
    for (&word, chunk) in z.iter().zip(group.chunks_mut(64)) {
        // `Z` words carry no bits past the group's end, so only the
        // chunk's own slots can be set in `!Z` after this mask.
        let live = if chunk.len() == 64 {
            u64::MAX
        } else {
            // ss-lint: allow(shift-bound) -- the else branch has chunk.len() < 64
            (1u64 << chunk.len()) - 1
        };
        let mut nonzero = !word & live;
        let (mine, tail) = rest.split_at(rest.len().min(nonzero.count_ones() as usize));
        rest = tail;
        for &v in mine {
            if let Some(slot) = chunk.get_mut(nonzero.trailing_zeros() as usize) {
                *slot = v;
            }
            nonzero &= nonzero.wrapping_sub(1);
        }
    }
}

/// Names the first value of a flagged group that is zero (but not marked
/// in `Z`) or outside the container's range.
#[cold]
fn first_corrupt_value(z: &[u64; 4], group: &[i32], dtype: FixedType, value_base: usize) -> CodecError {
    let marked_zero = |i: usize| z.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1);
    let (index, value) = group
        .iter()
        .enumerate()
        .find(|&(i, &v)| !marked_zero(i) && (v == 0 || !dtype.contains(v)))
        .map_or((0, 0), |(i, &v)| (i, v));
    CodecError::CorruptValue {
        index: value_base + index,
        value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_tensor::width;

    fn scalar_zero_bitmap(values: &[i32]) -> [u64; 4] {
        let mut z = [0u64; 4];
        for (i, &v) in values.iter().enumerate() {
            if v == 0 {
                z[i / 64] |= 1u64 << (i % 64);
            }
        }
        z
    }

    #[test]
    fn scan_matches_scalar_width_and_bitmap() {
        let groups: [&[i32]; 6] = [
            &[],
            &[0, 0, 0, 0],
            &[3, 0, -1, 0, 0, 0, 200, -7],
            &[-32768, 32767],
            &[1; 17],
            &[0, 5, 0, 0, 9, 0, 0, 0, 0, 0, 0, 1],
        ];
        for g in groups {
            let scan = scan_group(g, Signedness::Signed);
            assert_eq!(
                scan.width(),
                width::group_width_scalar(g, Signedness::Signed),
                "width of {g:?}"
            );
            assert_eq!(scan.z, scalar_zero_bitmap(g), "bitmap of {g:?}");
            assert_eq!(
                u64::from(scan.zero_count()),
                g.iter().filter(|&&v| v == 0).count() as u64
            );
        }
    }

    #[test]
    fn scan_covers_full_256_value_groups() {
        let values: Vec<i32> = (0..256).map(|i| if i % 3 == 0 { 0 } else { i - 128 }).collect();
        let scan = scan_group(&values, Signedness::Signed);
        assert_eq!(scan.z, scalar_zero_bitmap(&values));
        assert_eq!(
            scan.width(),
            width::group_width_scalar(&values, Signedness::Signed)
        );
    }

    #[test]
    fn zeros_do_not_assert_the_sign_wire() {
        let scan = scan_group(&[0, 0, 0], Signedness::Signed);
        assert_eq!(scan.or, 0);
        assert_eq!(scan.width(), 0);
        assert_eq!(scan.encoded_width(), 0);
        assert_eq!(scan.zero_count(), 3);
    }

    #[test]
    fn unsigned_values_stored_verbatim() {
        let scan = scan_group(&[0b0001, 0b0100], Signedness::Unsigned);
        assert_eq!(scan.or, 0b0101);
        assert_eq!(scan.width(), 3);
    }

    #[test]
    fn gather_compacts_nonzeros_in_order() {
        let mut out = [0u64; MAX_GROUP];
        let n = gather_nonzero(&[3, 0, -1, 0, 0, 0, 200, -7], Signedness::Signed, &mut out);
        assert_eq!(n, 4);
        let expect: Vec<u64> = [3, -1, 200, -7]
            .iter()
            .map(|&v: &i32| u64::from(width::to_sign_magnitude(v)))
            .collect();
        assert_eq!(&out[..n], expect.as_slice());
    }

    #[test]
    fn scan_gather_equals_the_two_kernels() {
        let groups: [&[i32]; 5] = [
            &[],
            &[0; 16],
            &[3, 0, -1, 0, 0, 0, 200, -7],
            &[-32768, 32767, 0, 1],
            &[7; 130],
        ];
        for signedness in [Signedness::Unsigned, Signedness::Signed] {
            for g in groups {
                if signedness == Signedness::Unsigned && g.iter().any(|&v| v < 0) {
                    continue;
                }
                let mut fused = [0u64; MAX_GROUP];
                let mut separate = [0u64; MAX_GROUP];
                let (scan, n) = scan_gather(g, signedness, &mut fused);
                assert_eq!(scan, scan_group(g, signedness), "{g:?} ({signedness:?})");
                let m = gather_nonzero(g, signedness, &mut separate);
                assert_eq!(n, m, "{g:?}");
                assert_eq!(fused[..n], separate[..m], "{g:?}");
            }
        }
    }

    #[test]
    fn zero_bitmap64_matches_scalar() {
        let values = [3, 0, -1, 0, 0, 0, 200, -7, 0];
        assert_eq!(zero_bitmap64(&values), scalar_zero_bitmap(&values)[0]);
        assert_eq!(zero_bitmap64(&[]), 0);
        assert_eq!(zero_bitmap64(&[0; 64]), u64::MAX);
    }

    #[test]
    fn gather_handles_all_zero_and_all_nonzero() {
        let mut out = [0u64; MAX_GROUP];
        assert_eq!(gather_nonzero(&[0; 16], Signedness::Signed, &mut out), 0);
        let n = gather_nonzero(&[7; 16], Signedness::Unsigned, &mut out);
        assert_eq!(n, 16);
        assert!(out[..n].iter().all(|&f| f == 7));
    }
}
