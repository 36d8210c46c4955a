// Tests may unwrap/expect freely: a panic here is a test failure, not a
// product-code defect (the workspace clippy lints exempt test code).
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Differential suite for the word-parallel hot-path kernels: every
//! u64-lane / bulk-bit kernel is pinned against the scalar reference it
//! replaced, across group sizes 16/64/256, ragged tails, all-zero and
//! max-magnitude groups, and both signedness modes. The fused group
//! decoder is pinned at every group size 1..=256 and on hostile streams.
//!
//! The scalar paths are retained in the tree *as* oracles
//! (`width::group_width_scalar`, `BitWriter::write_bits` /
//! `BitReader::read_bits`, `ZeroRle::token_count_scalar`, and the per-bit
//! decode loop [`scalar_decode`] below); this suite is what makes that
//! retention load-bearing.

use proptest::prelude::*;
use ss_bitio::{BitReader, BitWriter};
use ss_core::kernels;
use ss_core::scheme::ZeroRle;
use ss_core::{CodecError, ShapeShifterCodec, WidthDetector};
use ss_tensor::{width, FixedType, Shape, Signedness, Tensor};

/// The per-value zero-bitmap construction the fused scan replaced.
fn scalar_zero_bitmap(values: &[i32]) -> [u64; 4] {
    let mut z = [0u64; 4];
    for (i, &v) in values.iter().enumerate() {
        if v == 0 {
            z[i / 64] |= 1u64 << (i % 64);
        }
    }
    z
}

/// The per-value sign-magnitude wire encoding (zeros never assert the
/// sign bit — the codec elides them entirely).
fn scalar_encode(v: i32, signedness: Signedness) -> u32 {
    match signedness {
        Signedness::Unsigned => v as u32,
        Signedness::Signed => {
            if v == 0 {
                0
            } else {
                width::to_sign_magnitude(v)
            }
        }
    }
}

fn scalar_or(values: &[i32], signedness: Signedness) -> u32 {
    values
        .iter()
        .fold(0u32, |or, &v| or | scalar_encode(v, signedness))
}

/// Deterministic edge-case groups, per signedness: all-zero, single
/// value, ragged (non-multiple-of-64) lengths, full 256-value groups,
/// and max-magnitude members.
fn edge_groups(signedness: Signedness) -> Vec<Vec<i32>> {
    let max = match signedness {
        Signedness::Unsigned => 65_535,
        Signedness::Signed => 32_767,
    };
    let neg = |v: i32| match signedness {
        Signedness::Unsigned => v,
        Signedness::Signed => -v,
    };
    let mut groups: Vec<Vec<i32>> = vec![
        vec![],
        vec![0],
        vec![max],
        vec![neg(max)],
        vec![0; 16],
        vec![0; 256],
        vec![max; 256],
        vec![1, 0, neg(3), 0, 0, 7, max, neg(1)],
    ];
    // Ragged tails around every lane/word boundary the kernels care
    // about: pair remainder (odd lengths), 64-bit word edges, and the
    // paper's group sizes 16/64/256.
    for len in [1usize, 2, 3, 15, 16, 17, 63, 64, 65, 127, 128, 129, 255, 256] {
        groups.push(
            (0..len as i32)
                .map(|i| {
                    if i % 5 == 0 {
                        0
                    } else {
                        neg(((i * 37) % (max.min(1000))).max(1))
                    }
                })
                .collect(),
        );
    }
    groups
}

#[test]
fn scan_group_matches_scalar_reference_on_edges() {
    for signedness in [Signedness::Unsigned, Signedness::Signed] {
        for group in edge_groups(signedness) {
            let scan = kernels::scan_group(&group, signedness);
            assert_eq!(
                scan.width(),
                width::group_width_scalar(&group, signedness),
                "width of {group:?} ({signedness:?})"
            );
            assert_eq!(
                scan.or,
                scalar_or(&group, signedness),
                "or of {group:?} ({signedness:?})"
            );
            assert_eq!(
                scan.z,
                scalar_zero_bitmap(&group),
                "bitmap of {group:?} ({signedness:?})"
            );
            assert_eq!(
                scan.zero_count() as usize,
                group.iter().filter(|&&v| v == 0).count(),
                "zero count of {group:?}"
            );
        }
    }
}

#[test]
fn gather_nonzero_matches_scalar_filter_on_edges() {
    for signedness in [Signedness::Unsigned, Signedness::Signed] {
        for group in edge_groups(signedness) {
            let mut out = [0u64; kernels::MAX_GROUP];
            let n = kernels::gather_nonzero(&group, signedness, &mut out);
            let expect: Vec<u64> = group
                .iter()
                .filter(|&&v| v != 0)
                .map(|&v| u64::from(scalar_encode(v, signedness)))
                .collect();
            assert_eq!(&out[..n], expect.as_slice(), "{group:?} ({signedness:?})");
        }
    }
}

#[test]
fn group_width_agrees_with_scalar_at_paper_group_sizes() {
    // The codec-facing width entry point, at the grouping granularities
    // the paper evaluates (16 default, 64, 256 max).
    for signedness in [Signedness::Unsigned, Signedness::Signed] {
        let max = match signedness {
            Signedness::Unsigned => 65_535,
            Signedness::Signed => 32_767,
        };
        let values: Vec<i32> = (0..1000)
            .map(|i: i32| {
                let m = i.wrapping_mul(2_654_435_761u32 as i32).rem_euclid(max + 1);
                if i % 4 == 0 {
                    0
                } else if signedness == Signedness::Signed && i % 3 == 0 {
                    -m
                } else {
                    m
                }
            })
            .collect();
        for group_size in [16usize, 64, 256] {
            for chunk in values.chunks(group_size) {
                assert_eq!(
                    width::group_width(chunk, signedness),
                    width::group_width_scalar(chunk, signedness),
                    "group size {group_size} ({signedness:?})"
                );
            }
        }
    }
}

/// The per-bit decode loop the fused kernel replaced, kept as its oracle:
/// per group it reads `Z` in words of up to 64 bits and then `P`, checks
/// the width, reads the payload fields, then walks `Z` one bit at a time,
/// pushing a zero or the next payload and validating each value in
/// stream order.
fn scalar_decode(
    r: &mut BitReader<'_>,
    dtype: FixedType,
    group_size: usize,
    group_base: usize,
    value_base: usize,
    count: usize,
) -> Result<Vec<i32>, CodecError> {
    let prefix_bits = u32::from(WidthDetector::new(dtype.bits(), dtype.signedness()).prefix_bits());
    let signed = dtype.signedness().is_signed();
    let mut data = Vec::with_capacity(count);
    let mut group = group_base;
    while data.len() < count {
        let group_len = (count - data.len()).min(group_size);
        let mut z = [0u64; 4];
        let mut zeros = 0usize;
        for (word, start) in z.iter_mut().zip((0..group_len).step_by(64)) {
            *word = r.read_bits((group_len - start).min(64) as u32)?;
            zeros += word.count_ones() as usize;
        }
        let p = r.read_bits(prefix_bits)? as u8 + 1;
        if p > dtype.bits() {
            return Err(CodecError::WidthExceedsContainer {
                group,
                width: p,
                container: dtype.bits(),
            });
        }
        let mut fields = vec![0u64; group_len - zeros];
        r.read_fields(u32::from(p), &mut fields)?;
        let mut next = fields.into_iter();
        for bit in 0..group_len {
            if z[bit / 64] >> (bit % 64) & 1 == 1 {
                data.push(0);
            } else {
                let raw = next.next().unwrap();
                let v = if signed {
                    width::from_sign_magnitude(raw as u32)
                } else {
                    raw as i32
                };
                if !dtype.contains(v) || v == 0 {
                    return Err(CodecError::CorruptValue {
                        index: value_base + data.len(),
                        value: v,
                    });
                }
                data.push(v);
            }
        }
        group += 1;
    }
    Ok(data)
}

/// Runs the kernel and the oracle over the same stream bits and demands
/// the same values (and end position), or the same typed error.
fn assert_decoders_agree(
    bytes: &[u8],
    bit_len: u64,
    dtype: FixedType,
    group_size: usize,
    (group_base, value_base): (usize, usize),
    count: usize,
    what: &str,
) -> Result<Vec<i32>, CodecError> {
    let mut oracle_reader = BitReader::with_bit_len(bytes, bit_len);
    let oracle = scalar_decode(
        &mut oracle_reader,
        dtype,
        group_size,
        group_base,
        value_base,
        count,
    );
    let mut kernel_reader = BitReader::with_bit_len(bytes, bit_len);
    let mut out = vec![0i32; count];
    let kernel = kernels::decode_groups(
        &mut kernel_reader,
        dtype,
        group_size,
        group_base,
        value_base,
        &mut out,
    )
    .map(|()| out);
    assert_eq!(kernel, oracle, "{what}");
    if oracle.is_ok() {
        assert_eq!(kernel_reader.position(), oracle_reader.position(), "{what}");
    }
    oracle
}

/// A deterministic tensor of `len` values for `dtype`: about a third
/// zeros, the rest spread over the whole magnitude range (and both signs
/// when signed).
fn decode_values(len: usize, dtype: FixedType, seed: u64) -> Vec<i32> {
    let max = dtype.max_magnitude();
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = (x >> 33) as i32;
            let magnitude = match r % 6 {
                0 | 1 => 0,
                2 => max,
                _ => (r >> 3) % (max + 1),
            };
            if dtype.signedness().is_signed() && r & 4 != 0 {
                -magnitude
            } else {
                magnitude
            }
        })
        .collect()
}

fn encode_stream(values: &[i32], dtype: FixedType, group_size: usize) -> (Vec<u8>, u64) {
    let t = Tensor::from_vec(Shape::flat(values.len()), dtype, values.to_vec()).unwrap();
    let encoded = ShapeShifterCodec::new(group_size).encode(&t).unwrap();
    (encoded.bytes().to_vec(), encoded.bit_len())
}

#[test]
fn decode_kernel_matches_scalar_oracle_at_every_group_size() {
    let dtypes = [
        FixedType::I16,
        FixedType::U16,
        FixedType::I8,
        FixedType::U8,
        FixedType::signed(5).unwrap(),
        FixedType::unsigned(12).unwrap(),
    ];
    for group_size in 1..=256usize {
        for (k, &dtype) in dtypes.iter().enumerate() {
            if (group_size + k) % 3 != 0 && group_size > 20 {
                continue; // every dtype still meets every residue class
            }
            // Three whole groups plus a partial one (when the group size
            // allows a remainder).
            let len = 3 * group_size + group_size / 2 + 1;
            let values = decode_values(len, dtype, (group_size * 31 + k) as u64);
            let (bytes, bit_len) = encode_stream(&values, dtype, group_size);
            let what = format!("group {group_size}, {dtype}");
            let decoded =
                assert_decoders_agree(&bytes, bit_len, dtype, group_size, (0, 0), len, &what);
            assert_eq!(decoded.unwrap(), values, "{what}");
        }
    }
}

#[test]
fn decode_kernel_matches_oracle_on_dense_and_all_zero_groups() {
    for dtype in [FixedType::I16, FixedType::U8] {
        for group_size in [1usize, 16, 53, 64, 65, 256] {
            let max = dtype.max_magnitude();
            let dense: Vec<i32> = (0..2 * group_size + 3)
                .map(|i| (i as i32 % max) + 1)
                .collect();
            let zeros = vec![0i32; 2 * group_size + 3];
            for values in [dense, zeros] {
                let (bytes, bit_len) = encode_stream(&values, dtype, group_size);
                let what = format!("group {group_size}, {dtype}");
                let decoded = assert_decoders_agree(
                    &bytes,
                    bit_len,
                    dtype,
                    group_size,
                    (0, 0),
                    values.len(),
                    &what,
                );
                assert_eq!(decoded.unwrap(), values, "{what}");
            }
        }
    }
}

#[test]
fn decode_kernel_matches_oracle_on_every_truncation() {
    for (dtype, group_size) in [
        (FixedType::I16, 16usize),
        (FixedType::U8, 5),
        (FixedType::I8, 100),
    ] {
        let values = decode_values(2 * group_size + 7, dtype, 7);
        let (bytes, bit_len) = encode_stream(&values, dtype, group_size);
        for cut in 0..bit_len {
            let what = format!("{dtype}, group {group_size}, cut at bit {cut}");
            let result =
                assert_decoders_agree(&bytes, cut, dtype, group_size, (2, 40), values.len(), &what);
            assert!(
                matches!(result, Err(CodecError::Stream(_))),
                "{what}: {result:?}"
            );
        }
    }
}

/// Writes one group header: `Z` (bit `i` set marks value `i` as zero;
/// values past 64 are never marked) and the encoded width `p - 1` in
/// `prefix_bits` bits.
fn write_header(w: &mut BitWriter, z: u64, group_len: u32, p: u32, prefix_bits: u32) {
    w.write_bits(z, group_len.min(64)).unwrap();
    w.write_bits(0, group_len.saturating_sub(64)).unwrap();
    w.write_bits(u64::from(p - 1), prefix_bits).unwrap();
}

#[test]
fn decode_kernel_names_hostile_groups_like_the_oracle() {
    // P wider than the container: a 12-bit unsigned container has a
    // 4-bit prefix, which can declare up to 16 bits.
    let u12 = FixedType::unsigned(12).unwrap();
    let mut w = BitWriter::new();
    write_header(&mut w, 0, 4, 3, 4);
    for v in [1u64, 2, 3, 4] {
        w.write_bits(v, 3).unwrap();
    }
    write_header(&mut w, 0, 4, 16, 4);
    w.write_bits(0, 64).unwrap();
    let bit_len = w.bit_len();
    let bytes = w.into_bytes();
    let result = assert_decoders_agree(&bytes, bit_len, u12, 4, (5, 0), 8, "wide P");
    assert_eq!(
        result,
        Err(CodecError::WidthExceedsContainer {
            group: 6,
            width: 16,
            container: 12
        })
    );

    // A zero payload field (zeros travel in Z, never in the payload),
    // in the second group, after a marked zero. U8 has a 3-bit prefix.
    let mut w = BitWriter::new();
    write_header(&mut w, 0, 4, 4, 3);
    for v in [9u64, 1, 2, 3] {
        w.write_bits(v, 4).unwrap();
    }
    write_header(&mut w, 0b0001, 4, 4, 3);
    for v in [5u64, 0, 6] {
        w.write_bits(v, 4).unwrap();
    }
    let bit_len = w.bit_len();
    let bytes = w.into_bytes();
    let result =
        assert_decoders_agree(&bytes, bit_len, FixedType::U8, 4, (0, 100), 8, "zero field");
    assert_eq!(
        result,
        Err(CodecError::CorruptValue {
            index: 106,
            value: 0
        })
    );

    // A signed negative zero: raw 1 is magnitude 0 with the sign set.
    let mut w = BitWriter::new();
    write_header(&mut w, 0b10, 3, 2, 4);
    w.write_bits(0b10, 2).unwrap(); // +1
    w.write_bits(0b01, 2).unwrap(); // -0
    let bit_len = w.bit_len();
    let bytes = w.into_bytes();
    let result = assert_decoders_agree(
        &bytes,
        bit_len,
        FixedType::I16,
        3,
        (0, 0),
        3,
        "negative zero",
    );
    assert_eq!(result, Err(CodecError::CorruptValue { index: 2, value: 0 }));

    // A wide group (header wider than one window) with a zero payload.
    let mut w = BitWriter::new();
    write_header(&mut w, 0, 70, 1, 4);
    for i in 0..70 {
        w.write_bits(u64::from(i != 66), 1).unwrap();
    }
    let bit_len = w.bit_len();
    let bytes = w.into_bytes();
    let result = assert_decoders_agree(
        &bytes,
        bit_len,
        FixedType::U16,
        70,
        (0, 0),
        70,
        "wide group",
    );
    assert_eq!(
        result,
        Err(CodecError::CorruptValue {
            index: 66,
            value: 0
        })
    );
}

/// Packs `fields` at `bits` wide via the retained scalar path, starting
/// from the same writer phase — the oracle for `pack_fields`.
fn scalar_pack(seed_bits: u32, fields: &[u64], bits: u32) -> (Vec<u8>, u64) {
    let mut w = BitWriter::new();
    if seed_bits > 0 {
        w.write_bits(0x5A5A & ((1u64 << seed_bits) - 1), seed_bits).unwrap();
    }
    for &f in fields {
        w.write_bits(f, bits).unwrap();
    }
    (w.as_bytes().to_vec(), w.bit_len())
}

proptest! {
    #[test]
    fn scan_group_matches_scalar_reference(
        values in prop::collection::vec(
            prop_oneof![3 => Just(0i32), 5 => 1i32..=32_767, 2 => -32_767..=-1i32],
            0..=256,
        ),
    ) {
        let scan = kernels::scan_group(&values, Signedness::Signed);
        prop_assert_eq!(scan.width(), width::group_width_scalar(&values, Signedness::Signed));
        prop_assert_eq!(scan.or, scalar_or(&values, Signedness::Signed));
        prop_assert_eq!(scan.z, scalar_zero_bitmap(&values));

        let mut out = [0u64; kernels::MAX_GROUP];
        let n = kernels::gather_nonzero(&values, Signedness::Signed, &mut out);
        prop_assert_eq!(n as u32, values.len() as u32 - scan.zero_count());

        // The fused encoder kernel must agree with both single-purpose ones.
        let mut fused = [0u64; kernels::MAX_GROUP];
        let (fscan, fn_) = kernels::scan_gather(&values, Signedness::Signed, &mut fused);
        prop_assert_eq!(fscan, scan);
        prop_assert_eq!(fn_, n);
        prop_assert_eq!(&fused[..fn_], &out[..n]);
    }

    #[test]
    fn zero_bitmap64_matches_scalar(
        values in prop::collection::vec(prop_oneof![Just(0i32), 1i32..100], 0..=64),
    ) {
        prop_assert_eq!(kernels::zero_bitmap64(&values), scalar_zero_bitmap(&values)[0]);
    }

    #[test]
    fn pack_fields_matches_scalar_write_loop(
        seed_bits in 0u32..16,
        bits in 1u32..=16,
        raw in prop::collection::vec(any::<u64>(), 0..=300),
    ) {
        // Field runs at payload widths 1..=16 against every writer phase.
        let mask = (1u64 << bits) - 1;
        let fields: Vec<u64> = raw.into_iter().map(|f| f & mask).collect();
        let (expect_bytes, expect_bits) = scalar_pack(seed_bits, &fields, bits);
        let mut w = BitWriter::new();
        if seed_bits > 0 {
            w.write_bits(0x5A5A & ((1u64 << seed_bits) - 1), seed_bits).unwrap();
        }
        w.pack_fields(&fields, bits).unwrap();
        prop_assert_eq!(w.bit_len(), expect_bits);
        prop_assert_eq!(w.as_bytes(), expect_bytes.as_slice());
    }

    #[test]
    fn write_words_matches_scalar_write_loop(
        seed_bits in 0u32..16,
        words in prop::collection::vec(any::<u64>(), 0..=8),
        trim in 0u64..64,
    ) {
        // A whole-word bit run (the Z vector path) against the scalar
        // 64-bit-chunk loop, at every phase and ragged tail length.
        let bit_len = (words.len() as u64 * 64).saturating_sub(trim);
        let mut expect = BitWriter::new();
        let mut actual = BitWriter::new();
        if seed_bits > 0 {
            let seed = 0x33CC & ((1u64 << seed_bits) - 1);
            expect.write_bits(seed, seed_bits).unwrap();
            actual.write_bits(seed, seed_bits).unwrap();
        }
        let mut remaining = bit_len;
        for &word in &words {
            let take = remaining.min(64) as u32;
            if take == 0 { break; }
            expect.write_bits(word & (u64::MAX >> (64 - take)), take).unwrap();
            remaining -= u64::from(take);
        }
        actual.write_words(&words, bit_len).unwrap();
        prop_assert_eq!(actual.bit_len(), expect.bit_len());
        prop_assert_eq!(actual.as_bytes(), expect.as_bytes());
    }

    #[test]
    fn read_fields_matches_scalar_read_loop(
        seed_bits in 0u32..16,
        bits in 1u32..=16,
        raw in prop::collection::vec(any::<u64>(), 0..=300),
    ) {
        let mask = (1u64 << bits) - 1;
        let fields: Vec<u64> = raw.into_iter().map(|f| f & mask).collect();
        let (bytes, bit_len) = scalar_pack(seed_bits, &fields, bits);

        // Scalar oracle: skip the seed, read per field.
        let mut oracle = BitReader::with_bit_len(&bytes, bit_len);
        if seed_bits > 0 { oracle.read_bits(seed_bits).unwrap(); }
        let expect: Vec<u64> =
            (0..fields.len()).map(|_| oracle.read_bits(bits).unwrap()).collect();
        prop_assert_eq!(expect.as_slice(), fields.as_slice());

        // Bulk path under test.
        let mut r = BitReader::with_bit_len(&bytes, bit_len);
        if seed_bits > 0 { r.read_bits(seed_bits).unwrap(); }
        let mut out = vec![0u64; fields.len()];
        r.read_fields(bits, &mut out).unwrap();
        prop_assert_eq!(out.as_slice(), fields.as_slice());
        prop_assert!(r.is_at_end());
    }

    #[test]
    fn zero_rle_bitmap_counter_matches_scalar(
        values in prop::collection::vec(
            prop_oneof![5 => Just(0i32), 2 => 1i32..1000],
            0..=400,
        ),
        run_bits in 1u8..=8,
    ) {
        let scheme = ZeroRle::new(run_bits);
        prop_assert_eq!(
            scheme.token_count(&values),
            scheme.token_count_scalar(&values)
        );
    }
}
