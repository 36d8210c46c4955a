// Tests may unwrap/expect freely: a panic here is a test failure, not a
// product-code defect (the workspace clippy lints exempt test code).
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Warm `ModelStore::get_into` allocates no storage that grows with the
//! record: the block buffer, the session's value scratch and the caller's
//! tensor are all reused, so the bytes allocated per lookup are the same
//! for a record of 256 Ki values as for one of 1 Ki. Asserted with a
//! byte-counting global allocator. This file is a dedicated
//! integration-test binary holding exactly one test: the counter is
//! process-global, so a concurrently running test would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ss_store::{MemoryProvider, ModelStore, ModelWriter};
use ss_tensor::{FixedType, Shape, Tensor};

/// Counts the bytes of every allocation and reallocation (frees are
/// irrelevant to the claim) and forwards to the system allocator.
struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

// Unsafe is confined to forwarding the GlobalAlloc contract verbatim to
// the system allocator; the counter itself is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocated_bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Deterministic weight-like tensor (LCG; no RNG crate).
fn tensor(len: usize, seed: u64) -> Tensor {
    let mut x = seed;
    let vals: Vec<i32> = (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = x >> 33;
            match r % 8 {
                0 => 0,
                1..=5 => (r % 31) as i32 - 15,
                _ => (r % 3000) as i32 - 1500,
            }
        })
        .collect();
    Tensor::from_vec(Shape::flat(len), FixedType::I16, vals).unwrap()
}

/// Bytes allocated by `lookups` warm `get_into` calls of `name`.
fn bytes_per_lookups(
    store: &mut ModelStore<'_>,
    name: &str,
    out: &mut Tensor,
    lookups: u64,
) -> u64 {
    let before = allocated_bytes();
    for _ in 0..lookups {
        store.get_into(name, out).unwrap();
    }
    allocated_bytes() - before
}

#[test]
fn warm_get_into_allocation_does_not_grow_with_record_size() {
    let provider = MemoryProvider::new();
    let small = tensor(1 << 10, 1);
    let large = tensor(1 << 18, 2);
    let mut writer = ModelWriter::new(&provider, "model");
    writer.append_tensor("small", 0, &small).unwrap();
    writer.append_tensor("large", 1, &large).unwrap();
    writer.finish().unwrap();
    let mut store = ModelStore::open(&provider, "model").unwrap();
    let mut out = Tensor::zeros(Shape::flat(0), FixedType::I16);

    // Warm-up: the tensor and the session trade buffers on every call, so
    // two calls of the largest record grow both to their high-water mark.
    for name in ["large", "large", "small", "large", "small"] {
        store.get_into(name, &mut out).unwrap();
        let want = if name == "large" { &large } else { &small };
        assert_eq!(&out, want, "{name} must round-trip");
    }

    const LOOKUPS: u64 = 8;
    let small_bytes = bytes_per_lookups(&mut store, "small", &mut out, LOOKUPS);
    let large_bytes = bytes_per_lookups(&mut store, "large", &mut out, LOOKUPS);
    // The large record decodes 256x the values (1 MiB of them); any
    // per-lookup buffer that tracked it would add at least that much.
    assert!(
        large_bytes <= small_bytes + 1024,
        "warm get_into of a 256 Ki-value record allocated {large_bytes} bytes over \
         {LOOKUPS} lookups, against {small_bytes} for a 1 Ki-value record"
    );
    store.get_into("large", &mut out).unwrap();
    assert_eq!(out, large);

    // The measurement is live: `get` hands its fresh tensor the session's
    // warm buffer and leaves the session an empty one, so the next lookup
    // must allocate the record's values again.
    let before = allocated_bytes();
    let fresh = store.get("large").unwrap();
    store.get_into("large", &mut out).unwrap();
    assert!(
        allocated_bytes() - before >= 4 * large.len() as u64,
        "the counting allocator missed the buffer get gave away"
    );
    assert_eq!(fresh, large);
    assert_eq!(out, large);
}
