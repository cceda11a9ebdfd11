//! Hostile-image fuzz for `System::restore_from`.
//!
//! Mutates the checked-in `snapshot_v1.ises` — truncations, single-bit
//! flips, and length fields overwritten with 0, ±1 or `u64::MAX` — and
//! reseals each image with a fresh FNV-1a trailer, so the component
//! decoders rather than the content hash see the damage. Every restore
//! must return `Ok` or a `PersistError`: no panic, and no allocation
//! larger than [`ALLOC_CAP`]. Every image that restores `Ok` must then
//! run `run_bounded(200_000, true)` without panicking.

use ise_engine::SimRng;
use ise_sim::System;
use ise_types::persist::fnv1a;
use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Largest single allocation a restore may make: above the trace
/// ring's own bound (it pre-allocates at most 2^20 events) and far below
/// what a trusted hostile length would ask for.
const ALLOC_CAP: usize = 64 << 20;
const MUTATIONS: usize = 2_000;

/// Records the largest allocation request, so a decoder that trusts a
/// length field fails the test with the mutation named. Requests beyond
/// `4 * ALLOC_CAP` are refused (the test aborts) rather than served.
struct LargestAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        if layout.size() > 4 * ALLOC_CAP {
            return std::ptr::null_mut();
        }
        Heap.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Heap.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LargestAlloc = LargestAlloc;

/// Offsets of the `u64` length of every section (`tag` of four
/// upper-case ASCII bytes followed by a length that fits the payload).
fn section_length_offsets(payload: &[u8]) -> Vec<usize> {
    (0..payload.len().saturating_sub(12))
        .filter(|&i| {
            let tag_ok = payload[i..i + 4]
                .iter()
                .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit());
            tag_ok && i + 12 + word(payload, i + 4) as usize <= payload.len()
        })
        .map(|i| i + 4)
        .collect()
}

fn word(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn reseal(mut payload: Vec<u8>) -> Vec<u8> {
    let h = fnv1a(&payload);
    payload.extend_from_slice(&h.to_le_bytes());
    payload
}

#[test]
fn hostile_images_fail_cleanly_or_restore_and_run() {
    let golden = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/snapshot_v1.ises"
    ))
    .expect("read golden snapshot");
    let payload = &golden[..golden.len() - 8];
    let sections = section_length_offsets(payload);
    assert!(sections.len() >= 20, "found {} sections", sections.len());
    // Any word whose value could be a `usize` length or count.
    let lengths: Vec<usize> = (12..payload.len() - 8)
        .filter(|&i| (1..=payload.len() as u64).contains(&word(payload, i)))
        .collect();
    let (cfg, workload) = ise_bench::snapshot_smoke_cell();
    let mut rng = SimRng::seed_from(0x15e5);
    let (mut ok, mut err, mut failures) = (0, 0, Vec::new());
    for case in 0..MUTATIONS {
        let mut bytes = payload.to_vec();
        let what = match case % 4 {
            0 => {
                let at = rng.index(bytes.len());
                bytes.truncate(at);
                format!("truncate at {at}")
            }
            1 => {
                let (at, bit) = (rng.index(bytes.len()), rng.index(8));
                bytes[at] ^= 1 << bit;
                format!("flip bit {bit} of byte {at}")
            }
            k => {
                let at = if k == 2 {
                    sections[rng.index(sections.len())]
                } else {
                    lengths[rng.index(lengths.len())]
                };
                let v = word(&bytes, at);
                let new = [0, v.wrapping_sub(1), v.wrapping_add(1), u64::MAX][rng.index(4)];
                bytes[at..at + 8].copy_from_slice(&new.to_le_bytes());
                format!("length word at {at}: {v} -> {new}")
            }
        };
        let image = reseal(bytes);
        let mut sys = System::new(cfg, &workload).with_contract_monitor();
        LARGEST.store(0, Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let restored = sys.restore_from(&image).is_ok();
            let largest = LARGEST.load(Ordering::Relaxed);
            if restored {
                sys.run_bounded(200_000, true);
            }
            (restored, largest)
        }));
        match outcome {
            Ok((_, largest)) if largest > ALLOC_CAP => {
                failures.push(format!("{what}: allocated {largest} bytes"));
            }
            Ok((true, _)) => ok += 1,
            Ok((false, _)) => err += 1,
            Err(_) => failures.push(format!("{what}: panicked")),
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
    eprintln!("{MUTATIONS} mutations: {ok} restored Ok, {err} rejected");
    assert!(
        ok > 0 && err > 0,
        "{ok} Ok / {err} Err: the mix is not hostile"
    );
}
