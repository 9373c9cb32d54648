//! Naming an object allocates nothing.
//!
//! Every simulated step names the shared object it touches, so building a
//! [`Key`], copying, comparing and hashing it, and looking it up in a
//! populated [`Memory`] must stay off the heap. A counting global allocator
//! measures the bytes the current thread allocates inside the measured
//! closure and the test asserts that figure is zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use upsilon_sim::{algo, FailurePattern, Key, ObjectType, ProcessId, SimBuilder};

struct Counting;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with` so an allocation during thread teardown is not an error.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's guarantees are exactly the ones `System` requires; the counter
// is a thread-local `Cell` with a const initializer, so updating it never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes the current thread allocated while running `f`.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (ALLOCATED.with(Cell::get) - before, out)
}

#[derive(Clone, Debug, Default)]
struct Cell64(u64);

impl ObjectType for Cell64 {
    type Op = u64;
    type Resp = ();
    fn invoke(&mut self, _: ProcessId, v: u64) {
        self.0 = v;
    }
}

/// The deepest key the paper's protocols build: a `u-conv[r][k]` instance,
/// its second converge phase, and one register of the register-based
/// snapshot beneath it.
fn deepest(r: u64, k: u64, i: u64) -> Key {
    Key::new("u-conv").at(r).at(k).at(1).at(i)
}

#[test]
fn naming_an_object_allocates_nothing() {
    let (bytes, (a, b)) = allocated_by(|| {
        let a = deepest(black_box(3), black_box(2), black_box(1));
        let b = a;
        (a, b)
    });
    assert_eq!(bytes, 0, "building and copying {a} allocated {bytes} bytes");

    let (bytes, _) = allocated_by(|| {
        assert_eq!(black_box(a), black_box(b));
        assert!(black_box(a) < deepest(3, 2, 2));
        let mut h = DefaultHasher::new();
        black_box(a).hash(&mut h);
        black_box(h.finish())
    });
    assert_eq!(
        bytes, 0,
        "comparing and hashing {a} allocated {bytes} bytes"
    );
}

#[test]
fn memory_lookup_allocates_nothing() {
    let outcome = SimBuilder::<()>::new(FailurePattern::failure_free(2))
        .spawn_all(|pid| {
            algo(move |mut ctx| async move {
                for r in 0..4 {
                    let key = deepest(r, 1, pid.index() as u64);
                    ctx.invoke(&key, Cell64::default, r).await;
                }
            })
        })
        .run();
    let memory = outcome.memory;
    assert_eq!(memory.len(), 8);

    let (bytes, found) = allocated_by(|| {
        let hit = memory
            .get::<Cell64>(&deepest(black_box(3), 1, 0))
            .map(|c| c.0);
        let miss = memory.get::<Cell64>(&deepest(black_box(9), 1, 0)).is_none();
        (hit, miss)
    });
    assert_eq!(found, (Some(3), true));
    assert_eq!(bytes, 0, "Memory::get allocated {bytes} bytes");
}
