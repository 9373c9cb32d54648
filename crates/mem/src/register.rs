//! Atomic multi-writer multi-reader registers — the base objects of the
//! paper's algorithms ("we assume that the shared objects include registers,
//! i.e., objects that export only base read-write operations", §3.1).

use std::fmt;
use upsilon_sim::{Access, Ctx, FdValue, Key, ObjectType, ProcessId};

/// Bound alias for values storable in shared memory.
pub trait Value: Clone + Send + Sync + PartialEq + fmt::Debug + 'static {}

impl<T: Clone + Send + Sync + PartialEq + fmt::Debug + 'static> Value for T {}

/// The register object state: a single atomically read/written value.
#[derive(Clone, Debug)]
pub struct RegisterObject<T: Value> {
    value: T,
}

impl<T: Value> RegisterObject<T> {
    /// A register holding `initial`.
    pub fn new(initial: T) -> Self {
        RegisterObject { value: initial }
    }

    /// The current value (post-run inspection).
    pub fn value(&self) -> &T {
        &self.value
    }
}

/// Operations on a register.
#[derive(Clone, PartialEq, Debug)]
pub enum RegOp<T> {
    /// Read the current value.
    Read,
    /// Overwrite the value.
    Write(T),
}

/// Responses from a register.
#[derive(Clone, PartialEq, Debug)]
pub enum RegResp<T> {
    /// The value read.
    Value(T),
    /// Acknowledgement of a write.
    Ack,
}

impl<T: Value> ObjectType for RegisterObject<T> {
    type Op = RegOp<T>;
    type Resp = RegResp<T>;

    fn invoke(&mut self, _caller: ProcessId, op: RegOp<T>) -> RegResp<T> {
        match op {
            RegOp::Read => RegResp::Value(self.value.clone()),
            RegOp::Write(v) => {
                self.value = v;
                RegResp::Ack
            }
        }
    }

    fn access(op: &RegOp<T>) -> Access {
        match op {
            RegOp::Read => Access::Read,
            RegOp::Write(_) => Access::Write(0),
        }
    }
}

/// A typed handle to a named register.
///
/// The handle carries the initial value so that whichever process touches
/// the register first creates it in the agreed-upon state — all processes
/// running the same protocol construct identical handles.
///
/// ```no_run
/// # use upsilon_mem::Register;
/// # use upsilon_sim::{Ctx, Key};
/// # async fn algo(ctx: &mut Ctx<()>) {
/// let d: Register<Option<u64>> = Register::new(Key::new("D"), None);
/// d.write(ctx, Some(7)).await;             // one atomic step
/// assert_eq!(d.read(ctx).await, Some(7));  // one atomic step
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Register<T: Value> {
    key: Key,
    initial: T,
}

impl<T: Value> Register<T> {
    /// A handle to the register named `key`, created with `initial` on first
    /// touch.
    pub fn new(key: Key, initial: T) -> Self {
        Register { key, initial }
    }

    /// The register's key.
    pub fn key(&self) -> &Key {
        &self.key
    }

    /// Reads the register. One atomic step.
    pub async fn read<D: FdValue>(&self, ctx: &mut Ctx<D>) -> T {
        let init = self.initial.clone();
        match ctx
            .invoke(&self.key, || RegisterObject::new(init), RegOp::Read)
            .await
        {
            RegResp::Value(v) => v,
            RegResp::Ack => unreachable!("read returns a value"),
        }
    }

    /// Writes `v` to the register. One atomic step.
    pub async fn write<D: FdValue>(&self, ctx: &mut Ctx<D>, v: T) {
        let init = self.initial.clone();
        match ctx
            .invoke(&self.key, || RegisterObject::new(init), RegOp::Write(v))
            .await
        {
            RegResp::Ack => {}
            RegResp::Value(_) => unreachable!("write returns an ack"),
        }
    }
}

/// An array of registers indexed by process (one single-writer slot per
/// process by convention, though writes are not enforced): the ubiquitous
/// `R[1..n+1]` pattern of the paper's reduction algorithms (Fig. 3 Task 1,
/// §5.3 timestamps).
#[derive(Clone, Debug)]
pub struct RegisterArray<T: Value> {
    base: Key,
    size: usize,
    initial: T,
}

impl<T: Value> RegisterArray<T> {
    /// An array handle of `size` registers named `base[0..size]`, each
    /// created holding `initial`.
    pub fn new(base: Key, size: usize, initial: T) -> Self {
        RegisterArray {
            base,
            size,
            initial,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.size
    }

    /// Whether the array has zero slots.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Handle to slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn slot(&self, i: usize) -> Register<T> {
        assert!(i < self.size, "slot {i} out of bounds ({})", self.size);
        Register::new(self.base.at(i as u64), self.initial.clone())
    }

    /// Handle to the calling process's own slot.
    pub fn mine<D: FdValue>(&self, ctx: &mut Ctx<D>) -> Register<T> {
        self.slot(ctx.pid().index())
    }

    /// Writes the caller's own slot. One atomic step.
    pub async fn write_mine<D: FdValue>(&self, ctx: &mut Ctx<D>, v: T) {
        self.mine(ctx).write(ctx, v).await
    }

    /// Reads slot `i`. One atomic step.
    // The bound override breaks the name-based await graph's apparent
    // `read -> read` cycle: this delegates to `Register::read` (one step).
    // #[conform(bound = "1")]
    pub async fn read<D: FdValue>(&self, ctx: &mut Ctx<D>, i: usize) -> T {
        self.slot(i).read(ctx).await
    }

    /// Reads every slot in index order (a *collect*: `size` steps, not
    /// atomic as a whole — use a snapshot object when atomicity across slots
    /// matters).
    pub async fn collect<D: FdValue>(&self, ctx: &mut Ctx<D>) -> Vec<T> {
        let mut out = Vec::with_capacity(self.size);
        // #[conform(bound = "n_plus_1")]
        for i in 0..self.size {
            out.push(self.read(ctx, i).await);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upsilon_sim::{algo, FailurePattern, SimBuilder};

    #[test]
    fn register_object_sequential_semantics() {
        let mut r = RegisterObject::new(0u64);
        assert!(matches!(
            r.invoke(ProcessId(0), RegOp::Read),
            RegResp::Value(0)
        ));
        assert!(matches!(
            r.invoke(ProcessId(1), RegOp::Write(9)),
            RegResp::Ack
        ));
        assert!(matches!(
            r.invoke(ProcessId(0), RegOp::Read),
            RegResp::Value(9)
        ));
        assert_eq!(*r.value(), 9);
    }

    #[test]
    fn register_read_write_through_ctx() {
        let outcome = SimBuilder::<()>::new(FailurePattern::failure_free(2))
            .spawn_all(|pid| {
                algo(move |mut ctx| async move {
                    let r = Register::new(Key::new("r"), 0u64);
                    if pid.index() == 0 {
                        r.write(&mut ctx, 42).await;
                    } else {
                        loop {
                            if r.read(&mut ctx).await == 42 {
                                ctx.decide(42).await;
                                return;
                            }
                        }
                    }
                })
            })
            .run();
        assert_eq!(outcome.run.decisions()[1], Some(42));
        let obj = outcome
            .memory
            .get::<RegisterObject<u64>>(&Key::new("r"))
            .expect("register exists");
        assert_eq!(*obj.value(), 42);
    }

    #[test]
    fn array_collect_reads_every_slot() {
        let outcome = SimBuilder::<()>::new(FailurePattern::failure_free(3))
            .spawn_all(|pid| {
                algo(move |mut ctx| async move {
                    let arr = RegisterArray::new(Key::new("a"), 3, 0u64);
                    arr.write_mine(&mut ctx, pid.index() as u64 + 1).await;
                    loop {
                        let vals = arr.collect(&mut ctx).await;
                        if vals.iter().all(|&v| v > 0) {
                            ctx.decide(vals.iter().sum()).await;
                            return;
                        }
                    }
                })
            })
            .run();
        assert_eq!(outcome.run.decided_values(), vec![6]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn array_slot_bounds_checked() {
        let arr = RegisterArray::new(Key::new("a"), 2, 0u64);
        let _ = arr.slot(2);
    }

    #[test]
    fn array_len() {
        let arr = RegisterArray::new(Key::new("a"), 4, 0u8);
        assert_eq!(arr.len(), 4);
        assert!(!arr.is_empty());
    }
}
