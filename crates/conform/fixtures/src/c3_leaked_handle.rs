//! Rule C3 violations: contexts and shared-object handles escaping the
//! algorithm body.
//!
//! Shared objects are only accessible through granted steps; a handle (or
//! the context itself) that leaks into a wrapper or closure could be
//! driven outside the schedule.

use upsilon_mem::{Register, RegisterArray};
use upsilon_sim::{Ctx, Key, ProcessId};

/// Wraps a register handle in an escape wrapper.
pub async fn leaked_handle(ctx: &Ctx<ProcessId>) -> u64 {
    let reg = Register::<u64>::new(Key::new("leak"), 0);
    let boxed = Box::new(reg);
    boxed.read(ctx).await
}

/// Captures a register-array handle in an inner closure.
pub async fn closure_capture(ctx: &Ctx<ProcessId>, arr: &RegisterArray<u64>) -> u64 {
    let pick = move |i: usize| arr.slot(i);
    pick(0).read(ctx).await
}

/// Aliases the execution context into a local.
pub async fn aliased_ctx(ctx: &Ctx<ProcessId>) {
    let stash = ctx;
    stash.yield_step().await
}
