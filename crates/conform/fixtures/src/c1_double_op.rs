//! Rule C1 violations: step operations detached from their await points.
//!
//! The §3.1 model grants one atomic step per suspension. Stashing a step
//! future for later, or funnelling two shared operations through a single
//! await, desynchronizes algorithm code from the schedule the proofs
//! quantify over.

use std::future::Future;
use upsilon_mem::Register;
use upsilon_sim::{Ctx, ProcessId};

/// Issues a step operation without awaiting it where issued, then awaits
/// the stashed future later — zero operations mediated at that await
/// point, one operation never awaited in place.
pub async fn stashed_step(ctx: &Ctx<ProcessId>) {
    let fut = ctx.yield_step();
    fut.await
}

/// Funnels two register reads through one await point.
pub async fn double_op(ctx: &Ctx<ProcessId>, a: &Register<u64>, b: &Register<u64>) -> u64 {
    let (x, y) = both(a.read(ctx), b.read(ctx)).await;
    x + y
}

/// Sequences two futures behind one await (the vehicle of the violation;
/// itself takes no context).
async fn both<A: Future, B: Future>(a: A, b: B) -> (A::Output, B::Output) {
    (a.await, b.await)
}
