//! Rule C4 violation: a `wait_free` claim over an unbounded helping loop.
//!
//! Wait-freedom (Theorems 2, 6, 10) requires a bound on the steps any
//! invocation takes regardless of other processes. This routine retries
//! until the detector nominates the caller — which may never happen — yet
//! claims `wait_free` with no `#[conform(bound = "…")]` on the loop.

use upsilon_sim::{Ctx, ProcessId};

/// Spins on the failure detector until self-nomination.
// #[conform(wait_free)]
pub async fn helping_wait(ctx: &mut Ctx<ProcessId>) {
    loop {
        let leader = ctx.query_fd().await;
        if leader == ctx.pid() {
            return;
        }
        ctx.yield_step().await;
    }
}
