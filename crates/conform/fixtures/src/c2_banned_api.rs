//! Rule C2 violations: host APIs inside an algorithm body.
//!
//! Algorithm steps must be deterministic functions of process state and
//! granted responses. Wall clocks and host sleeping introduce behaviour
//! the model cannot schedule or replay.

use upsilon_sim::{Ctx, ProcessId};

/// Reads the host clock and sleeps the host thread mid-protocol.
pub async fn clocked(ctx: &mut Ctx<ProcessId>) -> u64 {
    let t0 = std::time::Instant::now();
    std::thread::sleep(std::time::Duration::from_millis(0));
    ctx.yield_step().await;
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
