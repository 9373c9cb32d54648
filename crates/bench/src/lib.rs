#![forbid(unsafe_code)]
//! # upsilon-bench
//!
//! The `experiments` binary for the reproduction of *"On the weakest
//! failure detector ever"*. Each section of the `experiments`
//! binary regenerates one paper artifact; see DESIGN.md's experiment index
//! (E1–E16) and EXPERIMENTS.md for the paper-vs-measured record.

use upsilon_core::experiment::{AgreementConfig, Sched};
use upsilon_core::fd::UpsilonNoise;
use upsilon_core::sim::{FailurePattern, Time};

/// The canonical worst-case configuration for latency experiments:
/// lock-step scheduling and constant-Π noise, so decisions genuinely wait
/// for Υ's stabilization.
pub fn worst_case_config(pattern: FailurePattern, stabilize_at: Time) -> AgreementConfig {
    AgreementConfig::new(pattern)
        .sched(Sched::RoundRobin)
        .noise(UpsilonNoise::ConstantAll)
        .stabilize_at(stabilize_at)
}

/// The canonical average-case configuration: seeded random scheduling and
/// random noise.
pub fn average_case_config(pattern: FailurePattern, seed: u64) -> AgreementConfig {
    AgreementConfig::new(pattern).seed(seed)
}

/// A pattern with `crashes` processes failing at staggered times.
///
/// The canonical implementation moved to
/// [`upsilon_core::experiment::staggered_crashes`] so the scenario cell
/// runners can share it; this re-export keeps the bench-side name.
pub use upsilon_core::experiment::staggered_crashes;

#[cfg(test)]
mod tests {
    use super::*;
    use upsilon_core::sim::ProcessId;

    #[test]
    fn staggered_crashes_shape() {
        let p = staggered_crashes(5, 3, 40);
        assert_eq!(p.faulty().len(), 3);
        assert_eq!(p.crash_time(ProcessId(0)), Some(Time(40)));
        assert_eq!(p.crash_time(ProcessId(2)), Some(Time(100)));
    }

    #[test]
    fn config_helpers() {
        let w = worst_case_config(FailurePattern::failure_free(3), Time(100));
        assert_eq!(w.sched, Sched::RoundRobin);
        let a = average_case_config(FailurePattern::failure_free(3), 7);
        assert_eq!(a.seed, 7);
    }
}
