//! Helpers for wiring proposal vectors into per-process algorithms.

use upsilon_sim::{AlgoFn, FdValue, ProcessId};

/// Turns a proposal vector into `(pid, algorithm)` pairs, skipping `None`
/// entries (non-participants, cf. the §5.2 Remark).
pub fn to_algorithms<D: FdValue>(
    proposals: &[Option<u64>],
    mut make: impl FnMut(u64) -> AlgoFn<D>,
) -> Vec<(ProcessId, AlgoFn<D>)> {
    proposals
        .iter()
        .enumerate()
        .filter_map(|(i, v)| v.map(|v| (ProcessId(i), make(v))))
        .collect()
}

/// The canonical distinct-proposals vector `[1, 2, …, n+1]` used by most
/// experiments (distinct inputs are the hard case for set agreement).
pub fn distinct_proposals(n_plus_1: usize) -> Vec<Option<u64>> {
    (0..n_plus_1).map(|i| Some(i as u64 + 1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use upsilon_sim::algo;

    #[test]
    fn skips_non_participants() {
        let algos = to_algorithms::<()>(&[Some(1), None, Some(3)], |v| {
            algo(move |mut ctx| async move {
                ctx.decide(v).await;
            })
        });
        let pids: Vec<ProcessId> = algos.iter().map(|(p, _)| *p).collect();
        assert_eq!(pids, vec![ProcessId(0), ProcessId(2)]);
    }

    #[test]
    fn distinct_proposals_shape() {
        assert_eq!(distinct_proposals(3), vec![Some(1), Some(2), Some(3)]);
    }
}
