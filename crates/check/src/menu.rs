//! Bounded failure-detector output mutation.
//!
//! The model quantifies over failure-detector histories `H(p, t)` as well
//! as schedules, so a systematic explorer must branch on *what the detector
//! says*, not only on *who moves*. An [`FdMenu`] gives, for the k-th query
//! of each process, the finite list of candidate values worth exploring;
//! the [`MenuOracle`] plays one scripted pick per query and logs how many
//! alternatives existed, letting the explorer spawn a sibling branch per
//! unexplored candidate.
//!
//! Each fully-scripted branch still runs a deterministic oracle — within
//! one run the sampled values extend to a history that is a function of
//! `(p, t)`, as §3 requires; different pick vectors are different histories
//! of the same detector, which is exactly the quantification the paper's
//! theorems range over.

use std::sync::{Arc, Mutex};
use upsilon_sim::{FdValue, Oracle, ProcessId, Time};

/// The candidate failure-detector values to explore per query.
///
/// `candidates(p, k)` must be non-empty, deterministic, and independent of
/// the schedule (it may depend only on `p` and on how many queries `p` has
/// made — the explorer re-executes prefixes from scratch and relies on the
/// same menu being served every time).
pub trait FdMenu<D: FdValue>: Send + Sync {
    /// Candidate values for the k-th query (0-based) of process `p`.
    fn candidates(&self, p: ProcessId, k: usize) -> Vec<D>;
}

/// A menu with a single candidate: the detector's output is pinned and the
/// explorer never branches on it.
#[derive(Clone, Debug)]
pub struct ConstantMenu<D>(pub D);

impl<D: FdValue + Sync> FdMenu<D> for ConstantMenu<D> {
    fn candidates(&self, _p: ProcessId, _k: usize) -> Vec<D> {
        vec![self.0.clone()]
    }
}

/// Bounded mutation around a base value: the first `budget` queries of each
/// process offer the base plus every mutant; later queries are pinned to
/// the base (the history has stabilized).
#[derive(Clone, Debug)]
pub struct MutatingMenu<D> {
    /// The stable value.
    pub base: D,
    /// Alternative outputs explored while the budget lasts.
    pub mutants: Vec<D>,
    /// How many queries per process may see a mutant.
    pub budget: usize,
}

impl<D: FdValue + Sync> FdMenu<D> for MutatingMenu<D> {
    fn candidates(&self, _p: ProcessId, k: usize) -> Vec<D> {
        let mut c = vec![self.base.clone()];
        if k < self.budget {
            c.extend(self.mutants.iter().cloned());
        }
        c
    }
}

/// A menu defined by a plain function, for tests and one-off configs.
#[derive(Debug)]
pub struct FnMenu<F>(pub F);

impl<D, F> FdMenu<D> for FnMenu<F>
where
    D: FdValue,
    F: Fn(ProcessId, usize) -> Vec<D> + Send + Sync,
{
    fn candidates(&self, p: ProcessId, k: usize) -> Vec<D> {
        (self.0)(p, k)
    }
}

/// One failure-detector query as the menu oracle served it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QueryRecord {
    /// The querying process.
    pub pid: ProcessId,
    /// Its query index (0-based).
    pub k: u32,
    /// How many candidates the menu offered.
    pub candidates: u32,
    /// Which candidate was served.
    pub pick: u32,
}

/// An [`Oracle`] that serves menu candidates according to a per-process
/// pick script (missing entries default to candidate 0), logging every
/// query so the explorer can branch on the alternatives.
pub struct MenuOracle<D: FdValue> {
    menu: Arc<dyn FdMenu<D>>,
    picks: Vec<Vec<u32>>,
    counts: Vec<u32>,
    log: Arc<Mutex<Vec<QueryRecord>>>,
}

impl<D: FdValue> std::fmt::Debug for MenuOracle<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MenuOracle")
            .field("picks", &self.picks)
            .finish_non_exhaustive()
    }
}

impl<D: FdValue> MenuOracle<D> {
    /// An oracle over `menu` for `n_plus_1` processes playing `picks`
    /// (padded with zeros; processes beyond `picks.len()` always pick 0).
    pub fn new(menu: Arc<dyn FdMenu<D>>, n_plus_1: usize, mut picks: Vec<Vec<u32>>) -> Self {
        picks.resize(n_plus_1, Vec::new());
        MenuOracle {
            menu,
            picks,
            counts: vec![0; n_plus_1],
            log: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// An oracle positioned mid-history: like [`MenuOracle::new`] but with
    /// each process's query counter pre-advanced to `counts[p]`, so the
    /// oracle serves the (k+1)-th query of a process whose first k queries
    /// happened before a save point (see [`SessionSave::query_counts`]) —
    /// the oracle a one-off [`Session::restore`] installs. The explorer
    /// instead moves its one live oracle back in place on every rewind.
    ///
    /// [`SessionSave::query_counts`]: upsilon_sim::SessionSave::query_counts
    /// [`Session::restore`]: upsilon_sim::Session::restore
    pub fn with_counts(
        menu: Arc<dyn FdMenu<D>>,
        n_plus_1: usize,
        picks: Vec<Vec<u32>>,
        counts: &[u64],
    ) -> Self {
        let mut oracle = Self::new(menu, n_plus_1, picks);
        oracle.set_counts(counts);
        oracle
    }

    /// Moves the oracle to another point of its history in place: it plays
    /// `picks` (one script per process) from query counts `counts`, and its
    /// log keeps the `Σ counts` queries served before that point. Reuses the
    /// oracle's storage, so a rewind allocates nothing once the scripts have
    /// grown to their size.
    pub(crate) fn reposition(&mut self, picks: &[Vec<u32>], counts: &[u64]) {
        assert_eq!(picks.len(), self.picks.len(), "one script per process");
        self.picks.clone_from_slice(picks);
        self.set_counts(counts);
        let served: u64 = counts.iter().sum();
        self.log
            .lock()
            .expect("menu log lock")
            .truncate(served as usize);
    }

    fn set_counts(&mut self, counts: &[u64]) {
        assert_eq!(
            counts.len(),
            self.counts.len(),
            "one query count per process"
        );
        for (slot, &c) in self.counts.iter_mut().zip(counts) {
            *slot = c as u32;
        }
    }

    /// A handle to the query log, readable after the run (the oracle itself
    /// is consumed by the simulator).
    pub fn log(&self) -> Arc<Mutex<Vec<QueryRecord>>> {
        Arc::clone(&self.log)
    }
}

impl<D: FdValue> Oracle<D> for MenuOracle<D> {
    fn output(&mut self, p: ProcessId, _t: Time) -> D {
        let k = self.counts[p.index()];
        self.counts[p.index()] += 1;
        let cands = self.menu.candidates(p, k as usize);
        assert!(!cands.is_empty(), "menu served no candidates for {p}@{k}");
        let wanted = self.picks[p.index()].get(k as usize).copied().unwrap_or(0);
        let pick = (wanted as usize).min(cands.len() - 1) as u32;
        self.log.lock().expect("menu log lock").push(QueryRecord {
            pid: p,
            k,
            candidates: cands.len() as u32,
            pick,
        });
        cands[pick as usize].clone()
    }

    fn describe(&self) -> String {
        "menu".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn menu_oracle_plays_picks_and_logs() {
        let menu: Arc<dyn FdMenu<u8>> = Arc::new(MutatingMenu {
            base: 0u8,
            mutants: vec![7, 9],
            budget: 1,
        });
        let mut oracle = MenuOracle::new(menu, 2, vec![vec![1], vec![]]);
        let log = oracle.log();
        // p1's first query picks mutant 7; its second is past the budget.
        assert_eq!(oracle.output(ProcessId(0), Time(0)), 7);
        assert_eq!(oracle.output(ProcessId(0), Time(1)), 0);
        // p2 defaults to the base.
        assert_eq!(oracle.output(ProcessId(1), Time(2)), 0);
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 3);
        assert_eq!(
            log[0],
            QueryRecord {
                pid: ProcessId(0),
                k: 0,
                candidates: 3,
                pick: 1
            }
        );
        assert_eq!(log[1].candidates, 1);
    }

    #[test]
    fn out_of_range_picks_clamp() {
        let menu: Arc<dyn FdMenu<u8>> = Arc::new(ConstantMenu(5u8));
        let mut oracle = MenuOracle::new(menu, 1, vec![vec![42]]);
        assert_eq!(oracle.output(ProcessId(0), Time(0)), 5);
    }
}
