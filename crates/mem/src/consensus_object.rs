//! `m`-process consensus objects.
//!
//! Corollary 4 of the paper compares "solving `n + 1`-process consensus
//! using `n`-process consensus (objects) and registers" with set-agreement.
//! An `m`-process consensus object is an atomic object that returns the
//! first proposed value to every proposer, but may be accessed by at most a
//! fixed set of `m` processes — accessing it from outside the set is a type
//! violation (modelled as a panic, i.e. undefined behaviour surfaced
//! loudly).

use upsilon_sim::{Access, Ctx, FdValue, Key, ObjectType, ProcessId, ProcessSet};

/// State of an `m`-process consensus object.
#[derive(Clone, Debug)]
pub struct ConsensusObject {
    allowed: ProcessSet,
    decided: Option<u64>,
}

impl ConsensusObject {
    /// A consensus object accessible by exactly the processes in `allowed`.
    pub fn new(allowed: ProcessSet) -> Self {
        assert!(
            !allowed.is_empty(),
            "a consensus object needs at least one allowed process"
        );
        ConsensusObject {
            allowed,
            decided: None,
        }
    }

    /// The decided value, if any (post-run inspection).
    pub fn decided(&self) -> Option<u64> {
        self.decided
    }

    /// The access set.
    pub fn allowed(&self) -> ProcessSet {
        self.allowed
    }
}

/// The single operation of a consensus object.
#[derive(Clone, Copy, Debug)]
pub struct Propose(pub u64);

impl ObjectType for ConsensusObject {
    type Op = Propose;
    type Resp = u64;

    fn invoke(&mut self, caller: ProcessId, Propose(v): Propose) -> u64 {
        assert!(
            self.allowed.contains(caller),
            "type violation: {caller} accessed a consensus object restricted to {}",
            self.allowed
        );
        *self.decided.get_or_insert(v)
    }

    fn access(_op: &Propose) -> Access {
        // `Update` is required here: a proposal reads the decided slot and
        // may write it (first-propose-wins), so in the coarse 3-value
        // `Access` lattice nothing finer is sound — `Read` would hide the
        // write, and `Write(c)` claims a response independent of prior
        // state, while the response *is* the prior state when one exists.
        // The finer fact — `Propose(v)` and `Propose(w)` commute exactly
        // when `v == w`, because `get_or_insert` then leaves the same slot
        // value and returns the same response in either order — is not
        // expressible per-op here; it lives in the per-op-*pair* matrix
        // that `upsilon-commute` derives from this `invoke` body and emits
        // as `upsilon_sim::commute` (verdict `CommuteIf { equal_args }`),
        // which the explorer consults on top of this classification.
        Access::Update
    }
}

/// Typed handle to a named `m`-process consensus object.
///
/// All processes constructing the handle must agree on the access set — it
/// determines the object's initial state (its *type*: `m = allowed.len()`
/// process consensus).
#[derive(Clone, Debug)]
pub struct Consensus {
    key: Key,
    allowed: ProcessSet,
}

impl Consensus {
    /// Handle to the consensus object named `key` accessible by `allowed`.
    pub fn new(key: Key, allowed: ProcessSet) -> Self {
        Consensus { key, allowed }
    }

    /// The number of processes the object supports (`m`).
    pub fn arity(&self) -> usize {
        self.allowed.len()
    }

    /// Proposes `v`; returns the object's decision (the first proposal).
    /// One atomic step.
    ///
    /// # Panics
    ///
    /// Panics (a type violation) if the caller is outside the access set.
    pub async fn propose<D: FdValue>(&self, ctx: &mut Ctx<D>, v: u64) -> u64 {
        let allowed = self.allowed;
        ctx.invoke(&self.key, || ConsensusObject::new(allowed), Propose(v))
            .await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upsilon_sim::{algo, FailurePattern, SeededRandom, SimBuilder};

    #[test]
    fn first_proposal_wins_for_everyone() {
        for seed in 0..8u64 {
            let outcome = SimBuilder::<()>::new(FailurePattern::failure_free(3))
                .adversary(SeededRandom::new(seed))
                .spawn_all(|pid| {
                    algo(move |mut ctx| async move {
                        let obj = Consensus::new(Key::new("cons"), ProcessSet::all(3));
                        let d = obj.propose(&mut ctx, pid.index() as u64 + 100).await;
                        ctx.decide(d).await;
                    })
                })
                .run();
            let decided = outcome.run.decided_values();
            assert_eq!(decided.len(), 1, "seed {seed}: consensus object must agree");
            assert!((100..103).contains(&decided[0]), "validity");
        }
    }

    #[test]
    fn object_remembers_decision() {
        let mut obj = ConsensusObject::new(ProcessSet::all(2));
        assert_eq!(obj.invoke(ProcessId(1), Propose(9)), 9);
        assert_eq!(obj.invoke(ProcessId(0), Propose(4)), 9);
        assert_eq!(obj.decided(), Some(9));
        assert_eq!(obj.allowed(), ProcessSet::all(2));
    }

    #[test]
    #[should_panic(expected = "type violation")]
    fn access_outside_the_set_is_a_type_violation() {
        let mut obj = ConsensusObject::new(ProcessSet::all(2));
        obj.invoke(ProcessId(2), Propose(1));
    }

    #[test]
    #[should_panic(expected = "at least one allowed process")]
    fn empty_access_set_rejected() {
        let _ = ConsensusObject::new(ProcessSet::EMPTY);
    }

    #[test]
    fn arity_reflects_access_set() {
        let h = Consensus::new(Key::new("c"), ProcessSet::all(4));
        assert_eq!(h.arity(), 4);
    }
}
