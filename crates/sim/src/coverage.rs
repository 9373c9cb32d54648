//! Interleaving-coverage signal for randomized schedule search.
//!
//! Exhaustive exploration (`upsilon-check`) enumerates interleavings; a
//! fuzzer needs the opposite: a cheap, deterministic fingerprint of *which
//! interleaving behaviour a run exhibited*, so a campaign can keep the
//! schedules that did something new and drop the rest. The signal used here
//! is the sequence of **conflict pairs**: step `j` depends on step `i < j`
//! when both are [`StepKind::Op`]s on the same object (by stable [`Key`],
//! not allocation order) with conflicting [`Access`]es and `i` is the
//! latest such predecessor by a *different* process. Runs that are
//! Mazurkiewicz-equivalent (differ only by commuting independent steps)
//! produce the same conflict pairs in the same per-object order, so the
//! signal quotients out exactly the redundancy the sleep-set reduction
//! prunes — while two runs that resolve a race differently hash apart.
//!
//! [`conflict_coverage`] folds overlapping windows of the pair sequence
//! into 64-bit FNV-1a hashes; the set of window hashes is the run's
//! coverage. Growing a union of these sets over a campaign measures how
//! much of the conflict space the fuzzer has seen (`upsilon-fuzz` gates
//! its corpus on exactly this growth).

use crate::object::{Access, Key, Memory};
use crate::opsig::{self, OpSig};
use crate::oracle::FdValue;
use crate::process::ProcessId;
use crate::trace::{Run, StepKind};
use std::fmt;

/// One scheduling-relevant dependency observed in a run: on object `key`,
/// `later` performed `later_access` after `earlier` performed a
/// conflicting `earlier_access`, with no conflicting op in between.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConflictPair {
    /// The shared object both steps touched.
    pub key: Key,
    /// The process whose op came first.
    pub earlier: ProcessId,
    /// How the first op touched the object.
    pub earlier_access: Access,
    /// The process whose op came second.
    pub later: ProcessId,
    /// How the second op touched the object.
    pub later_access: Access,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental 64-bit FNV-1a, the dependency-free hash behind coverage and
/// trace fingerprints (stable across platforms and releases, unlike
/// `DefaultHasher`). It implements [`fmt::Write`], so `Debug`/`Display`
/// renderings hash without materializing strings.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds bytes into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a `u64` (little-endian) into the state.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

fn access_tag(a: Access) -> u64 {
    match a {
        Access::Read => 0,
        Access::Write(cell) => 1 + (u64::from(cell) << 2),
        Access::Update => 2,
    }
}

impl ConflictPair {
    /// A stable 64-bit fingerprint of the pair (key name and indices,
    /// both processes, both access kinds).
    pub fn fingerprint(&self) -> u64 {
        finish_pair(
            key_prefix(&self.key),
            self.earlier,
            self.earlier_access,
            self.later,
            self.later_access,
        )
    }
}

/// Hasher state after folding in a key's name and indices — the per-key
/// part of a pair fingerprint, computed once per key per run.
fn key_prefix(key: &Key) -> Fnv64 {
    let mut h = Fnv64::new();
    h.write(key.name().as_bytes());
    for &i in key.indices() {
        h.write_u64(i);
    }
    h
}

fn finish_pair(
    prefix: Fnv64,
    earlier: ProcessId,
    earlier_access: Access,
    later: ProcessId,
    later_access: Access,
) -> u64 {
    let mut h = prefix;
    h.write_u64(earlier.index() as u64);
    h.write_u64(access_tag(earlier_access));
    h.write_u64(later.index() as u64);
    h.write_u64(access_tag(later_access));
    h.finish()
}

/// Extracts the conflict pairs of a run, in schedule order.
///
/// `memory` must be the memory the run ended with (it names the objects);
/// ops on objects the memory cannot name are skipped — that cannot happen
/// for a [`SimOutcome`](crate::SimOutcome), whose memory names every
/// allocated object.
///
/// When the run recorded op signatures
/// ([`record_op_sigs`](crate::SimBuilder::record_op_sigs)), an
/// [`Access`]-lattice conflict that the per-op-pair commutativity matrix
/// ([`crate::commute`]) proves independent — e.g. two writes of the *same*
/// value to one register — is dropped: the refined dependence relation is
/// what the sleep-set explorer prunes by, so coverage stays a function of
/// the Mazurkiewicz trace under the same relation. Runs without signatures
/// use the lattice alone, as before.
pub fn conflict_pairs<D: FdValue>(run: &Run<D>, memory: &Memory) -> Vec<ConflictPair> {
    let mut pairs = Vec::new();
    walk_pairs(run, memory, |key, _prefix, earlier, ea, later, la| {
        pairs.push(ConflictPair {
            key: *key,
            earlier,
            earlier_access: ea,
            later,
            later_access: la,
        });
    });
    pairs
}

/// The shared walk behind [`conflict_pairs`] and [`conflict_coverage`]:
/// scans the run once and emits each conflict pair by reference, with the
/// key's fingerprint prefix precomputed, so the coverage path allocates
/// nothing per event (no `Key` clones, no pair materialization).
fn walk_pairs<'m, 'r, D: FdValue>(
    run: &'r Run<D>,
    memory: &'m Memory,
    mut emit: impl FnMut(&'m Key, Fnv64, ProcessId, Access, ProcessId, Access),
) {
    // Latest op per key, replaced as the run walks forward. Keys are few
    // per run, so a linear scan beats a map here.
    #[allow(clippy::type_complexity)]
    let mut last: Vec<(&'m Key, Fnv64, ProcessId, Access, Option<&'r OpSig>)> = Vec::new();
    for ev in run.events() {
        let StepKind::Op { object, access, .. } = &ev.kind else {
            continue;
        };
        let sig = ev.kind.sig();
        let Some(key) = memory.name_of(*object) else {
            continue;
        };
        match last.iter_mut().find(|(k, ..)| *k == key) {
            Some(entry) => {
                let conflicts = entry.2 != ev.pid
                    && entry.3.conflicts_with(*access)
                    && !opsig::sigs_commute(entry.4, sig);
                if conflicts {
                    emit(key, entry.1, entry.2, entry.3, ev.pid, *access);
                }
                entry.2 = ev.pid;
                entry.3 = *access;
                entry.4 = sig;
            }
            None => last.push((key, key_prefix(key), ev.pid, *access, sig)),
        }
    }
}

/// The coverage fingerprint of a run: the set of FNV-1a hashes of every
/// overlapping window of up to `window` consecutive conflict-pair
/// fingerprints (windows shorter than `window` at the front included, so
/// a run with any conflict at all has non-empty coverage).
///
/// Returned sorted and deduplicated, so equal runs produce equal vectors
/// and campaign merges are order-independent.
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn conflict_coverage<D: FdValue>(run: &Run<D>, memory: &Memory, window: usize) -> Vec<u64> {
    assert!(window >= 1, "coverage window must be at least 1");
    // `recent` holds the last `window` pair fingerprints, oldest first; each
    // emitted pair contributes the hash of the whole buffer — exactly the
    // overlapping-window scheme, computed streaming in one pass.
    let mut recent: Vec<u64> = Vec::with_capacity(window);
    let mut cov = Vec::new();
    walk_pairs(run, memory, |_key, prefix, earlier, ea, later, la| {
        let p = finish_pair(prefix, earlier, ea, later, la);
        if recent.len() == window {
            recent.remove(0);
        }
        recent.push(p);
        let mut h = Fnv64::new();
        for &q in &recent {
            h.write_u64(q);
        }
        cov.push(h.finish());
    });
    cov.sort_unstable();
    cov.dedup();
    cov
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{algo, SimBuilder};
    use crate::failure::FailurePattern;
    use crate::object::ObjectType;
    use crate::sched::Scripted;

    #[derive(Clone, Debug, Default)]
    struct Cell(u64);
    #[derive(Debug)]
    enum Op {
        Write(u64),
        Read,
    }
    impl ObjectType for Cell {
        type Op = Op;
        type Resp = u64;
        fn invoke(&mut self, _p: ProcessId, op: Op) -> u64 {
            match op {
                Op::Write(v) => {
                    self.0 = v;
                    0
                }
                Op::Read => self.0,
            }
        }
        fn access(op: &Op) -> Access {
            match op {
                Op::Write(_) => Access::Write(0),
                Op::Read => Access::Read,
            }
        }
    }

    fn race(schedule: Vec<ProcessId>) -> (Vec<ConflictPair>, Vec<u64>) {
        let outcome = SimBuilder::<()>::new(FailurePattern::failure_free(2))
            .adversary(Scripted::new(schedule))
            .spawn_all(|pid| {
                algo(move |mut ctx| async move {
                    let k = Key::new("c");
                    ctx.invoke(&k, Cell::default, Op::Write(pid.index() as u64))
                        .await;
                    ctx.invoke(&k, Cell::default, Op::Read).await;
                })
            })
            .run();
        (
            conflict_pairs(&outcome.run, &outcome.memory),
            conflict_coverage(&outcome.run, &outcome.memory, 4),
        )
    }

    #[test]
    fn alternating_schedule_yields_pairs() {
        let p0 = ProcessId(0);
        let p1 = ProcessId(1);
        let (pairs, cov) = race(vec![p0, p1, p0, p1]);
        // w0, w1 conflict; w1, r0 conflict; r0 || r1 commute.
        assert_eq!(pairs.len(), 2);
        assert_eq!(
            (pairs[0].earlier, pairs[0].later),
            (p0, p1),
            "write-after-write"
        );
        assert_eq!(
            (pairs[1].earlier, pairs[1].later),
            (p1, p0),
            "read-after-write"
        );
        assert!(!cov.is_empty());
        assert!(cov.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
    }

    #[test]
    fn solo_prefixes_have_no_pairs() {
        let p0 = ProcessId(0);
        let p1 = ProcessId(1);
        // p0 fully first: its ops conflict with p1's later write, but p0's
        // own two ops never pair with each other.
        let (pairs, _) = race(vec![p0, p0, p1, p1]);
        assert!(pairs.iter().all(|p| p.earlier != p.later));
    }

    #[test]
    fn different_race_resolutions_hash_apart() {
        let p0 = ProcessId(0);
        let p1 = ProcessId(1);
        let (_, a) = race(vec![p0, p1, p0, p1]);
        let (_, b) = race(vec![p1, p0, p1, p0]);
        assert_ne!(a, b, "opposite race winners must differ in coverage");
        let (_, a2) = race(vec![p0, p1, p0, p1]);
        assert_eq!(a, a2, "coverage is deterministic");
    }

    #[test]
    fn reads_commute_and_produce_no_coverage() {
        let outcome = SimBuilder::<()>::new(FailurePattern::failure_free(2))
            .spawn_all(|_| {
                algo(move |mut ctx| async move {
                    ctx.invoke(&Key::new("c"), Cell::default, Op::Read).await;
                })
            })
            .run();
        assert!(conflict_pairs(&outcome.run, &outcome.memory).is_empty());
        assert!(conflict_coverage(&outcome.run, &outcome.memory, 4).is_empty());
    }

    #[test]
    fn fnv_is_stable() {
        let mut h = Fnv64::new();
        h.write(b"upsilon");
        // Pinned so coverage hashes stay comparable across releases.
        assert_eq!(h.finish(), 0xd837_5cb5_5d00_468d);
    }

    #[test]
    fn fmt_write_is_byte_equivalent() {
        use std::fmt::Write as _;
        let mut a = Fnv64::new();
        a.write(b"k[3]=7");
        let mut b = Fnv64::new();
        let _ = write!(b, "k[{}]={}", 3, 7);
        assert_eq!(a.finish(), b.finish());
    }
}
