//! Canonical run fingerprints: a 64-bit digest of a run prefix that is
//! invariant under commuting independent steps.
//!
//! [`trace_fingerprint`] digests a run prefix into 64 bits such that two
//! Mazurkiewicz-equivalent prefixes (equal up to reordering of commuting
//! steps) hash identically, while prefixes that differ in any
//! behaviour-relevant way hash differently (modulo 64-bit collisions):
//!
//! * **shared state** enters via [`Memory::fingerprint64`], which combines
//!   per-object digests of `key:type=Debug-state` with a commutative fold —
//!   object *ids* are assigned at first touch and therefore vary across
//!   equivalent interleavings, but key names do not;
//! * **per-process control state** enters as one sequential digest per
//!   process over that process's own event subsequence — kinds, object key
//!   names, accesses, op signatures, `op -> resp` renderings and
//!   failure-detector samples, but **not** times: commuting swaps perturb
//!   the global ordering (and thus times) while preserving each process's
//!   subsequence. A deterministic algorithm that has seen the same
//!   responses is in the same continuation state, so the digest is a sound
//!   proxy for the suspended state machine — *provided responses are
//!   captured*. They are read from the events' `detail`, so only a run
//!   recorded at [`TraceLevel::Full`] has them in its fingerprint;
//! * **crash/finish status** enters as the crashed *set* and finished flags
//!   (crash delivery times are path-determined and already reflected in the
//!   per-process subsequences).
//!
//! The fingerprint is computed in one pass over the prefix and every
//! memory object. Swarm's packed-vs-standalone differential compares runs
//! by it, and [`Session::fingerprint`](crate::Session::fingerprint)
//! applies it to a session's live run and memory.
//!
//! [`TraceLevel::Full`]: crate::TraceLevel::Full

use crate::object::Memory;
use crate::oracle::FdValue;
use crate::process::ProcessId;
use crate::trace::{Run, StepKind};
use std::fmt;
use std::fmt::Write as _;

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub(crate) const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// An FNV-1a accumulator that implements [`fmt::Write`], so `Debug`/`Display`
/// renderings hash without materializing strings.
#[derive(Clone, Debug)]
pub struct FnvWrite(u64);

impl Default for FnvWrite {
    fn default() -> Self {
        Self::new()
    }
}

impl FnvWrite {
    /// A fresh accumulator at the FNV offset basis.
    pub fn new() -> Self {
        FnvWrite(FNV_OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// The accumulated digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for FnvWrite {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// Digest of one process's event subsequence (times excluded — see the
/// module docs for why that is exactly the Mazurkiewicz-invariant choice).
/// Every event ends with `;`; an `Op` event is `O/key/access[/sig][/op ->
/// resp];`.
fn proc_digest<D: FdValue>(run: &Run<D>, memory: &Memory, p: ProcessId) -> u64 {
    let mut w = FnvWrite::new();
    for ev in run.events_of(p) {
        match &ev.kind {
            StepKind::Op {
                object,
                access,
                sig,
                detail,
            } => {
                // Memory only grows, so every object a recorded op touched
                // is named in the final memory.
                let key = memory
                    .name_of(*object)
                    .expect("an op's object is allocated in the run's memory");
                let _ = write!(w, "O/{key}/{access}");
                if let Some(sig) = sig {
                    let _ = write!(w, "/{sig:?}");
                }
                if let Some(detail) = detail {
                    let _ = write!(w, "/{detail}");
                }
            }
            StepKind::Query(d) => {
                let _ = write!(w, "Q/{d:?}");
            }
            StepKind::Output(o) => {
                let _ = write!(w, "P/{o}");
            }
            StepKind::NoOp => w.write_bytes(b"N"),
        }
        w.write_bytes(b";");
    }
    w.finish()
}

/// The canonical 64-bit fingerprint of a run prefix against its final
/// shared memory. Equal across Mazurkiewicz-equivalent prefixes; see the
/// module docs for what it captures at each trace level.
pub fn trace_fingerprint<D: FdValue>(run: &Run<D>, memory: &Memory) -> u64 {
    let mut w = FnvWrite::new();
    w.write_u64(memory.fingerprint64());
    w.write_u64(run.n_plus_1() as u64);
    for i in 0..run.n_plus_1() {
        let p = ProcessId(i);
        w.write_u64(i as u64);
        w.write_u64(proc_digest(run, memory, p));
        let crashed = run.crash_observed(p).is_some();
        w.write_bytes(&[u8::from(crashed), u8::from(run.finished(p))]);
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_write_matches_reference_vector() {
        // Same constants as `coverage::Fnv64`; pin the byte-for-byte
        // behaviour so the two accumulators cannot drift apart silently.
        let mut w = FnvWrite::new();
        w.write_bytes(b"upsilon");
        assert_eq!(w.finish(), 0xd837_5cb5_5d00_468d);
    }

    #[test]
    fn fmt_write_is_byte_equivalent() {
        let mut a = FnvWrite::new();
        a.write_bytes(b"k[3]=7");
        let mut b = FnvWrite::new();
        let _ = write!(b, "k[{}]={}", 3, 7);
        assert_eq!(a.finish(), b.finish());
    }
}
