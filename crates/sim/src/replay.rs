//! Replayable run tokens (`UCHK1:` strings).
//!
//! A counterexample found by systematic exploration (`upsilon-check`) is a
//! point in the space quantified over by §3's definitions: a failure pattern
//! `F`, a schedule `S`, and the failure-detector values sampled along it.
//! [`ReplayToken`] packs the three into one printable ASCII string so a
//! violation can be stored in a test, pasted into a bug report, and
//! re-executed bit-identically via [`SimBuilder::replay`].
//!
//! Format (version `UCHK1`), semicolon-separated `key=value` fields after
//! the prefix:
//!
//! ```text
//! UCHK1:n=3;c=-,4,-;q=-|0,1|-;s=0,1,2,0
//! ```
//!
//! * `n` — number of processes (`n+1` in the paper's notation).
//! * `c` — per-process crash time, `-` for correct processes.
//! * `q` — per-process failure-detector choice script, `|`-separated; each
//!   entry is a comma-separated list of candidate indices consumed by the
//!   k-th query of that process (`-` when empty). The simulator itself does
//!   not interpret these — they parameterize a scripted oracle such as
//!   `upsilon-check`'s menu oracle; histories remain functions of `(p, t)`.
//! * `s` — the schedule: the process index granted each step, in order.

use crate::builder::SimBuilder;
use crate::failure::FailurePattern;
use crate::oracle::FdValue;
use crate::process::ProcessId;
use crate::sched::Scripted;
use crate::time::Time;
use std::fmt;

/// A parse failure for a `UCHK1:` token.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TokenError(String);

impl fmt::Display for TokenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid UCHK1 token: {}", self.0)
    }
}

impl std::error::Error for TokenError {}

fn bad(msg: impl Into<String>) -> TokenError {
    TokenError(msg.into())
}

/// A self-contained, replayable description of one explored run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReplayToken {
    /// Number of processes in the system.
    pub n_plus_1: usize,
    /// Crash time per process (`None` = correct), defining `F`.
    pub crashes: Vec<Option<Time>>,
    /// Scripted failure-detector candidate picks, per process, consumed in
    /// query order by a scripted oracle.
    pub fd_choices: Vec<Vec<u32>>,
    /// The schedule: which process took each granted step.
    pub schedule: Vec<ProcessId>,
}

impl ReplayToken {
    /// Renders the token as its canonical `UCHK1:` string.
    pub fn encode(&self) -> String {
        let c = self
            .crashes
            .iter()
            .map(|c| match c {
                Some(t) => t.0.to_string(),
                None => "-".to_string(),
            })
            .collect::<Vec<_>>()
            .join(",");
        let q = self
            .fd_choices
            .iter()
            .map(|picks| {
                if picks.is_empty() {
                    "-".to_string()
                } else {
                    picks
                        .iter()
                        .map(u32::to_string)
                        .collect::<Vec<_>>()
                        .join(",")
                }
            })
            .collect::<Vec<_>>()
            .join("|");
        let s = if self.schedule.is_empty() {
            "-".to_string()
        } else {
            self.schedule
                .iter()
                .map(|p| p.index().to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        format!("UCHK1:n={};c={c};q={q};s={s}", self.n_plus_1)
    }

    /// Parses a `UCHK1:` string produced by [`ReplayToken::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`TokenError`] describing the first malformed field.
    pub fn parse(token: &str) -> Result<ReplayToken, TokenError> {
        let body = token
            .trim()
            .strip_prefix("UCHK1:")
            .ok_or_else(|| bad("missing UCHK1: prefix"))?;
        let mut n_plus_1 = None;
        let mut crashes = None;
        let mut fd_choices = None;
        let mut schedule = None;
        for field in body.split(';') {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| bad(format!("field without '=': {field:?}")))?;
            match key {
                "n" => {
                    let n: usize = value.parse().map_err(|_| bad("bad process count"))?;
                    if n == 0 {
                        return Err(bad("process count must be positive"));
                    }
                    n_plus_1 = Some(n);
                }
                "c" => {
                    let parsed: Result<Vec<Option<Time>>, TokenError> = value
                        .split(',')
                        .map(|c| match c {
                            "-" => Ok(None),
                            t => t
                                .parse::<u64>()
                                .map(|t| Some(Time(t)))
                                .map_err(|_| bad(format!("bad crash time {t:?}"))),
                        })
                        .collect();
                    crashes = Some(parsed?);
                }
                "q" => {
                    let parsed: Result<Vec<Vec<u32>>, TokenError> = value
                        .split('|')
                        .map(|picks| match picks {
                            "-" | "" => Ok(Vec::new()),
                            list => list
                                .split(',')
                                .map(|x| {
                                    x.parse::<u32>()
                                        .map_err(|_| bad(format!("bad fd pick {x:?}")))
                                })
                                .collect(),
                        })
                        .collect();
                    fd_choices = Some(parsed?);
                }
                "s" => {
                    let parsed: Result<Vec<ProcessId>, TokenError> = match value {
                        "-" | "" => Ok(Vec::new()),
                        list => list
                            .split(',')
                            .map(|x| {
                                x.parse::<usize>()
                                    .map(ProcessId)
                                    .map_err(|_| bad(format!("bad schedule entry {x:?}")))
                            })
                            .collect(),
                    };
                    schedule = Some(parsed?);
                }
                other => return Err(bad(format!("unknown field {other:?}"))),
            }
        }
        let n_plus_1 = n_plus_1.ok_or_else(|| bad("missing n field"))?;
        let crashes = crashes.ok_or_else(|| bad("missing c field"))?;
        let fd_choices = fd_choices.ok_or_else(|| bad("missing q field"))?;
        let schedule = schedule.ok_or_else(|| bad("missing s field"))?;
        if crashes.len() != n_plus_1 {
            return Err(bad(format!(
                "crash list has {} entries for {} processes",
                crashes.len(),
                n_plus_1
            )));
        }
        if fd_choices.len() != n_plus_1 {
            return Err(bad(format!(
                "fd choice list has {} entries for {} processes",
                fd_choices.len(),
                n_plus_1
            )));
        }
        if crashes.iter().all(Option::is_some) {
            return Err(bad("every process crashes; patterns need a correct one"));
        }
        if let Some(p) = schedule.iter().find(|p| p.index() >= n_plus_1) {
            return Err(bad(format!("schedule references out-of-range {p}")));
        }
        Ok(ReplayToken {
            n_plus_1,
            crashes,
            fd_choices,
            schedule,
        })
    }

    /// Checks that the token describes a system of `n_plus_1` processes —
    /// the guard before replaying it against a configuration: a token with
    /// another process count belongs to another system.
    ///
    /// # Errors
    ///
    /// Returns a [`TokenError`] naming both counts when they differ.
    pub fn check_process_count(&self, n_plus_1: usize) -> Result<(), TokenError> {
        if self.n_plus_1 == n_plus_1 {
            Ok(())
        } else {
            Err(bad(format!(
                "token has {} processes, the configuration {}",
                self.n_plus_1, n_plus_1
            )))
        }
    }

    /// The failure pattern `F` the token describes.
    pub fn pattern(&self) -> FailurePattern {
        let mut b = FailurePattern::builder(self.n_plus_1);
        for (i, c) in self.crashes.iter().enumerate() {
            if let Some(t) = c {
                b = b.crash(ProcessId(i), *t);
            }
        }
        b.build()
    }
}

impl fmt::Display for ReplayToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

impl<D: FdValue> SimBuilder<D> {
    /// Starts a builder that re-executes the run a [`ReplayToken`]
    /// describes: the token's failure pattern, its schedule as a
    /// [`Scripted`] adversary with no fallback, and a step budget equal to
    /// the schedule length. The caller supplies the same algorithms (and,
    /// if the run queries a failure detector, an oracle honouring
    /// [`ReplayToken::fd_choices`]) that produced the token; determinism
    /// then reproduces the original run event for event.
    pub fn replay(token: &ReplayToken) -> SimBuilder<D> {
        SimBuilder::new(token.pattern())
            .adversary(Scripted::new(token.schedule.clone()))
            .max_steps(token.schedule.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ReplayToken {
        ReplayToken {
            n_plus_1: 3,
            crashes: vec![None, Some(Time(4)), None],
            fd_choices: vec![vec![], vec![0, 1], vec![]],
            schedule: vec![ProcessId(0), ProcessId(1), ProcessId(2), ProcessId(0)],
        }
    }

    #[test]
    fn round_trip() {
        let tok = sample();
        let s = tok.encode();
        assert_eq!(s, "UCHK1:n=3;c=-,4,-;q=-|0,1|-;s=0,1,2,0");
        assert_eq!(ReplayToken::parse(&s).unwrap(), tok);
    }

    #[test]
    fn empty_schedule_round_trips() {
        let tok = ReplayToken {
            n_plus_1: 2,
            crashes: vec![None, None],
            fd_choices: vec![vec![], vec![]],
            schedule: vec![],
        };
        assert_eq!(ReplayToken::parse(&tok.encode()).unwrap(), tok);
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "nope",
            "UCHK1:n=0;c=;q=;s=-",
            "UCHK1:n=2;c=-,-;q=-|-",
            "UCHK1:n=2;c=-;q=-|-;s=-",
            "UCHK1:n=2;c=-,-;q=-|-;s=5",
            "UCHK1:n=2;c=1,2;q=-|-;s=-",
            "UCHK1:n=2;c=-,-;q=-|-;s=0;z=1",
        ] {
            assert!(ReplayToken::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn pattern_reflects_crashes() {
        let p = sample().pattern();
        assert!(p.is_crashed_at(ProcessId(1), Time(4)));
        assert!(!p.is_crashed_at(ProcessId(1), Time(3)));
        assert!(p.crash_time(ProcessId(0)).is_none());
    }

    #[test]
    fn replay_builder_scripts_the_schedule() {
        use crate::builder::algo;
        let tok = ReplayToken {
            n_plus_1: 2,
            crashes: vec![None, None],
            fd_choices: vec![vec![], vec![]],
            schedule: vec![ProcessId(1), ProcessId(0), ProcessId(1)],
        };
        let outcome = SimBuilder::<()>::replay(&tok)
            .spawn_all(|_| {
                algo(move |mut ctx| async move {
                    loop {
                        ctx.yield_step().await;
                    }
                })
            })
            .run();
        assert_eq!(outcome.run.schedule(), tok.schedule);
    }
}
