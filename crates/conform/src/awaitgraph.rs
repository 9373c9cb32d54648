//! Rule C4: the await graph and static per-invocation step bounds.
//!
//! Every `.await` in algorithm code costs the bound of the operation it
//! mediates: `Ctx` step methods cost one step, calls to indexed async
//! routines cost that routine's own bound (computed recursively, maximum
//! over same-name definitions), synchronous helpers cost nothing. Loops
//! multiply their body cost by an iteration bound taken from a
//! `#[conform(bound = "...")]` annotation; a loop whose body takes steps
//! but has no annotation is unbounded, as is any await cycle (recursion).
//!
//! Branches are *summed*, not maxed, so the result is a sound (if
//! sometimes loose) upper bound. A `#[conform(bound = "...")]` annotation
//! directly on a `fn` overrides the computed bound for that definition —
//! the escape hatch for dispatch patterns the name-based resolution would
//! misread as recursion.

use std::collections::{BTreeMap, BTreeSet};

use crate::bound::{parse_expr, Expr};
use crate::diag::{BoundRow, Finding, RuleId};
use crate::model::{parse_annotation, AlgoBody, FileModel, FnDef};
use crate::tree::{Delim, Spanned, Tok};

/// `Ctx` methods that take one atomic step.
const CTX_STEP_METHODS: [&str; 5] = ["invoke", "query_fd", "output", "decide", "yield_step"];

/// `Ctx` methods that are local reads (no step).
const CTX_LOCAL_METHODS: [&str; 4] = ["pid", "n_plus_1", "n", "now"];

/// Keywords that terminate a backward postfix-chain walk.
const CHAIN_STOP_KEYWORDS: [&str; 22] = [
    "match", "if", "else", "return", "let", "break", "continue", "in", "loop", "while", "for",
    "move", "async", "await", "mut", "ref", "unsafe", "dyn", "as", "impl", "fn", "where",
];

/// How a name resolves against the workspace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum NameClass {
    /// A `Ctx` step method: one atomic shared operation.
    StepMethod,
    /// A `Ctx` local method: no step.
    LocalMethod,
    /// An indexed `async fn` taking the context (its own bound applies).
    AsyncCtx,
    /// An indexed `async fn` not taking the context (no steps inside).
    AsyncOther,
    /// An indexed synchronous function: no step.
    Sync,
    /// Not indexed.
    Unknown,
}

/// Name index over every scanned file.
#[derive(Clone, Default, Debug)]
pub struct FnIndex {
    async_ctx: BTreeSet<String>,
    async_other: BTreeSet<String>,
    sync_fns: BTreeSet<String>,
}

impl FnIndex {
    /// Builds the index from all file models.
    pub fn build(files: &[FileModel]) -> FnIndex {
        let mut index = FnIndex::default();
        for file in files {
            for f in &file.fns {
                if f.body.is_empty() {
                    continue; // bodiless trait declaration; an impl will index it
                }
                match (f.is_async, f.takes_ctx) {
                    (true, true) => {
                        index.async_ctx.insert(f.name.clone());
                    }
                    (true, false) => {
                        index.async_other.insert(f.name.clone());
                    }
                    (false, _) => {
                        index.sync_fns.insert(f.name.clone());
                    }
                }
            }
        }
        index
    }

    /// Classifies a call target name. Step/local `Ctx` methods win, then
    /// async definitions (the conservative choice under collisions), then
    /// synchronous ones.
    fn classify(&self, name: &str) -> NameClass {
        if CTX_STEP_METHODS.contains(&name) {
            NameClass::StepMethod
        } else if CTX_LOCAL_METHODS.contains(&name) {
            NameClass::LocalMethod
        } else if self.async_ctx.contains(name) {
            NameClass::AsyncCtx
        } else if self.async_other.contains(name) {
            NameClass::AsyncOther
        } else if self.sync_fns.contains(name) {
            NameClass::Sync
        } else {
            NameClass::Unknown
        }
    }
}

/// Whether `name` is a keyword as far as call detection goes.
fn is_keyword(name: &str) -> bool {
    CHAIN_STOP_KEYWORDS.contains(&name) || matches!(name, "fn" | "pub" | "use" | "struct" | "enum")
}

/// Walks backward from `await_dot` (the `.` of a `.await`) to the start of
/// its postfix chain; returns the start index.
fn chain_start(toks: &[Spanned], await_dot: usize) -> usize {
    let mut j = await_dot;
    while j > 0 {
        let prev = &toks[j - 1];
        let ok = match &prev.tok {
            Tok::Ident(s) => !CHAIN_STOP_KEYWORDS.contains(&s.as_str()),
            Tok::Punct('.') | Tok::Punct('?') | Tok::Punct(':') => true,
            Tok::Group(Delim::Paren | Delim::Bracket, ..) => true,
            Tok::Literal => true,
            _ => false,
        };
        if !ok {
            break;
        }
        j -= 1;
    }
    j
}

/// The calls in a chain segment: `(name, index_of_args_group)` for every
/// `ident ( ... )` at this nesting level.
fn chain_calls(toks: &[Spanned], start: usize, end: usize) -> Vec<(String, usize)> {
    let mut calls = Vec::new();
    let mut k = start;
    while k + 1 < end {
        if let (Some(name), Tok::Group(Delim::Paren, ..)) = (toks[k].ident(), &toks[k + 1].tok) {
            if !is_keyword(name) {
                calls.push((name.to_string(), k + 1));
            }
            k += 2;
        } else {
            k += 1;
        }
    }
    calls
}

/// A step bound, or the reason there is none.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Cost {
    Bounded(Expr),
    Unbounded { line: u32, why: String },
}

impl Cost {
    fn zero() -> Cost {
        Cost::Bounded(Expr::zero())
    }

    fn mul_by(self, factor: Expr) -> Cost {
        match self {
            Cost::Bounded(e) => Cost::Bounded(factor * e),
            u @ Cost::Unbounded { .. } => u,
        }
    }

    fn max(self, rhs: Cost) -> Cost {
        match (self, rhs) {
            (Cost::Bounded(a), Cost::Bounded(b)) => Cost::Bounded(a.max(b)),
            (u @ Cost::Unbounded { .. }, _) | (_, u @ Cost::Unbounded { .. }) => u,
        }
    }

    fn is_zero(&self) -> bool {
        matches!(self, Cost::Bounded(e) if e.is_zero())
    }
}

impl std::ops::Add for Cost {
    type Output = Cost;

    /// Sequential composition: unboundedness is absorbing.
    fn add(self, rhs: Cost) -> Cost {
        match (self, rhs) {
            (Cost::Bounded(a), Cost::Bounded(b)) => Cost::Bounded(a + b),
            (u @ Cost::Unbounded { .. }, _) | (_, u @ Cost::Unbounded { .. }) => u,
        }
    }
}

struct Graph<'a> {
    index: &'a FnIndex,
    /// name -> indices into `defs`.
    by_name: BTreeMap<&'a str, Vec<usize>>,
    defs: Vec<&'a FnDef>,
    memo: BTreeMap<String, Cost>,
    findings: Vec<Finding>,
}

/// Computes bounds for every algorithm routine and the C4 findings for
/// violated `wait_free` claims.
pub fn compute(files: &[FileModel], index: &FnIndex) -> (Vec<BoundRow>, Vec<Finding>) {
    let mut defs: Vec<&FnDef> = Vec::new();
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for file in files {
        for f in &file.fns {
            if f.is_async && f.takes_ctx && !f.body.is_empty() {
                by_name.entry(&f.name).or_default().push(defs.len());
                defs.push(f);
            }
        }
    }
    let mut graph = Graph {
        index,
        by_name,
        defs: defs.clone(),
        memo: BTreeMap::new(),
        findings: Vec::new(),
    };
    let mut rows = Vec::new();
    for def in &defs {
        let mut visiting = vec![def.name.clone()];
        let cost = graph.def_cost(def, &mut visiting);
        let wait_free = def.ann.as_ref().is_some_and(|a| a.wait_free);
        if wait_free {
            if let Cost::Unbounded { line, why } = &cost {
                graph.findings.push(Finding {
                    rule: RuleId::C4,
                    file: def.file.clone(),
                    line: def.line,
                    message: format!(
                        "`{}` claims wait_free but has no static step bound: {why} (line {line})",
                        def.name
                    ),
                    suggestion: "annotate the offending loop with \
                                 #[conform(bound = \"...\")] or drop the wait_free claim"
                        .to_string(),
                });
            }
        }
        rows.push(row(&def.name, &def.file, def.line, wait_free, cost));
    }
    for file in files {
        for a in &file.algos {
            let cost = graph.algo_cost(a);
            rows.push(row("<algo>", &a.file, a.line, false, cost));
        }
    }
    (rows, graph.findings)
}

fn row(name: &str, file: &str, line: u32, wait_free: bool, cost: Cost) -> BoundRow {
    match cost {
        Cost::Bounded(e) => BoundRow {
            name: name.to_string(),
            file: file.to_string(),
            line,
            wait_free,
            params: e.params().into_iter().collect(),
            bound: Some(e.to_string()),
            unbounded: None,
        },
        Cost::Unbounded { line: at, why } => BoundRow {
            name: name.to_string(),
            file: file.to_string(),
            line,
            wait_free,
            params: Vec::new(),
            bound: None,
            unbounded: Some(format!("{why} (line {at})")),
        },
    }
}

impl<'a> Graph<'a> {
    fn algo_cost(&mut self, a: &AlgoBody) -> Cost {
        let mut visiting = Vec::new();
        // Discovery only accepts `algo` closures whose parameter is `ctx`.
        self.body_cost(&a.body, &a.file, &[CLOSURE_CTX], &mut visiting)
    }

    /// The bound of one definition: annotation override, else body walk.
    fn def_cost(&mut self, def: &FnDef, visiting: &mut Vec<String>) -> Cost {
        if let Some(bound) = def.ann.as_ref().and_then(|a| a.bound.as_ref()) {
            let ann_line = def.ann.as_ref().map_or(def.line, |a| a.line);
            return match parse_expr(bound) {
                Ok(e) => Cost::Bounded(e),
                Err(e) => {
                    self.findings.push(Finding {
                        rule: RuleId::C4,
                        file: def.file.clone(),
                        line: ann_line,
                        message: format!("invalid bound expression `{bound}`: {e}"),
                        suggestion: "bounds are integer arithmetic over parameters: \
                                     INT, IDENT, +, -, *, parentheses, max(a, b)"
                            .to_string(),
                    });
                    Cost::Unbounded {
                        line: ann_line,
                        why: "invalid bound annotation".to_string(),
                    }
                }
            };
        }
        let body = def.body.clone();
        let file = def.file.clone();
        let ctx = ctx_params(&def.params);
        let ctx: Vec<&str> = ctx.iter().map(String::as_str).collect();
        self.body_cost(&body, &file, &ctx, visiting)
    }

    /// Bound of a callee name: maximum over all same-name definitions.
    fn bound_of_name(&mut self, name: &str, line: u32, visiting: &mut Vec<String>) -> Cost {
        if let Some(hit) = self.memo.get(name) {
            return hit.clone();
        }
        if visiting.iter().any(|v| v == name) {
            return Cost::Unbounded {
                line,
                why: format!("recursive await cycle through `{name}`"),
            };
        }
        let Some(indices) = self.by_name.get(name).cloned() else {
            return Cost::Unbounded {
                line,
                why: format!("awaited routine `{name}` is not indexed"),
            };
        };
        visiting.push(name.to_string());
        let mut acc = Cost::zero();
        for i in indices {
            let def = self.defs[i];
            let c = self.def_cost(def, visiting);
            acc = acc.max(c);
        }
        visiting.pop();
        // Only cache cycle-free results: a cost computed inside a cycle is
        // relative to the current resolution stack.
        if !visiting
            .iter()
            .any(|v| self.by_name.contains_key(v.as_str()))
            || visiting.is_empty()
        {
            self.memo.insert(name.to_string(), acc.clone());
        }
        acc
    }

    /// Sum of step costs over a token list, with loop multiplication. `ctx`
    /// names the routine's execution-context bindings: an awaited call to
    /// an unindexed routine takes steps exactly when it is handed one.
    fn body_cost(
        &mut self,
        toks: &[Spanned],
        file: &str,
        ctx: &[&str],
        visiting: &mut Vec<String>,
    ) -> Cost {
        let mut total = Cost::zero();
        let mut pending: Option<Expr> = None;
        let mut i = 0usize;
        while i < toks.len() {
            match &toks[i].tok {
                Tok::Conform(text) => {
                    if let Ok(ann) = parse_annotation(text, toks[i].line) {
                        if let Some(b) = ann.bound {
                            match parse_expr(&b) {
                                Ok(e) => pending = Some(e),
                                Err(e) => {
                                    self.findings.push(Finding {
                                        rule: RuleId::C4,
                                        file: file.to_string(),
                                        line: toks[i].line,
                                        message: format!("invalid bound expression `{b}`: {e}"),
                                        suggestion: "bounds are integer arithmetic over \
                                                     parameters: INT, IDENT, +, -, *, \
                                                     parentheses, max(a, b)"
                                            .to_string(),
                                    });
                                }
                            }
                        }
                    }
                    i += 1;
                }
                Tok::Ident(kw) if kw == "loop" => {
                    let Some(Spanned {
                        tok: Tok::Group(Delim::Brace, children, _),
                        ..
                    }) = toks.get(i + 1)
                    else {
                        i += 1;
                        continue;
                    };
                    let inner = self.body_cost(children, file, ctx, visiting);
                    total = total + self.looped(inner, pending.take(), toks[i].line, "loop");
                    i += 2;
                }
                Tok::Ident(kw) if kw == "while" => {
                    let mut j = i + 1;
                    while j < toks.len() && !matches!(&toks[j].tok, Tok::Group(Delim::Brace, ..)) {
                        j += 1;
                    }
                    let cond = self.body_cost(&toks[i + 1..j.min(toks.len())], file, ctx, visiting);
                    let inner = match toks.get(j).map(|t| &t.tok) {
                        Some(Tok::Group(Delim::Brace, children, _)) => {
                            self.body_cost(children, file, ctx, visiting)
                        }
                        _ => Cost::zero(),
                    };
                    let per_iter = inner + cond.clone();
                    let repeated = self.looped(per_iter, pending.take(), toks[i].line, "while");
                    // The condition runs once more than the body.
                    total = total + repeated + cond;
                    i = j + 1;
                }
                Tok::Ident(kw) if kw == "for" => {
                    let mut j = i + 1;
                    while j < toks.len() && toks[j].ident() != Some("in") {
                        j += 1;
                    }
                    let mut k = j + 1;
                    while k < toks.len() && !matches!(&toks[k].tok, Tok::Group(Delim::Brace, ..)) {
                        k += 1;
                    }
                    // The iterator expression is evaluated once.
                    let iter_cost =
                        self.body_cost(&toks[j + 1..k.min(toks.len())], file, ctx, visiting);
                    let inner = match toks.get(k).map(|t| &t.tok) {
                        Some(Tok::Group(Delim::Brace, children, _)) => {
                            self.body_cost(children, file, ctx, visiting)
                        }
                        _ => Cost::zero(),
                    };
                    let repeated = self.looped(inner, pending.take(), toks[i].line, "for");
                    total = total + iter_cost + repeated;
                    i = k + 1;
                }
                Tok::Punct('.') if toks.get(i + 1).and_then(|t| t.ident()) == Some("await") => {
                    let start = chain_start(toks, i);
                    let line = toks[i].line;
                    for (name, group_idx) in chain_calls(toks, start, i) {
                        let call_cost = match self.index.classify(&name) {
                            NameClass::StepMethod => Cost::Bounded(Expr::one()),
                            NameClass::AsyncCtx => self.bound_of_name(&name, line, visiting),
                            NameClass::LocalMethod | NameClass::Sync | NameClass::AsyncOther => {
                                Cost::zero()
                            }
                            NameClass::Unknown => {
                                if matches!(&toks[group_idx].tok,
                                    Tok::Group(_, children, _) if mentions_any(children, ctx))
                                {
                                    Cost::Unbounded {
                                        line,
                                        why: format!("awaited call to unindexed routine `{name}`"),
                                    }
                                } else {
                                    Cost::zero()
                                }
                            }
                        };
                        total = total + call_cost;
                    }
                    i += 2;
                }
                Tok::Punct(';') => {
                    pending = None;
                    i += 1;
                }
                // A nested `algo(|mut ctx| ...)` closure brings its own
                // context into scope.
                Tok::Ident(kw) if kw == "algo" && !ctx.contains(&CLOSURE_CTX) => {
                    if let Some(Spanned {
                        tok: Tok::Group(Delim::Paren, children, _),
                        ..
                    }) = toks.get(i + 1)
                    {
                        let ctx: Vec<&str> = ctx.iter().copied().chain([CLOSURE_CTX]).collect();
                        total = total + self.body_cost(children, file, &ctx, visiting);
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                Tok::Group(_, children, _) => {
                    let inner = self.body_cost(children, file, ctx, visiting);
                    total = total + inner;
                    i += 1;
                }
                _ => {
                    i += 1;
                }
            }
        }
        total
    }

    /// Applies an iteration bound to a loop-body cost.
    fn looped(&mut self, inner: Cost, bound: Option<Expr>, line: u32, kw: &str) -> Cost {
        match bound {
            Some(e) => inner.mul_by(e),
            None if inner.is_zero() => Cost::zero(),
            None => match inner {
                u @ Cost::Unbounded { .. } => u,
                Cost::Bounded(_) => Cost::Unbounded {
                    line,
                    why: format!("`{kw}` loop takes steps but has no #[conform(bound)]"),
                },
            },
        }
    }
}

/// The parameter name model discovery requires of an `algo` closure.
const CLOSURE_CTX: &str = "ctx";

/// The names of the parameters whose type mentions `Ctx` (`c: &mut
/// Ctx<()>` gives `c`), from a definition's parameter-list tokens.
fn ctx_params(params: &[Spanned]) -> Vec<String> {
    let mut segments = Vec::new();
    let (mut depth, mut start) = (0u32, 0usize);
    for (i, t) in params.iter().enumerate() {
        match &t.tok {
            Tok::Punct('<') => depth += 1,
            Tok::Punct('>') => depth = depth.saturating_sub(1),
            Tok::Punct(',') if depth == 0 => {
                segments.push(&params[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    segments.push(&params[start..]);
    segments
        .into_iter()
        .filter_map(|segment| {
            let colon = segment.iter().position(|t| t.is_punct(':'))?;
            let name = segment[..colon]
                .iter()
                .filter_map(Spanned::ident)
                .rfind(|s| !matches!(*s, "mut" | "ref"))?;
            mentions_any(&segment[colon + 1..], &["Ctx"]).then(|| name.to_string())
        })
        .collect()
}

fn mentions_any(toks: &[Spanned], names: &[&str]) -> bool {
    toks.iter().any(|t| match &t.tok {
        Tok::Ident(s) => names.contains(&s.as_str()),
        Tok::Group(_, children, _) => mentions_any(children, names),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::model_file;

    fn bounds(src: &str) -> (Vec<BoundRow>, Vec<Finding>) {
        let model = model_file("crates/mem/src/t.rs", src);
        assert!(model.errors.is_empty(), "{:?}", model.errors);
        let files = vec![model];
        let index = FnIndex::build(&files);
        compute(&files, &index)
    }

    fn bound_of<'a>(rows: &'a [BoundRow], name: &str) -> &'a BoundRow {
        rows.iter().find(|r| r.name == name).expect("row exists")
    }

    /// An awaited call to an unindexed routine takes steps when it is
    /// handed the routine's own `Ctx`-typed parameter, whatever its name;
    /// another value named `ctx` is no context.
    #[test]
    fn context_is_the_ctx_typed_parameter_not_the_name_ctx() {
        let claimed = |params: &str, arg: &str| {
            bounds(&format!(
                "
// #[conform(wait_free)]
async fn claimed({params}) {{
    loop {{
        unindexed_helper({arg}).await;
    }}
}}
"
            ))
        };
        for (params, arg) in [("c: &mut Ctx<()>", "c"), ("ctx: &mut Ctx<()>", "ctx")] {
            let (rows, findings) = claimed(params, arg);
            assert!(bound_of(&rows, "claimed").bound.is_none(), "{params}");
            assert_eq!(findings.len(), 1, "{params}: {findings:?}");
            assert!(
                findings[0]
                    .message
                    .contains("unindexed routine `unindexed_helper`"),
                "{params}: {findings:?}"
            );
        }
        let (rows, findings) = claimed("c: &mut Ctx<()>, ctx: u64", "ctx");
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(bound_of(&rows, "claimed").bound.as_deref(), Some("0"));
    }

    #[test]
    fn ctx_params_reads_bindings_and_types() {
        let names = |src: &str| {
            let model = model_file("crates/mem/src/t.rs", src);
            ctx_params(&model.fns[0].params)
        };
        assert_eq!(names("async fn f(c: &mut Ctx<()>) {}"), vec!["c"]);
        assert_eq!(
            names(
                "async fn f(mut a: Ctx<D>, m: BTreeMap<u64, u64>, b: &mut upsilon_sim::Ctx<D>) {}"
            ),
            vec!["a", "b"]
        );
        assert!(names("async fn f(&self, ctx: u64) {}").is_empty());
    }

    #[test]
    fn straight_line_steps_sum() {
        let (rows, findings) = bounds(
            "
async fn two(ctx: &mut Ctx<()>) {
    ctx.invoke(1).await;
    ctx.query_fd().await;
}
",
        );
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(bound_of(&rows, "two").bound.as_deref(), Some("2"));
    }

    #[test]
    fn callee_bounds_compose() {
        let (rows, _) = bounds(
            "
async fn read(ctx: &mut Ctx<()>) -> u64 { ctx.invoke(0).await }
async fn twice(ctx: &mut Ctx<()>) -> u64 {
    let a = read(ctx).await;
    let b = read(ctx).await;
    a + b
}
",
        );
        assert_eq!(bound_of(&rows, "twice").bound.as_deref(), Some("2"));
    }

    #[test]
    fn annotated_loops_multiply() {
        let (rows, findings) = bounds(
            "
// #[conform(wait_free)]
async fn collect(ctx: &mut Ctx<()>) {
    // #[conform(bound = \"n_plus_1\")]
    for i in 0..9 {
        ctx.invoke(i).await;
    }
}
",
        );
        assert!(findings.is_empty(), "{findings:?}");
        let row = bound_of(&rows, "collect");
        assert_eq!(row.bound.as_deref(), Some("n_plus_1"));
        assert_eq!(row.params, vec!["n_plus_1".to_string()]);
        assert!(row.wait_free);
    }

    #[test]
    fn unannotated_step_loop_is_unbounded_and_claim_trips_c4() {
        let (rows, findings) = bounds(
            "
// #[conform(wait_free)]
async fn spin(ctx: &mut Ctx<()>) {
    loop {
        ctx.query_fd().await;
    }
}
",
        );
        assert!(bound_of(&rows, "spin").bound.is_none());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, RuleId::C4);
        assert!(findings[0].message.contains("spin"), "{findings:?}");
    }

    #[test]
    fn unclaimed_unbounded_loop_is_reported_but_not_a_finding() {
        let (rows, findings) = bounds(
            "
async fn spin(ctx: &mut Ctx<()>) {
    loop {
        ctx.query_fd().await;
    }
}
",
        );
        assert!(findings.is_empty(), "{findings:?}");
        assert!(bound_of(&rows, "spin").unbounded.is_some());
    }

    #[test]
    fn recursion_is_unbounded() {
        let (rows, _) = bounds(
            "
async fn ping(ctx: &mut Ctx<()>) { pong(ctx).await }
async fn pong(ctx: &mut Ctx<()>) { ping(ctx).await }
",
        );
        assert!(bound_of(&rows, "ping").unbounded.is_some());
        assert!(bound_of(&rows, "pong").unbounded.is_some());
    }

    #[test]
    fn fn_level_annotation_overrides_the_walk() {
        let (rows, findings) = bounds(
            "
// #[conform(wait_free, bound = \"n_plus_1 + 2\")]
async fn dispatch(ctx: &mut Ctx<()>) {
    loop {
        ctx.invoke(0).await;
    }
}
",
        );
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(
            bound_of(&rows, "dispatch").bound.as_deref(),
            Some("n_plus_1 + 2")
        );
    }

    #[test]
    fn loops_with_no_steps_cost_nothing() {
        let (rows, findings) = bounds(
            "
async fn tally(ctx: &mut Ctx<()>) -> u64 {
    let mut acc = 0;
    for i in 0..10 {
        acc += i;
    }
    ctx.decide(acc).await;
    acc
}
",
        );
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(bound_of(&rows, "tally").bound.as_deref(), Some("1"));
    }

    #[test]
    fn while_condition_counts_one_extra_evaluation() {
        let (rows, _) = bounds(
            "
async fn read(ctx: &mut Ctx<()>) -> u64 { ctx.invoke(0).await }
async fn poll(ctx: &mut Ctx<()>) {
    // #[conform(bound = \"W\")]
    while read(ctx).await == 0 {
        ctx.yield_step().await;
    }
}
",
        );
        // W * (1 + 1) + 1 trailing condition evaluation.
        assert_eq!(bound_of(&rows, "poll").bound.as_deref(), Some("W * 2 + 1"));
    }

    #[test]
    fn algo_bodies_get_rows() {
        let (rows, _) = bounds(
            "
fn factory(v: u64) -> AlgoFn<()> {
    algo(move |mut ctx| async move {
        ctx.decide(v).await;
    })
}
",
        );
        assert_eq!(bound_of(&rows, "<algo>").bound.as_deref(), Some("1"));
    }

    #[test]
    fn bad_bound_expression_is_a_c4_finding() {
        let (_, findings) = bounds(
            "
// #[conform(wait_free, bound = \"2 ^ n\")]
async fn oops(ctx: &mut Ctx<()>) { ctx.yield_step().await }
",
        );
        assert!(
            findings
                .iter()
                .any(|f| f.rule == RuleId::C4 && f.message.contains("invalid bound expression")),
            "{findings:?}"
        );
    }
}
