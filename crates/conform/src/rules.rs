//! The per-body rule passes: C1 (step atomicity) and C3 (context/handle
//! escape), plus the name index and postfix-chain utilities shared with the
//! C4 await-graph pass. C2 (banned host APIs) is a set of rows of the
//! determinism table ([`crate::determinism`]).

use std::collections::BTreeSet;

use crate::diag::{Finding, RuleId};
use crate::model::{AlgoBody, FileModel, FnDef};
use crate::tree::{Delim, Spanned, Tok};

/// `Ctx` methods that take one atomic step.
pub const CTX_STEP_METHODS: [&str; 5] = ["invoke", "query_fd", "output", "decide", "yield_step"];

/// `Ctx` methods that are local reads (no step).
pub const CTX_LOCAL_METHODS: [&str; 4] = ["pid", "n_plus_1", "n", "now"];

/// Types whose values are shared-object handles (access capabilities that
/// must not leave the algorithm).
const HANDLE_TYPES: [&str; 9] = [
    "Register",
    "RegisterArray",
    "NativeSnapshot",
    "AfekSnapshot",
    "FlavoredSnapshot",
    "ConvergeInstance",
    "Consensus",
    "Upsilon1Elector",
    "Ctx",
];

/// Wrappers that would let a handle outlive or escape the algorithm body.
const ESCAPE_WRAPPERS: [&str; 7] = ["Box", "Rc", "Arc", "RefCell", "Cell", "Mutex", "RwLock"];

/// Macros whose arguments may mention `ctx` without mediating a step
/// (assertions and formatting only observe local state).
const LOCAL_MACROS: [&str; 16] = [
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "matches",
    "format",
    "vec",
    "panic",
    "unreachable",
    "todo",
    "write",
    "writeln",
    "println",
    "eprintln",
];

/// Keywords that terminate a backward postfix-chain walk.
const CHAIN_STOP_KEYWORDS: [&str; 22] = [
    "match", "if", "else", "return", "let", "break", "continue", "in", "loop", "while", "for",
    "move", "async", "await", "mut", "ref", "unsafe", "dyn", "as", "impl", "fn", "where",
];

/// How a name resolves against the workspace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NameClass {
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
    pub fn classify(&self, name: &str) -> NameClass {
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

/// Walks forward from token `from` through postfix-chain tokens
/// (`.`/`?`/idents/argument groups/literals) looking for `.await`.
pub fn chain_has_await(toks: &[Spanned], from: usize) -> bool {
    let mut j = from + 1;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Ident(s) if s == "await" => return true,
            Tok::Ident(s) if !is_keyword(s) => j += 1,
            Tok::Punct('.') | Tok::Punct('?') | Tok::Punct(':') => j += 1,
            Tok::Group(Delim::Paren | Delim::Bracket, ..) | Tok::Literal => j += 1,
            _ => return false,
        }
    }
    false
}

/// Walks backward from `await_dot` (the `.` of a `.await`) to the start of
/// its postfix chain; returns the start index.
pub fn chain_start(toks: &[Spanned], await_dot: usize) -> usize {
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
pub fn chain_calls(toks: &[Spanned], start: usize, end: usize) -> Vec<(String, usize)> {
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

/// Whether a call argument list passes the context *itself* (a bare `ctx`
/// not followed by `.`), as opposed to the result of a `ctx.`-method call:
/// `read(ctx)` receives the context, `Update(ctx.pid().index(), v)` does
/// not.
fn receives_ctx(toks: &[Spanned]) -> bool {
    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Ident(s)
                if s == "ctx"
                    && !matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('.'))) =>
            {
                return true;
            }
            Tok::Group(_, children, _) if receives_ctx(children) => {
                return true;
            }
            _ => {}
        }
        i += 1;
    }
    false
}

fn flat_contains_any(toks: &[Spanned], names: &BTreeSet<String>) -> Option<String> {
    for t in toks {
        match &t.tok {
            Tok::Ident(s) if names.contains(s) => return Some(s.clone()),
            Tok::Group(_, children, _) => {
                if let Some(hit) = flat_contains_any(children, names) {
                    return Some(hit);
                }
            }
            _ => {}
        }
    }
    None
}

/// What kind of position a group's contents are in.
#[derive(Clone, PartialEq, Eq, Debug)]
enum GroupCtx {
    /// Arguments of a call: `name(...)` (`macro_call` for `name!(...)`).
    CallArgs {
        name: String,
        awaited: bool,
        macro_call: bool,
    },
    /// Anything else: a block, a tuple, an index, an array.
    Other,
}

struct Checker<'a> {
    index: &'a FnIndex,
    file: &'a str,
    /// Local variables (and params, and `self`) that hold shared-object
    /// handles or the context.
    handles: BTreeSet<String>,
    findings: &'a mut Vec<Finding>,
}

/// Runs C1/C3 over one function body that is algorithm code.
pub fn check_fn(def: &FnDef, index: &FnIndex, findings: &mut Vec<Finding>) {
    let mut handles = BTreeSet::new();
    handles.insert("ctx".to_string());
    handles.insert("self".to_string());
    collect_param_handles(&def.params, &mut handles);
    collect_let_handles(&def.body, &mut handles);
    let mut checker = Checker {
        index,
        file: &def.file,
        handles,
        findings,
    };
    checker.walk(&def.body, &GroupCtx::Other);
}

/// Runs C1/C3 over one `algo(|ctx| async move { ... })` body.
pub fn check_algo(algo: &AlgoBody, index: &FnIndex, findings: &mut Vec<Finding>) {
    let mut handles = BTreeSet::new();
    handles.insert("ctx".to_string());
    collect_let_handles(&algo.body, &mut handles);
    let mut checker = Checker {
        index,
        file: &algo.file,
        handles,
        findings,
    };
    checker.walk(&algo.body, &GroupCtx::Other);
}

/// Params of handle type: `name: ... Register<...> ...`.
fn collect_param_handles(params: &[Spanned], handles: &mut BTreeSet<String>) {
    let mut i = 0;
    while i + 1 < params.len() {
        if let (Some(name), true) = (params[i].ident(), params[i + 1].is_punct(':')) {
            // Type tokens run to the next top-level comma.
            let mut j = i + 2;
            while j < params.len() && !params[j].is_punct(',') {
                j += 1;
            }
            if params[i + 2..j]
                .iter()
                .any(|t| t.ident().is_some_and(|s| HANDLE_TYPES.contains(&s)))
            {
                handles.insert(name.to_string());
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
}

/// Let-bindings whose initializer involves a handle type or a handle
/// projection (`.slot(...)`, `.mine(...)`).
fn collect_let_handles(toks: &[Spanned], handles: &mut BTreeSet<String>) {
    let mut i = 0;
    while i < toks.len() {
        if let Tok::Group(_, children, _) = &toks[i].tok {
            collect_let_handles(children, handles);
            i += 1;
            continue;
        }
        if toks[i].ident() == Some("let") {
            let mut j = i + 1;
            if toks.get(j).and_then(|t| t.ident()) == Some("mut") {
                j += 1;
            }
            if let Some(name) = toks.get(j).and_then(|t| t.ident()) {
                // Find `=` then the initializer up to `;` at this level.
                let mut eq = j + 1;
                while eq < toks.len() && !toks[eq].is_punct('=') && !toks[eq].is_punct(';') {
                    eq += 1;
                }
                if eq < toks.len() && toks[eq].is_punct('=') {
                    let mut end = eq + 1;
                    while end < toks.len() && !toks[end].is_punct(';') {
                        end += 1;
                    }
                    let rhs = &toks[eq + 1..end.min(toks.len())];
                    let names_handle_type = rhs
                        .iter()
                        .any(|t| t.ident().is_some_and(|s| HANDLE_TYPES.contains(&s)));
                    let projects_handle = rhs.windows(2).any(|w| {
                        w[0].is_punct('.') && matches!(w[1].ident(), Some("slot") | Some("mine"))
                    });
                    if names_handle_type || projects_handle {
                        handles.insert(name.to_string());
                    }
                    i = end;
                    continue;
                }
            }
        }
        i += 1;
    }
}

impl Checker<'_> {
    fn emit(&mut self, rule: RuleId, line: u32, message: String, suggestion: &str) {
        self.findings.push(Finding {
            rule,
            file: self.file.to_string(),
            line,
            message,
            suggestion: suggestion.to_string(),
        });
    }

    fn walk(&mut self, toks: &[Spanned], gctx: &GroupCtx) {
        let mut i = 0;
        while i < toks.len() {
            match &toks[i].tok {
                Tok::Ident(s) if s == "ctx" => self.check_ctx_use(toks, i, gctx),
                Tok::Punct('.') if toks.get(i + 1).and_then(|t| t.ident()) == Some("await") => {
                    self.check_await_point(toks, i);
                }
                Tok::Punct('|') => {
                    if let Some(next) = self.check_closure(toks, i) {
                        i = next;
                        continue;
                    }
                }
                _ => {}
            }
            if let Tok::Group(delim, children, _) = &toks[i].tok {
                let child_ctx = if *delim == Delim::Paren {
                    self.call_context(toks, i, gctx)
                } else {
                    GroupCtx::Other
                };
                self.walk(children, &child_ctx);
            }
            i += 1;
        }
    }

    /// The [`GroupCtx`] for a paren group at index `gi`. A call is awaited
    /// if its own chain reaches `.await` *or* it sits in the argument list
    /// of an awaited call (its future is driven through the outer await).
    fn call_context(&self, toks: &[Spanned], gi: usize, parent: &GroupCtx) -> GroupCtx {
        let parent_awaited = matches!(
            parent,
            GroupCtx::CallArgs {
                awaited: true,
                macro_call: false,
                ..
            }
        );
        if gi >= 1 {
            if let Some(name) = toks[gi - 1].ident() {
                if !is_keyword(name) {
                    return GroupCtx::CallArgs {
                        name: name.to_string(),
                        awaited: chain_has_await(toks, gi) || parent_awaited,
                        macro_call: false,
                    };
                }
            }
            if toks[gi - 1].is_punct('!') && gi >= 2 {
                if let Some(name) = toks[gi - 2].ident() {
                    return GroupCtx::CallArgs {
                        name: name.to_string(),
                        awaited: false,
                        macro_call: true,
                    };
                }
            }
        }
        GroupCtx::Other
    }

    /// C1/C3 for one occurrence of the identifier `ctx`.
    fn check_ctx_use(&mut self, toks: &[Spanned], i: usize, gctx: &GroupCtx) {
        let line = toks[i].line;
        let next = toks.get(i + 1);
        let prev = i.checked_sub(1).map(|p| &toks[p]);
        // `|ctx|` closure parameter or `ctx:` type ascription: a binding,
        // not a use.
        if next.is_some_and(|t| t.is_punct('|') || t.is_punct(':'))
            || prev.is_some_and(|t| t.is_punct('|'))
        {
            return;
        }
        if next.is_some_and(|t| t.is_punct('.')) {
            // Receiver position: `ctx.method(...)`.
            let Some(method) = toks.get(i + 2).and_then(|t| t.ident()) else {
                self.emit(
                    RuleId::C1,
                    line,
                    "unrecognized context access (not a method call)".to_string(),
                    "access the context only through its step and local methods",
                );
                return;
            };
            if CTX_STEP_METHODS.contains(&method) {
                if !chain_has_await(toks, i + 3) {
                    self.emit(
                        RuleId::C1,
                        line,
                        format!("step operation `ctx.{method}(...)` is never awaited"),
                        "await the operation where its atomic step should be taken; \
                         binding the future for later desynchronizes the schedule",
                    );
                }
            } else if !CTX_LOCAL_METHODS.contains(&method) {
                self.emit(
                    RuleId::C1,
                    line,
                    format!("unknown context method `ctx.{method}(...)`"),
                    "model operations are invoke/query_fd/output/decide/yield_step \
                     (steps) and pid/n/n_plus_1/now (local reads)",
                );
            }
            return;
        }
        // Argument position: `f(.., ctx, ..)`.
        if let GroupCtx::CallArgs {
            name,
            awaited,
            macro_call,
        } = gctx
        {
            if *macro_call {
                if !LOCAL_MACROS.contains(&name.as_str()) {
                    self.emit(
                        RuleId::C3,
                        line,
                        format!("context passed to macro `{name}!`"),
                        "only assertion/formatting macros may observe the context",
                    );
                }
                return;
            }
            match self.index.classify(name) {
                NameClass::Sync | NameClass::LocalMethod => {}
                NameClass::AsyncCtx | NameClass::AsyncOther | NameClass::StepMethod => {
                    if !awaited {
                        self.emit(
                            RuleId::C1,
                            line,
                            format!(
                                "call `{name}(.., ctx, ..)` performs model operations \
                                 but is not awaited here"
                            ),
                            "await the call so its steps are granted in order",
                        );
                    }
                }
                NameClass::Unknown => {
                    if !awaited {
                        self.emit(
                            RuleId::C1,
                            line,
                            format!(
                                "call `{name}(.., ctx, ..)` is neither a known \
                                 synchronous helper nor awaited"
                            ),
                            "await the call, or define the helper inside a scanned crate",
                        );
                    }
                }
            }
            return;
        }
        // Any other position: the context is being aliased or stored.
        self.emit(
            RuleId::C3,
            line,
            "context value escapes the algorithm (aliased, stored or returned)".to_string(),
            "use `ctx` only as a method receiver or call argument",
        );
    }

    /// C1: each await point must mediate exactly one shared operation.
    fn check_await_point(&mut self, toks: &[Spanned], await_dot: usize) {
        let line = toks[await_dot].line;
        let start = chain_start(toks, await_dot);
        let ops = self.count_ops(&toks[start..await_dot]);
        if ops != 1 {
            self.emit(
                RuleId::C1,
                line,
                format!("await point mediates {ops} shared operations (exactly 1 required)"),
                if ops == 0 {
                    "each .await must drive one ctx-mediated operation; awaiting a \
                     stashed future or a ctx-free helper is not a model step"
                } else {
                    "split the expression so each await performs one operation"
                },
            );
        }
    }

    /// Counts the shared operations an await point mediates: step-method
    /// and indexed-async calls at any depth of the chain slice. Sub-chains
    /// that carry their own `.await` are skipped (they are separate await
    /// points, checked where they occur); an unindexed call that takes the
    /// context counts as one operation when nothing inside it counted.
    fn count_ops(&self, toks: &[Spanned]) -> usize {
        let mut ops = 0usize;
        let mut i = 0usize;
        while i < toks.len() {
            if let (Some(name), Some(Tok::Group(Delim::Paren, children, _))) =
                (toks[i].ident(), toks.get(i + 1).map(|t| &t.tok))
            {
                if !is_keyword(name) && !chain_has_await(toks, i + 1) {
                    let nested = self.count_ops(children);
                    ops += nested;
                    match self.index.classify(name) {
                        NameClass::StepMethod | NameClass::AsyncCtx => ops += 1,
                        NameClass::Unknown if nested == 0 && receives_ctx(children) => {
                            ops += 1;
                        }
                        _ => {}
                    }
                    i += 2;
                    continue;
                }
            }
            if let Tok::Group(Delim::Paren | Delim::Bracket, children, _) = &toks[i].tok {
                ops += self.count_ops(children);
            }
            i += 1;
        }
        ops
    }

    /// C3: inner closures must not capture the context or a handle, and
    /// escape wrappers / channel sends must not carry them.
    ///
    /// Returns `Some(resume_index)` when a closure was recognized and its
    /// body consumed.
    fn check_closure(&mut self, toks: &[Spanned], bar: usize) -> Option<usize> {
        // Distinguish a closure-opening `|` from binary `|`/`||`: after an
        // expression (ident, literal, group, `?`) it is an operator.
        if bar > 0 {
            match &toks[bar - 1].tok {
                Tok::Ident(s) if !is_keyword(s) => return None,
                Tok::Literal | Tok::Group(..) => return None,
                Tok::Punct('?') | Tok::Punct('|') => return None,
                _ => {}
            }
        }
        let close = if toks.get(bar + 1).is_some_and(|t| t.is_punct('|')) {
            bar + 1
        } else {
            bar + 1 + toks[bar + 1..].iter().position(|t| t.is_punct('|'))?
        };
        // Skip an optional `-> Type` and a `move` to reach the body.
        let mut body_start = close + 1;
        while body_start < toks.len() {
            match &toks[body_start].tok {
                Tok::Group(Delim::Brace, ..) => break,
                Tok::Punct(',') => break,
                _ => body_start += 1,
            }
        }
        let (body, resume): (Vec<&Spanned>, usize) = match toks.get(body_start).map(|t| &t.tok) {
            Some(Tok::Group(Delim::Brace, children, _)) => {
                (children.iter().collect(), body_start + 1)
            }
            _ => {
                // Expression body: tokens up to the next top-level comma.
                (toks[close + 1..body_start].iter().collect(), body_start)
            }
        };
        let owned: Vec<Spanned> = body.into_iter().cloned().collect();
        if let Some(hit) = flat_contains_any(&owned, &self.handles) {
            self.emit(
                RuleId::C3,
                toks[bar].line,
                format!("`{hit}` (context or shared-object handle) captured by an inner closure"),
                "inner closures run outside the granted-step discipline; \
                 inline the shared-memory access into the algorithm body",
            );
        }
        // Still check awaits inside the closure body.
        self.walk(&owned, &GroupCtx::Other);
        Some(resume)
    }
}

/// C3 wrapper/channel checks that operate on plain sibling patterns; run
/// alongside the main walk.
pub fn check_escapes(
    body: &[Spanned],
    handles: &BTreeSet<String>,
    file: &str,
    findings: &mut Vec<Finding>,
) {
    let mut i = 0;
    while i < body.len() {
        if let Tok::Group(_, children, _) = &body[i].tok {
            check_escapes(children, handles, file, findings);
        }
        // `Wrapper::new(.. handle ..)`
        if let Some(w) = body[i].ident() {
            if ESCAPE_WRAPPERS.contains(&w)
                && body.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && body.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && body.get(i + 3).and_then(|t| t.ident()) == Some("new")
            {
                if let Some(Tok::Group(Delim::Paren, args, _)) = body.get(i + 4).map(|t| &t.tok) {
                    if let Some(hit) = flat_contains_any(args, handles) {
                        findings.push(Finding {
                            rule: RuleId::C3,
                            file: file.to_string(),
                            line: body[i].line,
                            message: format!(
                                "context or shared-object handle `{hit}` wrapped in `{w}::new`"
                            ),
                            suggestion: "handles must stay owned by the algorithm body; \
                                         share data, not capabilities"
                                .to_string(),
                        });
                    }
                }
            }
        }
        // `.send(.. handle ..)`
        if body[i].is_punct('.') && body.get(i + 1).and_then(|t| t.ident()) == Some("send") {
            if let Some(Tok::Group(Delim::Paren, args, _)) = body.get(i + 2).map(|t| &t.tok) {
                if let Some(hit) = flat_contains_any(args, handles) {
                    findings.push(Finding {
                        rule: RuleId::C3,
                        file: file.to_string(),
                        line: body[i].line,
                        message: format!(
                            "context or shared-object handle `{hit}` sent through a channel"
                        ),
                        suggestion: "handles must stay owned by the algorithm body; \
                                     share data, not capabilities"
                            .to_string(),
                    });
                }
            }
        }
        i += 1;
    }
}

/// The handle set for a function body (exported for the escape pass).
pub fn handle_set(params: &[Spanned], body: &[Spanned]) -> BTreeSet<String> {
    let mut handles = BTreeSet::new();
    handles.insert("ctx".to_string());
    handles.insert("self".to_string());
    collect_param_handles(params, &mut handles);
    collect_let_handles(body, &mut handles);
    handles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::model_file;

    fn check_src(src: &str) -> Vec<Finding> {
        let model = model_file("crates/mem/src/t.rs", src);
        assert!(model.errors.is_empty(), "{:?}", model.errors);
        let index = FnIndex::build(std::slice::from_ref(&model));
        let mut findings = Vec::new();
        for f in &model.fns {
            if f.takes_ctx && !f.body.is_empty() {
                check_fn(f, &index, &mut findings);
                let handles = handle_set(&f.params, &f.body);
                check_escapes(&f.body, &handles, &f.file, &mut findings);
            }
        }
        for a in &model.algos {
            check_algo(a, &index, &mut findings);
            let handles = handle_set(&[], &a.body);
            check_escapes(&a.body, &handles, &a.file, &mut findings);
        }
        findings
    }

    #[test]
    fn clean_single_op_awaits_pass() {
        let findings = check_src(
            "
pub async fn read(ctx: &Ctx<()>, r: &Register<u64>) -> u64 {
    let v = r.read(ctx).await;
    debug_assert!(v <= ctx.n(), \"bound\");
    ctx.decide(v).await;
    v
}
pub async fn read_inner(self_reg: &Register<u64>, ctx: &Ctx<()>) -> u64 {
    ctx.invoke(1).await
}
",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unawaited_step_and_stashed_future_trip_c1() {
        let findings = check_src(
            "
async fn bad(ctx: &Ctx<()>) {
    let fut = ctx.invoke(1);
    let x = fut.await;
}
",
        );
        let rules: Vec<RuleId> = findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec![RuleId::C1, RuleId::C1], "{findings:?}");
        assert!(
            findings[0].message.contains("never awaited"),
            "{findings:?}"
        );
        assert!(
            findings[1].message.contains("0 shared operations"),
            "{findings:?}"
        );
    }

    #[test]
    fn sync_helper_taking_ctx_is_fine() {
        let findings = check_src(
            "
fn mine(ctx: &Ctx<()>, r: &RegisterArray<u64>) -> Register<u64> { r.slot(0) }
async fn good(ctx: &Ctx<()>, r: &RegisterArray<u64>) -> u64 {
    mine(ctx, r).read(ctx).await
}
async fn read(self_r: &Register<u64>, ctx: &Ctx<()>) -> u64 {
    ctx.invoke(0).await
}
",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn ctx_alias_and_wrapper_trip_c3() {
        let findings = check_src(
            "
async fn bad(ctx: &Ctx<()>, r: Register<u64>) {
    let stash = ctx;
    let boxed = Box::new(r);
    ctx.yield_step().await
}
",
        );
        let rules: Vec<RuleId> = findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&RuleId::C3), "{findings:?}");
        assert!(
            findings.iter().any(|f| f.message.contains("Box::new")),
            "{findings:?}"
        );
    }

    #[test]
    fn closure_capturing_handle_trips_c3_but_data_closures_pass() {
        let findings = check_src(
            "
async fn bad(ctx: &Ctx<()>, r: &Register<u64>) -> u64 {
    let vals: Vec<u64> = (0..3).map(|i| i + 1).collect();
    let f = move |x: u64| r.slot(x);
    ctx.invoke(vals[0]).await
}
",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, RuleId::C3);
        assert!(findings[0].message.contains('r'), "{findings:?}");
    }

    #[test]
    fn double_op_chain_trips_c1() {
        let findings = check_src(
            "
async fn read(self_r: &Register<u64>, ctx: &Ctx<()>) -> u64 {
    ctx.invoke(0).await
}
async fn bad(ctx: &Ctx<()>, a: &Register<u64>, b: &Register<u64>) -> u64 {
    let x = helper(a.read(ctx).await, ctx.pid());
    x
}
fn helper(v: u64, p: ProcessId) -> u64 { v }
",
        );
        assert!(findings.is_empty(), "{findings:?}");
        let findings = check_src(
            "
async fn read(self_r: &Register<u64>, ctx: &Ctx<()>) -> u64 {
    ctx.invoke(0).await
}
async fn bad(ctx: &Ctx<()>, a: &Register<u64>) -> u64 {
    let x = pair(a.read(ctx), a.read(ctx)).await;
    0
}
",
        );
        assert!(
            findings
                .iter()
                .any(|f| f.rule == RuleId::C1 && f.message.contains("2 shared operations")),
            "{findings:?}"
        );
    }

    #[test]
    fn match_pattern_pipes_are_not_closures() {
        let findings = check_src(
            "
async fn good(ctx: &Ctx<()>, x: Option<u64>) -> u64 {
    let y = match x { Some(0) | None => 0, Some(v) => v };
    ctx.decide(y).await;
    y
}
",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }
}
