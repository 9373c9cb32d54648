//! Discovery of algorithm bodies and the workspace function index.
//!
//! An *algorithm body* — the code the §3.1 model contract governs — is
//! either:
//!
//! * the `async move { ... }` block of a closure passed to `algo(...)`
//!   (the simulator's entry point for process algorithms), or
//! * the body of an `async fn` that takes the execution context (a
//!   parameter named `ctx` or of type `Ctx<...>`) — the helper routines
//!   algorithms are composed from (`Register::read`, `converge`, Fig. 1's
//!   `propose`, ...).
//!
//! `#[cfg(test)] mod` subtrees and `tests/`/`benches/` files are excluded:
//! harness code legitimately uses host constructs (mutex-collected results,
//! for instance) and is not algorithm code.

use crate::lexer;
use crate::tree::{self, Delim, Spanned, Tok};

/// A parsed `#[conform(...)]` annotation.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Annotation {
    /// `wait_free`: the routine claims a bounded per-invocation step count.
    pub wait_free: bool,
    /// `bound = "expr"`: a loop iteration bound, or a whole-routine bound
    /// override when attached to a `fn`.
    pub bound: Option<String>,
    /// Line of the annotation comment.
    pub line: u32,
}

/// Parses the inner text of `#[conform(...)]`.
///
/// Items are comma-separated: `wait_free` and/or `bound = "<expr>"`.
///
/// # Errors
///
/// Returns a description of the first malformed item.
pub fn parse_annotation(text: &str, line: u32) -> Result<Annotation, String> {
    let mut ann = Annotation {
        line,
        ..Annotation::default()
    };
    for item in split_top_level(text) {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        if item == "wait_free" {
            ann.wait_free = true;
        } else if let Some(rest) = item.strip_prefix("bound") {
            let rest = rest.trim_start();
            let Some(rest) = rest.strip_prefix('=') else {
                return Err(format!("expected `bound = \"...\"`, got `{item}`"));
            };
            let rest = rest.trim();
            let inner = rest
                .strip_prefix('"')
                .and_then(|r| r.strip_suffix('"'))
                .ok_or_else(|| format!("bound expression must be quoted, got `{rest}`"))?;
            ann.bound = Some(inner.to_string());
        } else {
            return Err(format!(
                "unknown conform annotation item `{item}` (known: wait_free, bound = \"...\")"
            ));
        }
    }
    Ok(ann)
}

/// Splits annotation text at top-level commas (commas inside quotes do not
/// split).
fn split_top_level(text: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in text.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                items.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    items.push(cur);
    items
}

/// A discovered function definition.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// The function name.
    pub name: String,
    /// Repository-relative file path.
    pub file: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Whether the definition is `async`.
    pub is_async: bool,
    /// Whether a parameter mentions `ctx` or `Ctx` (execution-context
    /// taking routines are algorithm code).
    pub takes_ctx: bool,
    /// Parameter-list tokens (used to spot shared-object-handle params).
    pub params: Vec<Spanned>,
    /// Body tokens (empty for bodiless trait declarations).
    pub body: Vec<Spanned>,
    /// The `#[conform(...)]` annotation directly above the item, if any.
    pub ann: Option<Annotation>,
}

/// A discovered `algo(|mut ctx| async move { ... })` closure body.
#[derive(Clone, Debug)]
pub struct AlgoBody {
    /// Repository-relative file path.
    pub file: String,
    /// Line of the `algo(` call.
    pub line: u32,
    /// The async block's tokens.
    pub body: Vec<Spanned>,
}

/// Everything discovered in one file.
#[derive(Clone, Default, Debug)]
pub struct FileModel {
    /// Function definitions outside test regions.
    pub fns: Vec<FnDef>,
    /// Algorithm closure bodies outside test regions.
    pub algos: Vec<AlgoBody>,
    /// Parse problems: `(line, message)` for bad trees or bad annotations.
    pub errors: Vec<(u32, String)>,
}

/// Lexes, tree-parses and walks one file.
pub fn model_file(rel_file: &str, source: &str) -> FileModel {
    match tree::parse(lexer::lex(source)) {
        Ok(tree) => model_tree(rel_file, &tree),
        Err(error) => FileModel {
            errors: vec![error],
            ..FileModel::default()
        },
    }
}

/// Walks one file's bracket tree.
pub fn model_tree(rel_file: &str, tree: &[Spanned]) -> FileModel {
    let mut model = FileModel::default();
    walk(tree, rel_file, &mut model);
    model
}

/// Whether a bracket attribute group is `cfg(test)` (or contains it, as in
/// `cfg(all(test, ...))`). A `test` under `not(...)` does not count.
pub(crate) fn is_cfg_test(children: &[Spanned]) -> bool {
    let mut saw_cfg = false;
    let mut saw_test = false;
    fn scan(children: &[Spanned], saw_cfg: &mut bool, saw_test: &mut bool) {
        for (i, c) in children.iter().enumerate() {
            match &c.tok {
                Tok::Ident(s) if s == "cfg" => *saw_cfg = true,
                Tok::Ident(s) if s == "test" => *saw_test = true,
                Tok::Group(_, inner, _) if i == 0 || children[i - 1].ident() != Some("not") => {
                    scan(inner, saw_cfg, saw_test);
                }
                _ => {}
            }
        }
    }
    scan(children, &mut saw_cfg, &mut saw_test);
    saw_cfg && saw_test
}

fn walk(toks: &[Spanned], file: &str, model: &mut FileModel) {
    let mut pending_ann: Option<Annotation> = None;
    let mut pending_cfg_test = false;
    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Conform(text) => {
                match parse_annotation(text, toks[i].line) {
                    Ok(a) => pending_ann = Some(a),
                    Err(e) => model.errors.push((toks[i].line, e)),
                }
                i += 1;
            }
            Tok::Punct('#') => {
                // `#[...]` or `#![...]` attribute; note cfg(test).
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.is_punct('!')) {
                    j += 1;
                }
                if let Some(Spanned {
                    tok: Tok::Group(Delim::Bracket, children, _),
                    ..
                }) = toks.get(j)
                {
                    if is_cfg_test(children) {
                        pending_cfg_test = true;
                    }
                    i = j + 1;
                } else {
                    i += 1;
                }
            }
            Tok::Ident(kw) if kw == "mod" && pending_cfg_test => {
                // Skip the whole `#[cfg(test)] mod name { ... }` subtree.
                let mut j = i + 1;
                while j < toks.len()
                    && !matches!(&toks[j].tok, Tok::Group(Delim::Brace, ..))
                    && !toks[j].is_punct(';')
                {
                    j += 1;
                }
                pending_cfg_test = false;
                pending_ann = None;
                i = j + 1;
            }
            Tok::Ident(kw) if kw == "fn" => {
                let ann = pending_ann.take();
                let is_async = preceded_by_async(toks, i);
                i = scan_fn(toks, i, file, is_async, ann, model);
                pending_cfg_test = false;
            }
            Tok::Ident(kw) if kw == "algo" => {
                // `algo ( ... |mut ctx| async move { body } ... )`
                if let Some(Spanned {
                    tok: Tok::Group(Delim::Paren, args, _),
                    ..
                }) = toks.get(i + 1)
                {
                    if let Some(body) = closure_body(args) {
                        model.algos.push(AlgoBody {
                            file: file.to_string(),
                            line: toks[i].line,
                            body: body.to_vec(),
                        });
                    } else {
                        model.errors.push((
                            toks[i].line,
                            "algo(...) call without a recognizable \
                             `|mut ctx| async move { ... }` closure"
                                .to_string(),
                        ));
                    }
                    // Recurse into the arguments anyway (nothing else to
                    // find there today, but nested items stay covered).
                    walk(args, file, model);
                    i += 2;
                } else {
                    i += 1;
                }
            }
            Tok::Group(_, children, _) => {
                pending_ann = None;
                pending_cfg_test = false;
                walk(children, file, model);
                i += 1;
            }
            Tok::Punct(';') => {
                pending_ann = None;
                pending_cfg_test = false;
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
    }
}

/// Whether the tokens shortly before index `i` (the `fn` keyword) include
/// `async` without an intervening item boundary.
fn preceded_by_async(toks: &[Spanned], i: usize) -> bool {
    let start = i.saturating_sub(4);
    toks[start..i].iter().any(|t| t.ident() == Some("async"))
}

/// Parses a `fn` item starting at the `fn` keyword; returns the index to
/// resume at.
fn scan_fn(
    toks: &[Spanned],
    fn_idx: usize,
    file: &str,
    is_async: bool,
    ann: Option<Annotation>,
    model: &mut FileModel,
) -> usize {
    let line = toks[fn_idx].line;
    let Some(name) = toks.get(fn_idx + 1).and_then(|t| t.ident()) else {
        return fn_idx + 1;
    };
    // Find the parameter list: the first paren group after the name (the
    // generic parameter lists in this codebase contain no parentheses).
    let mut j = fn_idx + 2;
    let params = loop {
        match toks.get(j) {
            Some(Spanned {
                tok: Tok::Group(Delim::Paren, children, _),
                ..
            }) => break children,
            Some(t) if t.is_punct(';') || matches!(t.tok, Tok::Group(Delim::Brace, ..)) => {
                return j; // malformed or macro-ish; skip
            }
            Some(_) => j += 1,
            None => return toks.len(),
        }
    };
    let takes_ctx = flat_contains_ident(params, "ctx") || flat_contains_ident(params, "Ctx");
    let params = params.clone();
    // Find the body: the first brace group before a `;` (a `;` first means
    // a bodiless trait-method declaration).
    let mut k = j + 1;
    let body: Vec<Spanned> = loop {
        match toks.get(k) {
            Some(Spanned {
                tok: Tok::Group(Delim::Brace, children, _),
                ..
            }) => break children.clone(),
            Some(t) if t.is_punct(';') => break Vec::new(),
            Some(_) => k += 1,
            None => break Vec::new(),
        }
    };
    // Recurse into the body: nested `algo(...)` closures (factory fns) and
    // nested items are discovered there.
    if !body.is_empty() {
        walk(&body, file, model);
    }
    model.fns.push(FnDef {
        name: name.to_string(),
        file: file.to_string(),
        line,
        is_async,
        takes_ctx,
        params,
        body,
        ann,
    });
    k + 1
}

/// Finds the `async { ... }` (or `async move { ... }`) block of a
/// `|mut ctx| ...` closure among call arguments.
fn closure_body(args: &[Spanned]) -> Option<&[Spanned]> {
    // Match: `|` ... `ctx` ... `|` then the first brace group after an
    // `async` keyword.
    let close = {
        let open = args.iter().position(|t| t.is_punct('|'))?;
        let close = args[open + 1..].iter().position(|t| t.is_punct('|'))? + open + 1;
        if !args[open..close].iter().any(|t| t.ident() == Some("ctx")) {
            return None;
        }
        close
    };
    let mut saw_async = false;
    for t in &args[close + 1..] {
        match &t.tok {
            Tok::Ident(s) if s == "async" => saw_async = true,
            Tok::Group(Delim::Brace, children, _) if saw_async => return Some(children),
            _ => {}
        }
    }
    None
}

fn flat_contains_ident(toks: &[Spanned], name: &str) -> bool {
    toks.iter().any(|t| match &t.tok {
        Tok::Ident(s) => s == name,
        Tok::Group(_, children, _) => flat_contains_ident(children, name),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_ctx_taking_async_fns() {
        let src = "
pub async fn propose(ctx: &mut Ctx<ProcessSet>, v: u64) -> u64 {
    ctx.decide(v).await
}
fn helper(x: u64) -> u64 { x }
";
        let m = model_file("crates/agreement/src/x.rs", src);
        assert_eq!(m.fns.len(), 2);
        assert!(m.fns[0].is_async && m.fns[0].takes_ctx);
        assert_eq!(m.fns[0].name, "propose");
        assert_eq!(m.fns[0].line, 2);
        assert!(!m.fns[1].is_async && !m.fns[1].takes_ctx);
        assert!(m.errors.is_empty());
    }

    #[test]
    fn finds_algo_closures_even_nested_in_factories() {
        let src = "
pub fn algorithm(v: u64) -> AlgoFn<()> {
    algo(move |mut ctx| async move {
        ctx.decide(v).await;
    })
}
";
        let m = model_file("crates/agreement/src/x.rs", src);
        assert_eq!(m.algos.len(), 1);
        assert_eq!(m.algos[0].line, 3);
        assert!(!m.algos[0].body.is_empty());
    }

    #[test]
    fn skips_cfg_test_modules() {
        let src = "
async fn real(ctx: &mut Ctx<()>) { ctx.yield_step().await }
#[cfg(test)]
mod tests {
    async fn fake(ctx: &mut Ctx<()>) { ctx.yield_step().await }
    fn harness() { algo(move |mut ctx| async move {}); }
}
";
        let m = model_file("crates/agreement/src/x.rs", src);
        assert_eq!(m.fns.len(), 1, "{:?}", m.fns);
        assert_eq!(m.fns[0].name, "real");
        assert!(m.algos.is_empty());
    }

    #[test]
    fn trait_declarations_have_no_body() {
        let src = "
pub trait LeaderSource<D> {
    async fn current_leader(&mut self, ctx: &mut Ctx<D>) -> ProcessId;
}
";
        let m = model_file("crates/agreement/src/x.rs", src);
        assert_eq!(m.fns.len(), 1);
        assert!(m.fns[0].body.is_empty());
        assert!(m.fns[0].takes_ctx);
    }

    #[test]
    fn annotations_attach_to_the_following_fn() {
        let src = "
// #[conform(wait_free, bound = \"n_plus_1 + 1\")]
pub async fn bounded(ctx: &mut Ctx<()>) { ctx.yield_step().await }
pub async fn plain(ctx: &mut Ctx<()>) { ctx.yield_step().await }
";
        let m = model_file("crates/mem/src/x.rs", src);
        let ann = m.fns[0].ann.as_ref().expect("annotated");
        assert!(ann.wait_free);
        assert_eq!(ann.bound.as_deref(), Some("n_plus_1 + 1"));
        assert!(m.fns[1].ann.is_none());
    }

    #[test]
    fn annotation_parser_rejects_junk() {
        assert!(parse_annotation("wait_free", 1).expect("ok").wait_free);
        assert!(parse_annotation("bound = \"R\", wait_free", 1).is_ok());
        assert!(parse_annotation("speedy", 1).is_err());
        assert!(parse_annotation("bound = R", 1).is_err());
    }

    #[test]
    fn parse_errors_are_reported_with_lines() {
        let m = model_file("crates/mem/src/x.rs", "fn f() {\n");
        assert_eq!(m.errors.len(), 1);
    }
}
