//! The workspace call graph: every call site in every fn body, resolved
//! to [`crate::symbols::FnDef`]s across the workspace crates, plus the fns
//! named as values and the fns used outside any fn body.
//!
//! Resolution is name-based with locality, because the lexer-level model
//! has no trait solver:
//!
//! * `self.close()` resolves to `close` methods of the enclosing impl
//!   type first.
//! * `recv.close()` uses the receiver's declared type when the local
//!   type environment ([`TypeEnv`]) knows it (a parameter, a `let` with
//!   an annotation, or a `Type::new()` / `Type { … }` initializer). An
//!   unknown receiver keeps every method of that name in the workspace.
//! * `Type::close()` filters by impl type (`Self` is the enclosing impl
//!   type); `module::close()` filters by defining file.
//! * A bare `close(...)` only ever names a free fn (a method needs a
//!   receiver or a path). It prefers same-file definitions, then
//!   same-crate, then (only then) the rest of the workspace — so a helper
//!   shadowing a foreign fn name resolves locally, and a cross-crate call
//!   resolves as long as the name exists there.
//! * `f::<N>(…)` is a call; `!f(x)` is a call (`f!(…)` is the macro).
//! * A fn named without a call — `.and_then(first_nominal)`,
//!   `map(Type::parse)` — is a value reference: qualified paths resolve
//!   like calls, bare names only where no parameter or local binds them.
//!
//! Ambiguity keeps *all* surviving candidates: the graph over-approximates
//! (extra edges), which is the safe direction for reachability rules. The
//! shapes it can still under-approximate are listed in DESIGN §16.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Tok, Token};
use crate::model::{match_brace, SourceFile};
use crate::symbols::{FnDef, SymbolTable};

/// Identifiers that look like calls but never are.
const NON_CALL_IDENTS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "else", "fn", "let",
    "mut", "ref", "unsafe", "where", "impl", "dyn", "Some", "None", "Ok", "Err", "Box", "Rc",
    "RefCell", "Vec", "String", "Cell",
];

/// One resolved call site inside a fn body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Token index of the callee name in the caller's file.
    pub tok: usize,
    /// Source line of the call.
    pub line: u32,
    /// Resolved callee fn indices (several when ambiguous).
    pub callees: Vec<usize>,
    /// Callee name as written.
    pub name: String,
    /// Token index of the argument list's `(`.
    pub args_open: usize,
}

/// A fn used outside every fn body: called in a `const`/`static`
/// initializer or named in one. Nothing calls these sites, so
/// reachability rules treat their callees as roots.
#[derive(Clone, Debug)]
pub struct ItemRef {
    pub file: usize,
    pub tok: usize,
    pub callees: Vec<usize>,
}

/// The call graph: per-caller call sites, per-caller value references,
/// and the references outside any fn.
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    /// Indexed by caller fn index.
    pub sites: Vec<Vec<CallSite>>,
    /// Indexed by caller fn index: fns the caller names without calling
    /// (passed as a value), which it may call through the value.
    pub refs: Vec<Vec<usize>>,
    pub item_refs: Vec<ItemRef>,
}

impl CallGraph {
    pub fn build(files: &[SourceFile], symbols: &SymbolTable) -> CallGraph {
        let resolver = Resolver::new(symbols);
        let mut graph = CallGraph {
            sites: vec![Vec::new(); symbols.fns.len()],
            refs: vec![Vec::new(); symbols.fns.len()],
            item_refs: Vec::new(),
        };
        for (file_idx, file) in files.iter().enumerate() {
            let tokens = file.tokens();
            let skip = not_code(tokens);
            let owner = innermost_fns(symbols, file_idx, tokens.len());
            let envs: BTreeMap<usize, (TypeEnv, BTreeSet<String>)> = owner
                .iter()
                .flatten()
                .collect::<BTreeSet<_>>()
                .into_iter()
                .map(|&f| {
                    let def = &symbols.fns[f];
                    (f, (TypeEnv::build(def, tokens), bound_names(def, tokens)))
                })
                .collect();
            let empty = (TypeEnv::default(), BTreeSet::new());
            for i in 0..tokens.len() {
                if skip[i] {
                    continue;
                }
                let caller = owner[i];
                // A fn's own signature is not a use of anything.
                if caller.is_some_and(|f| i < symbols.fns[f].span.body_start) {
                    continue;
                }
                let (env, locals) = caller.map_or(&empty, |f| &envs[&f]);
                let scope = Scope {
                    file: file_idx,
                    self_type: caller.and_then(|f| symbols.fns[f].self_type.as_deref()),
                    env,
                    locals,
                };
                let Some((callees, args_open)) = resolver.resolve(tokens, i, &scope) else {
                    continue;
                };
                match (caller, args_open) {
                    (Some(f), Some(open)) => graph.sites[f].push(CallSite {
                        tok: i,
                        line: tokens[i].line,
                        callees,
                        name: tokens[i].ident().unwrap_or_default().to_owned(),
                        args_open: open,
                    }),
                    (Some(f), None) => graph.refs[f].extend(callees),
                    (None, _) => graph.item_refs.push(ItemRef {
                        file: file_idx,
                        tok: i,
                        callees,
                    }),
                }
            }
        }
        graph
    }

    /// Breadth-first reachability from `entries`. Returns, per fn, the
    /// index of the caller that first reached it (`entries` map to
    /// themselves), or `None` if unreachable.
    pub fn reachable_from(&self, entries: &[usize]) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.sites.len()];
        let mut queue: std::collections::VecDeque<usize> = Default::default();
        for &e in entries {
            if parent[e].is_none() {
                parent[e] = Some(e);
                queue.push_back(e);
            }
        }
        while let Some(f) = queue.pop_front() {
            let called = self.sites[f].iter().flat_map(|s| &s.callees);
            for &callee in called.chain(&self.refs[f]) {
                if parent[callee].is_none() {
                    parent[callee] = Some(f);
                    queue.push_back(callee);
                }
            }
        }
        parent
    }

    /// The entry-to-`target` call chain implied by a `reachable_from`
    /// parent map, as qualified fn names.
    pub fn chain(
        &self,
        symbols: &SymbolTable,
        parent: &[Option<usize>],
        target: usize,
    ) -> Vec<String> {
        let mut chain = vec![target];
        let mut cur = target;
        while let Some(p) = parent[cur] {
            if p == cur {
                break;
            }
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
            .into_iter()
            .map(|f| symbols.fns[f].qualified())
            .collect()
    }
}

/// Per token of `file`: the innermost fn whose extent contains it.
fn innermost_fns(symbols: &SymbolTable, file: usize, len: usize) -> Vec<Option<usize>> {
    let mut owner: Vec<Option<usize>> = vec![None; len];
    let mut defs: Vec<(usize, &FnDef)> = symbols
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.file == file)
        .collect();
    // Outer spans first, so an inner fn overwrites its region.
    defs.sort_by_key(|(_, f)| std::cmp::Reverse(f.span.end - f.span.start));
    for (idx, f) in defs {
        for slot in &mut owner[f.span.start..f.span.end.min(len)] {
            *slot = Some(idx);
        }
    }
    owner
}

/// Per token: inside a `use …;` declaration or a `#[…]` attribute, which
/// name fns without using them.
fn not_code(tokens: &[Token]) -> Vec<bool> {
    let mut skip = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        let end = if tokens[i].is_ident("use") {
            (i..tokens.len()).find(|&j| tokens[j].is_punct(';'))
        } else if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            match_brace(tokens, i + 1)
        } else {
            None
        };
        match end {
            Some(end) => {
                skip[i..end].fill(true);
                i = end;
            }
            None => i += 1,
        }
    }
    skip
}

/// Names a fn body binds: parameters, `let` / `for` patterns, closure
/// parameters and match-arm patterns. A bare name in this set is a local,
/// never a fn value.
fn bound_names(def: &FnDef, tokens: &[Token]) -> BTreeSet<String> {
    let mut names: BTreeSet<String> = def.params.iter().map(|p| p.name.clone()).collect();
    let body = &tokens[def.span.body_start..def.span.end.min(tokens.len())];
    let mut grab =
        |part: &[Token]| names.extend(part.iter().filter_map(|t| t.ident().map(str::to_owned)));
    for (k, t) in body.iter().enumerate() {
        let rest = &body[k + 1..];
        if t.is_ident("let") {
            let n = rest
                .iter()
                .position(|t| t.is_punct('=') || t.is_punct(';'))
                .unwrap_or(rest.len());
            grab(&rest[..n]);
        } else if t.is_ident("for") {
            let n = rest.iter().position(|t| t.is_ident("in")).unwrap_or(0);
            grab(&rest[..n]);
        } else if t.is_punct('|') && k > 0 && opens_closure(&body[k - 1]) {
            let n = rest.iter().position(|t| t.is_punct('|')).unwrap_or(0);
            grab(&rest[..n]);
        } else if t.is_punct('=') && rest.first().is_some_and(|t| t.is_punct('>')) {
            // A match arm's pattern runs back to the previous `,`, `{` or
            // `}` outside any group.
            let mut depth = 0i32;
            let mut j = k;
            while j > 0 {
                j -= 1;
                match body[j].tok {
                    Tok::Punct(')') | Tok::Punct(']') => depth += 1,
                    Tok::Punct('(') | Tok::Punct('[') if depth > 0 => depth -= 1,
                    Tok::Punct(',')
                    | Tok::Punct('{')
                    | Tok::Punct('}')
                    | Tok::Punct('(')
                    | Tok::Punct('[')
                        if depth == 0 =>
                    {
                        break
                    }
                    _ => {}
                }
            }
            grab(&body[j + 1..k]);
        }
    }
    names
}

/// True if a `|` after `prev` opens a closure's parameter list rather
/// than being a bitwise or.
fn opens_closure(prev: &Token) -> bool {
    matches!(prev.tok, Tok::Punct('(' | ',' | '=' | '{' | ';' | '>'))
        || prev.is_ident("move")
        || prev.is_ident("return")
}

/// Where a name is being resolved from.
struct Scope<'a> {
    file: usize,
    /// The enclosing impl type (what `self` and `Self` mean).
    self_type: Option<&'a str>,
    env: &'a TypeEnv,
    /// Names the enclosing fn binds locally.
    locals: &'a BTreeSet<String>,
}

/// Name lookup over the symbol table.
struct Resolver<'s> {
    symbols: &'s SymbolTable,
    /// name -> fn indices, for candidate lookup.
    by_name: BTreeMap<&'s str, Vec<usize>>,
}

impl<'s> Resolver<'s> {
    fn new(symbols: &'s SymbolTable) -> Resolver<'s> {
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (idx, f) in symbols.fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(idx);
        }
        Resolver { symbols, by_name }
    }

    /// If token `i` names a fn — called (`Some(args_open)`) or passed as
    /// a value (`None`) — its resolved candidates.
    fn resolve(
        &self,
        tokens: &[Token],
        i: usize,
        scope: &Scope<'_>,
    ) -> Option<(Vec<usize>, Option<usize>)> {
        let Tok::Ident(name) = &tokens[i].tok else {
            return None;
        };
        if NON_CALL_IDENTS.contains(&name.as_str()) || (i > 0 && tokens[i - 1].is_ident("fn")) {
            return None;
        }
        let candidates = self.by_name.get(name.as_str())?;
        let args_open = call_parens(tokens, i);
        let is_method = i > 0 && tokens[i - 1].is_punct('.');
        let pathed = i >= 2 && tokens[i - 1].is_punct(':') && tokens[i - 2].is_punct(':');
        let qualifier = if pathed { tokens[i - 3].ident() } else { None };
        if args_open.is_none() && !is_value(tokens, i, is_method, pathed, scope) {
            return None;
        }
        let fns = &self.symbols.fns;
        let of = |keep: &dyn Fn(&FnDef) -> bool| -> Vec<usize> {
            candidates
                .iter()
                .copied()
                .filter(|&c| keep(&fns[c]))
                .collect()
        };

        if is_method {
            // No locality for methods: the receiver's type, not the
            // caller's file, decides which impl runs.
            let recv_ty = match tokens.get(i.wrapping_sub(2)).map(|t| &t.tok) {
                Some(Tok::Ident(r)) if r == "self" => scope.self_type.map(str::to_owned),
                // `a.b.close()`: `b` is a field, not a local.
                Some(Tok::Ident(r)) if !(i >= 3 && tokens[i - 3].is_punct('.')) => {
                    scope.env.ty_of(r)
                }
                _ => None,
            };
            let typed = recv_ty.map_or_else(Vec::new, |ty| {
                of(&|f: &FnDef| f.self_type.as_deref() == Some(ty.as_str()))
            });
            let resolved = if typed.is_empty() {
                of(&|f: &FnDef| f.has_self)
            } else {
                typed
            };
            return (!resolved.is_empty()).then_some((resolved, args_open));
        }

        let filtered = match qualifier {
            // A bare name never reaches a method.
            _ if !pathed => of(&|f: &FnDef| f.self_type.is_none()),
            Some(q) if q.chars().next().is_some_and(char::is_uppercase) => {
                let q = if q == "Self" {
                    scope.self_type.unwrap_or(q)
                } else {
                    q
                };
                let typed = of(&|f: &FnDef| f.self_type.as_deref() == Some(q));
                if typed.is_empty() {
                    candidates.clone()
                } else {
                    typed
                }
            }
            Some(module) => {
                let (dir, leaf) = (format!("/{module}/"), format!("/{module}.rs"));
                let in_module = of(&|f: &FnDef| {
                    let path = symbols_path(self.symbols, f.file);
                    path.contains(&dir) || path.ends_with(&leaf)
                });
                if in_module.is_empty() {
                    candidates.clone()
                } else {
                    in_module
                }
            }
            // `<T as Trait>::name`, `Type::<T>::name`: any candidate.
            None => candidates.clone(),
        };
        if filtered.is_empty() {
            return None;
        }

        // Locality: same file beats same crate beats the rest.
        let same_file: Vec<usize> = filtered
            .iter()
            .copied()
            .filter(|&c| fns[c].file == scope.file)
            .collect();
        let resolved = if !same_file.is_empty() {
            same_file
        } else {
            let caller_crate = crate_of(symbols_path(self.symbols, scope.file));
            let same_crate: Vec<usize> = filtered
                .iter()
                .copied()
                .filter(|&c| crate_of(symbols_path(self.symbols, fns[c].file)) == caller_crate)
                .collect();
            if !same_crate.is_empty() {
                same_crate
            } else {
                filtered
            }
        };
        Some((resolved, args_open))
    }
}

/// True if the uncalled name at `i` is a fn passed as a value: a path
/// that goes no further, or a bare name in an argument or initializer
/// slot that no local binds.
fn is_value(tokens: &[Token], i: usize, is_method: bool, pathed: bool, scope: &Scope<'_>) -> bool {
    let name = tokens[i].ident().unwrap_or_default();
    let next = tokens.get(i + 1);
    if is_method
        || i == 0
        || !name.starts_with(|c: char| c.is_lowercase() || c == '_')
        || next.is_some_and(|t| t.is_punct('!') || t.is_punct('.') || t.is_punct(':'))
    {
        return false;
    }
    pathed
        || (matches!(tokens[i - 1].tok, Tok::Punct('(' | ',' | '[' | '='))
            && next.is_none_or(|t| matches!(t.tok, Tok::Punct(')' | ',' | ']' | ';')))
            && !scope.locals.contains(name))
}

/// If the name at `i` is called — `name(` or `name::<…>(` — the index of
/// the argument list's `(`. `name!(` is a macro and `fn name(` a
/// definition; neither reaches here as a call.
fn call_parens(tokens: &[Token], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.is_punct(':'))
        && tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(j + 2).is_some_and(|t| t.is_punct('<'))
    {
        // Turbofish: skip the generic arguments.
        let mut depth = 0i32;
        j += 2;
        while j < tokens.len() {
            match tokens[j].tok {
                Tok::Punct('<') => depth += 1,
                Tok::Punct('>') if !tokens[j - 1].is_punct('-') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Punct(';' | '{' | '}') => return None,
                _ => {}
            }
            j += 1;
        }
        j += 1;
    }
    tokens.get(j).is_some_and(|t| t.is_punct('(')).then_some(j)
}

fn symbols_path(symbols: &SymbolTable, file: usize) -> &str {
    &symbols.paths[file]
}

/// First two path segments — the crate a file belongs to (`crates/core`),
/// or the top-level directory for `tests/` and `examples/`.
pub fn crate_of(path: &str) -> &str {
    let mut seen = 0;
    for (i, b) in path.bytes().enumerate() {
        if b == b'/' {
            seen += 1;
            if seen == 2 {
                return &path[..i];
            }
        }
    }
    path.split('/').next().unwrap_or(path)
}

/// Local variable types inside one fn: parameters plus `let` bindings
/// whose type is either annotated or evident from a constructor.
#[derive(Clone, Debug, Default)]
pub struct TypeEnv {
    tys: BTreeMap<String, String>,
}

impl TypeEnv {
    pub fn build(def: &FnDef, tokens: &[Token]) -> TypeEnv {
        let mut env = TypeEnv::default();
        for p in &def.params {
            // The binding's nominal type is the first type-position
            // identifier that is not a reference/container shell.
            if let Some(t) = nominal(&p.ty) {
                env.tys.insert(p.name.clone(), t);
            }
        }
        let mut i = def.span.body_start;
        while i + 2 < def.span.end.min(tokens.len()) {
            if tokens[i].is_ident("let") {
                // `let [mut] name [: Ty] = …`
                let mut j = i + 1;
                if tokens[j].is_ident("mut") {
                    j += 1;
                }
                if let Some(Tok::Ident(name)) = tokens.get(j).map(|t| &t.tok) {
                    let name = name.clone();
                    if tokens.get(j + 1).is_some_and(|t| t.is_punct(':')) {
                        // Annotated: idents up to `=` or `;`.
                        let ty: Vec<String> = tokens[j + 2..]
                            .iter()
                            .take_while(|t| !t.is_punct('=') && !t.is_punct(';'))
                            .filter_map(|t| t.ident().map(str::to_owned))
                            .collect();
                        if let Some(t) = nominal(&ty) {
                            env.tys.insert(name, t);
                        }
                    } else if tokens.get(j + 1).is_some_and(|t| t.is_punct('=')) {
                        // `= Type::new(…)` / `= Type { … }`
                        if let Some(Tok::Ident(ctor)) = tokens.get(j + 2).map(|t| &t.tok) {
                            let is_path = tokens.get(j + 3).is_some_and(|t| t.is_punct(':'));
                            let is_lit = tokens.get(j + 3).is_some_and(|t| t.is_punct('{'));
                            if (is_path || is_lit)
                                && ctor.chars().next().is_some_and(char::is_uppercase)
                            {
                                env.tys.insert(name, ctor.clone());
                            }
                        }
                    }
                }
            }
            i += 1;
        }
        env
    }

    pub fn ty_of(&self, name: &str) -> Option<String> {
        self.tys.get(name).cloned()
    }
}

/// The nominal type of a declaration: the first identifier that is not a
/// reference shell or common smart-pointer/container wrapper. `&mut
/// Session` → `Session`; `Rc<RefCell<Tracer>>` → `Tracer`.
fn nominal(ty: &[String]) -> Option<String> {
    const SHELLS: &[&str] = &[
        "mut", "dyn", "Box", "Rc", "Arc", "RefCell", "Cell", "Option",
    ];
    ty.iter().find(|t| !SHELLS.contains(&t.as_str())).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(sources: &[(&str, &str)]) -> (Vec<SourceFile>, SymbolTable, CallGraph) {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(rel, src)| SourceFile::parse(rel, src, &["wall-clock"]))
            .collect();
        let symbols = SymbolTable::build(&files);
        let graph = CallGraph::build(&files, &symbols);
        (files, symbols, graph)
    }

    fn fn_idx(symbols: &SymbolTable, qualified: &str) -> usize {
        symbols
            .fns
            .iter()
            .position(|f| f.qualified() == qualified)
            .unwrap_or_else(|| panic!("no fn {qualified}"))
    }

    /// Qualified names of everything `caller` calls, sorted.
    fn callees(symbols: &SymbolTable, graph: &CallGraph, caller: usize) -> Vec<String> {
        let mut out: Vec<String> = graph.sites[caller]
            .iter()
            .flat_map(|s| s.callees.iter().map(|&c| symbols.fns[c].qualified()))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn cross_crate_calls_resolve_when_the_name_is_unique() {
        let (_, symbols, graph) = build(&[
            (
                "crates/core/src/engine.rs",
                "pub fn drive() { seal_blob(b\"x\"); }",
            ),
            (
                "crates/crypto/src/seal.rs",
                "pub fn seal_blob(b: &[u8]) -> Vec<u8> { b.to_vec() }",
            ),
        ]);
        let drive = fn_idx(&symbols, "drive");
        assert_eq!(callees(&symbols, &graph, drive), ["seal_blob"]);
    }

    #[test]
    fn self_methods_resolve_to_the_enclosing_impl_type() {
        // Two types define `close`; `self.close()` inside World::run must
        // pick World's, not Segment's.
        let (_, symbols, graph) = build(&[
            (
                "crates/sim/src/world.rs",
                "struct World;\nimpl World {\n fn close(&mut self) {}\n fn run(&mut self) { self.close(); }\n}",
            ),
            (
                "crates/core/src/storage.rs",
                "struct Segment;\nimpl Segment {\n fn close(&mut self) {}\n}",
            ),
        ]);
        let run = fn_idx(&symbols, "World::run");
        assert_eq!(callees(&symbols, &graph, run), ["World::close"]);
    }

    #[test]
    fn typed_receivers_resolve_through_the_local_type_env() {
        // `seg` is annotated `Segment`, so `seg.close()` picks
        // Segment::close even from inside World's impl.
        let (_, symbols, graph) = build(&[
            (
                "crates/sim/src/world.rs",
                "struct World;\nimpl World {\n fn tick(&mut self, seg: &mut Segment) { seg.close(); }\n}",
            ),
            (
                "crates/core/src/storage.rs",
                "struct Segment;\nimpl Segment {\n fn close(&mut self) {}\n}\nstruct Tracer;\nimpl Tracer {\n fn close(&mut self) {}\n}",
            ),
        ]);
        let tick = fn_idx(&symbols, "World::tick");
        assert_eq!(callees(&symbols, &graph, tick), ["Segment::close"]);
    }

    #[test]
    fn a_local_shadow_beats_the_foreign_name() {
        // Both crates define `checksum`; the bare call resolves to the
        // same-file one only.
        let (_, symbols, graph) = build(&[
            (
                "crates/core/src/pages.rs",
                "fn checksum(b: &[u8]) -> u32 { b.len() as u32 }\nfn page_digest(b: &[u8]) -> u32 { checksum(b) }",
            ),
            (
                "crates/crypto/src/hashing.rs",
                "pub fn checksum(b: &[u8]) -> u32 { 7 }",
            ),
        ]);
        let caller = fn_idx(&symbols, "page_digest");
        let sites = &graph.sites[caller];
        let cs = sites.iter().find(|s| s.name == "checksum").unwrap();
        assert_eq!(cs.callees.len(), 1, "shadow must not be ambiguous");
        assert_eq!(symbols.fns[cs.callees[0]].file, 0, "same-file wins");
    }

    #[test]
    fn an_unknown_receiver_keeps_every_method_candidate() {
        // No type info for `x`: `x.close()` over-approximates to all
        // `close` *methods* — never under-approximates, and never picks
        // up a free fn of the same name.
        let (_, symbols, graph) = build(&[
            ("crates/core/src/a.rs", "fn go(x: &X) { x.close(); }"),
            (
                "crates/core/src/b.rs",
                "struct S;\nimpl S {\n fn close(&self) {}\n}\nstruct T;\nimpl T {\n fn close(&self) {}\n}\nfn close() {}",
            ),
        ]);
        let go = fn_idx(&symbols, "go");
        assert_eq!(callees(&symbols, &graph, go), ["S::close", "T::close"]);
    }

    /// Qualified names of everything reachable from `from`, itself
    /// excluded, sorted.
    fn reached(symbols: &SymbolTable, graph: &CallGraph, from: usize) -> Vec<String> {
        let parent = graph.reachable_from(&[from]);
        let mut out: Vec<String> = (0..parent.len())
            .filter(|&f| f != from && parent[f].is_some())
            .map(|f| symbols.fns[f].qualified())
            .collect();
        out.sort();
        out
    }

    #[test]
    fn a_negated_call_is_a_call_not_a_macro() {
        // `!is_designed_refusal(e)`: the `!` before the name is a logical
        // not; only `name!(…)` is a macro.
        let (_, symbols, graph) = build(&[(
            "perfbench/src/timed.rs",
            "fn is_designed_refusal(e: u32) -> bool { e == 0 }
             fn check(e: u32) -> bool { !is_designed_refusal(e) }",
        )]);
        let check = fn_idx(&symbols, "check");
        assert_eq!(reached(&symbols, &graph, check), ["is_designed_refusal"]);
    }

    #[test]
    fn turbofish_calls_are_calls() {
        // `cios::<8>(…)`: the Montgomery kernel is only ever called with
        // explicit const generics.
        let (_, symbols, graph) = build(&[(
            "crates/crypto/src/bignum.rs",
            "fn cios<const N: usize>(out: &mut [u64]) {}
             fn mul(out: &mut [u64]) { match out.len() { 8 => cios::<8>(out), _ => cios::<{ 32 }>(out) } }",
        )]);
        let mul = fn_idx(&symbols, "mul");
        assert_eq!(reached(&symbols, &graph, mul), ["cios"]);
    }

    #[test]
    fn a_bare_call_never_binds_a_same_named_method() {
        // Inside `World::run_session`, a bare `run_session(…)` is the free
        // fn from `auth`, not the method itself.
        let (_, symbols, graph) = build(&[
            (
                "crates/core/src/scenario.rs",
                "struct World;
impl World {
 pub fn run_session(&mut self) -> u32 { run_session(7) }
}",
            ),
            (
                "crates/core/src/auth.rs",
                "pub fn run_session(touches: u32) -> u32 { touches }",
            ),
        ]);
        let method = fn_idx(&symbols, "World::run_session");
        assert_eq!(reached(&symbols, &graph, method), ["run_session"]);
    }

    #[test]
    fn an_unknown_receiver_is_not_narrowed_to_the_callers_file() {
        // `rec` comes from a `for` pattern, so its type is unknown: every
        // `corrupt_segments` method stays a candidate, not just the one
        // defined next to the caller.
        let (_, symbols, graph) = build(&[
            (
                "crates/core/src/chaos.rs",
                "struct MultiChaosReport;
impl MultiChaosReport {
 fn corrupt_segments(&self) -> u64 { 0 }
}
                 fn total(recs: &[u64]) -> u64 { let mut n = 0; for rec in recs { n += rec.corrupt_segments(); } n }",
            ),
            (
                "crates/core/src/server/recovery.rs",
                "struct RecoveryReport;
impl RecoveryReport {
 fn corrupt_segments(&self) -> u64 { 1 }
}",
            ),
        ]);
        let total = fn_idx(&symbols, "total");
        assert_eq!(
            reached(&symbols, &graph, total),
            [
                "MultiChaosReport::corrupt_segments",
                "RecoveryReport::corrupt_segments"
            ]
        );
    }

    #[test]
    fn calls_outside_fn_bodies_are_item_references() {
        // `const CRC_TABLES = build_crc_tables();` has no caller fn, but
        // the initializer runs `build_crc_tables`.
        let (_, symbols, graph) = build(&[(
            "crates/core/src/server/journal.rs",
            "const CRC_TABLES: [u32; 4] = build_crc_tables();
             const fn build_crc_tables() -> [u32; 4] { [0; 4] }
             #[derive(Debug)]
struct Frame(u32);",
        )]);
        let tables = fn_idx(&symbols, "build_crc_tables");
        let roots: Vec<usize> = graph
            .item_refs
            .iter()
            .flat_map(|r| r.callees.clone())
            .collect();
        assert_eq!(roots, [tables]);
    }

    #[test]
    fn a_fn_passed_as_a_value_is_an_edge_but_a_local_is_not() {
        // `.and_then(first_nominal)` and `map(Parser::parse)` hand fns to
        // a combinator that calls them. `run` in `merge` is a loop
        // binding, and must not resolve to the free fn `run`.
        let (_, symbols, graph) = build(&[
            (
                "crates/lint/src/dataflow.rs",
                "fn field_ty(t: u32) -> Option<u32> { Some(t) }
                 fn first_nominal(t: u32) -> Option<u32> { Some(t) }
                 struct Parser;
impl Parser {
 fn parse(t: u32) -> u32 { t }
}
                 fn resolve(t: u32) -> Option<u32> { field_ty(t).and_then(first_nominal).map(Parser::parse) }
                 fn merge(runs: Vec<u32>) -> Vec<u32> { let mut out = vec![]; for run in runs { out.push(run); } out }",
            ),
            ("perfbench/src/main.rs", "pub fn run() {}"),
        ]);
        let resolve = fn_idx(&symbols, "resolve");
        assert_eq!(
            reached(&symbols, &graph, resolve),
            ["Parser::parse", "field_ty", "first_nominal"]
        );
        let merge = fn_idx(&symbols, "merge");
        assert!(reached(&symbols, &graph, merge).is_empty());
    }

    #[test]
    fn imports_and_attributes_are_not_uses() {
        let (_, symbols, graph) = build(&[
            (
                "crates/core/src/a.rs",
                "use crate::b::helper;
#[cfg(test)]
fn test() {}",
            ),
            (
                "crates/core/src/b.rs",
                "pub fn helper() {}
pub fn cfg() {}",
            ),
        ]);
        assert!(graph.item_refs.is_empty(), "{:?}", graph.item_refs);
        assert!(reached(&symbols, &graph, fn_idx(&symbols, "test")).is_empty());
    }

    #[test]
    fn reachability_chains_reconstruct_the_path() {
        let (_, symbols, graph) = build(&[(
            "crates/sim/src/world.rs",
            "fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn unrelated() {}",
        )]);
        let (a, c) = (fn_idx(&symbols, "a"), fn_idx(&symbols, "c"));
        let parent = graph.reachable_from(&[a]);
        assert!(parent[c].is_some());
        assert!(parent[fn_idx(&symbols, "unrelated")].is_none());
        assert_eq!(graph.chain(&symbols, &parent, c), ["a", "b", "c"]);
    }
}
