//! Workspace symbol table: every `fn` (with its impl type, parameters,
//! and return type), every `struct`/`enum` (with its fields), indexed by
//! file. This is the ground the call graph ([`crate::callgraph`]) and the
//! dataflow core ([`crate::dataflow`]) stand on.
//!
//! The table is recovered from the token stream, not an AST, so it is an
//! approximation by construction: generics are skipped rather than
//! modeled, trait methods without bodies are ignored, and a method's
//! "type" is the impl header's last path segment. Those limits are fine
//! for the rules built on top — they need *names with context* (which
//! `fn` is `Session::close` vs `Segment::close`), not full typing.

use crate::lexer::{Tok, Token};
use crate::model::{fn_spans, match_brace, struct_fields, type_items, Field, FnSpan, SourceFile};

/// One function parameter: its binding name and the identifier tokens of
/// its declared type (`key: &[u8]` → name `key`, ty `["u8"]`).
#[derive(Clone, Debug)]
pub struct Param {
    pub name: String,
    pub ty: Vec<String>,
}

/// One function definition, workspace-wide.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Index into the workspace file list.
    pub file: usize,
    /// Bare name as written (`close`).
    pub name: String,
    /// The impl type for methods (`Session` for `impl Session { fn close …`),
    /// `None` for free functions.
    pub self_type: Option<String>,
    /// Token extent within the defining file.
    pub span: FnSpan,
    /// Declared parameters, excluding any `self` receiver.
    pub params: Vec<Param>,
    /// Whether the signature takes `self` in any form.
    pub has_self: bool,
    /// Identifier tokens of the return type (empty for `()` / none).
    pub ret_ty: Vec<String>,
    /// Source line of the `fn` keyword.
    pub line: u32,
    /// Declared plain `pub` (not `pub(crate)` / `pub(super)`).
    pub is_pub: bool,
    /// Defined in an `impl Trait for Type` block or as a trait's default
    /// body: trait dispatch calls it, so no call site names it.
    pub trait_item: bool,
    /// Inside `#[cfg(test)]` code (a test module, a test-only item, or a
    /// file declared `#[cfg(test)] mod name;`).
    pub in_test: bool,
}

impl FnDef {
    /// `Type::name` for methods, `name` for free fns — what diagnostics
    /// and call chains print.
    pub fn qualified(&self) -> String {
        match &self.self_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One type definition (struct or enum) with its named fields.
#[derive(Clone, Debug)]
pub struct TypeDef {
    pub file: usize,
    pub name: String,
    pub is_struct: bool,
    pub fields: Vec<Field>,
}

/// The workspace symbol table.
#[derive(Clone, Debug, Default)]
pub struct SymbolTable {
    pub fns: Vec<FnDef>,
    pub types: Vec<TypeDef>,
    /// Workspace-relative path per file index (mirrors the file list the
    /// table was built from, so consumers need not thread it separately).
    pub paths: Vec<String>,
    /// Per file: token ranges `[start, end)` of `#[cfg(test)]` items.
    /// A file that is test code as a whole holds one all-covering range.
    pub test_ranges: Vec<Vec<(usize, usize)>>,
}

impl SymbolTable {
    /// Builds the table over every file, in file order.
    pub fn build(files: &[SourceFile]) -> SymbolTable {
        let mut table = SymbolTable {
            paths: files.iter().map(|f| f.rel_path.clone()).collect(),
            ..SymbolTable::default()
        };
        let test_files = test_module_files(files);
        for (file_idx, file) in files.iter().enumerate() {
            let tokens = file.tokens();
            table
                .test_ranges
                .push(if test_files.contains(&file.rel_path) {
                    vec![(0, tokens.len())]
                } else {
                    cfg_test_ranges(tokens)
                });
            let impls = impl_blocks(tokens);
            let traits = trait_blocks(tokens);
            let spans = fn_spans(tokens);
            for span in &spans {
                // The innermost enclosing item decides what a fn is: a
                // method (impl), a default body (trait), or a nested fn
                // that is free in all but scope.
                let impl_block = impls
                    .iter()
                    .filter(|b| b.start <= span.start && span.end <= b.end)
                    .min_by_key(|b| b.end - b.start);
                let outer_fn = spans
                    .iter()
                    .filter(|o| o.start < span.start && span.end <= o.end)
                    .map(|o| o.start)
                    .max();
                let in_trait = traits.iter().any(|&(s, e)| {
                    s <= span.start && span.end <= e && outer_fn.is_none_or(|o| o < s)
                });
                let impl_block = impl_block.filter(|b| outer_fn.is_none_or(|o| o < b.start));
                let (params, has_self) = fn_params(tokens, span);
                let ret_ty = fn_ret_ty(tokens, span);
                table.fns.push(FnDef {
                    file: file_idx,
                    line: tokens[span.start].line,
                    name: span.name.clone(),
                    self_type: impl_block.map(|b| b.type_name.clone()),
                    params,
                    has_self,
                    ret_ty,
                    is_pub: declared_pub(tokens, span.start),
                    trait_item: in_trait || impl_block.is_some_and(|b| b.is_trait_impl),
                    in_test: table.in_test(file_idx, span.start),
                    span: span.clone(),
                });
            }
            for item in type_items(tokens) {
                let fields = item
                    .body
                    .filter(|_| item.is_struct)
                    .map(|b| struct_fields(tokens, b))
                    .unwrap_or_default();
                table.types.push(TypeDef {
                    file: file_idx,
                    name: item.name,
                    is_struct: item.is_struct,
                    fields,
                });
            }
        }
        table
    }

    /// True if token `i` of `file` lies in `#[cfg(test)]` code.
    pub fn in_test(&self, file: usize, i: usize) -> bool {
        self.test_ranges[file].iter().any(|&(s, e)| s <= i && i < e)
    }

    /// The declared type of a struct field, if the (type, field) pair is
    /// defined anywhere in the workspace.
    pub fn field_ty(&self, type_name: &str, field: &str) -> Option<&[String]> {
        self.types.iter().find_map(|t| {
            if t.name != type_name {
                return None;
            }
            t.fields
                .iter()
                .find(|f| f.name == field)
                .map(|f| f.ty.as_slice())
        })
    }

    /// The innermost fn whose extent contains token `i` of `file`.
    pub fn fn_at(&self, file: usize, i: usize) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == file && f.span.start <= i && i < f.span.end)
            .min_by_key(|(_, f)| f.span.end - f.span.start)
            .map(|(idx, _)| idx)
    }
}

/// One `impl` block: the type it targets and its token extent.
#[derive(Clone, Debug)]
struct ImplBlock {
    type_name: String,
    /// `impl Trait for Type`, as opposed to an inherent impl.
    is_trait_impl: bool,
    start: usize,
    end: usize,
}

/// Scans for `impl [<…>] [Trait for] Type [<…>] { … }` headers. The type
/// is the last path segment before the body (so `impl fmt::Debug for
/// Session` yields `Session`).
fn impl_blocks(tokens: &[Token]) -> Vec<ImplBlock> {
    let mut blocks = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_ident("impl") {
            i += 1;
            continue;
        }
        // Walk the header to the body `{`, tracking the identifier after
        // the last `for` (trait impls) or the last plain identifier seen
        // at angle-depth 0 (inherent impls on possibly-generic types).
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut last_ident: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut saw_for = false;
        let mut body = None;
        while j < tokens.len() {
            match &tokens[j].tok {
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>') => angle -= 1,
                Tok::Punct('{') if angle <= 0 => {
                    body = Some(j);
                    break;
                }
                Tok::Punct(';') => break, // `impl Trait for Type;` — not a block
                Tok::Ident(id) if angle <= 0 => {
                    if id == "for" {
                        saw_for = true;
                    } else if id == "where" {
                        // Type is settled; the clause adds nothing.
                    } else if saw_for {
                        after_for = Some(id.clone());
                    } else {
                        last_ident = Some(id.clone());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if let (Some(open), Some(name)) = (body, after_for.or(last_ident)) {
            if let Some(end) = match_brace(tokens, open) {
                blocks.push(ImplBlock {
                    type_name: name,
                    is_trait_impl: saw_for,
                    start: i,
                    end,
                });
            }
        }
        i = j + 1;
    }
    blocks
}

/// Token extents `[start, end)` of `trait Name … { … }` blocks.
fn trait_blocks(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut blocks = Vec::new();
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("trait")
            || !matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Ident(_)))
        {
            continue;
        }
        let Some(open) = (i + 2..tokens.len())
            .take_while(|&j| !tokens[j].is_punct(';'))
            .find(|&j| tokens[j].is_punct('{'))
        else {
            continue;
        };
        if let Some(end) = match_brace(tokens, open) {
            blocks.push((i, end));
        }
    }
    blocks
}

/// Token extents `[start, end)` of items under `#[cfg(test)]` (or any
/// `cfg` naming `test` without `not`): from the attribute through the
/// item's closing brace or `;`.
fn cfg_test_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i + 2 < tokens.len() {
        if !(tokens[i].is_punct('#')
            && tokens[i + 1].is_punct('[')
            && tokens[i + 2].is_ident("cfg"))
        {
            i += 1;
            continue;
        }
        let Some(attr_end) = match_brace(tokens, i + 1) else {
            break;
        };
        let args = &tokens[i + 3..attr_end];
        if !args.iter().any(|t| t.is_ident("test")) || args.iter().any(|t| t.is_ident("not")) {
            i = attr_end;
            continue;
        }
        // The item runs to its first `;` or brace block at depth 0,
        // past any further attributes.
        let mut j = attr_end;
        let mut depth = 0i32;
        let mut end = tokens.len();
        while j < tokens.len() {
            match tokens[j].tok {
                Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                Tok::Punct(';') if depth == 0 => {
                    end = j + 1;
                    break;
                }
                Tok::Punct('{') if depth == 0 => {
                    end = match_brace(tokens, j).unwrap_or(tokens.len());
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        ranges.push((i, end));
        i = end;
    }
    ranges
}

/// Paths of files that are `#[cfg(test)] mod name;` modules of another
/// file: `src/matcher.rs` declaring `mod reference;` makes
/// `src/matcher/reference.rs` (or `…/reference/mod.rs`) test code.
fn test_module_files(files: &[SourceFile]) -> Vec<String> {
    let mut out = Vec::new();
    for file in files {
        let tokens = file.tokens();
        for (s, e) in cfg_test_ranges(tokens) {
            let item = &tokens[s..e];
            let Some(m) = item.iter().position(|t| t.is_ident("mod")) else {
                continue;
            };
            let (Some(name), true) = (
                item.get(m + 1).and_then(Token::ident),
                item.last().is_some_and(|t| t.is_punct(';')),
            ) else {
                continue;
            };
            let path = &file.rel_path;
            let dir = match path.rsplit_once('/') {
                Some((dir, "lib.rs" | "main.rs" | "mod.rs")) => dir.to_owned(),
                _ => path.trim_end_matches(".rs").to_owned(),
            };
            out.push(format!("{dir}/{name}.rs"));
            out.push(format!("{dir}/{name}/mod.rs"));
        }
    }
    out
}

/// True if the `fn` keyword at `fn_tok` is declared plain `pub` (past any
/// `const` / `async` / `unsafe` / `extern "…"` qualifiers).
fn declared_pub(tokens: &[Token], fn_tok: usize) -> bool {
    let mut k = fn_tok;
    while k > 0 {
        k -= 1;
        match &tokens[k].tok {
            Tok::Ident(q) if matches!(q.as_str(), "const" | "async" | "unsafe" | "extern") => {}
            Tok::Str => {}
            Tok::Ident(p) => return p == "pub",
            _ => return false,
        }
    }
    false
}

/// Parses the parameter list of a fn span: `(self, a: Foo, b: &[u8])` →
/// (params without self, has_self).
fn fn_params(tokens: &[Token], span: &FnSpan) -> (Vec<Param>, bool) {
    // The signature's argument list is the first `(` after the name.
    let mut open = None;
    for (k, t) in tokens
        .iter()
        .enumerate()
        .take(span.body_start)
        .skip(span.start + 2)
    {
        if t.is_punct('(') {
            open = Some(k);
            break;
        }
    }
    let Some(open) = open else {
        return (Vec::new(), false);
    };
    let Some(close) = match_brace(tokens, open) else {
        return (Vec::new(), false);
    };
    let mut params = Vec::new();
    let mut has_self = false;
    let mut i = open + 1;
    while i < close - 1 {
        // One parameter runs to the next comma at depth 0.
        let mut j = i;
        let mut depth = 0i32;
        while j < close - 1 {
            match tokens[j].tok {
                Tok::Punct(',') if depth == 0 => break,
                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') | Tok::Punct('<') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') | Tok::Punct('>') => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        let part = &tokens[i..j];
        if part.iter().any(|t| t.is_ident("self")) {
            has_self = true;
        } else if let Some(colon) = part.iter().position(|t| t.is_punct(':')) {
            // Name is the identifier right before the `:` (skips `mut`).
            if let Some(name) = part[..colon].iter().rev().find_map(|t| t.ident()) {
                let ty: Vec<String> = part[colon + 1..]
                    .iter()
                    .filter_map(|t| t.ident().map(str::to_owned))
                    .collect();
                params.push(Param {
                    name: name.to_owned(),
                    ty,
                });
            }
        }
        i = j + 1;
    }
    (params, has_self)
}

/// Identifier tokens of the declared return type (`-> Vec<String>` →
/// `["Vec", "String"]`), stopping at `where` or the body brace.
fn fn_ret_ty(tokens: &[Token], span: &FnSpan) -> Vec<String> {
    let mut i = span.start;
    while i + 1 < span.body_start {
        if tokens[i].is_punct('-') && tokens[i + 1].is_punct('>') {
            return tokens[i + 2..span.body_start]
                .iter()
                .take_while(|t| !t.is_ident("where"))
                .filter_map(|t| t.ident().map(str::to_owned))
                .collect();
        }
        i += 1;
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::findings::RULES;

    fn table(src: &str) -> (SymbolTable, SourceFile) {
        let file = SourceFile::parse("crates/core/src/x.rs", src, RULES);
        (SymbolTable::build(std::slice::from_ref(&file)), file)
    }

    #[test]
    fn methods_get_their_impl_type() {
        let src = "\
struct Session { key: Vec<u8> }
impl Session {
    fn close(&mut self) {}
    fn renew(&mut self, nonce: u64) -> Vec<u8> { vec![] }
}
impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) }
}
fn free(account: &str) {}
";
        let (t, _) = table(src);
        let names: Vec<String> = t.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(
            names,
            ["Session::close", "Session::renew", "Session::fmt", "free"]
        );
        let renew = &t.fns[1];
        assert!(renew.has_self);
        assert_eq!(renew.params.len(), 1);
        assert_eq!(renew.params[0].name, "nonce");
        assert_eq!(renew.params[0].ty, ["u64"]);
        assert_eq!(renew.ret_ty, ["Vec", "u8"]);
        let free = &t.fns[3];
        assert!(!free.has_self);
        assert_eq!(free.params[0].name, "account");
        assert_eq!(free.params[0].ty, ["str"]);
        assert_eq!(t.field_ty("Session", "key").unwrap(), ["Vec", "u8"]);
    }

    #[test]
    fn generic_impl_headers_resolve_to_the_type() {
        let src = "\
struct Store<D> { disk: D }
impl<D: Disk> Store<D> {
    fn sync(&mut self) {}
}
";
        let (t, _) = table(src);
        assert_eq!(t.fns[0].qualified(), "Store::sync");
    }

    #[test]
    fn fns_know_visibility_trait_dispatch_and_test_scope() {
        let src = "\
pub struct S;
impl S {
    pub fn open(&self) { fn helper() {} }
    pub(crate) fn shut(&self) {}
    pub const fn size() -> usize { 0 }
}
impl Drop for S {
    fn drop(&mut self) {}
}
pub trait Greet {
    fn hello(&self) -> u32 { 1 }
    fn name(&self) -> u32;
}
#[cfg(test)]
mod tests {
    pub fn fixture() {}
}
#[cfg(not(test))]
pub fn live() {}
";
        let (t, _) = table(src);
        let get = |q: &str| t.fns.iter().find(|f| f.qualified() == q).unwrap();
        assert!(get("S::open").is_pub && !get("S::shut").is_pub && get("S::size").is_pub);
        // A fn nested in a method is free: it has no receiver type.
        assert!(!get("helper").is_pub && get("helper").self_type.is_none());
        assert!(get("S::drop").trait_item && get("hello").trait_item);
        assert!(!get("S::open").trait_item);
        assert!(get("fixture").in_test);
        assert!(!get("live").in_test && !get("S::open").in_test);
    }

    #[test]
    fn out_of_line_test_modules_are_test_code() {
        let files = [
            SourceFile::parse(
                "crates/fp/src/matcher.rs",
                "pub fn run() {}
#[cfg(test)]
mod reference;",
                RULES,
            ),
            SourceFile::parse(
                "crates/fp/src/matcher/reference.rs",
                "pub fn oracle() {}",
                RULES,
            ),
        ];
        let t = SymbolTable::build(&files);
        assert!(!t.fns[0].in_test);
        assert!(t.fns[1].in_test);
    }

    #[test]
    fn fn_at_finds_the_innermost_fn() {
        let src = "fn outer() { fn inner() { let marker = 1; } }";
        let (t, f) = table(src);
        let idx = f
            .tokens()
            .iter()
            .position(|tok| tok.is_ident("marker"))
            .unwrap();
        let owner = t.fn_at(0, idx).unwrap();
        assert_eq!(t.fns[owner].name, "inner");
    }
}
