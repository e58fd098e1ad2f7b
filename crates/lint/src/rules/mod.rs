//! The rule families. Each rule takes a [`SourceFile`] plus the
//! [`Config`] and appends [`Finding`]s; the engine applies waivers
//! afterwards so every rule stays waiver-oblivious.

pub mod determinism;
pub mod journal;
pub mod order;
pub mod parity;
pub mod reach;
pub mod secret;
pub mod storage;
pub mod taint;

use crate::config::Config;
use crate::dataflow::Analysis;
use crate::findings::Finding;
use crate::lexer::Token;
use crate::model::SourceFile;

/// Runs every single-file rule family over one file.
pub fn run_all(file: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
    secret::check(file, cfg, out);
    determinism::check(file, cfg, out);
    journal::check(file, cfg, out);
    storage::check(file, cfg, out);
    parity::check(file, cfg, out);
}

/// Runs the workspace-level dataflow rules: one symbol table + call
/// graph + summary fixpoint over *all* files, then the three flow rules.
pub fn run_workspace(files: &[SourceFile], cfg: &Config, out: &mut Vec<Finding>) {
    let analysis = Analysis::build(files, cfg);
    taint::check(&analysis, cfg, out);
    reach::check(files, &analysis, cfg, out);
    order::check(files, &analysis, cfg, out);
}

/// True if token `i` is a field/method access: the previous token is `.`.
pub(crate) fn preceded_by_dot(tokens: &[Token], i: usize) -> bool {
    i > 0 && tokens[i - 1].is_punct('.')
}

/// True if `tokens[i..]` begins `. <name> (` — a call of `name` on the
/// value ending at `i - 1`.
pub(crate) fn calls_method(tokens: &[Token], i: usize, name: &str) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct('.'))
        && tokens.get(i + 1).is_some_and(|t| t.is_ident(name))
        && tokens.get(i + 2).is_some_and(|t| t.is_punct('('))
}

/// True if the tokens immediately after index `i` spell an assignment to
/// the value ending at `i`: `=` (not `==`) or a compound `+=`, `-=`, etc.
pub(crate) fn assigned_after(tokens: &[Token], i: usize) -> bool {
    match tokens.get(i + 1) {
        Some(t) if t.is_punct('=') => !tokens.get(i + 2).is_some_and(|t| t.is_punct('=')),
        Some(t)
            if ['+', '-', '*', '/', '%', '|', '&', '^']
                .iter()
                .any(|c| t.is_punct(*c)) =>
        {
            tokens.get(i + 2).is_some_and(|t| t.is_punct('='))
        }
        _ => false,
    }
}
