//! Family 3 — journal discipline.
//!
//! Crash recovery is replay: `WebServer::recover` rebuilds durable state
//! by re-applying journal records through the same `ShardState::apply`
//! the live handlers use. That only works if `apply` (and the snapshot
//! decoder) are the *only* code mutating durable shard fields — code that
//! pokes the state directly creates state the journal cannot reproduce,
//! which is a silent crash-consistency bug. This rule makes the
//! convention mechanical: in the durable-state file, any mutation of a
//! durable field outside the allowed functions is a finding.

use crate::config::Config;
use crate::findings::Finding;
use crate::lexer::Tok;
use crate::model::{enclosing_fn, fn_spans, SourceFile};

/// Methods that mutate the collection they are called on. `get_mut`,
/// `values_mut`, and `entry` hand out mutable access, which is the same
/// thing one call later.
const MUTATING_METHODS: &[&str] = &[
    "insert",
    "remove",
    "push",
    "push_back",
    "push_front",
    "pop",
    "pop_back",
    "pop_front",
    "clear",
    "drain",
    "retain",
    "extend",
    "append",
    "take",
    "get_mut",
    "values_mut",
    "iter_mut",
    "entry",
    "mark_consumed",
    "forget_consumed",
];

pub fn check(file: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
    if !file.rel_path.contains(cfg.durable_file) {
        return;
    }
    let tokens = file.tokens();
    let spans = fn_spans(tokens);

    for (i, t) in tokens.iter().enumerate() {
        let Tok::Ident(id) = &t.tok else { continue };
        if !cfg.durable_fields.contains(&id.as_str()) || !super::preceded_by_dot(tokens, i) {
            continue;
        }
        // Anchor on the receiver: `self.accounts…` / `state.accounts…` /
        // `…shards[idx].accounts…`. An unrelated struct that happens to
        // share a field name (`st.sessions += …`) is not durable state.
        let receiver_ok = i >= 2
            && (tokens[i - 2].is_punct(']')
                || tokens[i - 2]
                    .ident()
                    .is_some_and(|r| cfg.durable_receivers.contains(&r)));
        if !receiver_ok {
            continue;
        }
        let mutated = assigned_or_mut_call(tokens, i);
        if !mutated {
            continue;
        }
        let owner = enclosing_fn(&spans, i);
        if owner.is_some_and(|f| cfg.durable_mutators.contains(&f.name.as_str())) {
            continue;
        }
        let where_ = owner.map_or("item scope".to_owned(), |f| format!("`{}`", f.name));
        out.push(Finding::new(
            "journal-discipline",
            &file.rel_path,
            t.line,
            format!(
                "durable shard field `.{id}` mutated in {where_}; durable state may only \
                 change inside `ShardState::apply` (journal-then-apply), or recovery \
                 replay cannot reproduce it"
            ),
        ));
    }
}

fn assigned_or_mut_call(tokens: &[crate::lexer::Token], i: usize) -> bool {
    if super::assigned_after(tokens, i) {
        return true;
    }
    MUTATING_METHODS
        .iter()
        .any(|m| super::calls_method(tokens, i + 1, m))
}
