//! Family 4 — metrics/trace parity.
//!
//! `derive_metrics` reconstructs `ProtocolMetrics` from the trace and the
//! CI gate (`trace_explain`) asserts it equals the live counters exactly.
//! Both sides share one fold, `ProtocolMetrics::observe`, and flows move
//! counters only by emitting an event through it. That contract breaks
//! the moment someone bumps a counter by hand without recording the
//! matching trace event. This rule enforces the cheap mechanical half:
//! any function that bumps a `ProtocolMetrics` counter must also record
//! at least one `Tracer` event. (The fold functions — `observe`, which
//! maps one event to its counter, and `absorb`, which sums two metrics —
//! are exempt: they fold counters, they do not observe protocol events.)

use crate::config::Config;
use crate::findings::Finding;
use crate::lexer::Tok;
use crate::model::{enclosing_fn, fn_spans, FnSpan, SourceFile};

pub fn check(file: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
    if !file.under_any(&cfg.parity_paths) {
        return;
    }
    let tokens = file.tokens();
    let spans = fn_spans(tokens);

    // fn name -> (first bump line, bump count), for fns lacking a record.
    let mut offenders: Vec<(String, u32, usize)> = Vec::new();

    for (i, t) in tokens.iter().enumerate() {
        let Tok::Ident(id) = &t.tok else { continue };
        if !cfg.counters.contains(&id.as_str())
            || !super::preceded_by_dot(tokens, i)
            || !super::assigned_after(tokens, i)
        {
            continue;
        }
        let Some(owner) = enclosing_fn(&spans, i) else {
            continue;
        };
        if cfg.parity_exempt_fns.contains(&owner.name.as_str()) {
            continue;
        }
        if records_trace_event(tokens, owner) {
            continue;
        }
        match offenders.iter_mut().find(|(n, ..)| *n == owner.name) {
            Some((_, _, count)) => *count += 1,
            None => offenders.push((owner.name.clone(), t.line, 1)),
        }
    }

    for (name, line, count) in offenders {
        out.push(Finding::new(
            "metrics-trace-parity",
            &file.rel_path,
            line,
            format!(
                "`{name}` bumps ProtocolMetrics counters ({count} site(s)) but records no \
                 Tracer event; `derive_metrics` can no longer reconcile the trace against \
                 live counters"
            ),
        ));
    }
}

/// Does the function body contain `.record(` / `.open(` / `.close(` or a
/// `tracer` identifier? Either is taken as evidence the function
/// participates in tracing; exact event pairing is `trace_explain`'s job
/// at runtime.
fn records_trace_event(tokens: &[crate::lexer::Token], span: &FnSpan) -> bool {
    (span.body_start..span.end.min(tokens.len())).any(|i| {
        tokens[i].is_ident("tracer")
            || ["record", "open", "close"]
                .iter()
                .any(|m| super::calls_method(tokens, i, m))
    })
}
