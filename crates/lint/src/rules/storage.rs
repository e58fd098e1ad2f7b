//! Family 3b — storage sync discipline.
//!
//! Group commit buffers journal appends; the sync barrier is what makes
//! them durable. A handler that reaches its reply gate (`pre_reply_crash`)
//! without first passing a sync point would acknowledge a record the disk
//! may still lose — the one ordering bug the whole journal-then-apply
//! design exists to prevent, and one that no test catches until a fault
//! schedule happens to land on the gap. This rule makes the ordering
//! mechanical: in the file holding the commit path, every function that
//! calls a reply marker must have called a sync marker earlier in its
//! body (`journal_append` counts: it ends in the shard sync barrier).

use crate::config::Config;
use crate::findings::Finding;
use crate::lexer::Tok;
use crate::model::{fn_spans, SourceFile};

pub fn check(file: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
    if !file.rel_path.contains(cfg.commit_file) {
        return;
    }
    let tokens = file.tokens();
    for span in fn_spans(tokens) {
        // The definitions of the markers themselves are not call sites.
        if cfg.reply_markers.contains(&span.name.as_str())
            || cfg.sync_markers.contains(&span.name.as_str())
        {
            continue;
        }
        let mut synced = false;
        for i in span.body_start..span.end {
            let Tok::Ident(id) = &tokens[i].tok else {
                continue;
            };
            if !super::preceded_by_dot(tokens, i)
                || !tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
            {
                continue;
            }
            if cfg.sync_markers.contains(&id.as_str()) {
                synced = true;
            } else if cfg.reply_markers.contains(&id.as_str()) && !synced {
                out.push(Finding::new(
                    "storage-sync-before-reply",
                    &file.rel_path,
                    tokens[i].line,
                    format!(
                        "`{}` reaches the reply gate `.{id}()` without an earlier sync \
                         point ({}); a reply must never leave before the record behind \
                         it is durably synced",
                        span.name,
                        cfg.sync_markers.join("/"),
                    ),
                ));
                break; // one finding per function
            }
        }
    }
}
