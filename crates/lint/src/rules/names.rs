//! Metric/span name registry.
//!
//! Every `Registry::counter`/`gauge`/`histogram` name literal and every
//! `span!` name literal in the workspace is extracted and checked against
//! the committed `OBS_NAMES.md` — the canonical observability surface. A
//! typo'd name (`pipline.jobs`) therefore fails the lint instead of
//! silently forking a metric; a deleted metric leaves a stale inventory
//! entry that fails the lint until the inventory is regenerated.
//!
//! Names built with `format!` templates (`exec.pool.{name}.park_us`) are
//! normalized to glob form (`exec.pool.*.park_us`): a `*` in the
//! inventory matches one or more non-dot characters at that position.

use crate::context::{AllowLedger, FileCx};
use crate::lexer::Kind;
use crate::report::Finding;
use crate::LintConfig;

const METRIC_METHODS: [&str; 3] = ["counter", "gauge", "histogram"];

/// One extracted observability name.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ObsName {
    /// `counter` / `gauge` / `histogram` / `span`.
    pub kind: String,
    /// Concrete name or `*`-glob template.
    pub name: String,
    pub file: String,
    pub line: u32,
}

impl ObsName {
    pub fn entry(&self) -> String {
        format!("{} {}", self.kind, self.name)
    }
}

/// Extracts the file's metric/span names.
pub fn extract(cx: &FileCx, cfg: &LintConfig, names: &mut Vec<ObsName>) {
    if !cfg.in_names_scope(&cx.file.rel_path) {
        return;
    }
    for (pos, &i) in cx.code.iter().enumerate() {
        if cx.is_test(i) {
            continue;
        }
        let tok = &cx.toks[i];
        if tok.kind != Kind::Ident {
            continue;
        }
        let text = cx.text(tok);
        let prev = pos.checked_sub(1).map_or("", |p| cx.text_at(p));
        let next = cx.text_at(pos + 1);
        let kind = if METRIC_METHODS.contains(&text) && prev == "." && next == "(" {
            text
        } else if text == "span" && next == "!" {
            "span"
        } else {
            continue;
        };
        if let Some((name, line)) = first_string_in_call(cx, pos) {
            names.push(ObsName {
                kind: kind.to_string(),
                name: normalize(&name),
                file: cx.file.rel_path.clone(),
                line,
            });
        }
    }
}

/// Finds the first string literal inside the parens opened at/after
/// `code[pos]`, scanning balanced up to the matching close.
fn first_string_in_call(cx: &FileCx, pos: usize) -> Option<(String, u32)> {
    let mut d = pos;
    // Walk to the opening paren (skips the `!` of `span!(`).
    while d < cx.code.len() && cx.text_at(d) != "(" {
        d += 1;
    }
    let mut depth = 0usize;
    while d < cx.code.len() {
        let tok = &cx.toks[cx.code[d]];
        match (tok.kind, cx.text(tok)) {
            (Kind::Punct, "(") | (Kind::Punct, "[") | (Kind::Punct, "{") => depth += 1,
            (Kind::Punct, ")") | (Kind::Punct, "]") | (Kind::Punct, "}") => {
                depth -= 1;
                if depth == 0 {
                    return None;
                }
            }
            (Kind::Str, raw) => {
                return Some((string_body(raw), tok.line));
            }
            _ => {}
        }
        d += 1;
    }
    None
}

/// Strips quotes/prefix from a string literal's source text. Escapes are
/// left as-is: metric names are plain dotted idents, never escaped.
fn string_body(raw: &str) -> String {
    let start = raw.find('"').map(|q| q + 1).unwrap_or(0);
    let end = raw.rfind('"').unwrap_or(raw.len());
    if start <= end {
        raw[start..end].to_string()
    } else {
        String::new()
    }
}

/// Replaces `{…}` format captures with `*`.
fn normalize(name: &str) -> String {
    let mut out = String::new();
    let mut depth = 0usize;
    for c in name.chars() {
        match c {
            '{' => {
                if depth == 0 {
                    out.push('*');
                }
                depth += 1;
            }
            '}' => depth = depth.saturating_sub(1),
            c if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

/// Whether inventory `pattern` covers `name`: equal, or glob `*` segments
/// matching one-or-more non-dot characters.
fn covers(pattern: &str, name: &str) -> bool {
    if pattern == name {
        return true;
    }
    glob_match(pattern.as_bytes(), name.as_bytes())
}

fn glob_match(pat: &[u8], s: &[u8]) -> bool {
    match pat.first() {
        None => s.is_empty(),
        Some(b'*') => {
            // One or more non-dot bytes.
            for take in 1..=s.len() {
                if s[take - 1] == b'.' {
                    break;
                }
                if glob_match(&pat[1..], &s[take..]) {
                    return true;
                }
            }
            false
        }
        Some(&c) => s.first() == Some(&c) && glob_match(&pat[1..], &s[1..]),
    }
}

/// Checks extracted names against the committed inventory lines
/// (`counter pipeline.jobs` form) and flags stale entries.
pub fn diff_inventory(
    names: &[ObsName],
    committed: &[String],
    ledger_lookup: &mut dyn FnMut(&str, u32) -> bool,
    out: &mut Vec<Finding>,
) {
    for n in names {
        let covered = committed.iter().any(|c| match c.split_once(' ') {
            Some((kind, pattern)) => kind == n.kind && covers(pattern, &n.name),
            None => false,
        });
        if !covered && !ledger_lookup(&n.file, n.line) {
            out.push(Finding::new(
                "obs_name",
                &n.file,
                n.line,
                None,
                format!(
                    "{} name `{}` not in OBS_NAMES.md; fix the typo or add it with --write-inventories",
                    n.kind, n.name
                ),
            ));
        }
    }
    for (idx, entry) in committed.iter().enumerate() {
        let live = names.iter().any(|n| match entry.split_once(' ') {
            Some((kind, pattern)) => kind == n.kind && covers(pattern, &n.name),
            None => false,
        });
        if !live {
            out.push(Finding::new(
                "obs_name",
                "OBS_NAMES.md",
                (idx + 1) as u32,
                None,
                format!("stale inventory entry `{entry}` matches no emission site; rerun with --write-inventories"),
            ));
        }
    }
}

/// Regenerates the inventory: templates plus concrete names no template
/// covers, deduplicated and sorted.
pub fn regenerate(names: &[ObsName]) -> Vec<String> {
    let mut entries: Vec<String> = Vec::new();
    let templates: Vec<&ObsName> = names.iter().filter(|n| n.name.contains('*')).collect();
    for n in names {
        if !n.name.contains('*')
            && templates
                .iter()
                .any(|t| t.kind == n.kind && covers(&t.name, &n.name))
        {
            continue;
        }
        let entry = n.entry();
        if !entries.contains(&entry) {
            entries.push(entry);
        }
    }
    entries.sort();
    entries
}

/// Site-level suppression adapter so `diff_inventory` can honour
/// `// lint: allow(obs_name)` through the per-file ledgers.
pub fn ledger_adapter<'a>(
    ledgers: &'a mut [(String, AllowLedger)],
) -> impl FnMut(&str, u32) -> bool + 'a {
    move |file: &str, line: u32| {
        ledgers
            .iter_mut()
            .find(|(f, _)| f == file)
            .is_some_and(|(_, l)| l.suppresses("obs_name", line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SourceFile;
    use crate::LintConfig;

    fn extract_from(path: &str, src: &str) -> Vec<ObsName> {
        let file = SourceFile::new(path, src);
        let cx = FileCx::new(&file);
        let mut names = Vec::new();
        extract(&cx, &LintConfig::workspace(), &mut names);
        names
    }

    #[test]
    fn metric_calls_and_span_macros_are_extracted() {
        let names = extract_from(
            "crates/pipeline/src/run.rs",
            r#"fn f(reg: &Registry) {
                reg.counter("pipeline.jobs").add(1);
                reg.gauge("exec.queue.depth").set(3);
                let _h = reg.histogram("place.temp_us");
                let _s = span!("place_stage", reg);
            }"#,
        );
        let entries: Vec<String> = names.iter().map(ObsName::entry).collect();
        assert_eq!(
            entries,
            vec![
                "counter pipeline.jobs",
                "gauge exec.queue.depth",
                "histogram place.temp_us",
                "span place_stage",
            ]
        );
    }

    #[test]
    fn format_templates_normalize_to_globs() {
        let names = extract_from(
            "crates/exec/src/pool.rs",
            r#"fn f(reg: &Registry, name: &str) {
                reg.histogram(&format!("exec.pool.{name}.park_us")).record(1);
            }"#,
        );
        assert_eq!(names[0].name, "exec.pool.*.park_us");
    }

    #[test]
    fn near_miss_excluded_crates_and_test_code_are_skipped() {
        assert!(extract_from(
            "crates/obs/src/metrics.rs",
            r#"fn f(reg: &Registry) { reg.counter("throwaway").add(1); }"#
        )
        .is_empty());
        assert!(extract_from(
            "crates/pipeline/src/run.rs",
            r#"#[test]
            fn t() { reg.counter("test.only").add(1); }"#
        )
        .is_empty());
    }

    #[test]
    fn glob_star_matches_one_segment_only() {
        assert!(covers("exec.pool.*.park_us", "exec.pool.anneal.park_us"));
        assert!(!covers("exec.pool.*.park_us", "exec.pool.a.b.park_us"));
        assert!(!covers("exec.pool.*.park_us", "exec.pool..park_us"));
        assert!(covers("pipeline.jobs", "pipeline.jobs"));
        assert!(!covers("pipeline.jobs", "pipeline.pairs"));
    }

    #[test]
    fn diff_flags_unknown_names_and_stale_entries() {
        let names = vec![ObsName {
            kind: "counter".into(),
            name: "pipline.jobs".into(), // typo'd on purpose
            file: "crates/pipeline/src/run.rs".into(),
            line: 12,
        }];
        let committed = vec!["counter pipeline.jobs".to_string()];
        let mut out = Vec::new();
        diff_inventory(&names, &committed, &mut |_, _| false, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out[0].message.contains("pipline.jobs"));
        assert!(out[1].message.contains("stale inventory entry"));
    }

    #[test]
    fn stale_glob_template_is_flagged() {
        // Deleting the last `exec.pool.<name>` emission site must strand
        // the template entry — unrelated live names (even of the same
        // kind) may not keep the glob alive.
        let names = vec![ObsName {
            kind: "histogram".into(),
            name: "serve.batch_us".into(),
            file: "crates/serve/src/engine.rs".into(),
            line: 7,
        }];
        let committed = vec![
            "histogram exec.pool.*.park_us".to_string(),
            "histogram serve.batch_us".to_string(),
        ];
        let mut out = Vec::new();
        diff_inventory(&names, &committed, &mut |_, _| false, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("stale inventory entry"));
        assert!(out[0].message.contains("exec.pool.*.park_us"));
        assert_eq!(out[0].line, 1, "points at the template's inventory line");
    }

    #[test]
    fn regenerate_folds_concretes_into_templates() {
        let mk = |kind: &str, name: &str| ObsName {
            kind: kind.into(),
            name: name.into(),
            file: "f".into(),
            line: 1,
        };
        let names = vec![
            mk("histogram", "exec.pool.*.park_us"),
            mk("histogram", "exec.pool.anneal.park_us"),
            mk("counter", "pipeline.jobs"),
            mk("counter", "pipeline.jobs"),
        ];
        assert_eq!(
            regenerate(&names),
            vec!["counter pipeline.jobs", "histogram exec.pool.*.park_us"]
        );
    }
}
