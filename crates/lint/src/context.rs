//! Per-file analysis context shared by every rule engine: the token
//! stream, the file's items (parsed once, here, by [`crate::parser`]),
//! cheap structural facts — which tokens sit in test code, which sit
//! inside `use` statements, the `// lint: allow(rule)` escape hatches —
//! and the one token cursor the parser and the call graph both read
//! through (`*_at` positions index `code`, not `toks`).

use crate::lexer::{lex, Kind, Tok};
use crate::parser::{self, FileItems};
use std::collections::{BTreeMap, BTreeSet};

/// One workspace source file, by workspace-relative path.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// `/`-separated path relative to the workspace root
    /// (e.g. `crates/core/src/dataset.rs`).
    pub rel_path: String,
    pub text: String,
}

impl SourceFile {
    pub fn new(rel_path: impl Into<String>, text: impl Into<String>) -> Self {
        SourceFile {
            rel_path: rel_path.into(),
            text: text.into(),
        }
    }
}

/// A `// lint: allow(rule)` annotation found in a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// The rule it suppresses (`wall_clock`, `panic_path`, …).
    pub rule: String,
    /// Line the annotation sits on.
    pub line: u32,
    /// Lines it suppresses: its own line, plus the next line carrying
    /// code when the annotation stands alone above a statement.
    pub targets: Vec<u32>,
}

/// The analysis context for one file.
pub struct FileCx<'a> {
    pub file: &'a SourceFile,
    pub toks: Vec<Tok>,
    /// Indices into `toks` of non-comment tokens, in order.
    pub code: Vec<usize>,
    /// Per-`toks` index: inside `#[cfg(test)]` / `#[test]` / `#[bench]`
    /// items (or the whole file, for `tests/` and `benches/` dirs).
    in_test: Vec<bool>,
    /// Per-`toks` index: inside a `use …;` statement.
    in_use: Vec<bool>,
    pub allows: Vec<Allow>,
    /// The file's fns, types, traits and `use` aliases.
    pub items: FileItems,
}

impl<'a> FileCx<'a> {
    pub fn new(file: &'a SourceFile) -> Self {
        let toks = lex(&file.text);
        let code: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, Kind::LineComment | Kind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        let whole_file_test = file.rel_path.contains("/tests/")
            || file.rel_path.contains("/benches/")
            || file.rel_path.starts_with("tests/")
            || file.rel_path.starts_with("benches/");
        let in_test = if whole_file_test {
            vec![true; toks.len()]
        } else {
            mark_test_regions(&toks, &code, &file.text)
        };
        let in_use = mark_use_statements(&toks, &code, &file.text);
        let allows = collect_allows(&toks, &code, &in_test, &file.text);
        let mut cx = FileCx {
            file,
            toks,
            code,
            in_test,
            in_use,
            allows,
            items: FileItems::default(),
        };
        cx.items = parser::parse(&cx);
        cx
    }

    pub fn text(&self, tok: &Tok) -> &'a str {
        tok.text(&self.file.text)
    }

    /// Whether the token at `toks` index `i` is inside test-only code.
    pub fn is_test(&self, i: usize) -> bool {
        self.in_test[i]
    }

    /// Whether the token at `toks` index `i` is inside a `use` statement.
    pub fn is_use(&self, i: usize) -> bool {
        self.in_use[i]
    }

    /// Name of the fn whose body (braces included) holds `toks` index
    /// `i`, comments too. A fn nested in a body answers as its outer fn,
    /// as the call graph attributes it.
    pub fn enclosing_fn(&self, i: usize) -> Option<&str> {
        self.items
            .fns
            .iter()
            .find(|f| {
                f.body
                    .is_some_and(|(open, close)| self.code[open] <= i && i <= self.code[close])
            })
            .map(|f| f.name.as_str())
    }

    /// The code token at `code` position `pos`.
    fn tok_at(&self, pos: usize) -> Option<&Tok> {
        self.code.get(pos).map(|&i| &self.toks[i])
    }

    /// Text of the code token at `pos` (`""` past the end).
    pub(crate) fn text_at(&self, pos: usize) -> &'a str {
        self.tok_at(pos).map_or("", |t| t.text(&self.file.text))
    }

    pub(crate) fn kind_at(&self, pos: usize) -> Option<Kind> {
        self.tok_at(pos).map(|t| t.kind)
    }

    pub(crate) fn line_at(&self, pos: usize) -> u32 {
        self.tok_at(pos).map_or(0, |t| t.line)
    }

    pub(crate) fn is_punct(&self, pos: usize, p: &str) -> bool {
        self.kind_at(pos) == Some(Kind::Punct) && self.text_at(pos) == p
    }

    /// Two adjacent punct bytes (`::`, `->`) with no gap between them.
    pub(crate) fn is_punct2(&self, pos: usize, a: &str, b: &str) -> bool {
        self.is_punct(pos, a)
            && self.is_punct(pos + 1, b)
            && self.tok_at(pos).map(|t| t.end) == self.tok_at(pos + 1).map(|t| t.start)
    }

    /// Position of the opener of the `(…)` / `[…]` group whose closer is
    /// at `close` (0 when unbalanced).
    pub(crate) fn group_open(&self, close: usize) -> usize {
        let (open, shut) = if self.text_at(close) == "]" {
            ("[", "]")
        } else {
            ("(", ")")
        };
        let mut depth = 0usize;
        for pos in (0..=close).rev() {
            let t = self.text_at(pos);
            if t == shut {
                depth += 1;
            } else if t == open {
                depth -= 1;
                if depth == 0 {
                    return pos;
                }
            }
        }
        0
    }

    /// Position just past the balanced group opening at `start`: `(…)`,
    /// `[…]`, `{…}`, or generics `<…>`, inside which a `->` arrow is not
    /// a closer and `(…)` / `[…]` groups are skipped whole. Any other
    /// token is a group of one.
    pub(crate) fn skip_group(&self, start: usize) -> usize {
        let (open, close) = match self.text_at(start) {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            "<" => ("<", ">"),
            _ => return start + 1,
        };
        let generics = open == "<";
        let mut depth = 0usize;
        let mut pos = start;
        while pos < self.code.len() {
            let t = self.text_at(pos);
            if generics && (t == "(" || t == "[") {
                pos = self.skip_group(pos);
                continue;
            }
            if t == open {
                depth += 1;
            } else if t == close && !(generics && self.is_punct2(pos - 1, "-", ">")) {
                depth -= 1;
                if depth == 0 {
                    return pos + 1;
                }
            }
            pos += 1;
        }
        pos
    }
}

/// Marks tokens covered by `#[cfg(test)]`, `#[test]` or `#[bench]` items.
fn mark_test_regions(toks: &[Tok], code: &[usize], src: &str) -> Vec<bool> {
    let mut in_test = vec![false; toks.len()];
    let mut ranges: Vec<(usize, usize)> = Vec::new(); // toks-index ranges
    let mut c = 0usize; // cursor into `code`
    let mut pending = false;
    while c < code.len() {
        let i = code[c];
        let tok = &toks[i];
        if tok.kind == Kind::Punct
            && tok.text(src) == "#"
            && code.get(c + 1).is_some_and(|&j| toks[j].text(src) == "[")
        {
            // Collect the attribute's idents up to the matching `]`.
            let mut depth = 0usize;
            let mut idents: Vec<&str> = Vec::new();
            let mut d = c + 1;
            while d < code.len() {
                let t = &toks[code[d]];
                match (t.kind, t.text(src)) {
                    (Kind::Punct, "[") => depth += 1,
                    (Kind::Punct, "]") => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    (Kind::Ident, name) => idents.push(name),
                    _ => {}
                }
                d += 1;
            }
            let has = |n: &str| idents.contains(&n);
            let cfg_test = has("cfg") && has("test") && !has("not");
            let direct_test = !has("cfg") && (has("test") || has("bench"));
            if cfg_test || direct_test {
                pending = true;
            }
            c = d + 1;
            continue;
        }
        if pending {
            // The attributed item: runs to the matching `}` of its first
            // top-level `{`, or to a `;` if it has no body.
            let start = i;
            let mut depth = 0usize;
            let mut d = c;
            let mut end = code.len().saturating_sub(1);
            while d < code.len() {
                let t = &toks[code[d]];
                if t.kind == Kind::Punct {
                    match t.text(src) {
                        "{" | "(" | "[" => depth += 1,
                        "}" | ")" | "]" => {
                            depth = depth.saturating_sub(1);
                            if depth == 0 && t.text(src) == "}" {
                                end = d;
                                break;
                            }
                        }
                        ";" if depth == 0 => {
                            end = d;
                            break;
                        }
                        _ => {}
                    }
                }
                d += 1;
            }
            ranges.push((start, code[end.min(code.len() - 1)]));
            pending = false;
            c = end + 1;
            continue;
        }
        c += 1;
    }
    for (a, b) in ranges {
        for (i, flag) in in_test.iter_mut().enumerate() {
            if i >= a && i <= b {
                *flag = true;
            }
        }
    }
    in_test
}

/// Marks tokens inside `use …;` statements (imports are not usages).
fn mark_use_statements(toks: &[Tok], code: &[usize], src: &str) -> Vec<bool> {
    let mut in_use = vec![false; toks.len()];
    let mut active = false;
    for (pos, &i) in code.iter().enumerate() {
        let tok = &toks[i];
        if !active && tok.kind == Kind::Ident && tok.text(src) == "use" {
            let starts_stmt = pos == 0
                || matches!(
                    toks[code[pos - 1]].text(src),
                    ";" | "{" | "}" | "]" | "pub" | ")"
                );
            if starts_stmt {
                active = true;
            }
        }
        if active {
            in_use[i] = true;
            if tok.kind == Kind::Punct && tok.text(src) == ";" {
                active = false;
            }
        }
    }
    in_use
}

/// Collects `// lint: allow(rule)` annotations. An annotation suppresses
/// findings on its own line and — when it stands alone — on the next line
/// that carries code. The marker must open the comment (prose that merely
/// *mentions* the syntax is not an annotation), and test-only comments are
/// ignored (rules skip test code, so an allow there could never fire).
fn collect_allows(toks: &[Tok], code: &[usize], in_test: &[bool], src: &str) -> Vec<Allow> {
    let code_lines: BTreeSet<u32> = code.iter().map(|&i| toks[i].line).collect();
    let mut allows = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        if !matches!(tok.kind, Kind::LineComment | Kind::BlockComment) || in_test[i] {
            continue;
        }
        let text = tok.text(src);
        let opening = text.trim_start_matches(['/', '*', '!']).trim_start();
        if !opening.starts_with("lint: allow(") {
            continue;
        }
        let rest = &opening["lint: allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim().to_string();
        if rule.is_empty() {
            continue;
        }
        let mut targets = vec![tok.line];
        if !code_lines.contains(&tok.line) {
            // Standalone comment: it covers the next code-bearing line.
            if let Some(&next) = code_lines.range(tok.line + 1..).next() {
                targets.push(next);
            }
        }
        allows.push(Allow {
            rule,
            line: tok.line,
            targets,
        });
    }
    allows
}

/// Suppression bookkeeping: which allows exist, which got used.
pub struct AllowLedger {
    /// (rule, line) → allow index, for the current file.
    by_target: BTreeMap<(String, u32), usize>,
    pub used: Vec<bool>,
}

impl AllowLedger {
    pub fn new(allows: &[Allow]) -> Self {
        let mut by_target = BTreeMap::new();
        for (idx, a) in allows.iter().enumerate() {
            for &t in &a.targets {
                by_target.insert((a.rule.clone(), t), idx);
            }
        }
        AllowLedger {
            by_target,
            used: vec![false; allows.len()],
        }
    }

    /// True (and marks the allow used) when `rule` at `line` is suppressed.
    pub fn suppresses(&mut self, rule: &str, line: u32) -> bool {
        if let Some(&idx) = self.by_target.get(&(rule.to_string(), line)) {
            self.used[idx] = true;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_modules_and_test_fns_are_marked() {
        let file = SourceFile::new(
            "crates/x/src/lib.rs",
            r#"
fn live() { work(); }

#[test]
fn unit() { assert!(true); }

#[cfg(test)]
mod tests {
    fn helper() { inner(); }
}

fn also_live() {}
"#,
        );
        let cx = FileCx::new(&file);
        let flag = |name: &str| {
            let i = cx
                .toks
                .iter()
                .position(|t| cx.text(t) == name)
                .unwrap_or_else(|| panic!("{name} not found"));
            cx.is_test(i)
        };
        assert!(!flag("work"));
        assert!(flag("assert"));
        assert!(flag("inner"));
        assert!(!flag("also_live"));
    }

    #[test]
    fn cfg_not_test_is_live_code() {
        let file = SourceFile::new(
            "crates/x/src/lib.rs",
            "#[cfg(not(test))]\nfn shipping() { work(); }\n",
        );
        let cx = FileCx::new(&file);
        let i = cx.toks.iter().position(|t| cx.text(t) == "work").unwrap();
        assert!(!cx.is_test(i));
    }

    #[test]
    fn files_under_tests_dirs_are_wholly_test() {
        let file = SourceFile::new("crates/x/tests/integration.rs", "fn f() { g(); }");
        let cx = FileCx::new(&file);
        assert!((0..cx.toks.len()).all(|i| cx.is_test(i)));
    }

    #[test]
    fn enclosing_fn_names_are_tracked_through_nesting() {
        let file = SourceFile::new(
            "crates/x/src/lib.rs",
            "fn outer() { let c = |x| { inner_marker(); }; }\nfn second() { other_marker(); }",
        );
        let cx = FileCx::new(&file);
        let ctx_of = |name: &str| {
            let i = cx.toks.iter().position(|t| cx.text(t) == name).unwrap();
            cx.enclosing_fn(i).map(str::to_string)
        };
        assert_eq!(ctx_of("inner_marker").as_deref(), Some("outer"));
        assert_eq!(ctx_of("other_marker").as_deref(), Some("second"));
    }

    #[test]
    fn use_statements_are_not_usage() {
        let file = SourceFile::new(
            "crates/x/src/lib.rs",
            "use std::time::Instant;\nfn f() { let t = Instant::now(); }",
        );
        let cx = FileCx::new(&file);
        let sites: Vec<bool> = cx
            .toks
            .iter()
            .enumerate()
            .filter(|(_, t)| cx.text(t) == "Instant")
            .map(|(i, _)| cx.is_use(i))
            .collect();
        assert_eq!(sites, vec![true, false]);
    }

    #[test]
    fn allow_annotations_cover_their_own_and_the_next_code_line() {
        let file = SourceFile::new(
            "crates/x/src/lib.rs",
            "// lint: allow(wall_clock) — provenance\nlet t = now();\nlet u = now(); // lint: allow(map_order)\n",
        );
        let cx = FileCx::new(&file);
        assert_eq!(cx.allows.len(), 2);
        assert_eq!(cx.allows[0].rule, "wall_clock");
        assert_eq!(cx.allows[0].targets, vec![1, 2]);
        assert_eq!(cx.allows[1].rule, "map_order");
        assert_eq!(cx.allows[1].targets, vec![3]);
        let mut ledger = AllowLedger::new(&cx.allows);
        assert!(ledger.suppresses("wall_clock", 2));
        assert!(!ledger.suppresses("wall_clock", 3));
        assert!(ledger.suppresses("map_order", 3));
        assert_eq!(ledger.used, vec![true, true]);
    }
}
