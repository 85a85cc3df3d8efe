//! Unsafe audit: every `unsafe` block/fn/impl in non-test code must carry
//! a `// SAFETY:` comment and appear in the committed `UNSAFE_INVENTORY.md`.
//!
//! The inventory is regenerated on every run and diffed against the
//! committed file, so a new `unsafe` site (or a deleted one that leaves a
//! stale entry) fails the lint until the inventory is re-committed — a
//! forced review point for every change to the workspace's unsafe surface.

use crate::context::FileCx;
use crate::lexer::Kind;
use crate::report::Finding;

/// How many lines above an `unsafe` token a `// SAFETY:` comment may sit
/// (doc comments and attributes in between are common).
const SAFETY_WINDOW: u32 = 6;

/// One `unsafe` site, in inventory form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsafeSite {
    pub file: String,
    pub line: u32,
    pub context: String,
    /// First line of the SAFETY comment, or empty when undocumented.
    pub summary: String,
}

impl UnsafeSite {
    /// The committed-inventory form. Deliberately line-number-free so the
    /// inventory doesn't churn on unrelated edits.
    pub fn entry(&self) -> String {
        format!("{} · {} · {}", self.file, self.context, self.summary)
    }
}

/// Collects the file's unsafe sites and flags undocumented ones.
pub fn check(cx: &FileCx, out: &mut Vec<Finding>, sites: &mut Vec<UnsafeSite>) {
    for (pos, &i) in cx.code.iter().enumerate() {
        let tok = &cx.toks[i];
        if tok.kind != Kind::Ident || cx.text(tok) != "unsafe" || cx.is_test(i) {
            continue;
        }
        // What kind of site is it? (purely for the inventory context)
        let flavor = match cx.text_at(pos + 1) {
            "impl" => "unsafe impl",
            "fn" => "unsafe fn",
            "{" => "unsafe block",
            _ => "unsafe",
        };
        let context = match cx.enclosing_fn(i) {
            Some(f) => format!("{flavor} in {f}"),
            None => flavor.to_string(),
        };
        let summary = safety_summary(cx, i);
        if summary.is_empty() {
            out.push(Finding::new(
                "unsafe_doc",
                &cx.file.rel_path,
                tok.line,
                cx.enclosing_fn(i),
                "`unsafe` without a `// SAFETY:` comment on or above it",
            ));
        }
        sites.push(UnsafeSite {
            file: cx.file.rel_path.clone(),
            line: tok.line,
            context,
            summary,
        });
    }
    // Duplicate inventory entries (two blocks in one fn) get ordinals so
    // the committed file stays a set.
    disambiguate(sites);
}

/// Finds the `SAFETY:` comment covering the `unsafe` token at `toks[i]`:
/// a comment on the same line or within [`SAFETY_WINDOW`] lines above.
fn safety_summary(cx: &FileCx, i: usize) -> String {
    let unsafe_line = cx.toks[i].line;
    let mut best = String::new();
    for tok in &cx.toks {
        if tok.line > unsafe_line {
            break;
        }
        if !matches!(tok.kind, Kind::LineComment | Kind::BlockComment) {
            continue;
        }
        if tok.line + SAFETY_WINDOW < unsafe_line {
            continue;
        }
        let text = cx.text(tok);
        if let Some(at) = text.find("SAFETY:") {
            let rest = &text[at + "SAFETY:".len()..];
            let first_line = rest.lines().next().unwrap_or("").trim();
            let first_line = first_line.trim_end_matches("*/").trim();
            best = first_line.to_string();
            if best.is_empty() {
                // `// SAFETY:` with the prose on the next comment line.
                best = "(see source)".to_string();
            }
        }
    }
    best
}

fn disambiguate(sites: &mut [UnsafeSite]) {
    for idx in 0..sites.len() {
        let entry = sites[idx].entry();
        let nth = sites[..idx].iter().filter(|s| s.entry() == entry).count();
        if nth > 0 {
            sites[idx].summary = format!("{} [{}]", sites[idx].summary, nth + 1);
        }
    }
}

/// Diffs regenerated entries against the committed inventory lines.
pub fn diff_inventory(sites: &[UnsafeSite], committed: &[String], out: &mut Vec<Finding>) {
    let fresh: Vec<String> = sites.iter().map(UnsafeSite::entry).collect();
    for site in sites {
        if !committed.contains(&site.entry()) {
            out.push(Finding::new(
                "unsafe_inventory",
                &site.file,
                site.line,
                None,
                format!(
                    "unsafe site not in UNSAFE_INVENTORY.md (`{}`); review it and rerun with --write-inventories",
                    site.entry()
                ),
            ));
        }
    }
    for (n, entry) in committed.iter().enumerate() {
        if !fresh.contains(entry) {
            out.push(Finding::new(
                "unsafe_inventory",
                "UNSAFE_INVENTORY.md",
                (n + 1) as u32,
                None,
                format!("stale inventory entry `{entry}` matches no unsafe site; rerun with --write-inventories"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SourceFile;

    fn run(src: &str) -> (Vec<Finding>, Vec<UnsafeSite>) {
        let file = SourceFile::new("crates/x/src/lib.rs", src);
        let cx = FileCx::new(&file);
        let mut out = Vec::new();
        let mut sites = Vec::new();
        check(&cx, &mut out, &mut sites);
        (out, sites)
    }

    #[test]
    fn undocumented_unsafe_fires_and_is_inventoried() {
        let (out, sites) = run("fn f() { unsafe { core::hint::unreachable_unchecked() } }");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "unsafe_doc");
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].context, "unsafe block in f");
        assert!(sites[0].summary.is_empty());
    }

    #[test]
    fn near_miss_documented_unsafe_is_clean() {
        let (out, sites) = run(
            "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid for reads.\n    unsafe { *p }\n}",
        );
        assert!(out.is_empty());
        assert_eq!(sites[0].summary, "caller guarantees p is valid for reads.");
    }

    #[test]
    fn array_return_type_keeps_the_enclosing_fn() {
        // The `;` of `[i32; 4]` is not a bodyless declaration's `;`.
        let (out, sites) = run(
            "fn dots(w: &[i16]) -> [i32; 4] {\n    // SAFETY: the caller checked SSE2.\n    unsafe { kernel(w) }\n}",
        );
        assert!(out.is_empty());
        assert_eq!(sites[0].context, "unsafe block in dots");
    }

    #[test]
    fn safety_comment_too_far_above_does_not_count() {
        let src = format!(
            "// SAFETY: way up here.{}\nfn f(p: *const u8) -> u8 {{ unsafe {{ *p }} }}",
            "\n".repeat(SAFETY_WINDOW as usize + 2)
        );
        let (out, _) = run(&src);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn unsafe_in_test_code_is_ignored() {
        let (out, sites) =
            run("#[cfg(test)]\nmod tests {\n  fn t(p: *const u8) -> u8 { unsafe { *p } }\n}");
        assert!(out.is_empty());
        assert!(sites.is_empty());
    }

    #[test]
    fn unsafe_impl_site_is_classified_and_duplicates_get_ordinals() {
        let (_, sites) = run(
            "// SAFETY: raw pointer never aliases.\nunsafe impl Send for P {}\n// SAFETY: raw pointer never aliases.\nunsafe impl Sync for P {}\n",
        );
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].context, "unsafe impl");
        assert_ne!(sites[0].entry(), sites[1].entry());
        assert!(sites[1].summary.ends_with("[2]"));
    }

    #[test]
    fn inventory_diff_flags_missing_and_stale() {
        let (_, sites) = run("fn f() { unsafe { op() } }");
        let committed = vec!["crates/gone/src/old.rs · unsafe block in g · old".to_string()];
        let mut out = Vec::new();
        diff_inventory(&sites, &committed, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out
            .iter()
            .any(|f| f.message.contains("not in UNSAFE_INVENTORY")));
        assert!(out
            .iter()
            .any(|f| f.message.contains("stale inventory entry")));
    }
}
