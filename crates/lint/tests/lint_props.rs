//! Property tests for the lint front end: the lexer is a total function
//! over arbitrary byte soup, and the parser recovers well-formed item
//! streams — every fn, at its right line, with its call sites attributed
//! to the right enclosing fn in the call graph.

use pop_lint::context::{FileCx, SourceFile};
use pop_lint::graph::{CallGraph, Verdict};
use pop_lint::lexer::{lex, Kind};
use pop_lint::LintConfig;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The lexer tolerates anything: lossily-decoded byte soup lexes
    /// without panicking, token spans stay inside the source and never
    /// run backwards, and line numbers are monotone.
    #[test]
    fn lexer_never_panics_on_arbitrary_bytes(bytes in collection::vec(0u8..=255, 64)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let toks = lex(&src);
        let mut last_line = 1u32;
        for t in &toks {
            prop_assert!(t.start < t.end, "empty token span at {}", t.start);
            prop_assert!(t.end <= src.len(), "token runs past the source");
            prop_assert!(t.line >= last_line, "line numbers went backwards");
            last_line = t.line;
            let _ = t.text(&src); // spans must fall on char boundaries
        }
    }

    /// Hostile-but-structured fragments (the shapes that trip hand-rolled
    /// lexers: unterminated strings, nested comment openers, stray
    /// quotes) also lex totally, and the whole FileCx front end — test
    /// marking, allow collection, item parsing — survives them.
    #[test]
    fn front_end_never_panics_on_fragment_soup(picks in collection::vec(0usize..12, 12)) {
        const FRAGMENTS: [&str; 12] = [
            "fn f(", "\"unterminated", "/* nested /* comment", "r#\"raw",
            "'a", "b'\\", "// lint: allow(", "#[cfg(test)]",
            "impl X {", "1.2.3e", "}}}", "let x = y[",
        ];
        let src: String = picks
            .iter()
            .map(|&i| FRAGMENTS[i])
            .collect::<Vec<_>>()
            .join("\n");
        let file = SourceFile::new("crates/x/src/soup.rs", src);
        let _ = FileCx::new(&file);
    }

    /// Round trip: a generated stream of `n` fns — each padded with a
    /// random number of comment lines and calling its successor — parses
    /// back with every fn present at its exact line, and the call graph
    /// attributes each call site to the right caller with a precise edge
    /// to the right callee.
    #[test]
    fn parser_round_trips_fn_spans_and_call_attribution(
        pads in collection::vec(0u32..3, 5),
        salt in 0u32..1_000_000,
    ) {
        let n = pads.len();
        let name = |i: usize| format!("gen{salt}_{i}");
        let mut src = String::new();
        let mut expected_lines = Vec::new();
        let mut line = 1u32;
        for (i, &pad) in pads.iter().enumerate() {
            for p in 0..pad {
                src.push_str(&format!("// padding {p}\n"));
                line += 1;
            }
            expected_lines.push(line);
            if i + 1 < n {
                src.push_str(&format!(
                    "fn {}(x: u32) -> u32 {{ {}(x) }}\n",
                    name(i),
                    name(i + 1)
                ));
            } else {
                src.push_str(&format!("fn {}(x: u32) -> u32 {{ x }}\n", name(i)));
            }
            line += 1;
        }

        let file = SourceFile::new("crates/x/src/gen.rs", src);
        let cxs = vec![FileCx::new(&file)];
        prop_assert_eq!(cxs[0].items.fns.len(), n, "every fn recovered");
        for (i, f) in cxs[0].items.fns.iter().enumerate() {
            prop_assert_eq!(&f.name, &name(i));
            prop_assert_eq!(f.line, expected_lines[i], "fn {} line", f.name);
            prop_assert!(f.body.is_some(), "fn {} body span", f.name);
        }

        let g = CallGraph::build(&cxs, &LintConfig::workspace());
        for (i, &caller_line) in expected_lines.iter().enumerate().take(n - 1) {
            let callee = name(i + 1);
            let call = g.nodes[i]
                .calls
                .iter()
                .find(|c| c.name == callee)
                .expect("call site attributed to its caller");
            prop_assert_eq!(call.verdict, Verdict::Precise);
            prop_assert_eq!(call.targets.as_slice(), &[i + 1], "edge lands on the callee");
            prop_assert_eq!(call.line, caller_line, "call line is the caller's line");
        }
        // The last fn calls nothing: no manufactured edges.
        prop_assert!(g.nodes[n - 1].calls.is_empty(), "phantom calls on the leaf fn");
    }
}

/// Non-random anchor for the lexer property: a token that *should* exist.
#[test]
fn lexer_sees_through_the_soup_anchor() {
    let toks = lex("fn f() {} // tail");
    assert!(toks.iter().any(|t| t.kind == Kind::Ident));
    assert!(toks.iter().any(|t| t.kind == Kind::LineComment));
}
