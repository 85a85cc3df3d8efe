//! Item-level parsing on top of [`crate::lexer`]: functions (with param
//! and return types), impl blocks, traits, struct fields and `use` maps.
//!
//! Still deliberately not a full parser — it recovers the *items* of a
//! file and just enough type surface (head type names) for the call
//! graph's receiver-type heuristics in [`crate::graph`]. Anything it
//! cannot classify it skips; the worst failure mode is a call site the
//! graph over-approximates or counts unresolved, never a crash.

use crate::context::FileCx;
use crate::lexer::Kind;

/// One `fn` item: its identity, signature surface and body span.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Target type of the enclosing `impl` block, when this is a method.
    pub self_ty: Option<String>,
    /// Trait being implemented (`impl Trait for Type`) or declared
    /// (default method bodies inside `trait Trait { … }`).
    pub trait_ty: Option<String>,
    /// `(name, head type)` pairs; `self` appears with its impl type.
    pub params: Vec<(String, Option<String>)>,
    /// Head type of the return type, when one is written, after stripping
    /// deref-transparent wrappers (`MutexGuard<'_, T>` → `T`).
    pub ret: Option<String>,
    /// The unstripped head (`MutexGuard` in the example above) — the graph
    /// uses it to spot guard-returning lock helpers.
    pub ret_raw: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// `code`-index range of the body `{ … }`, inclusive of both braces.
    /// `None` for bodyless trait method declarations.
    pub body: Option<(usize, usize)>,
    /// Inside `#[cfg(test)]` / `#[test]` code (or a tests/ benches dir).
    pub is_test: bool,
}

/// A struct (or enum/union) declaration: the name, plus named-field types
/// for structs — the graph uses these to type `self.field` receivers.
#[derive(Debug, Clone)]
pub struct TypeItem {
    pub name: String,
    /// `(field, head type)`; empty for enums, tuple structs and unions.
    pub fields: Vec<(String, Option<String>)>,
}

/// Everything the parser recovers from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    pub fns: Vec<FnItem>,
    pub types: Vec<TypeItem>,
    pub traits: Vec<String>,
    /// `use` alias map: last-segment (or `as`) name → full path segments.
    pub uses: Vec<(String, Vec<String>)>,
}

/// Head-type wrappers that are transparent to method dispatch: a call on
/// `Arc<T>` / `Box<T>` / a guard lands on `T` via auto-deref, and the
/// lock/cell containers expose `T` through their acquire methods (the
/// graph's [`crate::graph`] typing treats `.lock()`-style calls on the
/// stripped payload as identity).
const DEREF_TRANSPARENT: &[&str] = &[
    "Arc",
    "Rc",
    "Box",
    "Mutex",
    "RwLock",
    "RefCell",
    "Cell",
    "MutexGuard",
    "RwLockReadGuard",
    "RwLockWriteGuard",
    "Ref",
    "RefMut",
];

/// Whether `head` is one of the deref-transparent wrappers whose last
/// generic argument is the payload.
pub fn deref_transparent(head: &str) -> bool {
    DEREF_TRANSPARENT.contains(&head)
}

/// Keywords that can precede `(` without being a call/param context.
pub const KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "false", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "self", "Self", "static", "struct", "super", "trait", "true", "type", "unsafe",
    "use", "where", "while", "async", "await", "box", "union",
];

/// Parses the file's items. Single forward pass over the code tokens with
/// a scope stack; expression braces inside bodies are tracked only for
/// depth. [`FileCx::new`] is the one caller: read `cx.items`.
pub(crate) fn parse(cx: &FileCx) -> FileItems {
    Parser::new(cx).run()
}

/// The path a type at `pos` names, past any `&` / `*` / lifetime / `mut`
/// / `dyn` / `impl` / `const` prefix: its last segment before any wrapper
/// stripping (`&std::sync::MutexGuard<…>` → `MutexGuard`) and the
/// position just past it, or `Err` with the position of whatever else
/// starts the type.
pub(crate) fn type_path(cx: &FileCx, mut pos: usize) -> Result<(String, usize), usize> {
    loop {
        match (cx.kind_at(pos), cx.text_at(pos)) {
            (Some(Kind::Punct), "&" | "*") | (Some(Kind::Lifetime), _) => pos += 1,
            (Some(Kind::Ident), "mut" | "dyn" | "impl" | "const") => pos += 1,
            _ => break,
        }
    }
    if cx.kind_at(pos) != Some(Kind::Ident) {
        return Err(pos);
    }
    let mut head = cx.text_at(pos);
    pos += 1;
    while cx.is_punct2(pos, ":", ":") {
        pos += 2;
        if cx.kind_at(pos) != Some(Kind::Ident) {
            break;
        }
        head = cx.text_at(pos);
        pos += 1;
    }
    Ok((head.to_string(), pos))
}

struct Parser<'a, 'b> {
    cx: &'a FileCx<'b>,
    /// `(self_ty, trait_ty)` context stack for impl/trait blocks, tagged
    /// with the brace depth they opened at.
    impls: Vec<(Option<String>, Option<String>, usize)>,
    depth: usize,
    out: FileItems,
}

impl<'a, 'b> Parser<'a, 'b> {
    fn new(cx: &'a FileCx<'b>) -> Self {
        Parser {
            cx,
            impls: Vec::new(),
            depth: 0,
            out: FileItems::default(),
        }
    }

    fn run(mut self) -> FileItems {
        let mut pos = 0usize;
        while pos < self.cx.code.len() {
            match (self.cx.kind_at(pos), self.cx.text_at(pos)) {
                (Some(Kind::Ident), "fn") => pos = self.parse_fn(pos),
                (Some(Kind::Ident), "impl") => pos = self.parse_impl_header(pos),
                (Some(Kind::Ident), "trait") => pos = self.parse_trait_header(pos),
                (Some(Kind::Ident), "struct") | (Some(Kind::Ident), "union") => {
                    pos = self.parse_struct(pos)
                }
                (Some(Kind::Ident), "enum") => pos = self.parse_enum(pos),
                (Some(Kind::Ident), "use") => pos = self.parse_use(pos),
                (Some(Kind::Punct), "{") => {
                    self.depth += 1;
                    pos += 1;
                }
                (Some(Kind::Punct), "}") => {
                    while self.impls.last().is_some_and(|&(_, _, d)| d >= self.depth) {
                        self.impls.pop();
                    }
                    self.depth = self.depth.saturating_sub(1);
                    pos += 1;
                }
                _ => pos += 1,
            }
        }
        self.out
    }

    /// Parses a type starting at `pos`, returning its head name (the
    /// workspace-relevant identifier after stripping references, `mut`,
    /// `dyn`/`impl`, and deref-transparent wrappers) and the position just
    /// past the type. Returns `None` for heads we cannot or do not want to
    /// name (tuples, slices, fn pointers, primitives stay `Some` — the
    /// symbol table simply won't know them).
    fn parse_type(&self, pos: usize) -> (Option<String>, usize) {
        let (head, mut pos) = match type_path(self.cx, pos) {
            Ok(path) => path,
            // Tuple / slice / array type: no single head.
            Err(at) if self.cx.is_punct(at, "(") || self.cx.is_punct(at, "[") => {
                return (None, self.cx.skip_group(at))
            }
            Err(at) => return (None, at + 1),
        };
        if self.cx.is_punct(pos, "<") {
            let inner_start = pos + 1;
            pos = self.cx.skip_group(pos);
            if DEREF_TRANSPARENT.contains(&head.as_str()) {
                // `Arc<Mutex<T>>` → `T`; `MutexGuard<'a, T>` → `T`
                // (lifetimes are skipped, the *last* argument is the
                // payload for every wrapper in the list).
                if let Some(inner) = self.last_generic_arg_head(inner_start, pos - 1) {
                    return (Some(inner), pos);
                }
                return (None, pos);
            }
            if matches!(head.as_str(), "Result" | "Option") {
                // Collapse to the payload: `?` / `.unwrap()` are how these
                // values are consumed, so the *first* argument is what
                // method calls on the result land on.
                let (inner, _) = self.parse_type(inner_start);
                return (inner, pos);
            }
        }
        (Some(head), pos)
    }

    /// Head of the last top-level type argument in `code[[start, end))` —
    /// the payload of a deref-transparent wrapper.
    fn last_generic_arg_head(&self, start: usize, end: usize) -> Option<String> {
        let mut arg_start = start;
        let mut pos = start;
        let mut depth = 0usize;
        while pos < end {
            if self.cx.is_punct(pos, "<") && !(pos > 0 && self.cx.is_punct2(pos - 1, "-", ">")) {
                depth += 1;
            } else if self.cx.is_punct(pos, ">") && !self.cx.is_punct2(pos - 1, "-", ">") {
                depth = depth.saturating_sub(1);
            } else if self.cx.is_punct(pos, "(") || self.cx.is_punct(pos, "[") {
                pos = self.cx.skip_group(pos);
                continue;
            } else if self.cx.is_punct(pos, ",") && depth == 0 {
                arg_start = pos + 1;
            }
            pos += 1;
        }
        let (head, _) = self.parse_type(arg_start);
        // Recurse through nested wrappers: `Arc<Arc<T>>`.
        head
    }

    fn parse_fn(&mut self, fn_pos: usize) -> usize {
        if self.cx.kind_at(fn_pos + 1) != Some(Kind::Ident) {
            // `fn(usize) -> T` function-pointer type position.
            return fn_pos + 1;
        }
        let name = self.cx.text_at(fn_pos + 1).to_string();
        let line = self.cx.line_at(fn_pos);
        let is_test = self.cx.is_test(self.cx.code[fn_pos]);
        let (self_ty, trait_ty) = self
            .impls
            .last()
            .map(|(s, t, _)| (s.clone(), t.clone()))
            .unwrap_or((None, None));

        let mut pos = fn_pos + 2;
        if self.cx.is_punct(pos, "<") {
            pos = self.cx.skip_group(pos);
        }
        let mut params = Vec::new();
        if self.cx.is_punct(pos, "(") {
            let close = self.cx.skip_group(pos);
            params = self.parse_params(pos + 1, close - 1, self_ty.as_deref());
            pos = close;
        }
        let mut ret = None;
        let mut ret_raw = None;
        if self.cx.is_punct2(pos, "-", ">") {
            ret_raw = type_path(self.cx, pos + 2).ok().map(|(head, _)| head);
            let (head, after) = self.parse_type(pos + 2);
            ret = head;
            pos = after;
        }
        // Skip a `where` clause: runs to the body `{` or a `;`.
        while pos < self.cx.code.len() && !self.cx.is_punct(pos, "{") && !self.cx.is_punct(pos, ";")
        {
            pos += 1;
        }
        let body = if self.cx.is_punct(pos, "{") {
            let end = self.cx.skip_group(pos);
            Some((pos, end - 1))
        } else {
            None
        };
        let after = body.map_or(pos + 1, |(_, end)| end + 1);
        self.out.fns.push(FnItem {
            name,
            self_ty,
            trait_ty,
            params,
            ret,
            ret_raw,
            line,
            body,
            is_test,
        });
        after
    }

    /// Parses `code[[start, end))` as a fn parameter list.
    fn parse_params(
        &self,
        start: usize,
        end: usize,
        self_ty: Option<&str>,
    ) -> Vec<(String, Option<String>)> {
        let mut params = Vec::new();
        let mut pos = start;
        // A leading `self` receiver (possibly `&self`, `&mut self`,
        // `self: Arc<Self>`).
        let mut scan = pos;
        while scan < end
            && (self.cx.is_punct(scan, "&")
                || self.cx.kind_at(scan) == Some(Kind::Lifetime)
                || self.cx.text_at(scan) == "mut")
        {
            scan += 1;
        }
        if scan < end && self.cx.text_at(scan) == "self" {
            params.push(("self".to_string(), self_ty.map(str::to_string)));
            pos = scan + 1;
        }
        // Each further param: `name: Type` at group depth 0.
        let depth = 0usize;
        while pos < end {
            if self.cx.is_punct(pos, "(")
                || self.cx.is_punct(pos, "[")
                || self.cx.is_punct(pos, "{")
            {
                pos = self.cx.skip_group(pos);
                continue;
            }
            if self.cx.is_punct(pos, "<") {
                pos = self.cx.skip_group(pos);
                continue;
            }
            if self.cx.is_punct(pos, ",") && depth == 0 {
                pos += 1;
                continue;
            }
            // `name :` (single colon — `::` is a path) opens a type.
            if self.cx.kind_at(pos) == Some(Kind::Ident)
                && self.cx.is_punct(pos + 1, ":")
                && !self.cx.is_punct2(pos + 1, ":", ":")
            {
                let pname = self.cx.text_at(pos).to_string();
                let (head, after) = self.parse_type(pos + 2);
                if !KEYWORDS.contains(&pname.as_str()) {
                    params.push((pname, head));
                }
                pos = after;
                continue;
            }
            let _ = depth;
            pos += 1;
        }
        params
    }

    fn parse_impl_header(&mut self, impl_pos: usize) -> usize {
        let mut pos = impl_pos + 1;
        if self.cx.is_punct(pos, "<") {
            pos = self.cx.skip_group(pos);
        }
        let (first, after) = self.parse_type(pos);
        pos = after;
        let (self_ty, trait_ty) = if self.cx.text_at(pos) == "for" {
            let (target, after) = self.parse_type(pos + 1);
            pos = after;
            (target, first)
        } else {
            (first, None)
        };
        // Run to the opening brace (skipping any `where` clause).
        while pos < self.cx.code.len() && !self.cx.is_punct(pos, "{") && !self.cx.is_punct(pos, ";")
        {
            pos += 1;
        }
        if self.cx.is_punct(pos, "{") {
            self.depth += 1;
            self.impls.push((self_ty, trait_ty, self.depth));
            return pos + 1;
        }
        pos + 1
    }

    fn parse_trait_header(&mut self, trait_pos: usize) -> usize {
        if self.cx.kind_at(trait_pos + 1) != Some(Kind::Ident) {
            return trait_pos + 1;
        }
        let name = self.cx.text_at(trait_pos + 1).to_string();
        self.out.traits.push(name.clone());
        let mut pos = trait_pos + 2;
        while pos < self.cx.code.len() && !self.cx.is_punct(pos, "{") && !self.cx.is_punct(pos, ";")
        {
            if self.cx.is_punct(pos, "<") {
                pos = self.cx.skip_group(pos);
                continue;
            }
            pos += 1;
        }
        if self.cx.is_punct(pos, "{") {
            self.depth += 1;
            self.impls.push((None, Some(name), self.depth));
            return pos + 1;
        }
        pos + 1
    }

    fn parse_struct(&mut self, struct_pos: usize) -> usize {
        if self.cx.kind_at(struct_pos + 1) != Some(Kind::Ident) {
            return struct_pos + 1;
        }
        let name = self.cx.text_at(struct_pos + 1).to_string();
        let mut pos = struct_pos + 2;
        if self.cx.is_punct(pos, "<") {
            pos = self.cx.skip_group(pos);
        }
        while pos < self.cx.code.len()
            && !self.cx.is_punct(pos, "{")
            && !self.cx.is_punct(pos, ";")
            && !self.cx.is_punct(pos, "(")
        {
            pos += 1;
        }
        let mut fields = Vec::new();
        if self.cx.is_punct(pos, "{") {
            let close = self.cx.skip_group(pos);
            let mut p = pos + 1;
            while p < close - 1 {
                if self.cx.kind_at(p) == Some(Kind::Ident)
                    && self.cx.is_punct(p + 1, ":")
                    && !self.cx.is_punct2(p + 1, ":", ":")
                {
                    let fname = self.cx.text_at(p).to_string();
                    let (head, after) = self.parse_type(p + 2);
                    if !KEYWORDS.contains(&fname.as_str()) {
                        fields.push((fname, head));
                    }
                    // Run to the field-separating comma at depth 0.
                    p = after;
                    let mut d = 0usize;
                    while p < close - 1 {
                        if self.cx.is_punct(p, "<")
                            && !self.cx.is_punct2(p.wrapping_sub(1), "-", ">")
                        {
                            d += 1;
                        } else if self.cx.is_punct(p, ">") {
                            d = d.saturating_sub(1);
                        } else if self.cx.is_punct(p, "(") || self.cx.is_punct(p, "[") {
                            p = self.cx.skip_group(p);
                            continue;
                        } else if self.cx.is_punct(p, ",") && d == 0 {
                            break;
                        }
                        p += 1;
                    }
                }
                p += 1;
            }
            self.out.types.push(TypeItem { name, fields });
            return close;
        }
        if self.cx.is_punct(pos, "(") {
            // Tuple struct: fields are positional, skip them.
            let close = self.cx.skip_group(pos);
            self.out.types.push(TypeItem { name, fields });
            return close;
        }
        self.out.types.push(TypeItem { name, fields });
        pos + 1
    }

    fn parse_enum(&mut self, enum_pos: usize) -> usize {
        if self.cx.kind_at(enum_pos + 1) != Some(Kind::Ident) {
            return enum_pos + 1;
        }
        let name = self.cx.text_at(enum_pos + 1).to_string();
        self.out.types.push(TypeItem {
            name,
            fields: Vec::new(),
        });
        let mut pos = enum_pos + 2;
        if self.cx.is_punct(pos, "<") {
            pos = self.cx.skip_group(pos);
        }
        while pos < self.cx.code.len() && !self.cx.is_punct(pos, "{") && !self.cx.is_punct(pos, ";")
        {
            pos += 1;
        }
        if self.cx.is_punct(pos, "{") {
            return self.cx.skip_group(pos);
        }
        pos + 1
    }

    fn parse_use(&mut self, use_pos: usize) -> usize {
        // Only statement-position `use` (the FileCx already computed this).
        if !self.cx.is_use(self.cx.code[use_pos]) {
            return use_pos + 1;
        }
        let mut end = use_pos + 1;
        while end < self.cx.code.len() && !self.cx.is_punct(end, ";") {
            end += 1;
        }
        let mut prefix = Vec::new();
        self.collect_use_tree(use_pos + 1, end, &mut prefix);
        end + 1
    }

    /// Recursively expands `a::b::{c, d as e}` into alias entries.
    fn collect_use_tree(&mut self, start: usize, end: usize, prefix: &mut Vec<String>) {
        let depth_in = prefix.len();
        let mut aliased = false;
        let mut pos = start;
        while pos < end {
            match (self.cx.kind_at(pos), self.cx.text_at(pos)) {
                (Some(Kind::Ident), "as") if self.cx.kind_at(pos + 1) == Some(Kind::Ident) => {
                    let alias = self.cx.text_at(pos + 1).to_string();
                    self.out.uses.push((alias, prefix.clone()));
                    // `as` renames: the original last segment gets no
                    // default alias of its own.
                    aliased = true;
                    pos += 2;
                }
                (Some(Kind::Ident), "as") => pos += 1,
                (Some(Kind::Ident), "self") => {
                    // `use a::b::{self, c}` — `self` aliases `b`.
                    if let Some(last) = prefix.last().cloned() {
                        self.out.uses.push((last, prefix.clone()));
                    }
                    aliased = true;
                    pos += 1;
                }
                (Some(Kind::Ident), seg) => {
                    prefix.push(seg.to_string());
                    pos += 1;
                }
                (Some(Kind::Punct), ":") => pos += 1,
                (Some(Kind::Punct), "{") => {
                    let close = self.cx.skip_group(pos);
                    let sub = prefix.clone();
                    self.collect_use_group(pos + 1, close - 1, &sub);
                    // The group terminates this branch.
                    while prefix.len() > depth_in {
                        prefix.pop();
                    }
                    pos = close;
                }
                (Some(Kind::Punct), "*") => {
                    // Glob import: record under the reserved `*` alias.
                    self.out.uses.push(("*".to_string(), prefix.clone()));
                    pos += 1;
                }
                _ => pos += 1,
            }
        }
        // A plain `use a::b::c;` aliases `c`.
        if !aliased && prefix.len() > depth_in {
            if let Some(last) = prefix.last() {
                if last != "*" {
                    self.out.uses.push((last.clone(), prefix.clone()));
                }
            }
            while prefix.len() > depth_in {
                prefix.pop();
            }
        }
    }

    /// Splits a `{…}` use-group body on top-level commas and recurses.
    fn collect_use_group(&mut self, start: usize, end: usize, prefix: &[String]) {
        let mut item_start = start;
        let mut pos = start;
        while pos <= end {
            let at_end = pos == end;
            if at_end || self.cx.is_punct(pos, ",") {
                if item_start < pos {
                    let mut sub = prefix.to_vec();
                    self.collect_use_tree(item_start, pos, &mut sub);
                }
                item_start = pos + 1;
            } else if self.cx.is_punct(pos, "{") {
                pos = self.cx.skip_group(pos);
                continue;
            }
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SourceFile;

    fn parse_src(src: &str) -> FileItems {
        FileCx::new(&SourceFile::new("crates/x/src/lib.rs", src)).items
    }

    #[test]
    fn free_fn_with_params_and_return() {
        let items = parse_src("pub fn load(config: &ExperimentConfig, path: &Path) -> Model {}");
        assert_eq!(items.fns.len(), 1);
        let f = &items.fns[0];
        assert_eq!(f.name, "load");
        assert_eq!(f.self_ty, None);
        assert_eq!(
            f.params,
            vec![
                ("config".into(), Some("ExperimentConfig".into())),
                ("path".into(), Some("Path".into())),
            ]
        );
        assert_eq!(f.ret.as_deref(), Some("Model"));
        assert!(f.body.is_some());
    }

    #[test]
    fn inherent_and_trait_methods_carry_their_impl_context() {
        let items = parse_src(
            "impl Engine {\n  fn start(&self) {}\n}\nimpl Drop for Engine {\n  fn drop(&mut self) {}\n}",
        );
        assert_eq!(items.fns.len(), 2);
        assert_eq!(items.fns[0].self_ty.as_deref(), Some("Engine"));
        assert_eq!(items.fns[0].trait_ty, None);
        assert_eq!(
            items.fns[0].params[0],
            ("self".into(), Some("Engine".into()))
        );
        assert_eq!(items.fns[1].self_ty.as_deref(), Some("Engine"));
        assert_eq!(items.fns[1].trait_ty.as_deref(), Some("Drop"));
    }

    #[test]
    fn generic_impls_and_wrappers_normalize_to_head_types() {
        let items = parse_src(
            "impl<T: Send> BoundedQueue<T> {\n  fn push(&self, x: T) -> Result<(), PushError<T>> {}\n}\nfn share(m: Arc<Mutex<Pix2Pix>>, g: MutexGuard<'_, Pix2Pix>) {}",
        );
        assert_eq!(items.fns[0].self_ty.as_deref(), Some("BoundedQueue"));
        // `Result<(), …>` collapses to its payload — a tuple, so no head.
        assert_eq!(items.fns[0].ret, None);
        let share = &items.fns[1];
        assert_eq!(share.params[0].1.as_deref(), Some("Pix2Pix"));
        assert_eq!(share.params[1].1.as_deref(), Some("Pix2Pix"));
    }

    #[test]
    fn struct_fields_are_typed_enums_are_named() {
        let items = parse_src(
            "struct Registry {\n  capacity: usize,\n  inner: Mutex<RegistryInner>,\n  map: HashMap<PathBuf, Entry>,\n}\nenum Mode { A, B(usize) }",
        );
        let s = &items.types[0];
        assert_eq!(s.name, "Registry");
        assert_eq!(
            s.fields,
            vec![
                ("capacity".into(), Some("usize".into())),
                ("inner".into(), Some("RegistryInner".into())),
                ("map".into(), Some("HashMap".into())),
            ]
        );
        assert_eq!(items.types[1].name, "Mode");
        assert!(items.types[1].fields.is_empty());
    }

    #[test]
    fn use_trees_expand_groups_aliases_and_globs() {
        let items = parse_src(
            "use pop_core::{model_io, ExperimentConfig as Cfg, features::tensor_to_image};\nuse pop_exec::*;\nuse std::sync::Mutex;",
        );
        let find = |alias: &str| {
            items
                .uses
                .iter()
                .find(|(a, _)| a == alias)
                .map(|(_, p)| p.join("::"))
        };
        assert_eq!(find("model_io").as_deref(), Some("pop_core::model_io"));
        assert_eq!(find("Cfg").as_deref(), Some("pop_core::ExperimentConfig"));
        assert_eq!(
            find("tensor_to_image").as_deref(),
            Some("pop_core::features::tensor_to_image")
        );
        assert_eq!(find("*").as_deref(), Some("pop_exec"));
        assert_eq!(find("Mutex").as_deref(), Some("std::sync::Mutex"));
    }

    #[test]
    fn trait_decls_record_default_method_context() {
        let items = parse_src(
            "pub trait Forecaster {\n  fn forecast(&self, x: &Tensor) -> Tensor;\n  fn forecast_image(&self, x: &Tensor) -> Image { decode(self.forecast(x)) }\n}",
        );
        assert_eq!(items.traits, vec!["Forecaster".to_string()]);
        assert_eq!(items.fns.len(), 2);
        assert_eq!(items.fns[0].trait_ty.as_deref(), Some("Forecaster"));
        assert!(items.fns[0].body.is_none());
        assert!(items.fns[1].body.is_some());
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let items = parse_src("fn real(cb: fn(usize) -> bool) {}");
        assert_eq!(items.fns.len(), 1);
        assert_eq!(items.fns[0].name, "real");
    }

    #[test]
    fn test_fns_are_marked() {
        let items = parse_src("#[test]\nfn unit() {}\nfn live() {}");
        assert!(items.fns[0].is_test);
        assert!(!items.fns[1].is_test);
    }

    #[test]
    fn bodies_span_the_braces() {
        let src = "fn a() { inner(); }\nfn b() {}";
        let file = SourceFile::new("crates/x/src/lib.rs", src);
        let cx = FileCx::new(&file);
        let (open, close) = cx.items.fns[0].body.unwrap();
        assert_eq!(cx.toks[cx.code[open]].text(src), "{");
        assert_eq!(cx.toks[cx.code[close]].text(src), "}");
        // `inner` sits inside fn a's body span.
        let inner = cx
            .code
            .iter()
            .position(|&i| cx.toks[i].text(src) == "inner")
            .unwrap();
        assert!(open < inner && inner < close);
    }
}
