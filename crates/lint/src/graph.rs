//! The workspace call graph: per-fn facts (panic sites, wall-clock,
//! blocking primitives, lock acquisitions and their nesting) plus
//! resolved call edges, and the reachability machinery the transitive
//! rules run on.
//!
//! Resolution policy (documented in the README "Static analysis"
//! section):
//!
//! * receivers are typed from `self`, params, struct fields, and `let`
//!   bindings (ascribed, or inferred from resolvable call results), with
//!   `&` / `Arc` / `Box` / guards / `Mutex` stripped as deref-transparent
//!   and `Result<T, E>` / `Option<T>` collapsing to their payload;
//! * a receiver typed to a non-workspace head (`Vec`, `Instant`, …)
//!   resolves **external** — no edges;
//! * an unknown receiver **over-approximates** to every workspace method
//!   of that name (extra edges can only add findings, never hide one);
//! * call sites inside `catch_unwind(…)` arguments are **shielded**: the
//!   panic reachability does not traverse them (that boundary is the
//!   design), every other rule does;
//! * nested `fn` items inside a body are scanned as part of the enclosing
//!   fn — their facts and calls attribute to the outer fn, which
//!   over-approximates only when the nested fn is never invoked.

use crate::context::FileCx;
use crate::lexer::Kind;
use crate::parser::{deref_transparent, type_path, KEYWORDS};
use crate::symtab::{FnId, SymTab};
use crate::LintConfig;
use pop_obs::json::str_lit;
use std::collections::{BTreeMap, VecDeque};

pub const PANIC_METHODS: [&str; 4] = ["unwrap", "expect", "unwrap_err", "expect_err"];
pub const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
const WALL_CLOCK_TYPES: [&str; 2] = ["Instant", "SystemTime"];
const ORDER_SENSITIVE_TYPES: [&str; 2] = ["HashMap", "HashSet"];
/// Method names that block the calling thread.
const BLOCKING_METHODS: [&str; 6] = [
    "lock",
    "wait",
    "wait_timeout",
    "wait_while",
    "recv",
    "recv_timeout",
];
/// Guard-acquiring methods that deref to the protected payload when the
/// workspace type itself has no such method.
const ACQUIRE_METHODS: [&str; 5] = ["lock", "read", "write", "borrow", "borrow_mut"];

/// One fact site inside a fn body.
#[derive(Debug, Clone)]
pub struct Site {
    pub line: u32,
    /// Human description, e.g. `` `.unwrap()` `` or `` `Instant` ``.
    pub what: String,
}

/// Everything a rule needs to know about one fn without re-reading it.
#[derive(Debug, Clone, Default)]
pub struct FnFacts {
    pub panic_sites: Vec<Site>,
    pub wall_clock: Vec<Site>,
    pub map_order: Vec<Site>,
    pub blocking: Vec<Site>,
    /// Direct `.lock()` acquisitions: `(canonical name, line)`.
    pub lock_acquires: Vec<(String, u32)>,
    /// Guards taken while another guard of this fn is live:
    /// `((held, since line), (acquired, line))`.
    pub nested_locks: Vec<((String, u32), (String, u32))>,
    /// Body mentions `Fnv1a` — a determinism root.
    pub uses_fnv: bool,
    /// Returns a `MutexGuard` over exactly one directly-acquired lock:
    /// callers acquire that lock at the call site.
    pub returns_guard_of: Option<String>,
}

/// How a call site was resolved — the buckets behind `resolution_rate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Typed/path/free-name lookup produced ≥1 workspace target.
    Precise,
    /// Proven non-workspace: std path, foreign receiver type,
    /// constructor, closure, or a known type without the method.
    External,
    /// Unknown receiver; name fallback produced ≥1 workspace target.
    Approx,
    /// Unknown receiver and no workspace method of that name.
    ApproxExternal,
}

/// One resolved call site.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub name: String,
    pub line: u32,
    pub targets: Vec<FnId>,
    pub verdict: Verdict,
    /// Inside a `catch_unwind(…)` argument.
    pub shielded: bool,
    /// Canonical locks held when the call is made (lock-scope files only):
    /// `(canonical name, acquisition line)`.
    pub held: Vec<(String, u32)>,
}

/// Facts + calls for one symbol-table fn.
#[derive(Debug, Clone, Default)]
pub struct FnNode {
    pub facts: FnFacts,
    pub calls: Vec<CallSite>,
}

/// Aggregate resolution counters, serialized into the graph dump and the
/// lint bench.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GraphStats {
    pub files: usize,
    pub fns: usize,
    pub call_sites: usize,
    pub edges: usize,
    pub precise: usize,
    pub external: usize,
    pub approx: usize,
    pub approx_external: usize,
}

impl GraphStats {
    /// Share of call sites with a definitive typed verdict (precise
    /// workspace target or proven external). Name-fallback
    /// over-approximation counts against the rate.
    pub fn resolution_rate(&self) -> f64 {
        if self.call_sites == 0 {
            return 1.0;
        }
        (self.precise + self.external) as f64 / self.call_sites as f64
    }
}

/// The whole-workspace call graph.
pub struct CallGraph {
    pub tab: SymTab,
    /// Parallel to `tab.fns`.
    pub nodes: Vec<FnNode>,
    pub stats: GraphStats,
}

impl CallGraph {
    /// Builds the symbol table, then facts and edges for every non-test
    /// fn of the scanned files.
    pub fn build(cxs: &[FileCx], cfg: &LintConfig) -> Self {
        let tab = SymTab::build(cxs);
        let scan = |id: FnId, guards: &[Option<String>]| {
            let def = &tab.fns[id];
            let mut scan = BodyScan::new(&cxs[def.file_idx], &tab, cfg, id, guards);
            if let Some(body) = def.item.body {
                scan.run(body);
            }
            (scan.facts, scan.calls)
        };
        // Guard helpers first: a `MutexGuard`-returning fn over exactly one
        // acquisition charges its callers with that lock in the main pass.
        let no_guards = vec![None; tab.fns.len()];
        let guards: Vec<Option<String>> = (0..tab.fns.len())
            .map(|id| {
                if tab.fns[id].item.ret_raw.as_deref() != Some("MutexGuard") {
                    return None;
                }
                match scan(id, &no_guards).0.lock_acquires.as_slice() {
                    [(lock, _)] => Some(lock.clone()),
                    _ => None,
                }
            })
            .collect();
        let mut stats = GraphStats {
            files: cxs.len(),
            fns: tab.fns.len(),
            ..GraphStats::default()
        };
        let mut nodes: Vec<FnNode> = Vec::with_capacity(tab.fns.len());
        for id in 0..tab.fns.len() {
            let (mut facts, calls) = scan(id, &guards);
            stats.call_sites += calls.len();
            for c in &calls {
                stats.edges += c.targets.len();
                match c.verdict {
                    Verdict::Precise => stats.precise += 1,
                    Verdict::External => stats.external += 1,
                    Verdict::Approx => stats.approx += 1,
                    Verdict::ApproxExternal => stats.approx_external += 1,
                }
            }
            facts.returns_guard_of = guards[id].clone();
            nodes.push(FnNode { facts, calls });
        }
        CallGraph { tab, nodes, stats }
    }

    /// Multi-source BFS over call edges. Returns, for every reachable fn,
    /// its BFS parent (`None` for roots). With `honor_shield`, edges at
    /// shielded call sites are not traversed — the panic rule's view.
    pub fn reachable(&self, roots: &[FnId], honor_shield: bool) -> BTreeMap<FnId, Option<FnId>> {
        let mut parent: BTreeMap<FnId, Option<FnId>> = BTreeMap::new();
        let mut queue: VecDeque<FnId> = VecDeque::new();
        for &r in roots {
            if parent.insert(r, None).is_none() {
                queue.push_back(r);
            }
        }
        while let Some(f) = queue.pop_front() {
            for call in &self.nodes[f].calls {
                if honor_shield && call.shielded {
                    continue;
                }
                for &t in &call.targets {
                    if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(t) {
                        e.insert(Some(f));
                        queue.push_back(t);
                    }
                }
            }
        }
        parent
    }

    /// Display-name chain root → … → `target` out of a [`Self::reachable`]
    /// parent map.
    pub fn chain(&self, parents: &BTreeMap<FnId, Option<FnId>>, target: FnId) -> Vec<String> {
        let mut ids = vec![target];
        let mut cur = target;
        while let Some(Some(p)) = parents.get(&cur) {
            ids.push(*p);
            cur = *p;
        }
        ids.reverse();
        ids.iter().map(|&id| self.tab.fns[id].display()).collect()
    }

    /// Callers of each fn, with the shielded flag per edge.
    pub fn callers(&self) -> BTreeMap<FnId, Vec<(FnId, bool)>> {
        let mut map: BTreeMap<FnId, Vec<(FnId, bool)>> = BTreeMap::new();
        for (from, node) in self.nodes.iter().enumerate() {
            for call in &node.calls {
                for &t in &call.targets {
                    map.entry(t).or_default().push((from, call.shielded));
                }
            }
        }
        map
    }

    /// Graphviz DOT dump; shielded edges are dashed.
    pub fn to_dot(&self) -> String {
        let mut out = String::from(
            "digraph pop_call_graph {\n  rankdir=LR;\n  node [shape=box, fontsize=9];\n",
        );
        for (id, def) in self.tab.fns.iter().enumerate() {
            out.push_str(&format!(
                "  n{id} [label=\"{}\\n{}:{}\"];\n",
                escape(&def.display()),
                escape(&def.file),
                def.item.line
            ));
        }
        for (from, node) in self.nodes.iter().enumerate() {
            for call in &node.calls {
                for &to in &call.targets {
                    let style = if call.shielded { " [style=dashed]" } else { "" };
                    out.push_str(&format!("  n{from} -> n{to}{style};\n"));
                }
            }
        }
        out.push_str("}\n");
        out
    }

    /// JSON dump: nodes with fact summaries, edges, and the stats block.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"fns\":[");
        for (id, def) in self.tab.fns.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let facts = &self.nodes[id].facts;
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":{},\"file\":{},\"line\":{},\"can_panic_direct\":{},\"wall_clock\":{},\"blocking\":{}}}",
                str_lit(&def.qualified()),
                str_lit(&def.file),
                def.item.line,
                !facts.panic_sites.is_empty(),
                !facts.wall_clock.is_empty(),
                !facts.blocking.is_empty(),
            ));
        }
        out.push_str("],\"edges\":[");
        let mut first = true;
        for (from, node) in self.nodes.iter().enumerate() {
            for call in &node.calls {
                for &to in &call.targets {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    out.push_str(&format!(
                        "{{\"from\":{from},\"to\":{to},\"line\":{},\"shielded\":{}}}",
                        call.line, call.shielded
                    ));
                }
            }
        }
        let s = &self.stats;
        out.push_str(&format!(
            "],\"stats\":{{\"files\":{},\"fns\":{},\"call_sites\":{},\"edges\":{},\"precise\":{},\"external\":{},\"approx\":{},\"approx_external\":{},\"resolution_rate\":{:.4}}}}}",
            s.files,
            s.fns,
            s.call_sites,
            s.edges,
            s.precise,
            s.external,
            s.approx,
            s.approx_external,
            s.resolution_rate()
        ));
        out
    }
}

/// A DOT label's string escaping.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Inferred value type during a body scan.
#[derive(Debug, Clone, PartialEq)]
enum Ty {
    /// A workspace type (or trait, for trait objects / generic bounds).
    Ws(String),
    /// Proven non-workspace.
    Ext,
    Unk,
}

impl Ty {
    /// A head-type name → inferred type class. Short uppercase-initial
    /// names not in the table are treated as generic parameters (unknown,
    /// so method calls over-approximate rather than under-approximate).
    fn from_head(head: Option<&str>, tab: &SymTab) -> Ty {
        match head {
            None => Ty::Unk,
            Some(h) => {
                if tab.is_type(h) || tab.is_trait(h) {
                    Ty::Ws(h.to_string())
                } else if h.len() <= 2 && h.chars().next().is_some_and(char::is_uppercase) {
                    Ty::Unk // generic parameter (T, F, K, V, …)
                } else {
                    Ty::Ext
                }
            }
        }
    }
}

/// A guard held during the scan. Liveness without an AST: a `let`-bound
/// guard lives until its block closes or `drop(name)`; a temporary
/// (`self.inner.lock().…;`) until the end of its statement.
struct HeldG {
    canonical: String,
    line: u32,
    bound: Option<String>,
    depth: usize,
    temp: bool,
}

struct BodyScan<'a, 'b> {
    cx: &'a FileCx<'b>,
    tab: &'a SymTab,
    cfg: &'a LintConfig,
    me: FnId,
    guards: &'a [Option<String>],
    /// Lexical scopes of local bindings.
    locals: Vec<BTreeMap<String, Ty>>,
    held: Vec<HeldG>,
    depth: usize,
    /// End positions (exclusive) of active `catch_unwind(…)` arguments.
    shields: Vec<usize>,
    lock_scope: bool,
    facts: FnFacts,
    calls: Vec<CallSite>,
}

impl<'a, 'b> BodyScan<'a, 'b> {
    fn new(
        cx: &'a FileCx<'b>,
        tab: &'a SymTab,
        cfg: &'a LintConfig,
        me: FnId,
        guards: &'a [Option<String>],
    ) -> Self {
        let def = &tab.fns[me];
        let mut params = BTreeMap::new();
        for (name, ty) in &def.item.params {
            params.insert(name.clone(), Ty::from_head(ty.as_deref(), tab));
        }
        let lock_scope = cfg.in_lock_scope(&def.file);
        BodyScan {
            cx,
            tab,
            cfg,
            me,
            guards,
            locals: vec![params],
            held: Vec::new(),
            depth: 0,
            shields: Vec::new(),
            lock_scope,
            facts: FnFacts::default(),
            calls: Vec::new(),
        }
    }

    fn lookup_local(&self, name: &str) -> Option<Ty> {
        for scope in self.locals.iter().rev() {
            if let Some(t) = scope.get(name) {
                return Some(t.clone());
            }
        }
        None
    }

    fn bind(&mut self, name: String, ty: Ty) {
        if let Some(scope) = self.locals.last_mut() {
            scope.insert(name, ty);
        }
    }

    fn self_ty(&self) -> Ty {
        self.tab.fns[self.me]
            .item
            .self_ty
            .clone()
            .map_or(Ty::Unk, Ty::Ws)
    }

    fn run(&mut self, body: (usize, usize)) {
        let (open, close) = body;
        let mut pos = open + 1;
        while pos < close {
            self.shields.retain(|&end| pos < end);
            let text = self.cx.text_at(pos);
            match (self.cx.kind_at(pos), text) {
                (Some(Kind::Punct), "{") => {
                    self.depth += 1;
                    self.locals.push(BTreeMap::new());
                }
                (Some(Kind::Punct), "}") => {
                    self.depth = self.depth.saturating_sub(1);
                    let d = self.depth;
                    self.held.retain(|h| h.depth <= d);
                    if self.locals.len() > 1 {
                        self.locals.pop();
                    }
                }
                (Some(Kind::Punct), ";") => self.held.retain(|h| !h.temp),
                // `call(…)[i]` / `arr[i][j]` indexing sugar.
                (Some(Kind::Punct), ")") | (Some(Kind::Punct), "]")
                    if self.cx.text_at(pos + 1) == "["
                        && !self.cx.is_test(self.cx.code[pos])
                        && !self.cx.is_use(self.cx.code[pos]) =>
                {
                    self.facts.panic_sites.push(Site {
                        line: self.cx.line_at(pos + 1),
                        what: "indexing sugar (`[…]`)".to_string(),
                    });
                }
                (Some(Kind::Ident), "let") => self.handle_let(pos),
                (Some(Kind::Ident), "drop")
                    if self.cx.text_at(pos + 1) == "(" && self.cx.text_at(pos + 3) == ")" =>
                {
                    let arg = self.cx.text_at(pos + 2);
                    self.held.retain(|h| h.bound.as_deref() != Some(arg));
                }
                // A `drop` that is not the single-binding release form must
                // not fall through to `handle_ident`: it would register a
                // call site that Approx-resolves onto `Drop::drop` impls.
                (Some(Kind::Ident), "drop") => {}
                (Some(Kind::Ident), _) => self.handle_ident(pos, text),
                _ => {}
            }
            pos += 1;
        }
    }

    /// `let [mut] name [: Type] = …` — record the binding's type.
    fn handle_let(&mut self, let_pos: usize) {
        let mut pos = let_pos + 1;
        if self.cx.text_at(pos) == "mut" {
            pos += 1;
        }
        if self.cx.kind_at(pos) != Some(Kind::Ident) {
            return; // tuple/struct pattern — locals stay unknown
        }
        let name = self.cx.text_at(pos).to_string();
        if KEYWORDS.contains(&name.as_str()) || name.chars().next().is_some_and(char::is_uppercase)
        {
            return; // `let Some(x) = …` / `let Ok(x) = …` patterns
        }
        pos += 1;
        // Explicit ascription wins.
        if self.cx.text_at(pos) == ":" && !self.cx.is_punct2(pos, ":", ":") {
            let head = self.type_head_after(pos + 1);
            self.bind(name, Ty::from_head(head.as_deref(), self.tab));
            return;
        }
        if self.cx.text_at(pos) != "=" || self.cx.text_at(pos + 1) == "=" {
            return;
        }
        let ty = self.rhs_type(pos + 1);
        self.bind(name, ty);
    }

    /// Head of a written type starting at `pos` (deref-stripped).
    fn type_head_after(&self, pos: usize) -> Option<String> {
        let (head, pos) = type_path(self.cx, pos).ok()?;
        if deref_transparent(&head) && self.cx.text_at(pos) == "<" {
            // Take the last generic argument — the payload for every
            // wrapper in the transparent list.
            let close = self.cx.skip_group(pos);
            let mut depth = 0usize;
            let mut last_start = pos + 1;
            let mut p = pos;
            while p + 1 < close {
                match self.cx.text_at(p) {
                    "<" => depth += 1,
                    ">" => depth = depth.saturating_sub(1),
                    "," if depth == 1 => last_start = p + 1,
                    _ => {}
                }
                p += 1;
            }
            return self.type_head_after(last_start);
        }
        Some(head)
    }

    /// Best-effort type of the expression starting at `pos` (a `let` rhs).
    fn rhs_type(&mut self, mut pos: usize) -> Ty {
        loop {
            match (self.cx.kind_at(pos), self.cx.text_at(pos)) {
                (Some(Kind::Punct), "&") => pos += 1,
                (Some(Kind::Ident), "mut") => pos += 1,
                _ => break,
            }
        }
        match self.cx.kind_at(pos) {
            Some(Kind::Num) | Some(Kind::Str) | Some(Kind::Char) => Ty::Ext,
            Some(Kind::Ident) => {
                let (ty, after) = self.primary_type(pos);
                self.apply_postfix(ty, after)
            }
            _ => Ty::Unk,
        }
    }

    /// Type of a primary expression head: local, `self`, path, call, or
    /// struct literal. Returns the type and the position just past it.
    fn primary_type(&mut self, pos: usize) -> (Ty, usize) {
        if self.cx.kind_at(pos) != Some(Kind::Ident) {
            return (Ty::Unk, pos + 1);
        }
        let name = self.cx.text_at(pos).to_string();
        if name == "self" {
            return (self.self_ty(), pos + 1);
        }
        // Macro invocation: `format!(…)` and friends are external values.
        if self.cx.text_at(pos + 1) == "!" {
            return (Ty::Ext, pos + 1);
        }
        // Path expression: collect segments, `seg :: seg :: …`.
        if self.cx.is_punct2(pos + 1, ":", ":") {
            let mut segs = vec![name];
            let mut p = pos + 1;
            while self.cx.is_punct2(p, ":", ":") && self.cx.kind_at(p + 2) == Some(Kind::Ident) {
                segs.push(self.cx.text_at(p + 2).to_string());
                p += 3;
            }
            let after = p; // position past the last segment
            if self.cx.text_at(after) == "(" {
                // Path call: type from the resolved targets' return type.
                let (targets, verdict) = self.resolve_path_call(&segs);
                let ty = if targets.is_empty() && verdict == Verdict::External {
                    Ty::Ext
                } else {
                    self.common_ret(&targets)
                };
                return (ty, self.cx.skip_group(after));
            }
            let last = segs.last().cloned().unwrap_or_default();
            if last.chars().next().is_some_and(char::is_uppercase) && segs.len() >= 2 {
                // `Enum::Variant` (or an associated const): the owner type.
                let owner = segs[segs.len() - 2].clone();
                let owner = if owner == "Self" {
                    self.tab.fns[self.me]
                        .item
                        .self_ty
                        .clone()
                        .unwrap_or_default()
                } else {
                    owner
                };
                if self.tab.is_type(&owner) {
                    return (Ty::Ws(owner), after);
                }
            }
            return (Ty::Unk, after);
        }
        if let Some(ty) = self.lookup_local(&name) {
            return (ty, pos + 1);
        }
        if name.chars().next().is_some_and(char::is_uppercase) {
            if self.cx.text_at(pos + 1) == "{" && self.tab.is_type(&name) {
                // Struct literal.
                return (Ty::Ws(name), self.cx.skip_group(pos + 1));
            }
            return (Ty::Unk, pos + 1);
        }
        if self.cx.text_at(pos + 1) == "(" {
            // Free-fn call result.
            let ids = self.tab.free_fns(&name, &self.tab.fns[self.me].file);
            return (self.common_ret(&ids), self.cx.skip_group(pos + 1));
        }
        (Ty::Unk, pos + 1)
    }

    /// Applies a `.field` / `.method(…)` / `?` postfix chain to `ty`.
    fn apply_postfix(&mut self, mut ty: Ty, mut pos: usize) -> Ty {
        loop {
            if self.cx.text_at(pos) == "?" {
                pos += 1;
                continue;
            }
            if self.cx.text_at(pos) != "." || self.cx.kind_at(pos + 1) != Some(Kind::Ident) {
                return ty;
            }
            let seg = self.cx.text_at(pos + 1).to_string();
            let mut call_open = pos + 2;
            if self.cx.is_punct2(call_open, ":", ":") && self.cx.text_at(call_open + 2) == "<" {
                call_open = self.cx.skip_group(call_open + 2); // turbofish
            }
            if self.cx.text_at(call_open) == "(" {
                ty = self.method_ret(&ty, &seg);
                pos = self.cx.skip_group(call_open);
            } else {
                ty = self.field_ty(&ty, &seg);
                pos += 2;
            }
        }
    }

    fn field_ty(&self, ty: &Ty, field: &str) -> Ty {
        match ty {
            Ty::Ws(t) => match self.tab.field_type(t, field) {
                Some(head) => Ty::from_head(Some(head), self.tab),
                None => Ty::Unk,
            },
            Ty::Ext => Ty::Ext,
            Ty::Unk => Ty::Unk,
        }
    }

    fn method_ret(&self, ty: &Ty, name: &str) -> Ty {
        match ty {
            Ty::Ws(t) => {
                let ids = if self.tab.is_trait(t) {
                    self.tab.trait_impls(t, name)
                } else {
                    self.tab.methods_on(t, name)
                };
                if ids.is_empty() {
                    // `payload.lock()` on a `Mutex<Payload>`-typed field
                    // (the wrapper was stripped): the guard derefs back.
                    if ACQUIRE_METHODS.contains(&name) {
                        return ty.clone();
                    }
                    return Ty::Unk;
                }
                self.common_ret(&ids)
            }
            Ty::Ext => Ty::Ext,
            Ty::Unk => Ty::Unk,
        }
    }

    /// The agreed return type of a candidate set (Unk on disagreement).
    fn common_ret(&self, ids: &[FnId]) -> Ty {
        if ids.is_empty() {
            return Ty::Unk;
        }
        let mut ret: Option<Ty> = None;
        for &id in ids {
            let item = &self.tab.fns[id].item;
            let head = match item.ret.as_deref() {
                Some("Self") => item.self_ty.as_deref(),
                r => r,
            };
            let t = Ty::from_head(head, self.tab);
            match &ret {
                None => ret = Some(t),
                Some(prev) if *prev == t => {}
                Some(_) => return Ty::Unk,
            }
        }
        ret.unwrap_or(Ty::Unk)
    }

    /// The central per-ident dispatch: facts, shields, call sites.
    fn handle_ident(&mut self, pos: usize, text: &str) {
        let i = self.cx.code[pos];
        if self.cx.is_use(i) || self.cx.is_test(i) {
            return;
        }
        let line = self.cx.line_at(pos);
        let prev = pos.checked_sub(1).map_or("", |p| self.cx.text_at(p));
        let prev_dot = prev == "." && pos.checked_sub(2).is_none_or(|p| self.cx.text_at(p) != ".");
        let next = self.cx.text_at(pos + 1);

        // --- facts -------------------------------------------------------
        if WALL_CLOCK_TYPES.contains(&text) {
            self.facts.wall_clock.push(Site {
                line,
                what: format!("`{text}`"),
            });
        }
        if ORDER_SENSITIVE_TYPES.contains(&text) {
            self.facts.map_order.push(Site {
                line,
                what: format!("`{text}`"),
            });
        }
        if text == "Fnv1a" {
            self.facts.uses_fnv = true;
        }
        if matches!(text, "File" | "OpenOptions") && prev != "." {
            self.facts.blocking.push(Site {
                line,
                what: format!("file I/O (`{text}`)"),
            });
        }
        if text == "sleep" && next == "(" && !prev_dot {
            self.facts.blocking.push(Site {
                line,
                what: "`thread::sleep`".to_string(),
            });
        }
        if PANIC_MACROS.contains(&text) && next == "!" {
            self.facts.panic_sites.push(Site {
                line,
                what: format!("`{text}!`"),
            });
            return;
        }
        // `name[…]` indexing sugar (array literals and attributes have a
        // punct before their `[`, so only ident-adjacent brackets fire).
        if next == "[" && !KEYWORDS.contains(&text) {
            self.facts.panic_sites.push(Site {
                line: self.cx.line_at(pos + 1),
                what: "indexing sugar (`[…]`)".to_string(),
            });
        }

        // --- method calls ------------------------------------------------
        if prev_dot && next == "(" {
            if PANIC_METHODS.contains(&text) {
                self.facts.panic_sites.push(Site {
                    line,
                    what: format!("`.{text}()`"),
                });
                return;
            }
            if BLOCKING_METHODS.contains(&text) {
                self.facts.blocking.push(Site {
                    line,
                    what: format!("`.{text}()`"),
                });
            }
            // `.lock()` with no args: the lock-order acquisition model.
            let mut lock_site = None;
            if text == "lock" && self.cx.text_at(pos + 2) == ")" && self.lock_scope {
                let receiver = receiver_chain(self.cx, pos - 1);
                let canonical = self.cfg.canonical_lock(&self.cx.file.rel_path, &receiver);
                self.facts.lock_acquires.push((canonical.clone(), line));
                lock_site = Some(canonical);
            }
            self.record_method_call(pos, text, line, lock_site);
            return;
        }

        // --- shield ------------------------------------------------------
        if text == "catch_unwind" && next == "(" {
            let end = self.cx.skip_group(pos + 1);
            self.shields.push(end);
            return;
        }

        // --- path calls --------------------------------------------------
        if self.cx.is_punct2(pos + 1, ":", ":") && !prev_dot && prev != ":" {
            let mut segs = vec![text.to_string()];
            let mut p = pos + 1;
            while self.cx.is_punct2(p, ":", ":") && self.cx.kind_at(p + 2) == Some(Kind::Ident) {
                segs.push(self.cx.text_at(p + 2).to_string());
                p += 3;
            }
            let mut call_open = p;
            if self.cx.is_punct2(p, ":", ":") && self.cx.text_at(p + 2) == "<" {
                call_open = self.cx.skip_group(p + 2); // turbofish
            }
            if self.cx.text_at(call_open) != "(" {
                return;
            }
            let last = segs.last().cloned().unwrap_or_default();
            if last.chars().next().is_some_and(char::is_uppercase) {
                return; // `Enum::Variant(…)` / tuple-struct constructor
            }
            let (targets, verdict) = self.resolve_path_call(&segs);
            self.push_call(last, line, targets, verdict);
            return;
        }

        // --- plain calls -------------------------------------------------
        if next == "(" && !prev_dot && prev != ":" && prev != "fn" {
            if KEYWORDS.contains(&text) || text.chars().next().is_some_and(char::is_uppercase) {
                return;
            }
            if self.lookup_local(text).is_some() {
                // Closure / fn-pointer invocation of a local.
                self.push_call(text.to_string(), line, Vec::new(), Verdict::External);
                return;
            }
            let ids = self.tab.free_fns(text, &self.tab.fns[self.me].file);
            if ids.is_empty() {
                // Unresolved bare call: a nested fn (scanned inline above)
                // or a std/prelude fn — treated as proven-local-or-absent.
                self.push_call(text.to_string(), line, Vec::new(), Verdict::External);
            } else {
                self.push_call(text.to_string(), line, ids, Verdict::Precise);
            }
        }
    }

    /// Records a method call site: receiver typing, resolution, held set.
    /// `lock_site` is the lock a `.lock()` call takes by its own text.
    fn record_method_call(&mut self, pos: usize, name: &str, line: u32, lock_site: Option<String>) {
        let recv_ty = self.receiver_type(pos);
        let (targets, verdict) = match recv_ty {
            Ty::Ws(t) => {
                let ids = if self.tab.is_trait(&t) {
                    let mut ids = self.tab.trait_impls(&t, name);
                    if ids.is_empty() {
                        ids = self.tab.trait_defaults(name);
                    }
                    ids
                } else {
                    self.tab.methods_on(&t, name)
                };
                if ids.is_empty() {
                    // Known workspace type without the method: derives and
                    // std blanket impls — external by assumption.
                    (Vec::new(), Verdict::External)
                } else {
                    (ids, Verdict::Precise)
                }
            }
            Ty::Ext => (Vec::new(), Verdict::External),
            Ty::Unk => {
                let ids = self.tab.methods_named(name);
                if ids.is_empty() {
                    (Vec::new(), Verdict::ApproxExternal)
                } else {
                    (ids, Verdict::Approx)
                }
            }
        };
        // A precise call to a guard-returning helper acquires the helper's
        // lock. One call is one acquisition: a helper named `lock` is not
        // also the `.lock()` its text spells.
        let helper = match targets.as_slice() {
            [t] if self.lock_scope && verdict == Verdict::Precise => self.guards[*t].clone(),
            _ => None,
        };
        if let Some(lock) = helper.or(lock_site) {
            self.acquire(lock, line, pos);
        }
        self.push_call(name.to_string(), line, targets, verdict);
    }

    /// Takes a guard at the call whose name ident is at `pos`: nested
    /// under every guard still live, then live itself.
    fn acquire(&mut self, canonical: String, line: u32, pos: usize) {
        for h in &self.held {
            self.facts
                .nested_locks
                .push(((h.canonical.clone(), h.line), (canonical.clone(), line)));
        }
        let bound = let_binding(self.cx, pos);
        self.held.push(HeldG {
            canonical,
            line,
            temp: bound.is_none(),
            bound,
            depth: self.depth,
        });
    }

    /// Type of the receiver of the method call whose name ident is at
    /// `pos` (the `.` sits at `pos - 1`): walk the dotted chain back to
    /// its base, type the base, then apply the chain forward.
    fn receiver_type(&mut self, pos: usize) -> Ty {
        enum Seg {
            Field(String),
            Call(String),
        }
        let mut segs: Vec<Seg> = Vec::new();
        let mut p = pos - 1; // the `.`
        let base: Ty = loop {
            let Some(prev) = p.checked_sub(1) else {
                break Ty::Unk;
            };
            match (self.cx.kind_at(prev), self.cx.text_at(prev)) {
                (Some(Kind::Punct), "?") => {
                    p = prev;
                    continue;
                }
                (Some(Kind::Ident), name) => {
                    let name = name.to_string();
                    let before_dot = prev
                        .checked_sub(1)
                        .is_some_and(|q| self.cx.text_at(q) == ".");
                    let before_path = prev
                        .checked_sub(2)
                        .is_some_and(|q| self.cx.is_punct2(q, ":", ":"));
                    if before_path {
                        // `a::b::CONST.method()` — type the path head.
                        let mut start = prev;
                        while start >= 2 && self.cx.is_punct2(start - 2, ":", ":") {
                            start -= 3;
                        }
                        let (ty, _) = self.primary_type(start);
                        break ty;
                    }
                    if before_dot {
                        segs.push(Seg::Field(name));
                        p = prev - 1;
                        continue;
                    }
                    // Chain base: a plain ident.
                    if name == "self" {
                        break self.self_ty();
                    }
                    if let Some(ty) = self.lookup_local(&name) {
                        break ty;
                    }
                    if name.chars().next().is_some_and(char::is_uppercase) {
                        break if self.tab.is_type(&name) || self.tab.is_trait(&name) {
                            Ty::Ws(name)
                        } else {
                            Ty::Unk
                        };
                    }
                    break Ty::Unk;
                }
                (Some(Kind::Punct), "]") => break Ty::Unk, // index result — element unknown
                (Some(Kind::Punct), ")") => {
                    let Some(before) = self.cx.group_open(prev).checked_sub(1) else {
                        break Ty::Unk;
                    };
                    if self.cx.kind_at(before) != Some(Kind::Ident) {
                        break Ty::Unk; // closure call result etc.
                    }
                    let name = self.cx.text_at(before).to_string();
                    if before
                        .checked_sub(1)
                        .is_some_and(|r| self.cx.text_at(r) == ".")
                    {
                        segs.push(Seg::Call(name));
                        p = before - 1;
                        continue;
                    }
                    if before >= 2 && self.cx.is_punct2(before - 2, ":", ":") {
                        // `a::b::f(…).method()` — resolve the path call.
                        let mut start = before;
                        while start >= 2 && self.cx.is_punct2(start - 2, ":", ":") {
                            start -= 3;
                        }
                        let mut path = vec![self.cx.text_at(start).to_string()];
                        let mut r = start + 1;
                        while self.cx.is_punct2(r, ":", ":")
                            && self.cx.kind_at(r + 2) == Some(Kind::Ident)
                        {
                            path.push(self.cx.text_at(r + 2).to_string());
                            r += 3;
                        }
                        let (targets, verdict) = self.resolve_path_call(&path);
                        break if targets.is_empty() && verdict == Verdict::External {
                            Ty::Ext
                        } else {
                            self.common_ret(&targets)
                        };
                    }
                    if self.lookup_local(&name).is_some() {
                        break Ty::Unk; // closure result
                    }
                    let ids = self.tab.free_fns(&name, &self.tab.fns[self.me].file);
                    break self.common_ret(&ids);
                }
                _ => break Ty::Unk,
            }
        };
        // Apply the collected (reversed) chain onto the base type.
        let mut ty = base;
        for seg in segs.iter().rev() {
            ty = match seg {
                Seg::Field(f) => self.field_ty(&ty, f),
                Seg::Call(m) => self.method_ret(&ty, m),
            };
        }
        ty
    }

    /// Resolves `a::b::name(…)` to targets + verdict.
    fn resolve_path_call(&self, segs: &[String]) -> (Vec<FnId>, Verdict) {
        if segs.len() < 2 {
            return (Vec::new(), Verdict::External);
        }
        let name = segs.last().unwrap().clone();
        let mut qual: Vec<String> = segs[..segs.len() - 1].to_vec();
        let me = &self.tab.fns[self.me];
        // Expand a `use` alias on the leading segment, then normalize
        // `crate`/`self`/`super` heads (a `use crate::…` alias reintroduces
        // one, hence alias expansion first).
        if let Some((_, path)) = self
            .cx
            .items
            .uses
            .iter()
            .find(|(alias, _)| *alias == qual[0])
        {
            let mut expanded = path.clone();
            expanded.extend(qual.drain(1..));
            qual = expanded;
        }
        match qual[0].as_str() {
            "crate" => {
                qual.remove(0);
                if let Some(root) = me.module.first() {
                    qual.insert(0, root.clone());
                }
            }
            "self" => {
                qual.remove(0);
                for (i, seg) in me.module.iter().enumerate() {
                    qual.insert(i, seg.clone());
                }
            }
            "super" => {
                qual.remove(0);
                let parent = &me.module[..me.module.len().saturating_sub(1)];
                for (i, seg) in parent.iter().enumerate() {
                    qual.insert(i, seg.clone());
                }
            }
            _ => {}
        }
        if qual.is_empty() {
            let ids = self.tab.free_fns(&name, &me.file);
            return if ids.is_empty() {
                (Vec::new(), Verdict::External)
            } else {
                (ids, Verdict::Precise)
            };
        }
        if matches!(qual[0].as_str(), "std" | "core" | "alloc") {
            return (Vec::new(), Verdict::External);
        }
        // Type- or trait-qualified call?
        let owner = qual.last().cloned().unwrap_or_default();
        let owner = if owner == "Self" {
            me.item.self_ty.clone().unwrap_or(owner)
        } else {
            owner
        };
        if owner.chars().next().is_some_and(char::is_uppercase) {
            if self.tab.is_type(&owner) {
                let ids = self.tab.methods_on(&owner, &name);
                return if ids.is_empty() {
                    (Vec::new(), Verdict::External)
                } else {
                    (ids, Verdict::Precise)
                };
            }
            if self.tab.is_trait(&owner) {
                let mut ids = self.tab.trait_impls(&owner, &name);
                if ids.is_empty() {
                    ids = self.tab.trait_defaults(&name);
                }
                return if ids.is_empty() {
                    (Vec::new(), Verdict::External)
                } else {
                    (ids, Verdict::Precise)
                };
            }
            return (Vec::new(), Verdict::External);
        }
        // Module-qualified free fn.
        let ids = self.tab.free_fns_in(&name, &qual);
        if ids.is_empty() {
            (Vec::new(), Verdict::External)
        } else {
            (ids, Verdict::Precise)
        }
    }

    fn push_call(&mut self, name: String, line: u32, targets: Vec<FnId>, verdict: Verdict) {
        let held: Vec<(String, u32)> = self
            .held
            .iter()
            .map(|h| (h.canonical.clone(), h.line))
            .collect();
        let shielded = !self.shields.is_empty();
        self.calls.push(CallSite {
            name,
            line,
            targets,
            verdict,
            shielded,
            held,
        });
    }
}

/// The dotted receiver chain ending at the `.` at `dot_pos`, e.g.
/// `self.inner` for `self.inner.lock()`. Call results (`registry().lock()`)
/// and indexing (`slots[i].lock()`) reduce to the name before the group.
fn receiver_chain(cx: &FileCx, dot_pos: usize) -> String {
    let mut parts: Vec<&str> = Vec::new();
    let mut p = dot_pos;
    while let Some(prev) = p.checked_sub(1) {
        match (cx.kind_at(prev), cx.text_at(prev)) {
            (Some(Kind::Ident), name) => {
                parts.push(name);
                // Continue only through a `.` chain.
                if prev == 0 || cx.text_at(prev - 1) != "." {
                    break;
                }
                p = prev - 1;
            }
            (Some(Kind::Punct), ")" | "]") => {
                // Skip the balanced group, then take the name before it.
                let open = cx.group_open(prev);
                if open > 0 && cx.kind_at(open - 1) == Some(Kind::Ident) {
                    parts.push(cx.text_at(open - 1));
                }
                break;
            }
            _ => break,
        }
    }
    parts.reverse();
    parts.join(".")
}

/// The name a `let [mut] name = …` statement binds, when the call whose
/// name ident is at `pos` sits in one.
fn let_binding(cx: &FileCx, pos: usize) -> Option<String> {
    // Walk back to the statement boundary, remembering the first `=`.
    let mut head = pos;
    let mut eq = None;
    while head > 0 && !matches!(cx.text_at(head - 1), ";" | "{" | "}") {
        head -= 1;
        if cx.is_punct(head, "=") {
            eq = Some(head);
        }
    }
    let eq = eq?;
    if cx.text_at(head) != "let" {
        return None;
    }
    let name = if cx.text_at(head + 1) == "mut" {
        head + 2
    } else {
        head + 1
    };
    (cx.kind_at(name) == Some(Kind::Ident) && name < eq).then(|| cx.text_at(name).to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SourceFile;

    fn build(files: &[(&str, &str)]) -> CallGraph {
        let sources: Vec<SourceFile> = files.iter().map(|(p, s)| SourceFile::new(*p, *s)).collect();
        let cxs: Vec<FileCx> = sources.iter().map(FileCx::new).collect();
        CallGraph::build(&cxs, &crate::lock_fixture_config())
    }

    fn id_of(g: &CallGraph, display: &str) -> FnId {
        g.tab
            .fns
            .iter()
            .position(|f| f.display() == display)
            .unwrap_or_else(|| panic!("no fn {display}"))
    }

    #[test]
    fn two_hop_panic_reaches_through_files_with_a_chain() {
        let g = build(&[
            (
                "crates/serve/src/engine.rs",
                "use pop_core::features::risky_decode;\n\
                 impl Engine {\n  pub fn handle(&self) { risky_decode(7); }\n}",
            ),
            (
                "crates/core/src/features.rs",
                "pub fn risky_decode(x: usize) -> usize { inner(x) }\n\
                 fn inner(x: usize) -> usize { SOME[x] }",
            ),
        ]);
        let root = id_of(&g, "Engine::handle");
        let target = id_of(&g, "inner");
        assert!(!g.nodes[target].facts.panic_sites.is_empty());
        let parents = g.reachable(&[root], true);
        assert!(parents.contains_key(&target));
        let chain = g.chain(&parents, target);
        assert_eq!(chain, vec!["Engine::handle", "risky_decode", "inner"]);
    }

    #[test]
    fn shielded_edges_block_panic_traversal_but_not_blocking() {
        let g = build(&[(
            "crates/serve/src/engine.rs",
            "impl Replica {\n  fn run(&self) { let r = std::panic::catch_unwind(|| self.step()); consume(r); }\n  fn step(&self) { self.x.unwrap(); }\n}\nfn consume(r: usize) {}",
        )]);
        let root = id_of(&g, "Replica::run");
        let step = id_of(&g, "Replica::step");
        let shielded_view = g.reachable(&[root], true);
        assert!(
            !shielded_view.contains_key(&step),
            "shield must cut the panic BFS"
        );
        let full_view = g.reachable(&[root], false);
        assert!(full_view.contains_key(&step), "other rules follow the edge");
    }

    #[test]
    fn typed_receivers_resolve_precisely_and_foreign_ones_externally() {
        let g = build(&[(
            "crates/core/src/model.rs",
            "pub struct Model { inner: Mutex<State> }\n\
             pub struct State;\n\
             impl State { pub fn step(&self) {} }\n\
             impl Model {\n  pub fn tick(&self) { self.inner.lock().step(); }\n  pub fn noise(&self) { let v = Vec::new(); v.len(); }\n}",
        )]);
        let tick = id_of(&g, "Model::tick");
        let step = id_of(&g, "State::step");
        let step_call = g.nodes[tick]
            .calls
            .iter()
            .find(|c| c.name == "step")
            .expect("step call recorded");
        assert_eq!(step_call.verdict, Verdict::Precise);
        assert_eq!(step_call.targets, vec![step]);
        let noise = id_of(&g, "Model::noise");
        assert!(g.nodes[noise]
            .calls
            .iter()
            .filter(|c| c.name == "len")
            .all(|c| c.verdict == Verdict::External));
    }

    #[test]
    fn unknown_receivers_over_approximate_to_name_matches() {
        let g = build(&[(
            "crates/core/src/model.rs",
            "pub struct A;\nimpl A { pub fn work(&self) {} }\n\
             pub struct B;\nimpl B { pub fn work(&self) {} }\n\
             pub fn dispatch(x: T) { x.work(); }",
        )]);
        let dispatch = id_of(&g, "dispatch");
        let call = &g.nodes[dispatch].calls[0];
        assert_eq!(call.verdict, Verdict::Approx);
        assert_eq!(call.targets.len(), 2, "both candidates kept");
    }

    #[test]
    fn determinism_facts_and_fnv_roots_are_recorded() {
        let g = build(&[(
            "crates/core/src/dataset.rs",
            "impl Corpus {\n  pub fn fingerprint(&self) -> u64 { let h = Fnv1a::new(); helper(); 0 }\n}\n\
             fn helper() { let t = std::time::Instant::now(); use1(t); }\nfn use1(t: usize) {}",
        )]);
        let fp = id_of(&g, "Corpus::fingerprint");
        let helper = id_of(&g, "helper");
        assert!(g.nodes[fp].facts.uses_fnv);
        assert_eq!(g.nodes[helper].facts.wall_clock.len(), 1);
        let parents = g.reachable(&[fp], false);
        assert!(parents.contains_key(&helper));
    }

    #[test]
    fn guard_returning_helper_charges_callers_with_the_lock() {
        let g = build(&[(
            "crates/serve/src/registry.rs",
            "impl Registry {\n  fn lock(&self) -> MutexGuard<'_, Inner> { self.inner.lock() }\n  fn use_it(&self) { let g = self.lock(); g.touch(); }\n}",
        )]);
        let lockfn = id_of(&g, "Registry::lock");
        assert_eq!(
            g.nodes[lockfn].facts.returns_guard_of.as_deref(),
            Some("serve.registry.inner")
        );
        let use_it = id_of(&g, "Registry::use_it");
        let touch = g.nodes[use_it]
            .calls
            .iter()
            .find(|c| c.name == "touch")
            .expect("touch call recorded");
        assert!(
            touch.held.iter().any(|(l, _)| l == "serve.registry.inner"),
            "held: {:?}",
            touch.held
        );
    }

    #[test]
    fn stats_count_verdicts_and_rate_reflects_them() {
        let g = build(&[(
            "crates/core/src/model.rs",
            "pub struct A;\nimpl A { pub fn f(&self) {} }\n\
             pub fn go(a: A) { a.f(); std::mem::drop(1); }",
        )]);
        assert_eq!(g.stats.precise, 1);
        assert!(g.stats.external >= 1);
        assert_eq!(g.stats.approx, 0);
        assert!(g.stats.resolution_rate() > 0.99);
    }

    #[test]
    fn dumps_emit_nodes_edges_and_stats() {
        let path = "crates/core/src/mo\"d\\el\u{1}.rs";
        let g = build(&[(path, "pub fn a() { b(); }\npub fn b() {}")]);
        let dot = g.to_dot();
        assert!(dot.contains("digraph pop_call_graph"));
        assert!(dot.contains("->"));
        let json = g.to_json();
        assert!(json.contains("\"edges\":["));
        assert!(json.contains("\"resolution_rate\""));
        assert!(
            json.bytes().all(|b| b >= 0x20),
            "raw control byte in {json}"
        );
        let doc = pop_obs::json::parse(&json).expect("the dump is JSON");
        let fns = doc.get("fns").and_then(|f| f.as_array()).expect("fns");
        assert_eq!(fns.len(), 2);
        for f in fns {
            assert_eq!(f.get("file").and_then(|v| v.as_str()), Some(path));
        }
    }
}
