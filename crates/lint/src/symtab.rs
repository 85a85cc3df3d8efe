//! The workspace symbol table: every parsed fn, type and `use` alias,
//! indexed for the call resolution in [`crate::graph`].
//!
//! Resolution is heuristic but *directionally sound* for the reachability
//! rules: when a receiver type cannot be inferred, a method call
//! over-approximates to every workspace method of that name (extra edges
//! can only create extra findings, never hide one); only calls proven to
//! target non-workspace code (std paths, receivers typed to foreign
//! types, constructors) resolve to nothing.

use crate::context::FileCx;
use crate::parser::FnItem;
use std::collections::{BTreeMap, BTreeSet};

/// Index of one fn in [`SymTab::fns`] — the node id of the call graph.
pub type FnId = usize;

/// One fn with its defining file attached.
#[derive(Debug, Clone)]
pub struct FnDef {
    pub item: FnItem,
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// Module path derived from the file location
    /// (`crates/core/src/dataset.rs` → `["pop_core", "dataset"]`).
    pub module: Vec<String>,
    /// Index of the file in the scanned file list.
    pub file_idx: usize,
}

impl FnDef {
    /// Display name for findings and chains: `Type::name` or `name`.
    pub fn display(&self) -> String {
        match &self.item.self_ty {
            Some(t) => format!("{t}::{}", self.item.name),
            None => match &self.item.trait_ty {
                Some(t) => format!("<{t}>::{}", self.item.name),
                None => self.item.name.clone(),
            },
        }
    }

    /// Fully-qualified name for the graph dump.
    pub fn qualified(&self) -> String {
        let mut q = self.module.join("::");
        if !q.is_empty() {
            q.push_str("::");
        }
        q.push_str(&self.display());
        q
    }
}

/// The whole-workspace symbol table.
#[derive(Debug, Default)]
pub struct SymTab {
    pub fns: Vec<FnDef>,
    /// Workspace type names (structs, enums, unions).
    pub types: BTreeSet<String>,
    pub traits: BTreeSet<String>,
    /// `(type, field)` → head type name.
    pub fields: BTreeMap<(String, String), String>,
    /// Free fns by name.
    free_by_name: BTreeMap<String, Vec<FnId>>,
    /// Inherent/trait-impl methods by `(self type, name)`.
    methods_by_type: BTreeMap<(String, String), Vec<FnId>>,
    /// All methods (inherent, trait impls and trait defaults) by name.
    methods_by_name: BTreeMap<String, Vec<FnId>>,
    /// Trait methods by `(trait, name)` — impls and defaults.
    trait_methods: BTreeMap<(String, String), Vec<FnId>>,
}

/// Derives a module path from a workspace-relative file path. `mod.rs` and
/// `lib.rs`/`main.rs` collapse into their directory; crate directories map
/// to their lib target name (`crates/core` → `pop_core`).
pub fn module_path(rel_path: &str) -> Vec<String> {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let mut out: Vec<String> = Vec::new();
    let rest: &[&str] = if parts.len() >= 2 && parts[0] == "crates" {
        out.push(format!("pop_{}", parts[1].replace('-', "_")));
        &parts[2..]
    } else {
        out.push("painting_on_placement".to_string());
        &parts[..]
    };
    for (i, seg) in rest.iter().enumerate() {
        let last = i + 1 == rest.len();
        if !last {
            if *seg != "src" {
                out.push(seg.to_string());
            }
            continue;
        }
        let stem = seg.strip_suffix(".rs").unwrap_or(seg);
        if !matches!(stem, "lib" | "main" | "mod") {
            out.push(stem.to_string());
        }
    }
    out
}

impl SymTab {
    /// Builds the table from the scanned files' parsed items.
    pub fn build(cxs: &[FileCx]) -> Self {
        let mut tab = SymTab::default();
        for (file_idx, cx) in cxs.iter().enumerate() {
            let (rel_path, items) = (&cx.file.rel_path, &cx.items);
            let module = module_path(rel_path);
            for t in &items.types {
                tab.types.insert(t.name.clone());
                for (fname, fty) in &t.fields {
                    if let Some(ty) = fty {
                        tab.fields
                            .insert((t.name.clone(), fname.clone()), ty.clone());
                    }
                }
            }
            for tr in &items.traits {
                tab.traits.insert(tr.clone());
            }
            for f in &items.fns {
                if f.is_test {
                    continue;
                }
                let id = tab.fns.len();
                tab.fns.push(FnDef {
                    item: f.clone(),
                    file: rel_path.clone(),
                    module: module.clone(),
                    file_idx,
                });
                let f = &tab.fns[id].item;
                // Bodyless trait method declarations are kept as nodes but
                // not indexed: dispatch resolves to impls (and default
                // bodies), never to a signature.
                if f.self_ty.is_none() && f.trait_ty.is_some() && f.body.is_none() {
                    continue;
                }
                match (&f.self_ty, &f.trait_ty) {
                    (Some(ty), _) => {
                        tab.methods_by_type
                            .entry((ty.clone(), f.name.clone()))
                            .or_default()
                            .push(id);
                        tab.methods_by_name
                            .entry(f.name.clone())
                            .or_default()
                            .push(id);
                    }
                    (None, Some(_)) => {
                        // Trait default method.
                        tab.methods_by_name
                            .entry(f.name.clone())
                            .or_default()
                            .push(id);
                    }
                    (None, None) => {
                        tab.free_by_name.entry(f.name.clone()).or_default().push(id);
                    }
                }
                if let Some(tr) = &tab.fns[id].item.trait_ty {
                    tab.trait_methods
                        .entry((tr.clone(), tab.fns[id].item.name.clone()))
                        .or_default()
                        .push(id);
                }
            }
        }
        tab
    }

    /// Whether `name` is a workspace type.
    pub fn is_type(&self, name: &str) -> bool {
        self.types.contains(name)
    }

    pub fn is_trait(&self, name: &str) -> bool {
        self.traits.contains(name)
    }

    /// Head type of `ty.field`, if known.
    pub fn field_type(&self, ty: &str, field: &str) -> Option<&str> {
        self.fields
            .get(&(ty.to_string(), field.to_string()))
            .map(String::as_str)
    }

    /// Methods named `name` on workspace type `ty` (inherent or trait
    /// impls); falls back to trait defaults of that name when the type
    /// defines none.
    pub fn methods_on(&self, ty: &str, name: &str) -> Vec<FnId> {
        if let Some(ids) = self
            .methods_by_type
            .get(&(ty.to_string(), name.to_string()))
        {
            return ids.clone();
        }
        // The type may get the method from a trait's default body.
        self.trait_defaults(name)
    }

    /// Trait default-body fns named `name` (self_ty None, trait_ty Some).
    pub fn trait_defaults(&self, name: &str) -> Vec<FnId> {
        self.methods_by_name
            .get(name)
            .map(|ids| {
                ids.iter()
                    .copied()
                    .filter(|&id| self.fns[id].item.self_ty.is_none())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Every workspace method named `name` — the over-approximation set
    /// for unknown receivers.
    pub fn methods_named(&self, name: &str) -> Vec<FnId> {
        self.methods_by_name.get(name).cloned().unwrap_or_default()
    }

    /// Implementations (and defaults) of `trait::name`.
    pub fn trait_impls(&self, tr: &str, name: &str) -> Vec<FnId> {
        self.trait_methods
            .get(&(tr.to_string(), name.to_string()))
            .cloned()
            .unwrap_or_default()
    }

    /// Free fns named `name`, preferring same-file then same-crate
    /// candidates when several crates define the name.
    pub fn free_fns(&self, name: &str, from_file: &str) -> Vec<FnId> {
        let Some(ids) = self.free_by_name.get(name) else {
            return Vec::new();
        };
        let same_file: Vec<FnId> = ids
            .iter()
            .copied()
            .filter(|&id| self.fns[id].file == from_file)
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        let crate_of = |p: &str| module_path(p).first().cloned().unwrap_or_default();
        let from_crate = crate_of(from_file);
        let same_crate: Vec<FnId> = ids
            .iter()
            .copied()
            .filter(|&id| self.fns[id].module.first() == Some(&from_crate))
            .collect();
        if !same_crate.is_empty() {
            return same_crate;
        }
        ids.clone()
    }

    /// Free fns named `name` whose module path ends with `qualifier`
    /// (already alias-expanded); empty qualifier matches all.
    pub fn free_fns_in(&self, name: &str, qualifier: &[String]) -> Vec<FnId> {
        let Some(ids) = self.free_by_name.get(name) else {
            return Vec::new();
        };
        if qualifier.is_empty() {
            return ids.clone();
        }
        let matched: Vec<FnId> = ids
            .iter()
            .copied()
            .filter(|&id| self.fns[id].module.ends_with(qualifier))
            .collect();
        if matched.is_empty() {
            ids.clone()
        } else {
            matched
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SourceFile;

    fn build(files: &[(&str, &str)]) -> SymTab {
        let sources: Vec<SourceFile> = files.iter().map(|(p, s)| SourceFile::new(*p, *s)).collect();
        SymTab::build(&sources.iter().map(FileCx::new).collect::<Vec<_>>())
    }

    #[test]
    fn module_paths_follow_file_layout() {
        assert_eq!(module_path("crates/core/src/lib.rs"), vec!["pop_core"]);
        assert_eq!(
            module_path("crates/core/src/dataset.rs"),
            vec!["pop_core", "dataset"]
        );
        assert_eq!(
            module_path("crates/lint/src/rules/mod.rs"),
            vec!["pop_lint", "rules"]
        );
        assert_eq!(module_path("src/lib.rs"), vec!["painting_on_placement"]);
        assert_eq!(
            module_path("examples/generate_corpus.rs"),
            vec!["painting_on_placement", "examples", "generate_corpus"]
        );
    }

    #[test]
    fn methods_resolve_by_type_and_fall_back_to_trait_defaults() {
        let tab = build(&[(
            "crates/core/src/forecaster.rs",
            "pub trait Forecaster {\n  fn forecast(&self) -> Tensor;\n  fn forecast_image(&self) -> Image { decode(self.forecast()) }\n}\npub struct Shared;\nimpl Forecaster for Shared {\n  fn forecast(&self) -> Tensor { paint() }\n}",
        )]);
        let on_shared = tab.methods_on("Shared", "forecast");
        assert_eq!(on_shared.len(), 1);
        assert_eq!(tab.fns[on_shared[0]].display(), "Shared::forecast");
        // No inherent `forecast_image` on Shared → the trait default.
        let default = tab.methods_on("Shared", "forecast_image");
        assert_eq!(default.len(), 1);
        assert_eq!(
            tab.fns[default[0]].display(),
            "<Forecaster>::forecast_image"
        );
        // Trait-qualified lookup sees the impl.
        assert_eq!(tab.trait_impls("Forecaster", "forecast").len(), 1);
    }

    #[test]
    fn free_fns_prefer_same_file_then_same_crate() {
        let tab = build(&[
            (
                "crates/a/src/lib.rs",
                "pub fn helper() {}\nfn caller() { helper(); }",
            ),
            ("crates/b/src/lib.rs", "pub fn helper() {}"),
        ]);
        let from_a = tab.free_fns("helper", "crates/a/src/lib.rs");
        assert_eq!(from_a.len(), 1);
        assert_eq!(tab.fns[from_a[0]].file, "crates/a/src/lib.rs");
        let from_c = tab.free_fns("helper", "crates/c/src/lib.rs");
        assert_eq!(from_c.len(), 2, "no preference match → all candidates");
    }

    #[test]
    fn qualified_free_fns_filter_by_module_suffix() {
        let tab = build(&[
            ("crates/core/src/model_io.rs", "pub fn load_checkpoint() {}"),
            ("crates/eval/src/io.rs", "pub fn load_checkpoint() {}"),
        ]);
        let q = vec!["pop_core".to_string(), "model_io".to_string()];
        let ids = tab.free_fns_in("load_checkpoint", &q);
        assert_eq!(ids.len(), 1);
        assert_eq!(tab.fns[ids[0]].file, "crates/core/src/model_io.rs");
    }

    #[test]
    fn test_fns_are_not_symbols() {
        let tab = build(&[(
            "crates/a/src/lib.rs",
            "#[test]\nfn unit() {}\npub fn live() {}",
        )]);
        assert_eq!(tab.fns.len(), 1);
        assert_eq!(tab.fns[0].item.name, "live");
    }
}
