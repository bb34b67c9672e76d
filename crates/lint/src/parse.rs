//! The item-parsing layer on top of the lexer: function definitions,
//! impl blocks, inline modules, and `use` imports, assembled into a
//! workspace symbol table that the interprocedural passes
//! ([`crate::callgraph`], [`crate::reach`], [`crate::taint`],
//! [`crate::locks`]) resolve calls against.
//!
//! Like the lexer, the parser is total: it never panics on weird input,
//! it just produces fewer items. It tracks exactly the structure the
//! passes need — module paths, impl self-types, body token ranges, and
//! the test/`fn main` exemption — and leaves expressions flat.

use crate::lexer::{Tok, TokKind};
use std::collections::BTreeMap;
use std::ops::Range;

/// One source file, lexed once and shared by every pass.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative forward-slash path.
    pub path: String,
    /// Token stream (comments separated out).
    pub toks: Vec<Tok>,
    /// Comments, for `lint:allow` escapes.
    pub comments: Vec<crate::lexer::Comment>,
}

/// One function (free function, inherent/trait method, or nested `fn`).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Index of the containing [`SourceFile`].
    pub file: usize,
    /// Crate key: the directory under `crates/` (`"netmodel"`, …).
    pub crate_name: String,
    /// Module path within the crate (file path + inline `mod` blocks).
    pub module: Vec<String>,
    /// Self type when defined inside `impl Type` / `trait Type`.
    pub self_ty: Option<String>,
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range of the signature (from `fn` to the body brace).
    pub sig: Range<usize>,
    /// Token range of the body including both braces; empty when the
    /// function has no body (trait method declaration).
    pub body: Range<usize>,
    /// `pub` (any visibility restriction counts as pub for entry-point
    /// purposes only when unrestricted `pub`).
    pub is_pub: bool,
    /// Defined directly inside `impl Trait for Type`: callable through
    /// the trait from outside the file whatever its own visibility.
    pub trait_impl: bool,
    /// Inside `#[cfg(test)]`/`#[test]` items, `fn main`, or an exempt
    /// path — invisible to every pass.
    pub exempt: bool,
    /// The signature's return type mentions `MutexGuard`: calling this
    /// function acquires a lock that the *caller* holds.
    pub returns_guard: bool,
}

impl FnDef {
    /// Fully qualified display name, e.g. `store::format::decode_chunk`
    /// or `serve::engine::QueryEngine::set_for`.
    pub fn qualname(&self) -> String {
        let mut s = self.crate_name.clone();
        for m in &self.module {
            s.push_str("::");
            s.push_str(m);
        }
        if let Some(ty) = &self.self_ty {
            s.push_str("::");
            s.push_str(ty);
        }
        s.push_str("::");
        s.push_str(&self.name);
        s
    }
}

/// The parsed workspace: every function plus per-file import tables.
#[derive(Debug, Default)]
pub struct Workspace {
    /// All function definitions, in (file, token) order.
    pub fns: Vec<FnDef>,
    /// Per-file: imported name → full path segments (`use a::b::c` maps
    /// `c → [a, b, c]`; `use a::b as d` maps `d → [a, b]`).
    pub imports: Vec<BTreeMap<String, Vec<String>>>,
    /// Per-file: module paths glob-imported via `use a::b::*`.
    pub globs: Vec<Vec<Vec<String>>>,
}

/// Crate key from a workspace-relative path (`crates/<k>/src/…`).
pub fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    let (krate, tail) = rest.split_once('/')?;
    tail.strip_prefix("src/").map(|_| krate)
}

/// Module path of a file within its crate (`src/a/b.rs` → `[a, b]`,
/// `src/a/mod.rs` → `[a]`, `src/lib.rs` → `[]`).
pub fn file_module(path: &str) -> Vec<String> {
    let Some(rest) = path.strip_prefix("crates/") else {
        return Vec::new();
    };
    let Some((_, tail)) = rest.split_once("/src/") else {
        return Vec::new();
    };
    let mut mods: Vec<String> = tail
        .trim_end_matches(".rs")
        .split('/')
        .map(str::to_string)
        .collect();
    if mods.last().is_some_and(|m| m == "lib" || m == "mod") {
        mods.pop();
    }
    mods
}

/// Parse every file into the workspace symbol table.
pub fn parse_workspace(files: &[SourceFile]) -> Workspace {
    let mut ws = Workspace::default();
    for (idx, f) in files.iter().enumerate() {
        let mut p = ItemParser::new(idx, f);
        p.run(&mut ws);
        ws.imports.push(p.imports);
        ws.globs.push(p.globs);
    }
    ws
}

/// Keywords that can precede `(` without being a call, and can never be
/// a function name at a definition site we should record.
pub const KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "for", "loop", "return", "break", "continue", "as", "in",
    "let", "mut", "ref", "move", "fn", "impl", "trait", "struct", "enum", "union", "mod", "use",
    "pub", "where", "unsafe", "extern", "const", "static", "type", "dyn", "box", "self", "Self",
    "super", "crate", "async", "await", "true", "false",
];

struct Frame {
    kind: FrameKind,
    exempt: bool,
}

enum FrameKind {
    /// Inline `mod name { … }`.
    Mod,
    /// `impl`/`trait` block; the self type applies to contained fns,
    /// `of_trait` marks `impl Trait for Type`.
    Impl { ty: Option<String>, of_trait: bool },
    /// A function body; on close, patch the recorded body range.
    Fn(usize),
    /// Any other brace group.
    Block,
}

struct ItemParser<'f> {
    file: usize,
    crate_name: String,
    file_mods: Vec<String>,
    toks: &'f [Tok],
    i: usize,
    frames: Vec<Frame>,
    /// A `#[test]`/`#[cfg(test)]` attribute is pending for the next item.
    pending_exempt: bool,
    path_exempt: bool,
    imports: BTreeMap<String, Vec<String>>,
    globs: Vec<Vec<String>>,
}

impl<'f> ItemParser<'f> {
    fn new(file: usize, f: &'f SourceFile) -> Self {
        ItemParser {
            file,
            crate_name: crate_of(&f.path).unwrap_or("").to_string(),
            file_mods: file_module(&f.path),
            toks: &f.toks,
            i: 0,
            frames: Vec::new(),
            pending_exempt: false,
            path_exempt: crate::rules::path_exempt(&f.path),
            imports: BTreeMap::new(),
            globs: Vec::new(),
        }
    }

    fn exempt_here(&self) -> bool {
        self.path_exempt || self.frames.last().is_some_and(|f| f.exempt)
    }

    /// Current module path: file modules + inline `mod` names.
    fn module_path(&self) -> Vec<String> {
        // Inline mod names are tracked positionally alongside frames; we
        // rebuild from the `mod_names` stack maintained in `run`.
        self.file_mods.clone()
    }

    /// Self type and `impl Trait for Type`-ness of the enclosing
    /// `impl`/`trait` frame, if the current item sits directly in one.
    fn enclosing_impl(&self) -> (Option<String>, bool) {
        for fr in self.frames.iter().rev() {
            match &fr.kind {
                FrameKind::Impl { ty, of_trait } => return (ty.clone(), *of_trait),
                FrameKind::Fn(_) => break,
                _ => {}
            }
        }
        (None, false)
    }

    fn inside_fn(&self) -> bool {
        self.frames
            .iter()
            .any(|f| matches!(f.kind, FrameKind::Fn(_)))
    }

    fn run(&mut self, ws: &mut Workspace) {
        let mut inline_mods: Vec<(usize, String)> = Vec::new(); // (frame depth, name)
        while self.i < self.toks.len() {
            let t = &self.toks[self.i];
            match &t.kind {
                TokKind::Punct('#') => self.attr(),
                TokKind::Punct('{') => {
                    self.frames.push(Frame {
                        kind: FrameKind::Block,
                        exempt: self.exempt_here() || self.pending_exempt,
                    });
                    self.pending_exempt = false;
                    self.i += 1;
                }
                TokKind::Punct('}') => {
                    if let Some(fr) = self.frames.pop() {
                        match fr.kind {
                            FrameKind::Fn(def) => ws.fns[def].body.end = self.i + 1,
                            FrameKind::Mod
                                if inline_mods
                                    .last()
                                    .is_some_and(|(d, _)| *d == self.frames.len()) =>
                            {
                                inline_mods.pop();
                            }
                            _ => {}
                        }
                    }
                    self.i += 1;
                }
                TokKind::Ident(kw) if kw == "mod" => {
                    let name = self.toks.get(self.i + 1).and_then(Tok::ident);
                    let opener = self.toks.get(self.i + 2);
                    match (name, opener) {
                        (Some(n), Some(o)) if o.is_punct('{') => {
                            inline_mods.push((self.frames.len(), n.to_string()));
                            self.frames.push(Frame {
                                kind: FrameKind::Mod,
                                exempt: self.exempt_here() || self.pending_exempt,
                            });
                            self.pending_exempt = false;
                            self.i += 3;
                        }
                        _ => {
                            self.pending_exempt = false;
                            self.i += 1;
                        }
                    }
                }
                TokKind::Ident(kw) if kw == "impl" || kw == "trait" => {
                    let (j, mut ty, of_trait) = self.impl_header();
                    if kw == "trait" {
                        ty = self
                            .toks
                            .get(self.i + 1)
                            .and_then(Tok::ident)
                            .map(str::to_string);
                    }
                    if self.toks.get(j).is_some_and(|t| t.is_punct('{')) {
                        self.frames.push(Frame {
                            kind: FrameKind::Impl { ty, of_trait },
                            exempt: self.exempt_here() || self.pending_exempt,
                        });
                        self.pending_exempt = false;
                        self.i = j + 1;
                    } else {
                        self.pending_exempt = false;
                        self.i = j.max(self.i + 1);
                    }
                }
                TokKind::Ident(kw) if kw == "fn" => {
                    self.fn_item(ws, &inline_mods);
                }
                TokKind::Ident(kw) if kw == "use" && !self.inside_fn() => {
                    self.use_decl();
                }
                _ => {
                    self.i += 1;
                }
            }
        }
        // Unbalanced input: close any dangling fn bodies at EOF.
        for fr in self.frames.drain(..) {
            if let FrameKind::Fn(def) = fr.kind {
                ws.fns[def].body.end = self.toks.len();
            }
        }
    }

    /// Handle `#[…]` / `#![…]`: skip it, noting test markers.
    fn attr(&mut self) {
        let mut j = self.i + 1;
        if self.toks.get(j).is_some_and(|t| t.is_punct('!')) {
            j += 1; // inner attribute `#![…]` never exempts an item
        }
        if !self.toks.get(j).is_some_and(|t| t.is_punct('[')) {
            self.i += 1;
            return;
        }
        let mut depth = 0usize;
        let mut has_test = false;
        let inner = j == self.i + 2;
        while j < self.toks.len() {
            match &self.toks[j].kind {
                TokKind::Punct('[') => depth += 1,
                TokKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokKind::Ident(s) if s == "test" => has_test = true,
                _ => {}
            }
            j += 1;
        }
        if has_test && !inner {
            self.pending_exempt = true;
        }
        self.i = j + 1;
    }

    /// Scan an `impl`/`trait` header from its keyword to the opening
    /// brace (or `;` for `impl Trait for Type;`-like degenerate input),
    /// both outside `<…>` and `[…; N]`. Returns the index it stopped at,
    /// the self type — the last path ident of the type (after `for` when
    /// present), ignoring generics and where clauses — and whether the
    /// header is `impl Trait for Type`.
    fn impl_header(&self) -> (usize, Option<String>, bool) {
        let mut j = self.i + 1;
        let (mut angle, mut bracket) = (0i32, 0i32);
        let mut last_ident: Option<&str> = None;
        let mut of_trait = false;
        let mut in_where = false;
        while let Some(t) = self.toks.get(j) {
            match &t.kind {
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') => angle -= 1,
                TokKind::Punct('[') => bracket += 1,
                TokKind::Punct(']') => bracket -= 1,
                TokKind::Punct('{' | ';') if angle <= 0 && bracket <= 0 => break,
                TokKind::Ident(s) if angle <= 0 && !in_where => {
                    if s == "for" {
                        // `impl Trait for Type`: only the type counts.
                        last_ident = None;
                        of_trait = true;
                    } else if s == "where" {
                        in_where = true;
                    } else if !KEYWORDS.contains(&s.as_str()) {
                        last_ident = Some(s);
                    }
                }
                _ => {}
            }
            j += 1;
        }
        (j, last_ident.map(str::to_string), of_trait)
    }

    fn fn_item(&mut self, ws: &mut Workspace, inline_mods: &[(usize, String)]) {
        let fn_line = self.toks[self.i].line;
        let Some(name) = self.toks.get(self.i + 1).and_then(Tok::ident) else {
            self.i += 1;
            return;
        };
        // Visibility: look back past attributes for `pub` not followed
        // by a restriction (`pub(crate)` is not an entry-point surface).
        let mut is_pub = false;
        let mut back = self.i;
        while back > 0 {
            match self.toks[back - 1].ident() {
                Some("pub") => {
                    is_pub = true;
                    break;
                }
                Some("const" | "unsafe" | "async" | "extern") => back -= 1,
                _ => {
                    if self.toks[back - 1].is_punct(')') {
                        // `pub(crate) fn` — restricted, walk past `(…)`.
                        let mut k = back - 1;
                        let mut d = 0i32;
                        while k > 0 {
                            if self.toks[k].is_punct(')') {
                                d += 1;
                            } else if self.toks[k].is_punct('(') {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            k -= 1;
                        }
                        if k > 0 && self.toks[k - 1].is_ident("pub") {
                            break; // restricted pub: not an entry surface
                        }
                    }
                    break;
                }
            }
        }
        // Scan the signature to the body `{` or a `;` — one outside
        // `<…>` and outside an array type's `[T; N]`.
        let sig_start = self.i;
        let mut j = self.i + 2;
        let (mut angle, mut bracket) = (0i32, 0i32);
        let mut returns_guard = false;
        while j < self.toks.len() {
            match &self.toks[j].kind {
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') => angle = (angle - 1).max(0),
                TokKind::Punct('[') => bracket += 1,
                TokKind::Punct(']') => bracket -= 1,
                TokKind::Punct('{') => break,
                TokKind::Punct(';') if angle <= 0 && bracket <= 0 => break,
                TokKind::Ident(s) if s == "MutexGuard" => returns_guard = true,
                _ => {}
            }
            j += 1;
        }
        let mut module = self.module_path();
        for (_, m) in inline_mods {
            module.push(m.clone());
        }
        let exempt = self.exempt_here() || self.pending_exempt || name == "main" || {
            // Functions nested inside `fn main` inherit its exemption.
            self.enclosing_fn_is_main(ws)
        };
        self.pending_exempt = false;
        let (self_ty, trait_impl) = self.enclosing_impl();
        let def = FnDef {
            file: self.file,
            crate_name: self.crate_name.clone(),
            module,
            self_ty,
            name: name.to_string(),
            line: fn_line,
            sig: sig_start..j,
            // Starts empty at the body brace; the end is patched when the
            // frame pops (no-body trait declarations stay empty).
            body: j..j,
            is_pub,
            trait_impl,
            exempt,
            returns_guard,
        };
        let idx = ws.fns.len();
        ws.fns.push(def);
        if self.toks.get(j).is_some_and(|t| t.is_punct('{')) {
            self.frames.push(Frame {
                kind: FrameKind::Fn(idx),
                exempt,
            });
            self.i = j + 1;
        } else {
            self.i = j.max(self.i + 1);
        }
    }

    fn enclosing_fn_is_main(&self, ws: &Workspace) -> bool {
        for fr in self.frames.iter().rev() {
            if let FrameKind::Fn(def) = fr.kind {
                return ws.fns[def].name == "main" || ws.fns[def].exempt;
            }
        }
        false
    }

    /// Parse `use path::to::{a, b as c, d::*};` into the import tables.
    fn use_decl(&mut self) {
        let mut j = self.i + 1;
        // Skip a leading visibility: `pub use …`, handled by caller order
        // (the `pub` token was consumed as a plain ident earlier).
        let mut prefix: Vec<String> = Vec::new();
        self.use_tree(&mut j, &mut prefix);
        while j < self.toks.len() && !self.toks[j].is_punct(';') {
            j += 1;
        }
        self.i = j + 1;
    }

    fn use_tree(&mut self, j: &mut usize, prefix: &mut Vec<String>) {
        let depth_at_entry = prefix.len();
        loop {
            match self.toks.get(*j).map(|t| &t.kind) {
                Some(TokKind::Ident(s)) => {
                    let seg = s.clone();
                    *j += 1;
                    // `seg as alias`
                    if self.toks.get(*j).is_some_and(|t| t.is_ident("as")) {
                        if let Some(alias) = self.toks.get(*j + 1).and_then(Tok::ident) {
                            let mut full = prefix.clone();
                            full.push(seg);
                            self.imports.insert(alias.to_string(), full);
                            *j += 2;
                        } else {
                            *j += 1;
                        }
                        break;
                    }
                    if self.toks.get(*j).is_some_and(|t| t.is_punct(':'))
                        && self.toks.get(*j + 1).is_some_and(|t| t.is_punct(':'))
                    {
                        prefix.push(seg);
                        *j += 2;
                        continue;
                    }
                    // Leaf import.
                    let mut full = prefix.clone();
                    full.push(seg.clone());
                    self.imports.insert(seg, full);
                    break;
                }
                Some(TokKind::Punct('{')) => {
                    *j += 1;
                    loop {
                        let before = *j;
                        self.use_tree(j, prefix);
                        if self.toks.get(*j).is_some_and(|t| t.is_punct(',')) {
                            *j += 1;
                            continue;
                        }
                        if self.toks.get(*j).is_some_and(|t| t.is_punct('}')) {
                            *j += 1;
                            break;
                        }
                        if *j == before {
                            *j += 1; // defensive progress on weird input
                        }
                        if *j >= self.toks.len() {
                            break;
                        }
                    }
                    break;
                }
                Some(TokKind::Punct('*')) => {
                    self.globs.push(prefix.clone());
                    *j += 1;
                    break;
                }
                _ => break,
            }
        }
        prefix.truncate(depth_at_entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_one(path: &str, src: &str) -> (Workspace, Vec<SourceFile>) {
        let (toks, comments) = lex(src);
        let files = vec![SourceFile {
            path: path.to_string(),
            toks,
            comments,
        }];
        let ws = parse_workspace(&files);
        (ws, files)
    }

    #[test]
    fn fn_defs_with_modules_and_impls() {
        let src = r#"
            pub fn top() {}
            mod inner {
                impl Widget {
                    pub fn poke(&self) { helper(); }
                }
                fn helper() {}
            }
        "#;
        let (ws, _) = parse_one("crates/demo/src/lib.rs", src);
        let names: Vec<String> = ws.fns.iter().map(FnDef::qualname).collect();
        assert_eq!(
            names,
            [
                "demo::top",
                "demo::inner::Widget::poke",
                "demo::inner::helper"
            ]
        );
        assert!(ws.fns[0].is_pub && ws.fns[1].is_pub && !ws.fns[2].is_pub);
    }

    #[test]
    fn file_module_paths() {
        assert!(file_module("crates/x/src/lib.rs").is_empty());
        assert_eq!(file_module("crates/x/src/a.rs"), ["a"]);
        assert_eq!(file_module("crates/x/src/a/mod.rs"), ["a"]);
        assert_eq!(file_module("crates/x/src/a/b.rs"), ["a", "b"]);
    }

    #[test]
    fn test_items_and_main_are_exempt() {
        let src = r#"
            fn lib_code() {}
            fn main() { fn nested() {} }
            #[cfg(test)]
            mod tests {
                fn in_tests() {}
            }
            #[test]
            fn a_test() {}
        "#;
        let (ws, _) = parse_one("crates/demo/src/lib.rs", src);
        let by_name = |n: &str| ws.fns.iter().find(|f| f.name == n).unwrap();
        assert!(!by_name("lib_code").exempt);
        assert!(by_name("main").exempt);
        assert!(by_name("nested").exempt);
        assert!(by_name("in_tests").exempt);
        assert!(by_name("a_test").exempt);
    }

    #[test]
    fn impl_trait_for_type_records_the_type() {
        let src = r#"
            impl fmt::Display for Report { fn fmt(&self) {} }
            impl<T: Clone> Holder<T> { fn get_inner(&self) {} }
            trait Probe { fn fire(&self) { default_body(); } }
        "#;
        let (ws, _) = parse_one("crates/demo/src/lib.rs", src);
        let tys: Vec<(Option<String>, String)> = ws
            .fns
            .iter()
            .map(|f| (f.self_ty.clone(), f.name.clone()))
            .collect();
        assert_eq!(
            tys,
            [
                (Some("Report".into()), "fmt".into()),
                (Some("Holder".into()), "get_inner".into()),
                (Some("Probe".into()), "fire".into()),
            ]
        );
    }

    #[test]
    fn use_imports_and_globs() {
        let src = r#"
            use originscan_store::{ScanSet, store::StoreReader as Reader};
            use originscan_core::report::*;
            fn f() {}
        "#;
        let (ws, _) = parse_one("crates/demo/src/lib.rs", src);
        assert_eq!(
            ws.imports[0].get("ScanSet").unwrap(),
            &vec!["originscan_store".to_string(), "ScanSet".to_string()]
        );
        assert_eq!(
            ws.imports[0].get("Reader").unwrap(),
            &vec![
                "originscan_store".to_string(),
                "store".to_string(),
                "StoreReader".to_string()
            ]
        );
        assert_eq!(
            ws.globs[0],
            vec![vec!["originscan_core".to_string(), "report".to_string()]]
        );
    }

    #[test]
    fn body_ranges_cover_braces_and_nested_fns() {
        let src = "fn outer() { inner_call(); fn nested() { deep(); } after(); }";
        let (ws, files) = parse_one("crates/demo/src/lib.rs", src);
        let outer = &ws.fns[0];
        let nested = &ws.fns[1];
        assert!(outer.body.start < nested.body.start);
        assert!(nested.body.end < outer.body.end);
        assert!(files[0].toks[outer.body.start].is_punct('{'));
        assert!(files[0].toks[outer.body.end - 1].is_punct('}'));
    }

    #[test]
    fn array_types_in_a_signature_do_not_end_it() {
        // The `;` of `[u64; 4]` / `[u8; 2]` is not the `;` of a bodiless
        // declaration: the body range must still cover the braces.
        let src =
            "pub fn set(words: &mut [u64; 4], i: usize) -> [u8; 2] { words[i] = 1; [0, 0] }\n\
                   impl Codec for [u8; 4] { fn emit(&self) -> [u8; 4] { *self } }\n\
                   trait Decl { fn no_body(&self) -> [u8; 2]; }";
        let (ws, files) = parse_one("crates/demo/src/lib.rs", src);
        let toks = &files[0].toks;
        for name in ["set", "emit"] {
            let f = ws.fns.iter().find(|f| f.name == name).unwrap();
            assert!(toks[f.body.start].is_punct('{'), "{name}");
            assert!(toks[f.body.end - 1].is_punct('}'), "{name}");
            assert!(f.body.len() > 2, "{name}");
        }
        let emit = ws.fns.iter().find(|f| f.name == "emit").unwrap();
        assert!(emit.trait_impl, "`impl Codec for [u8; 4]` is a trait impl");
        assert!(ws
            .fns
            .iter()
            .find(|f| f.name == "no_body")
            .unwrap()
            .body
            .is_empty());
    }

    #[test]
    fn trait_impl_methods_are_marked() {
        let src = r#"
            impl Iterator for It { fn next(&mut self) { fn nested() {} } }
            impl It { fn inherent(&self) {} }
            impl<F: for<'a> Fn(&'a u8)> Holder<F> { fn hrtb(&self) {} }
            trait Probe { fn fire(&self) {} }
        "#;
        let (ws, _) = parse_one("crates/demo/src/lib.rs", src);
        let marked: Vec<(&str, bool)> = ws
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.trait_impl))
            .collect();
        assert_eq!(
            marked,
            [
                ("next", true),
                ("nested", false),
                ("inherent", false),
                ("hrtb", false),
                ("fire", false),
            ]
        );
    }

    #[test]
    fn guard_returning_signature_detected() {
        let src = "fn lock_it(&self) -> Result<MutexGuard<'_, T>, E> { body() }";
        let (ws, _) = parse_one("crates/demo/src/lib.rs", src);
        assert!(ws.fns[0].returns_guard);
    }
}
