//! Cross-file registry rules: checks that only make sense over the
//! workspace tree rather than a single token stream.
//!
//! * `reg-policy-mod` — every `crates/netmodel/src/policy/*.rs` module
//!   must be declared in `policy/mod.rs`. An orphaned policy file
//!   compiles nowhere, so its mechanism silently drops out of the
//!   simulated Internet.

use crate::lexer::lex;
use crate::Violation;
use std::io;
use std::path::Path;

/// Run every registry rule against the workspace rooted at `root`.
/// Directories that do not exist (e.g. in fixture trees) simply
/// contribute no findings for their rule.
pub fn check_registry(root: &Path) -> io::Result<Vec<Violation>> {
    let mut out = Vec::new();
    check_policy_mods(root, &mut out)?;
    Ok(out)
}

fn sorted_rs_stems(dir: &Path) -> io::Result<Vec<String>> {
    let mut stems = Vec::new();
    if !dir.is_dir() {
        return Ok(stems);
    }
    for entry in std::fs::read_dir(dir)? {
        let p = entry?.path();
        if p.extension().is_some_and(|e| e == "rs") {
            if let Some(stem) = p.file_stem().and_then(|s| s.to_str()) {
                stems.push(stem.to_string());
            }
        }
    }
    stems.sort();
    Ok(stems)
}

fn check_policy_mods(root: &Path, out: &mut Vec<Violation>) -> io::Result<()> {
    let policy_dir = root.join("crates/netmodel/src/policy");
    let mod_rs = policy_dir.join("mod.rs");
    if !mod_rs.is_file() {
        return Ok(());
    }
    let src = std::fs::read_to_string(&mod_rs)?;
    let (toks, _) = lex(&src);
    for stem in sorted_rs_stems(&policy_dir)? {
        if stem == "mod" {
            continue;
        }
        let declared = toks
            .windows(2)
            .any(|w| w[0].is_ident("mod") && w[1].is_ident(&stem));
        if !declared {
            out.push(Violation {
                file: format!("crates/netmodel/src/policy/{stem}.rs"),
                line: 1,
                rule: "reg-policy-mod",
                msg: format!("policy module `{stem}` is not declared in policy/mod.rs"),
                chain: Vec::new(),
            });
        }
    }
    Ok(())
}
