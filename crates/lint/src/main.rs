//! `originscan-lint` — offline determinism & panic-safety analyzer.
//!
//! ```text
//! originscan-lint [ROOT]             lint the workspace rooted at ROOT (default .)
//! originscan-lint --list-rules       print the rule catalogue and exit
//! ```
//!
//! Every finding fails the run; a site that is accepted carries an
//! audited `lint:allow(rule-id) reason=` comment beside the code.
//!
//! Exit codes: 0 clean, 1 violations, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut list_rules = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--list-rules" => list_rules = true,
            "--help" | "-h" => {
                println!(
                    "originscan-lint [ROOT]             lint the workspace rooted at ROOT (default .)\n\
                     originscan-lint --list-rules       print the rule catalogue and exit"
                );
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("originscan-lint: unknown flag `{flag}` (try --help)");
                return ExitCode::from(2);
            }
            path => root = PathBuf::from(path),
        }
    }

    if list_rules {
        for r in originscan_lint::RULES {
            println!("{:<18} {}", r.id, r.summary);
        }
        return ExitCode::SUCCESS;
    }

    // A typo'd root would otherwise walk zero files and report "clean".
    if !root.join("crates").is_dir() {
        eprintln!(
            "originscan-lint: {} has no crates/ directory — not a workspace root",
            root.display()
        );
        return ExitCode::from(2);
    }

    let violations = match originscan_lint::check_workspace(&root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("originscan-lint: I/O error under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    for v in &violations {
        println!("{v}");
    }
    if violations.is_empty() {
        println!(
            "originscan-lint: clean ({} rules enforced)",
            originscan_lint::RULES.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("originscan-lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}
