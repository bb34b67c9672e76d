//! `originscan-lint` — offline determinism & panic-safety analyzer.
//!
//! ```text
//! originscan-lint [ROOT]             lint the workspace rooted at ROOT (default .)
//! originscan-lint --json             emit findings as a JSON array on stdout
//! originscan-lint --baseline FILE    diff against FILE instead of ROOT/lint-baseline.txt
//! originscan-lint --no-baseline      report every finding, baseline ignored
//! originscan-lint --write-baseline   accept all current findings into the baseline
//! originscan-lint --list-rules       print the rule catalogue and exit
//! ```
//!
//! By default findings are diffed against `ROOT/lint-baseline.txt` (when
//! present): baselined findings are reported but do not fail the run.
//! A stale baseline entry — one whose finding no longer fires — does:
//! fingerprints are `fn/what#n`, so a dead line would silently re-admit
//! the next such site written in that function.
//!
//! Exit codes: 0 clean (or all findings baselined), 1 new violations or
//! stale baseline entries, 2 usage or I/O error.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

use originscan_lint::report::{to_json, Baseline};

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut list_rules = false;
    let mut json = false;
    let mut no_baseline = false;
    let mut write_baseline = false;
    let mut baseline_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list-rules" => list_rules = true,
            "--json" => json = true,
            "--no-baseline" => no_baseline = true,
            "--write-baseline" => write_baseline = true,
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("originscan-lint: --baseline needs a file argument");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "originscan-lint [ROOT]             lint the workspace rooted at ROOT (default .)\n\
                     originscan-lint --json             emit findings as a JSON array on stdout\n\
                     originscan-lint --baseline FILE    diff against FILE instead of ROOT/lint-baseline.txt\n\
                     originscan-lint --no-baseline      report every finding, baseline ignored\n\
                     originscan-lint --write-baseline   accept all current findings into the baseline\n\
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

    let baseline_file = baseline_path.unwrap_or_else(|| root.join("lint-baseline.txt"));
    if write_baseline {
        let text = Baseline::render(&violations);
        if let Err(e) = std::fs::write(&baseline_file, text) {
            eprintln!(
                "originscan-lint: cannot write {}: {e}",
                baseline_file.display()
            );
            return ExitCode::from(2);
        }
        println!(
            "originscan-lint: wrote {} finding(s) to {}",
            violations.len(),
            baseline_file.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = if no_baseline {
        Baseline::default()
    } else {
        match Baseline::load(&baseline_file) {
            Ok(b) => b,
            Err(e) => {
                eprintln!(
                    "originscan-lint: cannot read {}: {e}",
                    baseline_file.display()
                );
                return ExitCode::from(2);
            }
        }
    };
    let (new_fps, stale) = baseline.diff(&violations);

    if json {
        println!("{}", to_json(&violations, &new_fps));
    } else {
        for v in &violations {
            let mark = if new_fps.contains(&v.fingerprint) {
                ""
            } else {
                " [baselined]"
            };
            println!("{v}{mark}");
        }
        report_summary(violations.len(), &new_fps, &stale);
    }
    for fp in &stale {
        eprintln!("originscan-lint: stale baseline entry (no longer fires, delete it): {fp}");
    }
    if new_fps.is_empty() && stale.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn report_summary(total: usize, new_fps: &BTreeSet<String>, stale: &BTreeSet<String>) {
    if total == 0 && stale.is_empty() {
        println!(
            "originscan-lint: clean ({} rules enforced)",
            originscan_lint::RULES.len()
        );
    } else {
        println!(
            "originscan-lint: {} finding(s), {} new, {} baselined, {} stale baseline entr{}",
            total,
            new_fps.len(),
            total - new_fps.len(),
            stale.len(),
            if stale.len() == 1 { "y" } else { "ies" },
        );
    }
}
