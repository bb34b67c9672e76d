//! Reproduce the paper's tables and figures.
//!
//! ```sh
//! cargo bench -p originscan-bench --bench artifacts                  # all, in paper order
//! cargo bench -p originscan-bench --bench artifacts -- fig07 tab04   # every id an argument prefixes
//! ```
//!
//! `ORIGINSCAN_SCALE` (`tiny`, `small` (default), `medium`, `full`) is
//! the only setting. Stdout is the artifacts; progress goes to stderr.

use originscan_bench::artifacts::{Study, ARTIFACTS};
use originscan_bench::{bench_world, emit_artifact, Scale};

fn usage(problem: &str) -> ! {
    eprintln!("artifacts: {problem}");
    std::process::exit(2);
}

fn main() {
    let scale = match std::env::var("ORIGINSCAN_SCALE") {
        Ok(name) => name.parse().unwrap_or_else(|e: String| usage(&e)),
        Err(std::env::VarError::NotPresent) => Scale::Small,
        Err(e) => usage(&format!("ORIGINSCAN_SCALE: {e}")),
    };
    // Cargo appends `--bench`; no `--` argument is an id.
    let wanted: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .collect();
    if let Some(w) = wanted
        .iter()
        .find(|w| !ARTIFACTS.iter().any(|a| a.id.starts_with(w.as_str())))
    {
        let ids: Vec<&str> = ARTIFACTS.iter().map(|a| a.id).collect();
        usage(&format!(
            "no artifact id starts with `{w}`; ids: {}",
            ids.join(" ")
        ));
    }
    let world = bench_world(scale);
    let study = Study::new(&world);
    for a in ARTIFACTS {
        if wanted.is_empty() || wanted.iter().any(|w| a.id.starts_with(w.as_str())) {
            emit_artifact(&a.text(&study));
        }
    }
}
