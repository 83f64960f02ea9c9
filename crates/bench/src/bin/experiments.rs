//! Regenerates the experiment tables of EXPERIMENTS.md.
//!
//! ```text
//! experiments                  # run everything, print the tables
//! experiments e2 e6            # run selected experiments
//! experiments --out docs       # run everything, write every artifact to
//!                              # docs/, read them back, check the gates
//! experiments --out DIR e14    # the same for selected experiments
//! ```
//!
//! `--out DIR` writes `experiments-run.txt` and `experiments-run.json` for
//! the whole run plus each experiment's own artifacts (`BENCH_E14.json`,
//! `e16-flame.txt`, ...), then checks them against `jmp_bench::gates` and
//! exits 1 naming each failed gate.

use std::path::PathBuf;

fn usage(problem: &str) -> ! {
    eprintln!(
        "{problem}\nusage: experiments [--out DIR] [ID...]; known ids: {}",
        jmp_bench::EXPERIMENT_IDS.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut out: Option<PathBuf> = None;
    if let Some(pos) = args.iter().position(|a| a == "--out") {
        args.remove(pos);
        if pos == args.len() {
            usage("--out needs a directory");
        }
        out = Some(args.remove(pos).into());
    }
    let ids: Vec<String> = if args.is_empty() {
        jmp_bench::EXPERIMENT_IDS
            .iter()
            .map(|s| s.to_string())
            .collect()
    } else {
        args
    };
    if let Some(id) = ids
        .iter()
        .find(|id| !jmp_bench::EXPERIMENT_IDS.contains(&id.to_ascii_lowercase().as_str()))
    {
        usage(&format!("unknown experiment or option {id:?}"));
    }

    let mut tables = Vec::new();
    let mut artifacts = Vec::new();
    for id in &ids {
        let report = jmp_bench::run_experiment(id).expect("id was validated");
        for table in &report.tables {
            println!("{table}");
        }
        tables.extend(report.tables);
        artifacts.extend(report.artifacts);
    }
    let Some(dir) = out else {
        return;
    };
    artifacts.extend(jmp_bench::run_artifacts(tables));

    std::fs::create_dir_all(&dir).expect("create the output directory");
    let mut files = Vec::new();
    for artifact in &artifacts {
        let path = dir.join(artifact.name);
        std::fs::write(&path, &artifact.contents).expect("write artifact");
        let read = std::fs::read_to_string(&path).expect("read artifact back");
        eprintln!("wrote {}", path.display());
        files.push((artifact.name, read));
    }
    let (checked, failures) = jmp_bench::gates::check(&files);
    for failure in &failures {
        eprintln!("gate FAILED: {failure}");
    }
    eprintln!(
        "gates: {checked} checked, {} failed, over {} artifacts",
        failures.len(),
        files.len()
    );
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
