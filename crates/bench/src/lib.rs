//! # jmp-bench
//!
//! The experiment harness: every table/figure-equivalent in EXPERIMENTS.md
//! is regenerated by a function here, and the `experiments` binary prints
//! them, writes their artifacts, and checks those against [`gates`].
//! Every timing goes through the estimators in [`harness`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exp_applet;
pub mod exp_control;
pub mod exp_dispatch;
pub mod exp_fastpath;
pub mod exp_infer;
pub mod exp_interp;
pub mod exp_lifecycle;
pub mod exp_memgov;
pub mod exp_obs;
pub mod exp_perf;
pub mod exp_profile;
pub mod exp_quota;
pub mod exp_security;
pub mod exp_shell;
pub mod exp_system;
pub mod exp_throughput;
pub mod exp_trace;
pub mod gates;
pub mod harness;
pub mod table;

use table::Table;

/// All experiment ids, in report order.
pub const EXPERIMENT_IDS: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5a", "e5b", "e5c", "e5d", "e5e", "e6", "e7", "e8", "e9", "e10",
    "e11", "e12", "e13", "e14", "e15", "e16", "e17", "e18", "e19", "e20",
];

/// A file an experiment exports, named as it is under `docs/`.
#[derive(Debug)]
pub struct Artifact {
    /// File name, e.g. `BENCH_E14.json`.
    pub name: &'static str,
    /// File contents.
    pub contents: String,
}

impl Artifact {
    /// Pretty-printed JSON of `value`.
    pub fn json(name: &'static str, value: &impl serde::Serialize) -> Artifact {
        let contents = serde_json::to_string_pretty(value).expect("artifact serializes");
        Artifact { name, contents }
    }
}

/// What one experiment produced: the tables it prints and the artifacts
/// `experiments --out DIR` writes.
#[derive(Debug)]
pub struct Report {
    /// The printed tables.
    pub tables: Vec<Table>,
    /// The exported files (none for most experiments).
    pub artifacts: Vec<Artifact>,
}

impl Report {
    /// `tables` plus their `BENCH_E*.json` artifact `name`: the scalar
    /// summary the gates read, and the tables it came from.
    pub fn bench(
        name: &'static str,
        summary: &impl serde::Serialize,
        tables: Vec<Table>,
    ) -> Report {
        #[derive(serde::Serialize)]
        struct Bench {
            summary: serde_json::Value,
            tables: Vec<Table>,
        }
        let bench = Bench {
            summary: summary.serialize_value(),
            tables: tables.clone(),
        };
        Report {
            artifacts: vec![Artifact::json(name, &bench)],
            tables,
        }
    }

    /// The contents of artifact `name`; panics if the experiment did not
    /// export it.
    pub fn artifact(&self, name: &str) -> &str {
        self.artifacts
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.contents.as_str())
            .unwrap_or_else(|| panic!("no artifact {name}"))
    }

    /// The `summary` object of the `BENCH_E*.json` artifact `name`, read
    /// back as `S`.
    pub fn summary<S: serde::Deserialize>(&self, name: &str) -> S {
        let file: serde_json::Value =
            serde_json::from_str(self.artifact(name)).expect("artifact is JSON");
        let summary = file.get("summary").expect("artifact has a summary");
        S::deserialize_value(summary).expect("summary deserializes")
    }
}

impl From<Vec<Table>> for Report {
    fn from(tables: Vec<Table>) -> Report {
        Report {
            tables,
            artifacts: Vec::new(),
        }
    }
}

/// Runs one experiment by id (case-insensitive). Returns `None` for unknown
/// ids.
pub fn run_experiment(id: &str) -> Option<Report> {
    let report = match id.to_ascii_lowercase().as_str() {
        "e1" => exp_lifecycle::e1_lifetime().into(),
        "e2" => exp_dispatch::e2_dispatch().into(),
        "e3" => exp_lifecycle::e3_containment().into(),
        "e4" => exp_system::e4_system_reload().into(),
        "e5a" => exp_perf::e5a_launch().into(),
        "e5b" => exp_perf::e5b_ipc().into(),
        "e5c" => exp_perf::e5c_context_switch().into(),
        "e5d" => exp_perf::e5d_memory().into(),
        "e5e" => exp_perf::e5e_responsiveness().into(),
        "e6" => exp_security::e6_user_policy().into(),
        "e7" => exp_security::e7_security_managers().into(),
        "e8" => exp_applet::e8_applet_sandbox().into(),
        "e9" => exp_shell::e9_shell_session().into(),
        "e10" => exp_system::e10_stream_ownership().into(),
        "e11" => exp_obs::e11_observability().into(),
        "e12" => exp_trace::e12_trace_overhead(),
        "e13" => exp_fastpath::e13_access_fastpath(),
        "e14" => exp_throughput::e14_data_plane(),
        "e15" => exp_quota::e15_quota_storm(),
        "e16" => exp_profile::e16_profile(),
        "e17" => exp_infer::e17_infer(),
        "e18" => exp_interp::e18_interp(),
        "e19" => exp_control::e19_control(),
        "e20" => exp_memgov::e20_memgov(),
        _ => return None,
    };
    Some(report)
}

/// The two files that describe a whole run of `tables`:
/// `experiments-run.txt` (the tables as printed) and
/// `experiments-run.json` (the tables plus a metrics snapshot and profiler
/// report of the E11 scripted session, so the run is inspectable offline).
pub fn run_artifacts(tables: Vec<Table>) -> [Artifact; 2] {
    #[derive(serde::Serialize)]
    struct Run {
        tables: Vec<Table>,
        metrics: jmp_obs::HubSnapshot,
        profile: jmp_obs::ProfileReport,
    }
    let text = tables.iter().map(|t| format!("{t}\n")).collect();
    let (metrics, profile) = exp_obs::session_snapshot();
    let run = Run {
        tables,
        metrics,
        profile,
    };
    [
        Artifact {
            name: "experiments-run.txt",
            contents: text,
        },
        Artifact::json("experiments-run.json", &run),
    ]
}
