//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--all] [--table1] [--fig6] [--fig7] [--fig8] [--fig9]
//!       [--fig10] [--fig11] [--large [ROWS|paper]] [--chaining] [--verify-cost]
//!       [--ablation] [--runs N] [--key-bits N] [--alg sha1|sha256] [--seed N] [--csv]
//! ```
//!
//! With no experiment flags, runs everything at laptop-friendly defaults
//! (`--runs 5`, 1024-bit keys, SHA-1 — the paper's configuration except for
//! run count; pass `--runs 100` for the paper's full repetition count).

use std::process::ExitCode;
use tep_bench::experiments::*;
use tep_bench::stats::ns_to_ms;
use tep_bench::TextTable;
use tep_core::prelude::HashAlgorithm;
use tep_workloads::{paper_node_count, PAPER_TABLES, PAPER_TITLE_ROWS};

#[derive(Default)]
struct Args {
    table1: bool,
    fig6: bool,
    fig7: bool,
    fig8: bool,
    fig9: bool,
    fig10: bool,
    fig11: bool,
    large: Option<u64>,
    chaining: bool,
    verify_cost: bool,
    ablation: bool,
    csv: bool,
    all: bool,
    cfg: ExperimentConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cfg: ExperimentConfig::default(),
        ..Default::default()
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" => args.all = true,
            "--table1" => args.table1 = true,
            "--fig6" => args.fig6 = true,
            "--fig7" => args.fig7 = true,
            "--fig8" => args.fig8 = true,
            "--fig9" => args.fig9 = true,
            "--fig10" => args.fig10 = true,
            "--fig11" => args.fig11 = true,
            "--chaining" => args.chaining = true,
            "--verify-cost" => args.verify_cost = true,
            "--ablation" => args.ablation = true,
            "--large" => {
                let rows = match it.peek() {
                    Some(v) if !v.starts_with("--") => {
                        let v = it.next().expect("peeked");
                        if v == "paper" {
                            PAPER_TITLE_ROWS
                        } else {
                            v.parse().map_err(|_| format!("bad row count: {v}"))?
                        }
                    }
                    _ => 1_000_000,
                };
                args.large = Some(rows);
            }
            "--csv" => args.csv = true,
            "--runs" => args.cfg.runs = next_value(&mut it, "--runs")?,
            "--key-bits" => args.cfg.key_bits = next_value(&mut it, "--key-bits")?,
            "--seed" => args.cfg.seed = next_value(&mut it, "--seed")?,
            "--alg" => {
                let v: String = next_value(&mut it, "--alg")?;
                args.cfg.alg = match v.as_str() {
                    "sha1" => HashAlgorithm::Sha1,
                    "sha256" => HashAlgorithm::Sha256,
                    other => return Err(format!("unknown algorithm: {other}")),
                };
            }
            "--help" | "-h" => return Err("help requested".into()),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    let experiments_requested = args.table1
        || args.fig6
        || args.fig7
        || args.fig8
        || args.fig9
        || args.fig10
        || args.fig11
        || args.large.is_some()
        || args.chaining
        || args.verify_cost
        || args.ablation;
    if args.all || !experiments_requested {
        args.table1 = true;
        args.fig6 = true;
        args.fig7 = true;
        args.fig8 = true;
        args.fig9 = true;
        args.fig10 = true;
        args.fig11 = true;
        args.large.get_or_insert(1_000_000);
        args.chaining = true;
        args.verify_cost = true;
        args.ablation = true;
    }
    Ok(args)
}

fn next_value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    it.next()
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("{flag}: invalid value"))
}

fn emit(title: &str, table: &TextTable, csv: bool) {
    println!("== {title} ==");
    println!("{}", table.render());
    if csv {
        println!("-- CSV --\n{}", table.to_csv());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repro: {e}");
            eprintln!(
                "usage: repro [--all] [--table1] [--fig6] [--fig7] [--fig8] [--fig9] [--fig10] [--fig11]"
            );
            eprintln!(
                "             [--large [ROWS|paper]] [--chaining] [--verify-cost] [--ablation]"
            );
            eprintln!(
                "             [--runs N] [--key-bits N] [--alg sha1|sha256] [--seed N] [--csv]"
            );
            return ExitCode::FAILURE;
        }
    };
    let cfg = args.cfg;
    println!(
        "tamper-evident provenance repro — alg={:?} key_bits={} runs={} seed={}\n",
        cfg.alg, cfg.key_bits, cfg.runs, cfg.seed
    );

    if args.table1 {
        let mut t = TextTable::new(&["table", "attrs", "rows", "nodes"]);
        for spec in &PAPER_TABLES {
            t.row(&[
                spec.name.to_string(),
                spec.num_attrs.to_string(),
                spec.num_rows.to_string(),
                spec.node_count().to_string(),
            ]);
        }
        emit("Table 1(a): synthetic tables", &t, args.csv);
        let mut t = TextTable::new(&["combination", "nodes (ours)", "nodes (paper)"]);
        let paper = [36_002, 66_000, 88_004, 118_006];
        for k in 1..=4usize {
            t.row(&[
                format!("tables 1..{k}"),
                paper_node_count(k).to_string(),
                paper[k - 1].to_string(),
            ]);
        }
        emit("Table 1(b): synthetic databases", &t, args.csv);
    }

    if args.fig6 {
        let rows = run_fig6(&cfg);
        let mut t = TextTable::new(&["tables", "nodes", "hash time (ms)", "ci95"]);
        for r in &rows {
            t.row(&[
                r.tables.to_string(),
                r.nodes.to_string(),
                format!("{:.3}", r.time_ms.mean),
                format!("{:.3}", r.time_ms.ci95),
            ]);
        }
        emit(
            "Figure 6: average hashing time for a database",
            &t,
            args.csv,
        );
    }

    if args.fig7 {
        let rows = run_fig7(&cfg);
        let mut t = TextTable::new(&["cells updated", "rows", "basic (ms)", "economical (ms)"]);
        for r in &rows {
            t.row(&[
                r.cells.to_string(),
                r.rows.to_string(),
                format!("{:.3} ± {:.3}", r.basic_ms.mean, r.basic_ms.ci95),
                format!("{:.3} ± {:.3}", r.economical_ms.mean, r.economical_ms.ci95),
            ]);
        }
        emit(
            "Figure 7: hashing the output tree, Basic vs Economical",
            &t,
            args.csv,
        );
    }

    if args.fig8 || args.fig9 {
        let (signer, _) = cfg.make_signer();
        let rows = run_setup_b(&cfg, &signer);
        if args.fig8 {
            let mut t = TextTable::new(&[
                "workload",
                "total (ms)",
                "ci95",
                "hash (ms)",
                "sign (ms)",
                "store (ms)",
            ]);
            for r in &rows {
                t.row(&[
                    r.workload.label().to_string(),
                    format!("{:.1}", r.total_ms.mean),
                    format!("{:.1}", r.total_ms.ci95),
                    format!("{:.1}", ns_to_ms(r.metrics.hash_ns())),
                    format!("{:.1}", ns_to_ms(r.metrics.sign_ns)),
                    format!("{:.1}", ns_to_ms(r.metrics.store_ns)),
                ]);
            }
            emit(
                "Figure 8: time overhead by operation type (Setup B)",
                &t,
                args.csv,
            );
        }
        if args.fig9 {
            let mut t = TextTable::new(&["workload", "records", "checksum rows (bytes)"]);
            for r in &rows {
                t.row(&[
                    r.workload.label().to_string(),
                    r.metrics.records.to_string(),
                    r.metrics.row_bytes.to_string(),
                ]);
            }
            emit(
                "Figure 9: space overhead by operation type (Setup B)",
                &t,
                args.csv,
            );
        }
    }

    if args.fig10 || args.fig11 {
        let (signer, _) = cfg.make_signer();
        let rows = run_setup_c(&cfg, &signer);
        if args.fig10 {
            let mut t = TextTable::new(&[
                "delete %",
                "mix (del/ins/upd)",
                "total (ms)",
                "ci95",
                "hash (ms)",
                "sign (ms)",
                "store (ms)",
            ]);
            for r in &rows {
                t.row(&[
                    format!("{:.1}", r.mix.delete_pct()),
                    format!("{}/{}/{}", r.mix.deletes, r.mix.inserts, r.mix.updates),
                    format!("{:.1}", r.total_ms.mean),
                    format!("{:.1}", r.total_ms.ci95),
                    format!("{:.1}", ns_to_ms(r.metrics.hash_ns())),
                    format!("{:.1}", ns_to_ms(r.metrics.sign_ns)),
                    format!("{:.1}", ns_to_ms(r.metrics.store_ns)),
                ]);
            }
            emit(
                "Figure 10: time overhead for mixed operations (Setup C)",
                &t,
                args.csv,
            );
        }
        if args.fig11 {
            let mut t = TextTable::new(&["delete %", "records", "checksum rows (bytes)"]);
            for r in &rows {
                t.row(&[
                    format!("{:.1}", r.mix.delete_pct()),
                    r.metrics.records.to_string(),
                    r.metrics.row_bytes.to_string(),
                ]);
            }
            emit(
                "Figure 11: space overhead for mixed operations (Setup C)",
                &t,
                args.csv,
            );
        }
    }

    if let Some(rows) = args.large {
        let r = run_large(cfg.alg, rows);
        let mut t = TextTable::new(&["rows", "nodes", "seconds", "ms/node (paper: 0.02156)"]);
        t.row(&[
            r.rows.to_string(),
            r.nodes.to_string(),
            format!("{:.2}", r.seconds),
            format!("{:.6}", r.ms_per_node),
        ]);
        emit(
            "§5.2: streaming hash of the large Title database",
            &t,
            args.csv,
        );
    }

    if args.chaining {
        let mut t = TextTable::new(&[
            "threads",
            "ops/thread",
            "local chains (ms)",
            "global chain (ms)",
            "speedup",
        ]);
        for threads in [1usize, 2, 4, 8] {
            let r = run_chaining(&cfg, threads, 32);
            t.row(&[
                r.threads.to_string(),
                r.ops_per_thread.to_string(),
                format!("{:.1}", r.local_ms),
                format!("{:.1}", r.global_ms),
                format!("{:.2}x", r.global_ms / r.local_ms),
            ]);
        }
        emit(
            "§3.2 ablation: local vs global checksum chaining",
            &t,
            args.csv,
        );
    }

    if args.ablation {
        let rows = run_ablation(&cfg);
        let mut t = TextTable::new(&[
            "hash",
            "key bits",
            "total (ms)",
            "ci95",
            "hash (ms)",
            "sign (ms)",
            "bytes/record",
        ]);
        for r in &rows {
            t.row(&[
                format!("{:?}", r.alg),
                r.key_bits.to_string(),
                format!("{:.1}", r.total_ms.mean),
                format!("{:.1}", r.total_ms.ci95),
                format!("{:.1}", ns_to_ms(r.metrics.hash_ns())),
                format!("{:.1}", ns_to_ms(r.metrics.sign_ns)),
                r.row_bytes_per_record.to_string(),
            ]);
        }
        emit(
            "Ablation: hash algorithm x RSA key size (100-update workload)",
            &t,
            args.csv,
        );
    }

    if args.verify_cost {
        let rows = run_verify_cost(&cfg, &[1, 10, 100, 1000]);
        let mut t = TextTable::new(&["chain length", "collect+verify (ms)", "ci95"]);
        for r in &rows {
            t.row(&[
                r.chain_len.to_string(),
                format!("{:.3}", r.verify_ms.mean),
                format!("{:.3}", r.verify_ms.ci95),
            ]);
        }
        emit(
            "Extension: recipient verification cost vs history length",
            &t,
            args.csv,
        );
    }

    ExitCode::SUCCESS
}
