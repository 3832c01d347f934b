//! The `tep` binary end to end: one seeded `tep demo`, then every read-only
//! subcommand against pinned stdout. The demo's keys come from a fixed seed
//! and its signatures are deterministic PKCS#1 v1.5, so checksum prefixes
//! and proof sizes are pinned byte for byte along with the counts.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A demo directory that is removed on scope exit, failed assertion
/// included.
struct DemoDir(PathBuf);

impl Drop for DemoDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn tep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tep"))
        .args(args)
        .output()
        .expect("spawn tep")
}

fn stdout_of(args: &[&str]) -> String {
    let out = tep(args);
    assert!(
        out.status.success(),
        "tep {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

const STATS: &str = "\
records:      31
objects:      13
inserts:      12
updates:      18
aggregates:   1
participants: 2
row bytes:    5708

activity:
  p1: 10 record(s)
  p2: 21 record(s)
";

const HISTORY_2: &str = "\
history of #2 (2 records):
  seq    2  aggregate  by p1      inputs [#0@1, #1@1]  checksum 1838938460ade159…
  seq    3  update     by p2      inputs [#2@2]  checksum 533367b33e73d2d6…
";

const HISTORY_3_HEAD: &str = "\
history of #3 (10 records):
  seq    0  insert     by p1      inputs []  checksum 6c5ea3a6e0b37f9a…
  seq    1  update     by p1      inputs [#3@0]  checksum 0100000000000000…
";

const QUERY_ANCESTORS_2: &str = "\
ancestors of #2 — 6 record(s) in slice, 0 boundary link(s), proof 1904 bytes
  #0
  #1
VERIFIED: slice proof checks out (6 records)
";

#[test]
fn demo_log_answers_every_read_subcommand_as_pinned() {
    let dir = DemoDir(std::env::temp_dir().join(format!("tep-cli-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    let demo = stdout_of(&["demo", path_str(&dir.0)]);
    assert!(demo.contains("objects: #0 #1 → aggregate #2"), "{demo}");

    let log = dir.0.join("provenance.teplog");
    let keys = dir.0.join("keyring.tepkeys");
    let (log, keys) = (path_str(&log), path_str(&keys));

    assert_eq!(stdout_of(&["stats", log]), STATS);
    assert_eq!(stdout_of(&["history", log, "2"]), HISTORY_2);
    assert!(stdout_of(&["history", log, "#3"]).starts_with(HISTORY_3_HEAD));
    assert_eq!(
        stdout_of(&["blame", log, "2"]),
        "#2 last modified by p2 (record seq 3)\n"
    );
    assert_eq!(
        stdout_of(&["blame", log, "5"]),
        "#5 last modified by p2 (record seq 0)\n"
    );
    assert_eq!(stdout_of(&["participants", log, "0"]), "p1\np2\n");
    assert_eq!(stdout_of(&["participants", log, "2"]), "p1\np2\n");

    // The first query builds and saves the index sidecar; the second one
    // answers from it and must print the same thing.
    for _ in 0..2 {
        assert_eq!(
            stdout_of(&["query", log, "ancestors", "2", "--keys", keys]),
            QUERY_ANCESTORS_2
        );
    }

    // An object with no records is an error on every read subcommand.
    for cmd in ["history", "blame", "participants"] {
        let out = tep(&[cmd, log, "99"]);
        assert!(!out.status.success(), "{cmd} of #99 succeeded");
        assert!(out.stdout.is_empty(), "{cmd} of #99 printed to stdout");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("tep: no records for #99\n"), "{cmd}: {err}");
    }
}
