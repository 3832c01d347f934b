//! The harness's own spans: one around every call it makes into a layer.
//!
//! Spans are kept in memory and written as JSON lines when the run ends.
//! A span's self time is its duration minus the time its children cover.
//! With tracing off `begin`/`end` only read the clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    op: u64,
}

/// An open span: where it sits and when it started.
pub struct Open {
    index: Option<u32>,
    started: Instant,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Every span opened until the next call belongs to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let index = self.on.then(|| {
            let i = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start_ns: (started - self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
                op: self.op,
            });
            self.stack.push(i);
            i
        });
        Open { index, started }
    }

    /// Closes `open`; returns its duration in nanoseconds.
    pub fn end(&mut self, open: Open) -> u64 {
        let ns = open.started.elapsed().as_nanos() as u64;
        if let Some(i) = open.index {
            let s = &mut self.spans[i as usize];
            s.end_ns = s.start_ns + ns;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(i), "spans must nest");
        }
        ns
    }

    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// `name -> (count, total ns, self ns)`, the outside-in layer table.
    pub fn table(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let own = self.self_ns();
        let mut t: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let e = t.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += own;
        }
        t
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, (s, own)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}
