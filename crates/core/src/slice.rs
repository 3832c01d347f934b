//! Verifiable query slices: self-contained, re-verifiable answers to
//! provenance queries.
//!
//! The paper makes *whole histories* tamper-evident; a query engine answers
//! questions over them — ancestors, descendants, audit slices, provenance
//! polynomials. A [`SliceProof`] makes the **answer** tamper-evident too:
//! it carries the minimal record subset the answer was computed from, plus
//! the chain-link checksums of every record deliberately left outside the
//! slice, so a recipient can re-run the R1–R8 checks over just that slice
//! (`Verifier::verify_slice`) and *recompute the answer* from the records.
//! A server that tampers with records, omits part of a lineage, or returns
//! a fabricated answer yields attributed
//! [`TamperEvidence`](crate::verify::TamperEvidence) — never a silently
//! wrong result.
//!
//! Two soundness regimes, stated honestly:
//!
//! * **Backward queries** (ancestors, lineage, polynomials) are sound *and*
//!   complete relative to the signed records: an aggregate's inputs are
//!   bound into its signed checksum, so an omitted ancestor either breaks a
//!   signature or surfaces as `MissingRecord`.
//! * **Forward queries** (descendants, audit slices) are sound — every
//!   claimed consumer is backed by a signed aggregate record naming the
//!   target as input — but a server can still *omit* consumers, because
//!   nothing in the paper's scheme signs "who later consumed me".
//!   Authenticated denial (a keyed hash tree over the id space) is the
//!   ROADMAP item that closes this; until then the caveat is documented
//!   here and in DESIGN.md §11.
//!
//! The polynomial algebra follows "Provenance for Aggregate Queries"
//! (arXiv 1101.1110): lineages are elements of the polynomial semiring
//! ℕ[X] over one indeterminate per source object; aggregation multiplies,
//! sharing a source along several derivation paths raises its exponent.

use crate::record::{ProvenanceRecord, RecordKind};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::ParticipantId;
use tep_model::encode::{DecodeError, Framed, List};
use tep_model::{codec_structs, codecs, ObjectId};
use tep_storage::StoredRecord;

/// Format tag of the slice-proof byte encoding.
const SLICE_MAGIC: &[u8] = b"TEPSLICE\x01";

/// Hard cap on canonical polynomial size. A deep diamond DAG doubles the
/// term count per level; both the query engine and the verifier truncate
/// the canonical form identically past this bound, so answer comparison
/// stays meaningful while adversarial blowup stays bounded.
pub(crate) const MAX_POLY_TERMS: usize = 4096;

/// The query operator a slice answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum QueryOp {
    /// Objects the target transitively derives from (bounded backward BFS).
    Ancestors,
    /// Objects whose aggregations consumed the target (bounded forward BFS).
    Descendants,
    /// The full derivation closure of the target: the minimal record subset
    /// that influenced it (the slice itself is the answer).
    LineageSlice,
    /// Every record authored by one participant, with chain context.
    AuditSlice,
    /// The target's provenance polynomial over its derivation DAG.
    Polynomial,
}

impl QueryOp {
    /// Every operator, in wire/display order.
    pub const ALL: [QueryOp; 5] = [
        QueryOp::Ancestors,
        QueryOp::Descendants,
        QueryOp::LineageSlice,
        QueryOp::AuditSlice,
        QueryOp::Polynomial,
    ];

    /// Stable snake_case name (metric suffix and CLI spelling).
    pub fn name(self) -> &'static str {
        match self {
            QueryOp::Ancestors => "ancestors",
            QueryOp::Descendants => "descendants",
            QueryOp::LineageSlice => "lineage",
            QueryOp::AuditSlice => "audit",
            QueryOp::Polynomial => "polynomial",
        }
    }

    /// Name of the per-operator request counter
    /// (`tep_query_requests_<op>_total`).
    pub fn counter_name(self) -> String {
        format!("tep_query_requests_{}_total", self.name())
    }

    /// Parses a CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        QueryOp::ALL.into_iter().find(|op| op.name() == s)
    }

    fn wire_id(self) -> u8 {
        match self {
            QueryOp::Ancestors => 0,
            QueryOp::Descendants => 1,
            QueryOp::LineageSlice => 2,
            QueryOp::AuditSlice => 3,
            QueryOp::Polynomial => 4,
        }
    }

    fn from_wire_id(id: u8) -> Option<Self> {
        QueryOp::ALL.into_iter().find(|op| op.wire_id() == id)
    }
}

impl fmt::Display for QueryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

codec_structs! {
    /// Bounds restricting a query's traversal. Both bounds are re-checkable by
    /// the recipient: `seq_id` is signed into every record, and depth is a
    /// property of the slice's own edge structure.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct QueryBounds {
        /// Maximum derivation (aggregate-edge) hops from the target. Walking an
        /// object's own update chain is free. `None` = unbounded.
        pub max_depth: Option<u32>,
        /// Inclusive `seq_id` window; records outside it are clipped to
        /// boundary links. `None` = unbounded.
        pub seq_range: Option<(u64, u64)> as Option<SeqRange>,
    }

    /// A fully specified provenance query: the question a [`SliceProof`]
    /// answers. Bound into the proof encoding so the recipient can tell *which*
    /// question the server actually answered.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct QuerySpec {
        /// The operator.
        pub op: QueryOp,
        /// The subject object (`ObjectId(0)` for [`QueryOp::AuditSlice`]).
        pub target: ObjectId,
        /// The audited participant ([`QueryOp::AuditSlice`] only).
        pub participant: Option<ParticipantId>,
        /// Traversal bounds.
        pub bounds: QueryBounds,
    }
}

codecs! {
    /// The operator's one-byte id.
    [] QueryOp => QueryOp, 1, |v, out| out.push(v.wire_id()), |r| {
        QueryOp::from_wire_id(r.u8()?).ok_or(DecodeError::BadTag(0xF0))?
    };
    /// An inclusive `seq_id` window; an inverted one is refused.
    [] SeqRange => (u64, u64), 16, |v, out| <(u64, u64)>::put(v, out), |r| {
        let (lo, hi) = <(u64, u64)>::take(r)?;
        if lo > hi {
            return Err(DecodeError::BadTag(0xF1));
        }
        (lo, hi)
    };
}

/// The codecs of a `seq_id` window, a polynomial term and a slice record.
enum SeqRange {}
enum Term {}
enum Row {}

impl QueryBounds {
    /// `true` iff `seq` falls inside the (possibly absent) window.
    pub fn seq_in_range(&self, seq: u64) -> bool {
        self.seq_range.is_none_or(|(lo, hi)| lo <= seq && seq <= hi)
    }

    /// `true` iff `depth` aggregate hops are within the depth bound.
    pub fn depth_ok(&self, depth: u32) -> bool {
        self.max_depth.is_none_or(|d| depth <= d)
    }
}

impl QuerySpec {
    /// A spec for `op` on `target` with no bounds.
    pub fn new(op: QueryOp, target: ObjectId) -> Self {
        QuerySpec {
            op,
            target,
            participant: None,
            bounds: QueryBounds::default(),
        }
    }

    /// An audit-slice spec for `participant`.
    pub fn audit(participant: ParticipantId) -> Self {
        QuerySpec {
            op: QueryOp::AuditSlice,
            target: ObjectId(0),
            participant: Some(participant),
            bounds: QueryBounds::default(),
        }
    }
}

codec_structs! {
    /// A provenance polynomial: an element of ℕ[X], one indeterminate per
    /// source object (arXiv 1101.1110). Kept in canonical form — terms sorted
    /// by monomial, factors sorted by object id, no zero coefficients.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct Polynomial {
        /// `(monomial, coefficient)` terms; a monomial is sorted
        /// `(variable, exponent ≥ 1)` factors. The empty monomial is the
        /// constant term.
        pub terms: Vec<(Vec<(ObjectId, u64)>, u64)> as List<8, Term>,
    }
}

/// A monomial's `(variable, exponent)` factors.
type Monomial = List<8, (ObjectId, u64)>;

codecs! {
    /// A term: its coefficient, then its monomial.
    [] Term => (Vec<(ObjectId, u64)>, u64), 16, |v, out| {
        u64::put(&v.1, out);
        Monomial::put(&v.0, out)
    }, |r| {
        let c = u64::take(r)?;
        (Monomial::take(r)?, c)
    };
}

impl Polynomial {
    /// The multiplicative identity (1).
    pub fn one() -> Self {
        Polynomial {
            terms: vec![(Vec::new(), 1)],
        }
    }

    /// The single variable `x_oid`.
    pub fn var(oid: ObjectId) -> Self {
        Polynomial {
            terms: vec![(vec![(oid, 1)], 1)],
        }
    }

    /// Product of two polynomials (aggregation combines lineages).
    pub fn mul(&self, other: &Polynomial) -> Polynomial {
        let mut terms: Vec<(Vec<(ObjectId, u64)>, u64)> = Vec::new();
        for (ma, ca) in &self.terms {
            for (mb, cb) in &other.terms {
                let mut m = ma.clone();
                for &(oid, e) in mb {
                    match m.iter_mut().find(|(o, _)| *o == oid) {
                        Some(f) => f.1 = f.1.saturating_add(e),
                        None => m.push((oid, e)),
                    }
                }
                m.sort_by_key(|&(o, _)| o);
                let c = ca.saturating_mul(*cb);
                match terms.iter_mut().find(|(tm, _)| *tm == m) {
                    Some(t) => t.1 = t.1.saturating_add(c),
                    None => terms.push((m, c)),
                }
            }
        }
        terms.sort();
        terms.truncate(MAX_POLY_TERMS);
        Polynomial { terms }
    }

    /// Sum of two polynomials (alternative derivations).
    pub fn add(&self, other: &Polynomial) -> Polynomial {
        let mut terms = self.terms.clone();
        for (m, c) in &other.terms {
            match terms.iter_mut().find(|(tm, _)| tm == m) {
                Some(t) => t.1 = t.1.saturating_add(*c),
                None => terms.push((m.clone(), *c)),
            }
        }
        terms.sort();
        terms.truncate(MAX_POLY_TERMS);
        Polynomial { terms }
    }

    /// Evaluates under an assignment of the variables, in the counting
    /// semiring (saturating u64 arithmetic).
    pub fn eval(&self, assign: impl Fn(ObjectId) -> u64) -> u64 {
        let mut total = 0u64;
        for (m, c) in &self.terms {
            let mut term = *c;
            for &(oid, e) in m {
                let v = assign(oid);
                for _ in 0..e {
                    term = term.saturating_mul(v);
                }
            }
            total = total.saturating_add(term);
        }
        total
    }
}

impl fmt::Display for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return f.write_str("0");
        }
        for (i, (m, c)) in self.terms.iter().enumerate() {
            if i > 0 {
                f.write_str(" + ")?;
            }
            if *c != 1 || m.is_empty() {
                write!(f, "{c}")?;
                if !m.is_empty() {
                    f.write_str("·")?;
                }
            }
            for (j, (oid, e)) in m.iter().enumerate() {
                if j > 0 {
                    f.write_str("·")?;
                }
                write!(f, "x{}", oid.raw())?;
                if *e > 1 {
                    write!(f, "^{e}")?;
                }
            }
        }
        Ok(())
    }
}

/// The operator's computed answer, shipped alongside the records so a
/// recipient can compare it against what the records actually imply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryAnswer {
    /// A sorted, deduplicated object list (ancestors, descendants, lineage
    /// sources, audited objects).
    Objects(Vec<ObjectId>),
    /// A provenance polynomial in canonical form.
    Polynomial(Polynomial),
}

codecs! {
    /// A tag byte (0 objects, 1 polynomial), then the answer.
    [] QueryAnswer => QueryAnswer, 9, |v, out| match v {
        QueryAnswer::Objects(oids) => {
            out.push(0);
            <List<8, ObjectId>>::put(oids, out)
        }
        QueryAnswer::Polynomial(p) => {
            out.push(1);
            Polynomial::put(p, out)
        }
    }, |r| match r.u8()? {
        0 => QueryAnswer::Objects(<List<8, ObjectId>>::take(r)?),
        1 => QueryAnswer::Polynomial(Polynomial::take(r)?),
        t => return Err(DecodeError::BadTag(t)),
    };
    /// A record as its stored row, decoded strictly: the rest of the
    /// input, so always inside a [`Framed`].
    [] Row => ProvenanceRecord, 0, |v, out| v.to_stored().encode_into(out), |r| {
        ProvenanceRecord::from_stored(&StoredRecord::from_bytes(r.bytes(r.remaining())?)?)?
    };
}

codec_structs! {
    /// A checksum of a record intentionally left *outside* the slice that
    /// in-slice signatures chain to. Carrying the checksum (and only the
    /// checksum) lets the recipient verify the signatures of records at the
    /// slice boundary without shipping the whole history; the checksum itself
    /// is covered by those signatures, so flipping it breaks them.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct BoundaryLink {
        /// The out-of-slice record's object.
        pub oid: ObjectId,
        /// Its sequence id.
        pub seq: u64,
        /// Its signed checksum, verbatim.
        pub checksum: Vec<u8>,
    }

    /// A self-contained, re-verifiable query result: the answer, the record
    /// subset it was computed from, and the boundary checksums needed to check
    /// every in-slice signature. See the module docs for the trust model and
    /// `Verifier::verify_slice` for the checks a recipient runs. Its bytes
    /// travel in QRESULT frames and files; structural corruption
    /// (truncation, bad tags, trailing bytes) fails to decode, *semantic*
    /// tampering is the `verify_slice` layer's job.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SliceProof magic SLICE_MAGIC impl to_bytes, from_bytes {
        /// Hash algorithm of the record checksums.
        pub alg: HashAlgorithm,
        /// The question this slice answers.
        pub spec: QuerySpec,
        /// `seq_id` of the target's newest record at evaluation time (the
        /// traversal root; 0 for audit slices).
        pub target_seq: u64,
        /// The slice: records sorted by `(output_oid, seq_id)`.
        pub records: Vec<ProvenanceRecord> as List<8, Framed<Row>>,
        /// Boundary checksums, sorted by `(oid, seq)`.
        pub boundary: Vec<BoundaryLink> as List<8, BoundaryLink>,
        /// The operator's answer.
        pub answer: QueryAnswer,
    }
}

/// Outcome of [`backward_closure`]: the bounded backward traversal both
/// the query engine (over the database) and `Verifier::verify_slice`
/// (over a received slice) run. Running the *same* algorithm on both sides
/// is what makes slice proofs re-checkable.
#[derive(Clone, Debug, Default)]
pub struct BackwardClosure {
    /// In-bounds nodes the lookup resolved, in visit order — the slice.
    pub kept: Vec<(ObjectId, u64)>,
    /// Demanded nodes clipped by the bounds — carried as boundary links.
    pub clipped: Vec<(ObjectId, u64)>,
    /// In-bounds demanded nodes the lookup could not resolve.
    pub missing: Vec<(ObjectId, u64)>,
    /// `true` iff traversal stopped after keeping `limit` nodes.
    pub truncated: bool,
}

/// Bounded 0-1 BFS over reverse derivation edges from `root`. Walking an
/// object's own update chain costs nothing; crossing an aggregate edge
/// costs one depth unit — so `max_depth` counts *derivation* hops, the
/// quantity a lineage question is actually about. Each node is decided at
/// its minimum depth; decisions are kept (in bounds, resolved), clipped
/// (out of bounds), or missing (in bounds but unresolvable). A visited set
/// makes adversarial cyclic edge structures terminate.
pub fn backward_closure(
    bounds: &QueryBounds,
    root: (ObjectId, u64),
    limit: usize,
    mut lookup: impl FnMut(ObjectId, u64) -> Option<ProvenanceRecord>,
) -> BackwardClosure {
    let mut out = BackwardClosure::default();
    let mut best: HashMap<(ObjectId, u64), u32> = HashMap::new();
    let mut dq: VecDeque<((ObjectId, u64), u32)> = VecDeque::new();
    dq.push_back((root, 0));
    while let Some((node, depth)) = dq.pop_front() {
        if let Some(&b) = best.get(&node) {
            if b <= depth {
                continue;
            }
        }
        best.insert(node, depth);
        if !bounds.seq_in_range(node.1) || !bounds.depth_ok(depth) {
            out.clipped.push(node);
            continue;
        }
        let Some(rec) = lookup(node.0, node.1) else {
            out.missing.push(node);
            continue;
        };
        if out.kept.len() >= limit {
            out.truncated = true;
            break;
        }
        out.kept.push(node);
        for input in &rec.inputs {
            let Some(prev) = input.prev_seq else { continue };
            // Same-object edges (updates) are free; cross-object edges
            // (aggregation) cost one hop.
            if input.oid == node.0 {
                dq.push_front(((input.oid, prev), depth));
            } else {
                dq.push_back(((input.oid, prev), depth + 1));
            }
        }
    }
    out
}

/// One aggregate's object-level edge: `(output, seq_id, input objects)`.
pub(crate) type AggEdge = (ObjectId, u64, Vec<ObjectId>);

/// Forward (descendant) reachability from `target` over aggregate edges.
/// `aggs` must be sorted by `(output, seq)`; that order is topological
/// because an aggregate's output is always a fresher object than its
/// inputs, so a single pass computes minimum depths. Returns the indices
/// of in-bounds reachable aggregates and the visited-object depth map
/// (which includes `target` at depth 0).
pub(crate) fn forward_closure(
    bounds: &QueryBounds,
    target: ObjectId,
    aggs: &[AggEdge],
) -> (Vec<usize>, BTreeMap<ObjectId, u32>) {
    let mut depth: BTreeMap<ObjectId, u32> = BTreeMap::new();
    depth.insert(target, 0);
    let mut kept = Vec::new();
    for (i, (out, seq, inputs)) in aggs.iter().enumerate() {
        if !bounds.seq_in_range(*seq) {
            continue;
        }
        let d = inputs.iter().filter_map(|o| depth.get(o)).min().copied();
        if let Some(d) = d {
            let nd = d.saturating_add(1);
            if bounds.depth_ok(nd) {
                kept.push(i);
                let e = depth.entry(*out).or_insert(nd);
                *e = (*e).min(nd);
            }
        }
    }
    (kept, depth)
}

/// Computes the provenance polynomial of `root` from `records`, which must
/// be sorted by `(output_oid, seq_id)` — topological order, so one pass
/// resolves every dependency. Any predecessor *outside* `records` is
/// treated as a source variable: clipping at the slice boundary is what
/// keeps polynomials finite under bounds. Inserts introduce a variable,
/// updates carry their predecessor's polynomial through, aggregates
/// multiply their inputs' polynomials (arXiv 1101.1110) — so an input
/// shared along two derivation paths shows up squared.
pub fn polynomial_over(records: &[ProvenanceRecord], root: (ObjectId, u64)) -> Polynomial {
    let mut memo: HashMap<(ObjectId, u64), Polynomial> = HashMap::new();
    for r in records {
        let p = match r.kind {
            RecordKind::Insert => Polynomial::var(r.output_oid),
            RecordKind::Update => r
                .inputs
                .first()
                .and_then(|i| i.prev_seq)
                .and_then(|prev| memo.get(&(r.output_oid, prev)).cloned())
                .unwrap_or_else(|| Polynomial::var(r.output_oid)),
            RecordKind::Aggregate => {
                let mut acc = Polynomial::one();
                for i in &r.inputs {
                    let f = i
                        .prev_seq
                        .and_then(|prev| memo.get(&(i.oid, prev)).cloned())
                        .unwrap_or_else(|| Polynomial::var(i.oid));
                    acc = acc.mul(&f);
                }
                acc
            }
        };
        memo.insert((r.output_oid, r.seq_id), p);
    }
    memo.remove(&root)
        .unwrap_or_else(|| Polynomial::var(root.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tep_model::encode::{decode_exact, Codec};

    #[test]
    fn spec_roundtrip() {
        let specs = [
            QuerySpec::new(QueryOp::Ancestors, ObjectId(7)),
            QuerySpec::audit(ParticipantId(3)),
            QuerySpec {
                op: QueryOp::Descendants,
                target: ObjectId(9),
                participant: None,
                bounds: QueryBounds {
                    max_depth: Some(4),
                    seq_range: Some((2, 10)),
                },
            },
        ];
        for spec in specs {
            let mut buf = Vec::new();
            QuerySpec::put(&spec, &mut buf);
            let back = decode_exact::<QuerySpec>(&buf);
            assert_eq!(back.unwrap(), spec);
        }
    }

    #[test]
    fn spec_rejects_inverted_range() {
        let spec = QuerySpec {
            op: QueryOp::Ancestors,
            target: ObjectId(1),
            participant: None,
            bounds: QueryBounds {
                max_depth: None,
                seq_range: Some((5, 2)),
            },
        };
        let mut buf = Vec::new();
        QuerySpec::put(&spec, &mut buf);
        assert!(decode_exact::<QuerySpec>(&buf).is_err());
    }

    #[test]
    fn polynomial_algebra() {
        let x = Polynomial::var(ObjectId(1));
        let y = Polynomial::var(ObjectId(2));
        // Diamond sharing: x used along two paths → x².
        let sq = x.mul(&x);
        assert_eq!(sq.terms, vec![(vec![(ObjectId(1), 2)], 1)]);
        let xy = x.mul(&y);
        assert_eq!(xy.eval(|o| o.raw() + 1), 2 * 3);
        assert_eq!(sq.eval(|_| 3), 9);
        // Sum keeps both terms.
        let s = sq.add(&xy);
        assert_eq!(s.terms.len(), 2);
        assert_eq!(s.eval(|_| 2), 4 + 4);
        // Multiplication is commutative in canonical form.
        assert_eq!(x.mul(&y), y.mul(&x));
        // Display is stable.
        assert_eq!(sq.to_string(), "x1^2");
    }

    #[test]
    fn polynomial_one_is_identity() {
        let x = Polynomial::var(ObjectId(4));
        assert_eq!(Polynomial::one().mul(&x), x);
        assert_eq!(Polynomial::one().eval(|_| 99), 1);
    }

    #[test]
    fn op_names_parse() {
        for op in QueryOp::ALL {
            assert_eq!(QueryOp::parse(op.name()), Some(op));
            assert!(op.counter_name().starts_with("tep_query_requests_"));
        }
        assert_eq!(QueryOp::parse("nope"), None);
    }
}
