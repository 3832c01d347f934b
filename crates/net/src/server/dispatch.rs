//! Request dispatch: HELLO admission, every request a ready connection
//! can make, and the streaming of a transfer's frames.

use std::io::{Read, Write};
use std::sync::atomic::Ordering;
use std::time::Instant;

use tep_core::denial::{DenialProof, RangeProof, SignedDenial, SignedRange};
use tep_core::provenance::collect_rows;
use tep_core::streaming::RecordStreamDigest;
use tep_model::encode::encode_value;
use tep_model::ObjectId;
use tep_query::QueryError;
use tep_storage::StoredRecord;

use super::conn::{past_deadline, refuse_deadline, Conn, ConnState, FillOutcome, WBUF_HIGH};
use super::tenant::{shed_retry_after_ms, TenantEnv};
use super::{run_isolated, Env};
use crate::wire::{DataEntry, ErrorCode, Message, DATA_CHUNK_BYTES, MAX_FRAME, WIRE_VERSION};

/// An in-flight transfer: the provenance rows still to send, the data
/// subtree, and cursors marking how much of it has been queued. DONE
/// totals always cover the *whole* object (a RESUME skips sending the
/// verified prefix but the totals the client checks are unchanged).
pub(super) struct StreamJob {
    /// The rows as `collect_rows` read them, each moved into its PROV
    /// frame: the server sends the row it read.
    rows: std::vec::IntoIter<StoredRecord>,
    records: u64,
    /// The data subtree's entries still to send, each moved into its DATA
    /// frame.
    data: std::vec::IntoIter<DataEntry>,
    nodes: u64,
    done_queued: bool,
    /// The buffer each entry's value is encoded in to size it.
    scratch: Vec<u8>,
}

impl StreamJob {
    /// A job streaming `rows`, then `data`; DONE reports `records`, which
    /// counts the rows a RESUME skips too, and `data`'s length.
    pub(super) fn new(rows: Vec<StoredRecord>, records: u64, data: Vec<DataEntry>) -> Self {
        StreamJob {
            rows: rows.into_iter(),
            records,
            nodes: data.len() as u64,
            data: data.into_iter(),
            done_queued: false,
            scratch: Vec::new(),
        }
    }

    /// The job's next frame — PROV × N, DATA × M, then DONE — or `None`
    /// once DONE is queued.
    fn next_frame(&mut self) -> Option<Message> {
        if let Some(record) = self.rows.next() {
            Some(Message::Prov { record })
        } else if self.data.len() > 0 {
            Some(Message::Data {
                entries: next_data_chunk(self),
            })
        } else if !self.done_queued {
            self.done_queued = true;
            Some(Message::Done {
                records: self.records,
                nodes: self.nodes,
            })
        } else {
            None
        }
    }
}

/// Routes one parsed frame through the connection's state machine.
fn dispatch<S: Read + Write>(conn: &mut Conn<S>, msg: Message, env: &Env, now: Instant) {
    match conn.state {
        ConnState::Handshake => on_hello(conn, msg, env),
        ConnState::Ready => {
            // An admitted connection always has a tenant; losing the
            // mapping mid-session (cannot happen under the current API,
            // which takes the tenant set at serve time) is unrecoverable.
            let Some(ten) = conn.tenant.and_then(|t| env.tenants.get(&t)) else {
                conn.close_now();
                return;
            };
            on_request(conn, msg, env, ten, now)
        }
        // Frames are never parsed in these states (`wants_read` is false).
        ConnState::Streaming | ConnState::Draining => {}
    }
}

/// HELLO admission: wire version → tenant provisioning → algorithm →
/// tenant connection quota, in that order.
///
/// A tenant the server does not serve gets a typed, non-retryable
/// `ERR unknown-tenant` — distinct from `busy`, so a misconfigured client
/// fails fast instead of burning its retry budget against a scope that
/// will never admit it. A known tenant over its connection quota gets
/// retryable `ERR busy` with a `Retry-After` hint scaled to *that
/// tenant's* backlog, leaving other tenants' admission untouched.
fn on_hello<S: Read + Write>(conn: &mut Conn<S>, msg: Message, env: &Env) {
    let Message::Hello {
        version,
        alg,
        tenant,
    } = msg
    else {
        conn.refuse_and_close(ErrorCode::BadRequest, 0, "expected HELLO", env);
        return;
    };
    if version != WIRE_VERSION {
        conn.refuse_and_close(
            ErrorCode::VersionMismatch,
            0,
            format!("server speaks v{WIRE_VERSION}, client sent v{version}"),
            env,
        );
        return;
    }
    let Some(ten) = env.tenants.get(&tenant) else {
        env.obs.tenant_rejections.inc();
        conn.refuse_and_close(
            ErrorCode::UnknownTenant,
            0,
            format!("tenant t{tenant} is not provisioned here"),
            env,
        );
        return;
    };
    if alg != ten.catalog.alg {
        conn.refuse_and_close(
            ErrorCode::VersionMismatch,
            0,
            format!(
                "tenant t{tenant} serves {:?}, client sent {alg:?}",
                ten.catalog.alg
            ),
            env,
        );
        return;
    }
    let active = ten.active.load(Ordering::SeqCst);
    if active >= ten.max_connections {
        env.obs.shed.inc();
        env.obs.tenant_quota_sheds.inc();
        ten.shed.inc();
        ten.quota_sheds.inc();
        conn.refuse_and_close(
            ErrorCode::Busy,
            shed_retry_after_ms(active),
            format!("tenant t{tenant} connection quota reached"),
            env,
        );
        return;
    }
    ten.active.fetch_add(1, Ordering::SeqCst);
    ten.connections.inc();
    conn.tenant = Some(tenant);
    conn.queue_frame(
        &Message::Hello {
            version: WIRE_VERSION,
            alg: ten.catalog.alg,
            tenant,
        },
        false,
        env,
    );
    conn.queue_frame(
        &Message::Offer {
            entries: ten.catalog.offer_entries(),
        },
        false,
        env,
    );
    conn.state = ConnState::Ready;
}

/// One request frame in the `Ready` state. The deadline is a per-request
/// budget: it is re-armed here, so a kept connection serves any number of
/// requests that each finish inside it. The check right after the re-arm
/// only fires for a zero budget — *after* the handshake, before dispatch,
/// so even that connection completes HELLO/OFFER and gets a protocol-level
/// `ERR deadline` instead of a hang.
fn on_request<S: Read + Write>(
    conn: &mut Conn<S>,
    msg: Message,
    env: &Env,
    ten: &TenantEnv,
    now: Instant,
) {
    conn.arm_deadline(now);
    if past_deadline(conn.deadline) {
        refuse_deadline(conn, env);
        return;
    }
    match msg {
        Message::Fetch { oid } => {
            env.obs.fetches.inc();
            if let Some(rows) = lookup(conn, oid, env, ten) {
                start_stream(conn, oid, rows, 0, env, ten, now);
            }
        }
        Message::Resume {
            oid,
            records,
            digest,
        } => {
            env.obs.resumes.inc();
            let Some(rows) = lookup(conn, oid, env, ten) else {
                return;
            };
            let total = rows.len() as u64;
            if records > total {
                conn.refuse(
                    ErrorCode::ResumeMismatch,
                    format!("resume offset {records} beyond end of stream ({total})"),
                    env,
                );
                return;
            }
            let mut ours = RecordStreamDigest::new(ten.catalog.alg, oid);
            let mut scratch = Vec::new();
            for row in &rows[..records as usize] {
                ours.push_row(row, &mut scratch);
            }
            if ours.current() != digest.as_slice() {
                conn.refuse(
                    ErrorCode::ResumeMismatch,
                    format!("record-stream digest disagrees at offset {records}"),
                    env,
                );
                return;
            }
            conn.queue_frame(
                &Message::ResumeOk {
                    records,
                    digest: ours.current().to_vec(),
                },
                true,
                env,
            );
            start_stream(conn, oid, rows, records as usize, env, ten, now);
        }
        Message::StatsRequest => {
            env.obs.stats_requests.inc();
            conn.queue_frame(
                &Message::Stats {
                    text: env.registry.render_text(),
                },
                false,
                env,
            );
        }
        Message::Query { spec } => {
            env.obs.queries.inc();
            match ten.query.execute(&spec) {
                Ok(proof) => {
                    let bytes = proof.to_bytes();
                    // The whole proof must travel as one frame (payload =
                    // type byte + proof) so the client verifies an atomic
                    // unit; an answer past the cap is refused, not split.
                    if bytes.len() + 1 > MAX_FRAME {
                        conn.refuse(
                            ErrorCode::BadRequest,
                            "slice proof exceeds frame cap; tighten the query bounds",
                            env,
                        );
                    } else {
                        conn.queue_frame(&Message::QResult { proof: bytes }, true, env);
                    }
                }
                Err(e) => {
                    let code = match e {
                        QueryError::UnknownObject(oid) => {
                            if deny(conn, oid, env, ten) {
                                return;
                            }
                            ErrorCode::UnknownObject
                        }
                        QueryError::MissingParticipant
                        | QueryError::SliceTooLarge { .. }
                        | QueryError::UndecodableRecord { .. } => ErrorCode::BadRequest,
                    };
                    conn.refuse(code, e.to_string(), env);
                }
            }
        }
        Message::AeReq { level, index } => {
            env.obs.ae_requests.inc();
            let (tree, root) = ten.shard_view();
            let reply = if level == crate::wire::AE_SUMMARY_LEVEL {
                let s = tree.summary();
                // Summary replies from a signing server carry the signed
                // root so replicas can pin a monotonic high-water mark;
                // node replies stay lean (the summary already vouched).
                let signed_root = root.map(|r| r.to_bytes());
                Some(Message::AeResp {
                    leaf_count: s.leaf_count,
                    depth: s.depth,
                    hash: s.root,
                    children: Vec::new(),
                    oid: None,
                    signed_root,
                })
            } else {
                tree.node_info(level, index).map(|info| Message::AeResp {
                    leaf_count: tree.leaf_count(),
                    depth: tree.depth(),
                    hash: info.hash,
                    children: info.children,
                    oid: info.oid,
                    signed_root: None,
                })
            };
            match reply {
                Some(resp) => conn.queue_frame(&resp, true, env),
                None => conn.refuse(
                    ErrorCode::BadRequest,
                    format!("no anti-entropy node at level {level} index {index}"),
                    env,
                ),
            }
        }
        Message::RangeReq { lo, hi } => {
            if lo > hi {
                conn.refuse(
                    ErrorCode::BadRequest,
                    format!("range lower bound {lo} exceeds upper bound {hi}"),
                    env,
                );
                return;
            }
            if ten.catalog.signer.is_none() {
                conn.refuse(
                    ErrorCode::BadRequest,
                    "server has no signing identity; completeness proofs unavailable",
                    env,
                );
                return;
            }
            let (tree, Some(root)) = ten.shard_view() else {
                conn.refuse(ErrorCode::BadRequest, "signing the shard root failed", env);
                return;
            };
            let range = SignedRange {
                root: (*root).clone(),
                proof: RangeProof::prove(&tree, lo, hi),
            };
            let oids: Vec<ObjectId> = range.proof.members.iter().map(|m| m.oid).collect();
            let bytes = range.to_bytes();
            if bytes.len() + oids.len() * 8 + 16 > MAX_FRAME {
                conn.refuse(
                    ErrorCode::BadRequest,
                    "range proof exceeds frame cap; tighten the bounds",
                    env,
                );
                return;
            }
            env.obs.range_requests.inc();
            conn.queue_frame(&Message::RangeResp { oids, proof: bytes }, true, env);
        }
        _ => {
            conn.refuse_and_close(
                ErrorCode::BadRequest,
                0,
                "expected FETCH, RESUME, QUERY, RANGE, AE, or STATS",
                env,
            );
        }
    }
}

/// Tries to answer a miss on `oid` with a signed non-membership proof.
///
/// Returns `false` (caller falls back to `ERR unknown-object`) when the
/// catalog has no signing identity — or when `oid` actually has records
/// in the shard tree, since a present ID admits no honest gap proof: an
/// offered-list miss on a present object stays a plain error rather than
/// a forged denial.
fn deny<S: Read + Write>(conn: &mut Conn<S>, oid: ObjectId, env: &Env, ten: &TenantEnv) -> bool {
    if ten.catalog.signer.is_none() {
        return false;
    }
    let (tree, Some(root)) = ten.shard_view() else {
        return false;
    };
    let Some(proof) = DenialProof::prove(&tree, oid) else {
        return false;
    };
    let denial = SignedDenial {
        root: (*root).clone(),
        proof,
    };
    env.obs.denials.inc();
    conn.queue_frame(
        &Message::Denial {
            proof: denial.to_bytes(),
        },
        true,
        env,
    );
    true
}

/// Looks up `oid`'s provenance rows, answering misses with a signed
/// DENIAL proof when the catalog can produce one, else `ERR
/// unknown-object` (the connection stays usable either way).
fn lookup<S: Read + Write>(
    conn: &mut Conn<S>,
    oid: ObjectId,
    env: &Env,
    ten: &TenantEnv,
) -> Option<Vec<StoredRecord>> {
    let miss = if !ten.catalog.is_offered(oid) || !ten.catalog.forest.contains(oid) {
        "is not offered"
    } else {
        match collect_rows(&ten.catalog.db, oid) {
            Ok(p) => return Some(p),
            Err(_) => "has no provenance",
        }
    };
    if !deny(conn, oid, env, ten) {
        let detail = format!("object {oid} {miss}");
        conn.refuse(ErrorCode::UnknownObject, detail, env);
    }
    None
}

/// Begins streaming `rows` (from `skip` onward — rows are already sorted
/// by `(output_oid, seq_id)`, the topological order the client's
/// streaming verifier requires) followed by the full data subtree and
/// DONE with whole-object totals.
fn start_stream<S: Read + Write>(
    conn: &mut Conn<S>,
    oid: ObjectId,
    mut rows: Vec<StoredRecord>,
    skip: usize,
    env: &Env,
    ten: &TenantEnv,
    now: Instant,
) {
    let records = rows.len() as u64;
    rows.drain(..skip);
    conn.job = Some(StreamJob::new(rows, records, ten.catalog.data_entries(oid)));
    conn.state = ConnState::Streaming;
    pump(conn, env, now);
}

/// The next `DATA` chunk: entries greedily packed by actual encoded size
/// so no frame exceeds the chunk target by more than one entry (the
/// grouping is deterministic, so resumed transfers stay byte-identical).
fn next_data_chunk(job: &mut StreamJob) -> Vec<DataEntry> {
    let mut chunk = Vec::new();
    let mut chunk_bytes = 0usize;
    while let Some(entry) = job.data.as_slice().first() {
        job.scratch.clear();
        encode_value(&entry.value, &mut job.scratch);
        let entry_bytes = 10 + job.scratch.len();
        if !chunk.is_empty() && chunk_bytes + entry_bytes > DATA_CHUNK_BYTES {
            break;
        }
        chunk_bytes += entry_bytes;
        chunk.extend(job.data.next());
    }
    chunk
}

/// Advances a streaming job: queues PROV/DATA/DONE frames until the job
/// finishes or the write buffer reaches its high watermark (fairness —
/// `POLLOUT` resumes it later), then flushes. Each further
/// `DATA_CHUNK_BYTES` queued is flushed on the way, so a long stream
/// trickles out instead of waiting for the watermark. The request's
/// deadline is checked between frames; exceeding it sends `ERR deadline`
/// and closes, which a resuming client treats as a retryable cut.
pub(super) fn pump<S: Read + Write>(conn: &mut Conn<S>, env: &Env, now: Instant) {
    let mut flush_at = conn.pending_write() + DATA_CHUNK_BYTES;
    while !conn.closed && conn.state == ConnState::Streaming && conn.pending_write() < WBUF_HIGH {
        if conn.pending_write() >= flush_at {
            conn.flush(&env.obs, now);
            flush_at = conn.pending_write() + DATA_CHUNK_BYTES;
            continue;
        }
        let Some(done_queued) = conn.job.as_ref().map(|j| j.done_queued) else {
            conn.state = ConnState::Ready;
            break;
        };
        if !done_queued && past_deadline(conn.deadline) {
            refuse_deadline(conn, env);
            break;
        }
        let job = conn.job.as_mut().expect("streaming connection owns a job");
        match job.next_frame() {
            Some(msg) => conn.queue_frame(&msg, true, env),
            None => {
                conn.job = None;
                conn.state = ConnState::Ready;
                // The idle clock measures silence *between* requests: it
                // starts when the reply ends, not when the request arrived.
                conn.read_activity = now;
            }
        }
    }
    conn.flush(&env.obs, now);
}

/// Fills the read buffer and parses/dispatches every complete frame
/// buffered so far. Returns after the connection stops wanting reads
/// (streaming, draining, closed) or the buffer runs dry; pipelined
/// requests left in `rbuf` are picked up when the state returns to
/// `Ready`.
pub(super) fn service_readable<S: Read + Write>(conn: &mut Conn<S>, env: &Env, now: Instant) {
    let outcome = conn.fill(now);
    if matches!(outcome, FillOutcome::Error) {
        conn.close_aborting(&env.obs);
        return;
    }
    drain_parsed_frames(conn, env, now);
    if matches!(outcome, FillOutcome::Eof)
        && !conn.closed
        && matches!(conn.state, ConnState::Handshake | ConnState::Ready)
    {
        // Clean close from the peer: flush whatever is queued, then close.
        conn.drain_then_close();
    }
    conn.flush(&env.obs, now);
}

/// Parses and dispatches buffered frames while the connection is in a
/// frame-accepting state.
fn drain_parsed_frames<S: Read + Write>(conn: &mut Conn<S>, env: &Env, now: Instant) {
    while conn.wants_read() {
        match conn.try_parse(&env.obs) {
            Ok(Some(msg)) => {
                let started = Instant::now();
                let in_ready = conn.state == ConnState::Ready;
                if !run_isolated(&env.obs.worker_panics, || dispatch(conn, msg, env, now)) {
                    // The dispatch panicked mid-flight; its state is gone
                    // (unwound), so the connection cannot continue.
                    conn.close_now();
                }
                if in_ready {
                    env.obs.turnaround.observe_duration(started.elapsed());
                }
            }
            Ok(None) => return,
            Err(_) => {
                // Oversized/corrupt/malformed frame: the stream is
                // poisoned — drop it (no protocol answer is trustworthy).
                conn.close_now();
                return;
            }
        }
    }
}
