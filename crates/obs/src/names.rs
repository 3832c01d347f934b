//! Canonical metric names for the tep-net transfer path.
//!
//! The rest of the workspace registers counters ad hoc with string
//! literals; the net server's degradation counters are shared between the
//! server (which increments them), the chaos harness (which asserts on
//! them), and the docs — so their names live here, in one place, instead
//! of being retyped in every crate. Names follow the
//! `tep_<crate>_<name>_total` schema from DESIGN.md §"Observability".

/// Renders `base` with a Prometheus-style `tenant` label. The registry
/// keys metrics by their full name string, so
/// `with_tenant(NET_SHED, 3)` = `tep_net_shed_total{tenant="t3"}` is an
/// independent counter from the unlabeled aggregate — per-tenant
/// attribution without the registry growing a label system. Every
/// tenant-scoped metric in the workspace (evidence, shed, quota,
/// quarantine) goes through this one formatter so scrapers see a single
/// consistent label schema.
pub fn with_tenant(base: &str, tenant: u64) -> String {
    format!("{base}{{tenant=\"t{tenant}\"}}")
}

/// Connections accepted (or refused) by the server's accept loop.
pub const NET_CONNECTIONS: &str = "tep_net_connections_total";

/// Connections refused with `ERR busy` because the hand-off queue was at
/// its hard cap.
pub const NET_BUSY_REJECTIONS: &str = "tep_net_busy_rejections_total";

/// FETCH requests served (successfully or not).
pub const NET_FETCHES: &str = "tep_net_fetches_total";

/// RESUME requests served — accepted resumptions *and* refused mismatches
/// both count; `tep_core_evidence_resume_mismatch_total` separates them.
pub const NET_RESUMES: &str = "tep_net_resumes_total";

/// STATS requests served.
pub const NET_STATS_REQUESTS: &str = "tep_net_stats_requests_total";

/// QUERY requests served (successfully or not); the per-operator split
/// lives in `tep_query_requests_<op>_total`.
pub const NET_QUERIES: &str = "tep_net_queries_total";

/// Connections shed at the load-shedding watermark with `ERR busy` +
/// a `Retry-After` hint (a subset of, or equal to, busy rejections).
pub const NET_SHED: &str = "tep_net_shed_total";

/// Connections closed because they exceeded the per-connection deadline
/// (the client is told via `ERR deadline` and may reconnect + RESUME).
pub const NET_DEADLINE_CLOSES: &str = "tep_net_deadline_closes_total";

/// HELLOs refused with the typed, non-retryable `ERR unknown-tenant`
/// because the stated tenant is not in the server's [`TenantDirectory`]
/// or has been disabled. Distinct from `busy`/shed: retrying cannot
/// help, so clients must not burn retry budget on it. Also emitted
/// per-tenant via [`with_tenant`] when the tenant id is at least known.
pub const NET_TENANT_REJECTIONS: &str = "tep_net_tenant_rejections_total";

/// Connections shed at HELLO because the stated tenant was over its
/// per-tenant connection quota — replied `ERR busy` with a
/// tenant-scaled `retry_after_ms`, so a greedy tenant backs off while
/// other tenants keep streaming. Always emitted both unlabeled
/// (aggregate) and via [`with_tenant`] (attribution).
pub const NET_TENANT_QUOTA_SHEDS: &str = "tep_net_tenant_quota_sheds_total";

/// Transfer writes aborted because the peer vanished mid-stream (socket
/// write failure during PROV/DATA/DONE) — distinguishable from shed and
/// panic counts in `render_text`.
pub const NET_WRITE_ABORTS: &str = "tep_net_write_aborts_total";

/// Requests a client completed on a connection it had kept from an
/// earlier request (no dial, no HELLO, no OFFER paid).
pub const NET_CONN_REUSES: &str = "tep_net_conn_reuses_total";

/// Kept connections a client found dead before any response frame arrived
/// (peer idle-closed, server restarted) and replaced with one immediate
/// dial — not a retry: no backoff, no attempt consumed.
pub const NET_STALE_REDIALS: &str = "tep_net_stale_redials_total";

/// Readiness wakeups: one per return from the event loop's `poll(2)` call.
/// Wall-clock dependent (a stalled peer wakes nobody; a chatty one wakes
/// the loop often), so this counter is **excluded** from the seeded
/// deterministic metrics block — it exists for live dashboards only.
pub const NET_EPOLL_WAKEUPS: &str = "tep_net_epoll_wakeups_total";

/// Gauge of connections the event loop currently owns, across every
/// state (handshake, ready, streaming, draining).
pub const NET_OPEN_CONNECTIONS: &str = "tep_net_open_connections";

/// Histogram of request-frame turnaround: nanoseconds from decoding a
/// complete FETCH/RESUME/STATS frame to its reply bytes being queued
/// (event-loop service time, not client-observed latency).
pub const NET_FRAME_TURNAROUND: &str = "tep_net_frame_turnaround_ns";

/// Gauge of connections currently in the `Handshake` state (accepted,
/// HELLO not yet answered).
pub const NET_CONNS_HANDSHAKE: &str = "tep_net_conns_handshake";

/// Gauge of connections currently in the `Ready` state (handshake done,
/// waiting for the next FETCH/RESUME/STATS request).
pub const NET_CONNS_READY: &str = "tep_net_conns_ready";

/// Gauge of connections currently in the `Streaming` state (a transfer
/// job is emitting PROV/DATA/DONE frames).
pub const NET_CONNS_STREAMING: &str = "tep_net_conns_streaming";

/// Gauge of connections currently in the `Draining` state (a terminal
/// reply is queued; the connection closes once it flushes).
pub const NET_CONNS_DRAINING: &str = "tep_net_conns_draining";

/// Anti-entropy node requests served by the server (AE_REQ frames
/// answered, summaries and node lookups alike).
pub const NET_AE_REQUESTS: &str = "tep_net_ae_requests_total";

/// Signed non-membership (DENIAL) proofs the server emitted in place of
/// plain `ERR unknown-object` — counts only proofs actually built and
/// framed, not misses a signerless server answered with an error.
pub const NET_DENIALS: &str = "tep_net_denials_total";

/// RANGE_REQ frames served with a signed completeness proof.
pub const NET_RANGE_REQUESTS: &str = "tep_net_range_requests_total";

/// Records a replica fetched, verified, and durably applied during
/// catch-up (counted after the batch fsync, so the counter never runs
/// ahead of what a power cycle preserves).
pub const NET_REPL_CATCHUP_RECORDS: &str = "tep_net_repl_catchup_records_total";

/// Catch-up sessions a replica resumed from a sealed verifier checkpoint
/// (as opposed to replaying its local log from offset 0).
pub const NET_REPL_CHECKPOINT_RESUMES: &str = "tep_net_repl_checkpoint_resumes_total";

/// Anti-entropy round trips spent across all passes (1 per converged
/// pass; `depth + 2` at most to locate a single divergent leaf).
pub const NET_REPL_ANTI_ENTROPY_ROUNDS: &str = "tep_net_repl_anti_entropy_rounds_total";

/// Anti-entropy passes that ended converged (roots agreed).
pub const NET_REPL_CONVERGED: &str = "tep_net_repl_converged_total";

/// Histogram of tree depths at which anti-entropy located a divergent
/// leaf — the observable form of the O(log n) round-trip claim.
pub const NET_REPL_DIVERGENCE_DEPTH: &str = "tep_net_repl_divergence_depth";

/// Gauge of this process's replication role: 0 = primary (serves
/// AE_REQ), 1 = replica (tails a primary).
pub const NET_REPL_ROLE: &str = "tep_net_repl_role";

/// QUERY requests served by the query engine, across all operators
/// (per-operator counters are `tep_query_requests_<op>_total`, named by
/// `QueryOp::counter_name`).
pub const QUERY_REQUESTS: &str = "tep_query_requests_total";

/// Completeness-proven range listings served by the query engine
/// (`QueryEngine::execute_range`).
pub const QUERY_RANGE_REQUESTS: &str = "tep_query_range_requests_total";

/// Histogram of records shipped per slice proof — the size of the
/// verifiable evidence a query answer drags along.
pub const QUERY_SLICE_RECORDS: &str = "tep_query_slice_records";

/// Histogram of nanoseconds spent building the secondary indexes from an
/// empty watermark (first sync over an existing log).
pub const QUERY_INDEX_BUILD_NS: &str = "tep_query_index_build_ns";

/// Histogram of nanoseconds spent in incremental index syncs (tailing
/// records appended since the last sync). Wall-clock valued, so only its
/// `_count` participates in the deterministic metrics block.
pub const QUERY_INDEX_SYNC_NS: &str = "tep_query_index_sync_ns";
