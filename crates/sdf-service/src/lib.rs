//! Synthesis as a service.
//!
//! One Request/Response API over the `sdfmem` synthesis engine, with
//! two transports:
//!
//! - **in-process** — the CLI subcommands build a [`ServiceRequest`],
//!   call [`execute_request`] and render the typed
//!   [`ServiceResponse`];
//! - **wire** — the `sdfmemd` daemon ([`Server`]) accepts the same
//!   requests as line-delimited JSON over TCP, runs them on a bounded
//!   worker pool behind a content-addressed LRU result cache, and
//!   streams back response envelopes a [`Client`] can consume.
//!
//! The service contract that shapes everything here: **a cached
//! response is byte-identical to a freshly computed one.** Cache keys
//! are fingerprints of a canonical request form (op + options +
//! re-printed graph text, actor order preserved), entries verify the
//! canonical text so hash collisions cannot leak foreign results, and
//! workers never install a global trace recorder (which would bleed
//! cross-job counter totals into `engine_report` bytes). The daemon's
//! own observability — `service.*` counters, gauges and latency
//! histograms, per-job `service.job` spans, a bounded flight recorder
//! of per-request summaries — lives on a private
//! [`sdf_trace::Recorder`] and is exported through the `stats`,
//! `metrics` (Prometheus-style exposition text) and `events`
//! (flight-recorder drain) operations.
//!
//! Every request additionally carries its own story back to the
//! client: the response envelope's `telemetry` member (cache status,
//! queue wait, service time, per-stage span tree, counter deltas) is
//! composed per request *outside* the cached payload bytes, so the
//! byte-identity contract and per-request observability coexist.
//!
//! Module map:
//!
//! | module | contents |
//! |---|---|
//! | [`api`] | [`ServiceRequest`] / [`ServiceResponse`], wire envelopes, the in-process backend |
//! | [`hash`] | dependency-free 128-bit FNV-1a content fingerprints |
//! | [`cache`] | bounded LRU result cache with collision verification |
//! | [`job`] | job state machine and the bounded work queue |
//! | [`session`] | incremental edit sessions sharing a cross-request memo store |
//! | [`server`] | the `sdfmemd` TCP daemon |
//! | [`client`] | blocking wire client with verbatim payload extraction |

#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod client;
pub mod explain;
pub mod hash;
pub mod job;
pub mod server;
pub mod session;

pub use api::{
    execute_request, execute_request_cached, execute_request_cached_timed, execute_request_timed,
    lower_plan, parse_edits_input, parse_graph_input, ErrorCode, MemoryModel, OrderMethod,
    RequestTelemetry, ResponsePayload, ServiceError, ServiceRequest, ServiceResponse,
};
pub use cache::{CacheLookup, ResultCache};
pub use client::{Client, WireError, WireResponse};
pub use explain::{ExplainLedgerEntry, ExplainRejectedGap, ExplainReport, ExplainTimelinePoint};
pub use hash::fingerprint;
pub use job::{Job, JobOutcome, JobQueue, JobState};
pub use server::{Server, ServerConfig, MAX_REQUEST_BYTES};
pub use session::SessionRegistry;
