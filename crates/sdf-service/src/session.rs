//! Daemon-side incremental sessions for the `edit` operation.
//!
//! A [`SessionRegistry`] keeps a bounded pool of
//! [`IncrementalSession`]s keyed by the fingerprint of their current
//! graph's canonical text, all sharing one cross-request
//! [`MemoStore`]. An `edit` request naming a base graph the registry
//! has seen applies the edits to that session (a *delta* run: the
//! engine on the edited graph, chain-DP cells resolved from the warm
//! store); an unknown base falls back to a cold synthesis that *seeds*
//! a session, so the next edit against the edited graph chains. After
//! every edit the session is re-keyed under the edited graph's
//! fingerprint.
//!
//! The payload stays deterministic either way: a session run is an
//! [`AnalysisBuilder`] run with a memo store installed, bit-identical
//! to a cold run without one, and the payload is assembled by the same
//! `edit_payload` the stateless in-process backend uses.
//! Session-history-dependent numbers — memo hits, elapsed time —
//! travel in [`DeltaStats`], which the daemon worker folds into its
//! private recorder and the per-request telemetry, never into cached
//! payload bytes.
//!
//! [`AnalysisBuilder`]: sdfmem::engine::AnalysisBuilder

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use sdf_sched::memo::{MemoStats, MemoStore};
use sdf_trace::StageSpan;
use sdfmem::engine::SynthesisOptions;
use sdfmem::incremental::{apply_edits, DeltaStats, IncrementalSession};

use crate::api::{
    edit_payload, parse_edits_input, parse_graph_input, ServiceError, ServiceResponse, StageClock,
};
use crate::hash::fingerprint;

/// How many live sessions the registry retains (LRU eviction). Each
/// session holds one graph; the shared memo store is bounded
/// separately.
const SESSION_CAPACITY: usize = 32;

/// A bounded pool of incremental sessions sharing one memo store.
pub struct SessionRegistry {
    memo: Arc<MemoStore>,
    inner: Mutex<Inner>,
}

struct Inner {
    sessions: HashMap<String, IncrementalSession>,
    /// Recency order for LRU eviction, least recently used at the
    /// front; keys here are always present in `sessions` and vice
    /// versa. `take_session` removes a key and every insert pushes it
    /// to the back, so a session touched by an edit moves to the back
    /// even when its fingerprint is unchanged.
    order: VecDeque<String>,
}

impl Default for SessionRegistry {
    fn default() -> Self {
        SessionRegistry::new()
    }
}

impl SessionRegistry {
    /// An empty registry with a fresh shared [`MemoStore`].
    pub fn new() -> SessionRegistry {
        SessionRegistry {
            memo: Arc::new(MemoStore::new()),
            inner: Mutex::new(Inner {
                sessions: HashMap::new(),
                order: VecDeque::new(),
            }),
        }
    }

    /// Point-in-time stats of the shared memo store.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo.stats()
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.inner.lock().map(|i| i.sessions.len()).unwrap_or(0)
    }

    fn take_session(&self, key: &str) -> Option<IncrementalSession> {
        let mut inner = self.inner.lock().ok()?;
        let session = inner.sessions.remove(key)?;
        inner.order.retain(|k| k != key);
        Some(session)
    }

    fn insert_session(&self, key: String, session: IncrementalSession) {
        let Ok(mut inner) = self.inner.lock() else {
            return;
        };
        if inner.sessions.insert(key.clone(), session).is_some() {
            // Overwriting an existing key is a use: move it to the
            // most-recently-used end instead of leaving it at its old
            // (possibly about-to-be-evicted) position.
            inner.order.retain(|k| k != &key);
        }
        inner.order.push_back(key);
        while inner.sessions.len() > SESSION_CAPACITY {
            let Some(oldest) = inner.order.pop_front() else {
                break;
            };
            inner.sessions.remove(&oldest);
        }
    }

    /// Executes an `edit` request against the registry: delta path when
    /// the base graph has a live session, cold synthesis (seeding one)
    /// otherwise. Returns the response, the measured stage tree, and —
    /// when the engine ran — the delta statistics for the caller's
    /// recorder. The payload is byte-identical to the stateless
    /// [`execute_request`](crate::api::execute_request) path.
    pub fn execute_edit_timed(
        &self,
        graph_text: &str,
        edits_text: &str,
    ) -> (ServiceResponse, Vec<StageSpan>, Option<DeltaStats>) {
        let mut clock = StageClock::new();
        let mut stats = None;
        let response = match self.edit_inner(graph_text, edits_text, &mut clock, &mut stats) {
            Ok(payload) => ServiceResponse::Ok(payload),
            Err(error) => ServiceResponse::Err(error),
        };
        (response, clock.stages, stats)
    }

    fn edit_inner(
        &self,
        graph_text: &str,
        edits_text: &str,
        clock: &mut StageClock,
        stats_out: &mut Option<DeltaStats>,
    ) -> Result<crate::api::ResponsePayload, ServiceError> {
        let (base, script) = clock.time("parse", || {
            let g = parse_graph_input(graph_text)?;
            let s = parse_edits_input(edits_text)?;
            Ok::<_, ServiceError>((g, s))
        })?;
        // The payload's edited graph is computed directly from the
        // request — never from session state — so its bytes cannot
        // depend on what the registry happens to remember.
        let edited = clock.time("apply", || {
            apply_edits(&base, &script).map_err(|e| ServiceError::engine(e.to_string()))
        })?;
        let base_key = fingerprint(&sdf_core::io::to_text(&base));
        let session = self.take_session(&base_key);
        let result = clock.time("engine", || match session {
            Some(mut session) => match session.apply_edits(&script) {
                Ok(result) => Ok((session, result)),
                Err(e) => {
                    // apply_edits keeps the session's previous state on
                    // error, so the stream is not wedged by a bad edit.
                    self.insert_session(base_key.clone(), session);
                    Err(ServiceError::engine(e.to_string()))
                }
            },
            None => {
                let mut session =
                    IncrementalSession::with_store(SynthesisOptions::default(), self.memo.clone());
                session
                    .synthesize(&edited)
                    .map(|result| (session, result))
                    .map_err(|e| ServiceError::engine(e.to_string()))
            }
        });
        let (session, result) = result?;
        let edited_key = fingerprint(&sdf_core::io::to_text(&edited));
        self.insert_session(edited_key, session);
        *stats_out = Some(result.stats);
        edit_payload(&base, edited, result.analysis, script.ops.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{execute_request, ErrorCode, ServiceRequest};

    const FIG2: &str = "graph fig2\nedge A B 20 10\nedge B C 20 10\n";

    fn payload_json(response: &ServiceResponse) -> String {
        match response {
            ServiceResponse::Ok(p) => p.to_json(),
            other => panic!("unexpected response status: {}", other.status()),
        }
    }

    #[test]
    fn cold_then_delta_bytes_match_stateless_path() {
        let registry = SessionRegistry::new();
        let edits = "set-rate A B 40 10\n";
        let stateless = execute_request(&ServiceRequest::Edit {
            graph: FIG2.into(),
            edits: edits.into(),
        });
        // Cold (no session for FIG2 yet).
        let (cold, _, cold_stats) = registry.execute_edit_timed(FIG2, edits);
        let cold_stats = cold_stats.expect("stats on success");
        assert!(cold_stats.cold);
        assert_eq!(payload_json(&cold), payload_json(&stateless));
        assert_eq!(registry.session_count(), 1);
        // Same request again: the session was re-keyed under the edited
        // graph, so the base FIG2 is once more unknown — still cold,
        // still identical bytes.
        let (again, _, again_stats) = registry.execute_edit_timed(FIG2, edits);
        assert!(again_stats.expect("stats").cold);
        assert_eq!(payload_json(&again), payload_json(&stateless));
    }

    #[test]
    fn chained_edit_rides_the_delta_path() {
        let registry = SessionRegistry::new();
        let (first, _, _) = registry.execute_edit_timed(FIG2, "set-delay A B 5\n");
        assert!(matches!(first, ServiceResponse::Ok(_)));
        // The edited graph's text is FIG2 with a delay on A->B; an edit
        // whose base is that graph finds the live session.
        let edited = "graph fig2\nedge A B 20 10 delay 5\nedge B C 20 10\n";
        let next_edits = "set-delay A B 7\n";
        let (second, _, stats) = registry.execute_edit_timed(edited, next_edits);
        let stats = stats.expect("stats on success");
        assert!(!stats.cold, "chained edit should take the delta path");
        let stateless = execute_request(&ServiceRequest::Edit {
            graph: edited.into(),
            edits: next_edits.into(),
        });
        assert_eq!(payload_json(&second), payload_json(&stateless));
    }

    #[test]
    fn bad_edit_keeps_the_session_alive() {
        let registry = SessionRegistry::new();
        let (_, _, _) = registry.execute_edit_timed(FIG2, "set-delay A B 5\n");
        let edited = "graph fig2\nedge A B 20 10 delay 5\nedge B C 20 10\n";
        let (err, _, stats) = registry.execute_edit_timed(edited, "remove-edge X Y\n");
        assert!(matches!(err, ServiceResponse::Err(_)));
        assert!(stats.is_none());
        assert_eq!(registry.session_count(), 1, "session survives a bad edit");
        // And the stream continues on the delta path afterwards.
        let (ok, _, stats) = registry.execute_edit_timed(edited, "set-delay A B 9\n");
        assert!(matches!(ok, ServiceResponse::Ok(_)));
        assert!(!stats.expect("stats").cold);
    }

    #[test]
    fn overflowing_edits_return_error_envelopes() {
        // Each script drives a repetitions count past u64. Seed a session
        // keyed by FIG2 first, so the edits take the delta path as well
        // as the stateless one; both must answer with an engine error,
        // not a panic, and the session must survive.
        let registry = SessionRegistry::new();
        let (seed, _, _) = registry.execute_edit_timed(
            "graph fig2\nedge A B 20 10 delay 1\nedge B C 20 10\n",
            "set-delay A B 0\n",
        );
        assert!(matches!(seed, ServiceResponse::Ok(_)));
        for edits in [
            "set-rate A B 18446744073709551615 1\n",
            "add-edge C D 4294967296 1\nadd-edge D E 4294967296 1\nadd-edge E F 4294967296 1\n",
        ] {
            let stateless = execute_request(&ServiceRequest::Edit {
                graph: FIG2.into(),
                edits: edits.into(),
            });
            let (delta, _, stats) = registry.execute_edit_timed(FIG2, edits);
            assert!(stats.is_none(), "{edits}");
            for response in [&stateless, &delta] {
                let ServiceResponse::Err(error) = response else {
                    panic!("{edits}: expected an error, got {}", response.status());
                };
                assert_eq!(error.code, ErrorCode::EngineError, "{edits}");
                assert!(error.message.contains("overflow"), "{}", error.message);
                let line = response.to_json("r1", false);
                assert!(line.contains("\"status\":\"error\""), "{line}");
            }
        }
        assert_eq!(registry.session_count(), 1, "session survives the errors");
        let (ok, _, stats) = registry.execute_edit_timed(FIG2, "set-delay A B 2\n");
        assert!(matches!(ok, ServiceResponse::Ok(_)));
        assert!(!stats.expect("stats").cold);
    }

    #[test]
    fn registry_is_lru_bounded() {
        let registry = SessionRegistry::new();
        let base = |i: usize| format!("graph g{i}\nedge A B {} 10\nedge B C 20 10\n", 10 * (i + 1));
        let edited = |i: usize, d: u64| {
            format!(
                "graph g{i}\nedge A B {} 10 delay {d}\nedge B C 20 10\n",
                10 * (i + 1)
            )
        };
        // Fill to capacity; each session ends up keyed by its edited
        // graph (delay 1 on A->B).
        for i in 0..SESSION_CAPACITY {
            let (resp, _, _) = registry.execute_edit_timed(&base(i), "set-delay A B 1\n");
            assert!(matches!(resp, ServiceResponse::Ok(_)));
        }
        assert_eq!(registry.session_count(), SESSION_CAPACITY);
        // Touch session 0, the least recently used: its edit rides the
        // delta path and must move it to the most-recently-used end.
        let (touch, _, stats) = registry.execute_edit_timed(&edited(0, 1), "set-delay A B 2\n");
        assert!(matches!(touch, ServiceResponse::Ok(_)));
        assert!(!stats.expect("stats").cold, "touch rides the delta path");
        // A brand-new session overflows the bound. FIFO would evict the
        // just-touched session 0; LRU evicts session 1 instead.
        let (fresh, _, _) =
            registry.execute_edit_timed(&base(SESSION_CAPACITY), "set-delay A B 1\n");
        assert!(matches!(fresh, ServiceResponse::Ok(_)));
        assert_eq!(registry.session_count(), SESSION_CAPACITY);
        // The hot session survived the eviction...
        let (s0, _, stats) = registry.execute_edit_timed(&edited(0, 2), "set-delay A B 3\n");
        assert!(matches!(s0, ServiceResponse::Ok(_)));
        assert!(!stats.expect("stats").cold, "hot session was evicted");
        // ...and the least recently used one was the victim.
        let (s1, _, stats) = registry.execute_edit_timed(&edited(1, 1), "set-delay A B 3\n");
        assert!(matches!(s1, ServiceResponse::Ok(_)));
        assert!(stats.expect("stats").cold, "LRU victim should be gone");
    }
}
