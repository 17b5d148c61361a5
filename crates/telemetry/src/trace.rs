//! Trace context: structured trial / request / segment ids attached to
//! journal records.
//!
//! Aggregate counters answer *how much* and the journal answers *when*;
//! neither answers *which trial* (or which transfer, or which segment) an
//! event belongs to. This module carries that causal identity as a
//! thread-local [`TraceCtx`] installed via RAII scopes: the pipeline's
//! [`crate::stage::trial_scope`] installs a [`trial_scope`] per seeded
//! trial, `evaluate_transfers` opens a
//! [`request_scope`] per transfer and a [`segment_scope`] per segment, and
//! [`crate::journal::record`] snapshots the current context into every
//! event it writes. Exports then group Chrome-trace tracks per trial and
//! the `report` analyzer attributes stage time to individual trials.
//!
//! Scopes restore the previous context on drop, so nesting works the
//! obvious way and a scope never leaks across trials. Installing a scope
//! is three thread-local word writes — cheap enough to leave
//! unconditional, so the ids are always correct when recording turns on
//! mid-scope.

use std::cell::Cell;

/// The causal identity of the work currently executing on this thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// Trial id (the trial's RNG seed — unique within a run).
    pub trial: Option<u64>,
    /// Request (transfer) index within the trial.
    pub request: Option<u64>,
    /// Segment index within the transfer.
    pub segment: Option<u64>,
}

impl TraceCtx {
    /// The empty context (no ids set).
    pub const EMPTY: TraceCtx = TraceCtx {
        trial: None,
        request: None,
        segment: None,
    };
}

thread_local! {
    static CURRENT: Cell<TraceCtx> = const { Cell::new(TraceCtx::EMPTY) };
}

/// The context currently installed on this thread.
#[inline]
pub fn current() -> TraceCtx {
    CURRENT.with(Cell::get)
}

/// RAII guard restoring the previously installed context on drop.
#[must_use = "a context scope uninstalls on drop; binding it to _ drops it immediately"]
#[derive(Debug)]
pub struct CtxScope {
    saved: TraceCtx,
}

impl Drop for CtxScope {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.saved));
    }
}

fn install(ctx: TraceCtx) -> CtxScope {
    CtxScope {
        saved: CURRENT.with(|c| c.replace(ctx)),
    }
}

/// Enters a trial: sets the trial id and clears any stale request /
/// segment ids from an enclosing scope.
pub fn trial_scope(trial: u64) -> CtxScope {
    install(TraceCtx {
        trial: Some(trial),
        request: None,
        segment: None,
    })
}

/// Enters a request (transfer) within the current trial; clears any stale
/// segment id.
pub fn request_scope(request: u64) -> CtxScope {
    let mut ctx = current();
    ctx.request = Some(request);
    ctx.segment = None;
    install(ctx)
}

/// Enters a segment within the current request.
pub fn segment_scope(segment: u64) -> CtxScope {
    let mut ctx = current();
    ctx.segment = Some(segment);
    install(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_nest_and_restore() {
        assert_eq!(current(), TraceCtx::EMPTY);
        {
            let _t = trial_scope(42);
            assert_eq!(current().trial, Some(42));
            {
                let _r = request_scope(3);
                assert_eq!(current().trial, Some(42));
                assert_eq!(current().request, Some(3));
                {
                    let _s = segment_scope(1);
                    assert_eq!(
                        current(),
                        TraceCtx {
                            trial: Some(42),
                            request: Some(3),
                            segment: Some(1),
                        }
                    );
                }
                assert_eq!(current().segment, None);
            }
            assert_eq!(current().request, None);
        }
        assert_eq!(current(), TraceCtx::EMPTY);
    }

    #[test]
    fn new_trial_clears_request_and_segment() {
        let _r = request_scope(9);
        let _s = segment_scope(2);
        let _t = trial_scope(7);
        assert_eq!(
            current(),
            TraceCtx {
                trial: Some(7),
                request: None,
                segment: None,
            }
        );
    }

    #[test]
    fn contexts_are_thread_local() {
        let _t = trial_scope(11);
        std::thread::scope(|s| {
            // analyzer:allow(scoped-flush): touches only the thread-local
            // trace context — `trial_scope` here is trace::trial_scope; the
            // recorder hit is stage::trial_scope via name-level resolution
            s.spawn(|| {
                assert_eq!(current(), TraceCtx::EMPTY);
                let _t = trial_scope(12);
                assert_eq!(current().trial, Some(12));
            });
        });
        assert_eq!(current().trial, Some(11));
    }
}
