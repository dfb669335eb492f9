//! Hierarchical wall-time spans.
//!
//! A span is a labelled region of wall time. Nesting is tracked per
//! thread (a thread-local stack), and spans opened on threads with no
//! open parent of their own — `par_map` workers — attach under the
//! installer thread's innermost open span, so a phase's worker time shows
//! up inside that phase in the report.
//!
//! Zero-cost-when-off: [`span`] checks one relaxed atomic and runs the
//! closure directly unless a collector was installed. When collecting,
//! span entry/exit takes a short global lock — spans in this codebase are
//! coarse (pipeline phases), so contention is irrelevant.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread::ThreadId;
use std::time::Instant;

/// One node of the reported span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// The label given to [`span`].
    pub label: String,
    /// Wall time spent inside the span, in nanoseconds.
    pub wall_nanos: u64,
    /// Spans opened while this one was the innermost, in open order.
    pub children: Vec<SpanNode>,
}

#[derive(Debug)]
struct Rec {
    label: String,
    parent: Option<usize>,
    start: Instant,
    nanos: Option<u64>,
}

#[derive(Debug)]
struct Collector {
    recs: Vec<Rec>,
    /// Monotonic take-generation: guards against a span closing across a
    /// [`take_spans`] boundary and touching a recycled index.
    session: u64,
    installer: ThreadId,
    /// The installer thread's open-span stack, mirrored here so orphan
    /// threads can adopt its innermost span as their parent.
    fallback: Vec<usize>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTOR: Mutex<Option<Collector>> = Mutex::new(None);

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn lock() -> std::sync::MutexGuard<'static, Option<Collector>> {
    COLLECTOR.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Install (or reset) the span collector on the calling thread. From this
/// point [`span`] records; the caller's thread becomes the parent anchor
/// for spans opened on worker threads.
pub fn install_collector() {
    let mut guard = lock();
    let session = guard.as_ref().map_or(0, |c| c.session + 1);
    *guard = Some(Collector {
        recs: Vec::new(),
        session,
        installer: std::thread::current().id(),
        fallback: Vec::new(),
    });
    drop(guard);
    ENABLED.store(true, Ordering::Release);
}

/// Whether a collector is currently installed.
pub fn collector_installed() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

struct SpanGuard {
    /// `(session, index)` of the opened rec; `None` when not collecting.
    opened: Option<(u64, usize)>,
}

impl SpanGuard {
    fn enter(label: &str) -> Self {
        let mut guard = lock();
        let Some(col) = guard.as_mut() else {
            return Self { opened: None };
        };
        let parent = STACK
            .with(|s| s.borrow().last().copied())
            .or_else(|| col.fallback.last().copied());
        let id = col.recs.len();
        col.recs.push(Rec {
            label: label.to_string(),
            parent,
            start: Instant::now(),
            nanos: None,
        });
        if std::thread::current().id() == col.installer {
            col.fallback.push(id);
        }
        let session = col.session;
        drop(guard);
        STACK.with(|s| s.borrow_mut().push(id));
        Self { opened: Some((session, id)) }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((session, id)) = self.opened else {
            return;
        };
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            debug_assert_eq!(stack.last(), Some(&id), "span exit out of order");
            stack.pop();
        });
        let mut guard = lock();
        let Some(col) = guard.as_mut() else {
            return;
        };
        if col.session != session {
            return; // the tree was taken while this span was open
        }
        if let Some(rec) = col.recs.get_mut(id) {
            rec.nanos = Some(u64::try_from(rec.start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        if std::thread::current().id() == col.installer && col.fallback.last() == Some(&id) {
            col.fallback.pop();
        }
    }
}

/// Run `f` inside a span labelled `label`.
///
/// Without an installed collector this is `f()` plus one relaxed atomic
/// load. The span closes when `f` returns *or unwinds*, so a panicking
/// phase still leaves a well-formed tree.
pub fn span<R>(label: &str, f: impl FnOnce() -> R) -> R {
    if !collector_installed() {
        return f();
    }
    let _guard = SpanGuard::enter(label);
    f()
}

/// Take the recorded span tree, leaving the collector installed and
/// empty. Spans still open at take time report their elapsed-so-far wall
/// time and will not be re-recorded when they close.
pub fn take_spans() -> Vec<SpanNode> {
    let mut guard = lock();
    let Some(col) = guard.as_mut() else {
        return Vec::new();
    };
    let recs = std::mem::take(&mut col.recs);
    col.fallback.clear();
    col.session += 1;

    // Children always allocate after their parent, so a reverse walk can
    // move every node into its parent; per-node child order is restored
    // afterwards.
    let mut nodes: Vec<Option<SpanNode>> = recs
        .iter()
        .map(|r| {
            Some(SpanNode {
                label: r.label.clone(),
                wall_nanos: r.nanos.unwrap_or_else(|| {
                    u64::try_from(r.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
                }),
                children: Vec::new(),
            })
        })
        .collect();
    let mut roots = Vec::new();
    for id in (0..recs.len()).rev() {
        let node = nodes[id].take().expect("each node moved once");
        match recs[id].parent {
            Some(p) => nodes[p].as_mut().expect("parent not yet moved").children.push(node),
            None => roots.push(node),
        }
    }
    roots.reverse();
    fn restore_order(node: &mut SpanNode) {
        node.children.reverse();
        for c in &mut node.children {
            restore_order(c);
        }
    }
    for r in &mut roots {
        restore_order(r);
    }
    roots
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The collector is process-global, so span tests serialize on this.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    #[test]
    fn no_collector_is_a_passthrough() {
        let _t = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        // Not installed in this process yet (or taken): span must still run.
        assert_eq!(span("x", || 41 + 1), 42);
    }

    #[test]
    fn nested_spans_build_a_tree() {
        let _t = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        install_collector();
        span("outer", || {
            span("a", || ());
            span("b", || span("b1", || ()));
        });
        let roots = take_spans();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].label, "outer");
        let kids: Vec<&str> = roots[0].children.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(kids, ["a", "b"]);
        assert_eq!(roots[0].children[1].children[0].label, "b1");
        assert!(take_spans().is_empty(), "take drains the tree");
    }

    #[test]
    fn worker_thread_spans_adopt_the_installer_phase() {
        let _t = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        install_collector();
        span("phase", || {
            std::thread::scope(|s| {
                s.spawn(|| span("worker", || ()));
            });
        });
        let roots = take_spans();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].children.len(), 1);
        assert_eq!(roots[0].children[0].label, "worker");
    }

    #[test]
    fn panicking_span_still_closes() {
        let _t = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        install_collector();
        let caught = std::panic::catch_unwind(|| span("boom", || panic!("x")));
        assert!(caught.is_err());
        span("after", || ());
        let roots = take_spans();
        let labels: Vec<&str> = roots.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["boom", "after"], "panicked span closed at root level");
    }
}
