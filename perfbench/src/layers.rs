//! Attribution of wall time and heap allocations to the program's layers.
//!
//! The benchmark never instruments the program itself. It wraps its own calls
//! into each layer in a [`Scope`]: a host-agent call, an application poll, a
//! call into an `OverlayNode`, a shard-world handler, a `run_for` and each
//! set-up call. A scope always switches the allocation context, so every heap
//! allocation is counted against the innermost layer it happened in.
//!
//! With tracing on, a scope also times itself. Its self time (its duration
//! minus the time its child scopes cover) is added to its layer's total, and
//! the first [`SPAN_CAP`] spans (layer, parent, start, end) of a round are
//! kept in memory to be written out when the run ends.
//!
//! All state is thread-local: the workloads run on one thread, and tests that
//! run workloads side by side on several threads keep separate counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// A layer boundary the benchmark wraps.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// Outside every scope: the benchmark's own loop and bookkeeping (and
    /// the tracer's span buffer).
    Harness = 0,
    /// Set-up calls: topology builders, agent and node construction.
    Setup = 1,
    /// `NetworkSim::run_for`: the event queue and the netsim link/CPU model
    /// (the `simcore` and `netsim` layers).
    Engine = 2,
    /// A host-agent call into `IpopHostAgent`: the `core` layer with the
    /// `netstack` and `packet` code it runs.
    Agent = 3,
    /// A `VirtualApp` call inside an agent (the `apps` layer).
    App = 4,
    /// `ShardedSim::run_until`: slicing, the barrier merge and the queues.
    Barrier = 5,
    /// A shard-world handler: the benchmark's glue around one overlay call.
    Handler = 6,
    /// A call into an `OverlayNode` from the shard world.
    Overlay = 7,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 8;

/// Spans kept per round; self times cover every span regardless.
pub const SPAN_CAP: usize = 200_000;

impl Layer {
    /// Lower-case name used in span files.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Setup => "setup",
            Layer::Engine => "engine",
            Layer::Agent => "agent",
            Layer::App => "app",
            Layer::Barrier => "barrier",
            Layer::Handler => "handler",
            Layer::Overlay => "overlay",
        }
    }
}

/// One recorded span. `parent` indexes the enclosing span in the same
/// recording, [`NO_PARENT`] for a root span or one whose parent was not kept.
#[derive(Copy, Clone, Debug)]
pub struct Span {
    pub layer: Layer,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

thread_local! {
    static CURRENT: Cell<Layer> = const { Cell::new(Layer::Harness) };
    static ALLOCS: [Cell<u64>; LAYERS] = const { [const { Cell::new(0) }; LAYERS] };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK_LIVE: Cell<i64> = const { Cell::new(0) };
    static TRACING: Cell<bool> = const { Cell::new(false) };
    static SELF_NS: [Cell<u64>; LAYERS] = const { [const { Cell::new(0) }; LAYERS] };
    /// Time covered by the children of the innermost open scope so far.
    static CHILD_NS: Cell<u64> = const { Cell::new(0) };
    static OPEN: Cell<u32> = const { Cell::new(NO_PARENT) };
    static SPANS: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    static EPOCH: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Heap allocator that counts allocations per layer and tracks live bytes.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over. The bookkeeping only touches
// const-initialised thread-locals without destructors, which never allocate;
// `try_with` skips the count during thread teardown instead of panicking.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size() as i64);
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size() as i64);
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size() as i64);
        // SAFETY: forwarded verbatim; `ptr` came from this allocator (`System`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_free(layout.size() as i64);
        note_alloc(new_size as i64);
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn note_alloc(bytes: i64) {
    let _ = CURRENT.try_with(|cur| {
        let _ = ALLOCS.try_with(|a| {
            let c = &a[cur.get() as usize];
            c.set(c.get() + 1);
        });
    });
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes;
        live.set(now);
        let _ = PEAK_LIVE.try_with(|p| p.set(p.get().max(now)));
    });
}

fn note_free(bytes: i64) {
    let _ = LIVE.try_with(|live| live.set(live.get() - bytes));
}

/// Allocation counts per layer on this thread, indexed by `Layer as usize`.
pub fn alloc_counts() -> [u64; LAYERS] {
    ALLOCS.with(|a| std::array::from_fn(|i| a[i].get()))
}

/// Peak live heap bytes on this thread since the last [`reset_peak_live`].
pub fn peak_live_bytes() -> i64 {
    PEAK_LIVE.with(Cell::get)
}

/// Restart peak tracking from the current live byte count, which is
/// returned.
pub fn reset_peak_live() -> i64 {
    let live = LIVE.with(Cell::get);
    PEAK_LIVE.with(|p| p.set(live));
    live
}

/// Switch tracing on or off for this thread.
pub fn set_tracing(on: bool) {
    TRACING.with(|t| t.set(on));
}

/// Whether scopes are timed on this thread.
pub fn tracing() -> bool {
    TRACING.with(Cell::get)
}

/// Self nanoseconds per layer accumulated on this thread.
pub fn self_ns() -> [u64; LAYERS] {
    SELF_NS.with(|a| std::array::from_fn(|i| a[i].get()))
}

/// Nanoseconds since the first call on this thread.
pub fn now_ns() -> u64 {
    EPOCH.with(|e| {
        let epoch = e.get().unwrap_or_else(|| {
            let t = Instant::now();
            e.set(Some(t));
            t
        });
        epoch.elapsed().as_nanos() as u64
    })
}

/// Take the spans kept on this thread so far.
pub fn take_spans() -> Vec<Span> {
    SPANS.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

/// An open layer boundary; closing it (on drop) restores the enclosing
/// layer and, with tracing on, books its self time and ends its span.
#[must_use = "the scope ends when the guard is dropped"]
pub struct Scope {
    layer: Layer,
    outer: Layer,
    timing: Option<Timing>,
}

struct Timing {
    start_ns: u64,
    /// The enclosing scope's children time, set aside while this one runs.
    outer_child_ns: u64,
    outer_open: u32,
    span: Option<u32>,
}

impl Scope {
    /// Enter `layer`.
    pub fn enter(layer: Layer) -> Scope {
        // Growing the span buffer is the tracer's allocation, not the
        // layer's: it is counted against the harness.
        let outer = CURRENT.with(|c| c.replace(Layer::Harness));
        let timing = tracing().then(|| {
            let start_ns = now_ns();
            let outer_open = OPEN.with(Cell::get);
            let span = SPANS.with(|s| {
                let mut spans = s.borrow_mut();
                (spans.len() < SPAN_CAP).then(|| {
                    spans.push(Span {
                        layer,
                        parent: outer_open,
                        start_ns,
                        end_ns: start_ns,
                    });
                    (spans.len() - 1) as u32
                })
            });
            OPEN.with(|o| o.set(span.unwrap_or(NO_PARENT)));
            Timing {
                start_ns,
                outer_child_ns: CHILD_NS.with(|c| c.replace(0)),
                outer_open,
                span,
            }
        });
        CURRENT.with(|c| c.set(layer));
        Scope {
            layer,
            outer,
            timing,
        }
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        if let Some(t) = &self.timing {
            let end_ns = now_ns();
            let dur = end_ns - t.start_ns;
            let children = CHILD_NS.with(|c| c.replace(t.outer_child_ns + dur));
            SELF_NS.with(|a| {
                let c = &a[self.layer as usize];
                c.set(c.get() + dur.saturating_sub(children));
            });
            if let Some(idx) = t.span {
                SPANS.with(|s| s.borrow_mut()[idx as usize].end_ns = end_ns);
            }
            OPEN.with(|o| o.set(t.outer_open));
        }
        CURRENT.with(|c| c.set(self.outer));
    }
}

/// Run `f` inside `layer`.
pub fn within<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    let _scope = Scope::enter(layer);
    f()
}

/// Write spans as CSV (`layer,parent,start_ns,end_ns`; parent -1 for none).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "layer,parent,start_ns,end_ns")?;
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            "{},{},{},{}",
            s.layer.name(),
            parent,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = now_ns();
        while now_ns() - t < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_spans_nest() {
        set_tracing(true);
        let _ = take_spans();
        let before = self_ns();
        within(Layer::Engine, || {
            spin(200_000);
            within(Layer::Agent, || {
                spin(300_000);
                within(Layer::App, || spin(400_000));
                assert_eq!(CURRENT.with(Cell::get), Layer::Agent);
            });
            assert_eq!(CURRENT.with(Cell::get), Layer::Engine);
        });
        set_tracing(false);
        let after = self_ns();
        let own = |l: Layer| (after[l as usize] - before[l as usize]) as f64;
        // Each layer's self time is its own spin, not its children's.
        assert!((200_000.0..400_000.0).contains(&own(Layer::Engine)));
        assert!((300_000.0..500_000.0).contains(&own(Layer::Agent)));
        assert!((400_000.0..600_000.0).contains(&own(Layer::App)));
        let spans = take_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!((spans[1].parent, spans[2].parent), (0, 1));
        assert!(spans.iter().all(|s| s.end_ns > s.start_ns));
        assert_eq!(CURRENT.with(Cell::get), Layer::Harness);
    }

    #[test]
    fn allocations_count_against_the_innermost_layer() {
        let before = alloc_counts();
        within(Layer::Overlay, || std::hint::black_box(vec![1u8; 64]));
        let after = alloc_counts();
        assert_eq!(
            after[Layer::Overlay as usize] - before[Layer::Overlay as usize],
            1
        );
    }
}
