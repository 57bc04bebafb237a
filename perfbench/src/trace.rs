//! The benchmark's own tracing: spans around every public call into a
//! layer, kept in memory and written out when the run ends, plus a
//! counting global allocator that is live only while a traced op runs.

use laacad::{Session, TelemetryRegistry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// One recorded span: a named interval, in nanoseconds since the
/// tracer's epoch, and the span that caused it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// An open span: its slot in the tracer (when tracing is on) and the
/// instant it started. Closing it always yields the elapsed seconds, so
/// untraced runs time their ops through the same calls.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: Option<usize>,
    started: Instant,
}

/// In-memory span store. With tracing off it records nothing and only
/// hands back elapsed times.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off (spans already recorded stay).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Open {
        let started = Instant::now();
        let id = self.on.then(|| {
            let at = started.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at,
                parent,
            });
            self.spans.len() - 1
        });
        Open { id, started }
    }

    /// Ends `open` and returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(id) = open.id {
            self.spans[id].end_ns = now.duration_since(self.epoch).as_nanos() as u64;
        }
        now.duration_since(open.started).as_secs_f64()
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the elapsed seconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let open = self.open(name, parent);
        let out = f();
        (out, self.close(open))
    }

    /// Summed duration of every recorded span named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Number of recorded spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Installs a fresh [`TelemetryRegistry`] on `session` when tracing.
pub fn attach_registry(session: &mut Session, on: bool) {
    if on {
        session.set_recorder(Box::new(TelemetryRegistry::new()));
    }
}

/// Takes a session's [`TelemetryRegistry`] back and folds it into `into`.
pub fn absorb_registry(session: &mut Session, into: &mut TelemetryRegistry) {
    if let Some(recorder) = session.take_recorder() {
        absorb_recorder(recorder, into);
    }
}

/// Folds a recorder taken from any layer into `into`, when it is a
/// [`TelemetryRegistry`].
pub fn absorb_recorder(recorder: Box<dyn laacad::Recorder>, into: &mut TelemetryRegistry) {
    if let Some(registry) = recorder.as_any().downcast_ref::<TelemetryRegistry>() {
        into.merge(registry);
    }
}

/// Global allocator that counts allocations (alloc, alloc_zeroed,
/// realloc) while counting is switched on; off, it is the system
/// allocator plus one relaxed load.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// statistics and publish no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches allocation counting on or off.
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
