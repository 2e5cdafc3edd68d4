//! Span recorder for the traced run.
//!
//! Every host on the simulated network is re-bound behind a [`Shim`] that
//! delegates to the original endpoint and records one span per request:
//! host, SOAPAction method, start, end and the span that caused it. The
//! benchmark adds its own spans around the public calls it makes into a
//! layer (`portal.plan`, `jobs.pump`, …). Spans live in memory and are
//! written out once the run ends.
//!
//! The recorder is thread-aware: each thread keeps its own stack of open
//! spans, so a node called from inside another node's handler is that
//! handler's child. A thread with an empty stack — the Portal's scatter
//! and count-star workers — parents its spans to the innermost span open
//! on the client thread, which is blocked in the call that spawned it.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use skyquery_net::{Endpoint, HttpRequest, HttpResponse, SimNetwork};

/// Parent index of a root span.
pub const NO_PARENT: usize = usize::MAX;

/// Host name the benchmark's own layer spans are recorded under.
pub const BENCH_HOST: &str = "bench";

/// One recorded span. Times are seconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub op: u64,
    pub parent: usize,
    pub host: Arc<str>,
    pub name: String,
    pub thread: u64,
    pub start: f64,
    pub end: f64,
}

/// One request/response pair captured at a shim, for the replays.
pub struct Message {
    pub host: Arc<str>,
    pub action: String,
    pub request: HttpRequest,
    pub response: HttpResponse,
}

struct State {
    spans: Vec<Span>,
    op: u64,
    /// The client thread and its open spans, innermost last.
    client: u64,
    client_stack: Vec<usize>,
    messages: Vec<Message>,
}

/// In-memory span store shared by every shim and the benchmark loop.
pub struct Recorder {
    epoch: Instant,
    state: Mutex<State>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static THREAD: Cell<u64> = const { Cell::new(u64::MAX) };
}

fn thread_tag() -> u64 {
    THREAD.with(|t| {
        if t.get() == u64::MAX {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            state: Mutex::new(State {
                spans: Vec::new(),
                op: 0,
                client: u64::MAX,
                client_stack: Vec::new(),
                messages: Vec::new(),
            }),
        })
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("span recorder lock poisoned")
    }

    /// Opens a span on the calling thread.
    pub fn open(&self, host: &Arc<str>, name: &str) -> usize {
        let parent = STACK.with(|s| s.borrow().last().copied());
        let thread = thread_tag();
        let start = self.now();
        let mut st = self.lock();
        let idx = st.spans.len();
        let parent = parent
            .or_else(|| st.client_stack.last().copied())
            .unwrap_or(NO_PARENT);
        let span = Span {
            op: st.op,
            parent,
            host: host.clone(),
            name: name.to_string(),
            thread,
            start,
            end: f64::NAN,
        };
        st.spans.push(span);
        if thread == st.client {
            st.client_stack.push(idx);
        }
        drop(st);
        STACK.with(|s| s.borrow_mut().push(idx));
        idx
    }

    /// Closes a span opened by [`Recorder::open`] on this thread.
    pub fn close(&self, idx: usize) {
        let end = self.now();
        STACK.with(|s| {
            let popped = s.borrow_mut().pop();
            assert_eq!(popped, Some(idx), "spans close in the order they open");
        });
        let mut st = self.lock();
        st.spans[idx].end = end;
        if st.client_stack.last() == Some(&idx) {
            st.client_stack.pop();
        }
    }

    /// Runs `f` inside a benchmark-side layer span.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let idx = self.open(&Arc::from(BENCH_HOST), name);
        let r = f();
        self.close(idx);
        r
    }

    /// Opens operation `op`'s root span on the calling (client) thread.
    pub fn begin_op(&self, op: u64) -> usize {
        {
            let mut st = self.lock();
            st.op = op;
            st.client = thread_tag();
        }
        self.open(&Arc::from(BENCH_HOST), "op")
    }

    /// Closes the root span opened by [`Recorder::begin_op`].
    pub fn end_op(&self, idx: usize) {
        self.close(idx);
    }

    fn capture(&self, message: Message) {
        self.lock().messages.push(message);
    }

    /// Takes the messages captured since the last call.
    pub fn take_messages(&self) -> Vec<Message> {
        std::mem::take(&mut self.lock().messages)
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Re-binds `host` behind a timing shim delegating to `inner`.
    pub fn wrap(self: &Arc<Self>, net: &SimNetwork, host: &str, inner: Arc<dyn Endpoint>) {
        net.bind(
            host.to_string(),
            Arc::new(Shim {
                host: Arc::from(host),
                inner,
                rec: self.clone(),
            }),
        );
    }
}

/// Timing shim in front of one host's endpoint.
struct Shim {
    host: Arc<str>,
    inner: Arc<dyn Endpoint>,
    rec: Arc<Recorder>,
}

impl Endpoint for Shim {
    fn handle(&self, net: &SimNetwork, req: HttpRequest) -> HttpResponse {
        let action = req
            .soap_action()
            .map(|a| a.rsplit_once('#').map_or(a, |(_, m)| m).to_string())
            .unwrap_or_default();
        let request = req.clone();
        let idx = self.rec.open(&self.host, &action);
        let response = self.inner.handle(net, req);
        self.rec.close(idx);
        self.rec.capture(Message {
            host: self.host.clone(),
            action,
            request,
            response: response.clone(),
        });
        response
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its children (the union, since scatter children overlap).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.parent != NO_PARENT {
            children[s.parent].push(i);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| s.end - s.start - covered(spans, &children[i], s.start, s.end))
        .collect()
}

/// Length of the union of the `kids` intervals clipped to `[lo, hi]`.
pub fn covered(spans: &[Span], kids: &[usize], lo: f64, hi: f64) -> f64 {
    let mut iv: Vec<(f64, f64)> = kids
        .iter()
        .map(|&k| (spans[k].start.max(lo), spans[k].end.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut cur): (f64, Option<(f64, f64)>) = (0.0, None);
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0.0, |(a, b)| b - a)
}

/// Writes `spans-<stem>.tsv` (one line per span: op, index, parent,
/// thread, host, name, start, end, self; seconds) and `self-<stem>.tsv`
/// (per host and name: spans, total and self seconds) into `dir`.
pub fn write_spans(dir: &std::path::Path, stem: &str, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let selfs = self_times(spans);
    let file = std::fs::File::create(dir.join(format!("spans-{stem}.tsv")))?;
    let mut out = std::io::BufWriter::new(file);
    writeln!(
        out,
        "op\tspan\tparent\tthread\thost\tname\tstart_s\tend_s\tself_s"
    )?;
    let mut by_host: std::collections::BTreeMap<(&str, &str), (usize, f64, f64)> =
        std::collections::BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            s.parent as i64
        };
        writeln!(
            out,
            "{}\t{i}\t{parent}\t{}\t{}\t{}\t{:.9}\t{:.9}\t{:.9}",
            s.op, s.thread, s.host, s.name, s.start, s.end, selfs[i]
        )?;
        let e = by_host.entry((&s.host, &s.name)).or_default();
        e.0 += 1;
        e.1 += s.end - s.start;
        e.2 += selfs[i];
    }
    out.flush()?;
    let file = std::fs::File::create(dir.join(format!("self-{stem}.tsv")))?;
    let mut out = std::io::BufWriter::new(file);
    writeln!(out, "host\tname\tspans\ttotal_s\tself_s")?;
    for ((host, name), (n, total, own)) in by_host {
        writeln!(out, "{host}\t{name}\t{n}\t{total:.9}\t{own:.9}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: usize, start: f64, end: f64) -> Span {
        Span {
            op: 0,
            parent,
            host: Arc::from("h"),
            name: "x".into(),
            thread: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(NO_PARENT, 0.0, 10.0),
            span(0, 1.0, 4.0),
            span(0, 3.0, 6.0),
            span(0, 8.0, 12.0),
        ];
        let selfs = self_times(&spans);
        // Children cover [1, 6] and [8, 10] of the root.
        assert!((selfs[0] - 3.0).abs() < 1e-12);
        assert!((selfs[1] - 3.0).abs() < 1e-12);
    }
}
