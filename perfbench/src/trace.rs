//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into the planner's public
//! functions. They stay in memory until the run ends, when they are written
//! as Chrome trace-event JSON (open it in Perfetto) and folded into a
//! per-layer self-time table.

use crate::alloc_count;
use crate::common::{Args, Report};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    /// The request this span serves; spans of one request share it.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[must_use = "close the span with Tracer::end"]
pub struct Open(usize);

/// Records nested spans on one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// A disabled tracer records nothing and reads no clock.
    enabled: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            enabled: true,
        }
    }
}

impl Tracer {
    /// A tracer whose spans cost nothing, for running a traced code path
    /// untraced.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(index);
        Open(index)
    }

    /// Closes `open` and returns its duration in seconds (0 when disabled).
    /// Spans must close innermost first.
    pub fn end(&mut self, open: Open) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let name = self.spans[open.0].name;
        self.end_as(open, name)
    }

    /// Like [`Tracer::end`], renaming the span to `name`, for spans whose
    /// kind is known only once the call returns.
    pub fn end_as(&mut self, open: Open, name: &'static str) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        let end_ns = self.now_ns();
        let span = &mut self.spans[open.0];
        span.name = name;
        span.end_ns = end_ns;
        span.duration_ns() as f64 * 1e-9
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`, in record order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Per span name: (calls, total ns, self ns). A span's self time is its
    /// duration minus the time its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut table: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let entry = table.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.duration_ns();
            entry.2 += span.duration_ns().saturating_sub(*children);
        }
        table
    }

    /// The self-time table as printable lines, largest self time first.
    pub fn self_time_table(&self) -> Vec<String> {
        let table = self.self_times();
        let total_self: u64 = table.values().map(|v| v.2).sum::<u64>().max(1);
        let mut rows: Vec<_> = table.into_iter().collect();
        rows.sort_by_key(|row| std::cmp::Reverse(row.1 .2));
        let mut lines = vec![format!(
            "{:<24} {:>8} {:>12} {:>12} {:>7}",
            "span", "calls", "total_ms", "self_ms", "self%"
        )];
        for (name, (calls, total, own)) in rows {
            lines.push(format!(
                "{:<24} {:>8} {:>12.3} {:>12.3} {:>6.2}%",
                name,
                calls,
                total as f64 * 1e-6,
                own as f64 * 1e-6,
                own as f64 * 100.0 / total_self as f64
            ));
        }
        lines
    }

    /// The spans as Chrome trace-event JSON ("X" complete events,
    /// microsecond timestamps).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{},\"parent\":{},\"request\":{}}}}}",
                span.name,
                span.start_ns as f64 * 1e-3,
                span.duration_ns() as f64 * 1e-3,
                i,
                parent,
                span.request
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// What every workload's traced run keeps: the spans, the summed times of
/// each traced request and of the same request served untraced by the same
/// code path, and the allocations counted inside the traced requests.
#[derive(Default)]
pub struct TracedRun {
    pub tracer: Tracer,
    pub requests: u64,
    pub untraced_s: f64,
    pub traced_s: f64,
    pub allocations: u64,
}

impl TracedRun {
    /// Id of the next traced request.
    pub fn next_id(&self) -> u64 {
        self.requests + 1
    }

    /// Serves one traced request: `call(tracer, id)` runs inside a span with
    /// allocation counting on, and the span is named by `name` once the
    /// call's value is known. `untraced_s` is how long the same request took
    /// untraced, by the same code path.
    pub fn serve<R>(
        &mut self,
        untraced_s: f64,
        call: impl FnOnce(&mut Tracer, u64) -> R,
        name: impl FnOnce(&R) -> &'static str,
    ) -> R {
        self.requests += 1;
        let id = self.requests;
        let span = self.tracer.begin("request", id);
        alloc_count::set_counting(true);
        let before = alloc_count::allocations();
        let value = call(&mut self.tracer, id);
        self.allocations += alloc_count::allocations() - before;
        alloc_count::set_counting(false);
        self.traced_s += self.tracer.end_as(span, name(&value));
        self.untraced_s += untraced_s;
        value
    }

    /// Reports `alloc.per_plan` and `trace.overhead_frac`, prints the
    /// self-time table and writes the trace.
    pub fn finish(&self, report: &mut Report, args: &Args) {
        println!(
            "traced: {} requests, {} spans",
            self.requests,
            self.tracer.spans().len()
        );
        report.metric(
            "alloc.per_plan",
            self.allocations as f64 / self.requests.max(1) as f64,
        );
        report.metric("trace.overhead_frac", 1.0 - self.untraced_s / self.traced_s);
        self.tracer.finish(args);
    }
}

impl Tracer {
    /// Prints the self-time table and writes the Chrome trace to
    /// `.perfbench/trace-<workload>-<seed>.json` under the working directory.
    pub fn finish(&self, args: &Args) {
        println!("self time by span:");
        for line in self.self_time_table() {
            println!("  {line}");
        }
        let dir = std::path::Path::new(".perfbench");
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, self.chrome_json()))
        {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                self.spans.len(),
                path.display()
            ),
            Err(err) => println!("trace: cannot write {}: {err}", path.display()),
        }
    }
}
