//! Wall-clock spans around the benchmark's calls into each layer's
//! public functions, kept in memory and written at exit as Chrome
//! trace-event JSON (opens in Perfetto and `chrome://tracing`).
//!
//! A disabled [`Tracer`] records no spans, so the untraced run executes
//! the same call sequence without the bookkeeping. Its lap clock runs in
//! both modes: laps split a rep at fixed points of its work, and the
//! run's timing statistic is built from them (see [`crate::stats::lap_floor`]).

use std::time::Instant;

/// One timed call. `name` is `<layer>.<call>`, e.g. `core.system.run`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of this span in recording order.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// The rep (or set-up) this span belongs to.
    pub rep: usize,
    pub start_ns: u64,
    pub dur_ns: u64,
}

impl Span {
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// Records nested spans; see the module docs.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: usize,
    /// Seconds of each lap closed since [`start_laps`](Self::start_laps).
    laps: Vec<f64>,
    lap_at: Instant,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
            laps: Vec::new(),
            lap_at: Instant::now(),
        }
    }

    /// Start a fresh lap record; the first lap begins now.
    pub fn start_laps(&mut self) {
        self.laps.clear();
        self.lap_at = Instant::now();
    }

    /// Close the current lap and begin the next. Recorded in both modes.
    pub fn lap(&mut self) {
        let now = Instant::now();
        self.laps.push((now - self.lap_at).as_secs_f64());
        self.lap_at = now;
    }

    /// The laps closed since [`start_laps`](Self::start_laps).
    pub fn take_laps(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.laps)
    }

    /// Tag the spans recorded from now on with rep index `rep`.
    pub fn set_rep(&mut self, rep: usize) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            rep: self.rep,
            start_ns,
            dur_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].dur_ns = self.now_ns() - start_ns;
        out
    }

    /// Close every span a panic left open, ending them now.
    pub fn close_open(&mut self) {
        let now = self.now_ns();
        while let Some(id) = self.open.pop() {
            self.spans[id].dur_ns = now - self.spans[id].start_ns;
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 * 1e-9)
            .collect()
    }

    /// Seconds spent in spans named `name`, summed within each rep; one
    /// entry per rep that has such a span.
    pub fn per_rep_s(&self, name: &str) -> Vec<f64> {
        let mut totals: Vec<(usize, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            match totals.last_mut() {
                Some((rep, t)) if *rep == s.rep => *t += s.dur_ns as f64 * 1e-9,
                _ => totals.push((s.rep, s.dur_ns as f64 * 1e-9)),
            }
        }
        totals.into_iter().map(|(_, t)| t).collect()
    }

    /// Each span's self time in ns: its duration minus the part of its
    /// interval that its children cover. Negative only if a child
    /// escaped its parent, which the tests rule out.
    pub fn self_times_ns(&self) -> Vec<i128> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push(s.id);
            }
        }
        self.spans
            .iter()
            .map(|s| {
                // Children start in recording order, so a running end
                // merges overlapping intervals in one pass.
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for c in children[s.id].iter().map(|&c| &self.spans[c]) {
                    let (lo, hi) = (c.start_ns.max(reach), c.end_ns().min(s.end_ns()));
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                i128::from(s.dur_ns) - i128::from(covered)
            })
            .collect()
    }

    /// The spans as a Chrome trace-event JSON document: one complete
    /// (`"ph": "X"`) event per span with `ts`/`dur` in microseconds, the
    /// layer as `cat`, and `id`, `parent`, `rep` and `self_us` in `args`.
    pub fn to_chrome_json(&self) -> String {
        let self_ns = self.self_times_ns();
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let cat = s.name.rsplit_once('.').map_or(s.name, |(layer, _)| layer);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"cat\": \"{cat}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
                 \"pid\": 1, \"tid\": 1, \"args\": {{\"id\": {}, \"parent\": {parent}, \
                 \"rep\": {}, \"self_us\": {}}}}}{}\n",
                s.name,
                micros(i128::from(s.start_ns)),
                micros(i128::from(s.dur_ns)),
                s.id,
                s.rep,
                micros(self_ns[i]),
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Nanoseconds as a decimal microsecond literal with all digits kept.
fn micros(ns: i128) -> String {
    let sign = if ns < 0 { "-" } else { "" };
    let ns = ns.unsigned_abs();
    format!("{sign}{}.{:03}", ns / 1000, ns % 1000)
}

/// Assert the span-file invariants on any recording: children lie
/// inside their parents and every self time is non-negative.
#[cfg(test)]
pub fn assert_well_formed(tr: &Tracer) {
    let spans = tr.spans();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            assert!(p < s.id, "parent {p} recorded after child {}", s.id);
            assert!(
                s.start_ns >= parent.start_ns && s.end_ns() <= parent.end_ns(),
                "span {} `{}` escapes parent {} `{}`",
                s.id,
                s.name,
                p,
                parent.name
            );
        }
    }
    for (s, t) in spans.iter().zip(tr.self_times_ns()) {
        assert!(
            t >= 0,
            "span {} `{}` has negative self time {t}",
            s.id,
            s.name
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_spans_nest_and_self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.span("bench.rep", |tr| {
            busy(200);
            tr.span("core.system.run", |tr| {
                for _ in 0..3 {
                    tr.span("core.system.run_chunk", |_| busy(100));
                }
            });
            tr.span("core.system.report", |_| busy(50));
        });
        assert_eq!(tr.spans().len(), 6);
        assert_well_formed(&tr);
        let self_ns = tr.self_times_ns();
        let rep = &tr.spans()[0];
        let children: u64 = [1, 5].iter().map(|&c| tr.spans()[c].dur_ns).sum();
        assert_eq!(self_ns[0], i128::from(rep.dur_ns - children));
        assert!(self_ns[0] >= 200_000);
        assert_eq!(tr.per_rep_s("core.system.run_chunk").len(), 1);
    }

    #[test]
    fn disabled_tracer_records_no_spans_but_keeps_laps() {
        let mut tr = Tracer::new(false);
        tr.start_laps();
        let v = tr.span("a.b", |tr| tr.span("a.c", |_| 7));
        busy(100);
        tr.lap();
        tr.lap();
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
        let laps = tr.take_laps();
        assert_eq!(laps.len(), 2);
        assert!(laps[0] >= 100e-6 && laps[1] >= 0.0);
        tr.start_laps();
        assert!(tr.take_laps().is_empty());
    }

    #[test]
    fn chrome_json_has_one_complete_event_per_span() {
        let mut tr = Tracer::new(true);
        tr.span("exp.point", |tr| tr.span("core.system.resume", |_| ()));
        let json = tr.to_chrome_json();
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
        assert!(json.contains("\"cat\": \"core.system\""));
        assert!(json.contains("\"parent\": 0"));
        assert!(json.contains("\"parent\": null"));
        crate::manifest::parse(&json).expect("span file must be valid JSON");
    }

    #[test]
    fn micros_keeps_every_digit() {
        assert_eq!(micros(1_234_567), "1234.567");
        assert_eq!(micros(5), "0.005");
        assert_eq!(micros(-1500), "-1.500");
    }
}
