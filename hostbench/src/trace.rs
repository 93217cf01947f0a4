//! The harness-side span recorder behind the traced run.
//!
//! Spans live in harness memory only: name, start, end, parent and the id
//! of the simulation (or native block) they belong to. Nothing reaches
//! inside the simulator, so a span around `run_scenario` covers build,
//! stepping and verification alike; the layer split stops at the public
//! call boundary.

use std::time::Instant;

/// One recorded call.
pub struct Span {
    /// `<layer>.<call>`, e.g. `scenarios.run_scenario`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Simulation / block id the span belongs to.
    pub sim_id: Option<u64>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A span recorder. Disabled recorders cost one branch per call site, so
/// the untraced passes run the same code as the traced one.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recording recorder.
    pub fn on() -> Self {
        Self {
            enabled: true,
            ..Self::off()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, sim_id: Option<u64>, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let idx = self.open(name, sim_id);
        let r = f();
        self.close(idx);
        r
    }

    /// Opens a span; pair with [`Tracer::close`]. Returns `usize::MAX`
    /// when disabled.
    pub fn open(&mut self, name: &'static str, sim_id: Option<u64>) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            sim_id,
        });
        self.stack.push(idx);
        idx
    }

    /// Closes the span `open` returned.
    pub fn close(&mut self, idx: usize) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.spans[idx].end_ns = now;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans must nest");
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Self time per layer (span minus the spans directly under it), in
    /// nanoseconds, summed over every span of that layer.
    pub fn self_ns_by_layer(&self) -> Vec<(&'static str, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let own = s.dur_ns().saturating_sub(covered);
            match out.iter_mut().find(|(l, _)| *l == s.layer()) {
                Some((_, ns)) => *ns += own,
                None => out.push((s.layer(), own)),
            }
        }
        out
    }

    /// Chrome `trace_event` JSON (complete `X` events, microseconds),
    /// loadable in Perfetto. `meta` lands in the top-level `otherData`.
    pub fn chrome_json(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::from("{\"otherData\": {");
        for (i, (k, v)) in meta.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{k}\": \"{}\"", v.replace('"', "'")));
        }
        out.push_str("}, \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"span\": {i}, \"parent\": {}, \"sim_id\": {}}}}}",
                s.name,
                s.layer(),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.sim_id.map_or("null".to_string(), |p| p.to_string()),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::on();
        t.span("fleet.job", Some(1), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer = t.open("fleet.outer", None);
        let inner = t.open("scenarios.run_scenario", Some(2));
        std::thread::sleep(std::time::Duration::from_millis(3));
        t.close(inner);
        t.close(outer);
        let by = t.self_ns_by_layer();
        let scen = by.iter().find(|(l, _)| *l == "scenarios").unwrap().1;
        assert!(scen >= 3_000_000);
        assert_eq!(t.spans()[2].parent, Some(1));
        assert!(t.chrome_json(&[]).contains("\"traceEvents\""));
    }
}
