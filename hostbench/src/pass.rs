//! What every pass of every workload measures and checks.

/// Pinned `(key, cycles, checksum)` per run, present for the default seed.
pub type Pins<'a> = Option<&'a [(String, u64, u64)]>;

/// The part of a pass every workload has.
#[derive(Default)]
pub struct Checked {
    /// Host seconds for the pass.
    pub wall_s: f64,
    /// Host ms per closed-loop call, one list per population of like
    /// calls: one kernel of the native pipeline, one runner of the chaos
    /// fleet, every simulation of a sweep.
    pub call_ms: Vec<Vec<f64>>,
    /// Checks made.
    pub attempted: u64,
    /// Failed checks, with a reason each.
    pub failures: Vec<String>,
    /// `(key, cycles, checksum)` of every checked output, in order.
    pub pins: Vec<(String, u64, u64)>,
    /// When set, the next output check fails (`--inject-failure`).
    pub force_failure: bool,
}

impl Checked {
    /// Records one call of population `group`.
    pub fn push_call(&mut self, group: usize, ms: f64) {
        if self.call_ms.len() <= group {
            self.call_ms.resize_with(group + 1, Vec::new);
        }
        self.call_ms[group].push(ms);
    }

    /// One check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// One check per output: `ok` and its pin (when pinned) must both
    /// hold. Records the output's pin line either way.
    pub fn check_run(
        &mut self,
        ok: bool,
        why: &str,
        pins: Pins<'_>,
        key: String,
        cycles: u64,
        checksum: u64,
    ) {
        let forced = std::mem::take(&mut self.force_failure);
        let pinned = pins.map(|p| p.iter().find(|(k, _, _)| *k == key));
        let pin_ok =
            pinned.is_none_or(|hit| hit.is_some_and(|&(_, c, s)| c == cycles && s == checksum));
        self.check(ok && pin_ok && !forced, || {
            if forced {
                format!("{key}: forced failure (--inject-failure)")
            } else if ok {
                format!("{key}: cycles {cycles} checksum {checksum:#018x} vs pinned {pinned:?}")
            } else {
                format!("{key}: {why}")
            }
        });
        self.pins.push((key, cycles, checksum));
    }
}
