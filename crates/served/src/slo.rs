//! Per-tenant latency SLOs with multi-window burn-rate alerting.
//!
//! A tenant's SLO says: at least `objective` of its jobs should finish —
//! successfully — within `latency_target`. Every terminal outcome is a
//! good or bad event; the *burn rate* over a trailing window is the
//! observed bad fraction divided by the error budget `1 − objective`
//! (burn 1.0 = exactly consuming budget at the sustainable rate).
//!
//! Alerting follows the standard multi-window pattern: an alert fires only
//! when **both** a long window and a short window exceed the threshold —
//! the long window gives significance, the short one proves the burn is
//! still happening (so alerts clear promptly once the problem stops).
//! State *transitions* are emitted as [`SchedEvent::SloBurn`] events
//! (`fired` marks the direction), so a JSONL trace carries the alert
//! timeline without per-round spam.
//!
//! Everything is virtual-time arithmetic over recorded outcomes — same
//! seed, bit-identical alert timeline.

use multicl::telemetry::SchedEvent;
use std::collections::VecDeque;

use hwsim::{SimDuration, SimTime};

/// One alerting rule: a long significance window, a short recency window,
/// and the burn-rate threshold both must exceed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnWindow {
    /// Long (significance) window.
    pub long: SimDuration,
    /// Short (recency) window.
    pub short: SimDuration,
    /// Burn-rate threshold (1.0 = budget consumed exactly on schedule).
    pub threshold: f64,
}

/// A tenant latency SLO plus its alerting rules.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// A job is *good* iff it completes successfully within this latency.
    pub latency_target: SimDuration,
    /// Target good fraction (e.g. `0.95`); the error budget is
    /// `1 − objective`.
    pub objective: f64,
    /// Alerting rules, evaluated independently per tenant.
    pub windows: Vec<BurnWindow>,
}

impl Default for SloConfig {
    /// A serving-scale default: 95% of jobs within 50 virtual ms, with a
    /// fast-burn rule (short windows, high threshold) and a slow-burn rule
    /// (long windows, low threshold) — the classic paired-alert setup.
    fn default() -> SloConfig {
        SloConfig {
            latency_target: SimDuration::from_millis(50),
            objective: 0.95,
            windows: vec![
                BurnWindow {
                    long: SimDuration::from_millis(500),
                    short: SimDuration::from_millis(50),
                    threshold: 10.0,
                },
                BurnWindow {
                    long: SimDuration::from_millis(2_000),
                    short: SimDuration::from_millis(250),
                    threshold: 2.0,
                },
            ],
        }
    }
}

impl SloConfig {
    /// Error budget `1 − objective`, floored away from zero so the burn
    /// ratio stays finite for degenerate objectives.
    fn budget(&self) -> f64 {
        (1.0 - self.objective).max(1e-9)
    }
}

/// A fired/cleared transition produced by [`SloTracker::evaluate`], ready
/// to be wrapped in a [`SchedEvent::SloBurn`].
#[derive(Debug, Clone, PartialEq)]
pub struct BurnTransition {
    /// Tenant index the transition belongs to.
    pub tenant: usize,
    /// The rule that transitioned.
    pub window: BurnWindow,
    /// Burn rate over the long window at evaluation time.
    pub long_burn: f64,
    /// Burn rate over the short window at evaluation time.
    pub short_burn: f64,
    /// New state: `true` = alert now firing, `false` = cleared.
    pub fired: bool,
}

impl BurnTransition {
    /// The telemetry event for this transition.
    pub fn to_event(&self, epoch: u64, tenant: String, at: SimTime) -> SchedEvent {
        SchedEvent::SloBurn {
            epoch,
            tenant,
            at,
            long_window: self.window.long,
            short_window: self.window.short,
            long_burn: self.long_burn,
            short_burn: self.short_burn,
            threshold: self.window.threshold,
            fired: self.fired,
        }
    }
}

/// Per-tenant outcome history and alert state.
pub struct SloTracker {
    config: SloConfig,
    /// The longest configured window: how far back `record` keeps history.
    horizon: SimDuration,
    tenants: Vec<TenantHistory>,
}

struct TenantHistory {
    /// `(at, bad)` terminal outcomes, oldest first, pruned past the horizon.
    outcomes: VecDeque<(SimTime, bool)>,
    /// Outcomes pruned so far — the absolute index of `outcomes[0]`, which
    /// keeps the window cursors valid across `pop_front`.
    pruned: u64,
    /// Whether `outcomes` is in non-decreasing time order. Only then is
    /// every trailing window a suffix that a cursor can stand for.
    sorted: bool,
    /// `now` of the last evaluation: the instant the cursors stand at.
    evaluated_at: SimTime,
    /// Rule `i`'s long window at `2 * i`, its short window at `2 * i + 1`.
    windows: Vec<WindowCount>,
    /// Current firing state per rule.
    fired: Vec<bool>,
}

/// Running counts of the outcomes from absolute index `start` on. While
/// the history is sorted, everything before `start` is older than the
/// window reached back at the last evaluation, so the next evaluation (at
/// a later `now`) only ever moves `start` forward.
#[derive(Clone, Copy, Default)]
struct WindowCount {
    start: u64,
    total: u64,
    bad: u64,
}

impl TenantHistory {
    /// `(total, bad)` over the outcomes at or after `now − span`, by scan.
    fn scan(&self, now: SimTime, span: SimDuration) -> (u64, u64) {
        let from = now.as_nanos().saturating_sub(span.as_nanos());
        let mut total = 0u64;
        let mut bad = 0u64;
        for &(t, is_bad) in &self.outcomes {
            if t.as_nanos() >= from {
                total += 1;
                bad += u64::from(is_bad);
            }
        }
        (total, bad)
    }

    /// [`Self::scan`] without the scan: drop from window `w` the outcomes
    /// that left it since the last evaluation. Exact only while the history
    /// is sorted and `now` has not gone back.
    fn slide(&mut self, w: usize, now: SimTime, span: SimDuration) -> (u64, u64) {
        let from = now.as_nanos().saturating_sub(span.as_nanos());
        let window = &mut self.windows[w];
        while let Some(&(t, is_bad)) = self.outcomes.get((window.start - self.pruned) as usize) {
            if t.as_nanos() >= from {
                break;
            }
            window.start += 1;
            window.total -= 1;
            window.bad -= u64::from(is_bad);
        }
        (window.total, window.bad)
    }

    /// [`Self::scan`], and while the history is sorted (so that what the
    /// scan counted is a suffix) window `w`'s cursor set from it.
    fn recount(&mut self, w: usize, now: SimTime, span: SimDuration) -> (u64, u64) {
        let (total, bad) = self.scan(now, span);
        if self.sorted {
            let end = self.pruned + self.outcomes.len() as u64;
            self.windows[w] = WindowCount { start: end - total, total, bad };
        }
        (total, bad)
    }
}

/// Bad fraction over the error budget; `0.0` with no samples.
fn burn((total, bad): (u64, u64), budget: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    (bad as f64 / total as f64) / budget
}

impl SloTracker {
    /// A tracker for `tenants` tenants under `config`.
    pub fn new(config: SloConfig, tenants: usize) -> SloTracker {
        let rules = config.windows.len();
        let horizon =
            config.windows.iter().map(|w| w.long.max(w.short)).max().unwrap_or(SimDuration::ZERO);
        let history = || TenantHistory {
            outcomes: VecDeque::new(),
            pruned: 0,
            sorted: true,
            evaluated_at: SimTime::ZERO,
            windows: vec![WindowCount::default(); 2 * rules],
            fired: vec![false; rules],
        };
        SloTracker { config, horizon, tenants: (0..tenants).map(|_| history()).collect() }
    }

    /// The configured SLO.
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    /// Whether a completed job with `latency` counts against the budget.
    pub fn is_bad_latency(&self, latency: SimDuration) -> bool {
        latency > self.config.latency_target
    }

    /// Record one terminal outcome (`bad` = failed, or completed over
    /// target) for `tenant` at virtual time `at`.
    pub fn record(&mut self, tenant: usize, at: SimTime, bad: bool) {
        let history = &mut self.tenants[tenant];
        if history.outcomes.back().is_some_and(|&(last, _)| last > at) {
            history.sorted = false;
        }
        history.outcomes.push_back((at, bad));
        for window in &mut history.windows {
            window.total += 1;
            window.bad += u64::from(bad);
        }
        let cutoff = at.as_nanos().saturating_sub(self.horizon.as_nanos());
        while let Some(&(t, was_bad)) = history.outcomes.front() {
            if t.as_nanos() >= cutoff {
                break;
            }
            history.outcomes.pop_front();
            history.pruned += 1;
            // A window that still counted the pruned outcome gives it up.
            for window in history.windows.iter_mut().filter(|w| w.start < history.pruned) {
                window.start = history.pruned;
                window.total -= 1;
                window.bad -= u64::from(was_bad);
            }
        }
    }

    /// Burn rate of `tenant` over the trailing `window` ending at `now`:
    /// bad fraction over the error budget; `0.0` with no samples. A scan of
    /// the tenant's history — what [`Self::evaluate`] computes
    /// incrementally.
    pub fn burn_rate(&self, tenant: usize, now: SimTime, window: SimDuration) -> f64 {
        burn(self.tenants[tenant].scan(now, window), self.config.budget())
    }

    /// Re-evaluate every rule for `tenant` at `now`; returns the state
    /// transitions (empty when nothing changed).
    ///
    /// Outcomes recorded in time order and evaluations at non-decreasing
    /// `now` — all the service ever does — cost O(outcomes that left a
    /// window), not O(history). If time runs backwards (`now` before the
    /// last evaluation, or an outcome recorded before its predecessor) the
    /// windows are recounted by scan, every evaluation until the history is
    /// back in order.
    pub fn evaluate(&mut self, tenant: usize, now: SimTime) -> Vec<BurnTransition> {
        let budget = self.config.budget();
        let history = &mut self.tenants[tenant];
        let sliding = history.sorted && now >= history.evaluated_at;
        if !sliding {
            history.sorted = history.outcomes.iter().is_sorted_by_key(|&(t, _)| t);
        }
        history.evaluated_at = now;
        let mut transitions = Vec::new();
        for (i, &window) in self.config.windows.iter().enumerate() {
            let mut burn_over = |w: usize, span: SimDuration| {
                let counts = if sliding {
                    history.slide(w, now, span)
                } else {
                    history.recount(w, now, span)
                };
                burn(counts, budget)
            };
            let long_burn = burn_over(2 * i, window.long);
            let short_burn = burn_over(2 * i + 1, window.short);
            let firing = long_burn >= window.threshold && short_burn >= window.threshold;
            if firing != history.fired[i] {
                history.fired[i] = firing;
                transitions.push(BurnTransition {
                    tenant,
                    window,
                    long_burn,
                    short_burn,
                    fired: firing,
                });
            }
        }
        transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn at(v: u64) -> SimTime {
        SimTime::from_nanos(v * 1_000_000)
    }

    fn config() -> SloConfig {
        SloConfig {
            latency_target: ms(10),
            objective: 0.9, // budget 0.1
            windows: vec![BurnWindow { long: ms(100), short: ms(20), threshold: 2.0 }],
        }
    }

    #[test]
    fn burn_rate_is_bad_fraction_over_budget() {
        let mut t = SloTracker::new(config(), 1);
        t.record(0, at(1), false);
        t.record(0, at(2), false);
        t.record(0, at(3), true);
        t.record(0, at(4), true);
        // 2 bad of 4 → 0.5 / 0.1 budget = 5x.
        assert!((t.burn_rate(0, at(4), ms(100)) - 5.0).abs() < 1e-12);
        // Zero-width window sees only t=4 (bad): 1.0 / 0.1 budget = 10x.
        assert!((t.burn_rate(0, at(4), SimDuration::ZERO) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn alert_fires_only_when_both_windows_burn_and_clears_after() {
        let mut t = SloTracker::new(config(), 1);
        // Old burst of bad outcomes: long window sees them, short not.
        for i in 1..=4 {
            t.record(0, at(i), true);
        }
        // 30ms later the short window is clean — no alert.
        for i in 0..4 {
            t.record(0, at(34 + i), false);
        }
        assert!(t.evaluate(0, at(37)).is_empty());
        // A fresh burst lights up both windows → one fired transition.
        for i in 0..3 {
            t.record(0, at(40 + i), true);
        }
        let fired = t.evaluate(0, at(42));
        assert_eq!(fired.len(), 1);
        assert!(fired[0].fired);
        assert!(fired[0].long_burn >= 2.0 && fired[0].short_burn >= 2.0);
        // Re-evaluating without change emits nothing (transitions only).
        assert!(t.evaluate(0, at(42)).is_empty());
        // Much later the windows drain and the alert clears.
        t.record(0, at(400), false);
        let cleared = t.evaluate(0, at(400));
        assert_eq!(cleared.len(), 1);
        assert!(!cleared[0].fired);
    }

    #[test]
    fn history_is_pruned_past_the_longest_window() {
        let mut t = SloTracker::new(config(), 1);
        for i in 0..50 {
            t.record(0, at(i * 10), i % 2 == 0);
        }
        assert!(t.tenants[0].outcomes.len() < 50, "pruned to the 100ms horizon");
        // Burn over the long window only sees retained samples.
        assert!(t.burn_rate(0, at(490), ms(100)) > 0.0);
    }

    #[test]
    fn sliding_evaluate_agrees_with_the_scan_on_random_histories() {
        let config = SloConfig {
            latency_target: ms(10),
            objective: 0.9,
            windows: vec![
                BurnWindow { long: ms(100), short: ms(20), threshold: 2.0 },
                BurnWindow { long: ms(400), short: ms(50), threshold: 1.0 },
                BurnWindow { long: ms(30), short: SimDuration::ZERO, threshold: 5.0 },
            ],
        };
        let us = |v: u64| SimTime::from_nanos(v * 1_000);
        let (mut transitions, mut recounts) = (0, 0);
        for seed in 1..=16 {
            let mut rng = hwsim::xrand::XorShift::new(seed);
            let mut t = SloTracker::new(config.clone(), 2);
            let mut fired = [[false; 3]; 2];
            let mut clock = 0u64;
            for step in 0..3_000 {
                // Time mostly advances; now and then it jumps back, by less
                // or by more than the windows reach.
                clock = match rng.index(60) {
                    0 => clock.saturating_sub(rng.range_u64(0, 600_000)),
                    _ => clock + rng.range_u64(0, 4_000),
                };
                let tenant = rng.index(2);
                // Bad outcomes come in bursts, so alerts fire and clear.
                let bad_one_in = if (step / 150) % 3 == 0 { 2 } else { 40 };
                if rng.index(4) != 0 {
                    t.record(tenant, us(clock), rng.index(bad_one_in) == 0);
                }
                // Evaluate at the record time, as the service does, or near it.
                let now = us(match rng.index(3) {
                    0 => clock,
                    1 => clock + rng.range_u64(0, 3_000),
                    _ => clock.saturating_sub(rng.range_u64(0, 3_000)),
                });
                let history = &t.tenants[tenant];
                recounts += usize::from(!history.sorted || now < history.evaluated_at);
                // The oracle: the public scan over the same history.
                let mut expected = Vec::new();
                for (i, &window) in config.windows.iter().enumerate() {
                    let long_burn = t.burn_rate(tenant, now, window.long);
                    let short_burn = t.burn_rate(tenant, now, window.short);
                    let firing = long_burn >= window.threshold && short_burn >= window.threshold;
                    if firing != fired[tenant][i] {
                        fired[tenant][i] = firing;
                        let fired = firing;
                        expected.push(BurnTransition {
                            tenant,
                            window,
                            long_burn,
                            short_burn,
                            fired,
                        });
                    }
                }
                transitions += expected.len();
                assert_eq!(t.evaluate(tenant, now), expected, "seed {seed} step {step}");
                // Not only the transitions: every window's counts, every step.
                let history = &t.tenants[tenant];
                if history.sorted {
                    for (w, counts) in history.windows.iter().enumerate() {
                        let rule = config.windows[w / 2];
                        let span = if w % 2 == 0 { rule.long } else { rule.short };
                        assert_eq!((counts.total, counts.bad), history.scan(now, span), "{w}");
                    }
                }
            }
        }
        assert!(transitions > 100, "alerts fired and cleared: {transitions}");
        assert!(recounts > 100, "time ran backwards: {recounts}");
    }

    #[test]
    fn default_config_is_a_paired_alert() {
        let c = SloConfig::default();
        assert_eq!(c.windows.len(), 2);
        assert!(c.windows[0].threshold > c.windows[1].threshold);
        assert!(c.objective > 0.0 && c.objective < 1.0);
    }
}
