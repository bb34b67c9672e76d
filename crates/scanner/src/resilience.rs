//! Adaptive scanner resilience: surviving defenders that block you.
//!
//! The paper's scanners are open-loop — they pace probes and record
//! whatever comes back, so a defender that starts dropping their probes
//! silently halves their coverage. This module closes the loop. A
//! [`Controller`] watches the reply stream for two blocking signals:
//!
//! - **RST saturation** — a defender that advertises its blocks (RST
//!   tarpits) resets *every* probe into the blocked AS, so the per-window
//!   RST fraction jumps far above the sparse closed-port background.
//! - **Response collapse** — a silent defender shows up as the responsive
//!   fraction falling well below the established (or prior) baseline.
//!
//! On a signal the controller reacts with the three countermeasures real
//! scan operators use, all bounded and deterministic:
//!
//! - **Rate backoff** with geometric steps and a floor, plus recovery
//!   after sustained healthy windows (the engine re-rates its
//!   [`crate::rate::Pacer`] at batch boundaries, keeping timestamps
//!   monotone).
//! - **Source rotation** through the origin's source-IP pool; defenders
//!   track (source IP, AS) pairs, so a fresh source gets fresh detectors.
//! - **Prefix deferral**: /24s that answered with RSTs while under
//!   suspicion are parked and re-probed in an end-of-scan tail pass,
//!   after block windows have lapsed.
//!
//! Everything is a pure function of the observed reply sequence — no RNG,
//! no wall clock — so a scan with adaptation enabled is exactly as
//! reproducible as one without.

use std::collections::BTreeMap;

/// Prior expectation of the responsive fraction, used as the baseline
/// before (and alongside) the observed one — a defender that blocks from
/// the first window would otherwise poison the baseline.
const PRIOR_FRAC: f64 = 0.01;
/// Collapse threshold: a window is a blocking signal when its responsive
/// fraction drops below `COLLAPSE_FRAC × baseline`.
const COLLAPSE_FRAC: f64 = 0.4;
/// Simulated seconds a suspect /24 stays quarantined.
const SUSPECT_COOLOFF_S: f64 = 7_200.0;

/// Tuning knobs for the adaptive controller — the scanner-side
/// counterpart of `netmodel`'s aggression profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptivePolicy {
    /// Addresses per observation window.
    pub window_addrs: u32,
    /// RST fraction within a window that signals active blocking.
    pub rst_signal_frac: f64,
    /// Rate multiplier applied per backoff level (geometric).
    pub backoff_factor: f64,
    /// Floor for the cumulative rate multiplier; backoff stops here.
    pub min_rate_mult: f64,
    /// Consecutive healthy windows before one backoff level is released.
    pub recovery_windows: u32,
    /// Upper bound on addresses parked for the tail pass.
    pub max_deferred: usize,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        Self {
            window_addrs: 256,
            rst_signal_frac: 0.35,
            backoff_factor: 0.5,
            min_rate_mult: 1.0 / 64.0,
            recovery_windows: 8,
            max_deferred: 1 << 16,
        }
    }
}

/// The controller's complete mutable state — everything needed to resume
/// an adaptive scan from a checkpoint.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct ControllerState {
    /// Current backoff level (0 = full configured rate).
    pub(crate) level: u32,
    /// Healthy windows since the last signal (resets on signal).
    pub(crate) healthy_streak: u32,
    /// Index into the source-IP pool currently in use.
    pub(crate) active_source: u32,
    /// Best responsive fraction observed at level 0.
    pub(crate) baseline_frac: f64,
    /// Addresses observed in the current window.
    pub(crate) win_addrs: u32,
    /// Responsive addresses in the current window.
    pub(crate) win_responsive: u32,
    /// RST-answering addresses in the current window.
    pub(crate) win_rst: u32,
    /// Quarantined /24 prefixes → simulated release time.
    pub(crate) suspects: BTreeMap<u32, f64>,
    /// Addresses parked for the end-of-scan tail pass, in probe order.
    pub(crate) deferred: Vec<u32>,
    /// Total backoff transitions.
    pub(crate) backoffs: u64,
    /// Total recovery transitions.
    pub(crate) recoveries: u64,
    /// Total source rotations.
    pub(crate) rotations: u64,
    /// Total addresses deferred (capped by `max_deferred`).
    pub(crate) deferred_total: u64,
}

/// What [`Controller::observe`] asked the engine to do, if anything.
/// Fields are independent — one window can trigger a backoff *and* a
/// rotation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct Reaction {
    /// Entered a backoff level: `(level, cumulative rate multiplier)`.
    pub(crate) backoff: Option<(u32, f64)>,
    /// Released a backoff level: `(level, cumulative rate multiplier)`.
    pub(crate) recovered: Option<(u32, f64)>,
    /// Rotated to this source-IP index.
    pub(crate) rotated: Option<u32>,
    /// Newly quarantined /24: `(prefix, simulated release time)`.
    pub(crate) suspect: Option<(u32, f64)>,
}

impl Reaction {
    /// Did this observation change any engine-visible state?
    pub(crate) fn is_some(&self) -> bool {
        self.backoff.is_some()
            || self.recovered.is_some()
            || self.rotated.is_some()
            || self.suspect.is_some()
    }
}

/// The adaptive resilience controller. One per scan; the engine feeds it
/// every address outcome and applies the [`Reaction`]s it returns.
#[derive(Debug, Clone)]
pub(crate) struct Controller {
    policy: AdaptivePolicy,
    n_sources: u32,
    state: ControllerState,
    /// `state.suspects` as a dense table, one release time per /24 up to
    /// the highest suspect (`-∞`: never quarantined), for
    /// [`Controller::should_defer`], which runs for every address. The
    /// sparse map stays the checkpointed form, so a checkpoint costs the
    /// suspects, not the space.
    release: Vec<f64>,
}

impl Controller {
    /// A fresh controller over a pool of `n_sources` source IPs.
    pub(crate) fn new(policy: AdaptivePolicy, n_sources: u32) -> Self {
        assert!(n_sources > 0, "need at least one source IP");
        assert!(policy.window_addrs > 0, "window must be positive");
        assert!(
            policy.backoff_factor > 0.0 && policy.backoff_factor < 1.0,
            "backoff factor must shrink the rate"
        );
        Self {
            policy,
            n_sources,
            state: ControllerState::default(),
            release: Vec::new(),
        }
    }

    /// Rebuild a controller from checkpointed state.
    pub(crate) fn from_state(
        policy: AdaptivePolicy,
        n_sources: u32,
        state: ControllerState,
    ) -> Self {
        let mut c = Self::new(policy, n_sources);
        for (&prefix, &release_at) in &state.suspects {
            set_release(&mut c.release, prefix, release_at);
        }
        c.state = state;
        c
    }

    /// The complete mutable state, for checkpointing.
    pub(crate) fn state(&self) -> &ControllerState {
        &self.state
    }

    /// Index into the source-IP pool the engine should send from now.
    pub(crate) fn source_index(&self) -> u32 {
        self.state.active_source
    }

    /// Cumulative rate multiplier for the current backoff level.
    pub(crate) fn rate_mult(&self) -> f64 {
        mult(&self.policy, self.state.level)
    }

    /// Should `addr` be parked for the tail pass instead of probed now?
    /// Quarantine applies while the /24's cooloff runs; parked addresses
    /// come back via [`Controller::take_deferred`].
    pub(crate) fn should_defer(&mut self, addr: u32, time_s: f64) -> bool {
        let release_at = self.release.get((addr >> 8) as usize);
        if release_at.is_none_or(|&release_at| time_s >= release_at) {
            return false;
        }
        if self.state.deferred.len() >= self.policy.max_deferred {
            return false;
        }
        self.state.deferred.push(addr);
        self.state.deferred_total += 1;
        true
    }

    /// Take the parked addresses for the tail pass (clears the queue).
    pub(crate) fn take_deferred(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.state.deferred)
    }

    /// Record one address outcome. `responsive` is "any validated
    /// SYN-ACK"; `rst` is "validated RST". Returns the reactions the
    /// engine must apply before the next address.
    pub(crate) fn observe(
        &mut self,
        addr: u32,
        responsive: bool,
        rst: bool,
        time_s: f64,
    ) -> Reaction {
        let mut reaction = Reaction::default();
        let p = &self.policy;
        let st = &mut self.state;
        st.win_addrs += 1;
        if responsive {
            st.win_responsive += 1;
        }
        if rst {
            st.win_rst += 1;
            // Individual RSTs only become suspects once the window-level
            // evidence says we are being blocked; closed ports answer with
            // RSTs too, and quarantining those would shred baseline
            // coverage.
            if st.level > 0 {
                let prefix = addr >> 8;
                let release_at = time_s + SUSPECT_COOLOFF_S;
                set_release(&mut self.release, prefix, release_at);
                if st.suspects.insert(prefix, release_at).is_none() {
                    reaction.suspect = Some((prefix, release_at));
                }
            }
        }
        if st.win_addrs < p.window_addrs {
            return reaction;
        }
        // Window closed: classify it.
        let frac = f64::from(st.win_responsive) / f64::from(st.win_addrs);
        let rst_frac = f64::from(st.win_rst) / f64::from(st.win_addrs);
        st.win_addrs = 0;
        st.win_responsive = 0;
        st.win_rst = 0;
        let baseline = st.baseline_frac.max(PRIOR_FRAC);
        let blocked = rst_frac >= p.rst_signal_frac || frac < COLLAPSE_FRAC * baseline;
        if blocked {
            st.healthy_streak = 0;
            if mult(p, st.level + 1) >= p.min_rate_mult * (1.0 - 1e-12) {
                st.level += 1;
                st.backoffs += 1;
                reaction.backoff = Some((st.level, mult(p, st.level)));
            }
            if self.n_sources > 1 {
                st.active_source = (st.active_source + 1) % self.n_sources;
                st.rotations += 1;
                reaction.rotated = Some(st.active_source);
            }
        } else if st.level == 0 {
            if frac > st.baseline_frac {
                st.baseline_frac = frac;
            }
        } else {
            st.healthy_streak += 1;
            if st.healthy_streak >= p.recovery_windows {
                st.healthy_streak = 0;
                st.level -= 1;
                st.recoveries += 1;
                reaction.recovered = Some((st.level, mult(p, st.level)));
            }
        }
        reaction
    }
}

/// Quarantine `prefix` until `release_at` in the dense table, growing it
/// to reach the prefix.
fn set_release(release: &mut Vec<f64>, prefix: u32, release_at: f64) {
    let at = prefix as usize;
    if release.len() <= at {
        release.resize(at + 1, f64::NEG_INFINITY);
    }
    if let Some(slot) = release.get_mut(at) {
        *slot = release_at;
    }
}

/// Cumulative rate multiplier at backoff `level`.
fn mult(p: &AdaptivePolicy, level: u32) -> f64 {
    p.backoff_factor.powi(level.min(30) as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_policy() -> AdaptivePolicy {
        AdaptivePolicy {
            window_addrs: 10,
            recovery_windows: 2,
            ..AdaptivePolicy::default()
        }
    }

    /// Feed `n` windows of identical outcomes.
    fn feed(c: &mut Controller, windows: u32, responsive: bool, rst: bool) -> Vec<Reaction> {
        let per = c.policy.window_addrs;
        let mut out = Vec::new();
        for i in 0..windows * per {
            out.push(c.observe(i, responsive, rst, f64::from(i)));
        }
        out
    }

    #[test]
    fn healthy_stream_never_reacts() {
        let mut c = Controller::new(quick_policy(), 4);
        let reactions = feed(&mut c, 20, true, false);
        assert!(reactions.iter().all(|r| !r.is_some()));
        assert_eq!(c.state().level, 0);
        assert_eq!(c.rate_mult(), 1.0);
    }

    #[test]
    fn rst_saturation_backs_off_and_rotates() {
        let mut c = Controller::new(quick_policy(), 4);
        feed(&mut c, 1, true, false); // establish baseline
        let reactions = feed(&mut c, 1, false, true);
        let last = reactions.last().copied().unwrap_or_default();
        assert_eq!(last.backoff, Some((1, 0.5)));
        assert_eq!(last.rotated, Some(1));
        assert_eq!(c.state().backoffs, 1);
        assert_eq!(c.state().rotations, 1);
    }

    #[test]
    fn silence_collapse_backs_off_via_prior() {
        // Even with no baseline established (blocked from the very first
        // window), total silence under the prior triggers backoff.
        let mut c = Controller::new(quick_policy(), 2);
        let reactions = feed(&mut c, 1, false, false);
        let last = reactions.last().copied().unwrap_or_default();
        assert_eq!(last.backoff, Some((1, 0.5)));
    }

    #[test]
    fn backoff_respects_floor() {
        let mut p = quick_policy();
        p.min_rate_mult = 0.25;
        let mut c = Controller::new(p, 1);
        feed(&mut c, 10, false, true);
        assert_eq!(c.state().level, 2, "floor at 0.5^2");
        assert_eq!(c.rate_mult(), 0.25);
        assert_eq!(c.state().backoffs, 2);
    }

    #[test]
    fn recovery_releases_levels_after_healthy_windows() {
        let mut c = Controller::new(quick_policy(), 1);
        feed(&mut c, 1, true, false); // baseline = 1.0
        feed(&mut c, 2, false, true); // two levels down
        assert_eq!(c.state().level, 2);
        let reactions = feed(&mut c, 2, true, false);
        let last = reactions.last().copied().unwrap_or_default();
        assert_eq!(last.recovered, Some((1, 0.5)));
        feed(&mut c, 2, true, false);
        assert_eq!(c.state().level, 0);
        assert_eq!(c.rate_mult(), 1.0);
        assert_eq!(c.state().recoveries, 2);
    }

    #[test]
    fn rsts_under_suspicion_quarantine_their_slash24() {
        let mut c = Controller::new(quick_policy(), 2);
        feed(&mut c, 1, false, true); // level 1
        assert_eq!(c.state().level, 1);
        let r = c.observe(0x0102_0304, false, true, 100.0);
        assert_eq!(r.suspect, Some((0x0001_0203, 7_300.0)));
        // Same /24 now defers until the cooloff lapses.
        assert!(c.should_defer(0x0102_03ff, 200.0));
        assert!(!c.should_defer(0x0102_03ff, 8_000.0));
        // Other prefixes pass.
        assert!(!c.should_defer(0x0a00_0001, 200.0));
        let deferred = c.take_deferred();
        assert_eq!(deferred, vec![0x0102_03ff]);
        assert_eq!(c.state().deferred_total, 1);
        assert!(c.take_deferred().is_empty());
    }

    #[test]
    fn rsts_at_level_zero_are_not_suspects() {
        // Closed ports RST legitimately; without window-level evidence
        // nothing is quarantined.
        let mut c = Controller::new(quick_policy(), 2);
        let r = c.observe(0x0102_0304, false, true, 100.0);
        assert_eq!(r.suspect, None);
        assert!(!c.should_defer(0x0102_03ff, 200.0));
    }

    #[test]
    fn deferral_is_bounded() {
        let mut p = quick_policy();
        p.max_deferred = 3;
        let mut c = Controller::new(p, 1);
        feed(&mut c, 1, false, true);
        for a in 0..10u32 {
            c.observe(a * 256, false, true, 50.0);
        }
        let mut parked = 0;
        for a in 0..10u32 {
            if c.should_defer(a * 256 + 1, 60.0) {
                parked += 1;
            }
        }
        assert_eq!(parked, 3);
    }

    /// The dense quarantine table answers as the sparse suspects map it
    /// mirrors: over random observations (RSTs quarantine and re-quarantine
    /// /24s while backed off), deferral questions before, at and past
    /// release times, and rebuilds from checkpointed state midway.
    #[test]
    fn quarantine_table_is_the_suspects_map() {
        let mut state = 0x5eed_u64;
        let mut next = |below: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % below
        };
        let policy = AdaptivePolicy {
            max_deferred: 300,
            ..quick_policy()
        };
        let mut c = Controller::new(policy.clone(), 3);
        let (mut deferred, mut released, mut rebuilt) = (0, 0, 0);
        let mut t = 0.0;
        for step in 0..20_000u32 {
            // Addresses over 64 /24s, the higher ones rarer, so the
            // table grows mid-run.
            let bits = 8 + next(7);
            let addr = next(1 << bits) as u32;
            t += next(8) as f64;
            if next(3) == 0 {
                let (responsive, rst) = (next(9) == 0, next(2) == 0);
                c.observe(addr, responsive, rst, t);
            } else {
                let at = match next(4) {
                    0 => t,
                    1 => t + SUSPECT_COOLOFF_S,
                    _ => c
                        .state
                        .suspects
                        .get(&(addr >> 8))
                        .map_or(t, |&r| r - 1.0 + next(3) as f64),
                };
                let want = c.state.suspects.get(&(addr >> 8)).is_some_and(|&r| at < r)
                    && c.state.deferred.len() < policy.max_deferred;
                let got = c.should_defer(addr, at);
                assert_eq!(got, want, "step {step}: {addr:#x} at {at}");
                deferred += usize::from(got);
                released += usize::from(!got && c.state.suspects.contains_key(&(addr >> 8)));
            }
            if next(500) == 0 {
                let resumed = Controller::from_state(policy.clone(), 3, c.state.clone());
                assert_eq!(resumed.release, c.release, "step {step}");
                c = resumed;
                rebuilt += 1;
            }
        }
        let suspects = c.state.suspects.len();
        assert!(
            deferred > 0 && released > 0 && rebuilt > 0 && suspects > 8,
            "{suspects}"
        );
    }

    #[test]
    fn state_roundtrip_resumes_identically() {
        let mut a = Controller::new(quick_policy(), 4);
        feed(&mut a, 1, true, false);
        feed(&mut a, 2, false, true);
        let snap = a.state().clone();
        assert!(!snap.suspects.is_empty());
        let mut b = Controller::from_state(quick_policy(), 4, snap);
        for i in 0..200u32 {
            // Deferral reads the checkpointed suspects: a quarantined /24
            // defers after the resume too.
            let (addr, t) = (i * 37, f64::from(i));
            assert_eq!(
                a.should_defer(addr, t),
                b.should_defer(addr, t),
                "addr {addr}"
            );
            let ra = a.observe(i, i % 7 == 0, i % 11 == 0, t);
            let rb = b.observe(i, i % 7 == 0, i % 11 == 0, t);
            assert_eq!(ra, rb, "step {i}");
        }
        assert!(a.state().deferred_total > 0);
        assert_eq!(a.state(), b.state());
    }
}
