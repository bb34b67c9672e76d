//! Probe pacing.
//!
//! ZMap paces probes with a send-rate limiter; the paper scans at 100K pps
//! from every origin and verifies no origin drops packets at that speed.
//! In simulation we don't sleep — we *assign each probe the timestamp* the
//! limiter would have released it at, so downstream models (burst windows,
//! IDS detection times, Alibaba's temporal blocking) see a realistic clock.

/// A token-bucket pacer over simulated time.
///
/// Probes are released in batches (ZMap sends batches of ~16 packets); the
/// bucket refills at `rate` tokens per second with a burst capacity of one
/// batch. The whole pacing state is these few plain fields, so a clone is
/// a complete checkpoint: it emits exactly the timestamps the original
/// would have, across any number of rate changes.
#[derive(Debug, Clone, PartialEq)]
pub struct Pacer {
    rate: f64,
    batch: u32,
    sent_in_batch: u32,
    batch_start_time: f64,
    batches_sent: u64,
    /// Send-clock time at which the current rate took effect. Batch `b`
    /// (for `b ≥ anchor_batches`) starts at
    /// `anchor_time + (b − anchor_batches) · batch / rate`, so a mid-scan
    /// [`Pacer::set_rate`] re-anchors the schedule instead of silently
    /// rewriting history. Both stay zero until the first rate change, so
    /// a never-re-rated pacer is a pure function of its call count.
    anchor_time: f64,
    /// Batch index at which the current rate took effect.
    anchor_batches: u64,
}

impl Pacer {
    /// Create a pacer emitting `rate` probes/second in `batch`-sized bursts.
    pub fn new(rate: f64, batch: u32) -> Self {
        assert!(rate > 0.0, "rate must be positive");
        assert!(batch > 0, "batch must be positive");
        Self {
            rate,
            batch,
            sent_in_batch: 0,
            batch_start_time: 0.0,
            batches_sent: 0,
            anchor_time: 0.0,
            anchor_batches: 0,
        }
    }

    /// The pacer [`Pacer::new`] becomes after `sent` calls of
    /// [`Pacer::next_send_time`], in O(1): a scan's clock can be picked up
    /// at any probe offset.
    pub(crate) fn at(rate: f64, batch: u32, sent: u64) -> Self {
        let mut p = Self::new(rate, batch);
        p.skip_probes(sent);
        p
    }

    /// `n` calls of [`Pacer::next_send_time`] in O(1), bit for bit: a
    /// batch's start is a function of its index, so only the batch that
    /// holds the last of the `n` probes needs its start computed.
    pub fn skip_probes(&mut self, n: u64) {
        let room = u64::from(self.batch - self.sent_in_batch);
        let Some(past) = n.checked_sub(room).filter(|&past| past > 0) else {
            // `n ≤ room`, so it fits the open batch's `u32` count.
            self.sent_in_batch += u32::try_from(n).unwrap_or(0);
            return;
        };
        // The batch holding the last probe stays open, full or not: the
        // roll-over waits for the next call.
        let batch = u64::from(self.batch);
        self.batches_sent += (past - 1) / batch + 1;
        self.sent_in_batch = u32::try_from((past - 1) % batch + 1).unwrap_or(self.batch);
        self.batch_start_time = self.batch_start(self.batches_sent);
    }

    /// Start time of batch index `b` under the current anchor and rate.
    fn batch_start(&self, b: u64) -> f64 {
        self.anchor_time + (b - self.anchor_batches) as f64 * f64::from(self.batch) / self.rate
    }

    /// Timestamp (seconds since scan start) at which the next probe leaves
    /// the NIC; advances internal state.
    pub fn next_send_time(&mut self) -> f64 {
        if self.sent_in_batch == self.batch {
            self.batches_sent += 1;
            self.sent_in_batch = 0;
            self.batch_start_time = self.batch_start(self.batches_sent);
        }
        self.sent_in_batch += 1;
        // Probes within a batch go out back-to-back at the batch start.
        self.batch_start_time
    }

    /// [`Pacer::next_send_time`] `n ≥ 1` times: the send time of the last
    /// of the `n` probes.
    pub(crate) fn advance(&mut self, n: u8) -> f64 {
        self.skip_probes(u64::from(n));
        self.batch_start_time
    }

    /// Timestamp the next call to [`Pacer::next_send_time`] will return,
    /// without advancing state — the fault layer uses this to decide
    /// whether an outage window has opened before the probe is committed.
    pub(crate) fn peek_send_time(&self) -> f64 {
        if self.sent_in_batch == self.batch {
            self.batch_start(self.batches_sent + 1)
        } else {
            self.batch_start_time
        }
    }

    /// A lower bound on the probes released before send-clock time `t` on
    /// a clock `offset` seconds ahead of the pacer's (a scan's stalls):
    /// each of the next `probes_before(t, offset)` calls of
    /// [`Pacer::next_send_time`] returns an `x` with `x + offset < t`.
    /// Batch starts grow with the batch index, so the last batch to start
    /// before `t` is found from an estimate and a few exact comparisons;
    /// a bound the comparisons cannot settle stays short.
    #[expect(clippy::cast_possible_truncation, reason = "a saturating guess")]
    pub(crate) fn probes_before(&self, t: f64, offset: f64) -> u64 {
        let before = |start: f64| start + offset < t;
        let open = u64::from(self.batch - self.sent_in_batch);
        if open > 0 && !before(self.batch_start_time) {
            return 0;
        }
        let first = self.batches_sent + 1;
        if !before(self.batch_start(first)) {
            return open;
        }
        // Saturating, and 0 for NaN: the comparisons below take over.
        let guess = ((t - offset - self.anchor_time) * self.rate / f64::from(self.batch)) as u64;
        let mut last = self.anchor_batches.saturating_add(guess).max(first);
        for _ in 0..4 {
            if before(self.batch_start(last)) {
                break;
            }
            last = (last - 1).max(first);
        }
        if !before(self.batch_start(last)) {
            last = first;
        }
        for _ in 0..4 {
            match last.checked_add(1) {
                Some(next) if before(self.batch_start(next)) => last = next,
                _ => break,
            }
        }
        let full = (last - first + 1).saturating_mul(u64::from(self.batch));
        open.saturating_add(full)
    }

    /// Send-clock seconds consumed by every probe released so far, valid
    /// across any number of rate changes. For a pacer whose rate never
    /// changed this is exactly `probes / rate`.
    pub(crate) fn duration_elapsed(&self) -> f64 {
        if self.batches_sent < self.anchor_batches {
            // A rate change closed the in-flight batch and nothing has
            // been sent since: the old schedule ran through anchor_time.
            return self.anchor_time;
        }
        let probes = (self.batches_sent - self.anchor_batches) * u64::from(self.batch)
            + u64::from(self.sent_in_batch);
        self.anchor_time + probes as f64 / self.rate
    }

    /// Change the send rate mid-scan, effective at the boundary of the
    /// current batch: probes already released keep their timestamps, the
    /// current batch (if mid-flight, it is closed early) drains on the old
    /// schedule, and every later batch is re-anchored to the new rate.
    /// Timestamps remain monotone non-decreasing across the change.
    pub fn set_rate(&mut self, rate: f64) {
        assert!(rate > 0.0, "rate must be positive");
        if self.sent_in_batch == 0 && self.batches_sent == self.anchor_batches {
            // Nothing sent since the last anchor: re-rate in place.
            self.rate = rate;
            return;
        }
        // The next batch starts where the current one ends on the old
        // schedule; anchor the new rate there.
        self.anchor_time = self.batch_start_time + f64::from(self.batch) / self.rate;
        self.anchor_batches = self.batches_sent + 1;
        self.rate = rate;
        // Force the next call to roll over into the anchored batch.
        self.sent_in_batch = self.batch;
    }
}

/// Compute the send rate that spreads `total_probes` over `duration_s`
/// seconds — used to scale the paper's ~21-hour trials down to the
/// simulated space while keeping the same wall-clock structure.
pub fn rate_for_duration(total_probes: u64, duration_s: f64) -> f64 {
    assert!(duration_s > 0.0);
    (total_probes as f64 / duration_s).max(f64::MIN_POSITIVE)
}

#[cfg(test)]
impl Pacer {
    /// The current send rate in probes/second.
    pub(crate) fn rate(&self) -> f64 {
        self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_spacing() {
        let mut p = Pacer::new(100.0, 1);
        let t0 = p.next_send_time();
        let t1 = p.next_send_time();
        let t2 = p.next_send_time();
        assert_eq!(t0, 0.0);
        assert!((t1 - 0.01).abs() < 1e-12);
        assert!((t2 - 0.02).abs() < 1e-12);
    }

    #[test]
    fn batch_members_share_timestamp() {
        let mut p = Pacer::new(1000.0, 4);
        let times: Vec<f64> = (0..8).map(|_| p.next_send_time()).collect();
        assert_eq!(times[0], times[3]);
        assert!(times[4] > times[3]);
        assert_eq!(times[4], times[7]);
    }

    #[test]
    fn monotone_nondecreasing() {
        let mut p = Pacer::new(123.0, 7);
        let mut last = -1.0;
        for _ in 0..1000 {
            let t = p.next_send_time();
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn peek_never_advances() {
        let mut p = Pacer::new(77.0, 3);
        for _ in 0..50 {
            let peeked = p.peek_send_time();
            assert_eq!(peeked, p.peek_send_time());
            assert_eq!(peeked, p.next_send_time());
        }
    }

    #[test]
    fn cloned_pacer_continues_identically() {
        // A clone is the checkpoint: taken before or after a rate change,
        // mid-batch or on a boundary, it must stamp every later probe
        // (and later rate changes) exactly as the original does.
        for n in [0u64, 1, 3, 4, 5, 16, 17, 100, 65_537] {
            let mut p = Pacer::new(640.0, 8);
            for i in 0..n {
                if i == 40 {
                    p.set_rate(80.0);
                }
                p.next_send_time();
            }
            let mut resumed = p.clone();
            assert_eq!(resumed, p);
            for i in 0..50 {
                if i == 20 {
                    p.set_rate(320.0);
                    resumed.set_rate(320.0);
                }
                assert_eq!(p.peek_send_time(), resumed.peek_send_time());
                assert_eq!(p.next_send_time(), resumed.next_send_time(), "{n}+{i}");
            }
            assert_eq!(p.duration_elapsed(), resumed.duration_elapsed());
        }
    }

    #[test]
    fn at_equals_new_stepped() {
        // n ≡ 0 (mod batch) is the state to get right: the last batch is
        // full but not yet rolled over.
        for batch in [1u32, 3, 16] {
            for n in 0..=3 * u64::from(batch) + 1 {
                let mut stepped = Pacer::new(640.0, batch);
                for _ in 0..n {
                    stepped.next_send_time();
                }
                let mut jumped = Pacer::at(640.0, batch, n);
                assert_eq!(jumped, stepped, "batch {batch}, n {n}");
                let bits =
                    |p: &Pacer| (p.peek_send_time().to_bits(), p.duration_elapsed().to_bits());
                for i in 0..2 * batch + 2 {
                    assert_eq!(bits(&jumped), bits(&stepped), "batch {batch}, {n}+{i}");
                    assert_eq!(
                        jumped.next_send_time().to_bits(),
                        stepped.next_send_time().to_bits(),
                        "batch {batch}, {n}+{i}"
                    );
                }
                assert_eq!(bits(&jumped), bits(&stepped));
            }
        }
    }

    #[test]
    fn skip_probes_equals_stepping() {
        // From a fresh pacer, mid-batch, on a full batch, and right after
        // a rate change (the state that rolls into the anchored batch).
        for batch in [1u32, 3, 16] {
            for prefix in [0u64, 1, u64::from(batch), u64::from(batch) + 2] {
                for rerate in [false, true] {
                    let mut start = Pacer::new(640.0, batch);
                    for _ in 0..prefix {
                        start.next_send_time();
                    }
                    if rerate {
                        start.set_rate(96.0);
                    }
                    for n in (0..=3 * u64::from(batch) + 1).chain([1000, 65_537]) {
                        let (mut stepped, mut jumped) = (start.clone(), start.clone());
                        for _ in 0..n {
                            stepped.next_send_time();
                        }
                        jumped.skip_probes(n);
                        let at = (batch, prefix, rerate, n);
                        assert_eq!(jumped, stepped, "{at:?}");
                        assert_eq!(
                            jumped.next_send_time().to_bits(),
                            stepped.next_send_time().to_bits(),
                            "{at:?}"
                        );
                    }
                }
            }
        }
    }

    /// Every probe `probes_before` counts leaves before the time, and the
    /// next one does not: from a fresh pacer, mid-batch, on a full batch
    /// and after a rate change, on the pacer's clock and one running ahead
    /// of it, at times on, between and past batch starts.
    #[test]
    fn probes_before_counts_exactly_the_sends_before_the_time() {
        for batch in [1u32, 3, 16] {
            for prefix in [0u64, 1, u64::from(batch), u64::from(batch) + 2] {
                for rerate in [false, true] {
                    let mut start = Pacer::new(640.0, batch);
                    for _ in 0..prefix {
                        start.next_send_time();
                    }
                    if rerate {
                        start.set_rate(96.0);
                    }
                    for offset in [0.0, 0.1, 45.3] {
                        let mut probe = start.clone();
                        let sends: Vec<f64> = (0..800).map(|_| probe.next_send_time()).collect();
                        let ends = sends.iter().take(400).map(|&x| x + offset);
                        let times = ends.flat_map(|t| [t, t + 1e-9, t - 1e-9, next_up(t)]);
                        for t in times.chain([offset, 0.0, -1.0, f64::NAN]) {
                            let n = start.probes_before(t, offset);
                            let at = (batch, prefix, rerate, offset, t, n);
                            let counted = sends.get(..n as usize).expect("within the sends");
                            assert!(counted.iter().all(|&x| x + offset < t), "{at:?}");
                            if let Some(&next) = sends.get(n as usize) {
                                assert!(t.is_nan() || next + offset >= t, "{at:?}: short");
                            }
                        }
                    }
                    assert!(start.probes_before(f64::INFINITY, 0.0) > u64::MAX / 2);
                }
            }
        }
    }

    fn next_up(t: f64) -> f64 {
        if t >= 0.0 {
            f64::from_bits(t.to_bits() + 1)
        } else {
            t
        }
    }

    #[test]
    fn rate_for_duration_spreads_probes_over_the_window() {
        // ~21h to cover 2^24 addresses twice (2 probes).
        let r = rate_for_duration(2 << 24, 75_600.0);
        assert!((r - (2 << 24) as f64 / 75_600.0).abs() < 1e-9);
    }

    #[test]
    fn rate_for_zero_probes_is_usable() {
        // Zero probes over any window degenerates to the minimum positive
        // rate — still a valid Pacer (the constructor asserts rate > 0).
        let r = rate_for_duration(0, 75_600.0);
        assert!(r > 0.0);
        let mut p = Pacer::new(r, 16);
        assert_eq!(p.next_send_time(), 0.0);
    }

    #[test]
    fn batch_larger_than_total_probes() {
        // A batch bigger than the whole scan: every probe shares t = 0 and
        // the elapsed clock still accounts each probe at 1/rate.
        let mut p = Pacer::new(50.0, 1024);
        for _ in 0..10 {
            assert_eq!(p.next_send_time(), 0.0);
        }
        assert_eq!(p.duration_elapsed(), 10.0 / 50.0);
        assert_eq!(p.peek_send_time(), 0.0);
    }

    #[test]
    fn duration_elapsed_is_probes_over_rate_without_rate_changes() {
        let mut p = Pacer::new(777.0, 5);
        assert_eq!(p.duration_elapsed(), 0.0);
        for n in 1..=200u64 {
            p.next_send_time();
            assert_eq!(p.duration_elapsed(), n as f64 / 777.0, "probe {n}");
        }
    }

    #[test]
    fn set_rate_keeps_timestamps_monotone() {
        let mut p = Pacer::new(1000.0, 4);
        let mut last = -1.0;
        for i in 0..300 {
            if i == 37 {
                p.set_rate(125.0); // back off 8×
            }
            if i == 151 {
                p.set_rate(500.0); // partial recovery
            }
            let t = p.next_send_time();
            assert!(t >= last, "probe {i}: {t} < {last}");
            last = t;
        }
        assert!((p.rate() - 500.0).abs() < 1e-12);
    }

    #[test]
    fn set_rate_slows_future_batches_only() {
        let mut p = Pacer::new(100.0, 4);
        let mut times: Vec<f64> = (0..4).map(|_| p.next_send_time()).collect();
        p.set_rate(10.0);
        times.extend((0..8).map(|_| p.next_send_time()));
        // First batch untouched; batch 2 starts where batch 1 ended on the
        // *old* schedule (4 probes / 100 pps = 0.04 s).
        assert_eq!(times[3], 0.0);
        assert!((times[4] - 0.04).abs() < 1e-12, "{}", times[4]);
        // Batch 3 is a full new-rate batch later: 0.04 + 4/10.
        assert!((times[8] - 0.44).abs() < 1e-12, "{}", times[8]);
    }

    #[test]
    fn set_rate_before_any_send_is_a_plain_re_rate() {
        let mut p = Pacer::new(100.0, 4);
        p.set_rate(50.0);
        let mut fresh = Pacer::new(50.0, 4);
        for _ in 0..20 {
            assert_eq!(p.next_send_time(), fresh.next_send_time());
        }
        assert_eq!(p.duration_elapsed(), fresh.duration_elapsed());
    }

    #[test]
    fn duration_elapsed_accounts_each_rate_segment() {
        let mut p = Pacer::new(100.0, 4);
        for _ in 0..4 {
            p.next_send_time();
        }
        p.set_rate(10.0);
        // Old batch fully drained: elapsed is its end on the old schedule.
        assert!((p.duration_elapsed() - 0.04).abs() < 1e-12);
        for _ in 0..4 {
            p.next_send_time();
        }
        // Plus one full batch at the new rate.
        assert!((p.duration_elapsed() - 0.44).abs() < 1e-12);
    }
}
