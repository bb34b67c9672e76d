//! Why each origin missed the ground-truth hosts it missed, as the
//! simulator decided it: the table the `calibrate` binary prints.

use originscan_core::experiment::TRIAL_DURATION_S;
use originscan_core::TrialMatrix;
use originscan_netmodel::{Cause, SimNet};
use originscan_scanner::target::L7Ctx;

/// The columns of [`miss_counts`], the `calibrate` binary's doc names
/// them: one per [`Cause`] variant and a wall's per layer, in the order
/// `SimNet` consults them.
///
/// `reached` is what the net answers at the start of the host's scan
/// hour, where `miss_cause` asks it, not proof that both probes were
/// dropped: the probes went out later in that hour, where another cause
/// may hold (at `small(2020)` trial 0, 330 of 456 HTTP `reached` rows
/// do). ROADMAP item 3's oracle needs each host's probe send time to
/// tell them apart; [`REACHED_LEGEND`] says this under each table.
pub const MISS_COLUMNS: [&str; 14] = [
    "absent", "closed", "rep_l4", "rep_l7", "geo_l4", "geo_l7", "ids", "persist", "burst", "flaky",
    "reached", "l7flaky", "alibaba", "maxstart",
];

/// The line `calibrate` prints under each table about its `reached` column.
pub const REACHED_LEGEND: &str = "reached: the net answers at the start of the host's scan \
    hour, where it is asked; the probes went out later in that hour and may have met another \
    cause (telling them apart needs each probe's send time: ROADMAP item 3's oracle)";

/// The [`MISS_COLUMNS`] index of `cause`.
fn column(cause: Cause) -> usize {
    match cause {
        Cause::Absent => 0,
        Cause::ClosedPort => 1,
        Cause::ReputationWall { l7 } => 2 + usize::from(l7),
        Cause::GeoWall { l7 } => 4 + usize::from(l7),
        Cause::Ids => 6,
        Cause::PersistentPath => 7,
        Cause::Burst => 8,
        Cause::FlakyHost => 9,
        Cause::Reachable { .. } => 10,
        Cause::L7Flaky => 11,
        Cause::AlibabaRst => 12,
        Cause::MaxStartups => 13,
    }
}

/// Why origin number `oi` missed `m`'s ground-truth host number `i`, or
/// `None` if it saw the host. `net` must be built on the experiment's
/// roster and trial duration. The net is asked at the start of the
/// host's scan hour: [`SimNet::l7_cause`] (attempt 0, every origin of
/// the roster concurrent) where the host's record has a SYN-ACK,
/// [`SimNet::cause`] where it has none.
pub(crate) fn miss_cause(net: &SimNet<'_>, m: &TrialMatrix, oi: usize, i: usize) -> Option<Cause> {
    let outcome = m.outcomes.get(oi)?.get(i)?;
    if outcome.l7_success() {
        return None;
    }
    let (origin, dst) = (oi as u16, *m.addrs.get(i)?);
    let time_s = f64::from(*m.hour.get(i)?) / 21.0 * TRIAL_DURATION_S;
    Some(if outcome.l4_responsive() {
        net.l7_cause(&L7Ctx {
            origin,
            src_ip: 0,
            dst,
            protocol: m.protocol,
            time_s,
            trial: m.trial,
            attempt: 0,
            concurrent_origins: m.outcomes.len() as u8,
        })
    } else {
        net.cause(origin, m.protocol, m.trial, dst, time_s)
    })
}

/// Per origin of `m`'s roster, its missed ground-truth hosts counted by
/// `miss_cause` (at the start of each host's scan hour) into [`MISS_COLUMNS`].
pub fn miss_counts(net: &SimNet<'_>, m: &TrialMatrix) -> Vec<[usize; MISS_COLUMNS.len()]> {
    let mut rows = vec![[0; MISS_COLUMNS.len()]; m.outcomes.len()];
    for (oi, row) in rows.iter_mut().enumerate() {
        for cause in (0..m.addrs.len()).filter_map(|i| miss_cause(net, m, oi, i)) {
            row[column(cause)] += 1;
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use originscan_core::experiment::{Experiment, ExperimentConfig};
    use originscan_netmodel::OriginId;
    use originscan_scanner::probe::PAPER_PROTOCOLS;

    /// At `tiny`, for every protocol and trial: each origin's row sums
    /// to the ground-truth hosts it missed; no missed host is absent or
    /// behind a closed port (ground truth is live hosts of the protocol
    /// in that trial); only a host with a SYN-ACK gets an L7-stage cause.
    #[test]
    fn miss_counts_add_up_and_respect_the_stages() {
        let world = crate::Scale::Tiny.world_config().build();
        let cfg = ExperimentConfig {
            origins: OriginId::MAIN.to_vec(),
            protocols: PAPER_PROTOCOLS.to_vec(),
            trials: 3,
            ..Default::default()
        };
        let r = Experiment::new(&world, cfg).run().unwrap();
        let net = SimNet::new(&world, &OriginId::MAIN, TRIAL_DURATION_S);
        let mut l7_stage = 0;
        for m in r.matrices() {
            let counts = miss_counts(&net, m);
            assert_eq!(counts.len(), OriginId::MAIN.len());
            for (oi, row) in counts.iter().enumerate() {
                let missed = m.outcomes[oi].iter().filter(|o| !o.l7_success()).count();
                assert_eq!(row.iter().sum::<usize>(), missed, "{} {oi}", m.protocol);
                for i in 0..m.addrs.len() {
                    let Some(cause) = miss_cause(&net, m, oi, i) else {
                        continue;
                    };
                    let what = format!(
                        "{} trial {} origin {oi}: {}",
                        m.protocol, m.trial, m.addrs[i]
                    );
                    assert!(
                        !matches!(cause, Cause::Absent | Cause::ClosedPort),
                        "{what}: {cause:?}"
                    );
                    if matches!(
                        cause,
                        Cause::L7Flaky | Cause::AlibabaRst | Cause::MaxStartups
                    ) {
                        assert!(m.outcomes[oi][i].l4_responsive(), "{what}: {cause:?}");
                        l7_stage += 1;
                    }
                }
            }
        }
        assert!(l7_stage > 0, "no missed host had an L7-stage cause");
    }
}
