//! The paper's tables and figures as one table of artifacts over one
//! shared study.
//!
//! Every figure and table is a slice of one synchronized campaign
//! (7 origins × 3 trials × 3 protocols) plus one follow-up, so [`Study`]
//! runs each of the two at most once, on first use, and every row of
//! [`ARTIFACTS`] renders from the shared results. `Experiment::run`
//! builds a fresh `SimNet` per (protocol, trial), so a panel of the
//! 3-protocol run is the panel a single-protocol run produces. Artifacts
//! that need runs of their own (the i.i.d. ablation, the delay sweep, the
//! fault scenarios, the adversarial sweep) make them inside their render
//! function.

use crate::{header_text, paper_says_text, timed};
use originscan_core::adversarial::{AdversarialConfig, AdversarialSweep};
use originscan_core::burst_share;
use originscan_core::classify::{class_counts, host_network_split, trial_breakdown, Class};
use originscan_core::coverage::{coverage_table, mcnemar_all_pairs, mean_coverage};
use originscan_core::experiment::{Experiment, ExperimentConfig};
use originscan_core::multiorigin::{
    combo_sweep, named_combo_coverage, single_ip_roster, ProbePolicy,
};
use originscan_core::ExperimentResults;
use originscan_core::{
    both_lost_fraction, drop_vs_transient_correlation, global_drop_estimate, loss_points_for_as,
};
use originscan_core::{
    consistent_worst_countries, largest_spread_ases, origin_stability, rate_spread_distribution,
    transient_by_as,
};
use originscan_core::{count, pct, pct2, Table};
use originscan_core::{
    countries_above, country_stats, host_count_vs_inaccessible, tiered_table, CountryStats,
};
use originscan_core::{
    exclusive_by_as, exclusive_by_country, exclusive_counts, miss_overlap_histogram,
    within_country_exclusive_fraction,
};
use originscan_core::{
    explicit_close_fraction, hourly_rst_fraction, retry_sweep, ssh_miss_breakdown,
    top_transient_ssh_ases,
};
use originscan_core::{longterm_by_as, lost_as_counts, top_k_concentration};
use originscan_netmodel::{FaultPlan, OriginId, Protocol, World, WorldConfig};
use originscan_scanner::probe::PAPER_PROTOCOLS;
use originscan_stats::descriptive::{std_dev, Ecdf, FiveNumber};
use originscan_stats::k_subsets;
use std::cell::OnceCell;
use std::fmt::Write as _;

/// Run one experiment under a `bench_timed` label.
fn run<'w>(label: &str, world: &'w World, cfg: ExperimentConfig) -> ExperimentResults<'w> {
    timed(label, || {
        Experiment::new(world, cfg)
            .run()
            .expect("bench experiments name origins, protocols and trials and lose no trial whole")
    })
}

/// What the artifacts share: the bench world and, run on first use and
/// then kept, the main study and the §7 follow-up.
pub struct Study<'w> {
    world: &'w World,
    main: OnceCell<ExperimentResults<'w>>,
    follow_up: OnceCell<ExperimentResults<'w>>,
}

impl<'w> Study<'w> {
    /// A study over `world`; nothing runs until an artifact asks.
    pub fn new(world: &'w World) -> Study<'w> {
        Study {
            world,
            main: OnceCell::new(),
            follow_up: OnceCell::new(),
        }
    }

    /// The main study: 7 origins, 3 trials, 2 probes, the paper's three
    /// protocols.
    pub fn main(&self) -> &ExperimentResults<'w> {
        self.main.get_or_init(|| {
            let cfg = ExperimentConfig {
                origins: OriginId::MAIN.to_vec(),
                protocols: PAPER_PROTOCOLS.to_vec(),
                trials: 3,
                probes: 2,
                ..ExperimentConfig::default()
            };
            run("experiment", self.world, cfg)
        })
    }

    /// The §7 follow-up experiment (8 origins, HTTP, 2 trials).
    pub fn follow_up(&self) -> &ExperimentResults<'w> {
        self.follow_up.get_or_init(|| {
            let cfg = ExperimentConfig::follow_up(0xF011);
            run("follow-up experiment", self.world, cfg)
        })
    }

    /// How many (main, follow-up) experiments this study has run: each
    /// is 0 until an artifact first asks for it, then 1 for good.
    pub fn runs(&self) -> (u32, u32) {
        (
            u32::from(self.main.get().is_some()),
            u32::from(self.follow_up.get().is_some()),
        )
    }

    /// The study world's parameters with loss forced i.i.d. — the regime
    /// the original 2012 coverage estimate assumed.
    pub fn uniform_loss_config(&self) -> WorldConfig {
        WorldConfig {
            uniform_loss: true,
            ..self.world.config.clone()
        }
    }
}

/// One reproduced table or figure.
pub struct Artifact {
    /// Stable name, the key in `EXPERIMENTS.md` and DESIGN §4.
    pub id: &'static str,
    /// Where it is in the paper.
    pub title: &'static str,
    /// What it shows.
    pub caption: &'static str,
    /// The paper's reported values, for side-by-side comparison.
    pub paper: &'static [&'static str],
    /// Appends the reproduced rows to the output.
    pub render: fn(&Study, &mut String),
}

impl Artifact {
    /// The artifact's whole stdout: header, the paper's values, then the
    /// reproduced rows.
    pub fn text(&self, study: &Study) -> String {
        let mut out = header_text(self.title, self.caption);
        out.push_str(&paper_says_text(self.paper));
        (self.render)(study, &mut out);
        out
    }
}

/// Every artifact, in paper order.
pub const ARTIFACTS: &[Artifact] = &[
    Artifact {
        id: "tab00_mcnemar",
        title: "§3 significance",
        caption: "pairwise McNemar tests, Bonferroni-corrected",
        paper: &[
            "statistically significant differences (p < 0.001) between all",
            "pairs of scan origins in all trials, for every protocol",
        ],
        render: tab00_mcnemar,
    },
    Artifact {
        id: "fig01_coverage",
        title: "Figure 1",
        caption: "IPv4 host coverage by scan origin (2 probes, mean of 3 trials)",
        paper: &[
            "academic origins average 97.2% of HTTP(S); Censys 92.5%",
            "SSH origins see ~10% fewer hosts than HTTP(S)",
            "no origin exceeds 98% HTTP / 99% HTTPS / 92% SSH in any trial",
        ],
        render: fig01_coverage,
    },
    Artifact {
        id: "fig02_breakdown",
        title: "Figure 2",
        caption: "breakdown of missing hosts by origin and trial",
        paper: &[
            "transient issues account for ~51.6% of missing hosts",
            "transient losses hit individual hosts, not networks (49.7% vs 1.9%)",
            "one third of missing hosts are long-term; the rest unknown",
            "Censys is long-term inaccessible from the most hosts",
            "14-36% of transient loss coincides with a burst outage (§5.3)",
        ],
        render: fig02_breakdown,
    },
    Artifact {
        id: "fig03_longterm_overlap",
        title: "Figure 3",
        caption: "number of origins from which long-term hosts are inaccessible",
        paper: &[
            "excluding Censys, ~47% of long-term inaccessible hosts are",
            "inaccessible from only one origin",
        ],
        render: fig03_longterm_overlap,
    },
    Artifact {
        id: "tab01_exclusive",
        title: "Table 1",
        caption: "% of exclusively accessible / inaccessible hosts per origin",
        paper: &[
            "US64 sees the most exclusively accessible hosts (33.8% HTTP)",
            "Censys has the most exclusively inaccessible hosts (83.4% HTTP)",
        ],
        render: tab01_exclusive,
    },
    Artifact {
        id: "fig04_as_concentration",
        title: "Figure 4",
        caption: "AS concentration of long-term inaccessible hosts",
        paper: &[
            "HTTP: DXTL, EGI, and Enzu hold 67% of Censys's long-term missing",
            "hosts while holding <4% of global HTTP hosts",
            "academic origins' losses are spread more evenly across ASes",
        ],
        render: fig04_as_concentration,
    },
    Artifact {
        id: "fig05_lost_ases",
        title: "Figure 5",
        caption: "count of mostly/fully long-term inaccessible ASes per origin",
        paper: &[
            "Brazil suffers the largest number of completely (100%) inaccessible",
            "ASes: ~1.4x Censys and ~6.5x US1 (US finance/health blocking)",
        ],
        render: fig05_lost_ases,
    },
    Artifact {
        id: "tab02_countries_http",
        title: "Table 2",
        caption: "countries with the most long-term inaccessible HTTP hosts",
        paper: &[
            "43% of Bangladesh and 27% of South Africa inaccessible from Censys",
            "(both dominated by DXTL); 50 countries lose >10% somewhere, 19 >25%",
            "Spearman rho = 0.92 between country host count and inaccessible count",
        ],
        render: tab02_countries_http,
    },
    Artifact {
        id: "fig06_exclusive_country",
        title: "Figure 6",
        caption: "exclusively accessible HTTP hosts by country",
        paper: &[
            "~1.1% of Japanese and ~2% of Australian HTTP hosts are only",
            "accessible from within the country; JP's exclusives include",
            "US-geolocated hosts of a Japan-registered provider (Gateway Inc)",
        ],
        render: fig06_exclusive_country,
    },
    Artifact {
        id: "fig07_exclusive_as",
        title: "Figure 7",
        caption: "ASes holding each origin's exclusively accessible hosts",
        paper: &[
            "AU: >80% in WebCentral; JP: 40% Bekkoame + 29% NTT;",
            "BR's exclusives are mostly in WA K-20 (US educational ISP)",
        ],
        render: fig07_exclusive_as,
    },
    Artifact {
        id: "fig08_transient_overlap",
        title: "Figure 8",
        caption: "number of origins missing each transiently inaccessible host",
        paper: &[
            "about two thirds of transiently inaccessible HTTP(S) hosts are",
            "missed by only one origin; SSH misses overlap across origins more",
            "(MaxStartups hits everyone scanning concurrently)",
        ],
        render: fig08_transient_overlap,
    },
    Artifact {
        id: "fig09_loss_rate_spread",
        title: "Figure 9",
        caption: "CDF of per-AS transient-loss-rate spread between origins",
        paper: &[
            "loss rates are identical across origins for ~half of ASes;",
            "for ~40% of ASes the spread exceeds 1%, for 16-25% it exceeds 10%",
        ],
        render: fig09_loss_rate_spread,
    },
    Artifact {
        id: "tab03_transient_ases",
        title: "Table 3",
        caption: "ASes with the largest transient-loss spread between origins",
        paper: &[
            "large Chinese and Italian ASes dominate: HZ Alibaba (Δ20.5%),",
            "Akamai, Telecom Italia (Δ53.7%), TI Sparkle (ratio 2929), Tencent,",
            "China Telecom; ABCDE Group leads HTTP with Δ62.1%",
        ],
        render: tab03_transient_ases,
    },
    Artifact {
        id: "fig10_loss_vs_drop",
        title: "Figure 10 / §5.2",
        caption: "transient host loss vs packet-drop estimates",
        paper: &[
            "global drop estimates: 0.44-1.6% depending on origin and trial;",
            "Australia highest; drop vs transient loss Spearman rho = 0.40-0.52;",
            "in >93% of cases where one probe was lost, both were lost",
        ],
        render: fig10_loss_vs_drop,
    },
    Artifact {
        id: "fig11_best_worst",
        title: "Figure 11 / §5.1",
        caption: "origin stability across trials",
        paper: &[
            "<5% of ASes have a consistent best origin; ~10% a consistent worst;",
            "for ~23% of ASes the best origin in one trial is the worst in another;",
            "Australia is the consistent worst origin for 72% of such ASes,",
            "with affected hosts concentrated in Russia and the US",
        ],
        render: fig11_best_worst,
    },
    Artifact {
        id: "fig12_alibaba",
        title: "Figure 12",
        caption: "Alibaba's RST-after-handshake signature over scan hours",
        paper: &[
            "Alibaba detects single-IP scans ~2/3 into trial 1 and immediately",
            "RSTs every SSH connection network-wide; detection times vary",
            "across origins and trials; US64 is never detected",
        ],
        render: fig12_alibaba,
    },
    Artifact {
        id: "fig13_ssh_retry",
        title: "Figure 13",
        caption: "SSH handshake success vs retry budget (from US1)",
        paper: &[
            "retrying the handshake up to 8 times completes with ~90% of",
            "responding IPs in EGI Hosting and Psychz Networks",
        ],
        render: fig13_ssh_retry,
    },
    Artifact {
        id: "fig14_ssh_breakdown",
        title: "Figure 14",
        caption: "missing SSH hosts by cause",
        paper: &[
            "probabilistic temporary blocking + Alibaba's temporal blocking",
            "contribute over half of missing SSH hosts; probabilistic blocking",
            "affects all origins roughly equally, Alibaba only single-IP origins;",
            "57% of transiently missed SSH hosts close explicitly (vs 30% HTTP)",
        ],
        render: fig14_ssh_breakdown,
    },
    Artifact {
        id: "fig15_multiorigin_http",
        title: "Figure 15",
        caption: "multi-origin HTTP coverage (box-plot statistics)",
        paper: &[
            "1 origin: median 95.5% (1 probe), 96.9% (2 probes);",
            "2 origins: 98.3% / 98.9%; 3 origins: 99.1% / 99.4% with sigma=0.08%;",
            "1 probe from 2 origins beats 2 probes from 1 origin",
        ],
        render: fig15_multiorigin_http,
    },
    Artifact {
        id: "tab04_ground_truth",
        title: "Table 4a",
        caption: "ground-truth coverage per origin and trial (2 probes)",
        paper: &[
            "HTTP means: AU 96.7 BR 97.0 DE 96.7 JP 97.3 US1 97.5 US64 98.0 CEN 92.5,",
            "∩ 86.7%, ∪ 58.1M; HTTPS means ~97-99% (CEN 95.8), ∩ 90.5%;",
            "SSH means 83.8-90.5% (US64 highest), ∩ 70.6%",
        ],
        render: tab04_ground_truth,
    },
    Artifact {
        id: "tab04b_followup",
        title: "Table 4b",
        caption: "follow-up HTTP experiment (2 trials, 2 probes)",
        paper: &[
            "HE achieves the highest coverage (98.1%); Censys gains >5% HTTP",
            "coverage by scanning from new IP ranges",
        ],
        render: tab04b_followup,
    },
    Artifact {
        id: "tab05_countries",
        title: "Table 5",
        caption: "countries with the most long-term inaccessible HTTPS/SSH hosts",
        paper: &[
            "HTTPS: ZA 21.6% and BD 14.3% inaccessible from Censys;",
            "SSH: broad losses in CN/KR/IT from single-IP origins (Alibaba, IDS)",
        ],
        render: tab05_countries,
    },
    Artifact {
        id: "fig16_exclusive_appendix",
        title: "Figure 16",
        caption: "exclusively accessible hosts by country (HTTPS, SSH)",
        paper: &[
            "origins within a country typically have better accessibility than",
            "external origins; the effect is weaker than for HTTP",
        ],
        render: fig16_exclusive_appendix,
    },
    Artifact {
        id: "fig17_multiorigin_appendix",
        title: "Figure 17",
        caption: "multi-origin coverage, HTTPS and SSH",
        paper: &[
            "3+ origins raise HTTPS coverage by 2-3 points over a single origin;",
            "SSH needs many more origins for the same coverage (probabilistic",
            "temporary blocking persists regardless of the origin set)",
        ],
        render: fig17_multiorigin_appendix,
    },
    Artifact {
        id: "fig18_followup_triads",
        title: "Figure 18",
        caption: "follow-up triads: collocated vs diverse",
        paper: &[
            "the HE-NTT-TELIA triad (same data center) has the worst coverage of",
            "any 3-origin combination (μ=98.7%, single probe), but still within",
            "0.4% of the median triad; σ across triads = 0.1%",
        ],
        render: fig18_followup_triads,
    },
    Artifact {
        id: "fig19_probe_delay",
        title: "Extension (§7)",
        caption: "2-probe coverage vs inter-probe delay (single origin)",
        paper: &[
            "\"in more than 93% of cases where at least one probe was lost,",
            "both probes were lost ... this problem can be partially mitigated",
            "by delaying the time between probes as proposed by Bano et al.\"",
        ],
        render: fig19_probe_delay,
    },
    Artifact {
        id: "fig20_outage_recovery",
        title: "Extension (§2)",
        caption: "origin coverage under injected outages, crashes, and resume",
        paper: &[
            "\"we were only able to complete one scan from Carinet\" — real",
            "campaigns lose vantage points; analyses must tolerate partial data.",
        ],
        render: fig20_outage_recovery,
    },
    Artifact {
        id: "fig21_adversarial",
        title: "Extension (§4–§6)",
        caption: "coverage retained under reactive defense, by scanner posture",
        paper: &[
            "\"many firewalls are configured to detect scanning ... and block",
            "the originating IP\" — the paper measures static blocking only;",
            "here the defenders fight back during the scan.",
        ],
        render: fig21_adversarial,
    },
];

/// §3 — McNemar significance tests between all origin pairs, with
/// Bonferroni correction (the paper's statistical validation that origins
/// really do see different host sets).
fn tab00_mcnemar(study: &Study, out: &mut String) {
    let results = study.main();
    let mut t = Table::new(["protocol", "tests", "significant", "corrected α", "max p"]);
    for &proto in &PAPER_PROTOCOLS {
        let (tests, alpha) = mcnemar_all_pairs(results, proto, 0.001);
        let sig = tests.iter().filter(|x| x.result.p_value < alpha).count();
        let max_p = tests.iter().map(|x| x.result.p_value).fold(0.0, f64::max);
        t.row([
            proto.to_string(),
            tests.len().to_string(),
            sig.to_string(),
            format!("{alpha:.2e}"),
            format!("{max_p:.2e}"),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
}

/// Fig 1 — IPv4 host coverage by scan origin (2 probes).
///
/// Each origin sees a distinct set of hosts; SSH origins see ~10% fewer
/// ground-truth hosts than HTTP(S).
fn fig01_coverage(study: &Study, out: &mut String) {
    let results = study.main();
    let mut t = Table::new(
        ["origin"]
            .into_iter()
            .map(String::from)
            .chain(PAPER_PROTOCOLS.iter().map(|p| p.to_string())),
    );
    for &o in &OriginId::MAIN {
        t.row(
            [o.to_string()].into_iter().chain(
                PAPER_PROTOCOLS
                    .iter()
                    .map(|&p| pct(mean_coverage(results, p, o))),
            ),
        );
    }
    let _ = writeln!(out, "{}", t.render());
}

/// Fig 2 — breakdown of missing hosts by scan origin and trial
/// (transient / long-term / unknown, host- vs network-level), plus the
/// §5.3 burst share of transient loss.
fn fig02_breakdown(study: &Study, out: &mut String) {
    let world = study.world;
    let results = study.main();
    for &proto in &PAPER_PROTOCOLS {
        let panel = results.panel(proto);
        let mut t = Table::new([
            "origin",
            "trial",
            "transient",
            "long-term",
            "unknown",
            "burst-share",
        ]);
        for (oi, o) in OriginId::MAIN.iter().enumerate() {
            for trial in 0..3u8 {
                let b = trial_breakdown(&panel, oi, trial);
                let m = results.matrix(proto, trial);
                let bs = burst_share(world, &panel, m, oi, 8);
                t.row([
                    o.to_string(),
                    format!("{}", trial + 1),
                    count(b.transient),
                    count(b.long_term),
                    count(b.unknown),
                    pct(bs.fraction()),
                ]);
            }
        }
        let _ = writeln!(out, "{proto}:\n{}", t.render());

        // Host vs network split, aggregated over origins.
        let counts = class_counts(&panel);
        let mut transient_net = 0usize;
        let mut transient_host = 0usize;
        let mut longterm = 0usize;
        for (oi, c) in counts.iter().enumerate() {
            let s = host_network_split(world, &panel, oi, Class::Transient);
            transient_net += s.network_hosts;
            transient_host += s.individual_hosts;
            longterm += c.long_term;
        }
        let _ = writeln!(out, "{proto}: transient loss = {} individual-host vs {} network-level; {} long-term (sum over origins)\n",
            count(transient_host),
            count(transient_net),
            count(longterm),
        );
    }
}

/// Fig 3 — long-term inaccessibility among origins: from how many origins
/// is each long-term-missing host inaccessible?
fn fig03_longterm_overlap(study: &Study, out: &mut String) {
    miss_overlap(study, out, Class::LongTerm);
}

/// Figs 3 and 8: per protocol, the histogram of how many origins miss each
/// host that some origin misses in the `class` way.
fn miss_overlap(study: &Study, out: &mut String, class: Class) {
    let results = study.main();
    let mut t = Table::new([
        "protocol",
        "1",
        "2",
        "3",
        "4",
        "5",
        "6",
        "7",
        "1-origin share",
    ]);
    for &proto in &PAPER_PROTOCOLS {
        let panel = results.panel(proto);
        let hist = miss_overlap_histogram(&panel, class);
        let total: usize = hist.iter().sum();
        t.row(
            [proto.to_string()]
                .into_iter()
                .chain(hist.iter().map(|&h| count(h)))
                .chain([pct(hist[0] as f64 / total.max(1) as f64)]),
        );
    }
    let _ = writeln!(out, "{}", t.render());
}

/// Table 1 — breakdown of origins responsible for hosts exclusively
/// (in)accessible from a single origin.
fn tab01_exclusive(study: &Study, out: &mut String) {
    let results = study.main();
    let mut t = Table::new(
        ["row"]
            .into_iter()
            .map(String::from)
            .chain(OriginId::MAIN.iter().map(|o| o.to_string())),
    );
    for &proto in &PAPER_PROTOCOLS {
        let panel = results.panel(proto);
        let (acc, inacc) = exclusive_counts(&panel).percentages();
        t.row(
            [format!("Acc. {proto}%")]
                .into_iter()
                .chain(acc.iter().map(|v| format!("{v:.1}"))),
        );
        t.row(
            [format!("Inacc. {proto}%")]
                .into_iter()
                .chain(inacc.iter().map(|v| format!("{v:.1}"))),
        );
    }
    let _ = writeln!(out, "{}", t.render());
}

/// Fig 4 — distribution of long-term inaccessible hosts by AS, relative
/// to ground truth.
fn fig04_as_concentration(study: &Study, out: &mut String) {
    let world = study.world;
    let results = study.main();
    for &proto in &[Protocol::Http, Protocol::Https] {
        let panel = results.panel(proto);
        let mut t = Table::new([
            "origin",
            "top AS",
            "2nd",
            "3rd",
            "top-3 share",
            "lost total",
        ]);
        for (oi, o) in OriginId::MAIN.iter().enumerate() {
            let by_as = longterm_by_as(world, &panel, oi);
            let total: usize = by_as.iter().map(|(_, l, _)| l).sum();
            let name = |k: usize| {
                by_as
                    .get(k)
                    .map(|(n, l, _)| format!("{n} ({})", count(*l)))
                    .unwrap_or_default()
            };
            t.row([
                o.to_string(),
                name(0),
                name(1),
                name(2),
                pct(top_k_concentration(&by_as, 3)),
                count(total),
            ]);
        }
        let _ = writeln!(out, "{proto}:\n{}", t.render());
    }
}

/// Fig 5 — long-term inaccessible ASes: counts of ASes ≥50% / ≥75% /
/// 100% inaccessible per origin.
fn fig05_lost_ases(study: &Study, out: &mut String) {
    let world = study.world;
    let results = study.main();
    let panel = results.panel(Protocol::Http);
    let mut t = Table::new(["origin", "100%", ">=75%", ">=50%"]);
    for (oi, o) in OriginId::MAIN.iter().enumerate() {
        let c = lost_as_counts(world, &panel, oi, 2);
        t.row([
            o.to_string(),
            c.full.to_string(),
            c.at_least_75.to_string(),
            c.at_least_50.to_string(),
        ]);
    }
    let _ = writeln!(out, "HTTP:\n{}", t.render());
}

/// Table 2 — countries with the most long-term inaccessible HTTP hosts,
/// tiered by country size, with the dominant-AS coloring.
fn tab02_countries_http(study: &Study, out: &mut String) {
    let world = study.world;
    let results = study.main();
    let panel = results.panel(Protocol::Http);
    let stats = country_stats(world, &panel);

    if let Some(r) = host_count_vs_inaccessible(&stats) {
        let _ = writeln!(
            out,
            "Spearman(host count, inaccessible count): rho={:.2}, p={:.1e}",
            r.rho, r.p_value
        );
    }
    let _ = writeln!(
        out,
        ">10%: {} countries, >25%: {} countries\n",
        countries_above(&stats, 10.0).len(),
        countries_above(&stats, 25.0).len()
    );

    country_tiers(out, &stats, true);
}

/// Tables 2 and 5: per size tier, the countries with the most long-term
/// inaccessible hosts; `majority_ases` adds the column that counts the
/// ASes dominating each country's loss at its worst origin.
fn country_tiers(out: &mut String, stats: &[CountryStats], majority_ases: bool) {
    // Tier thresholds scale with the world: fractions of total GT hosts.
    let total: usize = stats.iter().map(|s| s.hosts).sum();
    let tiers = [total / 60, total / 600, total / 6000, 1];
    for (bucket, label) in tiered_table(stats, &tiers, 5).into_iter().zip([
        "largest countries",
        "large",
        "medium",
        "small",
    ]) {
        let mut t = Table::new(
            ["country", "hosts"]
                .into_iter()
                .map(String::from)
                .chain(OriginId::MAIN.iter().map(|o| o.to_string()))
                .chain(majority_ases.then(|| "maj.ASes (worst)".to_string())),
        );
        for s in bucket {
            let worst = s
                .inaccessible_pct
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            t.row(
                [s.country.code().to_string(), count(s.hosts)]
                    .into_iter()
                    .chain(s.inaccessible_pct.iter().map(|p| format!("{p:.1}")))
                    .chain(majority_ases.then(|| s.majority_ases[worst].to_string())),
            );
        }
        let _ = writeln!(out, "tier: {label}\n{}", t.render());
    }
}

/// Fig 6 — exclusively accessible HTTP hosts by (origin country ×
/// destination country).
fn fig06_exclusive_country(study: &Study, out: &mut String) {
    let _ = writeln!(out, "{}", exclusive_by_country_table(study, Protocol::Http));
}

/// Figs 6 and 16: each origin's top destination countries among its
/// exclusively accessible `proto` hosts, and the within-country share.
fn exclusive_by_country_table(study: &Study, proto: Protocol) -> String {
    let world = study.world;
    let results = study.main();
    let panel = results.panel(proto);
    // Exclude US64 as the paper does; US1 stands in for the US + Censys.
    let origins: Vec<OriginId> = OriginId::MAIN
        .into_iter()
        .filter(|&o| o != OriginId::Us64 && o != OriginId::Censys)
        .collect();
    let mut t = Table::new([
        "origin",
        "top dest countries (count)",
        "within-country excl. frac",
    ]);
    for &o in &origins {
        let oi = results.origin_index(o);
        let by_cc = exclusive_by_country(world, &panel, oi);
        let tops: Vec<String> = by_cc
            .iter()
            .take(4)
            .map(|(c, n)| format!("{c}:{n}"))
            .collect();
        let frac = within_country_exclusive_fraction(world, &panel, oi);
        t.row([
            o.to_string(),
            tops.join(" "),
            format!("{:.2}%", frac * 100.0),
        ]);
    }
    t.render()
}

/// Fig 7 — AS distribution of exclusively accessible HTTP hosts.
fn fig07_exclusive_as(study: &Study, out: &mut String) {
    let world = study.world;
    let results = study.main();
    let panel = results.panel(Protocol::Http);
    let mut t = Table::new(["origin", "top ASes (count)"]);
    for &o in &OriginId::MAIN {
        let oi = results.origin_index(o);
        let by_as = exclusive_by_as(world, &panel, oi);
        let tops: Vec<String> = by_as
            .iter()
            .take(3)
            .map(|(n, c)| format!("{n}:{c}"))
            .collect();
        t.row([o.to_string(), tops.join("  ")]);
    }
    let _ = writeln!(out, "{}", t.render());
}

/// Fig 8 — transient inaccessibility among origins: from how many origins
/// is each transiently-missed host missed?
fn fig08_transient_overlap(study: &Study, out: &mut String) {
    miss_overlap(study, out, Class::Transient);
}

/// Fig 9 — distribution across ASes of the max pairwise difference in
/// transient loss rate between origins (plain and AS-size-weighted CDFs).
fn fig09_loss_rate_spread(study: &Study, out: &mut String) {
    let world = study.world;
    let results = study.main();
    let mut t = Table::new([
        "protocol",
        "P(spread=0)",
        "P(>1%)",
        "P(>10%)",
        "P(>10%) host-weighted",
    ]);
    for &proto in &PAPER_PROTOCOLS {
        let panel = results.panel(proto);
        let spread = rate_spread_distribution(&transient_by_as(world, &panel));
        let deltas: Vec<f64> = spread.iter().map(|&(d, _)| d).collect();
        let weights: Vec<f64> = spread.iter().map(|&(_, h)| h as f64).collect();
        let ecdf = Ecdf::new(&deltas);
        let wecdf = Ecdf::weighted(&deltas, Some(&weights));
        t.row([
            proto.to_string(),
            format!("{:.2}", ecdf.eval(0.0)),
            format!("{:.2}", 1.0 - ecdf.eval(0.01)),
            format!("{:.2}", 1.0 - ecdf.eval(0.10)),
            format!("{:.2}", 1.0 - wecdf.eval(0.10)),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
}

/// Table 3 — ASes with the largest range of transient host loss rates
/// (Δ%, Diff, Ratio) per protocol.
fn tab03_transient_ases(study: &Study, out: &mut String) {
    let world = study.world;
    let results = study.main();
    for &proto in &PAPER_PROTOCOLS {
        let panel = results.panel(proto);
        let top = largest_spread_ases(transient_by_as(world, &panel), 100, 6);
        let mut t = Table::new(["AS", "Δ(%)", "Diff", "Ratio"]);
        for a in top {
            t.row([
                a.as_name.clone(),
                format!("{:.1}", a.delta() * 100.0),
                count(a.diff()),
                format!("{:.1}", a.ratio()),
            ]);
        }
        let _ = writeln!(out, "{proto}:\n{}", t.render());
    }
}

/// Fig 10 — transient host loss vs estimated packet loss for the ASes
/// with the widest spread, plus the global §5.2 statistics.
fn fig10_loss_vs_drop(study: &Study, out: &mut String) {
    let world = study.world;
    let results = study.main();
    let panel = results.panel(Protocol::Http);

    let mut t = Table::new([
        "origin",
        "drop t1",
        "drop t2",
        "drop t3",
        "both-lost",
        "rho(drop,transient)",
    ]);
    for (oi, o) in OriginId::MAIN.iter().enumerate() {
        let drops: Vec<String> = (0..3u8)
            .map(|tr| pct2(global_drop_estimate(results.matrix(Protocol::Http, tr), oi)))
            .collect();
        let both = both_lost_fraction(results.matrix(Protocol::Http, 0), oi);
        let rho = drop_vs_transient_correlation(world, &panel, results.matrices(), oi, 10)
            .map(|r| format!("{:.2}", r.rho))
            .unwrap_or_default();
        t.row([
            o.to_string(),
            drops[0].clone(),
            drops[1].clone(),
            drops[2].clone(),
            pct2(both),
            rho,
        ]);
    }
    let _ = writeln!(out, "{}", t.render());

    // The three Fig 10 panels: per-origin (drop, transient) pairs.
    for name in [
        "HZ Alibaba Advertising",
        "Telecom Italia",
        "ABCDE Group Company Limited",
    ] {
        let pts = loss_points_for_as(world, &panel, results.matrices(), name);
        let mut t = Table::new(["origin", "trial", "drop", "transient"]);
        for p in pts {
            t.row([
                OriginId::MAIN[p.origin_idx].to_string(),
                (p.trial + 1).to_string(),
                pct2(p.drop_rate),
                pct2(p.transient_rate),
            ]);
        }
        let _ = writeln!(out, "{name}:\n{}", t.render());
    }
}

/// Fig 11 — consistent best and worst scan origins relative to
/// destination ASes, and where the consistently-worst origin's hosts live.
fn fig11_best_worst(study: &Study, out: &mut String) {
    let world = study.world;
    let results = study.main();
    let panel = results.panel(Protocol::Http);
    let st = origin_stability(world, &panel, 10);
    let _ = writeln!(out, "ASes analyzed (>=10 GT hosts): {}", st.ases);
    let _ = writeln!(
        out,
        "consistent best: {} ({}), consistent worst: {} ({}), best-flips-to-worst: {} ({})\n",
        st.consistent_best,
        pct(st.consistent_best as f64 / st.ases.max(1) as f64),
        st.consistent_worst,
        pct(st.consistent_worst as f64 / st.ases.max(1) as f64),
        st.best_flips_to_worst,
        pct(st.best_flips_to_worst as f64 / st.ases.max(1) as f64),
    );

    let mut t = Table::new(["origin", "consistent-worst ASes", "share"]);
    let total: usize = st.worst_origin_counts.iter().sum();
    for (oi, o) in OriginId::MAIN.iter().enumerate() {
        t.row([
            o.to_string(),
            st.worst_origin_counts[oi].to_string(),
            pct(st.worst_origin_counts[oi] as f64 / total.max(1) as f64),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());

    let au = results.origin_index(OriginId::Australia);
    let cc = consistent_worst_countries(world, &panel, au, 10);
    let tops: Vec<String> = cc.iter().take(6).map(|(c, n)| format!("{c}:{n}")).collect();
    let _ = writeln!(
        out,
        "hosts in ASes where AU is consistently worst, by country: {}",
        tops.join(" ")
    );
}

/// Fig 12 — temporal blocking by SSH hosts in Alibaba networks: hourly
/// fraction of hosts that RST right after the TCP handshake.
fn fig12_alibaba(study: &Study, out: &mut String) {
    let world = study.world;
    let results = study.main();
    for trial in 0..3u8 {
        let m = results.matrix(Protocol::Ssh, trial);
        let mut t = Table::new(
            ["hour"]
                .into_iter()
                .map(String::from)
                .chain(OriginId::MAIN.iter().map(|o| o.to_string())),
        );
        let series: Vec<Vec<f64>> = (0..OriginId::MAIN.len())
            .map(|oi| hourly_rst_fraction(world, m, oi, "HZ Alibaba Advertising"))
            .collect();
        for h in 0..21usize {
            t.row(
                [format!("{h:02}")]
                    .into_iter()
                    .chain(series.iter().map(|s| format!("{:.2}", s[h]))),
            );
        }
        let _ = writeln!(
            out,
            "trial {} (hourly RST fraction in HZ Alibaba):\n{}",
            trial + 1,
            t.render()
        );
    }
}

/// Fig 13 — scanning probabilistically temporarily-blocking hosts:
/// success vs number of SSH handshake retries, over the top transient
/// SSH ASes.
fn fig13_ssh_retry(study: &Study, out: &mut String) {
    let world = study.world;
    let results = study.main();
    let panel = results.panel(Protocol::Ssh);
    let candidates = timed("top-AS selection", || {
        top_transient_ssh_ases(world, &panel, 10)
    });

    let mut t = Table::new(
        ["AS"]
            .into_iter()
            .map(String::from)
            .chain((0..=8).map(|k| format!("r={k}"))),
    );
    for name in &candidates {
        if let Some(sweep) = retry_sweep(world, OriginId::Us1, name, 8, 0) {
            t.row(
                [sweep.as_name.clone()]
                    .into_iter()
                    .chain(sweep.success_fraction.iter().map(|f| format!("{f:.2}"))),
            );
        }
    }
    let _ = writeln!(out, "{}", t.render());
}

/// Fig 14 — further breakdown of missing SSH hosts: probabilistic
/// temporary blocking (MaxStartups), Alibaba temporal blocking, other.
fn fig14_ssh_breakdown(study: &Study, out: &mut String) {
    let world = study.world;
    let results = study.main();
    for trial in 0..3u8 {
        let m = results.matrix(Protocol::Ssh, trial);
        let mut t = Table::new([
            "origin",
            "Alibaba temporal",
            "probabilistic",
            "other",
            "mech share",
        ]);
        for (oi, o) in OriginId::MAIN.iter().enumerate() {
            let b = ssh_miss_breakdown(world, m, oi);
            let mech = b.temporal_blocking + b.probabilistic_blocking;
            t.row([
                o.to_string(),
                count(b.temporal_blocking),
                count(b.probabilistic_blocking),
                count(b.other),
                pct(mech as f64 / b.total().max(1) as f64),
            ]);
        }
        let _ = writeln!(out, "trial {}:\n{}", trial + 1, t.render());
    }
    let ssh_close = explicit_close_fraction(world, results.matrix(Protocol::Ssh, 0), 4);
    let http_close = explicit_close_fraction(world, results.matrix(Protocol::Http, 0), 4);
    let _ = writeln!(
        out,
        "explicit-close share of missed hosts (US1, trial 1, excl. Alibaba): SSH {} vs HTTP {}",
        pct(ssh_close),
        pct(http_close)
    );
}

/// Fig 15 / §7 — multi-origin coverage of HTTP hosts, single- and
/// double-probe, for k = 1..4 origins, plus the correlated-vs-iid loss
/// ablation.
fn fig15_multiorigin_http(study: &Study, out: &mut String) {
    let results = study.main();
    let roster = single_ip_roster(results);

    let mut t = Table::new([
        "k",
        "probes",
        "min",
        "q1",
        "median",
        "q3",
        "max",
        "σ",
        "best combo",
    ]);
    for k in 1..=4usize {
        for (policy, label) in [(ProbePolicy::Single, "1"), (ProbePolicy::Double, "2")] {
            let d = combo_sweep(results, Protocol::Http, &roster, k, policy);
            let s = d.summary();
            t.row([
                k.to_string(),
                label.to_string(),
                pct2(s.min),
                pct2(s.q1),
                pct2(s.median),
                pct2(s.q3),
                pct2(s.max),
                format!("{:.3}%", d.std_dev() * 100.0),
                d.best
                    .0
                    .iter()
                    .map(|o| o.to_string())
                    .collect::<Vec<_>>()
                    .join("-"),
            ]);
        }
    }
    let _ = writeln!(out, "{}", t.render());

    // Ablation: the same sweep under forced-i.i.d. loss — the regime the
    // original 2012 coverage estimate assumed.
    out.push_str("ablation: uniform (i.i.d.) loss world — the 2012 assumption\n");
    let uworld = study.uniform_loss_config().build();
    let ucfg = ExperimentConfig {
        origins: OriginId::MAIN.to_vec(),
        protocols: vec![Protocol::Http],
        trials: 3,
        ..ExperimentConfig::default()
    };
    let uresults = &run("uniform-loss experiment", &uworld, ucfg);
    let uroster = single_ip_roster(uresults);
    let mut t = Table::new(["k", "probes", "median"]);
    for (policy, label) in [(ProbePolicy::Single, "1"), (ProbePolicy::Double, "2")] {
        let d = combo_sweep(uresults, Protocol::Http, &uroster, 1, policy);
        t.row(["1".to_string(), label.to_string(), pct2(d.summary().median)]);
    }
    let _ = writeln!(out, "{}", t.render());
    out.push_str("(under i.i.d. loss the second probe closes most of the 1-probe gap;\n");
    out.push_str(" under the measured correlated loss it does not — §7's key point)\n");
}

/// Table 4a (Appendix A) — fraction of ground-truth hosts perceived from
/// each origin, per trial, with the all-origin intersection and the
/// ground-truth union size.
fn tab04_ground_truth(study: &Study, out: &mut String) {
    for &proto in &PAPER_PROTOCOLS {
        let grid = coverage_grid(study.main(), proto, &OriginId::MAIN);
        let _ = writeln!(out, "{proto}:\n{grid}");
    }
}

/// Tables 4a and 4b: one row per trial plus the mean row, one column per
/// origin, then the all-origin intersection and the union size.
fn coverage_grid(results: &ExperimentResults, proto: Protocol, origins: &[OriginId]) -> String {
    let mut t = Table::new(
        ["trial"]
            .into_iter()
            .map(String::from)
            .chain(origins.iter().map(|o| o.to_string()))
            .chain(["∩".to_string(), "∪".to_string()]),
    );
    for row in coverage_table(results, proto) {
        let label = row.trial.map_or("μ".to_string(), |x| (x + 1).to_string());
        t.row(
            [label]
                .into_iter()
                .chain(row.fractions.iter().map(|&f| pct(f)))
                .chain([pct(row.intersection), count(row.union)]),
        );
    }
    t.render()
}

/// Table 4b (Appendix A) — the §7 follow-up HTTP experiment: original
/// origins plus Censys-from-fresh-ranges and the three collocated Tier-1
/// transits at Equinix CHI4.
fn tab04b_followup(study: &Study, out: &mut String) {
    let follow = study.follow_up();
    let grid = coverage_grid(follow, Protocol::Http, &OriginId::FOLLOW_UP);
    let _ = writeln!(out, "{grid}");

    // Censys before/after the range change.
    let main = study.main();
    let old = mean_coverage(main, Protocol::Http, OriginId::Censys);
    let fresh = mean_coverage(follow, Protocol::Http, OriginId::CensysFresh);
    let _ = writeln!(
        out,
        "Censys HTTP coverage: old ranges {} -> fresh ranges {} ({:+.1} points)",
        pct(old),
        pct(fresh),
        (fresh - old) * 100.0
    );
}

/// Table 5 (Appendix B) — countries with the most long-term inaccessible
/// HTTPS and SSH hosts (the Table 2 analogs).
fn tab05_countries(study: &Study, out: &mut String) {
    let world = study.world;
    let results = study.main();
    for &proto in &[Protocol::Https, Protocol::Ssh] {
        let panel = results.panel(proto);
        let _ = writeln!(out, "{proto}:");
        country_tiers(out, &country_stats(world, &panel), false);
    }
}

/// Fig 16 (Appendix C) — exclusively accessible hosts by country, for
/// HTTPS and SSH (the Fig 6 analogs).
fn fig16_exclusive_appendix(study: &Study, out: &mut String) {
    for proto in [Protocol::Https, Protocol::Ssh] {
        let _ = writeln!(
            out,
            "{proto}:\n{}",
            exclusive_by_country_table(study, proto)
        );
    }
}

/// Fig 17 (Appendix D) — multi-origin coverage for HTTPS and SSH.
fn fig17_multiorigin_appendix(study: &Study, out: &mut String) {
    let results = study.main();
    for &proto in &[Protocol::Https, Protocol::Ssh] {
        let roster = single_ip_roster(results);
        let mut t = Table::new(["k", "min", "median", "max", "σ"]);
        for k in 1..=5usize {
            let d = combo_sweep(results, proto, &roster, k, ProbePolicy::Double);
            let s = d.summary();
            t.row([
                k.to_string(),
                pct2(s.min),
                pct2(s.median),
                pct2(s.max),
                format!("{:.3}%", d.std_dev() * 100.0),
            ]);
        }
        let _ = writeln!(out, "{proto}:\n{}", t.render());
    }
}

/// Fig 18 (Appendix D) — multi-origin coverage in the follow-up HTTP
/// experiment: the collocated HE-NTT-TELIA triad vs geographically
/// diverse triads.
fn fig18_followup_triads(study: &Study, out: &mut String) {
    let follow = study.follow_up();
    let roster = single_ip_roster(follow);
    let collocated = [
        OriginId::HurricaneElectric,
        OriginId::NttTransit,
        OriginId::Telia,
    ];

    let mut rows: Vec<(String, f64)> = Vec::new();
    for subset in k_subsets(roster.len(), 3) {
        let triad: Vec<OriginId> = subset.iter().map(|&i| roster[i]).collect();
        let cov = named_combo_coverage(follow, Protocol::Http, &triad, ProbePolicy::Single);
        let label = triad
            .iter()
            .map(|o| o.to_string())
            .collect::<Vec<_>>()
            .join("-");
        rows.push((label, cov));
    }
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let covs: Vec<f64> = rows.iter().map(|r| r.1).collect();
    let f = FiveNumber::of(&covs);
    let _ = writeln!(
        out,
        "triads: {}; coverage min {} median {} max {}, σ {:.3}%\n",
        rows.len(),
        pct2(f.min),
        pct2(f.median),
        pct2(f.max),
        std_dev(&covs) * 100.0
    );
    let mut t = Table::new(["rank", "triad", "coverage (1 probe)"]);
    for (i, (label, cov)) in rows.iter().enumerate() {
        let marker = if label.contains("HE") && label.contains("NTT") && label.contains("TELIA") {
            " <= collocated"
        } else {
            ""
        };
        t.row([(i + 1).to_string(), format!("{label}{marker}"), pct2(*cov)]);
    }
    let _ = writeln!(out, "{}", t.render());
    let colo = named_combo_coverage(follow, Protocol::Http, &collocated, ProbePolicy::Single);
    let _ = writeln!(out, "collocated triad coverage: {}", pct2(colo));
}

/// Extension — the §7 delayed-probe mitigation, quantified.
///
/// The paper recommends (citing Bano et al.) that single-vantage-point
/// scanners send "multiple probes with delay between probes to the same
/// host" instead of ZMap's back-to-back pair. The model's transient loss
/// is a windowed state, so this artifact can measure exactly how much delay
/// buys: we sweep the inter-probe delay and report 2-probe coverage.
fn fig19_probe_delay(study: &Study, out: &mut String) {
    let world = study.world;
    let mut t = Table::new(["delay", "US1 coverage", "JP coverage"]);
    for (delay_s, label) in [
        (0.0, "back-to-back"),
        (1800.0, "30 min"),
        (7200.0, "2 h"),
        (14400.0, "4 h"),
    ] {
        let cfg = ExperimentConfig {
            origins: vec![OriginId::Us1, OriginId::Japan],
            protocols: vec![Protocol::Http],
            trials: 2,
            probes: 2,
            probe_delay_s: delay_s,
            ..ExperimentConfig::default()
        };
        let r = run(&format!("delay {label}"), world, cfg);
        t.row([
            label.to_string(),
            pct2(mean_coverage(&r, Protocol::Http, OriginId::Us1)),
            pct2(mean_coverage(&r, Protocol::Http, OriginId::Japan)),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    out.push_str("(delayed probes escape the correlated-loss window that takes both\n");
    out.push_str(" back-to-back probes down; diverse origins remain more effective)\n");
}

/// Extension — outage recovery: what a lost vantage point costs, and how
/// much supervision buys back.
///
/// §2 of the paper notes its own campaign was operationally lossy (the
/// Carinet origin completed only one trial). This artifact injects the same
/// class of failure deterministically and quantifies the methodology's
/// graceful degradation: one origin suffers a mid-trial outage window
/// (with and without a process crash + checkpoint resume), and we compare
/// its coverage and the *other* origins' coverage against the fault-free
/// run.
fn fig20_outage_recovery(study: &Study, out: &mut String) {
    let world = study.world;
    let origins = vec![OriginId::Us1, OriginId::Germany, OriginId::Japan];
    // DE is origin index 1 in this roster.
    let scenarios: [(&str, Option<FaultPlan>); 4] = [
        ("fault-free", None),
        // DE dark for the middle fifth of trial 1, recovers.
        (
            "DE outage 40–60%",
            Some(FaultPlan::new(7).outage(1, 0, 0.4, 0.6)),
        ),
        // Same outage plus a crash inside it; the supervisor resumes DE
        // from its last checkpoint, so only the window itself is lost.
        (
            "DE outage + crash/resume",
            Some(
                FaultPlan::new(7)
                    .outage(1, 0, 0.4, 0.6)
                    .crash(1, 0, 0.45, 1),
            ),
        ),
        // DE dies for good at 40%: excluded from ground truth entirely.
        (
            "DE unrecoverable at 40%",
            Some(FaultPlan::new(7).crash(1, 0, 0.4, u32::MAX)),
        ),
    ];
    let mut t = Table::new(["scenario", "US1", "DE", "JP", "GT size", "DE status"]);
    for (label, faults) in scenarios {
        let cfg = ExperimentConfig {
            origins: origins.clone(),
            protocols: vec![Protocol::Http],
            trials: 1,
            faults,
            ..ExperimentConfig::default()
        };
        let r = run(label, world, cfg);
        let m = r.matrix(Protocol::Http, 0);
        let gt = m.len().max(1) as f64;
        t.row([
            label.to_string(),
            pct2(m.seen_count(0) as f64 / gt),
            pct2(m.seen_count(1) as f64 / gt),
            pct2(m.seen_count(2) as f64 / gt),
            m.len().to_string(),
            m.statuses[1].to_string(),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    out.push_str("(the outage costs DE only its dark window; a crash inside it adds\n");
    out.push_str(" nothing because the checkpoint resume is bit-identical; unaffected\n");
    out.push_str(" origins' coverage moves only via the shrunken ground truth)\n");
}

/// Extension — adversarial co-simulation: scanner politeness × defender
/// aggression, and what adaptive resilience buys back.
///
/// §4–§6 of the paper measure *static* blocking. This artifact crosses
/// scanners of varying politeness (including closed-loop adaptive ones:
/// rate backoff, source rotation, prefix deferral) against defender
/// swarms of varying aggression (tumbling-window rate detectors,
/// escalating blocks, a greynoise-style reputation store) and reports the
/// coverage each pairing retains, normalised against the same scanner
/// undefended.
fn fig21_adversarial(study: &Study, out: &mut String) {
    let world = study.world;
    // Compressed trials (6 simulated hours instead of 21) push per-AS
    // probe rates into the detectors' trip range at bench scales.
    let cfg = AdversarialConfig {
        trials: 2,
        duration_s: 6.0 * 3600.0,
        ..AdversarialConfig::default()
    };
    let results = timed("politeness × aggression sweep", || {
        AdversarialSweep::new(world, cfg)
            .run()
            .expect("the default adversarial sweep is valid on every bench world")
    });
    let _ = writeln!(out, "{}", results.render());
    out.push_str("(each cell: L7 coverage vs. the same scanner with defense off;\n");
    out.push_str(" 'listed' = the reputation store blocklisted the origin, 'throttled'\n");
    out.push_str(" = the adaptive controller backed off / rotated and survived)\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn uniform_loss_ablation_world_is_the_study_worlds_size() {
        for scale in [Scale::Tiny, Scale::Small] {
            let world = scale.world_config().build();
            let ablation = Study::new(&world).uniform_loss_config();
            assert!(ablation.uniform_loss && !world.config.uniform_loss);
            assert_eq!(ablation.build().space(), world.space(), "{scale:?}");
        }
    }
}
