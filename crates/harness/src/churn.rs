//! Churn-scale update engine measurements.
//!
//! A plain Fig. 3 run measures one-shot table transfer: blast the table,
//! wait for the sink. A [`crate::fig3::Fig3Spec`] that carries a
//! [`routegen::churn::ChurnSpec`] also measures the other regime a
//! production speaker lives in — **steady-state churn** against the
//! already-converged RIB. The same chain then replays the stream
//! (withdraw storms, peer flaps, ROA sweeps, path-hunting cascades)
//! against the DUT in timed rounds, and two quantities come out:
//!
//! * **updates/sec** — routing updates absorbed per DUT CPU-second during
//!   the churn phase. Baselines (CPU time, update counters) are sampled at
//!   quiescence after the initial blast, strictly before the storm is
//!   armed, so the initial convergence cost never pollutes the figure.
//! * **convergence time** — virtual ns from the last churn round leaving
//!   the feeder to the DUT's last best-path change.
//!
//! Correctness is pinned by the full-recompute oracle: at the quiescent
//! point after the final (restore) round, the DUT's incremental Loc-RIB
//! must be byte-identical to a from-scratch decision pass over its
//! Adj-RIB-In ([`xbgp_driver::Daemon::oracle_loc_rib_dump`]); every churn
//! run checks it ([`dump_diff`]).

use xbgp_wire::Ipv4Prefix;

/// Count entries differing between two prefix-sorted Loc-RIB dumps:
/// prefixes present on one side only, plus prefixes whose attribute bytes
/// differ. 0 ⇔ byte-identical.
pub fn dump_diff(a: &[(Ipv4Prefix, Vec<u8>)], b: &[(Ipv4Prefix, Vec<u8>)]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                n += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                n += 1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if a[i].1 != b[j].1 {
                    n += 1;
                }
                i += 1;
                j += 1;
            }
        }
    }
    n + (a.len() - i) + (b.len() - j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig3::{run, Dut, Fig3Spec, UseCase};
    use routegen::churn::ChurnSpec;

    /// A churn run of `rounds` storm rounds over `routes` prefixes.
    fn churn(dut: Dut, use_case: UseCase, routes: usize, seed: u64, rounds: usize) -> Fig3Spec {
        Fig3Spec {
            churn: Some(ChurnSpec::new(seed, rounds)),
            ..Fig3Spec::new(dut, use_case, routes, seed)
        }
    }

    #[test]
    fn churn_run_measures_and_matches_oracle() {
        for dut in [Dut::Fir, Dut::Wren] {
            let out = run(&churn(dut, UseCase::OriginValidation, 400, 7, 6));
            assert!(out.updates_applied > 0, "{}: churn stream absorbed", dut.name());
            assert!(out.best_changes > 0, "{}: best paths changed", dut.name());
            assert!(out.updates_per_sec() > 0.0);
            assert_eq!(out.oracle_mismatches, 0, "{}: incremental ≡ oracle", dut.name());
        }
    }

    #[test]
    fn extension_churn_stays_oracle_clean() {
        let spec = Fig3Spec {
            extension: true,
            ..churn(Dut::Wren, UseCase::RouteReflection, 300, 11, 5)
        };
        let out = run(&spec);
        assert_eq!(out.oracle_mismatches, 0);
        assert!(out.best_changes > 0);
    }

    #[test]
    fn dump_diff_counts_all_divergences() {
        let p = |s: &str| -> Ipv4Prefix { s.parse().unwrap() };
        let a = vec![(p("10.0.0.0/24"), vec![1]), (p("10.0.1.0/24"), vec![2])];
        let b = vec![(p("10.0.0.0/24"), vec![1]), (p("10.0.1.0/24"), vec![3])];
        assert_eq!(dump_diff(&a, &a), 0);
        assert_eq!(dump_diff(&a, &b), 1);
        let c = vec![(p("10.0.0.0/24"), vec![1])];
        assert_eq!(dump_diff(&a, &c), 1);
        assert_eq!(dump_diff(&c, &a), 1);
        assert_eq!(dump_diff(&a, &[]), 2);
    }
}
