//! Latency and capture models.
//!
//! Every delay the simulator applies is sampled from one of these
//! profiles. The [`LatencyProfile::cisco`] profile is calibrated to the
//! paper's Fig. 5 measurements of real IOS routers in GNS3:
//!
//! * console config → soft reconfiguration: ~25 s (the surprisingly large
//!   gap §7 remarks on),
//! * soft reconfiguration / received advert → RIB+decision: ~4 ms,
//! * RIB → FIB install: 0.1–4 ms,
//! * RIB → advertisement sent: ~4 ms,
//! * advertisement propagation between routers: ~8 ms.

use cpvr_types::SimTime;
use rand::Rng;

/// A delay distribution: `base ± jitter`, uniform.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Delay {
    /// Mean delay.
    pub(crate) base: SimTime,
    /// Maximum absolute deviation from the mean.
    pub(crate) jitter: SimTime,
}

impl Delay {
    /// A constant (jitter-free) delay.
    pub(crate) const fn fixed(t: SimTime) -> Self {
        Delay {
            base: t,
            jitter: SimTime::ZERO,
        }
    }

    /// Samples the delay.
    pub(crate) fn sample(&self, rng: &mut impl Rng) -> SimTime {
        if self.jitter.as_nanos() == 0 {
            return self.base;
        }
        let j = self.jitter.as_nanos();
        let lo = self.base.as_nanos().saturating_sub(j);
        let hi = self.base.as_nanos() + j;
        SimTime::from_nanos(rng.gen_range(lo..=hi))
    }
}

/// All control-plane processing and propagation delays.
#[derive(Clone, Copy, Debug)]
pub struct LatencyProfile {
    /// Config entered → control plane starts applying it (soft
    /// reconfiguration).
    pub(crate) config_apply: Delay,
    /// Input processed → RIB updated (the decision process).
    pub(crate) decision: Delay,
    /// RIB updated → FIB entry programmed.
    pub(crate) fib_install: Delay,
    /// RIB updated → advertisement leaves the router.
    pub(crate) advert_send: Delay,
    /// Advertisement propagation across a link (includes the peer's
    /// ingress processing).
    pub(crate) link_prop: Delay,
    /// Hardware status change → control plane notices.
    pub(crate) link_notify: Delay,
}

impl LatencyProfile {
    /// Near-zero latencies with no jitter — for unit tests and logical
    /// convergence checks.
    pub fn fast() -> Self {
        let us = |n| Delay::fixed(SimTime::from_micros(n));
        LatencyProfile {
            config_apply: us(10),
            decision: us(1),
            fib_install: us(1),
            advert_send: us(1),
            link_prop: us(5),
            link_notify: us(1),
        }
    }

    /// Calibrated to the paper's Fig. 5 Cisco/GNS3 measurements.
    pub fn cisco() -> Self {
        LatencyProfile {
            config_apply: Delay {
                base: SimTime::from_secs(25),
                jitter: SimTime::from_secs(3),
            },
            decision: Delay {
                base: SimTime::from_millis(4),
                jitter: SimTime::from_millis(1),
            },
            fib_install: Delay {
                base: SimTime::from_micros(500),
                jitter: SimTime::from_micros(400),
            },
            advert_send: Delay {
                base: SimTime::from_millis(4),
                jitter: SimTime::from_millis(1),
            },
            link_prop: Delay {
                base: SimTime::from_millis(8),
                jitter: SimTime::from_millis(2),
            },
            link_notify: Delay {
                base: SimTime::from_millis(1),
                jitter: SimTime::from_micros(500),
            },
        }
    }
}

/// How captured I/O records travel to the central verifier.
#[derive(Clone, Copy, Debug)]
pub struct CaptureProfile {
    /// Export delay from router to verifier.
    pub(crate) delay: Delay,
    /// Probability a record is lost entirely (`0.0..=1.0`).
    pub(crate) loss: f64,
}

impl CaptureProfile {
    /// Instant, lossless capture — the idealized setting.
    pub fn ideal() -> Self {
        CaptureProfile {
            delay: Delay::fixed(SimTime::ZERO),
            loss: 0.0,
        }
    }

    /// Syslog-ish capture: tens of milliseconds of skew, no loss.
    pub fn syslog() -> Self {
        CaptureProfile {
            delay: Delay {
                base: SimTime::from_millis(50),
                jitter: SimTime::from_millis(45),
            },
            loss: 0.0,
        }
    }

    /// Lossy capture for stress experiments.
    pub fn lossy(loss: f64) -> Self {
        CaptureProfile {
            delay: CaptureProfile::syslog().delay,
            loss,
        }
    }

    /// Samples the arrival time at the verifier for an event at `t`;
    /// `None` = the record is lost.
    pub(crate) fn sample(&self, t: SimTime, rng: &mut impl Rng) -> Option<SimTime> {
        if self.loss > 0.0 && rng.gen_bool(self.loss.min(1.0)) {
            return None;
        }
        Some(t + self.delay.sample(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_delay_has_no_jitter() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = Delay::fixed(SimTime::from_millis(5));
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), SimTime::from_millis(5));
        }
    }

    #[test]
    fn jittered_delay_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = Delay {
            base: SimTime::from_millis(8),
            jitter: SimTime::from_millis(2),
        };
        for _ in 0..1000 {
            let s = d.sample(&mut rng);
            assert!(
                s >= SimTime::from_millis(6) && s <= SimTime::from_millis(10),
                "{s}"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let d = Delay {
            base: SimTime::from_millis(8),
            jitter: SimTime::from_millis(2),
        };
        let seq1: Vec<SimTime> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..20).map(|_| d.sample(&mut rng)).collect()
        };
        let seq2: Vec<SimTime> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..20).map(|_| d.sample(&mut rng)).collect()
        };
        assert_eq!(seq1, seq2);
    }

    #[test]
    fn cisco_profile_matches_fig5_scales() {
        let p = LatencyProfile::cisco();
        assert!(p.config_apply.base >= SimTime::from_secs(20));
        assert_eq!(p.decision.base, SimTime::from_millis(4));
        assert_eq!(p.link_prop.base, SimTime::from_millis(8));
        assert!(p.fib_install.base < SimTime::from_millis(1));
    }

    #[test]
    fn ideal_capture_is_instant_and_lossless() {
        let mut rng = StdRng::seed_from_u64(3);
        let c = CaptureProfile::ideal();
        let t = SimTime::from_millis(7);
        for _ in 0..10 {
            assert_eq!(c.sample(t, &mut rng), Some(t));
        }
    }

    #[test]
    fn lossy_capture_drops_records() {
        let mut rng = StdRng::seed_from_u64(4);
        let c = CaptureProfile::lossy(0.5);
        let t = SimTime::from_millis(7);
        let lost = (0..1000)
            .filter(|_| c.sample(t, &mut rng).is_none())
            .count();
        assert!((300..700).contains(&lost), "loss rate wildly off: {lost}");
    }

    #[test]
    fn syslog_capture_delays_records() {
        let mut rng = StdRng::seed_from_u64(5);
        let c = CaptureProfile::syslog();
        let t = SimTime::from_millis(100);
        let a = c.sample(t, &mut rng).unwrap();
        assert!(a > t);
        assert!(a <= t + SimTime::from_millis(95));
    }
}
