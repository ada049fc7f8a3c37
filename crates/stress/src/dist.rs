//! Key-population distributions for scenario op mixes.
//!
//! A point-lookup operation in a scenario draws its vertex id from a
//! [`KeySampler`]: a distribution kind ([`DistSpec`]) resolved against a
//! concrete id span. Every draw is a pure function of the per-operation
//! RNG the mix derives from `(seed, index)` — no sampler state survives a
//! draw — so any number of client threads can sample concurrently and two
//! runs with the same seed draw the *identical* key sequence regardless of
//! interleaving (the cql-stress seeded row-generation construction,
//! generalized from the [`Zipf`] sampler).
//!
//! Spec syntax (one token, used by the scenario parser and `to_text`):
//!
//! ```text
//! uniform              every id in the span equally likely
//! sequential           id = index mod span (a scan; ignores the RNG)
//! gaussian             bell curve centered mid-span, stddev = span / 6
//! gaussian:MEAN:STD    explicit center and spread (fractions of the span)
//! zipfian:S            zipf with exponent S; rank 0 = id 0 = hottest
//! ```

use vcgp_graph::SplitMix64;

/// A parsed, span-independent distribution kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DistSpec {
    /// Uniform over the span.
    Uniform,
    /// `index mod span` — a deterministic scan over the id space.
    Sequential,
    /// Gaussian with mean and stddev given as *fractions of the span*
    /// (`None` = centered at 0.5 with stddev 1/6, so ±3σ covers the span).
    Gaussian(Option<(f64, f64)>),
    /// Zipfian over ranks with the given exponent (rank 0 = id 0).
    Zipfian(f64),
}

impl DistSpec {
    /// Parses one spec token (see the module docs for the grammar).
    pub fn parse(token: &str) -> Result<DistSpec, String> {
        let mut parts = token.split(':');
        let head = parts.next().unwrap_or("");
        let rest: Vec<&str> = parts.collect();
        match head {
            "uniform" if rest.is_empty() => Ok(DistSpec::Uniform),
            "sequential" if rest.is_empty() => Ok(DistSpec::Sequential),
            "gaussian" if rest.is_empty() => Ok(DistSpec::Gaussian(None)),
            "gaussian" if rest.len() == 2 => {
                let mean: f64 = rest[0]
                    .parse()
                    .map_err(|_| format!("invalid gaussian mean {:?}", rest[0]))?;
                let std: f64 = rest[1]
                    .parse()
                    .map_err(|_| format!("invalid gaussian stddev {:?}", rest[1]))?;
                if !(mean.is_finite() && std.is_finite() && std > 0.0) {
                    return Err(format!(
                        "gaussian needs a finite mean and a positive stddev, got {token:?}"
                    ));
                }
                Ok(DistSpec::Gaussian(Some((mean, std))))
            }
            "zipfian" if rest.len() == 1 => {
                let s: f64 = rest[0]
                    .parse()
                    .map_err(|_| format!("invalid zipfian exponent {:?}", rest[0]))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!(
                        "zipfian exponent must be positive and finite, got {s}"
                    ));
                }
                Ok(DistSpec::Zipfian(s))
            }
            _ => Err(format!(
                "unknown distribution {token:?} (expected uniform, sequential, \
                 gaussian[:MEAN:STD], or zipfian:S)"
            )),
        }
    }

    /// The canonical spec token, re-parsable by [`DistSpec::parse`].
    pub fn to_text(&self) -> String {
        match self {
            DistSpec::Uniform => "uniform".to_string(),
            DistSpec::Sequential => "sequential".to_string(),
            DistSpec::Gaussian(None) => "gaussian".to_string(),
            DistSpec::Gaussian(Some((m, s))) => format!("gaussian:{m}:{s}"),
            DistSpec::Zipfian(s) => format!("zipfian:{s}"),
        }
    }

    /// Resolves the spec against a concrete id span.
    pub fn sampler(&self, span: usize) -> KeySampler {
        assert!(span >= 1, "key span must be non-empty");
        let kind = match *self {
            DistSpec::Uniform => SamplerKind::Uniform,
            DistSpec::Sequential => SamplerKind::Sequential,
            DistSpec::Gaussian(params) => {
                let (mean_frac, std_frac) = params.unwrap_or((0.5, 1.0 / 6.0));
                SamplerKind::Gaussian {
                    mean: mean_frac * (span as f64 - 1.0),
                    std: (std_frac * span as f64).max(f64::MIN_POSITIVE),
                }
            }
            DistSpec::Zipfian(s) => SamplerKind::Zipfian(Zipf::new(span, s)),
        };
        KeySampler { span, kind }
    }
}

/// A zipfian sampler over ranks `[0, n)` (rank 0 most probable, mass of
/// rank `k` proportional to `1 / (k+1)^s`), sampled by rejection
/// inversion of the zipf distribution's integral approximation — O(1)
/// memory and time per draw for any `n`, no precomputed tables, so it
/// stays a *pure* function of the per-operation RNG the mix derives from
/// `(seed, index)` (the same construction cql-stress uses for seeded row
/// generation). Rank 0 is vertex id 0, so zipfian skew composes with range
/// shard placement to concentrate load on shard 0 — the hot-shard
/// reproduction the replica experiments drive.
#[derive(Debug, Clone, Copy)]
pub struct Zipf {
    n: usize,
    s: f64,
    /// `H(1.5) - 1`: upper end of the inversion domain.
    h_x1: f64,
    /// `H(n + 0.5)`: lower end of the inversion domain.
    h_n: f64,
    /// Acceptance shortcut: `2 - H⁻¹(H(2.5) - h(2))`.
    threshold: f64,
}

impl Zipf {
    /// A sampler over `[0, n)` with exponent `s` (`s > 0`; `s = 1` is the
    /// classic zipf law, larger is more skewed).
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n >= 1, "zipf needs a non-empty rank space");
        assert!(s > 0.0 && s.is_finite(), "zipf exponent must be positive");
        Zipf {
            n,
            s,
            h_x1: h_integral(1.5, s) - 1.0,
            h_n: h_integral(n as f64 + 0.5, s),
            threshold: 2.0 - h_integral_inverse(h_integral(2.5, s) - h(2.0, s), s),
        }
    }

    /// Draws one rank in `[0, n)`.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        loop {
            let u = self.h_n + rng.next_f64() * (self.h_x1 - self.h_n);
            let x = h_integral_inverse(u, self.s);
            let k = x.round().clamp(1.0, self.n as f64);
            // Accept k when it is close enough to x (the common case) or
            // when u falls under the true mass of k.
            if k - x <= self.threshold || u >= h_integral(k + 0.5, self.s) - h(k, self.s) {
                return k as usize - 1;
            }
        }
    }
}

/// `H(x) = ((x^(1-s)) - 1) / (1 - s)`, the integral of `h`, computed via
/// `expm1`/`log1p` helpers so the `s = 1` limit (`ln x`) falls out without
/// a special case.
fn h_integral(x: f64, s: f64) -> f64 {
    let log_x = x.ln();
    helper2((1.0 - s) * log_x) * log_x
}

/// `h(x) = x^(-s)`, the mass density.
fn h(x: f64, s: f64) -> f64 {
    (-s * x.ln()).exp()
}

/// `H⁻¹(x)`.
fn h_integral_inverse(x: f64, s: f64) -> f64 {
    // Numerical round-off can push t slightly below the domain edge for
    // large exponents; clamp like the reference implementation.
    let t = (x * (1.0 - s)).max(-1.0);
    (helper1(t) * x).exp()
}

/// `ln(1 + x) / x`, stable near zero.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
    }
}

/// `(e^x - 1) / x`, stable near zero.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x * (1.0 / 3.0) * (1.0 + 0.25 * x))
    }
}

#[derive(Debug, Clone, Copy)]
enum SamplerKind {
    Uniform,
    Sequential,
    Gaussian { mean: f64, std: f64 },
    Zipfian(Zipf),
}

/// A [`DistSpec`] resolved against an id span: draws one vertex id per
/// operation, purely from the operation's RNG (plus the stream index for
/// `sequential`).
#[derive(Debug, Clone, Copy)]
pub struct KeySampler {
    span: usize,
    kind: SamplerKind,
}

impl KeySampler {
    /// The id span keys are drawn from (`[0, span)`).
    pub fn span(&self) -> usize {
        self.span
    }

    /// Draws the key for operation `index` from `rng` (the per-operation
    /// RNG seeded by `(seed, index)` — see [`crate::scenario::PhaseMix::op`]).
    /// Pure: the same `(index, rng state)` always yields the same key, and
    /// every key is within `[0, span)`.
    pub fn sample(&self, index: u64, rng: &mut SplitMix64) -> u32 {
        match self.kind {
            SamplerKind::Uniform => rng.next_index(self.span) as u32,
            SamplerKind::Sequential => (index % self.span as u64) as u32,
            SamplerKind::Gaussian { mean, std } => {
                // Box-Muller from two uniform draws; guard ln(0).
                let u1 = rng.next_f64().max(f64::MIN_POSITIVE);
                let u2 = rng.next_f64();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                let v = (mean + z * std).round();
                v.clamp(0.0, self.span as f64 - 1.0) as u32
            }
            SamplerKind::Zipfian(z) => z.sample(rng) as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::rng::mix3;

    fn draw(spec: &DistSpec, span: usize, seed: u64, index: u64) -> u32 {
        let mut rng = SplitMix64::new(mix3(seed, index, 0x4D49_5853));
        spec.sampler(span).sample(index, &mut rng)
    }

    #[test]
    fn parse_round_trips_every_kind() {
        for token in [
            "uniform",
            "sequential",
            "gaussian",
            "gaussian:0.25:0.1",
            "zipfian:1.2",
        ] {
            let spec = DistSpec::parse(token).unwrap();
            assert_eq!(DistSpec::parse(&spec.to_text()).unwrap(), spec, "{token}");
        }
    }

    #[test]
    fn parse_rejects_malformed_tokens() {
        for token in [
            "unknown",
            "uniform:1",
            "gaussian:0.5",
            "gaussian:a:b",
            "gaussian:0.5:-0.1",
            "zipfian",
            "zipfian:0",
            "zipfian:nan",
        ] {
            assert!(
                DistSpec::parse(token).is_err(),
                "{token} should be rejected"
            );
        }
    }

    #[test]
    fn every_kind_is_pure_and_in_range() {
        let specs = [
            DistSpec::Uniform,
            DistSpec::Sequential,
            DistSpec::Gaussian(None),
            DistSpec::Gaussian(Some((0.1, 0.05))),
            DistSpec::Zipfian(1.0),
        ];
        for spec in &specs {
            for span in [1usize, 7, 300] {
                for i in 0..200u64 {
                    let a = draw(spec, span, 9, i);
                    let b = draw(spec, span, 9, i);
                    assert_eq!(a, b, "{spec:?} span {span} index {i}");
                    assert!((a as usize) < span, "{spec:?} drew {a} outside span {span}");
                }
            }
        }
    }

    #[test]
    fn sequential_scans_the_span() {
        let spec = DistSpec::Sequential;
        for i in 0..30u64 {
            assert_eq!(draw(&spec, 10, 3, i), (i % 10) as u32);
        }
    }

    #[test]
    fn gaussian_concentrates_around_its_mean() {
        let span = 1000usize;
        let centered = DistSpec::Gaussian(None);
        let near_mid = (0..2000u64)
            .map(|i| draw(&centered, span, 5, i))
            .filter(|&v| (300..700).contains(&v))
            .count();
        // ±1.2σ of a centered default covers well over half the mass; a
        // uniform draw would put only 40% there.
        assert!(near_mid > 1400, "only {near_mid}/2000 near the center");
        let low = DistSpec::Gaussian(Some((0.1, 0.05)));
        let near_low = (0..2000u64)
            .map(|i| draw(&low, span, 5, i))
            .filter(|&v| v < 200)
            .count();
        assert!(
            near_low > 1800,
            "only {near_low}/2000 near the shifted mean"
        );
    }

    #[test]
    fn zipfian_skews_toward_rank_zero_and_sharpens_with_s() {
        let span = 1000usize;
        let low = |s: f64| {
            (0..2000u64)
                .map(|i| draw(&DistSpec::Zipfian(s), span, 5, i))
                .filter(|&v| v < 100)
                .count()
        };
        // Uniform would land ~200 draws in the lowest decile.
        let (mild, sharp) = (low(1.0), low(2.0));
        assert!(mild > 600, "zipfian low-id mass {mild}/2000 not skewed");
        assert!(
            sharp > mild,
            "zipf(2) low-id mass {sharp} not above zipf(1) {mild}"
        );
    }
}
