//! The complexity classes of Table 1 and empirical growth fitting.
//!
//! Every workload row states an asymptotic class for its vertex-centric and
//! sequential algorithms in terms of `n`, `m`, the diameter `δ`, an
//! iteration count `K`, and query sizes `n_q`, `m_q`. The fitter takes a
//! measured cost series over a size sweep and selects the candidate class
//! whose implied constant is most stable — the closest empirical analogue
//! of "the measurement is Θ(f)".

/// The measured parameters of one benchmark input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphParams {
    /// Vertices.
    pub n: f64,
    /// Edges.
    pub m: f64,
    /// Diameter `δ` (1.0 when not meaningful for the family).
    pub delta: f64,
    /// Iteration/phase count `K` (1.0 when not applicable).
    pub k: f64,
    /// Query vertices `n_q` (1.0 for non-pattern workloads).
    pub nq: f64,
    /// Query edges `m_q` (1.0 for non-pattern workloads).
    pub mq: f64,
}

impl GraphParams {
    /// Parameters for a plain graph workload.
    pub fn simple(n: usize, m: usize) -> Self {
        GraphParams {
            n: n as f64,
            m: m.max(1) as f64,
            delta: 1.0,
            k: 1.0,
            nq: 1.0,
            mq: 1.0,
        }
    }

    /// Sets the diameter.
    pub fn with_delta(mut self, delta: u32) -> Self {
        self.delta = delta.max(1) as f64;
        self
    }

    /// Sets the iteration count `K`.
    pub fn with_k(mut self, k: u64) -> Self {
        self.k = k.max(1) as f64;
        self
    }

    /// Sets the query size.
    pub fn with_query(mut self, nq: usize, mq: usize) -> Self {
        self.nq = nq.max(1) as f64;
        self.mq = mq.max(1) as f64;
        self
    }
}

/// The asymptotic classes named in the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum ComplexityClass {
    /// `Θ(n)`
    N,
    /// `Θ(m)`
    M,
    /// `Θ(m + n)`
    NPlusM,
    /// `Θ(n log n)`
    NLogN,
    /// `Θ((m + n) log n)`
    MPlusNLogN,
    /// `Θ(m log n)` — also stands in for `m log m` (equal up to constants).
    MLogN,
    /// `Θ(m δ)`
    MDelta,
    /// `Θ(m n)`
    MN,
    /// `Θ(n²)`
    NSquared,
    /// `Θ(m K)`
    MK,
    /// `Θ(K m log n)`
    KMLogN,
    /// `Θ(m δ log n)`
    MDeltaLogN,
    /// `Θ(m + n log n)`
    MPlusNLogNDijkstra,
    /// `Θ((m + n)(n_q + m_q))`
    MNQLinear,
    /// `Θ(m² (n_q + m_q))` — measured as total, see row 18 notes.
    M2Q,
    /// `Θ(n (m + n)(n_q + m_q))`
    NMNQ,
    /// `Θ(m² n (n_q + m_q))`
    M2NQ,
}

impl ComplexityClass {
    /// Evaluates the class at the given parameters.
    pub fn eval(self, p: &GraphParams) -> f64 {
        let log_n = p.n.max(2.0).log2();
        let q = p.nq + p.mq;
        match self {
            ComplexityClass::N => p.n,
            ComplexityClass::M => p.m,
            ComplexityClass::NPlusM => p.n + p.m,
            ComplexityClass::NLogN => p.n * log_n,
            ComplexityClass::MPlusNLogN => (p.m + p.n) * log_n,
            ComplexityClass::MLogN => p.m * log_n,
            ComplexityClass::MDelta => p.m * p.delta,
            ComplexityClass::MN => p.m * p.n,
            ComplexityClass::NSquared => p.n * p.n,
            ComplexityClass::MK => p.m * p.k,
            ComplexityClass::KMLogN => p.k * p.m * log_n,
            ComplexityClass::MDeltaLogN => p.m * p.delta * log_n,
            ComplexityClass::MPlusNLogNDijkstra => p.m + p.n * log_n,
            ComplexityClass::MNQLinear => (p.m + p.n) * q,
            ComplexityClass::M2Q => p.m * p.m * q,
            ComplexityClass::NMNQ => p.n * (p.m + p.n) * q,
            ComplexityClass::M2NQ => p.m * p.m * p.n * q,
        }
    }

    /// Human-readable label (Table 1 notation).
    pub fn label(self) -> &'static str {
        match self {
            ComplexityClass::N => "O(n)",
            ComplexityClass::M => "O(m)",
            ComplexityClass::NPlusM => "O(m+n)",
            ComplexityClass::NLogN => "O(n log n)",
            ComplexityClass::MPlusNLogN => "O((m+n) log n)",
            ComplexityClass::MLogN => "O(m log n)",
            ComplexityClass::MDelta => "O(m δ)",
            ComplexityClass::MN => "O(mn)",
            ComplexityClass::NSquared => "O(n²)",
            ComplexityClass::MK => "O(mK)",
            ComplexityClass::KMLogN => "O(Km log n)",
            ComplexityClass::MDeltaLogN => "O(mδ log n)",
            ComplexityClass::MPlusNLogNDijkstra => "O(m + n log n)",
            ComplexityClass::MNQLinear => "O((m+n)(n_q+m_q))",
            ComplexityClass::M2Q => "O(m²(n_q+m_q))",
            ComplexityClass::NMNQ => "O(n(m+n)(n_q+m_q))",
            ComplexityClass::M2NQ => "O(m²n(n_q+m_q))",
        }
    }
}

/// Result of fitting a measured series against a candidate class.
#[derive(Debug, Clone, Copy)]
pub struct Fit {
    /// The best-fitting class.
    pub class: ComplexityClass,
    /// Geometric-mean implied constant `measured / f(params)`.
    pub constant: f64,
    /// Stability of that constant: `max ratio / min ratio` over the sweep
    /// (1.0 = perfect Θ-fit).
    pub spread: f64,
}

/// Picks the candidate class whose implied constant is most stable across
/// the sweep.
///
/// # Panics
/// Panics on an empty series or empty candidate list.
pub fn fit(series: &[(GraphParams, f64)], candidates: &[ComplexityClass]) -> Fit {
    assert!(!series.is_empty(), "cannot fit an empty series");
    assert!(!candidates.is_empty(), "need at least one candidate class");
    let mut best: Option<Fit> = None;
    for &class in candidates {
        let ratios: Vec<f64> = series
            .iter()
            .map(|(p, measured)| measured / class.eval(p).max(1e-12))
            .collect();
        let max = ratios.iter().copied().fold(f64::MIN, f64::max);
        let min = ratios.iter().copied().fold(f64::MAX, f64::min);
        let spread = if min > 0.0 { max / min } else { f64::INFINITY };
        let log_mean = ratios.iter().map(|r| r.max(1e-300).ln()).sum::<f64>() / ratios.len() as f64;
        let candidate = Fit {
            class,
            constant: log_mean.exp(),
            spread,
        };
        best = Some(match best {
            None => candidate,
            Some(cur) if candidate.spread < cur.spread => candidate,
            Some(cur) => cur,
        });
    }
    best.expect("non-empty candidates")
}

/// Growth factor of a class over a sweep: `f(last) / f(first)`. Used to
/// compare how fast two fitted classes grow on the same inputs.
pub fn class_growth(class: ComplexityClass, series: &[(GraphParams, f64)]) -> f64 {
    let first = class.eval(&series[0].0).max(1e-12);
    let last = class.eval(&series[series.len() - 1].0).max(1e-12);
    last / first
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(n: usize, m: usize, delta: u32) -> GraphParams {
        GraphParams::simple(n, m).with_delta(delta)
    }

    #[test]
    fn eval_known_values() {
        let p = params(1024, 4096, 10);
        assert_eq!(ComplexityClass::N.eval(&p), 1024.0);
        assert_eq!(ComplexityClass::M.eval(&p), 4096.0);
        assert_eq!(ComplexityClass::MDelta.eval(&p), 40960.0);
        assert_eq!(ComplexityClass::MLogN.eval(&p), 4096.0 * 10.0);
        assert_eq!(ComplexityClass::MN.eval(&p), 4096.0 * 1024.0);
    }

    #[test]
    fn fit_recovers_generating_class() {
        // Synthesize measurements that are exactly 3·mδ and check the
        // fitter picks MDelta over the alternatives.
        let series: Vec<(GraphParams, f64)> = [
            (256usize, 512usize, 40u32),
            (512, 1024, 80),
            (1024, 2048, 160),
            (2048, 4096, 320),
        ]
        .into_iter()
        .map(|(n, m, d)| {
            let p = params(n, m, d);
            (p, 3.0 * ComplexityClass::MDelta.eval(&p))
        })
        .collect();
        let fit = fit(
            &series,
            &[
                ComplexityClass::M,
                ComplexityClass::MLogN,
                ComplexityClass::MDelta,
                ComplexityClass::MN,
            ],
        );
        assert_eq!(fit.class, ComplexityClass::MDelta);
        assert!((fit.constant - 3.0).abs() < 1e-9);
        assert!(fit.spread < 1.0 + 1e-9);
    }

    #[test]
    fn fit_tolerates_noise() {
        let series: Vec<(GraphParams, f64)> = (8..12u32)
            .map(|i| {
                let n = 1usize << i;
                let p = params(n, 4 * n, 8);
                let noise = if i % 2 == 0 { 1.1 } else { 0.95 };
                (p, noise * ComplexityClass::NLogN.eval(&p))
            })
            .collect();
        let fit = fit(
            &series,
            &[
                ComplexityClass::N,
                ComplexityClass::NLogN,
                ComplexityClass::NSquared,
            ],
        );
        assert_eq!(fit.class, ComplexityClass::NLogN);
    }

    #[test]
    fn class_growth_ordering() {
        let series: Vec<(GraphParams, f64)> = [(256usize, 1024usize), (4096, 16384)]
            .into_iter()
            .map(|(n, m)| (GraphParams::simple(n, m), 0.0))
            .collect();
        let linear = class_growth(ComplexityClass::M, &series);
        let quadratic = class_growth(ComplexityClass::MN, &series);
        assert!(quadratic > linear * 10.0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ComplexityClass::MDeltaLogN.label(), "O(mδ log n)");
        assert_eq!(ComplexityClass::M2NQ.label(), "O(m²n(n_q+m_q))");
    }

    #[test]
    #[should_panic(expected = "empty series")]
    fn empty_series_rejected() {
        fit(&[], &[ComplexityClass::N]);
    }
}
