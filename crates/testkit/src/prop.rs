//! Minimal property-based testing over the workspace's deterministic RNG.
//!
//! A [`Strategy`] describes how to draw a random value from a [`Source`] of
//! entropy. The runner ([`check`] / [`check_result`]) draws `cases` values,
//! applies the property, and on the first failure shrinks the *recorded
//! entropy stream* greedily: every bounded draw maps monotonically from its
//! raw 64-bit word, so zeroing a word or binary-searching it toward zero
//! shrinks the drawn value toward the low end of its range. Shrinking the
//! stream instead of the value means `prop_map` composes for free — a mapped
//! `Graph` shrinks because the `(n, m, seed)` tuple underneath it shrinks.
//!
//! Every failure report carries the per-case seed; setting
//! `VCGP_PROP_SEED=<seed>` re-runs exactly that case (and its deterministic
//! shrink), so any counterexample is replayable. `VCGP_PROP_CASES=<n>`
//! overrides the case count.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use vcgp_graph::SplitMix64;

/// Result of one application of a property: `Err` carries the failure text.
pub type TestResult = Result<(), String>;

/// Default number of cases per property (the count the seed's proptest
/// config used).
pub const DEFAULT_CASES: u32 = 32;

/// Fixed default base seed: property runs are deterministic unless the
/// caller (or `VCGP_PROP_SEED`) says otherwise.
const DEFAULT_BASE_SEED: u64 = 0x5EED_CA5E_1337_BEEF;

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of random cases to run.
    pub cases: u32,
    /// Base seed; each case derives its own seed from this, the case index,
    /// and the property name.
    pub base_seed: u64,
    /// When set, run exactly one case with this seed (replay mode).
    pub replay_seed: Option<u64>,
    /// Budget of property evaluations the shrinker may spend.
    pub max_shrink_evals: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: DEFAULT_CASES,
            base_seed: DEFAULT_BASE_SEED,
            replay_seed: None,
            max_shrink_evals: 4096,
        }
    }
}

impl Config {
    /// Sets the number of cases.
    pub fn with_cases(mut self, cases: u32) -> Self {
        self.cases = cases;
        self
    }

    /// Replays a single case seed (as printed by a failure report).
    pub fn with_replay_seed(mut self, seed: u64) -> Self {
        self.replay_seed = Some(seed);
        self
    }

    /// Applies `VCGP_PROP_CASES` and `VCGP_PROP_SEED` environment overrides.
    pub fn from_env(mut self) -> Self {
        if let Ok(v) = std::env::var("VCGP_PROP_CASES") {
            if let Ok(n) = v.trim().parse::<u32>() {
                self.cases = n.max(1);
            }
        }
        if let Ok(v) = std::env::var("VCGP_PROP_SEED") {
            if let Some(s) = parse_seed(&v) {
                self.replay_seed = Some(s);
            }
        }
        self
    }
}

/// Parses a seed in decimal or `0x`-prefixed hex.
fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse::<u64>().ok()
    }
}

/// Entropy source: a SplitMix64 stream whose draws are recorded so the
/// shrinker can replay a modified prefix. When the replay prefix is
/// exhausted mid-generation (a shrunk word changed control flow), draws fall
/// back to the live RNG so rejection loops in generators still terminate.
pub struct Source {
    rng: SplitMix64,
    replay: Vec<u64>,
    pos: usize,
    record: Vec<u64>,
}

impl Source {
    /// A fresh source for one case.
    pub fn new(seed: u64) -> Self {
        Source {
            rng: SplitMix64::new(seed),
            replay: Vec::new(),
            pos: 0,
            record: Vec::new(),
        }
    }

    /// A source that replays `prefix` before falling back to the RNG.
    fn with_replay(seed: u64, prefix: Vec<u64>) -> Self {
        Source {
            rng: SplitMix64::new(seed),
            replay: prefix,
            pos: 0,
            record: Vec::new(),
        }
    }

    /// Draws 64 raw bits (recorded).
    pub fn next_u64(&mut self) -> u64 {
        let x = if self.pos < self.replay.len() {
            self.replay[self.pos]
        } else {
            self.rng.next_u64()
        };
        self.pos += 1;
        self.record.push(x);
        x
    }

    /// Draws a value in `[0, bound)` via the monotone multiply-shift map:
    /// smaller raw words yield smaller values, which is what makes raw-stream
    /// shrinking shrink the drawn value.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Source::next_below bound must be positive");
        let x = self.next_u64();
        (((x as u128) * (bound as u128)) >> 64) as u64
    }
}

/// A recipe for drawing random values of one type.
///
/// Implemented for integer ranges (`2usize..40`), [`any_u64`], and tuples of
/// strategies; arbitrary derived inputs come from [`Strategy::prop_map`].
pub trait Strategy {
    /// The generated type.
    type Value: Debug;

    /// Draws one value from the source.
    fn generate(&self, src: &mut Source) -> Self::Value;

    /// Maps the generated value through `f` (shrinking still happens on this
    /// strategy's entropy, so mapped values shrink too).
    fn prop_map<U: Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
    U: Debug,
{
    type Value = U;
    fn generate(&self, src: &mut Source) -> U {
        (self.f)(self.inner.generate(src))
    }
}

/// Uniform draw over the full `u64` range.
pub struct AnyU64;

/// Strategy for an arbitrary `u64` (the `any::<u64>()` of this framework).
pub fn any_u64() -> AnyU64 {
    AnyU64
}

impl Strategy for AnyU64 {
    type Value = u64;
    fn generate(&self, src: &mut Source) -> u64 {
        src.next_u64()
    }
}

macro_rules! range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, src: &mut Source) -> $t {
                assert!(self.start < self.end, "empty range strategy {:?}", self);
                let span = (self.end - self.start) as u64;
                self.start + src.next_below(span) as $t
            }
        }
    )+};
}
range_strategy!(usize, u64, u32, u16, u8);

macro_rules! tuple_strategy {
    ($($S:ident / $idx:tt),+) => {
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            fn generate(&self, src: &mut Source) -> Self::Value {
                ($(self.$idx.generate(src),)+)
            }
        }
    };
}
tuple_strategy!(A / 0);
tuple_strategy!(A / 0, B / 1);
tuple_strategy!(A / 0, B / 1, C / 2);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5);

/// Everything known about one property failure, after shrinking.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Property name.
    pub name: String,
    /// Seed that reproduces this case (pass as `VCGP_PROP_SEED`).
    pub case_seed: u64,
    /// Index of the failing case within the run.
    pub case_index: u32,
    /// Failure message of the *minimized* counterexample.
    pub message: String,
    /// `Debug` rendering of the first (unshrunk) counterexample.
    pub original: String,
    /// `Debug` rendering of the minimized counterexample.
    pub minimized: String,
    /// Number of accepted shrink steps.
    pub shrink_steps: u32,
}

impl Failure {
    /// Human-readable report, including the replay instructions.
    pub fn report(&self) -> String {
        format!(
            "property '{name}' failed (case {case} — {steps} shrink steps)\n\
             minimized counterexample: {min}\n\
             original counterexample:  {orig}\n\
             error: {msg}\n\
             replay: VCGP_PROP_SEED={seed:#018x} cargo test -q {name}",
            name = self.name,
            case = self.case_index,
            steps = self.shrink_steps,
            min = truncate(&self.minimized, 2000),
            orig = truncate(&self.original, 800),
            msg = self.message,
            seed = self.case_seed,
        )
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        s.to_string()
    } else {
        let mut cut = max;
        while !s.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}… ({} bytes total)", &s[..cut], s.len())
    }
}

/// FNV-1a, used to mix the property name into per-case seeds so distinct
/// properties see distinct streams.
fn name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn case_seed(config: &Config, name: &str, index: u32) -> u64 {
    vcgp_graph::rng::mix3(config.base_seed, name_hash(name), index as u64)
}

fn run_one<V, F>(test: &F, value: V) -> TestResult
where
    F: Fn(V) -> TestResult,
{
    match catch_unwind(AssertUnwindSafe(|| test(value))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic with non-string payload".to_string());
            Err(format!("panic: {msg}"))
        }
    }
}

/// Runs the property and panics with a [`Failure::report`] on failure — the
/// entry point the [`vcgp_props!`](crate::vcgp_props) macro expands to.
pub fn check<S, F>(name: &str, config: &Config, strategy: &S, test: F)
where
    S: Strategy,
    F: Fn(S::Value) -> TestResult,
{
    if let Err(failure) = check_result(name, config, strategy, test) {
        panic!("{}", failure.report());
    }
}

/// Runs the property, returning the number of cases executed or the shrunk
/// [`Failure`].
pub fn check_result<S, F>(
    name: &str,
    config: &Config,
    strategy: &S,
    test: F,
) -> Result<u32, Failure>
where
    S: Strategy,
    F: Fn(S::Value) -> TestResult,
{
    let seeds: Vec<(u32, u64)> = match config.replay_seed {
        Some(s) => vec![(0, s)],
        None => (0..config.cases)
            .map(|i| (i, case_seed(config, name, i)))
            .collect(),
    };
    for &(index, seed) in &seeds {
        let mut src = Source::new(seed);
        let value = strategy.generate(&mut src);
        let original = format!("{value:?}");
        let raw = std::mem::take(&mut src.record);
        if let Err(message) = run_one(&test, value) {
            return Err(shrink(
                name, config, strategy, &test, seed, index, raw, original, message,
            ));
        }
    }
    Ok(seeds.len() as u32)
}

/// Greedy raw-stream shrinking: for each recorded word, first try zero, then
/// binary-search the smallest still-failing word (the bounded-draw map is
/// monotone, so this minimizes the drawn value along that coordinate).
/// Passes repeat until a full sweep accepts nothing or the eval budget runs
/// out.
#[allow(clippy::too_many_arguments)]
fn shrink<S, F>(
    name: &str,
    config: &Config,
    strategy: &S,
    test: &F,
    seed: u64,
    case_index: u32,
    mut raw: Vec<u64>,
    original: String,
    mut message: String,
) -> Failure
where
    S: Strategy,
    F: Fn(S::Value) -> TestResult,
{
    let mut evals: u32 = 0;
    let mut steps: u32 = 0;

    // Shrink attempts routinely panic inside the code under test; silence
    // the default hook while probing so the report stays readable.
    let saved_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    // Re-generates from a candidate stream; Some((record, msg)) iff it still
    // fails. The accepted record replaces `raw` because changed words can
    // change how many draws generation makes.
    let attempt = |candidate: &[u64], evals: &mut u32| -> Option<(Vec<u64>, String)> {
        *evals += 1;
        let mut src = Source::with_replay(seed, candidate.to_vec());
        let value = strategy.generate(&mut src);
        match run_one(test, value) {
            Err(msg) => Some((src.record, msg)),
            Ok(()) => None,
        }
    };

    let mut improved = true;
    while improved && evals < config.max_shrink_evals {
        improved = false;
        let mut i = 0;
        while i < raw.len() && evals < config.max_shrink_evals {
            if raw[i] == 0 {
                i += 1;
                continue;
            }
            let mut candidate = raw.clone();
            candidate[i] = 0;
            if let Some((rec, msg)) = attempt(&candidate, &mut evals) {
                raw = rec;
                message = msg;
                steps += 1;
                improved = true;
                i += 1;
                continue;
            }
            // 0 passes, raw[i] fails: binary-search the boundary.
            let (mut lo, mut hi) = (0u64, raw[i]);
            let mut best: Option<(Vec<u64>, String)> = None;
            while hi - lo > 1 && evals < config.max_shrink_evals {
                let mid = lo + (hi - lo) / 2;
                let mut candidate = raw.clone();
                candidate[i] = mid;
                match attempt(&candidate, &mut evals) {
                    Some(found) => {
                        hi = mid;
                        best = Some(found);
                    }
                    None => lo = mid,
                }
            }
            if let Some((rec, msg)) = best {
                raw = rec;
                message = msg;
                steps += 1;
                improved = true;
            }
            i += 1;
        }
    }

    let minimized = {
        let mut src = Source::with_replay(seed, raw);
        format!("{:?}", strategy.generate(&mut src))
    };
    std::panic::set_hook(saved_hook);

    Failure {
        name: name.to_string(),
        case_seed: seed,
        case_index,
        message,
        original,
        minimized,
        shrink_steps: steps,
    }
}

/// Property-test assertion: evaluates to an early `Err` return instead of a
/// panic, so the runner can shrink.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} — {}",
                stringify!($cond),
                format!($($fmt)+)
            ));
        }
    };
}

/// Equality assertion for properties; see [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err(format!(
                "assertion failed: `{} == {}` — {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                format!($($fmt)+),
                l,
                r
            ));
        }
    }};
}

/// Inequality assertion for properties; see [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                l
            ));
        }
    }};
}

/// Declares property tests. Each `fn name(pat in strategy, ...) { body }`
/// expands to a `#[test]` that runs the body over random draws, shrinking
/// and reporting a replayable seed on failure.
///
/// ```
/// vcgp_testkit::vcgp_props! {
///     #![cases(32)]                       // optional default for the block
///     fn addition_commutes(a in 0u64..1000, b in 0u64..1000) {
///         vcgp_testkit::prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! vcgp_props {
    (#![cases($cases:expr)] $($rest:tt)*) => {
        $crate::__vcgp_props_inner! { ($cases) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__vcgp_props_inner! { ($crate::prop::DEFAULT_CASES) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __vcgp_props_inner {
    (($default:expr)) => {};
    (($default:expr)
        $(#[cases($cases:expr)])?
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        #[test]
        fn $name() {
            let __cases: u32 = $default;
            $(let __cases: u32 = $cases;)?
            let __config = $crate::prop::Config::default()
                .with_cases(__cases)
                .from_env();
            let __strategy = ($($strat,)+);
            $crate::prop::check(
                stringify!($name),
                &__config,
                &__strategy,
                |($($arg,)+)| {
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                },
            );
        }
        $crate::__vcgp_props_inner! { ($default) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_below_is_monotone_in_raw_word() {
        // The shrinker depends on this: smaller raw word → smaller value.
        let bound = 1000u64;
        let value = |raw: u64| (((raw as u128) * (bound as u128)) >> 64) as u64;
        let mut prev = 0;
        for raw in (0..64).map(|i| 1u64 << i) {
            let v = value(raw);
            assert!(v >= prev);
            prev = v;
        }
        assert_eq!(value(0), 0);
        assert_eq!(value(u64::MAX), bound - 1);
    }

    #[test]
    fn range_strategy_stays_in_bounds() {
        let mut src = Source::new(99);
        for _ in 0..1000 {
            let v = (5usize..17).generate(&mut src);
            assert!((5..17).contains(&v));
        }
    }

    #[test]
    fn prop_map_composes() {
        let strat = (2usize..10).prop_map(|n| vec![0u8; n]);
        let mut src = Source::new(3);
        let v = strat.generate(&mut src);
        assert!((2..10).contains(&v.len()));
    }

    #[test]
    fn replay_prefix_reproduces_draws() {
        let mut a = Source::new(7);
        let first: Vec<u64> = (0..5).map(|_| a.next_u64()).collect();
        let mut b = Source::with_replay(7, first.clone());
        let again: Vec<u64> = (0..5).map(|_| b.next_u64()).collect();
        assert_eq!(first, again);
    }

    #[test]
    fn parse_seed_accepts_hex_and_decimal() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0x2A"), Some(42));
        assert_eq!(parse_seed(" 0X2a "), Some(42));
        assert_eq!(parse_seed("nope"), None);
    }

    #[test]
    fn passing_property_reports_case_count() {
        let config = Config::default().with_cases(17);
        let n = check_result("always_ok", &config, &(0u64..10,), |_| Ok(())).unwrap();
        assert_eq!(n, 17);
    }

    #[test]
    fn panicking_property_is_caught_and_shrunk() {
        let config = Config::default().with_cases(64);
        let failure = check_result("panics", &config, &(0usize..1000,), |(n,)| {
            assert!(n < 100, "too big: {n}");
            Ok(())
        })
        .unwrap_err();
        assert!(failure.message.contains("panic"));
        assert_eq!(failure.minimized, "(100,)");
    }
}
