//! The JSON writer against the JSON reader: whatever tree a report builds,
//! `parse(render(tree))` is that tree again — the property every stress
//! report relies on when `--get` and `--validate-report` read back what
//! `to_value` wrote.

use vcgp_testkit::json::{parse, Value};
use vcgp_testkit::prop::{Source, Strategy};
use vcgp_testkit::{prop_assert_eq, vcgp_props};

/// 2⁵³: the largest magnitude at which every integer is an exact `f64`.
const EXACT: f64 = 9_007_199_254_740_992.0;

/// Characters a string draw picks from: every escape the writer knows, a
/// control character it must `\u`-escape, and multi-byte text.
const ALPHABET: [char; 12] = [
    'a', 'Z', '0', ' ', '"', '\\', '\n', '\t', '\r', '\u{1}', 'é', '∑',
];

/// Arbitrary JSON trees of finite numbers. Low draws give the small cases
/// (`null`, empty containers, short strings), so the shrinker walks a
/// failing tree toward them.
#[derive(Debug)]
struct Tree;

fn string(src: &mut Source) -> String {
    (0..src.next_below(6))
        .map(|_| ALPHABET[src.next_below(12) as usize])
        .collect()
}

fn tree(src: &mut Source, depth: u32) -> Value {
    // Containers only while there is depth left, so generation terminates.
    match src.next_below(if depth == 0 { 5 } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(src.next_below(2) == 1),
        2 => Value::String(string(src)),
        // Integers up to ±2⁵³ inclusive, then fractions and large magnitudes.
        3 => {
            let sign = [1.0, -1.0][src.next_below(2) as usize];
            Value::Number(sign * src.next_below(EXACT as u64 + 1) as f64)
        }
        4 => {
            let n = f64::from_bits(src.next_u64());
            Value::Number(if n.is_finite() { n } else { 0.5 })
        }
        5 => Value::Array(
            (0..src.next_below(4))
                .map(|_| tree(src, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..src.next_below(4))
                .map(|_| (string(src), tree(src, depth - 1)))
                .collect(),
        ),
    }
}

impl Strategy for Tree {
    type Value = Value;
    fn generate(&self, src: &mut Source) -> Value {
        tree(src, 3)
    }
}

vcgp_props! {
    #![cases(256)]

    fn parse_reads_back_what_render_wrote(v in Tree) {
        prop_assert_eq!(parse(&v.render()), Ok(v));
    }
}

#[test]
fn integral_numbers_render_without_a_fraction() {
    for (n, text) in [
        (0.0, "0"),
        (-0.0, "0"),
        (42.0, "42"),
        (-7.0, "-7"),
        (EXACT, "9007199254740992"),
        (-EXACT, "-9007199254740992"),
        (0.5, "0.5"),
        (1234.6, "1234.6"),
    ] {
        assert_eq!(Value::Number(n).render(), text);
        assert_eq!(parse(text), Ok(Value::Number(n)));
    }
    // JSON has no NaN or infinity; the writer stays parseable.
    assert_eq!(Value::Number(f64::NAN).render(), "null");
    assert_eq!(Value::Number(f64::INFINITY).render(), "null");
}

#[test]
fn empty_containers_and_the_one_line_per_member_layout() {
    assert_eq!(Value::Array(vec![]).render(), "[]");
    assert_eq!(Value::object([]).render(), "{}");
    let doc = Value::object([
        ("name", "a\"b".into()),
        (
            "rows",
            vec![Value::object([("i", 1u64.into())]), Value::Array(vec![])].into(),
        ),
        ("none", Value::object([])),
    ]);
    assert_eq!(
        doc.render(),
        "{\n  \"name\": \"a\\\"b\",\n  \"rows\": [{\"i\": 1}, []],\n  \"none\": {}\n}"
    );
    assert_eq!(parse(&doc.render()), Ok(doc));
}

#[test]
fn at_walks_members_and_indices_and_misses_with_none() {
    let doc = parse(
        r#"{"ops": 3, "per_shard": [{"replicas": [{"queue_hwm": 4}, {"queue_hwm": 9}]}],
            "grid": [[1, 2], [3]]}"#,
    )
    .unwrap();
    let num = |path: &str| doc.at(path).and_then(Value::as_f64);
    assert_eq!(num("ops"), Some(3.0));
    assert_eq!(num("per_shard[0].replicas[1].queue_hwm"), Some(9.0));
    assert_eq!(num("grid[0][1]"), Some(2.0));
    for missing in [
        "nope",
        "ops.x",
        "ops[0]",
        "per_shard[1]",
        "per_shard[0].replicas[2]",
        "per_shard.replicas",
        "grid[0][2]",
        "grid[-1]",
        "grid[0",
        "grid[0]x",
        "grid[x]",
        "[0]",
        "",
        "per_shard[0]..replicas",
        ".ops",
        "ops.",
    ] {
        assert_eq!(doc.at(missing), None, "{missing:?}");
    }
    let mut doc = doc;
    *doc.at_mut("per_shard[0].replicas[0].queue_hwm").unwrap() = 5u64.into();
    assert_eq!(
        doc.at("per_shard[0].replicas[0].queue_hwm"),
        Some(&Value::Number(5.0))
    );
    assert!(doc.at_mut("per_shard[3]").is_none());
}
