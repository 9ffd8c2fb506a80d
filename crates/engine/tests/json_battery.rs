//! Hostile-input battery for `engine::json` plus round-trip property tests
//! over generated `EngineConfig`s.
//!
//! The parser reads sockets once the serving layer is in front of it, so
//! every malformed document must come back as a typed [`JsonError`] with a
//! sane byte offset — never a panic, never an abort.  The round-trip half
//! generates seeded random configurations (including adversarial strings:
//! quotes, backslashes, control characters, non-BMP scalars) and asserts
//! `from_json(to_json(c)) == c` exactly.

use engine::json::{self, escape, Json, JsonError};
use engine::prelude::*;
use prng::{Rng, StdRng};
use treemem::random::random_attachment_tree;

// Miri runs this battery for parser memory-safety, not statistical
// coverage; the native case counts would take hours under interpretation.
const BOMB_DEPTH: usize = if cfg!(miri) { 2_000 } else { 50_000 };
const GARBAGE_ROUNDS: usize = if cfg!(miri) { 100 } else { 2_000 };
const CONFIG_ROUNDS: usize = if cfg!(miri) { 10 } else { 300 };
const ESCAPE_ROUNDS: usize = if cfg!(miri) { 100 } else { 2_000 };

/// Parse and demand a `JsonError` whose offset points into (or just past)
/// the document.
fn expect_error(doc: &str) -> JsonError {
    match Json::parse(doc) {
        Ok(value) => panic!("{doc:?} unexpectedly parsed to {value:?}"),
        Err(error) => {
            assert!(
                error.offset <= doc.len(),
                "offset {} out of bounds for {doc:?}",
                error.offset
            );
            error
        }
    }
}

#[test]
fn truncated_and_malformed_numbers() {
    for doc in [
        "1.", ".5", "01", "007", "+5", "-", "--1", "1e", "1e+", "1e-", "2.5e", "1..2", "1.e5",
        "0x10", "1_000",
    ] {
        expect_error(doc);
    }
}

#[test]
fn nan_and_infinity_literals_are_rejected() {
    // Rust's `f64::from_str` would happily accept several of these, which is
    // why the parser validates the JSON grammar instead.
    for doc in [
        "NaN",
        "nan",
        "Infinity",
        "-Infinity",
        "inf",
        "-inf",
        "1e99999x",
    ] {
        expect_error(doc);
    }
}

#[test]
fn bad_escapes() {
    for doc in [
        r#""\x41""#,   // unknown escape letter
        r#""\u12""#,   // truncated hex
        r#""\u12zz""#, // non-hex digits
        r#""\u+1f3""#, // sign accepted by from_str_radix, not by JSON
        r#""\u-1f3""#,
        r#""\u""#,            // nothing after the u
        r#""\"#,              // backslash at end of input
        "\"\\ud83d\\uzz00\"", // high surrogate followed by broken escape
    ] {
        expect_error(doc);
    }
}

#[test]
fn deep_nesting_returns_an_error() {
    for opener in ["[", "{\"k\":", "[[", "[{\"k\":"] {
        let bomb = opener.repeat(BOMB_DEPTH);
        let error = expect_error(&bomb);
        assert!(error.message.contains("nesting"), "{error}");
    }
    // A mixed close-delimiter bomb, for good measure.
    let mixed: String = (0..BOMB_DEPTH)
        .map(|i| if i % 2 == 0 { "[" } else { "{\"x\":" })
        .collect();
    expect_error(&mixed);
}

#[test]
fn duplicate_keys_are_rejected_with_the_key_offset() {
    let doc = r#"{"solver": "minmem", "solver": "liu"}"#;
    let error = expect_error(doc);
    assert!(error.message.contains("duplicate key"), "{error}");
    // The offset points at the second occurrence of the key.
    assert_eq!(&doc[error.offset..error.offset + 8], "\"solver\"");
}

#[test]
fn raw_control_characters_in_strings_are_rejected() {
    for byte in 0u8..0x20 {
        let doc = format!("\"a{}b\"", byte as char);
        let error = expect_error(&doc);
        assert!(
            error.message.contains("control character"),
            "byte 0x{byte:02x}: {error}"
        );
    }
}

#[test]
fn structural_garbage() {
    for doc in [
        "",
        " ",
        "{",
        "}",
        "[",
        "]",
        "{]",
        "[}",
        "[1 2]",
        "{\"a\" 1}",
        "{\"a\":}",
        "{:1}",
        "[1,]",
        "{\"a\":1,}",
        "tru",
        "nul",
        "falsey",
        "\"open",
        "{} {}",
        "[1][2]",
        ",",
    ] {
        expect_error(doc);
    }
}

#[test]
fn seeded_random_garbage_never_panics() {
    // Random byte soup (valid UTF-8 by construction) must always produce a
    // clean parse or a clean error.
    let mut rng = StdRng::seed_from_u64(0x5eed_badd);
    let alphabet: Vec<char> = "{}[]\",:0123456789.eE+-truefalsn \\u\nд😀\u{1}"
        .chars()
        .collect();
    for _ in 0..GARBAGE_ROUNDS {
        let len = rng.gen_range(0..60usize);
        let doc: String = (0..len)
            .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
            .collect();
        match Json::parse(&doc) {
            Ok(_) => {}
            Err(error) => assert!(error.offset <= doc.len()),
        }
    }
}

/// A seeded random string drawing from an adversarial alphabet.
fn random_string(rng: &mut StdRng) -> String {
    let alphabet: Vec<char> = "ab\"\\/\n\r\t\u{0}\u{1f}\u{7f}\u{9b}é漢😀\u{10ffff} "
        .chars()
        .collect();
    let len = rng.gen_range(0..12usize);
    (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
        .collect()
}

fn random_config(rng: &mut StdRng) -> EngineConfig {
    let source = match rng.gen_range(0..3u32) {
        0 => {
            let kind = ProblemKind::ALL[rng.gen_range(0..ProblemKind::ALL.len())];
            EngineConfig::generated(kind, rng.gen_range(1..5_000usize), rng.gen::<u64>())
        }
        1 => EngineConfig::matrix_market(format!("data/{}.mtx", random_string(rng))),
        _ => {
            let nodes = rng.gen_range(1..40usize);
            EngineConfig::prebuilt(random_attachment_tree(nodes, 50, 50, rng.gen::<u64>()))
        }
    };
    let orderings = [
        OrderingMethod::Natural,
        OrderingMethod::MinimumDegree,
        OrderingMethod::NestedDissection,
        OrderingMethod::ReverseCuthillMcKee,
    ];
    let memory = match rng.gen_range(0..3u32) {
        0 => MemoryBudget::Unlimited,
        1 => MemoryBudget::Absolute(rng.gen_range(0..1_000_000i64)),
        _ => MemoryBudget::FractionOfPeak(rng.gen::<f64>()),
    };
    source
        .with_ordering(orderings[rng.gen_range(0..orderings.len())])
        .with_amalgamation(rng.gen_range(1..64usize))
        .with_solver(random_string(rng))
        .with_policy(random_string(rng))
        .with_memory(memory)
        .with_numeric(rng.gen_bool(0.3))
}

#[test]
fn generated_configs_round_trip_exactly() {
    let mut rng = StdRng::seed_from_u64(0xc0ff_ee00);
    for case in 0..CONFIG_ROUNDS {
        let config = random_config(&mut rng);
        let json = config.to_json();
        let parsed =
            EngineConfig::from_json(&json).unwrap_or_else(|e| panic!("case {case}: {e}\n{json}"));
        assert_eq!(parsed, config, "case {case}");
        assert_eq!(parsed.hash(), config.hash(), "case {case}");
        // Serialisation is canonical: a second trip is byte-identical.
        assert_eq!(parsed.to_json(), json, "case {case}");
    }
}

#[test]
fn escape_parse_is_a_bijection_on_random_strings() {
    let mut rng = StdRng::seed_from_u64(0xdead_f00d);
    for _ in 0..ESCAPE_ROUNDS {
        let text = random_string(&mut rng);
        let doc = format!("\"{}\"", escape(&text));
        assert_eq!(
            Json::parse(&doc).unwrap().as_str(),
            Some(text.as_str()),
            "{text:?} failed the trip"
        );
    }
}

#[test]
fn written_keys_and_values_round_trip_on_random_strings() {
    let mut rng = StdRng::seed_from_u64(0x0b1e_c7ed);
    for _ in 0..ESCAPE_ROUNDS {
        let (key, value) = (random_string(&mut rng), random_string(&mut rng));
        let expected = Json::Obj(vec![(key.clone(), Json::Str(value.clone()))]);
        for doc in [
            json::document(|doc| {
                doc.field(&key, &value);
            }),
            json::line(|object| {
                object.field(&key, &value);
            }),
        ] {
            assert_eq!(Json::parse(&doc).unwrap(), expected, "{doc:?}");
        }
    }
}
