//! Property tests for [`heteronoc_obs::json`]: the parser is total over
//! arbitrary input (it returns an error, never panics), every generated
//! value survives both emitters (`parse(&v.to_string()) == v` and
//! `parse(&v.pretty()) == v`), and parsing stays linear in the input size.

use std::time::{Duration, Instant};

use heteronoc_obs::json::{parse, Json, ParseErrorKind, MAX_DEPTH};
use proptest::prelude::*;

/// SplitMix64: a tiny deterministic stream for building values from a seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn string(&mut self) -> String {
        const PIECES: [&str; 10] = ["a", "Z", " ", "\"", "\\", "\n", "\u{1}", "λ", "↯", "/"];
        (0..self.below(8))
            .map(|_| PIECES[self.below(PIECES.len() as u64) as usize])
            .collect()
    }

    fn value(&mut self, depth: usize) -> Json {
        let leaf = depth == 0 || self.below(3) == 0;
        match self.below(if leaf { 5 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(self.below(2) == 1),
            2 => match self.below(3) {
                0 => Json::from(self.next()),
                1 => Json::Int(i128::from(self.next() as i64)),
                _ => Json::Int(self.below(100).into()),
            },
            3 => {
                let f = f64::from_bits(self.next());
                Json::Num(if f.is_finite() {
                    f
                } else {
                    self.below(1000) as f64 / 8.0
                })
            }
            4 => Json::Str(self.string()),
            5 => Json::Arr((0..self.below(4)).map(|_| self.value(depth - 1)).collect()),
            _ => Json::Obj(
                (0..self.below(4))
                    .map(|_| (self.string(), self.value(depth - 1)))
                    .collect(),
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn json_shaped_soup_never_panics(
        picks in prop::collection::vec(0usize..24, 0..200),
    ) {
        const ALPHABET: [&str; 24] = [
            "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "00e9", "1", "-", ".", "e",
            "+", "0", "true", "nul", " ", "\n", "λ", "\"k\"", "1e999", "9999999999999999999999999999999999999999",
        ];
        let text: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        let _ = parse(&text);
    }

    #[test]
    fn generated_values_round_trip(seed in any::<u64>()) {
        let v = Gen(seed).value(6);
        prop_assert_eq!(parse(&v.to_string()).unwrap(), v.clone());
        prop_assert_eq!(parse(&v.pretty()).unwrap(), v);
    }
}

#[test]
fn nesting_past_the_cap_is_an_error_not_a_crash() {
    for open in ["[", "{\"k\":"] {
        let err = parse(&open.repeat(1_000_000)).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep, "{open}");
    }
    let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(parse(&ok).is_ok());
}

#[test]
fn string_heavy_documents_parse_in_linear_time() {
    // About 2.4 MB of strings with escapes and multi-byte characters; a
    // parser that revalidates the remaining input per character needs
    // minutes for this, a linear one milliseconds.
    let item = Json::Str("tile λ→↯ \"quoted\" \\ path/with/slashes ".repeat(4));
    let doc = Json::Arr(vec![item; 14_000]).to_string();
    assert!(doc.len() >= 2_000_000, "{} bytes", doc.len());
    let t = Instant::now();
    let back = parse(&doc).unwrap();
    let took = t.elapsed();
    assert_eq!(back.as_arr().map(<[Json]>::len), Some(14_000));
    assert!(took < Duration::from_secs(5), "parsing took {took:?}");
}
