//! Shared pieces of the versioned JSON documents the workspace commits
//! (`BENCH_serve.json`, `BENCH_resilience.json`, `BENCH_perf.json`). Each
//! is one `#[derive(Serialize, Deserialize)]` report type: its writer
//! serializes the type, and its reader is [`parse_versioned`] followed by
//! the checks the type cannot express (value ranges, orderings, totals).

use std::fmt;

use serde::{DeError, Deserialize, Serialize, Value};

/// A 64-bit digest, written as 16 hex digits (`"7546f07f361030fc"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HexDigest(pub u64);

impl fmt::Display for HexDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl Serialize for HexDigest {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for HexDigest {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = String::from_value(v)?;
        match u64::from_str_radix(&s, 16) {
            Ok(bits) if s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit()) => {
                Ok(HexDigest(bits))
            }
            _ => Err(DeError::new(format!("must be 16 hex chars, got {s:?}"))),
        }
    }
}

/// Parses `text` into a document type whose `schema_version` must be
/// `expected`. The version is checked before the other fields, so a
/// document of another schema is reported as such rather than by the
/// first key it lacks. Returns the first violation.
pub fn parse_versioned<T: Deserialize>(text: &str, expected: u64) -> Result<T, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
    let version = doc
        .get("schema_version")
        .and_then(Value::as_u64)
        .ok_or("schema_version missing or not an integer")?;
    if version != expected {
        return Err(format!("schema_version {version} != expected {expected}"));
    }
    T::from_value(&doc).map_err(|e| e.to_string())
}

/// Breaks `doc` one key at a time in the ways a typed reader must catch:
/// each key removed, each integer given a string, and each float given
/// `null` (the `f64` reader takes `null` as NaN, so a range check must
/// catch it), in nested objects and in each array's first element too.
/// Returns how many broken copies `read` rejected with a message naming the
/// broken key, or describes the first copy it accepted or did not name the
/// key for. Reader tests call it on a valid document.
pub fn rejects_broken_keys<T>(
    doc: &Value,
    read: impl Fn(&str) -> Result<T, String>,
) -> Result<usize, String> {
    let cases = breakages(doc);
    for (key, broken) in &cases {
        let text = serde_json::to_string_pretty(broken).expect("a value serializes");
        match read(&text) {
            Ok(_) => return Err(format!("accepted a document with `{key}` broken: {text}")),
            Err(why) if !names(&why, key) => {
                return Err(format!(
                    "rejected a broken `{key}` without naming it: {why}"
                ))
            }
            Err(_) => {}
        }
    }
    Ok(cases.len())
}

/// Each one-key breakage of `doc`, with the key it breaks.
fn breakages(doc: &Value) -> Vec<(String, Value)> {
    let Value::Object(entries) = doc else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (i, (key, value)) in entries.iter().enumerate() {
        // `doc` with entry `i`'s value replaced, or the entry removed.
        let with = |replacement: Option<Value>| {
            let mut broken = doc.clone();
            if let Value::Object(entries) = &mut broken {
                match replacement {
                    Some(v) => entries[i].1 = v,
                    None => drop(entries.remove(i)),
                }
            }
            broken
        };
        out.push((key.clone(), with(None)));
        let replacements = match value {
            Value::Uint(_) => vec![(key.clone(), Value::String("1".into()))],
            Value::Float(_) => vec![(key.clone(), Value::Null)],
            Value::Object(_) => breakages(value),
            Value::Array(items) => items
                .first()
                .map(breakages)
                .unwrap_or_default()
                .into_iter()
                .map(|(k, first)| {
                    let mut array = value.clone();
                    if let Value::Array(items) = &mut array {
                        items[0] = first;
                    }
                    (k, array)
                })
                .collect(),
            _ => Vec::new(),
        };
        out.extend(replacements.into_iter().map(|(k, v)| (k, with(Some(v)))));
    }
    out
}

/// Whether `message` mentions `key` as a whole word.
fn names(message: &str, key: &str) -> bool {
    let word = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    message.match_indices(key).any(|(i, _)| {
        !word(message[..i].chars().next_back()) && !word(message[i + key.len()..].chars().next())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_round_trip_as_16_hex_digits() {
        let digest = HexDigest(0x7546_f07f_3610_30fc);
        assert_eq!(
            serde_json::to_string(&digest).unwrap(),
            "\"7546f07f361030fc\""
        );
        let back: HexDigest = serde_json::from_str("\"7546F07F361030FC\"").unwrap();
        assert_eq!(back, digest);
        for bad in [
            "\"7546f07f361030f\"",
            "\"+546f07f361030fc\"",
            "\"7546f07f361030fz\"",
            "7",
        ] {
            assert!(serde_json::from_str::<HexDigest>(bad).is_err(), "{bad}");
        }
    }
}
