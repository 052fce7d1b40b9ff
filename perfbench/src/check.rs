//! Output checks on the JSON `dgrace` prints: race identities, recall
//! against a reference, and single numeric fields. Both `detect --json`
//! and the server's REPORT list races as objects starting with `"addr"`
//! and ending with `share_count` and `tainted`, which is all this reads.

/// Every race in `json`: its identity (address, kind and both epochs,
/// i.e. the object up to `share_count`) and whether it is tainted.
pub fn races(json: &str) -> Vec<(&str, bool)> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(start) = rest.find("{\"addr\"") {
        rest = &rest[start..];
        let Some(share) = rest.find("\"share_count\"") else {
            break;
        };
        let end = rest[share..].find('}').map_or(rest.len(), |e| share + e);
        out.push((&rest[..share], rest[share..end].contains("true")));
        rest = &rest[end..];
    }
    out
}

/// Share of `reference`'s races that `json` also reports (1.0 when the
/// reference has none).
pub fn recall(json: &str, reference: &str) -> f64 {
    let want = races(reference);
    if want.is_empty() {
        return 1.0;
    }
    let got: Vec<&str> = races(json).into_iter().map(|(id, _)| id).collect();
    let kept = want.iter().filter(|(id, _)| got.contains(id)).count();
    kept as f64 / want.len() as f64
}

/// Races of `json` that are neither tainted nor in `reference`.
pub fn unexplained(json: &str, reference: &str) -> usize {
    let known: Vec<&str> = races(reference).into_iter().map(|(id, _)| id).collect();
    races(json)
        .into_iter()
        .filter(|(id, tainted)| !tainted && !known.contains(id))
        .count()
}

/// The unsigned integer after `"key": ` (or `"key":`) in `json`.
pub fn field(json: &str, key: &str) -> Option<u64> {
    let at = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = json[at..]
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLI: &str = r#"{
  "races": [
    {"addr": "0x10", "kind": "write-write", "current": {"tid": 2, "clock": 1}, "previous": {"tid": 1, "clock": 1}, "share_count": 1, "tainted": false},
    {"addr": "0x20", "kind": "read-write", "current": {"tid": 2, "clock": 3}, "previous": {"tid": 1, "clock": 1}, "share_count": 4, "tainted": true}
  ],
  "stats": {"events": 9, "events_lost": 0, "peak_total_bytes": 4096}
}"#;

    #[test]
    fn reads_races_in_both_formats() {
        let r = races(CLI);
        assert_eq!(r.len(), 2);
        assert!(r[0].0.starts_with("{\"addr\": \"0x10\""));
        assert_eq!((r[0].1, r[1].1), (false, true));
        let served = r#"{"races":[{"addr":"0x10","kind":"write-write","current":"1@2","previous":"1@1","share_count":1,"tainted":false}]}"#;
        assert_eq!(races(served).len(), 1);
    }

    #[test]
    fn recall_and_unexplained_races() {
        let one = CLI.replace("\"0x20\"", "\"0x30\"");
        assert_eq!(recall(CLI, CLI), 1.0);
        assert_eq!(recall(&one, CLI), 0.5);
        // 0x30 is new but tainted, so it is explained.
        assert_eq!(unexplained(&one, CLI), 0);
        let untainted = one.replace("\"tainted\": true", "\"tainted\": false");
        assert_eq!(unexplained(&untainted, CLI), 1);
    }

    #[test]
    fn reads_numeric_fields() {
        assert_eq!(field(CLI, "peak_total_bytes"), Some(4096));
        assert_eq!(field(CLI, "events_lost"), Some(0));
        assert_eq!(field(CLI, "missing"), None);
    }
}
