//! The report schema has one source of truth, `SCHEMA_VERSION`: the
//! docs that name the current version must name that one.

#![forbid(unsafe_code)]

use aquila_bench::SCHEMA_VERSION;

/// Versions `doc` names as current: the number after `currently` or
/// `==` shortly after a mention of `schema_version` (line wraps
/// flattened).
fn current_versions(doc: &str) -> Vec<u64> {
    let flat = doc.split_whitespace().collect::<Vec<_>>().join(" ");
    flat.match_indices("`schema_version")
        .filter_map(|(at, _)| {
            let window: String = flat[at..].chars().take(60).collect();
            ["currently ", "== "].iter().find_map(|cue| {
                let rest = &window[window.find(cue)? + cue.len()..];
                rest.split(|c: char| !c.is_ascii_digit())
                    .next()?
                    .parse()
                    .ok()
            })
        })
        .collect()
}

#[test]
fn docs_name_the_emitted_schema_version() {
    for name in ["DESIGN.md", "EXPERIMENTS.md"] {
        let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("doc readable");
        let named = current_versions(&text);
        assert!(
            !named.is_empty(),
            "{name} no longer names the current schema version"
        );
        assert!(
            named.iter().all(|&v| v == SCHEMA_VERSION),
            "{name} names schema version(s) {named:?}; the code emits {SCHEMA_VERSION}"
        );
    }
}

#[test]
fn version_parser_reads_both_phrasings() {
    assert_eq!(
        current_versions("carries `schema_version` (currently 3;\n bump"),
        [3]
    );
    assert_eq!(current_versions("check `schema_version == 5` first"), [5]);
    assert!(current_versions("`schema_version` is a number").is_empty());
}
