//! Totality proptests for the rule parser and compiler: any input —
//! arbitrary bytes, mangled near-valid rules, random option soup —
//! yields `Ok` or a typed error. A panic anywhere is a test failure
//! (the panic-hygiene contract, exercised rather than asserted).

use krb_ids::{compile, engine_from_rules, MsgKind, RuleSet};
use testkit::prop::{any, collection, string, Strategy};

/// Near-grammar fragments: much better at reaching deep parser states
/// than uniform bytes.
fn rule_soup() -> impl Strategy<Value = String> {
    let frag = testkit::prop_oneof![
        string::of("a-z0-9:;,()\"#->. ", 0..=24),
        string::of("alert krb any", 1..=13),
        string::of("0-9", 1..=6),
    ];
    collection::vec(frag, 0..8).prop_map(|parts| parts.join(" "))
}

testkit::prop! {
    /// Arbitrary bytes (lossy-decoded) never panic the parser.
    fn parser_total_on_arbitrary_bytes(bytes in collection::vec(any::<u8>(), 0..256)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = RuleSet::parse(&text);
    }

    /// Near-grammar soup never panics parser or compiler.
    fn parser_and_compiler_total_on_rule_soup(text in rule_soup()) {
        if let Ok(rules) = RuleSet::parse(&text) {
            let _ = compile(&rules);
        }
    }

    /// The end-to-end constructor is total too.
    fn engine_construction_total(text in rule_soup()) {
        let _ = engine_from_rules(&text);
    }

    /// Structured almost-valid rules: every option key the compiler
    /// knows, with arbitrary values, in arbitrary order.
    fn compiler_total_on_option_fuzz(
        detector in string::of("a-z-", 0..=16),
        window in string::of("0-9a-z", 0..=10),
        threshold in string::of("0-9", 0..=8),
        per in string::of("a-z", 0..=10),
        kinds in string::of("a-z-,", 0..=24),
        sid in string::of("0-9", 0..=8),
    ) {
        let text = format!(
            "alert krb any any -> any any (detector:{detector}; window:{window}; \
             threshold:{threshold}; per:{per}; kinds:{kinds}; sid:{sid};)"
        );
        let _ = engine_from_rules(&text);
    }

    /// Kind sniffing is total over arbitrary payload bytes.
    fn sniff_total(payload in collection::vec(any::<u8>(), 0..64)) {
        let _ = MsgKind::sniff(&payload);
    }
}
