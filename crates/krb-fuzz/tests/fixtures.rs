//! Pinned fixtures: the seed corpus and the per-strategy regression
//! cases under `corpus/` are byte-for-byte records.
//!
//! Regenerate after an intentional codec change with:
//!
//! ```text
//! KRB_FUZZ_BLESS=1 cargo test -p krb-fuzz --test fixtures
//! ```

#![expect(
    clippy::panic,
    reason = "integration tests are outside the protocol panic scope"
)]

use krb_fuzz::classify::{classify, diagnostic, with_quiet_panics, Verdict};
use krb_fuzz::corpus::{
    codec_from_label, codec_label, from_hex, generate_all_seeds, to_hex, SeedCase, Target,
};
use krb_fuzz::mutate::{mutate, Strategy, STRATEGIES};
use krb_fuzz::reduce::minimize;
use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use testkit::TestRng;

fn corpus_dir(sub: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus").join(sub)
}

fn blessing() -> bool {
    std::env::var_os("KRB_FUZZ_BLESS").is_some()
}

/// The checked-in seed corpus is exactly what generation produces today:
/// every seed matches its `.hex` file, and no stale files linger.
#[test]
fn seed_corpus_files_are_pinned() {
    let dir = corpus_dir("seeds");
    let seeds = generate_all_seeds();
    if blessing() {
        fs::create_dir_all(&dir).unwrap();
        for entry in fs::read_dir(&dir).unwrap() {
            fs::remove_file(entry.unwrap().path()).unwrap();
        }
        for seed in &seeds {
            fs::write(dir.join(format!("{}.hex", seed.name)), to_hex(&seed.bytes)).unwrap();
        }
        return;
    }
    let mut expected = BTreeSet::new();
    for seed in &seeds {
        let file = format!("{}.hex", seed.name);
        let path = dir.join(&file);
        let on_disk = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing seed fixture {}: {e}", path.display()));
        assert_eq!(
            from_hex(&on_disk).unwrap(),
            seed.bytes,
            "seed {} drifted from its pinned fixture (KRB_FUZZ_BLESS=1 to re-pin)",
            seed.name
        );
        expected.insert(file);
    }
    for entry in fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(expected.contains(&name), "stale seed fixture {name}");
    }
}

/// Deterministically finds one rejected mutant per strategy and shrinks
/// it while preserving its reject class.
fn regression_case(
    strategy: Strategy,
    seeds: &[SeedCase],
    corpus: &[Vec<u8>],
) -> (&'static str, Target, Vec<u8>, String) {
    let slot = STRATEGIES.iter().position(|s| *s == strategy).unwrap_or(0) as u64;
    let mut rng = TestRng::new(0xf1c5_0000 + slot);
    for _ in 0..10_000 {
        let case = &seeds[rng.index(seeds.len())];
        let mutant = mutate(strategy, &case.bytes, corpus, &mut rng);
        if let Verdict::Rejected(class) = classify(case.codec, case.target, &mutant) {
            let small = minimize(&mutant, |b| {
                matches!(classify(case.codec, case.target, b),
                         Verdict::Rejected(ref c) if *c == class)
            });
            return (codec_label(case.codec), case.target, small, class);
        }
    }
    panic!("strategy {} never produced a reject in 10k tries", strategy.name());
}

/// Every mutation strategy has at least one pinned regression fixture:
/// a minimized rejected input plus its golden diagnostic.
#[test]
fn regression_fixtures_are_pinned_per_strategy() {
    let dir = corpus_dir("regressions");
    if blessing() {
        let seeds = generate_all_seeds();
        let corpus: Vec<Vec<u8>> = seeds.iter().map(|s| s.bytes.clone()).collect();
        fs::create_dir_all(&dir).unwrap();
        for entry in fs::read_dir(&dir).unwrap() {
            fs::remove_file(entry.unwrap().path()).unwrap();
        }
        with_quiet_panics(|| {
            for strategy in STRATEGIES {
                let (codec, target, bytes, class) = regression_case(strategy, &seeds, &corpus);
                let stem = format!("{}--{}--{}", strategy.name(), codec, target.name());
                let codec_v = codec_from_label(codec).unwrap();
                let diag = diagnostic(codec_v, target, &bytes).unwrap();
                fs::write(dir.join(format!("{stem}.hex")), to_hex(&bytes)).unwrap();
                fs::write(dir.join(format!("{stem}.txt")), format!("{class}\n{diag}\n")).unwrap();
            }
        });
        return;
    }

    let mut covered = BTreeSet::new();
    for entry in fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("hex") {
            continue;
        }
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        let parts: Vec<&str> = stem.split("--").collect();
        assert_eq!(parts.len(), 3, "bad fixture name {stem}");
        let strategy = Strategy::from_name(parts[0])
            .unwrap_or_else(|| panic!("unknown strategy in {stem}"));
        let codec = codec_from_label(parts[1]).unwrap_or_else(|| panic!("unknown codec in {stem}"));
        let target = Target::from_name(parts[2]).unwrap_or_else(|| panic!("unknown target in {stem}"));
        let bytes = from_hex(&fs::read_to_string(&path).unwrap()).unwrap();
        let golden = fs::read_to_string(path.with_extension("txt")).unwrap();
        let mut lines = golden.lines();
        let class = lines.next().unwrap_or_default();
        let diag = lines.next().unwrap_or_default();

        match classify(codec, target, &bytes) {
            Verdict::Rejected(c) => assert_eq!(c, class, "reject class drifted for {stem}"),
            v => panic!("regression {stem} no longer rejects: {v:?}"),
        }
        assert_eq!(
            diagnostic(codec, target, &bytes).as_deref(),
            Some(diag),
            "diagnostic drifted for {stem}"
        );
        covered.insert(strategy.name());
    }
    for strategy in STRATEGIES {
        assert!(
            covered.contains(strategy.name()),
            "no regression fixture pinned for strategy {} (KRB_FUZZ_BLESS=1 to generate)",
            strategy.name()
        );
    }
}

/// Two same-seed harness runs are byte-identical (the library-level
/// version of the `scripts/fuzz.sh` smoke check).
#[test]
fn fuzz_runs_are_reproducible_end_to_end() {
    use krb_fuzz::harness::{run, FuzzConfig};
    let seeds = generate_all_seeds();
    let cfg = FuzzConfig { seed: 0x5eed, iterations: 1_000 };
    let a = run(&seeds, &cfg);
    let b = run(&seeds, &cfg);
    assert_eq!(a.render(cfg.seed), b.render(cfg.seed));
    assert_eq!(a.panics, 0, "{:#?}", a.findings);
    assert_eq!(a.decoded + a.rejected, cfg.iterations);
}
