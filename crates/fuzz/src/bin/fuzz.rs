//! The fuzzing driver.
//!
//! ```text
//! cfl-fuzz run <target|all> [--iters N] [--seed S]   random + corpus sweep
//! cfl-fuzz replay <target|all> <file>...             re-run saved inputs
//! cfl-fuzz seed-corpus                               (re)write corpus/ seeds
//! ```
//!
//! `run` executes every corpus entry first, then `N` randomized inputs per
//! target (fresh random bytes interleaved with corpus mutations). On a
//! finding the input is minimized with the ddmin shrinker and persisted to
//! `regressions/<target>/`, and the process exits non-zero. The CI fuzz
//! smoke job runs `run all --iters 200`.

use std::path::Path;
use std::process::ExitCode;

use cfl_fuzz::spec::Case;
use cfl_fuzz::targets::{Target, Verdict, TARGETS};
use cfl_fuzz::{corpus_dir, corpus_seeds, read_inputs, regressions_dir, shrink};

/// Small deterministic PRNG (xorshift64*), seeded from the CLI.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn selected_targets(name: &str) -> Option<Vec<(&'static str, Target)>> {
    if name == "all" {
        return Some(TARGETS.to_vec());
    }
    TARGETS.iter().find(|(n, _)| *n == name).map(|&p| vec![p])
}

/// One input's outcome through one target.
enum InputResult {
    Verdict(Verdict),
    Finding,
}

/// Runs one input through one target; on a finding, shrinks and persists
/// it.
fn check_input(name: &str, target: Target, bytes: &[u8], origin: &str) -> InputResult {
    let Some(case) = Case::decode(bytes) else {
        return InputResult::Verdict(Verdict::Skipped("undecodable"));
    };
    let finding = match target(&case) {
        Ok(v) => return InputResult::Verdict(v),
        Err(finding) => finding,
    };
    eprintln!(
        "[{name}] FINDING on {origin} input ({} bytes): {finding}",
        bytes.len()
    );
    let mut fails = |candidate: &[u8]| Case::decode(candidate).is_some_and(|c| target(&c).is_err());
    let shrunk = shrink::shrink(bytes, &mut fails);
    let dir = regressions_dir(name);
    let _ = std::fs::create_dir_all(&dir);
    let digest = fnv1a(&shrunk);
    let path = dir.join(format!("shrunk-{digest:016x}.bin"));
    match std::fs::write(&path, &shrunk) {
        Ok(()) => eprintln!(
            "[{name}] minimized to {} bytes, persisted as {}",
            shrunk.len(),
            path.display()
        ),
        Err(e) => eprintln!("[{name}] could not persist reproducer: {e}"),
    }
    InputResult::Finding
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

fn cmd_run(target_name: &str, iters: usize, seed: u64) -> ExitCode {
    let Some(targets) = selected_targets(target_name) else {
        eprintln!(
            "unknown target {target_name:?}; known: all, cfl-vs-vf2, flat-vs-nested, \
             canon-fingerprint, delta-identity, strategy-identity"
        );
        return ExitCode::FAILURE;
    };
    let corpus = read_inputs(&corpus_dir());
    let mut rng = Rng(seed | 1);
    let mut findings = 0usize;

    for (name, target) in &targets {
        let mut checked = 0usize;
        let mut skipped = 0usize;
        let mut tally = |r: InputResult, findings: &mut usize| match r {
            InputResult::Verdict(Verdict::Checked) => checked += 1,
            InputResult::Verdict(Verdict::Skipped(_)) => skipped += 1,
            InputResult::Finding => *findings += 1,
        };
        for (path, bytes) in &corpus {
            let r = check_input(name, *target, bytes, &path.display().to_string());
            tally(r, &mut findings);
        }
        for i in 0..iters {
            // Alternate fresh random inputs with corpus mutations.
            let bytes = if i % 2 == 0 || corpus.is_empty() {
                let len = 8 + rng.below(200);
                (0..len)
                    .map(|_| (rng.next() & 0xff) as u8)
                    .collect::<Vec<u8>>()
            } else {
                let (_, base) = &corpus[rng.below(corpus.len())];
                let mut m = base.clone();
                for _ in 0..1 + rng.below(8) {
                    if m.is_empty() {
                        break;
                    }
                    let pos = rng.below(m.len());
                    m[pos] = (rng.next() & 0xff) as u8;
                }
                m
            };
            let r = check_input(name, *target, &bytes, "random");
            tally(r, &mut findings);
        }
        println!(
            "[{name}] {} corpus + {iters} generated inputs: {checked} checked, {skipped} skipped",
            corpus.len()
        );
    }

    if findings > 0 {
        eprintln!("{findings} finding(s); reproducers persisted under regressions/");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_replay(target_name: &str, files: &[String]) -> ExitCode {
    let Some(targets) = selected_targets(target_name) else {
        eprintln!("unknown target {target_name:?}");
        return ExitCode::FAILURE;
    };
    let mut findings = 0usize;
    for file in files {
        let bytes = match std::fs::read(Path::new(file)) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot read {file}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for (name, target) in &targets {
            match Case::decode(&bytes).map(|c| target(&c)) {
                Some(Err(finding)) => {
                    eprintln!("[{name}] {file}: FINDING: {finding}");
                    findings += 1;
                }
                Some(Ok(v)) => println!("[{name}] {file}: {v:?}"),
                None => println!("[{name}] {file}: undecodable (treated as pass)"),
            }
        }
    }
    if findings > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Produces the checked-in shrunken regression input for each target: the
/// first corpus seed minimized (by the same ddmin used on findings) down
/// to the smallest *nontrivial* input (query ≥ 3 vertices, data graph with
/// edges) that still drives the target through a full comparison
/// (`Verdict::Checked`). These canaries pin the shrinker's behavior and
/// guarantee the regression replay suite exercises every target for real —
/// decoding is total, so without the nontriviality floor ddmin would
/// collapse every canary to the empty input.
fn cmd_seed_regressions() -> ExitCode {
    let seeds = corpus_seeds();
    let Some((seed_name, seed)) = seeds.first() else {
        eprintln!("no corpus seeds available");
        return ExitCode::FAILURE;
    };
    for &(name, target) in TARGETS {
        let mut reaches_checked = |bytes: &[u8]| {
            Case::decode(bytes).is_some_and(|c| {
                c.q.num_vertices() >= 3
                    && c.g.num_edges() >= 3
                    && matches!(target(&c), Ok(Verdict::Checked))
            })
        };
        if !reaches_checked(seed) {
            eprintln!("[{name}] seed {seed_name} does not reach a comparison; skipped");
            continue;
        }
        let shrunk = shrink::shrink(seed, &mut reaches_checked);
        let dir = regressions_dir(name);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        let path = dir.join(format!("canary-{:016x}.bin", fnv1a(&shrunk)));
        match std::fs::write(&path, &shrunk) {
            Ok(()) => println!(
                "[{name}] {} bytes -> {} bytes, wrote {}",
                seed.len(),
                shrunk.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_seed_corpus() -> ExitCode {
    let dir = corpus_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    for (name, bytes) in corpus_seeds() {
        let path = dir.join(&name);
        match std::fs::write(&path, &bytes) {
            Ok(()) => println!("wrote {} ({} bytes)", path.display(), bytes.len()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let target = args.get(1).cloned().unwrap_or_else(|| "all".to_owned());
            let mut iters = 200usize;
            let mut seed = 0x5eed_cf1f_u64;
            let mut i = 2;
            while i < args.len() {
                match (args.get(i).map(String::as_str), args.get(i + 1)) {
                    (Some("--iters"), Some(v)) => {
                        iters = v.parse().unwrap_or(iters);
                        i += 2;
                    }
                    (Some("--seed"), Some(v)) => {
                        seed = v.parse().unwrap_or(seed);
                        i += 2;
                    }
                    _ => break,
                }
            }
            cmd_run(&target, iters, seed)
        }
        Some("replay") if args.len() >= 3 => cmd_replay(&args[1], &args[2..]),
        Some("seed-corpus") => cmd_seed_corpus(),
        Some("seed-regressions") => cmd_seed_regressions(),
        _ => {
            eprintln!(
                "usage: cfl-fuzz run <target|all> [--iters N] [--seed S]\n       cfl-fuzz replay <target|all> <file>...\n       cfl-fuzz seed-corpus\n       cfl-fuzz seed-regressions"
            );
            ExitCode::FAILURE
        }
    }
}
