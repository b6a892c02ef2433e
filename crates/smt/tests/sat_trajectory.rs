//! Pinned search trajectories of the CDCL core.
//!
//! Every model the explorer reports comes from the deterministic SAT core
//! (see the determinism contract in `solver.rs`), so a change to the
//! core's data structures must not change its search: the same decisions,
//! propagations, conflicts, restarts, learnt clauses and models. Each test
//! here runs a fixed instance and compares one line per solve call —
//! verdict, `SatStats`, live learnt clauses and a digest of the model
//! bits — against values recorded from the reference solver.

use symsc_smt::blast::Blaster;
use symsc_smt::cnf::{load_aig, CnfResult};
use symsc_smt::sat::{Lit, SatSolver, Var};
use symsc_smt::{TermPool, Width};

/// One solve call, rendered as a line: verdict, counters, live learnts and
/// an FNV-1a digest over the model bits of `vars`.
fn snapshot(s: &SatSolver, vars: &[Var], sat: bool) -> String {
    let st = s.stats();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in vars {
        h ^= u64::from(s.value(v));
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!(
        "{} d={} p={} c={} r={} l={} live={} model={h:016x}",
        if sat { "sat" } else { "unsat" },
        st.decisions,
        st.propagations,
        st.conflicts,
        st.restarts,
        st.learnt_clauses,
        s.num_learnt(),
    )
}

fn new_vars(s: &mut SatSolver, n: usize) -> Vec<Var> {
    (0..n).map(|_| s.new_var()).collect()
}

/// Xorshift64: the fixed pseudo-random stream every instance draws from.
struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A uniform random 3-clause over distinct variables that `planted`
/// satisfies: clauses it falsifies are redrawn.
fn planted_3clause(rng: &mut Xorshift, vars: &[Var], planted: &[bool]) -> Vec<Lit> {
    loop {
        let mut picked: Vec<usize> = Vec::with_capacity(3);
        while picked.len() < 3 {
            let v = rng.below(vars.len());
            if !picked.contains(&v) {
                picked.push(v);
            }
        }
        let clause: Vec<(usize, bool)> = picked.iter().map(|&v| (v, rng.next() & 1 == 1)).collect();
        if clause.iter().any(|&(v, neg)| planted[v] != neg) {
            return clause
                .iter()
                .map(|&(v, neg)| Lit::new(vars[v], neg))
                .collect();
        }
    }
}

/// A 3-clause with at least one literal agreeing with `planted`.
fn planted_clause(rng: &mut Xorshift, vars: &[Var], planted: &[bool]) -> Vec<Lit> {
    let n = vars.len();
    let forced = rng.below(n);
    let mut clause = vec![Lit::new(vars[forced], !planted[forced])];
    for _ in 0..2 {
        let v = rng.below(n);
        clause.push(Lit::new(vars[v], rng.next() & 1 == 1));
    }
    clause
}

fn pigeonhole(s: &mut SatSolver, pigeons: usize, holes: usize) -> Vec<Var> {
    let p = new_vars(s, pigeons * holes);
    for i in 0..pigeons {
        let clause: Vec<Lit> = (0..holes)
            .map(|j| Lit::new(p[i * holes + j], false))
            .collect();
        s.add_clause(&clause);
    }
    for j in 0..holes {
        for i1 in 0..pigeons {
            for i2 in (i1 + 1)..pigeons {
                s.add_clause(&[
                    Lit::new(p[i1 * holes + j], true),
                    Lit::new(p[i2 * holes + j], true),
                ]);
            }
        }
    }
    p
}

fn check(got: &[String], want: &[&str]) {
    let got: Vec<&str> = got.iter().map(String::as_str).collect();
    assert_eq!(got, want, "SAT search trajectory changed");
}

#[test]
fn unit_instances() {
    let mut lines = Vec::new();

    // Implication chain x0 -> x1 -> ... -> x19 under x0.
    let mut s = SatSolver::new();
    let x = new_vars(&mut s, 20);
    s.add_clause(&[Lit::new(x[0], false)]);
    for w in x.windows(2) {
        s.add_clause(&[Lit::new(w[0], true), Lit::new(w[1], false)]);
    }
    let r = s.solve();
    lines.push(snapshot(&s, &x, r));

    // Pigeonholes 3-into-2 and 5-into-4.
    for (p, h) in [(3, 2), (5, 4)] {
        let mut s = SatSolver::new();
        let vars = pigeonhole(&mut s, p, h);
        let r = s.solve();
        lines.push(snapshot(&s, &vars, r));
    }

    // Ten planted 3-SAT rounds at 30 variables, 120 clauses.
    let mut rng = Xorshift(0x1234_5678);
    for _ in 0..10 {
        let mut s = SatSolver::new();
        let v = new_vars(&mut s, 30);
        let planted: Vec<bool> = (0..30).map(|_| rng.next() & 1 == 1).collect();
        for _ in 0..120 {
            let c = planted_clause(&mut rng, &v, &planted);
            s.add_clause(&c);
        }
        let r = s.solve();
        lines.push(snapshot(&s, &v, r));
    }

    // Assumptions flip the verdict of (a | b) without poisoning it.
    let mut s = SatSolver::new();
    let ab = new_vars(&mut s, 2);
    let (a, b) = (ab[0], ab[1]);
    s.add_clause(&[Lit::new(a, false), Lit::new(b, false)]);
    for assumptions in [
        vec![Lit::new(a, true), Lit::new(b, true)],
        vec![Lit::new(a, true)],
        vec![Lit::new(b, true)],
        vec![],
    ] {
        let r = s.solve_with_assumptions(&assumptions);
        lines.push(snapshot(&s, &ab, r));
    }

    // Clauses and variables added between solves.
    let mut s = SatSolver::new();
    let mut abc = new_vars(&mut s, 2);
    s.add_clause(&[Lit::new(abc[0], false), Lit::new(abc[1], false)]);
    let r = s.solve();
    lines.push(snapshot(&s, &abc, r));
    s.add_clause(&[Lit::new(abc[0], true)]);
    let r = s.solve();
    lines.push(snapshot(&s, &abc, r));
    abc.push(s.new_var());
    s.add_clause(&[Lit::new(abc[2], false)]);
    let r = s.solve();
    lines.push(snapshot(&s, &abc, r));

    // Xor chain of eight inputs with parity 1.
    let mut s = SatSolver::new();
    let mut x = new_vars(&mut s, 8);
    let mut t_prev = x[0];
    for i in 1..8 {
        let t = s.new_var();
        let (a, b, c) = (
            Lit::new(t_prev, false),
            Lit::new(x[i], false),
            Lit::new(t, false),
        );
        s.add_clause(&[a.negated(), b.negated(), c.negated()]);
        s.add_clause(&[a, b, c.negated()]);
        s.add_clause(&[a.negated(), b, c]);
        s.add_clause(&[a, b.negated(), c]);
        x.push(t);
        t_prev = t;
    }
    s.add_clause(&[Lit::new(t_prev, false)]);
    let r = s.solve();
    lines.push(snapshot(&s, &x, r));

    check(
        &lines,
        &[
            "sat d=0 p=20 c=0 r=0 l=0 live=0 model=b4aa1622074c0ee9",
            "unsat d=1 p=10 c=2 r=0 l=0 live=0 model=03f812c74093a7fc",
            "unsat d=31 p=277 c=28 r=0 l=24 live=24 model=ce2f59c216b3dec6",
            "sat d=17 p=68 c=4 r=0 l=4 live=4 model=b8a69ac53a054ad1",
            "sat d=20 p=51 c=4 r=0 l=4 live=4 model=0f34ba9e0c9b39bd",
            "sat d=4 p=30 c=0 r=0 l=0 live=0 model=fbcd29a55e50a6a6",
            "sat d=10 p=36 c=1 r=0 l=1 live=1 model=d89e43526263c17a",
            "sat d=11 p=30 c=0 r=0 l=0 live=0 model=b96ded04f06ee08d",
            "sat d=12 p=33 c=1 r=0 l=1 live=1 model=f9201ea639fb2de5",
            "sat d=10 p=30 c=0 r=0 l=0 live=0 model=7e61753cb78b4162",
            "sat d=11 p=75 c=3 r=0 l=3 live=3 model=14f806ae31899598",
            "sat d=14 p=35 c=1 r=0 l=1 live=1 model=7aacc6ea9bb94d77",
            "sat d=11 p=30 c=0 r=0 l=0 live=0 model=7096b0c076db7c07",
            "unsat d=0 p=2 c=0 r=0 l=0 live=0 model=08328807b4eb6fed",
            "sat d=0 p=4 c=0 r=0 l=0 live=0 model=08328707b4eb6e3a",
            "sat d=0 p=6 c=0 r=0 l=0 live=0 model=082f2207b4e88cc4",
            "sat d=2 p=8 c=0 r=0 l=0 live=0 model=082f2207b4e88cc4",
            "sat d=1 p=2 c=0 r=0 l=0 live=0 model=08328707b4eb6e3a",
            "sat d=1 p=4 c=0 r=0 l=0 live=0 model=08328707b4eb6e3a",
            "sat d=1 p=5 c=0 r=0 l=0 live=0 model=d949ad186c0c4e41",
            "sat d=7 p=15 c=0 r=0 l=0 live=0 model=0fb5d6dbb942bd19",
        ],
    );
}

#[test]
fn planted_3sat() {
    let mut lines = Vec::new();
    for (n, seed) in [
        (30usize, 0x9e37_79b9u64),
        (100, 0x7f4a_7c15),
        (300, 0x85eb_ca6b),
    ] {
        let mut rng = Xorshift(seed);
        let mut s = SatSolver::new();
        let v = new_vars(&mut s, n);
        let planted: Vec<bool> = (0..n).map(|_| rng.next() & 1 == 1).collect();
        for _ in 0..n * 426 / 100 {
            let c = planted_3clause(&mut rng, &v, &planted);
            s.add_clause(&c);
        }
        let r = s.solve();
        lines.push(snapshot(&s, &v, r));
    }
    check(
        &lines,
        &[
            "sat d=10 p=57 c=3 r=0 l=3 live=3 model=215d496a157eb77e",
            "sat d=33 p=471 c=15 r=0 l=15 live=15 model=aeffac712f7ac042",
            "sat d=9057 p=373830 c=6963 r=30 l=6963 live=3212 model=cbb464708145c9ee",
        ],
    );
}

#[test]
fn pigeonhole_8_into_7_reduces_the_learnt_database() {
    let mut s = SatSolver::new();
    let vars = pigeonhole(&mut s, 8, 7);
    let r = s.solve();
    check(
        &[snapshot(&s, &vars, r)],
        &["unsat d=4154 p=41062 c=3392 r=16 l=3385 live=2385 model=f421503294c3f7b4"],
    );
    assert!(!r);
    assert!(
        (s.num_learnt() as u64) < s.stats().learnt_clauses,
        "the instance must force reduce_db rounds"
    );
}

#[test]
fn assumption_probes_on_a_growing_formula() {
    let n = 80;
    let mut rng = Xorshift(0x2545_f491);
    let mut s = SatSolver::new();
    let v = new_vars(&mut s, n);
    let planted: Vec<bool> = (0..n).map(|_| rng.next() & 1 == 1).collect();
    let mut lines = Vec::new();
    for _batch in 0..6 {
        for _ in 0..60 {
            let c = planted_3clause(&mut rng, &v, &planted);
            s.add_clause(&c);
        }
        let r = s.solve();
        lines.push(snapshot(&s, &v, r));
        for _probe in 0..3 {
            let k = 4 + rng.below(3);
            let assumptions: Vec<Lit> = (0..k)
                .map(|_| Lit::new(v[rng.below(n)], rng.next() & 1 == 1))
                .collect();
            let r = s.solve_with_assumptions(&assumptions);
            lines.push(snapshot(&s, &v, r));
        }
    }
    check(
        &lines,
        &[
            "sat d=61 p=80 c=0 r=0 l=0 live=0 model=8671aa10a154388e",
            "sat d=115 p=160 c=0 r=0 l=0 live=0 model=93c37939eb3ec22a",
            "sat d=167 p=240 c=0 r=0 l=0 live=0 model=11ffea7493d2cf15",
            "sat d=223 p=320 c=0 r=0 l=0 live=0 model=5021de4a608f369a",
            "sat d=288 p=430 c=1 r=0 l=1 live=1 model=9a22f47c90f208cd",
            "sat d=334 p=510 c=1 r=0 l=1 live=1 model=f47e13431541c4bc",
            "sat d=386 p=590 c=1 r=0 l=1 live=1 model=4b08c486b922e5e1",
            "sat d=442 p=670 c=1 r=0 l=1 live=1 model=190273574fd661d2",
            "sat d=479 p=750 c=1 r=0 l=1 live=1 model=d6f9dc7d5cbe69ca",
            "unsat d=479 p=752 c=1 r=0 l=1 live=1 model=f14b84b8290b8965",
            "sat d=517 p=832 c=1 r=0 l=1 live=1 model=f2d8e71c8fc16a3a",
            "sat d=549 p=912 c=1 r=0 l=1 live=1 model=16be810a3414e122",
            "sat d=574 p=992 c=1 r=0 l=1 live=1 model=7999e3ba7e98bbdf",
            "sat d=605 p=1085 c=2 r=0 l=2 live=2 model=1fb404c95bdc0146",
            "sat d=625 p=1165 c=2 r=0 l=2 live=2 model=9a5b3391398aa7c5",
            "sat d=661 p=1277 c=4 r=0 l=4 live=4 model=0297d57f48cac611",
            "sat d=692 p=1357 c=4 r=0 l=4 live=4 model=c928db55c87235f7",
            "unsat d=721 p=1962 c=32 r=0 l=32 live=32 model=f14b84b8290b8965",
            "sat d=756 p=2175 c=42 r=0 l=42 live=42 model=16c2b664ef2edd12",
            "sat d=777 p=2255 c=42 r=0 l=42 live=42 model=5923eb9ba7a2faa6",
            "sat d=819 p=2588 c=54 r=0 l=54 live=54 model=7c34751e23ee1335",
            "sat d=837 p=2717 c=56 r=0 l=56 live=56 model=e528e9dc740a0b6a",
            "sat d=868 p=2873 c=59 r=0 l=59 live=59 model=d73913a91450f964",
            "unsat d=897 p=3371 c=87 r=0 l=87 live=87 model=f14b84b8290b8965",
        ],
    );
}

#[test]
fn priority_scan_query() {
    // The first-pending priority scan over 24 sources: `best` is the
    // lowest k with i == k, and `best != i` under 1 <= i <= 24 is UNSAT.
    let n = 24u64;
    let w = Width::W32;
    let mut p = TermPool::new();
    let i = p.var("i", w);
    let one = p.constant(1, w);
    let nn = p.constant(n, w);
    let lo = p.uge(i, one);
    let hi = p.ule(i, nn);
    let zero = p.constant(0, w);
    let mut best = zero;
    for k in 1..=n {
        let kc = p.constant(k, w);
        let pend = p.eq(i, kc);
        let bz = p.eq(best, zero);
        let take = p.and(pend, bz);
        best = p.ite(take, kc, best);
    }
    let sel = p.eq(best, i);
    let bad = p.not(sel);
    let mut blaster = Blaster::new();
    let roots: Vec<_> = [lo, hi, bad]
        .into_iter()
        .map(|c| blaster.blast(&p, c)[0])
        .collect();
    let mut s = SatSolver::new();
    let mut vars: Vec<Var> = match load_aig(blaster.aig(), &roots, &mut s) {
        CnfResult::TriviallyUnsat => panic!("the scan query needs search"),
        CnfResult::Loaded(map) => map.into_values().collect(),
    };
    vars.sort();
    let r = s.solve();
    check(
        &[snapshot(&s, &vars, r)],
        &["unsat d=91 p=22416 c=61 r=0 l=58 live=58 model=8837e302fae8ae96"],
    );
}
