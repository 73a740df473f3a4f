//! Native-Rust standard candles: one hand-ported Rust implementation
//! per nofib program, computing the identical `main` value.
//!
//! The candle is the "distance from hardware" reference for the VM: the
//! same algorithm a Rust programmer would write by hand (Vec for lists,
//! enums for data types, recursion for recursion), compiled by rustc to
//! native code. `vm exec / candle` in `fj report`'s backend table is
//! therefore the interpreter's overhead over the hardware ceiling, not a
//! comparison of different algorithms.
//!
//! Every candle's value is asserted against the program's result on each
//! `fj report` run, in tests and in the benchmark's references, so the
//! ports cannot drift. Integer
//! semantics match [`fj_ast::PrimOp::eval`]: `i64` with wrapping
//! arithmetic and Rust's truncating `/` and `%`.

/// A candle: a native function computing one benchmark's `main` value.
pub type Candle = fn() -> i64;

/// Look up the candle for a benchmark by its Table-1 row name.
#[must_use]
pub fn candle(name: &str) -> Option<Candle> {
    Some(match name {
        "fibheaps" => fibheaps,
        "ida" => ida,
        "nucleic2" => nucleic2,
        "para" => para,
        "primetest" => primetest,
        "simple" => simple,
        "solid" => solid,
        "sphere" => sphere,
        "transform" => transform,
        "boyer" => boyer,
        "clausify" => clausify,
        "knights" => knights,
        "mandel" => mandel,
        "queens" => queens,
        "anna" => anna,
        "cacheprof" => cacheprof,
        "fem" => fem,
        "gamteb" => gamteb,
        "hpg" => hpg,
        "parser" => parser,
        "rsa" => rsa,
        "compress" => compress,
        "grep" => grep,
        "infer" => infer,
        "k-nucleotide" => knucleotide,
        "n-body" => nbody,
        "spectral-norm" => spectralnorm,
        "binary-trees" => binarytrees,
        "fannkuch-redux" => fannkuch,
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// spectral
// ---------------------------------------------------------------------

fn fibheaps() -> i64 {
    // build 60: insert (i*37)%101 into a sorted list, i = 60 down to 1
    let mut heap: Vec<i64> = Vec::new();
    for i in (1..=60i64).rev() {
        let x = (i * 37) % 101;
        let pos = heap.iter().position(|&y| x <= y).unwrap_or(heap.len());
        heap.insert(pos, x);
    }
    // drain: repeatedly deleteMin, summing the minima
    let mut acc = 0i64;
    while let Some(m) = heap.first().copied() {
        heap.remove(0);
        acc += m;
    }
    acc
}

fn ida_dfs(goal: i64, d: i64, u: i64) -> Option<i64> {
    if u == goal {
        return Some(d);
    }
    if d <= 0 {
        return None;
    }
    match ida_dfs(goal, d - 1, (u * 2) % 97) {
        Some(k) => Some(k),
        None => ida_dfs(goal, d - 1, (u * 3 + 1) % 97),
    }
}

fn ida_search(start: i64, goal: i64) -> i64 {
    let mut depth = 1i64;
    while depth <= 9 {
        if ida_dfs(goal, depth, start).is_some() {
            return depth;
        }
        depth += 1;
    }
    -1
}

fn ida() -> i64 {
    ida_search(1, 54) + ida_search(2, 33) + ida_search(3, 76)
}

fn nucleic2() -> i64 {
    let chain: Vec<(i64, i64, i64)> = (1..=80).map(|i| (i, i * i % 91, i * 3 % 91)).collect();
    chain
        .iter()
        .map(|&(x, y, z)| {
            let (qx, qy, qz) = (y % 91, z % 91, x % 91);
            x * qx + y * qy + z * qz
        })
        .sum()
}

fn para() -> i64 {
    let words: Vec<i64> = (1..=120).map(|i| 3 + (i * 7) % 9).collect();
    let width = 30i64;
    let mut lines = 0i64;
    let mut rest = &words[..];
    while !rest.is_empty() {
        // fillLine: consume while the next word still fits
        let mut used = 0i64;
        while let Some(&w) = rest.first() {
            if used + w + 1 > width {
                break;
            }
            used += w + 1;
            rest = &rest[1..];
        }
        lines += 1;
    }
    lines
}

fn primetest() -> i64 {
    let is_prime = |n: i64| {
        if n < 2 {
            return false;
        }
        let mut d = 2i64;
        while d * d <= n {
            if n % d == 0 {
                return false;
            }
            d += 1;
        }
        true
    };
    (2..=200).filter(|&n| is_prime(n)).count() as i64
}

fn simple() -> i64 {
    let step = |x: i64| (x.wrapping_mul(1_103_515_245) + 12_345) % 2_147_483_647;
    let mut acc = 0i64;
    for i in 1..=30i64 {
        let mut x = i * 3 + 1;
        for _ in 0..20 {
            x = step(x);
        }
        acc = (acc + x) % 100_000;
    }
    acc
}

fn solid() -> i64 {
    let segs: Vec<(i64, i64)> = (1..=40)
        .map(|i| {
            let lo = (i * 13) % 50;
            (lo, lo + (i % 7) + 1)
        })
        .collect();
    let mut acc = 0i64;
    for i in 1..=120i64 {
        let x = (i * 17) % 60;
        if let Some(&(lo, hi)) = segs.iter().find(|&&(lo, hi)| lo <= x && x <= hi) {
            acc += hi - lo;
        }
    }
    acc
}

fn sphere() -> i64 {
    let scene: Vec<(i64, i64)> = (1..=30).map(|i| ((i * 23) % 40, 2 + i % 5)).collect();
    let mut acc = 0i64;
    for i in 1..=100i64 {
        let ray = (i * 11) % 45;
        if let Some(&(c, r)) = scene.iter().find(|&&(c, r)| c - r <= ray && ray <= c + r) {
            acc += c + r - ray;
        }
    }
    acc
}

enum Tree {
    Leaf(i64),
    Node(Box<Tree>, Box<Tree>),
}

fn transform_build(depth: i64, seed: i64) -> Tree {
    if depth <= 0 {
        Tree::Leaf(seed % 17)
    } else {
        Tree::Node(
            Box::new(transform_build(depth - 1, seed * 2 + 1)),
            Box::new(transform_build(depth - 1, seed * 3 + 2)),
        )
    }
}

fn transform_rewrite(t: &Tree) -> Tree {
    match t {
        Tree::Leaf(n) => {
            if n % 2 == 0 {
                Tree::Leaf(n + 1)
            } else {
                Tree::Leaf(*n)
            }
        }
        Tree::Node(l, r) => Tree::Node(
            Box::new(transform_rewrite(r)),
            Box::new(transform_rewrite(l)),
        ),
    }
}

fn transform_sum(t: &Tree) -> i64 {
    match t {
        Tree::Leaf(n) => *n,
        Tree::Node(l, r) => transform_sum(l) + transform_sum(r),
    }
}

fn transform() -> i64 {
    transform_sum(&transform_rewrite(&transform_rewrite(&transform_build(
        7, 1,
    ))))
}

// ---------------------------------------------------------------------
// more spectral
// ---------------------------------------------------------------------

#[derive(Clone)]
enum BTerm {
    // The payload mirrors the surface program's `Var Int`; the rewrite
    // rules dispatch on the constructor and never read it.
    #[allow(dead_code)]
    Var(i64),
    F(Box<BTerm>),
    G(Box<BTerm>, Box<BTerm>),
}

fn boyer_mk(depth: i64, seed: i64) -> BTerm {
    if depth <= 0 {
        BTerm::Var(seed % 5)
    } else if seed % 2 == 0 {
        BTerm::F(Box::new(boyer_mk(depth - 1, seed * 3 + 1)))
    } else {
        BTerm::G(
            Box::new(boyer_mk(depth - 1, seed * 5 + 2)),
            Box::new(boyer_mk(depth - 1, seed * 7 + 3)),
        )
    }
}

fn boyer_step(t: &BTerm) -> Option<BTerm> {
    match t {
        BTerm::Var(_) => None,
        BTerm::F(u) => match u.as_ref() {
            BTerm::F(w) => Some(BTerm::F(w.clone())),
            _ => boyer_step(u).map(|u2| BTerm::F(Box::new(u2))),
        },
        BTerm::G(a, b) => match b.as_ref() {
            BTerm::Var(_) => Some(BTerm::F(a.clone())),
            _ => match boyer_step(a) {
                Some(a2) => Some(BTerm::G(Box::new(a2), b.clone())),
                None => boyer_step(b).map(|b2| BTerm::G(a.clone(), Box::new(b2))),
            },
        },
    }
}

fn boyer_normalize(t0: BTerm) -> i64 {
    let mut t = t0;
    let mut n = 0i64;
    while n <= 40 {
        match boyer_step(&t) {
            None => return n,
            Some(t2) => {
                t = t2;
                n += 1;
            }
        }
    }
    n
}

fn boyer() -> i64 {
    boyer_normalize(boyer_mk(6, 1)) + boyer_normalize(boyer_mk(7, 1))
}

enum Form {
    Var(i64),
    Not(Box<Form>),
    And(Box<Form>, Box<Form>),
    Or(Box<Form>, Box<Form>),
}

fn clausify_mk(d: i64, seed: i64) -> Form {
    if d <= 0 {
        Form::Var(seed % 7)
    } else if seed % 3 == 0 {
        Form::Not(Box::new(clausify_mk(d - 1, seed * 5 + 1)))
    } else if seed % 3 == 1 {
        Form::And(
            Box::new(clausify_mk(d - 1, seed * 2 + 1)),
            Box::new(clausify_mk(d - 1, seed * 3 + 2)),
        )
    } else {
        Form::Or(
            Box::new(clausify_mk(d - 1, seed * 2 + 1)),
            Box::new(clausify_mk(d - 1, seed * 3 + 2)),
        )
    }
}

fn clausify_pos(f: &Form) -> Form {
    match f {
        Form::Var(v) => Form::Var(*v),
        Form::Not(g) => clausify_neg(g),
        Form::And(a, b) => Form::And(Box::new(clausify_pos(a)), Box::new(clausify_pos(b))),
        Form::Or(a, b) => Form::Or(Box::new(clausify_pos(a)), Box::new(clausify_pos(b))),
    }
}

fn clausify_neg(f: &Form) -> Form {
    match f {
        Form::Var(v) => Form::Not(Box::new(Form::Var(*v))),
        Form::Not(g) => clausify_pos(g),
        Form::And(a, b) => Form::Or(Box::new(clausify_neg(a)), Box::new(clausify_neg(b))),
        Form::Or(a, b) => Form::And(Box::new(clausify_neg(a)), Box::new(clausify_neg(b))),
    }
}

fn clausify_weight(f: &Form) -> i64 {
    match f {
        Form::Var(_) => 1,
        Form::Not(g) => 1 + clausify_weight(g),
        Form::And(a, b) => clausify_weight(a) + clausify_weight(b),
        Form::Or(a, b) => 1 + clausify_weight(a) + clausify_weight(b),
    }
}

fn clausify() -> i64 {
    clausify_weight(&clausify_pos(&Form::Not(Box::new(clausify_mk(8, 1)))))
}

fn knights_go(d: i64, sq: i64, seen: &mut Vec<i64>) -> i64 {
    if d <= 0 {
        return 1;
    }
    seen.push(sq);
    let mut acc = 0i64;
    for m in 1..=4i64 {
        let dest = (sq + m * 7 + 3) % 25;
        if (0..=24).contains(&dest) && !seen.contains(&dest) {
            acc += knights_go(d - 1, dest, seen);
        }
    }
    seen.pop();
    acc
}

fn knights() -> i64 {
    let mut seen = Vec::new();
    knights_go(5, 0, &mut seen)
}

fn mandel() -> i64 {
    let escape_at = |c: i64| {
        let mut z = 0i64;
        let mut k = 0i64;
        while k <= 30 {
            if !(-400..=400).contains(&z) {
                return Some(k);
            }
            z = (z * z) / 100 + c;
            k += 1;
        }
        None
    };
    let mut acc = 0i64;
    for i in 1..=120i64 {
        let c = i * 13 % 900 - 450;
        if let Some(k) = escape_at(c) {
            acc += k;
        }
    }
    acc
}

fn queens_safe(row: i64, placed: &[i64]) -> bool {
    for (idx, &r) in placed.iter().enumerate() {
        let d = idx as i64 + 1;
        if r == row || r - row == d || row - r == d {
            return false;
        }
    }
    true
}

fn queens_place(n: i64, col: i64, placed: &mut Vec<i64>) -> i64 {
    if col > n {
        return 1;
    }
    let mut acc = 0i64;
    for row in 1..=n {
        if queens_safe(row, placed) {
            placed.insert(0, row);
            acc += queens_place(n, col + 1, placed);
            placed.remove(0);
        }
    }
    acc
}

fn queens() -> i64 {
    let mut placed = Vec::new();
    queens_place(6, 1, &mut placed)
}

// ---------------------------------------------------------------------
// real
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Abs {
    Bot,
    Zero,
    Pos,
    Top,
}

fn anna_join2(a: Abs, b: Abs) -> Abs {
    match a {
        Abs::Bot => b,
        Abs::Zero => match b {
            Abs::Bot | Abs::Zero => Abs::Zero,
            Abs::Pos | Abs::Top => Abs::Top,
        },
        Abs::Pos => match b {
            Abs::Bot | Abs::Pos => Abs::Pos,
            Abs::Zero | Abs::Top => Abs::Top,
        },
        Abs::Top => Abs::Top,
    }
}

fn anna_add(a: Abs, b: Abs) -> Abs {
    match a {
        Abs::Bot => Abs::Bot,
        Abs::Zero => b,
        Abs::Pos => match b {
            Abs::Bot => Abs::Bot,
            Abs::Zero | Abs::Pos => Abs::Pos,
            Abs::Top => Abs::Top,
        },
        Abs::Top => match b {
            Abs::Bot => Abs::Bot,
            _ => Abs::Top,
        },
    }
}

fn anna() -> i64 {
    let rank = |a: Abs| match a {
        Abs::Bot => 0,
        Abs::Zero => 1,
        Abs::Pos => 2,
        Abs::Top => 3,
    };
    let of_int = |n: i64| {
        if n == 0 {
            Abs::Zero
        } else if n > 0 {
            Abs::Pos
        } else {
            Abs::Top
        }
    };
    let mut acc = Abs::Bot;
    let mut score = 0i64;
    for i in 1..=150i64 {
        let v = anna_add(acc, of_int((i * 7) % 5 - 2));
        acc = anna_join2(v, acc);
        score += rank(v);
    }
    score
}

fn cacheprof() -> i64 {
    let bucket_of = |addr: i64| {
        let mut b = 0i64;
        while addr >= (b + 1) * 64 {
            b += 1;
        }
        b
    };
    let mut addr = 1i64;
    let mut hits = 0i64;
    for _ in 1..=120 {
        let a2 = (addr * 131 + 7) % 1024;
        if bucket_of(a2) % 4 == 0 {
            hits += 1;
        }
        addr = a2;
    }
    hits
}

fn fem() -> i64 {
    let mesh: Vec<(i64, i64)> = (1..=100).map(|i| (i % 13, i * i % 13)).collect();
    mesh.iter().map(|&(a, b)| a * a + 2 * a * b + b).sum()
}

fn gamteb() -> i64 {
    let next = |s: i64| (s.wrapping_mul(1_103_515_245) + 12_345) % 2_147_483_647;
    let absorb_at = |seed: i64, cap: i64| {
        let mut s = seed;
        let mut k = 0i64;
        while k <= cap {
            if s % 100 < 8 {
                return Some(k);
            }
            s = next(s);
            k += 1;
        }
        None
    };
    let mut acc = 0i64;
    for i in 1..=25i64 {
        let s = next(i * 7 + 1);
        acc += absorb_at(s, 40).unwrap_or(40);
    }
    acc
}

fn hpg() -> i64 {
    let next = |s: i64| s.wrapping_mul(48_271) % 2_147_483_647;
    let gen_list = |s0: i64, len: i64| {
        let mut out = Vec::new();
        let mut st = s0;
        let mut k = len;
        while k > 0 {
            out.push(st % 10);
            st = next(st);
            k -= 1;
        }
        out
    };
    let mut s = 7i64;
    let mut acc = 0i64;
    for _ in 1..=60 {
        let c = s % 3;
        // size(VInt _) = size(VBool _) = 1; size(VList xs) = length xs
        acc += if c == 2 {
            gen_list(s, s % 5).len() as i64
        } else {
            1
        };
        s = next(s);
    }
    acc
}

fn parser() -> i64 {
    let input: Vec<i64> = (1..=150).map(|i| (i * 31 + 17) % 4).collect();
    let mut tokens = 0i64;
    let mut rest = &input[..];
    while let Some(&cls) = rest.first() {
        let run = rest.iter().take_while(|&&c| c == cls).count();
        rest = &rest[run..];
        tokens += 1;
    }
    tokens
}

fn rsa() -> i64 {
    let modpow = |base: i64, e: i64, m: i64| {
        let mut b = base % m;
        let mut k = e;
        let mut acc = 1i64;
        while k > 0 {
            if k % 2 == 1 {
                acc = (acc * b) % m;
            }
            b = (b * b) % m;
            k /= 2;
        }
        acc
    };
    let mut acc = 0i64;
    for i in 1..=40i64 {
        let m = 10 + (i * 97) % 1000;
        acc = (acc + modpow(m, 17, 3233)) % 1_000_003;
    }
    acc
}

// ---------------------------------------------------------------------
// more real
// ---------------------------------------------------------------------

fn compress() -> i64 {
    let input: Vec<i64> = (1..=120).map(|i| (i / 5) % 3).collect();
    // encode into runs, then sum the decoded lengths
    let mut encoded: Vec<(i64, i64)> = Vec::new();
    let mut rest = &input[..];
    while let Some(&sym) = rest.first() {
        let run = rest.iter().take_while(|&&c| c == sym).count();
        encoded.push((sym, run as i64));
        rest = &rest[run..];
    }
    encoded.iter().map(|&(_, len)| len).sum()
}

fn grep_find(pat: &[i64], hay: &[i64]) -> i64 {
    for i in 0..hay.len() {
        if hay[i..].starts_with(pat) {
            return i as i64;
        }
    }
    -1
}

fn grep() -> i64 {
    let hay: Vec<i64> = (1..=140).map(|i| (i * 11 + 5) % 6).collect();
    let hit1 = grep_find(&[0, 4], &hay);
    let hit2 = grep_find(&[3, 2], &hay);
    let hit3 = grep_find(&[5, 5], &hay);
    hit1 + 1000 * hit2 + 1_000_000 * hit3
}

enum IE {
    // Payloads mirror the surface program's literals; the type checker
    // dispatches on the constructor and never reads them.
    #[allow(dead_code)]
    Lit(i64),
    #[allow(dead_code)]
    Bool(bool),
    Add(Box<IE>, Box<IE>),
    If(Box<IE>, Box<IE>, Box<IE>),
}

fn infer_mk(depth: i64, seed: i64) -> IE {
    if depth <= 0 {
        if seed % 2 == 0 {
            IE::Lit(seed % 9)
        } else {
            IE::Bool(seed % 3 == 0)
        }
    } else if seed % 3 == 0 {
        IE::Add(
            Box::new(infer_mk(depth - 1, seed * 5 + 1)),
            Box::new(infer_mk(depth - 1, seed * 7 + 2)),
        )
    } else {
        IE::If(
            Box::new(infer_mk(depth - 1, seed * 3 + 1)),
            Box::new(infer_mk(depth - 1, seed * 5 + 2)),
            Box::new(infer_mk(depth - 1, seed * 7 + 3)),
        )
    }
}

// type codes: 1 = Int, 2 = Bool
fn infer_ty(e: &IE) -> Option<i64> {
    match e {
        IE::Lit(_) => Some(1),
        IE::Bool(_) => Some(2),
        IE::Add(a, b) => {
            if infer_ty(a)? == 1 && infer_ty(b)? == 1 {
                Some(1)
            } else {
                None
            }
        }
        IE::If(c, t, f) => {
            if infer_ty(c)? != 2 {
                return None;
            }
            let tt = infer_ty(t)?;
            let tf = infer_ty(f)?;
            if tt == tf {
                Some(tt)
            } else {
                None
            }
        }
    }
}

fn infer() -> i64 {
    let mut acc = 0i64;
    for i in 1..=12i64 {
        if let Some(t) = infer_ty(&infer_mk(2 + i % 3, 1)) {
            acc += t;
        }
    }
    acc
}

// ---------------------------------------------------------------------
// shootout
// ---------------------------------------------------------------------

fn nbody() -> i64 {
    let force = |i: i64| (i * i * 3 + i * 7) % 1000;
    let mut acc = 0i64;
    for i in 1..=200i64 {
        let f = force(i);
        if f % 3 != 0 {
            acc += f;
        }
    }
    acc
}

fn knucleotide() -> i64 {
    let seq: Vec<i64> = (1..=150).map(|i| (i * 7 + i / 3) % 4).collect();
    let count = |a: i64, b: i64| seq.windows(2).filter(|w| w[0] == a && w[1] == b).count() as i64;
    count(0, 1) + count(1, 2) * 10 + count(2, 3) * 100
}

fn spectralnorm() -> i64 {
    let a = |i: i64, j: i64| 1 + ((i + j) * (i + j + 1)) / 2 + i;
    let mut acc = 0i64;
    for i in 0..=25i64 {
        for j in 0..=25i64 {
            acc += 1000 / a(i, j);
        }
    }
    acc
}

// ---------------------------------------------------------------------
// more shootout
// ---------------------------------------------------------------------

enum BTree {
    Lf,
    Nd(Box<BTree>, Box<BTree>),
}

fn btrees_build(k: i64) -> BTree {
    if k <= 0 {
        BTree::Lf
    } else {
        BTree::Nd(Box::new(btrees_build(k - 1)), Box::new(btrees_build(k - 1)))
    }
}

fn btrees_check(t: &BTree) -> i64 {
    match t {
        BTree::Lf => 1,
        BTree::Nd(l, r) => 1 + btrees_check(l) + btrees_check(r),
    }
}

fn binarytrees() -> i64 {
    (1..=7).map(|d| btrees_check(&btrees_build(d))).sum()
}

fn fannkuch_flips(p: &mut [i64]) -> i64 {
    let mut n = 0i64;
    while n <= 40 {
        match p.first().copied() {
            None => return n,
            Some(1) => return n,
            Some(h) => {
                let k = (h as usize).min(p.len());
                p[..k].reverse();
                n += 1;
            }
        }
    }
    n
}

fn fannkuch() -> i64 {
    let mut acc = 0i64;
    for s in 1..=20i64 {
        let mut perm: Vec<i64> = (1..=6).map(|i| 1 + (i * s + s) % 6).collect();
        acc += fannkuch_flips(&mut perm);
    }
    acc
}
