//! The Fig. 9b benchmark suite: MiniDyn programs in the style of the Python
//! Performance Benchmarks the paper runs under CPython-in-a-Faaslet.
//!
//! Each program defines `bench(n)` returning a checksum the tests verify, so
//! both execution paths (inside a Faaslet vs. direct) must do identical
//! work. The in-Faaslet path loads program source from the Faaslet
//! filesystem, like CPython loading modules (§3.1).

use std::sync::Arc;

use faasm_core::{Cluster, NativeApi, NativeGuest};

use super::{run_source, Value};
use crate::env::{FaasEnv, FaasmEnv};

/// One suite entry.
#[derive(Debug, Clone, Copy)]
pub struct DynBench {
    /// Benchmark name (Fig. 9b x-axis).
    pub name: &'static str,
    /// MiniDyn source defining `bench(n)`.
    pub source: &'static str,
    /// Default problem size.
    pub default_n: i64,
    /// Expected `bench(default_n)` output (checksum pinning).
    pub expected: &'static str,
}

/// The benchmark programs.
pub fn suite() -> Vec<DynBench> {
    vec![
        DynBench {
            name: "nbody",
            source: r#"
fn bench(n) {
    # Two-body energy integration, pure float arithmetic.
    px = 1.0; py = 0.0; vx = 0.0; vy = 0.9;
    qx = -1.0; qy = 0.0; wx = 0.0; wy = -0.9;
    dt = 0.01;
    for i in range(n) {
        dx = qx - px; dy = qy - py;
        d2 = dx * dx + dy * dy;
        d = sqrt(d2);
        f = 1.0 / (d2 * d);
        vx = vx + dx * f * dt; vy = vy + dy * f * dt;
        wx = wx - dx * f * dt; wy = wy - dy * f * dt;
        px = px + vx * dt; py = py + vy * dt;
        qx = qx + wx * dt; qy = qy + wy * dt;
    }
    return int((px * 1000.0) + (py * 1000.0) * 7.0);
}
"#,
            default_n: 2000,
            expected: "79082",
        },
        DynBench {
            name: "float",
            source: r#"
fn bench(n) {
    acc = 0.0;
    x = 0.5;
    for i in range(n) {
        x = x * 1.000001 + 0.0001;
        acc = acc + sqrt(x) - abs(x - 1.0);
    }
    return int(acc * 100.0);
}
"#,
            default_n: 20000,
            expected: "1136351",
        },
        DynBench {
            name: "pidigits",
            source: r#"
fn bench(n) {
    # Gosper-series spigot with arbitrary-precision integers.
    q = big(1); r = big(0); t = big(1);
    k = 1; digits = ""; produced = 0;
    while (produced < n) {
        # next candidate digit = (q*3 + r) / t when it agrees with (q*4+r)/t
        a = bigdivmod(q * 3 + r, smallt(t));
        b = bigdivmod(q * 4 + r, smallt(t));
        if (tostr(a[0]) == tostr(b[0])) {
            digits = digits + tostr(a[0]);
            produced = produced + 1;
            r = (r + q * 3 - a[0] * t) * 10;
            q = q * 10;
        } else {
            # widen: q,r,t = q*k, (2q+r)*(2k+1), t*(2k+1)
            r = (q * 2 + r) * (2 * k + 1);
            t = t * (2 * k + 1);
            q = q * k;
            k = k + 1;
        }
    }
    return digits;
}
fn tostr(b) { return str(b); }
fn smallt(b) { return toint(b); }
fn toint(b) {
    # Convert a (small) big value back to an int via decimal digits.
    s = str(b);
    acc = 0;
    for i in range(len(s)) {
        acc = acc * 10 + digit(s, i);
    }
    return acc;
}
fn digit(s, i) {
    # MiniDyn has no char ops; emulate with nested compares on slices of the
    # decimal string via dict lookup.
    d = {"0":0,"1":1,"2":2,"3":3,"4":4,"5":5,"6":6,"7":7,"8":8,"9":9};
    return d[substr(s, i)];
}
fn substr(s, i) { return mid(s, i); }
fn mid(s, i) {
    # Build per-character strings by repeated str() of digits 0..9 probing.
    # (Provided as a helper because the pure language lacks indexing on
    # strings; see the simplified variant below.)
    return "0";
}
"#,
            // The string-probing helpers above make the faithful spigot too
            // awkward; the registered benchmark uses the simpler variant
            // below. This entry is replaced in `suite()` post-processing.
            default_n: 12,
            expected: "314159265358",
        },
        DynBench {
            name: "fannkuch",
            source: r#"
fn bench(n) {
    # Count flips over all rotations of a permutation, list-heavy.
    perm = [];
    for i in range(n) { push(perm, i + 1); }
    total = 0;
    for round in range(200) {
        # Rotate left by one.
        first = perm[0];
        for i in range(n - 1) { perm[i] = perm[i + 1]; }
        perm[n - 1] = first;
        # Count flips of a copy.
        copy = [];
        for i in range(n) { push(copy, perm[i]); }
        flips = 0;
        while (copy[0] != 1) {
            k = copy[0];
            i = 0; j = k - 1;
            while (i < j) {
                tmp = copy[i]; copy[i] = copy[j]; copy[j] = tmp;
                i = i + 1; j = j - 1;
            }
            flips = flips + 1;
            if (flips > 1000) { break; }
        }
        total = total + flips;
    }
    return total;
}
"#,
            default_n: 7,
            expected: "547",
        },
        DynBench {
            name: "spectral-norm",
            source: r#"
fn a(i, j) { return 1.0 / float((i + j) * (i + j + 1) / 2 + i + 1); }
fn atav(u, n) {
    w = [];
    for i in range(n) {
        acc = 0.0;
        for j in range(n) { acc = acc + a(i, j) * u[j]; }
        push(w, acc);
    }
    v = [];
    for i in range(n) {
        acc = 0.0;
        for j in range(n) { acc = acc + a(j, i) * w[j]; }
        push(v, acc);
    }
    return v;
}
fn bench(n) {
    u = [];
    for i in range(n) { push(u, 1.0); }
    for it in range(3) { u = atav(u, n); }
    v = atav(u, n);
    vbv = 0.0; vv = 0.0;
    for i in range(n) {
        vbv = vbv + u[i] * v[i];
        vv = vv + v[i] * v[i];
    }
    return int(sqrt(vbv / vv) * 100000.0);
}
"#,
            default_n: 24,
            expected: "78493",
        },
        DynBench {
            name: "mandel",
            source: r#"
fn bench(n) {
    inside = 0;
    for yi in range(n) {
        for xi in range(n) {
            cr = float(xi) * 3.0 / float(n) - 2.0;
            ci = float(yi) * 2.0 / float(n) - 1.0;
            zr = 0.0; zi = 0.0; it = 0;
            while (it < 30 && zr * zr + zi * zi < 4.0) {
                t = zr * zr - zi * zi + cr;
                zi = 2.0 * zr * zi + ci;
                zr = t;
                it = it + 1;
            }
            if (it == 30) { inside = inside + 1; }
        }
    }
    return inside;
}
"#,
            default_n: 40,
            expected: "446",
        },
        DynBench {
            name: "quicksort",
            source: r#"
fn qs(l, lo, hi) {
    if (lo >= hi) { return 0; }
    pivot = l[(lo + hi) / 2];
    i = lo; j = hi;
    while (i <= j) {
        while (l[i] < pivot) { i = i + 1; }
        while (l[j] > pivot) { j = j - 1; }
        if (i <= j) {
            tmp = l[i]; l[i] = l[j]; l[j] = tmp;
            i = i + 1; j = j - 1;
        }
    }
    qs(l, lo, j);
    qs(l, i, hi);
    return 0;
}
fn bench(n) {
    l = [];
    seed = 12345;
    for i in range(n) {
        seed = (seed * 1103515245 + 12345) % 2147483648;
        push(l, seed % 10000);
    }
    qs(l, 0, n - 1);
    # Checksum: sortedness + sample values.
    for i in range(n - 1) {
        if (l[i] > l[i + 1]) { return -1; }
    }
    return l[0] + l[n / 2] * 7 + l[n - 1] * 13;
}
"#,
            default_n: 400,
            expected: "164732",
        },
        DynBench {
            name: "dictops",
            source: r#"
fn bench(n) {
    d = {};
    for i in range(n) {
        k = str(i % 97);
        cur = d[k];
        if (!cur) { d[k] = 1; }
        else { d[k] = cur + 1; }
    }
    total = 0;
    for i in range(97) {
        v = d[str(i)];
        if (v) { total = total + v * (i + 1); }
    }
    return total;
}
"#,
            default_n: 5000,
            expected: "243834",
        },
        DynBench {
            name: "primes",
            source: r#"
fn bench(n) {
    sieve = [];
    for i in range(n + 1) { push(sieve, 1); }
    sieve[0] = 0; sieve[1] = 0;
    i = 2;
    while (i * i <= n) {
        if (sieve[i] == 1) {
            j = i * i;
            while (j <= n) { sieve[j] = 0; j = j + i; }
        }
        i = i + 1;
    }
    count = 0; last = 0;
    for k in range(n + 1) {
        if (sieve[k] == 1) { count = count + 1; last = k; }
    }
    return count * 100000 + last;
}
"#,
            default_n: 5000,
            expected: "66904999",
        },
        DynBench {
            name: "bigfact",
            source: r#"
fn bench(n) {
    # The big-integer stress: factorial, then digit-sum via divmod.
    acc = big(1);
    for i in range(2, n + 1) { acc = acc * i; }
    total = 0;
    pair = bigdivmod(acc, 10);
    while (!(pair[0] == big(0))) {
        total = total + pair[1];
        pair = bigdivmod(pair[0], 10);
    }
    return total + pair[1];
}
"#,
            default_n: 120,
            expected: "783",
        },
    ]
    .into_iter()
    .map(|mut b| {
        // Replace the unwieldy faithful spigot with a big-integer Machin
        // computation that still stresses BigUint (see file comment).
        if b.name == "pidigits" {
            b.source = PIDIGITS_SIMPLE;
            b.default_n = 25;
            b.expected = "3141592653589793238462643";
        }
        b
    })
    .collect()
}

/// π digits via an integer Machin-like formula entirely in big arithmetic:
/// `pi × 10^(n-1)` using arctan(1/5), arctan(1/239) with scaled bigints.
const PIDIGITS_SIMPLE: &str = r#"
fn arctan_inv(x, scale) {
    # arctan(1/x) * scale, by alternating series, all in bigints.
    term = bigdivmod(scale, x)[0];
    total = term;
    x2 = x * x;
    k = 3;
    sub = 1;
    while (!(term == big(0))) {
        term = bigdivmod(term, x2)[0];
        t = bigdivmod(term, k)[0];
        if (t == big(0)) { break; }
        if (sub == 1) {
            total = total - t;
            sub = 0;
        } else {
            total = total + t;
            sub = 1;
        }
        k = k + 2;
    }
    return total;
}
fn pow10(n) {
    acc = big(1);
    for i in range(n) { acc = acc * 10; }
    return acc;
}
fn bench(n) {
    scale = pow10(n + 5);
    pi = (arctan_inv(5, scale) * 16) - (arctan_inv(239, scale) * 4);
    # Drop the guard digits.
    for i in range(6) { pi = bigdivmod(pi, 10)[0]; }
    return str(pi);
}
"#;

/// Run one benchmark directly (the "native" side of Fig. 9b).
///
/// # Errors
///
/// Interpreter errors.
pub fn run_direct(bench: &DynBench, n: i64) -> Result<String, String> {
    run_source(bench.source, "bench", &[Value::Int(n)])
}

/// The Faaslet guest: input `name-bytes | ';' | n`, loads the program from
/// the filesystem and interprets it.
fn minidyn_guest<E: FaasEnv>(env: &mut E) -> Result<i32, String> {
    let input = env.input();
    let text = String::from_utf8(input).map_err(|_| "bad input".to_string())?;
    let (name, n) = text
        .split_once(';')
        .ok_or_else(|| "input must be name;n".to_string())?;
    let n: i64 = n.parse().map_err(|_| "bad n".to_string())?;
    let source = env.load_file(&format!("shared/minidyn/{name}.md"))?;
    let source = String::from_utf8(source).map_err(|_| "bad program file".to_string())?;
    let out = run_source(&source, "bench", &[Value::Int(n)])?;
    env.write_output(out.as_bytes());
    Ok(0)
}

/// Publish every benchmark program to the cluster's filesystem and register
/// the interpreter function (the CPython-in-a-Faaslet analogue).
pub fn setup_faasm(cluster: &Cluster, user: &str) {
    for b in suite() {
        cluster.object_store().put(
            &format!("shared/minidyn/{}.md", b.name),
            b.source.as_bytes().to_vec(),
        );
    }
    let guest: Arc<dyn NativeGuest> = Arc::new(|api: &mut NativeApi<'_>| {
        let mut env = FaasmEnv::new(api);
        minidyn_guest(&mut env).map_err(faasm_fvm::Trap::host)
    });
    cluster.register_native(user, "minidyn", guest);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_produce_expected_checksums() {
        for b in suite() {
            let out =
                run_direct(&b, b.default_n).unwrap_or_else(|e| panic!("{} failed: {e}", b.name));
            assert_eq!(out, b.expected, "{} checksum", b.name);
        }
    }

    #[test]
    fn suite_is_full_size() {
        assert!(suite().len() >= 10, "Fig. 9b needs a real suite");
    }

    #[test]
    fn in_faaslet_matches_direct() {
        let cluster = Cluster::new(1);
        setup_faasm(&cluster, "py");
        for b in suite().into_iter().take(4) {
            let input = format!("{};{}", b.name, b.default_n);
            let r = cluster.invoke("py", "minidyn", input.into_bytes());
            assert_eq!(r.return_code(), 0, "{} status {:?}", b.name, r.status);
            assert_eq!(
                String::from_utf8(r.output).unwrap(),
                b.expected,
                "{}",
                b.name
            );
        }
    }

    #[test]
    fn missing_program_errors() {
        let cluster = Cluster::new(1);
        setup_faasm(&cluster, "py");
        let r = cluster.invoke("py", "minidyn", b"ghost;5".to_vec());
        assert!(matches!(r.status, faasm_core::CallStatus::Error(_)));
    }
}
