//! `tanh` over a slice: glibc's `tanhf` (the fdlibm port `f32::tanh` calls
//! on glibc hosts), bit for bit, without a branch per element.
//!
//! **Bitwise contract.** [`tanh_in_place`] stores, for every `f32` input,
//! the bits glibc 2.36's `tanhf` returns for it (a NaN comes back as the
//! same NaN, quieted). `tanhf` is fdlibm's: `±x` below 2⁻⁵⁵,
//! `−t / (t + 2)` with `t = expm1f(−2|x|)` below 1, `1 − 2 / (t + 2)` with
//! `t = expm1f(2|x|)` below 22, `±1` beyond. The kernel evaluates that
//! recipe with the same constants and the same operations in the same
//! order, each rounded once, so every path yields the bits it yields in
//! glibc; what changes is control flow. Each lane computes every path
//! `expm1f` can take on `tanhf`'s arguments (`(−2, 0)` and `[2, 44)`: the
//! `k = 0`, `k = −1`, `k ≤ −2`, `2 ≤ k < 23`, `23 ≤ k ≤ 56` and `k > 56`
//! reductions, where `k` is the power of two split off the argument) and
//! selects one, so the loop vectorises. The unit tests pin the kernel to a
//! scalar, branchy port of both glibc functions (the oracle) on every
//! path's boundaries and a strided sweep; two `#[ignore]`d tests run all
//! 2³² inputs, one for both instantiations against the oracle and one for
//! the oracle against the host's `f32::tanh`.
//!
//! **One source, two instantiations.** The loop is `#[inline(always)]`
//! code compiled at the target's baseline and inside an AVX2 wrapper picked
//! per call by `is_x86_feature_detected!` (`vmulps`/`vaddps`/`vdivps`,
//! never `fma`: Rust does not contract `a * b + c`), as
//! [`linalg`](crate::linalg)'s panel kernel is. Lanes are independent, so
//! the width cannot change a bit.
//!
//! Aside from speed (≈ 6 ns an element against glibc's ≈ 14 on the
//! `explore` model's pre-activations, 2-vCPU AVX2 host, the kernels
//! bench's `tanh` row), the forecast's bits no longer depend on which libm
//! the host links.

// fdlibm's constants, by their bits; glibc's `s_expm1f.c` spells them in
// decimal (the comments), and `constants_are_glibcs_decimals` checks that
// each decimal rounds to these bits.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180); // 6.9313812256e-01
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1); // 9.0580006145e-06
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b); // 1.4426950216e+00
const Q1: f32 = f32::from_bits(0xbd08_8889); // -3.3333335072e-02
const Q2: f32 = f32::from_bits(0x3ad0_0d01); // 1.5873016091e-03
const Q3: f32 = f32::from_bits(0xb8a6_70cd); // -7.9365076090e-05
const Q4: f32 = f32::from_bits(0x3686_7e54); // 4.0082177293e-06
const Q5: f32 = f32::from_bits(0xb457_edbb); // -2.0109921195e-07

/// 1.5·2²³: adding it rounds an `f32` of magnitude below 2²² to an integer.
const ROUNDER: f32 = 12_582_912.0;

/// `v` rounded toward zero, as C's `(int)v` does, for `|v| < 2²²` (junk
/// elsewhere; the caller selects those lanes away). A float-to-int
/// conversion would be the same value, but Rust's saturating `as i32` is
/// one scalar conversion per lane on x86; this is four vector operations.
#[inline(always)]
fn trunc(v: f32) -> f32 {
    let nearest = (v + ROUNDER) - ROUNDER;
    if v >= 0.0 && nearest > v {
        nearest - 1.0
    } else if v < 0.0 && nearest < v {
        nearest + 1.0
    } else {
        nearest
    }
}

/// `tanh` of every element of `xs`, in place: glibc's `tanhf`, bit for bit
/// (see the module doc).
pub fn tanh_in_place(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `tanh_avx2` is safe code compiled for AVX2; its only
        // requirement is that the CPU supports AVX2, which the runtime
        // check on the line above has just established.
        return unsafe { tanh_avx2(xs) };
    }
    // The compilation target's baseline feature set: two SSE registers.
    lanes::<8>(xs);
}

/// [`lanes`] with 256-bit registers; callable (through `unsafe`) only once
/// the CPU is known to support AVX2. `fma` is deliberately not enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn tanh_avx2(xs: &mut [f32]) {
    lanes::<16>(xs);
}

/// The kernel's loop: whole blocks of `NR` lanes (two vector registers),
/// then the tail, every element through [`lane`].
#[inline(always)]
fn lanes<const NR: usize>(xs: &mut [f32]) {
    let mut blocks = xs.chunks_exact_mut(NR);
    for block in &mut blocks {
        for v in block {
            *v = lane(*v);
        }
    }
    for v in blocks.into_remainder() {
        *v = lane(*v);
    }
}

/// `tanhf(x)` with every path computed and one selected (the oracle in the
/// tests is the same arithmetic with glibc's branches).
#[inline(always)]
fn lane(x: f32) -> f32 {
    let bits = x.to_bits();
    let ix = bits & 0x7fff_ffff;
    // tanhf: expm1f(2|x|) from |x| = 1 on, expm1f(−2|x|) below. 2|x| is
    // |x| one exponent up wherever the result reads it (2⁻⁵⁵ ≤ |x| < 22).
    let big = ix >= 0x3f80_0000;
    let hu = ix.wrapping_add(0x0080_0000);
    let au = f32::from_bits(hu);
    let u = if big { au } else { -au };
    // Below |u| = 2⁻²⁵ expm1f(u) is u. Those lanes reduce −1 instead, so no
    // intermediate is subnormal (each such operation costs a microcode
    // assist of ~100 cycles on x86).
    let tiny = hu < 0x3300_0000;
    let v = if tiny { -1.0 } else { u };

    // expm1f's argument reduction, v = k·ln2 + r. For these arguments the
    // k = 1 branch is unreachable (v ≥ 2 when positive), and the k = 0 and
    // k = −1 branches are the general formula at t = 0 and t = −1: `v − 0`,
    // `0·lo` and `v − (−1)·hi = v + hi` round exactly as glibc writes them.
    let t = if hu >= 0x3f85_1592 {
        trunc(INV_LN2 * v + if big { 0.5 } else { -0.5 })
    } else if hu > 0x3eb1_7218 {
        -1.0
    } else {
        0.0
    };
    // t is an integer of magnitude < 2²²: t + 1.5·2²³ is exact, and its
    // bits count up from the constant's in steps of 1.
    let k = ((t + ROUNDER).to_bits() as i32).wrapping_sub(ROUNDER.to_bits() as i32);
    let hi = v - t * LN2_HI;
    let lo = t * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;

    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t3 = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t3) / (6.0 - r * t3));
    let at_k0 = r - (r * e - hxs);
    let e = (r * (e - c) - c) - hxs;
    let at_k_minus1 = 0.5 * (r - e) - 0.5;
    // k ≤ −2 or k > 56: y = 1 − (e − r); 2 ≤ k < 23: y = (1 − 2⁻ᵏ) − (e − r);
    // 23 ≤ k ≤ 56: y = (r − (e + 2⁻ᵏ)) + 1. Then k is added to y's exponent,
    // and the first kind subtracts 1 again.
    let p = f32::from_bits(0x7f_i32.wrapping_sub(k).wrapping_shl(23) as u32);
    let short = (2..23).contains(&k);
    let long = (23..=56).contains(&k);
    let lead = if short { 1.0 - p } else { 1.0 };
    let y = if long {
        (r - (e + p)) + 1.0
    } else {
        lead - (e - r)
    };
    let y = f32::from_bits((y.to_bits() as i32).wrapping_add(k.wrapping_shl(23)) as u32);
    let at_k = if short || long { y } else { y - 1.0 };
    let em = if tiny {
        u
    } else if k == 0 {
        at_k0
    } else if k == -1 {
        at_k_minus1
    } else {
        at_k
    };

    // tanhf: z = 1 − 2/(t + 2) or −t/(t + 2), both positive; 1 from 22 on.
    let q = if big { 2.0 } else { -em } / (em + 2.0);
    let z = if ix >= 0x41b0_0000 {
        1.0
    } else if big {
        1.0 - q
    } else {
        q
    };
    let signed = f32::from_bits(z.to_bits() | (bits & 0x8000_0000));
    if ix > 0x7f80_0000 {
        x + x // NaN, quieted
    } else if ix < 0x2400_0000 {
        x // |x| < 2⁻⁵⁵ (±0 and subnormals too): x·(1 + x) = x
    } else {
        signed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `tiny` and `huge` of glibc's sources.
    const TINY: f32 = 1.0e-30;
    const HUGE: f32 = 1.0e30;
    /// `o_threshold`, 8.8721679688e+01.
    const O_THRESHOLD: f32 = f32::from_bits(0x42b1_7180);

    /// glibc 2.36's `__expm1f` (`sysdeps/ieee754/flt-32/s_expm1f.c`),
    /// branches and all, minus the `errno` and exception side effects.
    fn expm1f(x: f32) -> f32 {
        let sign = x.to_bits() & 0x8000_0000 != 0;
        let hx = x.to_bits() & 0x7fff_ffff;
        if hx >= 0x4195_b844 {
            if hx >= 0x42b1_7218 {
                if hx > 0x7f80_0000 {
                    return x + x;
                }
                if hx == 0x7f80_0000 {
                    return if sign { -1.0 } else { x };
                }
                if x > O_THRESHOLD {
                    return HUGE * HUGE;
                }
            }
            if sign {
                return TINY - 1.0;
            }
        }
        let (x, c, k) = if hx > 0x3eb1_7218 {
            let (hi, lo, k) = if hx < 0x3f85_1592 {
                if sign {
                    (x + LN2_HI, -LN2_LO, -1)
                } else {
                    (x - LN2_HI, LN2_LO, 1)
                }
            } else {
                let k = (INV_LN2 * x + if sign { -0.5 } else { 0.5 }) as i32;
                let t = k as f32;
                (x - t * LN2_HI, t * LN2_LO, k)
            };
            let r = hi - lo;
            (r, (hi - r) - lo, k)
        } else if hx < 0x3300_0000 {
            let t = HUGE + x;
            return x - (t - (HUGE + x));
        } else {
            (x, 0.0, 0)
        };
        let hfx = 0.5 * x;
        let hxs = x * hfx;
        let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
        let t = 3.0 - r1 * hfx;
        let e = hxs * ((r1 - t) / (6.0 - x * t));
        if k == 0 {
            return x - (x * e - hxs);
        }
        let e = (x * (e - c) - c) - hxs;
        if k == -1 {
            return 0.5 * (x - e) - 0.5;
        }
        if k == 1 {
            return if x < -0.25 {
                -2.0 * (e - (x + 0.5))
            } else {
                1.0 + 2.0 * (x - e)
            };
        }
        let add_to_exponent = |y: f32| f32::from_bits((y.to_bits() as i32 + (k << 23)) as u32);
        if k <= -2 || k > 56 {
            return add_to_exponent(1.0 - (e - x)) - 1.0;
        }
        if k < 23 {
            let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k));
            add_to_exponent(t - (e - x))
        } else {
            let t = f32::from_bits(((0x7f - k) << 23) as u32);
            add_to_exponent((x - (e + t)) + 1.0)
        }
    }

    /// glibc 2.36's `__tanhf` (`sysdeps/ieee754/flt-32/s_tanhf.c`): the
    /// scalar oracle the kernel is pinned to.
    pub(crate) fn tanhf(x: f32) -> f32 {
        let jx = x.to_bits() as i32;
        let ix = jx & 0x7fff_ffff;
        if ix >= 0x7f80_0000 {
            return if jx >= 0 {
                1.0 / x + 1.0
            } else {
                1.0 / x - 1.0
            };
        }
        let z = if ix < 0x41b0_0000 {
            if ix == 0 {
                return x;
            }
            if ix < 0x2400_0000 {
                return x * (1.0 + x);
            }
            if ix >= 0x3f80_0000 {
                let t = expm1f(2.0 * x.abs());
                1.0 - 2.0 / (t + 2.0)
            } else {
                let t = expm1f(-2.0 * x.abs());
                -t / (t + 2.0)
            }
        } else {
            1.0 - TINY
        };
        if jx >= 0 {
            z
        } else {
            -z
        }
    }

    /// The kernel's instantiations on `xs`: the baseline and (on a CPU that
    /// has it) AVX2.
    fn instantiations(xs: &[f32]) -> Vec<(&'static str, Vec<f32>)> {
        let mut base = xs.to_vec();
        lanes::<8>(&mut base);
        let mut out = vec![("baseline", base)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let mut wide = xs.to_vec();
            // SAFETY: this CPU supports AVX2, checked on the line above.
            unsafe { tanh_avx2(&mut wide) };
            out.push(("avx2", wide));
        }
        out
    }

    /// The first input of `xs` where `got` and `want` differ in bits.
    fn first_mismatch(xs: &[f32], got: &[f32], want: &[f32]) -> Option<String> {
        let i = (0..xs.len()).find(|&i| got[i].to_bits() != want[i].to_bits())?;
        Some(format!(
            "tanh({:e} = {:#010x}): got {:#010x}, want {:#010x}",
            xs[i],
            xs[i].to_bits(),
            got[i].to_bits(),
            want[i].to_bits()
        ))
    }

    /// Each instantiation against the oracle on `xs`.
    fn assert_kernel_is_oracle(xs: &[f32]) {
        let want: Vec<f32> = xs.iter().map(|&x| tanhf(x)).collect();
        for (name, got) in instantiations(xs) {
            if let Some(m) = first_mismatch(xs, &got, &want) {
                panic!("{name}: {m}");
            }
        }
    }

    /// Every branch boundary of `tanhf` and of `expm1f` on `tanhf`'s
    /// arguments, both signs, each with its 64 neighbours either side.
    fn boundary_inputs() -> Vec<f32> {
        let ln2 = std::f32::consts::LN_2;
        let edges = [
            f32::from_bits(0x2400_0000),           // 2⁻⁵⁵: x·(1 + x) below
            f32::from_bits(0x3300_0000) / 2.0,     // 2|x| = 2⁻²⁵: expm1f(u) = u below
            0.25 * ln2,                            // 2|x| = 0.5·ln2: k = 0 / k = −1
            0.5 * ln2,                             // |x| = 0.5·ln2
            0.75 * ln2,                            // 2|x| = 1.5·ln2: k = −1 / k ≤ −2
            1.5 * ln2,                             // |x| = 1.5·ln2
            1.0,                                   // expm1f(2|x|) from here on
            22.5 / std::f32::consts::LOG2_E / 2.0, // 2|x|: k = 22 / 23
            56.5 / std::f32::consts::LOG2_E / 2.0, // 2|x|: k = 56 / 57
            f32::from_bits(0x4195_b844) / 2.0,     // 2|x| = 27·ln2
            22.0,                                  // ±1 from here on
        ];
        let mut xs = Vec::new();
        for edge in edges {
            let b = edge.to_bits();
            for bits in b - 64..=b + 64 {
                xs.push(f32::from_bits(bits));
                xs.push(-f32::from_bits(bits));
            }
        }
        xs
    }

    #[test]
    fn constants_are_glibcs_decimals() {
        for (c, decimal) in [
            (LN2_HI, "6.9313812256e-01"),
            (LN2_LO, "9.0580006145e-06"),
            (INV_LN2, "1.4426950216e+00"),
            (Q1, "-3.3333335072e-02"),
            (Q2, "1.5873016091e-03"),
            (Q3, "-7.9365076090e-05"),
            (Q4, "4.0082177293e-06"),
            (Q5, "-2.0109921195e-07"),
        ] {
            assert_eq!(
                decimal.parse::<f32>().unwrap().to_bits(),
                c.to_bits(),
                "{decimal}"
            );
        }
    }

    /// Specials, subnormals, every branch boundary and a strided sweep of
    /// all bit patterns, through every instantiation, against the oracle.
    #[test]
    fn kernel_is_the_oracle_on_boundaries_specials_and_a_sweep() {
        let specials = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff),
            f32::from_bits(0x807f_ffff),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001), // signalling
            f32::from_bits(0xffc0_1234),
        ];
        let sweep = (0..=u32::MAX).step_by(4099).map(f32::from_bits);
        let xs: Vec<f32> = specials
            .into_iter()
            .chain(boundary_inputs())
            .chain(sweep)
            .collect();
        assert_kernel_is_oracle(&xs);
        let mut dispatched = xs.clone();
        tanh_in_place(&mut dispatched);
        let want: Vec<f32> = xs.iter().map(|&x| tanhf(x)).collect();
        assert_eq!(first_mismatch(&xs, &dispatched, &want), None, "dispatched");
        // Odd lengths: every tail of a lane block.
        for n in 0..40 {
            assert_kernel_is_oracle(&xs[1000..1000 + n]);
        }
    }

    #[test]
    fn known_values() {
        let mut xs = [0.0, -0.0, 0.5, -2.0, 30.0, f32::NEG_INFINITY, f32::NAN];
        tanh_in_place(&mut xs);
        assert_eq!(xs[0].to_bits(), 0);
        assert_eq!(xs[1].to_bits(), 0x8000_0000);
        assert!((xs[2] - 0.462_117_16).abs() < 1e-7);
        assert!((xs[3] + 0.964_027_6).abs() < 1e-7);
        assert_eq!(xs[4], 1.0);
        assert_eq!(xs[5], -1.0);
        assert!(xs[6].is_nan());
    }

    /// Runs `check(first, last)` over the 2³² bit patterns in 2²⁰-wide
    /// ranges, on every core.
    fn every_input(check: impl Fn(u32, u32) + Sync) {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let next = std::sync::atomic::AtomicU32::new(0);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let block = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if block >= 1 << 12 {
                        return;
                    }
                    check(block << 20, (block << 20) | 0xf_ffff);
                });
            }
        });
    }

    fn range(first: u32, last: u32) -> Vec<f32> {
        (first..=last).map(f32::from_bits).collect()
    }

    /// Both instantiations equal the oracle on all 2³² inputs (≈ 30 s in
    /// release on 2 cores): `cargo test --release -p pop-nn --lib --
    /// --ignored every_input`.
    #[test]
    #[ignore = "exhaustive: all 2^32 inputs, run in release"]
    fn kernel_is_the_oracle_on_every_input() {
        every_input(|first, last| assert_kernel_is_oracle(&range(first, last)));
        let names: Vec<&str> = instantiations(&[0.0]).iter().map(|i| i.0).collect();
        println!(
            "tanh: {} equal the oracle on all 2^32 inputs",
            names.join(", ")
        );
    }

    /// The host's libm, as `getconf` names it.
    fn libm() -> String {
        std::process::Command::new("getconf")
            .arg("GNU_LIBC_VERSION")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "an unnamed libm".into())
    }

    /// The oracle is the host's `f32::tanh` on all 2³² inputs — a NaN
    /// maps to a NaN — which on a glibc host is what every forecast
    /// computed before the kernel: `cargo test --release -p pop-nn --lib
    /// -- --ignored every_input`.
    #[test]
    #[ignore = "exhaustive: all 2^32 inputs, run in release"]
    fn oracle_is_the_host_libm_on_every_input() {
        let libm = libm();
        every_input(|first, last| {
            let xs = range(first, last);
            let want: Vec<f32> = xs.iter().map(|x| x.tanh()).collect();
            let got: Vec<f32> = xs.iter().map(|&x| tanhf(x)).collect();
            let i = (0..xs.len()).find(|&i| {
                got[i].to_bits() != want[i].to_bits() && !(got[i].is_nan() && want[i].is_nan())
            });
            if let Some(i) = i {
                panic!(
                    "{libm}: {}",
                    first_mismatch(&xs[i..=i], &got[i..=i], &want[i..=i]).unwrap()
                );
            }
        });
        println!("tanh: the oracle equals f32::tanh ({libm}) on all 2^32 inputs");
    }
}
