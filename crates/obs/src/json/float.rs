//! Shortest round-trip `f32` → decimal, straight into a byte buffer.
//!
//! [`write_f32`] emits, for every finite `f32`, exactly the bytes
//! `format!("{v}")` does — the fewest digits that parse back to the same
//! bits, nearest the true value, laid out positionally (never `1e-7`) —
//! without `core::fmt`, a `String`, or any allocation of its own. The
//! digit search is Schubfach (R. Giulietti, "The Schubfach way to render
//! doubles", 2020), specialised to 24-bit significands: one 64×32-bit
//! multiply per boundary against a table of 77 powers of ten built at
//! compile time. The search's last step, one digit shorter or not and
//! which neighbour, is computed both ways and selected arithmetically:
//! for a forecast's values it goes either way at random, and as a branch
//! it mispredicted on about every other value.
//!
//! Layout. A one-digit integer is its digit. A value below one with at
//! most 18 zeros after the point (every `tanh` output and feature
//! fraction) is written by
//! [`write_fraction`]: the nine digit places are made ASCII in one word
//! by multiplies, stored over an appended run of ASCII zeros at the
//! offset that puts `0.` and the leading zeros in front of them, and the
//! run is cut after the last significant digit — no digit loop and no
//! scratch array in between. What still falls back to the general
//! positional layout, [`write_positional`] (trailing zeros stripped in a
//! loop, the text built in a scratch array and copied), is values from
//! one up and smaller fractions.
//!
//! The differential tests in this module's parent pin the byte equality
//! over a strided sweep of all 2³² bit patterns, and an ignored test over
//! every one of them.

/// The decimal exponents `k` with a table entry: `-31 ..= 45` covers
/// `-floor(log10(2^q))` for every `f32` binary exponent `q` in `-149 ..= 104`.
const POW10_MIN: i32 = -31;
const POW10_COUNT: usize = 77;

/// `ceil(10^k / 2^r)` with `r` chosen so the result has exactly 64 bits:
/// the upper 64 bits of `10^k`, rounded up.
const fn pow10_upper64(k: i32) -> u64 {
    // 10^k = 5^k · 2^k and the power of two only moves the binary point.
    let mut five = 1u128; // 5^45 < 2^105
    let mut i = 0;
    while i < k.unsigned_abs() {
        five *= 5;
        i += 1;
    }
    if k >= 0 {
        let bits = 128 - five.leading_zeros();
        if bits <= 64 {
            return (five << (64 - bits)) as u64;
        }
        let dropped = bits - 64;
        let inexact = five & ((1u128 << dropped) - 1) != 0;
        return (five >> dropped) as u64 + inexact as u64;
    }
    // 1 / 5^|k|: long division of a power of two, keeping the 64 bits
    // from the first non-zero one. The remainder is never zero.
    let (mut rem, mut quotient, mut bits) = (1u128, 0u64, 0);
    while bits < 64 {
        rem <<= 1;
        let bit = rem >= five;
        if bit {
            rem -= five;
        }
        if bit || bits > 0 {
            quotient = quotient << 1 | bit as u64;
            bits += 1;
        }
    }
    quotient + 1
}

static POW10_UPPER64: [u64; POW10_COUNT] = {
    let mut table = [0u64; POW10_COUNT];
    let mut i = 0;
    while i < POW10_COUNT {
        table[i] = pow10_upper64(POW10_MIN + i as i32);
        i += 1;
    }
    table
};

/// `floor(log10(2^e))` for `|e| <= 1500`.
const fn floor_log10_pow2(e: i32) -> i32 {
    (e * 1_262_611) >> 22
}

/// `floor(log10(3/4 · 2^e))` for `|e| <= 1500`.
const fn floor_log10_three_quarters_pow2(e: i32) -> i32 {
    (e * 1_262_611 - 524_031) >> 22
}

/// `floor(log2(10^e))` for `|e| <= 1200`.
const fn floor_log2_pow10(e: i32) -> i32 {
    (e * 1_741_647) >> 19
}

/// `floor(g · cp / 2^64)`, with the lowest bit set if any of the next 32
/// bits of the product (beyond the first) are: enough to compare against
/// multiples of 4 exactly.
fn round_to_odd(g: u64, cp: u32) -> u32 {
    let p = u128::from(g) * u128::from(cp);
    let y1 = (p >> 64) as u32;
    let y0 = (p >> 32) as u32;
    y1 | u32::from(y0 > 1)
}

/// The shortest `(digits, exp10)` with `digits · 10^exp10` rounding to the
/// positive finite non-zero `f32` whose bits are `bits`; of several that
/// short, the nearest, ties away from zero (as `core::fmt`). `digits` may
/// end in zeros.
fn shortest_decimal(bits: u32) -> (u32, i32) {
    let fraction = bits & 0x007f_ffff;
    let exponent = (bits >> 23) as i32;
    // The value is c · 2^q.
    let (c, q) = if exponent == 0 {
        (fraction, -149)
    } else {
        (fraction | 0x0080_0000, exponent - 150)
    };
    // An integer below 2^24 is its own shortest form.
    if exponent != 0 && (-23..=0).contains(&q) && c & ((1 << -q) - 1) == 0 {
        return (c >> -q, 0);
    }

    let even = c & 1 == 0;
    // At a power of two the gap below is half the gap above.
    let lower_closer = fraction == 0 && exponent > 1;
    let cbl = 4 * c - 2 + u32::from(lower_closer);
    let cb = 4 * c;
    let cbr = 4 * c + 2;

    let k = if lower_closer {
        floor_log10_three_quarters_pow2(q)
    } else {
        floor_log10_pow2(q)
    };
    let h = q + floor_log2_pow10(-k) + 1; // 1 ..= 4
    let g = usize::try_from(-k - POW10_MIN)
        .ok()
        .and_then(|i| POW10_UPPER64.get(i))
        .copied()
        .unwrap_or_default();
    let vbl = round_to_odd(g, cbl << h);
    let vb = round_to_odd(g, cb << h);
    let vbr = round_to_odd(g, cbr << h);
    // Round-half-even parsing accepts the interval's ends only for an
    // even significand.
    let lower = vbl + u32::from(!even);
    let upper = vbr - u32::from(!even);

    let s = vb / 4;
    // Both candidates, one digit shorter and full length, then a select:
    // which one wins turns on the value's low bits, so a branch on it
    // mispredicts about as often as it is taken.
    let sp = s / 10;
    let short_up = u32::from(40 * sp + 40 <= upper);
    let short_down = u32::from(lower <= 40 * sp);
    // Exactly one shorter candidate in range.
    let short = u32::from(s >= 10) & (short_down ^ short_up);
    let up = u32::from(4 * s + 4 <= upper);
    let down = u32::from(lower <= 4 * s);
    let nearer_up = u32::from(vb >= 4 * s + 2);
    let one_inside = down ^ up;
    let long = s + (one_inside & up | !one_inside & nearer_up);
    let keep_short = 0u32.wrapping_sub(short);
    (
        (sp + short_up) & keep_short | long & !keep_short,
        k + short as i32,
    )
}

/// `"00"`, `"01"`, … `"99"`.
static DIGIT_PAIRS: [[u8; 2]; 100] = {
    let mut pairs = [[b'0'; 2]; 100];
    let mut i = 0;
    while i < 100 {
        pairs[i] = [b'0' + (i / 10) as u8, b'0' + (i % 10) as u8];
        i += 1;
    }
    pairs
};

/// The two decimal digits of `n < 100`.
fn pair(n: u32) -> [u8; 2] {
    DIGIT_PAIRS.get(n as usize).copied().unwrap_or([b'0'; 2])
}

/// Copies 16 bytes of `src` from `from` to `dst` at `at` — a fixed-size
/// move, not a `memcpy` call. Out-of-range is a no-op; no caller is.
fn place16(dst: &mut [u8; 64], at: usize, src: &[u8; 32], from: usize) {
    let src = src.get(from..).and_then(|s| s.first_chunk::<16>());
    let dst = dst.get_mut(at..).and_then(|d| d.first_chunk_mut::<16>());
    if let (Some(dst), Some(src)) = (dst, src) {
        *dst = *src;
    }
}

/// Appends `v` as a JSON number: the shortest decimal that parses back to
/// the same bits, byte-identical to `format!("{v}")`. Non-finite values,
/// which JSON cannot carry, become `null` (as [`super::num`] does).
pub fn write_f32(out: &mut Vec<u8>, v: f32) {
    if !v.is_finite() {
        out.extend_from_slice(b"null");
        return;
    }
    let bits = v.to_bits();
    let magnitude = bits & 0x7fff_ffff;
    if magnitude == 0 {
        out.extend_from_slice(if bits == 0 { b"0" } else { b"-0" });
        return;
    }
    // A one-digit integer is its own digit: the `1`s of a feature map
    // need no search and no layout.
    if (1.0f32.to_bits()..=9.0f32.to_bits()).contains(&magnitude) {
        let int = v.abs() as u8;
        if f32::from(int) == v.abs() {
            if bits >> 31 == 1 {
                out.push(b'-');
            }
            out.push(b'0' + int);
            return;
        }
    }
    let (digits, exp10) = shortest_decimal(magnitude);
    if !write_fraction(out, bits >> 31 == 1, digits, exp10) {
        write_positional(out, bits >> 31 == 1, digits, exp10);
    }
}

/// The eight decimal digits of `v < 10^8` as ASCII, the first in the
/// lowest byte: two 4-digit lanes, split into four 2-digit ones, split
/// into eight digits, by multiplies that divide exactly in these ranges
/// (`10486 / 2^20` is `1/100` below 43 699, `103 / 2^10` is `1/10` below
/// 179).
fn eight_ascii(v: u32) -> [u8; 8] {
    let x = u64::from(v / 10_000) | u64::from(v % 10_000) << 32;
    let hundreds = ((x * 10_486) >> 20) & 0x0000_007f_0000_007f;
    let x = hundreds | (x - hundreds * 100) << 16;
    let tens = ((x * 103) >> 10) & 0x000f_000f_000f_000f;
    let x = tens | (x - tens * 10) << 8;
    (x | 0x3030_3030_3030_3030).to_le_bytes()
}

/// Copies `bytes` into `buf` at `at`. Out-of-range is a no-op; no caller is.
fn put<const N: usize>(buf: &mut [u8; 32], at: usize, bytes: &[u8; N]) {
    if let Some(slot) = buf.get_mut(at..).and_then(|s| s.first_chunk_mut::<N>()) {
        *slot = *bytes;
    }
}

/// Appends `digits · 10^exp10` when it is below one and not far below
/// (`0.` and up to 18 zeros before the digits): the layout of every
/// `tanh` output and feature fraction. Returns `false`, having appended
/// nothing, for anything else.
///
/// It appends 32 ASCII zeros, writes the sign, the nine digit places
/// (leading zeros and all) and then `0.` over them at fixed-size stores,
/// and cuts the run after the last significant digit: no digit loop, no
/// scratch array, and no branch on the digits.
fn write_fraction(out: &mut Vec<u8>, negative: bool, digits: u32, exp10: i32) -> bool {
    let top = b'0' + (digits / 100_000_000) as u8;
    let eight = eight_ascii(digits % 100_000_000);
    let values = u64::from_le_bytes(eight) ^ 0x3030_3030_3030_3030;
    // Zero places after the last digit, and before the first (`digits`
    // is not zero, so a `0` on top leaves a digit among the eight).
    let trailing = values.leading_zeros() as usize / 8;
    let leading = if top == b'0' {
        1 + values.trailing_zeros() as usize / 8
    } else {
        0
    };
    let point = 9 - leading as i32 + exp10; // digits before the point
    if !(-18..=0).contains(&point) {
        return false;
    }
    // The nine places go where their last `9 - leading` digits follow
    // `0.` and `-point` zeros. A search result has at most three leading
    // zeros, so that is at least `sign - 1`: the one place that can fall
    // before the number is a leading zero, and its byte is moved onto the
    // `0` written after it.
    let sign = usize::from(negative);
    let Some(places) = (sign + 2 + point.unsigned_abs() as usize)
        .checked_sub(leading)
        .filter(|&places| places + 1 >= sign)
    else {
        return false;
    };
    let at = out.len();
    out.extend_from_slice(&[b'0'; 32]);
    let Some(buf) = out.get_mut(at..).and_then(|s| s.first_chunk_mut::<32>()) else {
        return true;
    };
    buf[0] = b'-';
    put(buf, places + 1, &eight);
    put(buf, places.max(sign), &[top]);
    put(buf, sign, b"0.");
    out.truncate(at + places + 9 - trailing);
    true
}

/// The positional layout of `digits · 10^exp10` for every magnitude:
/// [`write_f32`]'s path for values from one up and for fractions with
/// more than 18 zeros after the point.
fn write_positional(out: &mut Vec<u8>, negative: bool, mut digits: u32, mut exp10: i32) {
    while digits.is_multiple_of(10) {
        digits /= 10;
        exp10 += 1;
    }
    // Nine digits right-aligned in text[..9], zeros all around them.
    let mut text = [b'0'; 32];
    let (top, low) = (digits / 100_000_000, digits % 100_000_000);
    let (upper, lower) = (low / 10_000, low % 10_000);
    text[0] = b'0' + top as u8;
    let pairs = [upper / 100, upper % 100, lower / 100, lower % 100];
    for (slot, two) in text[1..9].chunks_exact_mut(2).zip(pairs) {
        slot.copy_from_slice(&pair(two));
    }
    let n = digits.checked_ilog10().map_or(1, |log| log as usize + 1);
    let first = 9 - n; // where the significant digits start

    // Positional layout over a field of zeros, from field[1] on; field[0]
    // is the sign, emitted or not. The longest are "-0." + 44 zeros + 9
    // digits, and '-' + 39 integer digits.
    let mut field = [b'0'; 64];
    field[0] = b'-';
    let point = n as i32 + exp10; // digits before the decimal point
    let len = if exp10 >= 0 {
        place16(&mut field, 1, &text, first);
        point as usize
    } else if point > 0 {
        let point = point as usize;
        place16(&mut field, 1, &text, first);
        place16(&mut field, point + 2, &text, first + point);
        if let Some(dot) = field.get_mut(point + 1) {
            *dot = b'.';
        }
        n + 1
    } else {
        let zeros = point.unsigned_abs() as usize;
        field[2] = b'.';
        place16(&mut field, 3 + zeros, &text, first);
        2 + zeros + n
    };
    let skip_sign = usize::from(!negative);
    out.extend_from_slice(field.get(skip_sign..=len).unwrap_or_default());
}
