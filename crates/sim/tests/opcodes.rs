//! Per-opcode semantics tests: every ALU/SFU/memory opcode is executed on
//! a warp of distinct per-lane inputs and checked against a host oracle.

use rfh_sim::exec::{execute, ExecMode, Launch};
use rfh_sim::mem::GlobalMemory;
use rfh_sim::sink::NullSink;

/// Runs a one-warp kernel template that loads per-lane inputs a and b from
/// memory, applies `body` (reading r1 and r2, writing r3), stores r3, and
/// returns the 32 lane results.
fn run_binary(body: &str, a: &[u32], b: &[u32]) -> Vec<u32> {
    assert_eq!(a.len(), 32);
    assert_eq!(b.len(), 32);
    let text = format!(
        "
.kernel op
BB0:
  mov r0, %tid.x
  ld.global r1 r0
  iadd r4 r0, 32
  ld.global r2 r4
  {body}
  iadd r5 r0, 64
  st.global r5, r3
  exit
"
    );
    let kernel = rfh_isa::parse_kernel(&text).unwrap();
    let mut words = Vec::new();
    words.extend_from_slice(a);
    words.extend_from_slice(b);
    words.extend([0u32; 32]);
    let mut mem = GlobalMemory::from_words(words);
    let mut sink = NullSink;
    execute(
        &kernel,
        &Launch::new(1, 32),
        &mut mem,
        ExecMode::Baseline,
        &mut [&mut sink],
    )
    .unwrap();
    (64..96).map(|i| mem.load(i).unwrap()).collect()
}

fn ints() -> (Vec<u32>, Vec<u32>) {
    let a: Vec<u32> = (0i32..32).map(|i| (i * 7 - 50) as u32).collect();
    let b: Vec<u32> = (0i32..32).map(|i| (13 - i * 3) as u32).collect();
    (a, b)
}

fn floats() -> (Vec<u32>, Vec<u32>) {
    let a: Vec<u32> = (0..32).map(|i| (i as f32 * 0.37 - 3.0).to_bits()).collect();
    let b: Vec<u32> = (0..32).map(|i| (2.5 - i as f32 * 0.21).to_bits()).collect();
    (a, b)
}

macro_rules! int_op_test {
    ($name:ident, $body:expr, $f:expr) => {
        #[test]
        fn $name() {
            let (a, b) = ints();
            let got = run_binary($body, &a, &b);
            let f: fn(i32, i32) -> i32 = $f;
            for lane in 0..32 {
                let expect = f(a[lane] as i32, b[lane] as i32) as u32;
                assert_eq!(got[lane], expect, "lane {lane}");
            }
        }
    };
}

macro_rules! float_op_test {
    ($name:ident, $body:expr, $f:expr) => {
        #[test]
        fn $name() {
            let (a, b) = floats();
            let got = run_binary($body, &a, &b);
            let f: fn(f32, f32) -> f32 = $f;
            for lane in 0..32 {
                // Every NaN result is CUDA's canonical quiet NaN,
                // whatever payload the host arithmetic produced. The NaN
                // test runs on the bits (see `rfh_isa::eval_alu`).
                let r = f(f32::from_bits(a[lane]), f32::from_bits(b[lane])).to_bits();
                let expect = if r & 0x7fff_ffff > 0x7f80_0000 {
                    0x7fff_ffff
                } else {
                    r
                };
                assert_eq!(got[lane], expect, "lane {lane}");
            }
        }
    };
}

int_op_test!(iadd, "iadd r3 r1, r2", |a, b| a.wrapping_add(b));
int_op_test!(isub, "isub r3 r1, r2", |a, b| a.wrapping_sub(b));
int_op_test!(imul, "imul r3 r1, r2", |a, b| a.wrapping_mul(b));
int_op_test!(imin, "imin r3 r1, r2", |a, b| a.min(b));
int_op_test!(imax, "imax r3 r1, r2", |a, b| a.max(b));
int_op_test!(and, "and r3 r1, r2", |a, b| a & b);
int_op_test!(or, "or r3 r1, r2", |a, b| a | b);
int_op_test!(xor, "xor r3 r1, r2", |a, b| a ^ b);
int_op_test!(
    shl,
    "shl r3 r1, r2",
    |a, b| ((a as u32).wrapping_shl(b as u32 & 31)) as i32
);
int_op_test!(
    shr,
    "shr r3 r1, r2",
    |a, b| ((a as u32).wrapping_shr(b as u32 & 31)) as i32
);
int_op_test!(imad, "imad r3 r1, r2, r1", |a, b| a
    .wrapping_mul(b)
    .wrapping_add(a));
int_op_test!(mov, "mov r3 r1", |a, _| a);

float_op_test!(fadd, "fadd r3 r1, r2", |a, b| a + b);
float_op_test!(fsub, "fsub r3 r1, r2", |a, b| a - b);
float_op_test!(fmul, "fmul r3 r1, r2", |a, b| a * b);
float_op_test!(fmin, "fmin r3 r1, r2", |a, b| a.min(b));
float_op_test!(fmax, "fmax r3 r1, r2", |a, b| a.max(b));
float_op_test!(ffma, "ffma r3 r1, r2, r2", |a, b| a.mul_add(b, b));

float_op_test!(sqrt, "sqrt r3 r1", |a, _| a.sqrt());
float_op_test!(rcp, "rcp r3 r1", |a, _| 1.0 / a);
float_op_test!(rsqrt, "rsqrt r3 r1", |a, _| 1.0 / a.sqrt());
float_op_test!(sin, "sin r3 r1", |a, _| a.sin());
float_op_test!(cos, "cos r3 r1", |a, _| a.cos());
float_op_test!(ex2, "ex2 r3 r1", |a, _| a.exp2());
float_op_test!(lg2, "lg2 r3 r1", |a, _| a.log2());

#[test]
fn i2f_and_f2i_round_trip() {
    let (a, _) = ints();
    let got = run_binary("i2f r3 r1", &a, &a);
    for lane in 0..32 {
        assert_eq!(
            got[lane],
            ((a[lane] as i32) as f32).to_bits(),
            "lane {lane}"
        );
    }
    let (f, _) = floats();
    let got = run_binary("f2i r3 r1", &f, &f);
    for lane in 0..32 {
        assert_eq!(
            got[lane] as i32,
            f32::from_bits(f[lane]) as i32,
            "lane {lane}"
        );
    }
}

#[test]
fn f2i_of_nan_is_zero() {
    let nan = vec![f32::NAN.to_bits(); 32];
    let got = run_binary("f2i r3 r1", &nan, &nan);
    assert!(got.iter().all(|v| *v == 0));
}

#[test]
fn setp_all_comparisons() {
    // For each comparison, produce 1 when it holds, else 0, via sel.
    for (cmp, f) in [
        ("eq", (|a, b| a == b) as fn(i32, i32) -> bool),
        ("ne", |a, b| a != b),
        ("lt", |a, b| a < b),
        ("le", |a, b| a <= b),
        ("gt", |a, b| a > b),
        ("ge", |a, b| a >= b),
    ] {
        let (a, b) = ints();
        let body = format!("setp.{cmp} p0 r1, r2\n  sel r3 1, 0, p0");
        let got = run_binary(&body, &a, &b);
        for lane in 0..32 {
            let expect = u32::from(f(a[lane] as i32, b[lane] as i32));
            assert_eq!(got[lane], expect, "{cmp} lane {lane}");
        }
    }
}

#[test]
fn fsetp_all_comparisons() {
    for (cmp, f) in [
        ("lt", (|a, b| a < b) as fn(f32, f32) -> bool),
        ("ge", |a, b| a >= b),
        ("eq", |a, b| a == b),
        ("ne", |a, b| a != b),
    ] {
        let (a, b) = floats();
        let body = format!("fsetp.{cmp} p0 r1, r2\n  sel r3 1, 0, p0");
        let got = run_binary(&body, &a, &b);
        for lane in 0..32 {
            let expect = u32::from(f(f32::from_bits(a[lane]), f32::from_bits(b[lane])));
            assert_eq!(got[lane], expect, "{cmp} lane {lane}");
        }
    }
}

#[test]
fn tex_gathers_from_memory() {
    // Coordinates point into the b[] region (words 32..64): lane i fetches
    // b[(i*5) % 32].
    let coords: Vec<u32> = (0..32).map(|i| 32 + (i * 5) % 32).collect();
    let vals: Vec<u32> = (0..32).map(|i| i * 13 + 7).collect();
    let got = run_binary("tex r3 r1", &coords, &vals);
    for lane in 0..32 {
        assert_eq!(got[lane], vals[(lane * 5) % 32], "lane {lane}");
    }
}

#[test]
fn local_memory_round_trips() {
    // st.local / ld.local behave like a private slice of global words.
    let a: Vec<u32> = (0..32).map(|i| i + 64).collect(); // per-lane addresses
    let b: Vec<u32> = (0..32).map(|i| i * 11 + 1).collect();
    let got = run_binary("st.local r1, r2\n  ld.local r3 r1", &a, &b);
    for lane in 0..32 {
        assert_eq!(got[lane], b[lane], "lane {lane}");
    }
}
