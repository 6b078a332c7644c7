//! The one GEMM behind [`Tensor::matmul`](crate::Tensor::matmul),
//! [`Tensor::matmul_t`](crate::Tensor::matmul_t) and
//! [`Tensor::t_matmul`](crate::Tensor::t_matmul).
//!
//! A packed, register-tiled kernel in the style of Goto & van de Geijn
//! ("Anatomy of High-Performance Matrix Multiplication", TOMS 2008):
//! `KC × NC` blocks of B and `MC × KC` blocks of A are copied into
//! contiguous panels `NR` and `MR` wide, and an `MR × NR` micro-kernel
//! keeps its tile of C in registers across a whole `KC` slice. The
//! operand transposes are packing modes, so one kernel serves all three
//! products. The panels live in a per-thread buffer that every product
//! on the thread reuses, so a call allocates only its result.
//!
//! # Determinism contract
//!
//! Every `C[i][j]` starts at `+0.0` and adds `A[i][p]·B[p][j]` for
//! `p = 0, 1, …, k−1` in that order, one rounded multiply and one rounded
//! add per step — no fused multiply-add and no split of the `k` sum
//! (a `KC` block continues from the value the previous block stored).
//! Edge tiles are zero-padded in the packed panels only; padded lanes
//! are never written back. The blocking constants are fixed, so the
//! result depends on the shapes and values alone, and the kernel is
//! single-threaded: results are bit-identical at any executor width.
//!
//! There is no zero-skip. For finite operands that changes no bit —
//! `c + (±0) = c` for any finite `c`, and `c` is never `-0.0` — but a
//! non-finite B entry against a zero A entry yields NaN, as IEEE
//! arithmetic says it should.

use std::cell::RefCell;

/// Rows of the register tile.
const MR: usize = 4;
/// Columns of the register tile.
const NR: usize = 8;
/// Rows of A packed per block.
const MC: usize = 64;
/// Depth of the `k` slice packed per block.
const KC: usize = 256;
/// Columns of B packed per block.
const NC: usize = 1024;

/// A read-only view of a logical `rows × cols` matrix over a buffer.
#[derive(Clone, Copy)]
pub(crate) struct View<'a> {
    data: &'a [f32],
    /// Stride between consecutive stored rows (row-major) or columns.
    ld: usize,
    /// `true`: element `(r, c)` at `r·ld + c`; `false`: at `c·ld + r`.
    row_major: bool,
}

impl<'a> View<'a> {
    /// A buffer stored row by row with `ld` columns.
    pub(crate) fn row_major(data: &'a [f32], ld: usize) -> Self {
        View {
            data,
            ld,
            row_major: true,
        }
    }

    /// A buffer stored column by column with `ld` rows, i.e. the
    /// transpose of a row-major `[cols, ld]` buffer.
    pub(crate) fn col_major(data: &'a [f32], ld: usize) -> Self {
        View {
            data,
            ld,
            row_major: false,
        }
    }
}

thread_local! {
    /// Packing space, reused by every product on the thread; `pack`
    /// overwrites each slot before the micro-kernel reads it.
    static PACKED: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// `C = A · Bᵀ` for a logical `m × k` matrix `a` and a logical `n × k`
/// matrix `bt`, returned as a row-major `m × n` buffer.
pub(crate) fn gemm(m: usize, k: usize, n: usize, a: View, bt: View) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    if m == 0 || n == 0 || k == 0 {
        return c;
    }
    let a_len = MC.min(m.next_multiple_of(MR)) * KC.min(k);
    let b_len = NC.min(n.next_multiple_of(NR)) * KC.min(k);
    PACKED.with_borrow_mut(|packed| {
        if packed.len() < a_len + b_len {
            packed.resize(a_len + b_len, 0.0);
        }
        let (apack, bpack) = packed.split_at_mut(a_len);
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                let bpack = pack::<NR>(bpack, bt, jc, nc, pc, kc);
                for ic in (0..m).step_by(MC) {
                    let mc = MC.min(m - ic);
                    let apack = pack::<MR>(apack, a, ic, mc, pc, kc);
                    for (jr, bp) in (0..nc).step_by(NR).zip(bpack.chunks_exact(NR * kc)) {
                        for (ir, ap) in (0..mc).step_by(MR).zip(apack.chunks_exact(MR * kc)) {
                            let tile = Tile {
                                i0: ic + ir,
                                j0: jc + jr,
                                mr: MR.min(mc - ir),
                                nr: NR.min(nc - jr),
                                ldc: n,
                            };
                            let acc = micro_kernel(tile.load(&c), ap, bp);
                            tile.store(&mut c, &acc);
                        }
                    }
                }
            }
        }
    });
    c
}

/// Packs rows `r0..r0+rows`, columns `c0..c0+cols` of `src` into panels
/// `W` rows wide: panel `q` holds column `p` of rows `q·W..q·W+W` at
/// `q·W·cols + p·W`. Rows past `rows` are zero. Returns the packed prefix.
fn pack<'d, const W: usize>(
    dst: &'d mut [f32],
    src: View,
    r0: usize,
    rows: usize,
    c0: usize,
    cols: usize,
) -> &'d [f32] {
    let dst = &mut dst[..rows.next_multiple_of(W) * cols];
    for (pr, panel) in (0..rows).step_by(W).zip(dst.chunks_exact_mut(W * cols)) {
        let live = W.min(rows - pr);
        for (p, slot) in panel.chunks_exact_mut(W).enumerate() {
            let slot: &mut [f32; W] = slot.try_into().expect("W-wide slot");
            let (r, c) = (r0 + pr, c0 + p);
            if src.row_major {
                for (dr, v) in slot.iter_mut().enumerate() {
                    *v = if dr < live {
                        src.data[(r + dr) * src.ld + c]
                    } else {
                        0.0
                    };
                }
            } else if live == W {
                *slot = src.data[c * src.ld + r..][..W]
                    .try_into()
                    .expect("W-wide line");
            } else {
                for (dr, v) in slot.iter_mut().enumerate() {
                    *v = if dr < live {
                        src.data[c * src.ld + r + dr]
                    } else {
                        0.0
                    };
                }
            }
        }
    }
    dst
}

/// The `mr × nr` block of C at `(i0, j0)`, `mr ≤ MR`, `nr ≤ NR`.
struct Tile {
    i0: usize,
    j0: usize,
    mr: usize,
    nr: usize,
    ldc: usize,
}

// Full-width rows move as fixed-size arrays; only edge tiles take the
// element loops.
impl Tile {
    fn load(&self, c: &[f32]) -> [[f32; NR]; MR] {
        let mut acc = [[0.0f32; NR]; MR];
        for (r, row) in acc.iter_mut().enumerate().take(self.mr) {
            let line = &c[(self.i0 + r) * self.ldc + self.j0..][..self.nr];
            match <&[f32; NR]>::try_from(line) {
                Ok(full) => *row = *full,
                Err(_) => row[..self.nr]
                    .iter_mut()
                    .zip(line)
                    .for_each(|(v, &x)| *v = x),
            }
        }
        acc
    }

    fn store(&self, c: &mut [f32], acc: &[[f32; NR]; MR]) {
        for (r, row) in acc.iter().enumerate().take(self.mr) {
            let line = &mut c[(self.i0 + r) * self.ldc + self.j0..][..self.nr];
            match <&mut [f32; NR]>::try_from(&mut *line) {
                Ok(full) => *full = *row,
                Err(_) => line.iter_mut().zip(row).for_each(|(x, &v)| *x = v),
            }
        }
    }
}

/// Adds `Σ_p a[p]·b[p]ᵀ` to `acc`, one `p` at a time in ascending order.
/// Kept out of line so the tile lives in registers for the whole slice.
#[inline(never)]
fn micro_kernel(mut acc: [[f32; NR]; MR], apanel: &[f32], bpanel: &[f32]) -> [[f32; NR]; MR] {
    for (a, b) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)) {
        let a: &[f32; MR] = a.try_into().expect("MR-wide chunk");
        let b: &[f32; NR] = b.try_into().expect("NR-wide chunk");
        for (row, &ai) in acc.iter_mut().zip(a) {
            for (cij, &bj) in row.iter_mut().zip(b) {
                *cij += ai * bj;
            }
        }
    }
    acc
}
