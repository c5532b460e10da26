//! Shared numerical kernels: line solvers (scalar tridiagonal, scalar
//! pentadiagonal, 5×5 block tridiagonal) and a radix-2 complex FFT. These
//! are the computational hearts of BT, SP, and FT.

/// Solve a scalar tridiagonal system in place with the Thomas algorithm.
///
/// `a` is the subdiagonal (`a[0]` unused), `b` the diagonal, `c` the
/// superdiagonal (`c[n-1]` unused), `d` the right-hand side; on return `d`
/// holds the solution. `b` and `c` are consumed as scratch.
pub fn thomas_tridiag(a: &[f64], b: &mut [f64], c: &mut [f64], d: &mut [f64]) {
    let n = d.len();
    assert!(n >= 1 && a.len() == n && b.len() == n && c.len() == n);
    // Forward sweep.
    c[0] /= b[0];
    d[0] /= b[0];
    for i in 1..n {
        let m = b[i] - a[i] * c[i - 1];
        if i + 1 < n {
            c[i] /= m;
        }
        d[i] = (d[i] - a[i] * d[i - 1]) / m;
    }
    // Back substitution.
    for i in (0..n - 1).rev() {
        d[i] -= c[i] * d[i + 1];
    }
}

/// Solve a scalar pentadiagonal system in place (bands `e,a,b,c,f` =
/// sub-sub, sub, diag, super, super-super), Gaussian elimination without
/// pivoting (diagonally dominant systems only, as in SP). `d` is the RHS
/// and receives the solution.
#[allow(clippy::too_many_arguments)]
pub fn penta_solve(
    e: &mut [f64],
    a: &mut [f64],
    b: &mut [f64],
    c: &mut [f64],
    f: &mut [f64],
    d: &mut [f64],
) {
    let n = d.len();
    assert!(n >= 3);
    for i in 0..n - 1 {
        // Eliminate a[i+1] (sub) against row i.
        let m1 = a[i + 1] / b[i];
        b[i + 1] -= m1 * c[i];
        if i + 2 < n {
            c[i + 1] -= m1 * f[i];
        }
        d[i + 1] -= m1 * d[i];
        // Eliminate e[i+2] (sub-sub) against row i.
        if i + 2 < n {
            let m2 = e[i + 2] / b[i];
            a[i + 2] -= m2 * c[i];
            b[i + 2] -= m2 * f[i];
            d[i + 2] -= m2 * d[i];
        }
    }
    // Back substitution.
    d[n - 1] /= b[n - 1];
    if n >= 2 {
        d[n - 2] = (d[n - 2] - c[n - 2] * d[n - 1]) / b[n - 2];
    }
    for i in (0..n.saturating_sub(2)).rev() {
        d[i] = (d[i] - c[i] * d[i + 1] - f[i] * d[i + 2]) / b[i];
    }
}

/// Offset of cell `(i, j, k)`'s five variables in BT's and SP's state arrays
/// (x fastest, five consecutive values per cell).
#[inline]
pub(crate) fn cell(i: usize, j: usize, k: usize, nx: usize, ny: usize) -> usize {
    ((k * ny + j) * nx + i) * 5
}

/// The grid lines along `axis` of such an array: how many cells a line has,
/// how far apart they are, and where each line starts. Lines share no cell,
/// so a sweep may solve each one in place.
pub(crate) fn lines(
    dims: (usize, usize, usize),
    axis: usize,
) -> (usize, usize, impl Iterator<Item = usize>) {
    let (nx, ny, nz) = dims;
    let (len, stride, da, db) = match axis {
        0 => (nx, 5, ny, nz),
        1 => (ny, 5 * nx, nx, nz),
        _ => (nz, 5 * nx * ny, nx, ny),
    };
    let start = move |a: usize, b: usize| match axis {
        0 => cell(0, a, b, nx, ny),
        1 => cell(a, 0, b, nx, ny),
        _ => cell(a, b, 0, nx, ny),
    };
    (len, stride, (0..db).flat_map(move |b| (0..da).map(move |a| start(a, b))))
}

/// BT's and SP's right-hand side: `rhs = dt·(Σ six face neighbours − 6·u)`
/// per variable, neighbours clamped at the faces (reflective boundaries) and
/// added in the order −x, +x, −y, +y, −z, +z.
pub(crate) fn face_laplacian(u: &[f64], rhs: &mut [f64], dims: (usize, usize, usize), dt: f64) {
    let (nx, ny, nz) = dims;
    let around = |c: usize, n: usize| (c.saturating_sub(1), (c + 1).min(n - 1));
    for k in 0..nz {
        let (km, kp) = around(k, nz);
        for j in 0..ny {
            let (jm, jp) = around(j, ny);
            for i in 0..nx {
                let (im, ip) = around(i, nx);
                let c = cell(i, j, k, nx, ny);
                let faces =
                    [(im, j, k), (ip, j, k), (i, jm, k), (i, jp, k), (i, j, km), (i, j, kp)]
                        .map(|(fi, fj, fk)| cell(fi, fj, fk, nx, ny));
                for comp in 0..5 {
                    let mut acc = -6.0 * u[c + comp];
                    for face in faces {
                        acc += u[face + comp];
                    }
                    rhs[c + comp] = dt * acc;
                }
            }
        }
    }
}

/// A 5×5 matrix stored row-major, the block element of BT's systems.
pub type Block5 = [[f64; 5]; 5];
/// A 5-vector, one grid cell's worth of conserved variables.
pub type Vec5 = [f64; 5];

/// `C ← A · B` for 5×5 blocks.
pub fn matmul5(a: &Block5, b: &Block5) -> Block5 {
    let mut c = [[0.0; 5]; 5];
    for i in 0..5 {
        for k in 0..5 {
            let aik = a[i][k];
            for j in 0..5 {
                c[i][j] += aik * b[k][j];
            }
        }
    }
    c
}

/// `y ← A · x` for a 5×5 block and 5-vector.
pub fn matvec5(a: &Block5, x: &Vec5) -> Vec5 {
    let mut y = [0.0; 5];
    for i in 0..5 {
        for j in 0..5 {
            y[i] += a[i][j] * x[j];
        }
    }
    y
}

/// Invert a 5×5 block by Gauss–Jordan with partial pivoting. Panics on a
/// (numerically) singular block — BT's blocks are diagonally dominant by
/// construction.
pub fn inverse5(a: &Block5) -> Block5 {
    let mut m = *a;
    let mut inv: Block5 = [[0.0; 5]; 5];
    for (i, row) in inv.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    for col in 0..5 {
        // Partial pivot.
        let pivot_row = (col..5)
            .max_by(|&r1, &r2| m[r1][col].abs().partial_cmp(&m[r2][col].abs()).unwrap())
            .unwrap();
        if m[pivot_row][col].abs() < 1e-30 {
            panic!("singular 5x5 block in BT solve");
        }
        m.swap(col, pivot_row);
        inv.swap(col, pivot_row);
        let piv = m[col][col];
        for j in 0..5 {
            m[col][j] /= piv;
            inv[col][j] /= piv;
        }
        for r in 0..5 {
            if r != col {
                let f = m[r][col];
                if f != 0.0 {
                    for j in 0..5 {
                        m[r][j] -= f * m[col][j];
                        inv[r][j] -= f * inv[col][j];
                    }
                }
            }
        }
    }
    inv
}

/// Solve a block-tridiagonal system with 5×5 blocks by block Thomas:
/// `lower[i]·x[i-1] + diag[i]·x[i] + upper[i]·x[i+1] = rhs[i]`.
/// `diag`, `upper`, and `rhs` are consumed as scratch; `rhs` receives the
/// solution.
pub fn block_tridiag_solve(
    lower: &[Block5],
    diag: &mut [Block5],
    upper: &mut [Block5],
    rhs: &mut [Vec5],
) {
    let n = rhs.len();
    assert!(n >= 1 && lower.len() == n && diag.len() == n && upper.len() == n);
    // Forward elimination: normalize row i, then eliminate lower[i+1].
    for i in 0..n {
        let dinv = inverse5(&diag[i]);
        upper[i] = matmul5(&dinv, &upper[i]);
        rhs[i] = matvec5(&dinv, &rhs[i]);
        if i + 1 < n {
            // diag[i+1] -= lower[i+1] * upper[i]; rhs[i+1] -= lower[i+1]*rhs[i]
            let l = lower[i + 1];
            let lu = matmul5(&l, &upper[i]);
            for r in 0..5 {
                for c in 0..5 {
                    diag[i + 1][r][c] -= lu[r][c];
                }
            }
            let lr = matvec5(&l, &rhs[i]);
            for r in 0..5 {
                rhs[i + 1][r] -= lr[r];
            }
        }
    }
    // Back substitution: x[i] = rhs[i] - upper[i]*x[i+1].
    for i in (0..n.saturating_sub(1)).rev() {
        let ux = matvec5(&upper[i], &rhs[i + 1]);
        for r in 0..5 {
            rhs[i][r] -= ux[r];
        }
    }
}

/// In-place radix-2 complex FFT over interleaved `(re, im)` pairs.
/// `sign = -1.0` forward, `+1.0` inverse (unnormalized; divide by `n` after
/// a round trip). Length must be a power of two.
pub fn fft_radix2(data: &mut [f64], sign: f64) {
    let n = data.len() / 2;
    assert!(n.is_power_of_two(), "FFT length {n} must be a power of two");
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 0..n {
        if i < j {
            data.swap(2 * i, 2 * j);
            data.swap(2 * i + 1, 2 * j + 1);
        }
        let mut m = n >> 1;
        while m >= 1 && j & m != 0 {
            j ^= m;
            m >>= 1;
        }
        j |= m;
    }
    // Danielson–Lanczos butterflies.
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let (wr0, wi0) = (ang.cos(), ang.sin());
        let half = len / 2;
        let mut base = 0;
        while base < n {
            let (mut wr, mut wi) = (1.0f64, 0.0f64);
            for k in 0..half {
                let i0 = 2 * (base + k);
                let i1 = 2 * (base + k + half);
                let (xr, xi) = (data[i1], data[i1 + 1]);
                let (tr, ti) = (xr * wr - xi * wi, xr * wi + xi * wr);
                data[i1] = data[i0] - tr;
                data[i1 + 1] = data[i0 + 1] - ti;
                data[i0] += tr;
                data[i0 + 1] += ti;
                let nwr = wr * wr0 - wi * wi0;
                wi = wr * wi0 + wi * wr0;
                wr = nwr;
            }
            base += len;
        }
        len <<= 1;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Dense Gaussian elimination with partial pivoting: the solver BT's and
    /// SP's sweep tests check a line against, sharing nothing with the banded
    /// solvers above.
    pub(crate) fn dense_solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
        let n = b.len();
        for col in 0..n {
            let pivot =
                (col..n).max_by(|&p, &q| a[p][col].abs().total_cmp(&a[q][col].abs())).unwrap();
            a.swap(col, pivot);
            b.swap(col, pivot);
            let pivot_row = a[col].clone();
            for row in col + 1..n {
                let m = a[row][col] / pivot_row[col];
                for (x, p) in a[row][col..].iter_mut().zip(&pivot_row[col..]) {
                    *x -= m * p;
                }
                b[row] -= m * b[col];
            }
        }
        for row in (0..n).rev() {
            let tail: f64 = (row + 1..n).map(|k| a[row][k] * b[k]).sum();
            b[row] = (b[row] - tail) / a[row][row];
        }
        b
    }

    #[test]
    fn lines_partition_the_grid_along_every_axis() {
        let dims = (3, 4, 5);
        for axis in 0..3 {
            let (len, stride, starts) = lines(dims, axis);
            assert_eq!(len, [3, 4, 5][axis]);
            let mut cells: Vec<usize> =
                starts.flat_map(|first| (0..len).map(move |t| first + t * stride)).collect();
            cells.sort_unstable();
            assert_eq!(cells, (0..3 * 4 * 5).map(|c| 5 * c).collect::<Vec<_>>(), "axis {axis}");
        }
    }

    #[test]
    fn face_laplacian_clamps_at_the_faces() {
        // u = i + 10 j + 100 k in variable 0: an interior cell sums to zero, a
        // corner cell keeps one step per axis towards the inside.
        let dims = (3, 3, 3);
        let mut u = vec![0.0; 27 * 5];
        for k in 0..3 {
            for j in 0..3 {
                for i in 0..3 {
                    u[cell(i, j, k, 3, 3)] = (i + 10 * j + 100 * k) as f64;
                }
            }
        }
        let mut rhs = vec![f64::NAN; u.len()];
        face_laplacian(&u, &mut rhs, dims, 0.5);
        assert_eq!(rhs[cell(1, 1, 1, 3, 3)], 0.0);
        assert_eq!(rhs[cell(0, 0, 0, 3, 3)], 0.5 * 111.0);
        assert_eq!(rhs[cell(2, 2, 2, 3, 3)], -0.5 * 111.0);
        assert!(rhs.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn thomas_solves_a_known_system() {
        // [2 1 0; 1 2 1; 0 1 2] x = [4; 8; 8] → x = [1; 2; 3]
        let a = vec![0.0, 1.0, 1.0];
        let mut b = vec![2.0, 2.0, 2.0];
        let mut c = vec![1.0, 1.0, 0.0];
        let mut d = vec![4.0, 8.0, 8.0];
        thomas_tridiag(&a, &mut b, &mut c, &mut d);
        for (x, want) in d.iter().zip([1.0, 2.0, 3.0]) {
            assert!((x - want).abs() < 1e-12, "{d:?}");
        }
    }

    #[test]
    fn penta_matches_dense_solution() {
        // Diagonally dominant pentadiagonal, verified against residual.
        let n = 12;
        let e0: Vec<f64> = (0..n).map(|i| if i >= 2 { 0.3 } else { 0.0 }).collect();
        let a0: Vec<f64> = (0..n).map(|i| if i >= 1 { -1.0 } else { 0.0 }).collect();
        let b0 = vec![6.0; n];
        let c0: Vec<f64> = (0..n).map(|i| if i + 1 < n { -1.0 } else { 0.0 }).collect();
        let f0: Vec<f64> = (0..n).map(|i| if i + 2 < n { 0.3 } else { 0.0 }).collect();
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 2.0).collect();

        let (mut e, mut a, mut b, mut c, mut f, mut d) =
            (e0.clone(), a0.clone(), b0.clone(), c0.clone(), f0.clone(), rhs.clone());
        penta_solve(&mut e, &mut a, &mut b, &mut c, &mut f, &mut d);

        // Residual check against the original bands.
        for i in 0..n {
            let mut acc = b0[i] * d[i];
            if i >= 2 {
                acc += e0[i] * d[i - 2];
            }
            if i >= 1 {
                acc += a0[i] * d[i - 1];
            }
            if i + 1 < n {
                acc += c0[i] * d[i + 1];
            }
            if i + 2 < n {
                acc += f0[i] * d[i + 2];
            }
            assert!((acc - rhs[i]).abs() < 1e-9, "row {i}: {acc} vs {}", rhs[i]);
        }
    }

    #[test]
    fn inverse5_times_original_is_identity() {
        let mut a: Block5 = [[0.0; 5]; 5];
        for (i, row) in a.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = if i == j { 5.0 } else { ((i * 5 + j) as f64).sin() * 0.5 };
            }
        }
        let inv = inverse5(&a);
        let prod = matmul5(&inv, &a);
        for (i, row) in prod.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((v - want).abs() < 1e-10, "({i},{j})={v}");
            }
        }
    }

    #[test]
    fn block_tridiag_residual_is_small() {
        let n = 8;
        let mk = |d: f64, o: f64| -> Block5 {
            let mut b = [[o * 0.1; 5]; 5];
            for (i, row) in b.iter_mut().enumerate() {
                row[i] = d;
            }
            b
        };
        let lower: Vec<Block5> =
            (0..n).map(|i| if i == 0 { [[0.0; 5]; 5] } else { mk(-1.0, 0.2) }).collect();
        let diag0: Vec<Block5> = (0..n).map(|_| mk(6.0, 0.5)).collect();
        let upper0: Vec<Block5> =
            (0..n).map(|i| if i + 1 == n { [[0.0; 5]; 5] } else { mk(-1.0, -0.3) }).collect();
        let rhs0: Vec<Vec5> = (0..n)
            .map(|i| {
                let mut v = [0.0; 5];
                for (c, x) in v.iter_mut().enumerate() {
                    *x = ((i + c) as f64).cos() + 2.0;
                }
                v
            })
            .collect();
        let mut diag = diag0.clone();
        let mut upper = upper0.clone();
        let mut x = rhs0.clone();
        block_tridiag_solve(&lower, &mut diag, &mut upper, &mut x);
        // Residual: lower*x[i-1] + diag0*x[i] + upper0*x[i+1] == rhs0.
        for i in 0..n {
            let mut acc = matvec5(&diag0[i], &x[i]);
            if i > 0 {
                let l = matvec5(&lower[i], &x[i - 1]);
                for r in 0..5 {
                    acc[r] += l[r];
                }
            }
            if i + 1 < n {
                let u = matvec5(&upper0[i], &x[i + 1]);
                for r in 0..5 {
                    acc[r] += u[r];
                }
            }
            for r in 0..5 {
                assert!((acc[r] - rhs0[i][r]).abs() < 1e-9, "row {i},{r}");
            }
        }
    }

    #[test]
    fn fft_roundtrip_recovers_input() {
        let n = 64;
        let mut data: Vec<f64> = (0..2 * n).map(|i| ((i as f64) * 0.37).sin()).collect();
        let orig = data.clone();
        fft_radix2(&mut data, -1.0);
        fft_radix2(&mut data, 1.0);
        for v in data.iter_mut() {
            *v /= n as f64;
        }
        for (a, b) in data.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let n = 16;
        let mut data = vec![0.0; 2 * n];
        data[0] = 1.0; // delta at index 0
        fft_radix2(&mut data, -1.0);
        for k in 0..n {
            assert!((data[2 * k] - 1.0).abs() < 1e-12);
            assert!(data[2 * k + 1].abs() < 1e-12);
        }
    }

    #[test]
    fn fft_parseval_energy_is_preserved() {
        let n = 128;
        let mut data: Vec<f64> = (0..2 * n).map(|i| ((i * i) as f64 * 0.01).cos()).collect();
        let time_energy: f64 = data.chunks(2).map(|c| c[0] * c[0] + c[1] * c[1]).sum();
        fft_radix2(&mut data, -1.0);
        let freq_energy: f64 =
            data.chunks(2).map(|c| c[0] * c[0] + c[1] * c[1]).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy);
    }
}
