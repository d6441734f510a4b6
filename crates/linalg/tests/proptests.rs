//! Randomized property tests for the linear-algebra substrate.
//!
//! Seeded-loop style (no external property-testing framework): each
//! property is checked over a fixed number of randomly generated cases
//! drawn from a per-test seed, so failures reproduce exactly.

use ld_linalg::{solve, vecops, Cholesky, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 32;

fn matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let data: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(-10.0..10.0)).collect();
    Matrix::from_vec(rows, cols, data).unwrap()
}

fn vector(len: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(-10.0..10.0)).collect()
}

#[test]
fn matmul_associative() {
    let mut rng = StdRng::seed_from_u64(0x11A1);
    for _ in 0..CASES {
        let a = matrix(4, 3, &mut rng);
        let b = matrix(3, 5, &mut rng);
        let c = matrix(5, 2, &mut rng);
        let ab_c = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let a_bc = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        assert!(ab_c.max_abs_diff(&a_bc) < 1e-9);
    }
}

#[test]
fn matmul_distributes_over_addition() {
    let mut rng = StdRng::seed_from_u64(0x11A2);
    for _ in 0..CASES {
        let a = matrix(4, 3, &mut rng);
        let b = matrix(3, 2, &mut rng);
        let c = matrix(3, 2, &mut rng);
        let mut b_plus_c = b.clone();
        b_plus_c.add_assign(&c).unwrap();
        let lhs = a.matmul(&b_plus_c).unwrap();
        let mut rhs = a.matmul(&b).unwrap();
        rhs.add_assign(&a.matmul(&c).unwrap()).unwrap();
        assert!(lhs.max_abs_diff(&rhs) < 1e-9);
    }
}

#[test]
fn transpose_reverses_product() {
    let mut rng = StdRng::seed_from_u64(0x11A3);
    for _ in 0..CASES {
        let a = matrix(4, 3, &mut rng);
        let b = matrix(3, 5, &mut rng);
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        assert!(lhs.max_abs_diff(&rhs) < 1e-9);
    }
}

#[test]
fn cholesky_roundtrips_spd() {
    let mut rng = StdRng::seed_from_u64(0x11A4);
    for _ in 0..CASES {
        // B B^T + 6I is SPD for any B with bounded entries.
        let b = matrix(6, 6, &mut rng);
        let mut a = b.matmul(&b.transpose()).unwrap();
        for i in 0..6 {
            a[(i, i)] += 6.0;
        }
        let ch = Cholesky::factor(&a).unwrap();
        let recon = ch.l().matmul(&ch.l().transpose()).unwrap();
        assert!(recon.max_abs_diff(&a) < 1e-7);
    }
}

#[test]
fn cholesky_solve_is_inverse() {
    let mut rng = StdRng::seed_from_u64(0x11A5);
    for _ in 0..CASES {
        let b = matrix(5, 5, &mut rng);
        let x = vector(5, &mut rng);
        let mut a = b.matmul(&b.transpose()).unwrap();
        for i in 0..5 {
            a[(i, i)] += 5.0;
        }
        let rhs = a.matvec(&x).unwrap();
        let ch = Cholesky::factor(&a).unwrap();
        let solved = ch.solve(&rhs).unwrap();
        for (u, v) in solved.iter().zip(&x) {
            assert!((u - v).abs() < 1e-6);
        }
    }
}

#[test]
fn lstsq_residual_orthogonal_to_columns() {
    let mut rng = StdRng::seed_from_u64(0x11A6);
    for _ in 0..CASES {
        // Normal-equation optimality: A^T (A x - b) ~ 0 (up to ridge).
        let a = matrix(12, 3, &mut rng);
        let b = vector(12, &mut rng);
        let x = solve::lstsq(&a, &b, 1e-9).unwrap();
        let pred = a.matvec(&x).unwrap();
        let resid: Vec<f64> = pred.iter().zip(&b).map(|(p, t)| p - t).collect();
        let grad = a.matvec_t(&resid).unwrap();
        for g in grad {
            assert!(g.abs() < 1e-4, "gradient component {g}");
        }
    }
}

#[test]
fn dot_is_bilinear() {
    let mut rng = StdRng::seed_from_u64(0x11A7);
    for _ in 0..CASES {
        let x = vector(6, &mut rng);
        let y = vector(6, &mut rng);
        let alpha = rng.gen_range(-5.0..5.0);
        let scaled: Vec<f64> = x.iter().map(|v| v * alpha).collect();
        let lhs = vecops::dot(&scaled, &y);
        let rhs = alpha * vecops::dot(&x, &y);
        assert!((lhs - rhs).abs() < 1e-8);
    }
}

#[test]
fn variance_nonnegative_and_shift_invariant() {
    let mut rng = StdRng::seed_from_u64(0x11A9);
    for _ in 0..CASES {
        let x = vector(10, &mut rng);
        let shift = rng.gen_range(-100.0..100.0);
        let shifted: Vec<f64> = x.iter().map(|v| v + shift).collect();
        let v0 = vecops::variance(&x);
        let v1 = vecops::variance(&shifted);
        assert!(v0 >= 0.0);
        assert!((v0 - v1).abs() < 1e-6);
    }
}
