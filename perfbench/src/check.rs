//! Output checks. A failed check counts its op as failed; it never
//! panics the run.

/// Checks the Maxwell-matrix properties of an `n × n` capacitance matrix
/// given by `get`: positive diagonal, non-positive off-diagonal entries,
/// row sums (capacitance to infinity) ≥ −`tol`·scale, and asymmetry
/// `|c_ij − c_ji|` ≤ `asym_tol`·scale, where scale is the largest
/// diagonal entry.
///
/// # Errors
///
/// A message naming the first violated property.
pub fn maxwell(
    n: usize,
    get: impl Fn(usize, usize) -> f64,
    tol: f64,
    asym_tol: f64,
) -> Result<(), String> {
    if n == 0 {
        return Err("empty matrix".into());
    }
    let scale = (0..n).map(|i| get(i, i)).fold(0.0_f64, f64::max);
    if !(scale.is_finite() && scale > 0.0) {
        return Err(format!("largest diagonal {scale} is not positive and finite"));
    }
    for i in 0..n {
        let mut row = 0.0;
        for j in 0..n {
            let v = get(i, j);
            if !v.is_finite() {
                return Err(format!("C[{i}][{j}] = {v} is not finite"));
            }
            if i == j && v <= 0.0 {
                return Err(format!("diagonal C[{i}][{i}] = {v} is not positive"));
            }
            if i != j && v > 0.0 {
                return Err(format!("off-diagonal C[{i}][{j}] = {v} is positive"));
            }
            if (v - get(j, i)).abs() > asym_tol * scale {
                return Err(format!("C[{i}][{j}] and C[{j}][{i}] differ beyond {asym_tol}"));
            }
            row += v;
        }
        if row < -tol * scale {
            return Err(format!("row {i} sums to {row}"));
        }
    }
    Ok(())
}

/// Largest `|a − b|` over the entries, relative to the largest `|a|`.
pub fn max_rel_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    let scale = a.iter().fold(0.0_f64, |m, v| m.max(v.abs())).max(f64::MIN_POSITIVE);
    a.iter().zip(b).fold(0.0_f64, |m, (x, y)| m.max((x - y).abs() / scale))
}

/// Whether two value lists are identical bit for bit.
pub fn bit_identical(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether two matrices, given as rows, are identical bit for bit.
pub fn rows_bit_identical(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bit_identical(x, y))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: &[[f64; 2]; 2]) -> impl Fn(usize, usize) -> f64 + '_ {
        move |i, j| rows[i][j]
    }

    #[test]
    fn accepts_a_maxwell_matrix() {
        let c = [[2.0, -1.0], [-1.0, 2.0]];
        assert!(maxwell(2, m(&c), 1e-9, 1e-9).is_ok());
    }

    #[test]
    fn rejects_each_violation() {
        assert!(maxwell(2, m(&[[2.0, 0.1], [0.1, 2.0]]), 1e-9, 1e-9).is_err());
        assert!(maxwell(2, m(&[[-2.0, -1.0], [-1.0, 2.0]]), 1e-9, 1e-9).is_err());
        assert!(maxwell(2, m(&[[1.0, -1.5], [-1.5, 2.0]]), 1e-9, 1e-9).is_err());
        assert!(maxwell(2, m(&[[2.0, -1.0], [-1.1, 2.0]]), 1e-9, 1e-9).is_err());
        assert!(maxwell(2, m(&[[2.0, f64::NAN], [-1.0, 2.0]]), 1e-9, 1e-9).is_err());
        assert!(maxwell(0, |_, _| 0.0, 1e-9, 1e-9).is_err());
    }

    #[test]
    fn relative_and_bitwise_comparison() {
        assert_eq!(max_rel_diff(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((max_rel_diff(&[1.0, 2.0], &[1.0, 2.2]) - 0.1).abs() < 1e-12);
        assert!(max_rel_diff(&[1.0], &[]).is_infinite());
        assert!(bit_identical(&[0.5, -1.0], &[0.5, -1.0]));
        assert!(!bit_identical(&[0.0], &[-0.0]));
        assert!(rows_bit_identical(&[vec![1.0], vec![2.0]], &[vec![1.0], vec![2.0]]));
        assert!(!rows_bit_identical(&[vec![1.0]], &[vec![1.0], vec![2.0]]));
    }
}
