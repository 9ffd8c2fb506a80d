//! Performance-profile computation and rendering.

/// One point of a performance profile: at ratio `tau`, `fraction` of the
/// instances are solved within `tau` times the best method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilePoint {
    /// Performance ratio (≥ 1).
    pub tau: f64,
    /// Fraction of instances (in `[0, 1]`) with ratio ≤ `tau`.
    pub fraction: f64,
}

/// Performance profiles of a set of methods over a common set of instances.
#[derive(Debug, Clone)]
pub struct PerformanceProfile {
    method_names: Vec<String>,
    /// `ratios[m][i]`: cost of method `m` on instance `i` divided by the
    /// best cost on instance `i`.
    ratios: Vec<Vec<f64>>,
}

impl PerformanceProfile {
    /// Build profiles from raw costs.
    ///
    /// `costs[m][i]` is the cost of method `m` on instance `i` (smaller is
    /// better); costs must be non-negative and every instance must have at
    /// least one finite, positive best cost.  Instances where the best cost
    /// is zero are handled by treating every zero-cost method as ratio 1 and
    /// any positive-cost method as ratio `+∞` (it never catches up), which
    /// matches how the paper treats zero-I/O instances.
    ///
    /// # Panics
    /// Panics if the methods do not all have the same number of instances or
    /// if any cost is negative or NaN.
    pub fn from_costs(method_names: &[&str], costs: &[Vec<f64>]) -> Self {
        assert_eq!(
            method_names.len(),
            costs.len(),
            "one cost vector per method expected"
        );
        assert!(!costs.is_empty(), "at least one method expected");
        let instances = costs[0].len();
        for (m, series) in costs.iter().enumerate() {
            assert_eq!(
                series.len(),
                instances,
                "method {m} has a different number of instances"
            );
            assert!(
                series.iter().all(|&c| c >= 0.0 && !c.is_nan()),
                "costs must be non-negative"
            );
        }
        let mut ratios = vec![vec![0.0; instances]; costs.len()];
        for i in 0..instances {
            let best = costs
                .iter()
                .map(|series| series[i])
                .fold(f64::INFINITY, f64::min);
            for (m, series) in costs.iter().enumerate() {
                ratios[m][i] = if best > 0.0 {
                    series[i] / best
                } else if series[i] == 0.0 {
                    1.0
                } else {
                    f64::INFINITY
                };
            }
        }
        PerformanceProfile {
            method_names: method_names.iter().map(|s| s.to_string()).collect(),
            ratios,
        }
    }

    /// Names of the methods, in the order they were provided.
    pub fn method_names(&self) -> &[String] {
        &self.method_names
    }

    /// Number of instances.
    pub fn instance_count(&self) -> usize {
        self.ratios.first().map(Vec::len).unwrap_or(0)
    }

    /// The performance ratios of one method (one entry per instance).
    pub fn ratios(&self, method: usize) -> &[f64] {
        &self.ratios[method]
    }

    /// Value of the profile of `method` at ratio `tau`: the fraction of
    /// instances where the method is within a factor `tau` of the best.
    pub fn value_at(&self, method: usize, tau: f64) -> f64 {
        let instances = self.instance_count();
        if instances == 0 {
            return 0.0;
        }
        let within = self.ratios[method].iter().filter(|&&r| r <= tau).count();
        within as f64 / instances as f64
    }

    /// The profile curve of `method` sampled at `samples` evenly spaced
    /// ratios between 1 and `max_tau` (inclusive).
    pub fn curve(&self, method: usize, max_tau: f64, samples: usize) -> Vec<ProfilePoint> {
        assert!(max_tau >= 1.0 && samples >= 2);
        (0..samples)
            .map(|s| {
                let tau = 1.0 + (max_tau - 1.0) * s as f64 / (samples - 1) as f64;
                ProfilePoint {
                    tau,
                    fraction: self.value_at(method, tau),
                }
            })
            .collect()
    }

    /// Fraction of instances on which `method` matches the best cost
    /// (ratio 1, within floating-point tolerance).
    pub fn fraction_best(&self, method: usize) -> f64 {
        self.value_at(method, 1.0 + 1e-12)
    }

    /// CSV rendering of the profiles sampled at `samples` ratios up to
    /// `max_tau`: one line per sample, one column per method.
    pub fn to_csv(&self, max_tau: f64, samples: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("tau");
        for name in &self.method_names {
            out.push(',');
            out.push_str(name);
        }
        out.push('\n');
        let curves: Vec<Vec<ProfilePoint>> = (0..self.method_names.len())
            .map(|m| self.curve(m, max_tau, samples))
            .collect();
        for s in 0..samples {
            let _ = write!(out, "{:.4}", curves[0][s].tau);
            for curve in &curves {
                let _ = write!(out, ",{:.4}", curve[s].fraction);
            }
            out.push('\n');
        }
        out
    }

    /// A rough ASCII rendering of the profiles (one row per method, `width`
    /// buckets between τ = 1 and `max_tau`), for terminal output of the
    /// experiment binaries.
    pub fn to_ascii(&self, max_tau: f64, width: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let name_width = self
            .method_names
            .iter()
            .map(String::len)
            .max()
            .unwrap_or(8)
            .max(8);
        let _ = writeln!(
            out,
            "{:name_width$}  profile from tau=1 to tau={:.2} ({} instances)",
            "method",
            max_tau,
            self.instance_count()
        );
        for (m, name) in self.method_names.iter().enumerate() {
            let _ = write!(out, "{name:name_width$}  ");
            for s in 0..width {
                let tau = 1.0 + (max_tau - 1.0) * s as f64 / (width - 1) as f64;
                let value = self.value_at(m, tau);
                let glyph = match (value * 10.0).round() as i64 {
                    0 => ' ',
                    1..=2 => '.',
                    3..=5 => ':',
                    6..=8 => '+',
                    _ => '#',
                };
                out.push(glyph);
            }
            let _ = writeln!(out, "  (best on {:.1}%)", 100.0 * self.fraction_best(m));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_and_values() {
        // Two methods, three instances.
        let profile = PerformanceProfile::from_costs(
            &["a", "b"],
            &[vec![1.0, 2.0, 3.0], vec![2.0, 2.0, 1.0]],
        );
        assert_eq!(profile.instance_count(), 3);
        assert_eq!(profile.ratios(0), &[1.0, 1.0, 3.0]);
        assert_eq!(profile.ratios(1), &[2.0, 1.0, 1.0]);
        assert!((profile.fraction_best(0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((profile.fraction_best(1) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(profile.value_at(0, 3.0), 1.0);
        assert_eq!(profile.value_at(1, 1.5), 2.0 / 3.0);
    }

    #[test]
    fn profiles_are_monotone_in_tau() {
        let profile = PerformanceProfile::from_costs(
            &["x", "y", "z"],
            &[
                vec![5.0, 1.0, 4.0, 2.0],
                vec![4.0, 2.0, 4.0, 2.0],
                vec![3.0, 3.0, 4.0, 8.0],
            ],
        );
        for m in 0..3 {
            let curve = profile.curve(m, 4.0, 16);
            for pair in curve.windows(2) {
                assert!(pair[1].fraction >= pair[0].fraction);
            }
            assert_eq!(curve.first().unwrap().tau, 1.0);
            assert_eq!(curve.last().unwrap().tau, 4.0);
        }
    }

    #[test]
    fn zero_cost_instances_are_handled() {
        // Instance 0: both methods at zero cost -> both ratio 1.
        // Instance 1: method a at zero, method b positive -> b never catches up.
        let profile =
            PerformanceProfile::from_costs(&["a", "b"], &[vec![0.0, 0.0], vec![0.0, 5.0]]);
        assert_eq!(profile.value_at(0, 1.0), 1.0);
        assert_eq!(profile.value_at(1, 1000.0), 0.5);
    }

    #[test]
    fn csv_and_ascii_render() {
        let profile =
            PerformanceProfile::from_costs(&["fast", "slow"], &[vec![1.0, 1.0], vec![2.0, 3.0]]);
        let csv = profile.to_csv(3.0, 5);
        assert!(csv.starts_with("tau,fast,slow"));
        assert_eq!(csv.lines().count(), 6);
        let ascii = profile.to_ascii(3.0, 20);
        assert!(ascii.contains("fast") && ascii.contains("slow"));
        assert!(ascii.contains("best on 100.0%"));
    }

    #[test]
    #[should_panic(expected = "different number of instances")]
    fn mismatched_lengths_are_rejected() {
        PerformanceProfile::from_costs(&["a", "b"], &[vec![1.0], vec![1.0, 2.0]]);
    }
}
