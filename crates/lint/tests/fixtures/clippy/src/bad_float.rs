// NaN-unsafe comparators: the `partial_cmp` entry.

pub fn sort_desc(xs: &mut [f64]) {
    xs.sort_by(|a, b| b.partial_cmp(a).unwrap());
}

pub fn closest(xs: &[f64], target: f64) -> Option<f64> {
    xs.iter()
        .copied()
        .min_by(|a, b| {
            (a - target)
                .abs()
                .partial_cmp(&(b - target).abs())
                .expect("no NaN here")
        })
}
