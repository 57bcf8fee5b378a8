// Hash-order iteration: `iter_over_hash_type` and the hash-method entries.
use std::collections::{HashMap, HashSet};

pub fn summarize(counts: &HashMap<String, u64>) -> Vec<String> {
    let mut out = Vec::new();
    for (k, v) in counts {
        out.push(format!("{k}={v}"));
    }
    for v in counts.values() {
        out.push(v.to_string());
    }
    #[allow(clippy::iter_over_hash_type, clippy::disallowed_methods)] // vetted
    for k in counts.keys() {
        out.push(k.clone());
    }
    if counts.values().any(|v| *v > 10) {
        out.push("big".into());
    }
    out
}

// Every other configured method, one per line.
pub fn drain_all(m: &mut HashMap<u32, u32>, a: &mut HashSet<u32>, b: &HashSet<u32>) -> Vec<u32> {
    let mut out: Vec<u32> = m.iter_mut().map(|(k, _)| *k).collect();
    out.extend(m.values_mut().map(|v| *v));
    out.extend(a.iter());
    out.extend(a.union(b));
    out.extend(a.intersection(b));
    out.extend(a.difference(b));
    out.extend(a.symmetric_difference(b));
    out.extend(a.drain());
    out.extend(m.clone().into_keys());
    out.extend(m.clone().into_values());
    out.extend(m.drain().map(|(k, _)| k));
    // Known gap: `IntoIterator::into_iter` on a hash type is not caught.
    let rest: Vec<u32> = b.clone().into_iter().collect();
    out.extend(rest);
    out
}
