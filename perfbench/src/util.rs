//! Small helpers: order statistics, seed derivation, the machine stamp
//! and peak memory.

/// The `q`-quantile of an already sorted slice, by linear interpolation
/// between closest ranks; `NaN` when empty.
pub fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Sort `v` and return its `q`-quantile.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile_sorted(v, q)
}

/// SplitMix64: derives independent sub-seeds (Zipf, outages, ...) from
/// the workload seed, so one `--seed` fixes every input.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Reset the peak resident set size (`VmHWM`) to the current one, so
/// that [`peak_rss_mib`] covers only what runs after this call. Does
/// nothing where `/proc` is unavailable.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `NaN`
/// where `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The machine stamp every result carries: core count, CPU model, the
/// compiler that built the benchmark and the source commit (read from
/// `.git` in the working directory when there is one).
pub fn machine_stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "nproc={nproc} cpu=\"{model}\" rustc=\"{}\" commit={}",
        env!("PERFBENCH_RUSTC_VERSION"),
        git_commit().unwrap_or_else(|| "none".to_string())
    )
}

/// `HEAD`'s commit id from `.git` in the working directory, without
/// running git (so nothing outside the checkout is read).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(quantile(&mut [3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&mut [4.0, 1.0, 2.0, 3.0], 0.5), 2.5);
        let mut v = vec![0.0, 10.0];
        assert_eq!(quantile(&mut v, 0.5), 5.0);
        assert_eq!(quantile(&mut v, 1.0), 10.0);
    }

    #[test]
    fn derived_seeds_differ_by_salt_and_repeat() {
        assert_eq!(derive_seed(7, 1), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 1), derive_seed(7, 2));
        assert_ne!(derive_seed(7, 1), derive_seed(8, 1));
    }
}
