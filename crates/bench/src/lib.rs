//! Shared harness for the figure/table reproduction binary and the
//! criterion micro-benchmarks.
//!
//! Every experiment of the paper's §6 maps to one function in
//! `src/bin/figures.rs`; this library holds the plumbing: scaled platform
//! constructors, timing helpers and the plain-text table printer.

pub mod telemetry_export;
pub mod vm_tiers;

use std::time::{Duration, Instant};

use faasm_baseline::{BaselineConfig, BaselinePlatform, ImageConfig};
use faasm_core::{Cluster, ClusterConfig, InstanceConfig};

/// Build a FAASM cluster sized for experiments.
pub fn faasm_cluster(hosts: usize, workers: usize) -> Cluster {
    Cluster::with_config(ClusterConfig {
        hosts,
        instance: InstanceConfig {
            workers,
            ..InstanceConfig::default()
        },
        invoke_timeout: Duration::from_secs(300),
        ..ClusterConfig::default()
    })
}

/// Build the container baseline sized for experiments.
///
/// `image_bytes` models the function image (the paper observed ~8 MB of
/// container overhead; experiments scale it down together with the
/// workloads). `host_memory_limit` bounds containers per host — the OOM
/// behaviour behind Fig. 6a's truncated Knative line.
pub fn baseline_platform(
    hosts: usize,
    workers: usize,
    image_bytes: usize,
    host_memory_limit: usize,
) -> BaselinePlatform {
    BaselinePlatform::with_config(BaselineConfig {
        hosts,
        workers,
        image: ImageConfig {
            image_bytes,
            layers: 5,
            boot_passes: 4,
        },
        host_memory_limit,
        invoke_timeout: Duration::from_secs(300),
        ..BaselineConfig::default()
    })
}

/// Time a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Median of a duration sample set (empty → zero).
pub fn median(mut samples: Vec<Duration>) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Nearest-rank percentile of durations (0.0–1.0; empty → zero).
pub fn percentile(mut samples: Vec<Duration>, p: f64) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    samples.sort_unstable();
    let rank = ((p.clamp(0.0, 1.0)) * (samples.len() - 1) as f64).round() as usize;
    samples[rank]
}

/// A fixed-width plain-text table printer.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header length).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "table shape");
        self.rows.push(cells.to_vec());
        self
    }

    /// Render to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let print_row = |cells: &[String]| {
            let line: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("  {}", line.join("  "));
        };
        print_row(&self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("  {}", "-".repeat(total));
        for row in &self.rows {
            print_row(row);
        }
    }
}

/// Format a duration compactly.
pub fn fmt_dur(d: Duration) -> String {
    if d.as_secs() >= 10 {
        format!("{:.1}s", d.as_secs_f64())
    } else if d.as_millis() >= 10 {
        format!("{:.0}ms", d.as_secs_f64() * 1e3)
    } else if d.as_micros() >= 10 {
        format!("{:.0}us", d.as_secs_f64() * 1e6)
    } else {
        format!("{}ns", d.as_nanos())
    }
}

/// Format bytes as MB with two decimals.
pub fn fmt_mb(bytes: u64) -> String {
    format!("{:.2}MB", bytes as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_helpers() {
        let ds: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(median(ds.clone()), Duration::from_millis(51));
        assert_eq!(percentile(ds.clone(), 0.0), Duration::from_millis(1));
        assert_eq!(percentile(ds, 1.0), Duration::from_millis(100));
        assert_eq!(median(vec![]), Duration::ZERO);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_dur(Duration::from_secs(12)), "12.0s");
        assert_eq!(fmt_dur(Duration::from_millis(42)), "42ms");
        assert_eq!(fmt_dur(Duration::from_micros(55)), "55us");
        assert_eq!(fmt_dur(Duration::from_nanos(7)), "7ns");
        assert_eq!(fmt_mb(2_500_000), "2.50MB");
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        t.print();
    }

    #[test]
    fn platform_constructors() {
        let c = faasm_cluster(1, 2);
        assert_eq!(c.instances().len(), 1);
        let b = baseline_platform(1, 2, 64 * 1024, 1 << 30);
        assert_eq!(b.hosts().len(), 1);
    }
}
